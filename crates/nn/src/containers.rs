//! Composite modules: sequential chains, residual blocks and parallel
//! channel-concatenated branches.
//!
//! These three containers are sufficient to express every CNN topology in
//! the paper's model zoo: plain chains (VGG/MobileNet), skip connections
//! (ResNet/MobileNet-V2), dense connectivity (DenseNet — concatenation of
//! the input with the block output) and multi-branch inception modules.

use crate::module::{ForwardCtx, Module, PredictionSite};
use crate::param::Param;
use adagp_tensor::Tensor;

/// A chain of modules applied in order.
///
/// ```
/// use adagp_nn::{containers::Sequential, layers::{Linear, Relu}};
/// use adagp_nn::module::{Module, ForwardCtx};
/// use adagp_tensor::{Prng, Tensor};
/// let mut rng = Prng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, true, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, true, &mut rng));
/// let y = net.forward(&Tensor::ones(&[1, 4]), &mut ForwardCtx::train());
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Module + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Module>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return x.clone();
        };
        let mut h = first.forward(x, ctx);
        for layer in layers {
            h = layer.forward(&h, ctx);
        }
        h
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return dy.clone();
        };
        let mut g = last.backward(dy);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        for layer in &mut self.layers {
            layer.visit_sites(f);
        }
    }
}

/// A residual block: `y = body(x) + shortcut(x)`.
///
/// The shortcut defaults to identity; ResNet downsample stages supply a
/// 1×1 strided projection.
pub struct Residual {
    body: Sequential,
    shortcut: Option<Box<dyn Module>>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(body={:?}, projected={})",
            self.body,
            self.shortcut.is_some()
        )
    }
}

impl Residual {
    /// Creates a residual block with identity shortcut.
    pub fn new(body: Sequential) -> Self {
        Residual {
            body,
            shortcut: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_projection(body: Sequential, shortcut: impl Module + 'static) -> Self {
        Residual {
            body,
            shortcut: Some(Box::new(shortcut)),
        }
    }
}

impl Module for Residual {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let mut y = self.body.forward(x, ctx);
        match &mut self.shortcut {
            Some(proj) => y.add_assign(&proj.forward(x, ctx)),
            None => y.add_assign(x),
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dx = self.body.backward(dy);
        match &mut self.shortcut {
            Some(proj) => {
                let dskip = proj.backward(dy);
                dx.add_assign(&dskip);
            }
            None => dx.add_assign(dy),
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(f);
        }
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        self.body.visit_sites(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_sites(f);
        }
    }
}

/// Concatenates rank-4 tensors along the channel axis.
///
/// # Panics
///
/// Panics if `parts` is empty or N/H/W dimensions disagree.
pub fn cat_channels(parts: &[&Tensor]) -> Tensor {
    assert!(
        !parts.is_empty(),
        "cat_channels requires at least one tensor"
    );
    let (n, h, w) = (parts[0].dim(0), parts[0].dim(2), parts[0].dim(3));
    let mut c_total = 0;
    for p in parts {
        assert_eq!(p.ndim(), 4, "cat_channels requires rank-4 tensors");
        assert_eq!(p.dim(0), n, "cat_channels batch mismatch");
        assert_eq!(p.dim(2), h, "cat_channels height mismatch");
        assert_eq!(p.dim(3), w, "cat_channels width mismatch");
        c_total += p.dim(1);
    }
    let hw = h * w;
    let mut out = vec![0.0f32; n * c_total * hw];
    for ni in 0..n {
        let mut c_off = 0;
        for p in parts {
            let c = p.dim(1);
            let src = &p.data()[ni * c * hw..(ni + 1) * c * hw];
            let dst = &mut out[(ni * c_total + c_off) * hw..(ni * c_total + c_off + c) * hw];
            dst.copy_from_slice(src);
            c_off += c;
        }
    }
    Tensor::from_vec(out, &[n, c_total, h, w])
}

/// Splits a rank-4 tensor along the channel axis into chunks of the given
/// sizes.
///
/// # Panics
///
/// Panics if the sizes do not sum to the channel count.
pub fn split_channels(x: &Tensor, sizes: &[usize]) -> Vec<Tensor> {
    assert_eq!(x.ndim(), 4, "split_channels requires a rank-4 tensor");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(
        sizes.iter().sum::<usize>(),
        c,
        "split_channels sizes must sum to the channel count"
    );
    let hw = h * w;
    let mut result = Vec::with_capacity(sizes.len());
    let mut c_off = 0;
    for &sz in sizes {
        let mut out = vec![0.0f32; n * sz * hw];
        for ni in 0..n {
            let src = &x.data()[(ni * c + c_off) * hw..(ni * c + c_off + sz) * hw];
            out[ni * sz * hw..(ni + 1) * sz * hw].copy_from_slice(src);
        }
        result.push(Tensor::from_vec(out, &[n, sz, h, w]));
        c_off += sz;
    }
    result
}

/// Parallel branches whose rank-4 outputs are concatenated along channels —
/// the inception-module topology.
pub struct Branches {
    branches: Vec<Sequential>,
    out_channels: Vec<usize>,
}

impl std::fmt::Debug for Branches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Branches(n={})", self.branches.len())
    }
}

impl Branches {
    /// Creates a branch container from parallel chains.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty.
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(
            !branches.is_empty(),
            "Branches requires at least one branch"
        );
        Branches {
            branches,
            out_channels: Vec::new(),
        }
    }
}

impl Module for Branches {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let outs: Vec<Tensor> = self
            .branches
            .iter_mut()
            .map(|b| b.forward(x, ctx))
            .collect();
        self.out_channels = outs.iter().map(|o| o.dim(1)).collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        cat_channels(&refs)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(
            !self.out_channels.is_empty(),
            "Branches::backward called before forward"
        );
        let parts = split_channels(dy, &self.out_channels);
        let mut dx: Option<Tensor> = None;
        for (branch, part) in self.branches.iter_mut().zip(parts.iter()) {
            let g = branch.backward(part);
            match &mut dx {
                Some(acc) => acc.add_assign(&g),
                None => dx = Some(g),
            }
        }
        dx.expect("Branches has at least one branch")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.branches {
            b.visit_params(f);
        }
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        for b in &mut self.branches {
            b.visit_sites(f);
        }
    }
}

/// A DenseNet-style block: output is `concat(x, body(x))` along channels.
pub struct DenseCat {
    body: Sequential,
    in_channels: usize,
    body_channels: usize,
}

impl std::fmt::Debug for DenseCat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseCat(in={}, growth={})",
            self.in_channels, self.body_channels
        )
    }
}

impl DenseCat {
    /// Creates a dense block that concatenates its input with the body
    /// output (`body_channels` = growth rate).
    pub fn new(body: Sequential, in_channels: usize, body_channels: usize) -> Self {
        DenseCat {
            body,
            in_channels,
            body_channels,
        }
    }
}

impl Module for DenseCat {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let new = self.body.forward(x, ctx);
        cat_channels(&[x, &new])
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let parts = split_channels(dy, &[self.in_channels, self.body_channels]);
        let mut dx = self.body.backward(&parts[1]);
        dx.add_assign(&parts[0]);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        self.body.visit_sites(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear, Relu};
    use crate::module::{count_params, count_sites};
    use adagp_tensor::{init, Prng};

    #[test]
    fn sequential_forward_backward() {
        let mut rng = Prng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 8, true, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 2, true, &mut rng));
        assert_eq!(net.len(), 3);
        let x = Tensor::ones(&[3, 4]);
        let y = net.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[3, 2]);
        let dx = net.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(dx.shape(), &[3, 4]);
        assert_eq!(count_sites(&mut net), 2);
    }

    #[test]
    fn residual_identity_adds_input() {
        // Empty body: y = 0-layer chain output (x) + x = 2x.
        let body = Sequential::new();
        let mut res = Residual::new(body);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let y = res.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.data(), &[2.0, 4.0]);
        let dx = res.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(dx.data(), &[2.0, 2.0]);
    }

    #[test]
    fn residual_gradient_check() {
        let mut rng = Prng::seed_from_u64(2);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 2, 3, 1, 1, false, &mut rng));
        let mut res = Residual::new(body);
        let x = init::gaussian(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let y = res.forward(&x, &mut ForwardCtx::train());
        let dx = res.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for i in (0..x.len()).step_by(6) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let up = res.forward(&xp, &mut ForwardCtx::eval()).sum();
            let dn = res.forward(&xm, &mut ForwardCtx::eval()).sum();
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "dx[{i}] numeric {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn cat_split_channels_roundtrip() {
        let mut rng = Prng::seed_from_u64(3);
        let a = init::gaussian(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let b = init::gaussian(&[2, 5, 4, 4], 0.0, 1.0, &mut rng);
        let c = cat_channels(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 8, 4, 4]);
        let parts = split_channels(&c, &[3, 5]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn branches_concat_and_backward() {
        let mut rng = Prng::seed_from_u64(4);
        let mut b1 = Sequential::new();
        b1.push(Conv2d::new(2, 3, 1, 1, 0, false, &mut rng));
        let mut b2 = Sequential::new();
        b2.push(Conv2d::new(2, 5, 3, 1, 1, false, &mut rng));
        let mut br = Branches::new(vec![b1, b2]);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = br.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let dx = br.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(count_sites(&mut br), 2);
    }

    #[test]
    fn dense_cat_grows_channels() {
        let mut rng = Prng::seed_from_u64(5);
        let mut body = Sequential::new();
        body.push(Conv2d::new(4, 2, 3, 1, 1, false, &mut rng));
        let mut dense = DenseCat::new(body, 4, 2);
        let x = Tensor::ones(&[1, 4, 4, 4]);
        let y = dense.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[1, 6, 4, 4]);
        let dx = dense.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn nested_param_counts() {
        let mut rng = Prng::seed_from_u64(6);
        let mut inner = Sequential::new();
        inner.push(Linear::new(2, 2, false, &mut rng));
        let mut outer = Sequential::new();
        outer.push_boxed(Box::new(Residual::new(inner)));
        assert_eq!(count_params(&mut outer), 4);
    }
}
