//! Normalization kernels: batch normalization (2-D) and layer
//! normalization, forward and backward.
//!
//! ResNet/DenseNet/Inception/MobileNet all rely on BatchNorm; the
//! transformer model uses LayerNorm.
//!
//! # Batch-norm's order
//!
//! For each channel `c` of an `(N, C, H, W)` batch, every sum runs from
//! `0.0` over the samples ascending and, within a sample, the plane's
//! `H·W` elements ascending, one `f32` accumulator per channel:
//!
//! ```text
//! mean = (Σ x) · r                  var = (Σ (x − mean) · (x − mean)) · r
//! dγ   =  Σ dy · x̂                  dβ  =  Σ dy
//! ```
//!
//! with `r = 1 / NHW` rounded once. Everything else — `x̂`, the output,
//! `dx` — is elementwise from those per-channel values.
//!
//! # Eight channels to an instruction
//!
//! Each of those sums is a chain of dependent adds, so one channel at a
//! time ran at one add's latency per element, whatever the plane size. The
//! chains run eight channels at a time instead, a channel per
//! vector lane (the crate's `lanes` module): lane `l` of a group reads
//! channel `8g + l` plane by plane and adds its own terms in the order
//! above, so no bit moves; a lane is never a piece of a sum, so nothing
//! crosses channels (a NaN stays in its own). The forward's statistics run
//! on the `adagp_runtime` pool in blocks of whole lane groups and its
//! normalization in `(sample, channel)` row blocks; no block boundary
//! changes an element's order, so the bytes are the same for every
//! `ADAGP_THREADS`. The backward runs on the calling thread: dispatching
//! `dγ`/`dβ` and `dx` at MobileNet-V2's sizes (8 samples, planes of 2×2 to
//! 16×16) saved no time on two threads and cost two allocations per pool
//! task.

use crate::lanes::{self, LANES};
use crate::par;
use crate::Tensor;

/// Saved state from a batch-norm forward pass, needed by the backward pass.
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    /// Normalized activations `x_hat`.
    pub x_hat: Tensor,
    /// Per-channel batch standard deviation (with epsilon folded in).
    pub std: Vec<f32>,
}

/// Batch normalization over `(N, C, H, W)`: normalizes each channel across
/// `N, H, W`, then applies per-channel scale `gamma` and shift `beta`.
///
/// Returns `(output, cache, batch_mean, batch_var)` — the mean/var feed the
/// running statistics kept by the layer.
///
/// # Panics
///
/// Panics on rank or channel mismatch.
pub fn batchnorm2d_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, BatchNormCache, Vec<f32>, Vec<f32>) {
    assert_eq!(x.ndim(), 4, "batchnorm2d: input must be (N, C, H, W)");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(gamma.len(), c, "batchnorm2d: gamma length mismatch");
    assert_eq!(beta.len(), c, "batchnorm2d: beta length mismatch");
    let per_c = n * h * w;
    let inv = 1.0 / per_c as f32;
    let hw = h * w;
    let xd = x.data();

    // Per-channel mean and variance, a lane group of channels per row.
    let groups = c.div_ceil(LANES);
    let mut mean = vec![0.0f32; groups * LANES];
    let mut var = vec![0.0f32; groups * LANES];
    let work = 2 * n * c * hw;
    par::row_blocks_pair(
        &mut mean,
        &mut var,
        groups,
        LANES,
        LANES,
        work,
        |first, mc, vc| {
            moments(xd, (n, c, hw), inv, first, mc, vc);
        },
    );
    mean.truncate(c);
    var.truncate(c);

    let std: Vec<f32> = var.iter().map(|&v| (v + eps).sqrt()).collect();
    let mut x_hat = vec![0.0f32; x.len()];
    let mut out = vec![0.0f32; x.len()];
    // Normalization: one `(sample, channel)` plane per row, elementwise.
    par::row_blocks_pair(
        &mut x_hat,
        &mut out,
        n * c,
        hw,
        hw,
        x.len(),
        |first, xhc, oc| {
            let rows = xhc.chunks_mut(hw).zip(oc.chunks_mut(hw));
            for (row, (xh_row, out_row)) in (first..).zip(rows) {
                let ci = row % c;
                let m = mean[ci];
                let s = 1.0 / std[ci];
                let g = gamma.data()[ci];
                let b = beta.data()[ci];
                let x_row = &xd[row * hw..][..hw];
                for ((xh, o), &xv) in xh_row.iter_mut().zip(out_row.iter_mut()).zip(x_row) {
                    let v = (xv - m) * s;
                    *xh = v;
                    *o = g * v + b;
                }
            }
        },
    );
    (
        Tensor::from_vec(out, x.shape()),
        BatchNormCache {
            x_hat: Tensor::from_vec(x_hat, x.shape()),
            std,
        },
        mean,
        var,
    )
}

/// Batch-norm forward's statistics of lane groups `first..` of `x (n, c,
/// hw)`: per channel the mean, then the variance about it, each summed from
/// `0.0` over the samples ascending and each plane's elements ascending,
/// then scaled by `inv`.
fn moments(
    x: &[f32],
    (n, c, hw): (usize, usize, usize),
    inv: f32,
    first: usize,
    mean: &mut [f32],
    var: &mut [f32],
) {
    let outs = mean.chunks_mut(LANES).zip(var.chunks_mut(LANES));
    for (group, (mean, var)) in (first..).zip(outs) {
        let planes = |ni| lanes::planes(&x[ni * c * hw..], c, hw, group);
        let mut m = [0.0f32; LANES];
        for ni in 0..n {
            let p = planes(ni);
            for i in 0..hw {
                for l in 0..LANES {
                    m[l] += p[l][i];
                }
            }
        }
        m.iter_mut().for_each(|m| *m *= inv);
        let mut v = [0.0f32; LANES];
        for ni in 0..n {
            let p = planes(ni);
            for i in 0..hw {
                for l in 0..LANES {
                    v[l] += (p[l][i] - m[l]) * (p[l][i] - m[l]);
                }
            }
        }
        mean.copy_from_slice(&m);
        var.iter_mut().zip(v).for_each(|(out, v)| *out = v * inv);
    }
}

/// Batch-norm backward's `dγ = Σ dy · x̂` and `dβ = Σ dy`, per channel from
/// `0.0` over the samples ascending and each plane's elements ascending;
/// `dgamma` and `dbeta` hold whole lane groups.
fn affine_grads(
    dy: &[f32],
    x_hat: &[f32],
    (n, c, hw): (usize, usize, usize),
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let outs = dgamma.chunks_mut(LANES).zip(dbeta.chunks_mut(LANES));
    for (group, (dgamma, dbeta)) in outs.enumerate() {
        let (mut dg, mut db) = ([0.0f32; LANES], [0.0f32; LANES]);
        for ni in 0..n {
            let dy = lanes::planes(&dy[ni * c * hw..], c, hw, group);
            let xh = lanes::planes(&x_hat[ni * c * hw..], c, hw, group);
            for i in 0..hw {
                for l in 0..LANES {
                    dg[l] += dy[l][i] * xh[l][i];
                    db[l] += dy[l][i];
                }
            }
        }
        dgamma.copy_from_slice(&dg);
        dbeta.copy_from_slice(&db);
    }
}

/// Batch-norm inference pass using running statistics.
///
/// # Panics
///
/// Panics on rank or channel mismatch.
pub fn batchnorm2d_infer(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
) -> Tensor {
    assert_eq!(x.ndim(), 4, "batchnorm2d_infer: input must be rank-4");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(running_mean.len(), c);
    assert_eq!(running_var.len(), c);
    let mut out = vec![0.0f32; x.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let m = running_mean[ci];
            let s = 1.0 / (running_var[ci] + eps).sqrt();
            let g = gamma.data()[ci];
            let b = beta.data()[ci];
            for i in base..base + h * w {
                out[i] = g * (x.data()[i] - m) * s + b;
            }
        }
    }
    Tensor::from_vec(out, x.shape())
}

/// Batch-norm backward pass.
///
/// Returns `(dx, dgamma, dbeta)` using the standard closed-form batch-norm
/// gradient.
///
/// # Panics
///
/// Panics on rank or shape mismatch with the cache.
pub fn batchnorm2d_backward(
    dy: &Tensor,
    cache: &BatchNormCache,
    gamma: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(
        dy.shape(),
        cache.x_hat.shape(),
        "batchnorm2d_backward: shape mismatch"
    );
    let (n, c, h, w) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    let (per_c, hw) = ((n * h * w) as f32, h * w);
    let (dyd, xhd) = (dy.data(), cache.x_hat.data());

    // dγ and dβ, a lane group of channels at a time.
    let groups = c.div_ceil(LANES);
    let mut dgamma = vec![0.0f32; groups * LANES];
    let mut dbeta = vec![0.0f32; groups * LANES];
    affine_grads(dyd, xhd, (n, c, hw), &mut dgamma, &mut dbeta);
    dgamma.truncate(c);
    dbeta.truncate(c);

    // Elementwise, one `(sample, channel)` plane per row.
    let mut dx = vec![0.0f32; dy.len()];
    for (row, dx_row) in dx.chunks_mut(hw).enumerate() {
        let ci = row % c;
        let inv_std = 1.0 / cache.std[ci];
        let k = gamma.data()[ci] * inv_std / per_c;
        let (dg, db) = (dgamma[ci], dbeta[ci]);
        let (dy_row, xh_row) = (&dyd[row * hw..][..hw], &xhd[row * hw..][..hw]);
        for ((v, &d), &xh) in dx_row.iter_mut().zip(dy_row).zip(xh_row) {
            *v = k * (per_c * d - db - xh * dg);
        }
    }
    (
        Tensor::from_vec(dx, dy.shape()),
        Tensor::from_vec(dgamma, &[c]),
        Tensor::from_vec(dbeta, &[c]),
    )
}

/// Saved state from a layer-norm forward pass.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// Normalized activations.
    pub x_hat: Tensor,
    /// Per-row inverse standard deviation.
    pub inv_std: Vec<f32>,
}

/// Layer normalization over the last dimension of a rank-2 tensor
/// `(rows, features)`.
///
/// # Panics
///
/// Panics on rank or length mismatch.
pub fn layernorm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, LayerNormCache) {
    assert_eq!(x.ndim(), 2, "layernorm: input must be (rows, features)");
    let (r, f) = (x.dim(0), x.dim(1));
    assert_eq!(gamma.len(), f, "layernorm: gamma length mismatch");
    assert_eq!(beta.len(), f, "layernorm: beta length mismatch");
    let mut out = vec![0.0f32; x.len()];
    let mut x_hat = vec![0.0f32; x.len()];
    let mut inv_std = vec![0.0f32; r];
    for i in 0..r {
        let row = &x.data()[i * f..(i + 1) * f];
        let mean = row.iter().sum::<f32>() / f as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
        let is = 1.0 / (var + eps).sqrt();
        inv_std[i] = is;
        for j in 0..f {
            let xh = (row[j] - mean) * is;
            x_hat[i * f + j] = xh;
            out[i * f + j] = gamma.data()[j] * xh + beta.data()[j];
        }
    }
    (
        Tensor::from_vec(out, x.shape()),
        LayerNormCache {
            x_hat: Tensor::from_vec(x_hat, x.shape()),
            inv_std,
        },
    )
}

/// Layer-norm backward pass. Returns `(dx, dgamma, dbeta)`.
///
/// # Panics
///
/// Panics on shape mismatch with the cache.
pub fn layernorm_backward(
    dy: &Tensor,
    cache: &LayerNormCache,
    gamma: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(
        dy.shape(),
        cache.x_hat.shape(),
        "layernorm_backward: shape mismatch"
    );
    let (r, f) = (dy.dim(0), dy.dim(1));
    let mut dgamma = vec![0.0f32; f];
    let mut dbeta = vec![0.0f32; f];
    let mut dx = vec![0.0f32; dy.len()];
    for i in 0..r {
        let xh = &cache.x_hat.data()[i * f..(i + 1) * f];
        let gy = &dy.data()[i * f..(i + 1) * f];
        let mut sum_gyg = 0.0f32;
        let mut sum_gyg_xh = 0.0f32;
        for j in 0..f {
            let gyg = gy[j] * gamma.data()[j];
            sum_gyg += gyg;
            sum_gyg_xh += gyg * xh[j];
            dgamma[j] += gy[j] * xh[j];
            dbeta[j] += gy[j];
        }
        let is = cache.inv_std[i];
        let nf = f as f32;
        for j in 0..f {
            let gyg = gy[j] * gamma.data()[j];
            dx[i * f + j] = is / nf * (nf * gyg - sum_gyg - xh[j] * sum_gyg_xh);
        }
    }
    (
        Tensor::from_vec(dx, dy.shape()),
        Tensor::from_vec(dgamma, &[f]),
        Tensor::from_vec(dbeta, &[f]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Prng};

    #[test]
    fn batchnorm_output_is_normalized() {
        let mut rng = Prng::seed_from_u64(1);
        let x = init::gaussian(&[4, 3, 5, 5], 2.0, 3.0, &mut rng);
        let gamma = Tensor::ones(&[3]);
        let beta = Tensor::zeros(&[3]);
        let (y, _, _, _) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
        // Each channel of y should have ~zero mean and ~unit variance.
        let (n, c, h, w) = (4, 3, 5, 5);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                vals.extend_from_slice(&y.data()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_gamma_beta_applied() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 1, 2]);
        let gamma = Tensor::from_vec(vec![2.0], &[1]);
        let beta = Tensor::from_vec(vec![10.0], &[1]);
        let (y, _, _, _) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean - 10.0).abs() < 1e-4);
    }

    #[test]
    fn batchnorm_backward_fd() {
        let mut rng = Prng::seed_from_u64(2);
        let x = init::gaussian(&[2, 2, 3, 3], 0.0, 1.0, &mut rng);
        let gamma = init::uniform(&[2], 0.5, 1.5, &mut rng);
        let beta = init::uniform(&[2], -0.5, 0.5, &mut rng);
        let (_, cache, _, _) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
        let dy = Tensor::ones(x.shape());
        let (dx, dgamma, dbeta) = batchnorm2d_backward(&dy, &cache, &gamma);

        let f = |x: &Tensor, g: &Tensor, b: &Tensor| batchnorm2d_forward(x, g, b, 1e-5).0.sum();
        let eps = 1e-2;
        for i in (0..x.len()).step_by(4) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &gamma, &beta) - f(&xm, &gamma, &beta)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}] numeric {num} vs {}",
                dx.data()[i]
            );
        }
        for i in 0..gamma.len() {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let num = (f(&x, &gp, &beta) - f(&x, &gm, &beta)) / (2.0 * eps);
            assert!((num - dgamma.data()[i]).abs() < 2e-2);
        }
        // dbeta is the plain sum of dy per channel = n*h*w.
        assert!(dbeta.data().iter().all(|&v| (v - 18.0).abs() < 1e-3));
    }

    #[test]
    fn batchnorm_infer_uses_running_stats() {
        let x = Tensor::from_vec(vec![1.0, 3.0], &[2, 1, 1, 1]);
        let y = batchnorm2d_infer(
            &x,
            &Tensor::ones(&[1]),
            &Tensor::zeros(&[1]),
            &[2.0],
            &[1.0],
            0.0,
        );
        assert!((y.data()[0] + 1.0).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layernorm_rows_normalized() {
        let mut rng = Prng::seed_from_u64(3);
        let x = init::gaussian(&[4, 16], 5.0, 2.0, &mut rng);
        let (y, _) = layernorm_forward(&x, &Tensor::ones(&[16]), &Tensor::zeros(&[16]), 1e-5);
        for i in 0..4 {
            let row = &y.data()[i * 16..(i + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_backward_fd() {
        let mut rng = Prng::seed_from_u64(4);
        let x = init::gaussian(&[3, 8], 0.0, 1.0, &mut rng);
        let gamma = init::uniform(&[8], 0.5, 1.5, &mut rng);
        let beta = Tensor::zeros(&[8]);
        let (_, cache) = layernorm_forward(&x, &gamma, &beta, 1e-5);
        let dy = Tensor::ones(x.shape());
        let (dx, dgamma, _) = layernorm_backward(&dy, &cache, &gamma);

        let f = |x: &Tensor, g: &Tensor| layernorm_forward(x, g, &beta, 1e-5).0.sum();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &gamma) - f(&xm, &gamma)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}] numeric {num} vs {}",
                dx.data()[i]
            );
        }
        for i in 0..gamma.len() {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let num = (f(&x, &gp) - f(&x, &gm)) / (2.0 * eps);
            assert!((num - dgamma.data()[i]).abs() < 2e-2);
        }
    }
}
