//! 2-D convolution kernels (im2col based), forward and backward.
//!
//! Convolutions are the dominant op in every CNN the paper evaluates
//! (VGG/ResNet/DenseNet/Inception/MobileNet/YOLO). The gradients of the
//! convolution *weights* are exactly what ADA-GP's predictor model learns to
//! predict, so both `conv2d_backward_weight` and `conv2d_backward_data` are
//! first-class kernels here.
//!
//! Each kernel is a lowering (`im2col` / `col2im`) around one
//! [`gemm`](crate::gemm) call per sample, whose contract fixes the order of
//! every sum for every `ADAGP_THREADS`. Forward and data-backward run one
//! block of samples per task with a task-local lowering buffer;
//! weight-backward sums into `dw` across samples, so it walks them in order.

use crate::gemm::{gemm, Mat};
use crate::par;
use crate::Tensor;

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied on all four sides.
    pub padding: usize,
}

impl Default for Conv2dParams {
    /// Stride 1, no padding.
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Creates parameters with the given stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Conv2dParams { stride, padding }
    }

    /// Output spatial size for an input of size `in_size` and kernel `k`.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        (in_size + 2 * self.padding).saturating_sub(k) / self.stride + 1
    }
}

/// Lowers input patches to a matrix: `(C*kh*kw, Ho*Wo)` for one sample.
///
/// `input` must be `(C, H, W)` flattened row-major within `data`.
fn im2col(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    cols: &mut [f32],
) {
    let ho = p.out_size(h, kh);
    let wo = p.out_size(w, kw);
    let owh = ho * wo;
    debug_assert_eq!(cols.len(), c * kh * kw * owh);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let out_base = row * owh;
                for oy in 0..ho {
                    let iy = (oy * p.stride + ki) as isize - p.padding as isize;
                    for ox in 0..wo {
                        let ix = (ox * p.stride + kj) as isize - p.padding as isize;
                        let v = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            data[(ci * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                        cols[out_base + oy * wo + ox] = v;
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix back to an image, accumulating overlaps.
fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    out: &mut [f32],
) {
    let ho = p.out_size(h, kh);
    let wo = p.out_size(w, kw);
    let owh = ho * wo;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let in_base = row * owh;
                for oy in 0..ho {
                    let iy = (oy * p.stride + ki) as isize - p.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..wo {
                        let ix = (ox * p.stride + kj) as isize - p.padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        out[(ci * h + iy as usize) * w + ix as usize] +=
                            cols[in_base + oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// * `input`  — `(N, Cin, H, W)`
/// * `weight` — `(Cout, Cin, kh, kw)`
/// * `bias`   — optional `(Cout,)`
///
/// Returns `(N, Cout, Ho, Wo)`.
///
/// # Panics
///
/// Panics if ranks or channel counts disagree.
///
/// ```
/// use adagp_tensor::{Tensor, conv::{conv2d, Conv2dParams}};
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
/// assert_eq!(y.shape(), &[1, 1, 3, 3]);
/// assert_eq!(y.at(&[0, 0, 1, 1]), 9.0); // full overlap in the centre
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: &Conv2dParams) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d: input must be (N, C, H, W)");
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d: weight must be (Cout, Cin, kh, kw)"
    );
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (cout, cin_w, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(cin, cin_w, "conv2d: channel mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), cout, "conv2d: bias length must equal Cout");
    }
    let ho = p.out_size(h, kh);
    let wo = p.out_size(w, kw);
    let patch = cin * kh * kw;
    let owh = ho * wo;

    let mut out = vec![0.0f32; n * cout * owh];
    let wmat = Mat::rows(weight.data(), patch); // (cout, patch)

    let work = n * cout * patch * owh;
    par::row_blocks(&mut out, n, cout * owh, work, |first, chunk| {
        let mut cols = vec![0.0f32; patch * owh];
        let samples = input.data().chunks(cin * h * w).skip(first);
        for (y, sample) in chunk.chunks_mut(cout * owh).zip(samples) {
            im2col(sample, cin, h, w, kh, kw, p, &mut cols);
            gemm(cout, owh, patch, wmat, Mat::rows(&cols, owh), y, false);
            if let Some(b) = bias {
                // After the sum, so the bias is the last term of every element.
                for (yrow, &bv) in y.chunks_mut(owh).zip(b.data()) {
                    yrow.iter_mut().for_each(|v| *v += bv);
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, cout, ho, wo])
}

/// Gradient of the convolution with respect to its input.
///
/// Given `dy (N, Cout, Ho, Wo)` and `weight (Cout, Cin, kh, kw)`, returns
/// `dx (N, Cin, H, W)` for the original input spatial size `(h, w)`.
///
/// # Panics
///
/// Panics on rank mismatch or if `dy`'s spatial size disagrees with the
/// parameters.
pub fn conv2d_backward_data(
    dy: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    p: &Conv2dParams,
) -> Tensor {
    assert_eq!(dy.ndim(), 4, "conv2d_backward_data: dy must be rank-4");
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d_backward_data: weight must be rank-4"
    );
    let (n, cout, ho, wo) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    let (cout_w, cin, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(cout, cout_w, "conv2d_backward_data: channel mismatch");
    assert_eq!(ho, p.out_size(h, kh), "conv2d_backward_data: Ho mismatch");
    assert_eq!(wo, p.out_size(w, kw), "conv2d_backward_data: Wo mismatch");
    let patch = cin * kh * kw;
    let owh = ho * wo;

    let mut dx = vec![0.0f32; n * cin * h * w];
    let wmat_t = Mat::rows(weight.data(), patch).t(); // (patch, cout)

    let work = n * cout * patch * owh;
    par::row_blocks(&mut dx, n, cin * h * w, work, |first, chunk| {
        let mut dcols = vec![0.0f32; patch * owh];
        let dy_samples = dy.data().chunks(cout * owh).skip(first);
        for (dx_sample, dy_sample) in chunk.chunks_mut(cin * h * w).zip(dy_samples) {
            let dy_mat = Mat::rows(dy_sample, owh);
            gemm(patch, owh, cout, wmat_t, dy_mat, &mut dcols, false);
            col2im(&dcols, cin, h, w, kh, kw, p, dx_sample);
        }
    });
    Tensor::from_vec(dx, &[n, cin, h, w])
}

/// Gradient of the convolution with respect to its weights (and bias).
///
/// Returns `(dw, db)` with `dw (Cout, Cin, kh, kw)` and `db (Cout,)`.
/// These are the *true gradients* that ADA-GP's predictor is trained to
/// imitate.
///
/// # Panics
///
/// Panics on rank mismatch or inconsistent spatial sizes.
pub fn conv2d_backward_weight(
    input: &Tensor,
    dy: &Tensor,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
) -> (Tensor, Tensor) {
    assert_eq!(
        input.ndim(),
        4,
        "conv2d_backward_weight: input must be rank-4"
    );
    assert_eq!(dy.ndim(), 4, "conv2d_backward_weight: dy must be rank-4");
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (n2, cout, ho, wo) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    assert_eq!(n, n2, "conv2d_backward_weight: batch mismatch");
    assert_eq!(ho, p.out_size(h, kh), "conv2d_backward_weight: Ho mismatch");
    assert_eq!(wo, p.out_size(w, kw), "conv2d_backward_weight: Wo mismatch");
    let patch = cin * kh * kw;
    let owh = ho * wo;

    let mut dw = vec![0.0f32; cout * patch];
    let mut db = vec![0.0f32; cout];

    // dw += dy_sample (cout, owh) . cols^T (owh, patch): each sample's
    // product is summed from zero, then added in ascending sample order.
    let mut cols = vec![0.0f32; patch * owh];
    let samples = input.data().chunks(cin * h * w);
    for (sample, dy_sample) in samples.zip(dy.data().chunks(cout * owh)) {
        im2col(sample, cin, h, w, kh, kw, p, &mut cols);
        let (dy_mat, cols_t) = (Mat::rows(dy_sample, owh), Mat::rows(&cols, owh).t());
        gemm(cout, patch, owh, dy_mat, cols_t, &mut dw, true);
        for (dbv, dyrow) in db.iter_mut().zip(dy_sample.chunks(owh)) {
            *dbv += dyrow.iter().sum::<f32>();
        }
    }
    (
        Tensor::from_vec(dw, &[cout, cin, kh, kw]),
        Tensor::from_vec(db, &[cout]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Prng};

    #[test]
    fn out_size_formula() {
        let p = Conv2dParams::new(1, 1);
        assert_eq!(p.out_size(28, 3), 28);
        let p = Conv2dParams::new(2, 1);
        assert_eq!(p.out_size(28, 3), 14);
        let p = Conv2dParams::new(1, 0);
        assert_eq!(p.out_size(5, 3), 3);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel of value 1 is identity.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, &Conv2dParams::default());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, &Conv2dParams::default());
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn padding_zero_borders() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
        // Corners see a 2x2 window of ones.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv2d(&x, &w, Some(&b), &Conv2dParams::default());
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn multi_channel_multi_batch_shapes() {
        let mut rng = Prng::seed_from_u64(0);
        let x = init::gaussian(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[5, 3, 3, 3], 0.0, 1.0, &mut rng);
        let y = conv2d(&x, &w, None, &Conv2dParams::new(2, 1));
        assert_eq!(y.shape(), &[2, 5, 4, 4]);
    }

    /// Numerical gradient check of both backward kernels.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Prng::seed_from_u64(11);
        let p = Conv2dParams::new(1, 1);
        let x = init::gaussian(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let dy = Tensor::ones(&[1, 3, 4, 4]);

        let dx = conv2d_backward_data(&dy, &w, 4, 4, &p);
        let (dw, db) = conv2d_backward_weight(&x, &dy, 3, 3, &p);

        let f = |x: &Tensor, w: &Tensor| conv2d(x, w, None, &p).sum();
        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        for i in (0..w.len()).step_by(7) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[i]).abs() < 5e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
        // Bias gradient for sum-loss is simply the output element count per channel.
        assert!(db.data().iter().all(|&v| (v - 16.0).abs() < 1e-4));
    }

    #[test]
    fn stride_2_backward_shapes() {
        let p = Conv2dParams::new(2, 1);
        let dy = Tensor::ones(&[2, 4, 4, 4]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let dx = conv2d_backward_data(&dy, &w, 8, 8, &p);
        assert_eq!(dx.shape(), &[2, 3, 8, 8]);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let (dw, db) = conv2d_backward_weight(&x, &dy, 3, 3, &p);
        assert_eq!(dw.shape(), &[4, 3, 3, 3]);
        assert_eq!(db.shape(), &[4]);
    }
}
