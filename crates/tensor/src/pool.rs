//! Pooling kernels: max, average and global-average pooling with backward
//! passes.
//!
//! Pooling appears both in the evaluated CNNs and inside ADA-GP's predictor
//! model itself ("we utilize several pooling layers ... based on the input
//! size", §3.6), so the kernels here serve double duty.

use crate::Tensor;

/// Result of a max-pool forward pass: the output plus the argmax indices
/// needed for the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations `(N, C, Ho, Wo)`.
    pub output: Tensor,
    /// Flat input index of the max element for every output element.
    pub indices: Vec<usize>,
}

/// Max pooling over `(k, k)` windows with stride `s`.
///
/// # Panics
///
/// Panics if `input` is not rank-4, `k`/`s` are zero, or the window is
/// larger than the input.
///
/// ```
/// use adagp_tensor::{Tensor, pool::maxpool2d};
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
/// let y = maxpool2d(&x, 2, 2);
/// assert_eq!(y.output.data(), &[4.0]);
/// ```
pub fn maxpool2d(input: &Tensor, k: usize, s: usize) -> MaxPoolOutput {
    assert_eq!(input.ndim(), 4, "maxpool2d: input must be (N, C, H, W)");
    assert!(
        k > 0 && s > 0,
        "maxpool2d: kernel and stride must be positive"
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert!(
        h >= k && w >= k,
        "maxpool2d: a {k}x{k} window does not fit a {h}x{w} input"
    );
    let ho = (h - k) / s + 1;
    let wo = (w - k) / s + 1;
    let mut out = vec![f32::NEG_INFINITY; n * c * ho * wo];
    let mut idx = vec![0usize; n * c * ho * wo];
    for ni in 0..n {
        for ci in 0..c {
            let ibase = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * ho * wo;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = oy * s + ky;
                            let ix = ox * s + kx;
                            let ii = ibase + iy * w + ix;
                            let v = input.data()[ii];
                            if v > best {
                                best = v;
                                best_i = ii;
                            }
                        }
                    }
                    out[obase + oy * wo + ox] = best;
                    idx[obase + oy * wo + ox] = best_i;
                }
            }
        }
    }
    MaxPoolOutput {
        output: Tensor::from_vec(out, &[n, c, ho, wo]),
        indices: idx,
    }
}

/// Backward pass of max pooling: routes each upstream gradient to the input
/// element that won the max.
///
/// # Panics
///
/// Panics if `dy.len() != fwd.indices.len()`.
pub fn maxpool2d_backward(fwd: &MaxPoolOutput, dy: &Tensor, input_shape: &[usize]) -> Tensor {
    assert_eq!(
        dy.len(),
        fwd.indices.len(),
        "maxpool2d_backward: gradient length mismatch"
    );
    let mut dx = Tensor::zeros(input_shape);
    for (&g, &i) in dy.data().iter().zip(fwd.indices.iter()) {
        dx.data_mut()[i] += g;
    }
    dx
}

/// Average pooling over `(k, k)` windows with stride `s`.
///
/// # Panics
///
/// Panics if `input` is not rank-4, `k`/`s` are zero, or the window is
/// larger than the input.
pub fn avgpool2d(input: &Tensor, k: usize, s: usize) -> Tensor {
    assert_eq!(input.ndim(), 4, "avgpool2d: input must be (N, C, H, W)");
    assert!(
        k > 0 && s > 0,
        "avgpool2d: kernel and stride must be positive"
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert!(
        h >= k && w >= k,
        "avgpool2d: a {k}x{k} window does not fit a {h}x{w} input"
    );
    let ho = (h - k) / s + 1;
    let wo = (w - k) / s + 1;
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; n * c * ho * wo];
    for ni in 0..n {
        for ci in 0..c {
            let ibase = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * ho * wo;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += input.data()[ibase + (oy * s + ky) * w + (ox * s + kx)];
                        }
                    }
                    out[obase + oy * wo + ox] = acc * inv;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, ho, wo])
}

/// Backward pass of average pooling: spreads each upstream gradient evenly
/// over its window.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the forward parameters.
pub fn avgpool2d_backward(dy: &Tensor, input_shape: &[usize], k: usize, s: usize) -> Tensor {
    assert_eq!(dy.ndim(), 4, "avgpool2d_backward: dy must be rank-4");
    assert_eq!(
        input_shape.len(),
        4,
        "avgpool2d_backward: input shape must be rank-4"
    );
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (ho, wo) = (dy.dim(2), dy.dim(3));
    let inv = 1.0 / (k * k) as f32;
    let mut dx = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let ibase = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * ho * wo;
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = dy.data()[obase + oy * wo + ox] * inv;
                    for ky in 0..k {
                        for kx in 0..k {
                            dx[ibase + (oy * s + ky) * w + (ox * s + kx)] += g;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(dx, input_shape)
}

/// Global average pooling: `(N, C, H, W) -> (N, C)`.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn global_avgpool(input: &Tensor) -> Tensor {
    assert_eq!(input.ndim(), 4, "global_avgpool: input must be rank-4");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let inv = 1.0 / (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            out[ni * c + ci] = input.data()[base..base + h * w].iter().sum::<f32>() * inv;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of global average pooling.
pub fn global_avgpool_backward(dy: &Tensor, input_shape: &[usize]) -> Tensor {
    assert_eq!(dy.ndim(), 2, "global_avgpool_backward: dy must be (N, C)");
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let inv = 1.0 / (h * w) as f32;
    let mut dx = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let g = dy.data()[ni * c + ci] * inv;
            let base = (ni * c + ci) * h * w;
            for v in &mut dx[base..base + h * w] {
                *v = g;
            }
        }
    }
    Tensor::from_vec(dx, input_shape)
}

/// Adaptive average pooling to an exact `(out_h, out_w)` output, as used by
/// the predictor model to normalize arbitrary layer activations to a fixed
/// spatial size before its conv/FC stages.
///
/// # Panics
///
/// Panics if `input` is not rank-4 or a target dimension is zero.
pub fn adaptive_avgpool(input: &Tensor, out_h: usize, out_w: usize) -> Tensor {
    assert_eq!(input.ndim(), 4, "adaptive_avgpool: input must be rank-4");
    assert!(
        out_h > 0 && out_w > 0,
        "adaptive_avgpool: target size must be positive"
    );
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    for ni in 0..n {
        for ci in 0..c {
            let ibase = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * out_h * out_w;
            for oy in 0..out_h {
                let y0 = oy * h / out_h;
                let y1 = ((oy + 1) * h).div_ceil(out_h).max(y0 + 1).min(h.max(1));
                for ox in 0..out_w {
                    let x0 = ox * w / out_w;
                    let x1 = ((ox + 1) * w).div_ceil(out_w).max(x0 + 1).min(w.max(1));
                    let mut acc = 0.0f32;
                    let mut cnt = 0usize;
                    for iy in y0..y1 {
                        for ix in x0..x1 {
                            acc += input.data()[ibase + iy * w + ix];
                            cnt += 1;
                        }
                    }
                    out[obase + oy * out_w + ox] = if cnt > 0 { acc / cnt as f32 } else { 0.0 };
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, out_h, out_w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Prng};

    #[test]
    fn maxpool_picks_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        );
        let y = maxpool2d(&x, 2, 2);
        assert_eq!(y.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.output.data(), &[4.0, 8.0, -1.0, 0.75]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let fwd = maxpool2d(&x, 2, 2);
        let dy = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]);
        let dx = maxpool2d_backward(&fwd, &dy, &[1, 1, 2, 2]);
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    /// Unchecked, a saturating `ho = 1` lets the window loop read the next
    /// channel's values, or past the end on the last channel.
    #[test]
    #[should_panic(expected = "maxpool2d: a 3x3 window does not fit a 2x2 input")]
    fn maxpool_rejects_a_window_larger_than_the_input() {
        maxpool2d(&Tensor::ones(&[1, 2, 2, 2]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "avgpool2d: a 3x3 window does not fit a 2x2 input")]
    fn avgpool_rejects_a_window_larger_than_the_input() {
        avgpool2d(&Tensor::ones(&[1, 2, 2, 2]), 3, 1);
    }

    #[test]
    fn avgpool_average() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = avgpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avgpool_backward_spreads_evenly() {
        let dy = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]);
        let dx = avgpool2d_backward(&dy, &[1, 1, 2, 2], 2, 2);
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut rng = Prng::seed_from_u64(1);
        let x = init::gaussian(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let dx = avgpool2d_backward(&dy, x.shape(), 2, 2);
        let eps = 1e-2;
        let f = |x: &Tensor| avgpool2d(x, 2, 2).sum();
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn global_avgpool_reduces_spatial() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = global_avgpool(&x);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
    }

    #[test]
    fn global_avgpool_roundtrip_gradient() {
        let dy = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let dx = global_avgpool_backward(&dy, &[1, 2, 2, 2]);
        assert_eq!(dx.data(), &[0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn adaptive_pool_identity_when_same_size() {
        let x = Tensor::from_vec((0..4).map(|v| v as f32).collect(), &[1, 1, 2, 2]);
        let y = adaptive_avgpool(&x, 2, 2);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn adaptive_pool_downsamples() {
        let x = Tensor::ones(&[1, 3, 7, 5]);
        let y = adaptive_avgpool(&x, 4, 4);
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn adaptive_pool_upsample_degenerate() {
        // Target larger than input still produces finite values.
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = adaptive_avgpool(&x, 4, 4);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
