//! Tensor reorganization (§3.6 of the paper).
//!
//! The predictor must emit `out_ch × in_ch × k × k` gradients for a conv
//! layer — far too many for a small model to produce from a flat view of
//! the activations. The paper's reorganization:
//!
//! 1. **Batch mean** — average the output activations `(B, out_ch, W, H)`
//!    over the batch, capturing the combined effect of all samples:
//!    `(out_ch, W, H)`.
//! 2. **Channels as batch** — treat each output channel as an independent
//!    predictor sample: `(out_ch, 1, W, H)`. Each filter's gradient row
//!    (`in_ch * k * k` values) is predicted from its own channel's
//!    activation map.
//!
//! Linear layers follow the same scheme with `out_features` as the channel
//! axis and a 1×1 spatial map.

use adagp_nn::{SiteKind, SiteMeta};
use adagp_tensor::Tensor;

/// A reorganized activation ready for the predictor: shape
/// `(out_ch, 1, W, H)`.
#[derive(Debug, Clone)]
pub struct ReorganizedActivation {
    /// Predictor input of shape `(out_ch, 1, W, H)`.
    pub input: Tensor,
    /// Gradient row length this site needs (`in_ch * k * k` or
    /// `in_features`).
    pub row_len: usize,
}

/// Reorganizes a recorded output activation for the predictor.
///
/// * Conv sites: activation `(B, out_ch, W, H)` → `(out_ch, 1, W, H)`.
/// * Linear sites: activation `(B, out_features)` → `(out_features, 1, 1, 1)`.
///
/// # Panics
///
/// Panics if the activation rank does not match the site kind or the
/// channel count disagrees with the weight shape.
pub fn reorganize(meta: &SiteMeta, activation: &Tensor) -> ReorganizedActivation {
    match meta.kind {
        SiteKind::Conv2d => {
            assert_eq!(
                activation.ndim(),
                4,
                "conv activation must be (B, out_ch, W, H)"
            );
            let out_ch = meta.out_channels();
            assert_eq!(
                activation.dim(1),
                out_ch,
                "activation channels disagree with weight shape"
            );
            let (h, w) = (activation.dim(2), activation.dim(3));
            // Step 1: batch mean -> (out_ch, H, W).
            let mean = activation.mean_axis0();
            // Step 2: out_ch as batch -> (out_ch, 1, H, W).
            let input = mean.into_shape(&[out_ch, 1, h, w]);
            ReorganizedActivation {
                input,
                row_len: meta.grads_per_out_channel(),
            }
        }
        SiteKind::Linear => {
            assert_eq!(
                activation.ndim(),
                2,
                "linear activation must be (B, out_features)"
            );
            let out_f = meta.out_channels();
            assert_eq!(
                activation.dim(1),
                out_f,
                "activation features disagree with weight shape"
            );
            let mean = activation.mean_axis0(); // (out_f,)
            let input = mean.into_shape(&[out_f, 1, 1, 1]);
            ReorganizedActivation {
                input,
                row_len: meta.grads_per_out_channel(),
            }
        }
    }
}

/// Reshapes a true weight gradient into predictor-target rows
/// `(out_ch, row_len)`, keeping its buffer.
///
/// # Panics
///
/// Panics if the gradient shape disagrees with the site metadata.
pub fn gradient_rows(meta: &SiteMeta, grad: Tensor) -> Tensor {
    assert_eq!(
        grad.shape(),
        &meta.weight_shape[..],
        "gradient shape disagrees with site metadata"
    );
    let out_ch = meta.out_channels();
    let row = meta.grads_per_out_channel();
    grad.into_shape(&[out_ch, row])
}

/// Inverse of [`gradient_rows`]: reshapes predicted rows back into the
/// weight-gradient shape, keeping their buffer.
///
/// # Panics
///
/// Panics if `rows` is not `(out_ch, row_len)` for this site.
pub fn rows_to_gradient(meta: &SiteMeta, rows: Tensor) -> Tensor {
    assert_eq!(rows.ndim(), 2, "rows must be rank-2");
    assert_eq!(rows.dim(0), meta.out_channels(), "row count mismatch");
    assert_eq!(
        rows.dim(1),
        meta.grads_per_out_channel(),
        "row length mismatch"
    );
    rows.into_shape(&meta.weight_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_tensor::{init, Prng};

    fn conv_meta() -> SiteMeta {
        SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![8, 4, 3, 3],
            label: "c".into(),
        }
    }

    fn linear_meta() -> SiteMeta {
        SiteMeta {
            kind: SiteKind::Linear,
            weight_shape: vec![10, 32],
            label: "l".into(),
        }
    }

    #[test]
    fn conv_reorganization_shapes() {
        let mut rng = Prng::seed_from_u64(0);
        let act = init::gaussian(&[16, 8, 5, 5], 0.0, 1.0, &mut rng);
        let r = reorganize(&conv_meta(), &act);
        assert_eq!(r.input.shape(), &[8, 1, 5, 5]);
        assert_eq!(r.row_len, 4 * 9);
    }

    #[test]
    fn conv_reorganization_is_batch_mean() {
        // Two samples; channel 0 holds 1s and 3s -> mean 2.
        let act = Tensor::from_vec(
            vec![
                1.0, 1.0, 1.0, 1.0, // sample 0, ch 0
                5.0, 5.0, 5.0, 5.0, // sample 0, ch 1
                3.0, 3.0, 3.0, 3.0, // sample 1, ch 0
                7.0, 7.0, 7.0, 7.0, // sample 1, ch 1
            ],
            &[2, 2, 2, 2],
        );
        let meta = SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![2, 1, 1, 1],
            label: "c".into(),
        };
        let r = reorganize(&meta, &act);
        assert_eq!(r.input.shape(), &[2, 1, 2, 2]);
        assert!(r.input.data()[..4].iter().all(|&v| v == 2.0));
        assert!(r.input.data()[4..].iter().all(|&v| v == 6.0));
    }

    #[test]
    fn linear_reorganization_shapes() {
        let mut rng = Prng::seed_from_u64(1);
        let act = init::gaussian(&[16, 10], 0.0, 1.0, &mut rng);
        let r = reorganize(&linear_meta(), &act);
        assert_eq!(r.input.shape(), &[10, 1, 1, 1]);
        assert_eq!(r.row_len, 32);
    }

    #[test]
    fn gradient_rows_roundtrip() {
        let mut rng = Prng::seed_from_u64(2);
        let meta = conv_meta();
        let grad = init::gaussian(&[8, 4, 3, 3], 0.0, 0.01, &mut rng);
        let rows = gradient_rows(&meta, grad.clone());
        assert_eq!(rows.shape(), &[8, 36]);
        let back = rows_to_gradient(&meta, rows);
        assert_eq!(back, grad);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn wrong_activation_channels_panics() {
        let act = Tensor::ones(&[2, 4, 3, 3]); // meta says 8 channels
        let _ = reorganize(&conv_meta(), &act);
    }
}
