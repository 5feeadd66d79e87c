//! Predictor quality metrics: MAPE and MSE per layer (§6.1.2, Figure 15).

use adagp_tensor::Tensor;

/// Error between a predicted and a true gradient tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientErrors {
    /// Mean absolute percentage error, in percent (paper Eq. 1).
    pub mape: f32,
    /// Mean squared error.
    pub mse: f32,
}

/// The MAPE denominator clamp both trainers ([`crate::AdaGp`],
/// [`crate::DniTrainer`]) score their predictors with.
pub const MAPE_EPS: f32 = 1e-3;

/// Computes MAPE (percent) and MSE between predicted and true gradients.
///
/// The MAPE denominator is clamped to `eps` to avoid division by
/// near-zero gradients (the paper reports sub-1% MAPE which presupposes
/// such regularization).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn gradient_errors(predicted: &Tensor, actual: &Tensor, eps: f32) -> GradientErrors {
    assert_eq!(
        predicted.shape(),
        actual.shape(),
        "gradient_errors: shape mismatch"
    );
    let n = predicted.len().max(1) as f32;
    let mut mape = 0.0f32;
    let mut mse = 0.0f32;
    for (&p, &a) in predicted.data().iter().zip(actual.data().iter()) {
        let d = a - p;
        mse += d * d;
        mape += (d / a.abs().max(eps)).abs();
    }
    GradientErrors {
        mape: 100.0 * mape / n,
        mse: mse / n,
    }
}

/// Running per-layer predictor metrics across an epoch (Figure 15 tracks
/// one curve per layer over 90 epochs).
#[derive(Debug, Clone, Default)]
pub struct PredictorMetrics {
    // Per-layer accumulators: (mape sum, mse sum, count).
    acc: Vec<(f64, f64, u64)>,
}

impl PredictorMetrics {
    /// Creates an empty tracker for `layers` layers.
    pub fn new(layers: usize) -> Self {
        PredictorMetrics {
            acc: vec![(0.0, 0.0, 0); layers],
        }
    }

    /// Number of tracked layers.
    pub fn layers(&self) -> usize {
        self.acc.len()
    }

    /// Records one observation for `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn record(&mut self, layer: usize, errors: GradientErrors) {
        let slot = &mut self.acc[layer];
        slot.0 += errors.mape as f64;
        slot.1 += errors.mse as f64;
        slot.2 += 1;
    }

    /// Mean errors for `layer`, or `None` if nothing was recorded.
    pub fn layer_mean(&self, layer: usize) -> Option<GradientErrors> {
        let (mape, mse, n) = self.acc[layer];
        if n == 0 {
            return None;
        }
        Some(GradientErrors {
            mape: (mape / n as f64) as f32,
            mse: (mse / n as f64) as f32,
        })
    }

    /// Clears all accumulators (call at epoch boundaries).
    pub fn reset(&mut self) {
        for slot in &mut self.acc {
            *slot = (0.0, 0.0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_zero_error() {
        let a = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let e = gradient_errors(&a, &a, 1e-6);
        assert_eq!(e.mape, 0.0);
        assert_eq!(e.mse, 0.0);
    }

    #[test]
    fn known_errors() {
        let p = Tensor::from_vec(vec![1.1, 2.0], &[2]);
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let e = gradient_errors(&p, &a, 1e-6);
        // MAPE = mean(|0.1/1|, 0) * 100 = 5%.
        assert!((e.mape - 5.0).abs() < 1e-3);
        // MSE = 0.01 / 2.
        assert!((e.mse - 0.005).abs() < 1e-6);
    }

    #[test]
    fn eps_clamps_tiny_denominators() {
        let p = Tensor::from_vec(vec![0.1], &[1]);
        let a = Tensor::from_vec(vec![0.0], &[1]);
        let e = gradient_errors(&p, &a, 0.1);
        // |0.1 - 0| / max(0, 0.1) = 1 -> 100%.
        assert!((e.mape - 100.0).abs() < 1e-3);
    }

    #[test]
    fn tracker_means() {
        let mut t = PredictorMetrics::new(2);
        t.record(
            0,
            GradientErrors {
                mape: 2.0,
                mse: 0.5,
            },
        );
        t.record(
            0,
            GradientErrors {
                mape: 4.0,
                mse: 1.5,
            },
        );
        let m = t.layer_mean(0).unwrap();
        assert!((m.mape - 3.0).abs() < 1e-6);
        assert!((m.mse - 1.0).abs() < 1e-6);
        assert!(t.layer_mean(1).is_none());
    }

    #[test]
    fn reset_clears() {
        let mut t = PredictorMetrics::new(1);
        t.record(
            0,
            GradientErrors {
                mape: 1.0,
                mse: 1.0,
            },
        );
        t.reset();
        assert!(t.layer_mean(0).is_none());
    }
}
