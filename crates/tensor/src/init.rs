//! Weight initialization schemes.
//!
//! The paper trains all models from random initialization ("the weights of
//! the DNN model are initialized randomly", §3.2); convergence behaviour of
//! ADA-GP depends on sensible fan-in scaled init, so we provide the standard
//! Kaiming family used by PyTorch defaults.

use crate::{Prng, Tensor};

/// Kaiming (He) normal initialization: `N(0, sqrt(2 / fan_in))`.
///
/// Appropriate for layers followed by ReLU, which is every conv layer in the
/// paper's CNN zoo.
///
/// ```
/// use adagp_tensor::{init, Prng};
/// let mut rng = Prng::seed_from_u64(0);
/// let w = init::kaiming_normal(&[16, 3, 3, 3], 27, &mut rng);
/// assert_eq!(w.shape(), &[16, 3, 3, 3]);
/// ```
pub fn kaiming_normal(shape: &[usize], fan_in: usize, rng: &mut Prng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    gaussian(shape, 0.0, std, rng)
}

/// Kaiming uniform initialization: `U(-b, b)` with `b = sqrt(6 / fan_in)`.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut Prng) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

/// I.i.d. Gaussian tensor.
pub fn gaussian(shape: &[usize], mean: f32, std: f32, rng: &mut Prng) -> Tensor {
    let len: usize = shape.iter().product();
    let data = (0..len).map(|_| rng.normal(mean, std)).collect();
    Tensor::from_vec(data, shape)
}

/// I.i.d. uniform tensor over `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Tensor {
    let len: usize = shape.iter().product();
    let data = (0..len).map(|_| rng.uniform_range(lo, hi)).collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_normal_std() {
        let mut rng = Prng::seed_from_u64(1);
        let fan_in = 64;
        let w = kaiming_normal(&[40_000], fan_in, &mut rng);
        let mean = w.mean();
        let var = w
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / w.len() as f32;
        let expected = 2.0 / fan_in as f32;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!(
            (var - expected).abs() / expected < 0.1,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = Prng::seed_from_u64(2);
        let w = kaiming_uniform(&[10_000], 24, &mut rng);
        let bound = (6.0f32 / 24.0).sqrt();
        assert!(w.max() <= bound && w.min() >= -bound);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Prng::seed_from_u64(9);
        let mut r2 = Prng::seed_from_u64(9);
        let a = gaussian(&[32], 0.0, 1.0, &mut r1);
        let b = gaussian(&[32], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
