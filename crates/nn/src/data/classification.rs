//! Synthetic image-classification datasets (CIFAR10/CIFAR100/ImageNet
//! stand-ins).
//!
//! Each class owns a Gaussian prototype image plus a class-specific spatial
//! frequency pattern; a sample is `prototype + pattern + noise`. The task
//! is linearly non-trivial but learnable, so both the BP baseline and
//! ADA-GP converge within CPU-scale epochs and their *relative* accuracy —
//! the quantity Table 1 reports — is meaningful.

use adagp_tensor::{Prng, Tensor};

/// Standard deviation of the per-sample Gaussian noise.
const NOISE_STD: f32 = 0.8;

/// Shape/cardinality spec of a synthetic vision dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height = width.
    pub size: usize,
    /// Training samples per epoch.
    pub train_len: usize,
    /// Test samples.
    pub test_len: usize,
}

impl DatasetSpec {
    /// CIFAR10 stand-in: 10 classes, 3×16×16 (reduced from 32² for CPU).
    pub fn cifar10() -> Self {
        DatasetSpec {
            classes: 10,
            channels: 3,
            size: 16,
            train_len: 512,
            test_len: 256,
        }
    }

    /// CIFAR100 stand-in: 100 classes, 3×16×16.
    pub fn cifar100() -> Self {
        DatasetSpec {
            classes: 100,
            channels: 3,
            size: 16,
            train_len: 1024,
            test_len: 512,
        }
    }

    /// ImageNet stand-in: 1000 classes at reduced 3×24×24 resolution.
    pub fn imagenet() -> Self {
        DatasetSpec {
            classes: 1000,
            channels: 3,
            size: 24,
            train_len: 2048,
            test_len: 1024,
        }
    }

    /// A tiny spec for unit tests.
    pub fn tiny(classes: usize, size: usize) -> Self {
        DatasetSpec {
            classes,
            channels: 3,
            size,
            train_len: 128,
            test_len: 64,
        }
    }
}

/// A deterministic synthetic vision dataset.
///
/// Samples are generated on demand from `(seed, split, index)`, so the
/// dataset needs only `classes * channels * size²` floats of resident
/// memory for the prototypes.
///
/// ```
/// use adagp_nn::data::{DatasetSpec, VisionDataset};
/// let ds = VisionDataset::new(DatasetSpec::tiny(4, 8), 42);
/// let (x, y) = ds.train_batch(0, 8);
/// assert_eq!(x.shape(), &[8, 3, 8, 8]);
/// assert_eq!(y.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct VisionDataset {
    spec: DatasetSpec,
    seed: u64,
    prototypes: Vec<Tensor>,
}

impl VisionDataset {
    /// Builds the dataset: prototypes are drawn once from `seed`.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let plen = spec.channels * spec.size * spec.size;
        let mut prototypes = Vec::with_capacity(spec.classes);
        for class in 0..spec.classes {
            let mut data = vec![0.0f32; plen];
            // Gaussian prototype…
            for v in &mut data {
                *v = rng.normal(0.0, 1.0);
            }
            // …plus a class-specific low-frequency pattern so that classes
            // are separable even under heavy noise.
            let fx = 1 + class % 4;
            let fy = 1 + (class / 4) % 4;
            let phase = class as f32 * 0.7;
            for c in 0..spec.channels {
                for y in 0..spec.size {
                    for x in 0..spec.size {
                        let s = ((fx * x) as f32 / spec.size as f32 * std::f32::consts::TAU
                            + phase)
                            .sin()
                            * ((fy * y) as f32 / spec.size as f32 * std::f32::consts::TAU).cos();
                        data[(c * spec.size + y) * spec.size + x] += 1.5 * s;
                    }
                }
            }
            prototypes.push(Tensor::from_vec(
                data,
                &[spec.channels, spec.size, spec.size],
            ));
        }
        VisionDataset {
            spec,
            seed,
            prototypes,
        }
    }

    /// Dataset spec.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    fn sample(&self, split: u64, index: usize) -> (Vec<f32>, usize) {
        let class = index % self.spec.classes;
        let mut rng = Prng::seed_from_u64(
            self.seed
                ^ (split.wrapping_mul(0x9E37_79B9))
                ^ (index as u64).wrapping_mul(0x85EB_CA6B),
        );
        let proto = &self.prototypes[class];
        let data: Vec<f32> = proto
            .data()
            .iter()
            .map(|&p| p + rng.normal(0.0, NOISE_STD))
            .collect();
        (data, class)
    }

    /// Generates training batch `batch_idx` of the given size.
    ///
    /// Returns `(images (B, C, H, W), labels)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn train_batch(&self, batch_idx: usize, batch_size: usize) -> (Tensor, Vec<usize>) {
        self.batch(0, batch_idx, batch_size, self.spec.train_len)
    }

    /// Generates test batch `batch_idx` of the given size.
    pub fn test_batch(&self, batch_idx: usize, batch_size: usize) -> (Tensor, Vec<usize>) {
        self.batch(1, batch_idx, batch_size, self.spec.test_len)
    }

    fn batch(
        &self,
        split: u64,
        batch_idx: usize,
        batch_size: usize,
        split_len: usize,
    ) -> (Tensor, Vec<usize>) {
        assert!(batch_size > 0, "batch_size must be positive");
        let plen = self.spec.channels * self.spec.size * self.spec.size;
        let mut data = Vec::with_capacity(batch_size * plen);
        let mut labels = Vec::with_capacity(batch_size);
        for i in 0..batch_size {
            let index = (batch_idx * batch_size + i) % split_len.max(1);
            let (sample, class) = self.sample(split, index);
            data.extend_from_slice(&sample);
            labels.push(class);
        }
        (
            Tensor::from_vec(
                data,
                &[
                    batch_size,
                    self.spec.channels,
                    self.spec.size,
                    self.spec.size,
                ],
            ),
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shapes_and_labels() {
        let ds = VisionDataset::new(DatasetSpec::tiny(5, 8), 1);
        let (x, y) = ds.train_batch(0, 10);
        assert_eq!(x.shape(), &[10, 3, 8, 8]);
        assert_eq!(y.len(), 10);
        assert!(y.iter().all(|&c| c < 5));
    }

    #[test]
    fn deterministic_batches() {
        let a = VisionDataset::new(DatasetSpec::tiny(3, 8), 7);
        let b = VisionDataset::new(DatasetSpec::tiny(3, 8), 7);
        let (xa, ya) = a.train_batch(2, 4);
        let (xb, yb) = b.train_batch(2, 4);
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
    }

    #[test]
    fn train_and_test_splits_differ() {
        let ds = VisionDataset::new(DatasetSpec::tiny(3, 8), 7);
        let (xt, _) = ds.train_batch(0, 4);
        let (xe, _) = ds.test_batch(0, 4);
        assert_ne!(xt, xe);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let ds = VisionDataset::new(DatasetSpec::tiny(4, 8), 3);
        let (_, y) = ds.train_batch(0, 8);
        assert_eq!(y, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn standard_specs_match_cardinality() {
        assert_eq!(DatasetSpec::cifar10().classes, 10);
        assert_eq!(DatasetSpec::cifar100().classes, 100);
        assert_eq!(DatasetSpec::imagenet().classes, 1000);
    }

    #[test]
    fn same_class_samples_correlate() {
        // Two samples of class 0 should be closer than samples of different
        // classes (prototype signal dominates the noise on average).
        let ds = VisionDataset::new(DatasetSpec::tiny(2, 12), 11);
        let (x, y) = ds.train_batch(0, 4);
        assert_eq!(&y[..2], &[0, 1]);
        let s0a = x.index0(0);
        let s1 = x.index0(1);
        let s0b = x.index0(2);
        let d_same = s0a.sub(&s0b).norm();
        let d_diff = s0a.sub(&s1).norm();
        assert!(
            d_same < d_diff,
            "same-class distance {d_same} should be < cross-class {d_diff}"
        );
    }
}
