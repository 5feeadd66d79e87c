//! Synthetic object-detection dataset (PascalVOC stand-in) for the YOLO
//! experiment (Table 3).
//!
//! Each image contains exactly one axis-aligned rectangular object drawn
//! over background noise. The object's class is encoded by its per-channel
//! intensity signature; its position and size vary per sample. A detector
//! must regress the box and classify the signature — the same loss/metric
//! pipeline (IoU matching, mAP) as real VOC evaluation.

use adagp_tensor::{Prng, Tensor};

/// Ground-truth box: normalized center/size plus class id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxLabel {
    /// Class index.
    pub class: usize,
    /// Normalized box center x in `[0, 1]`.
    pub cx: f32,
    /// Normalized box center y in `[0, 1]`.
    pub cy: f32,
    /// Normalized width in `(0, 1]`.
    pub w: f32,
    /// Normalized height in `(0, 1]`.
    pub h: f32,
}

impl BoxLabel {
    /// Intersection-over-union with another box (both normalized).
    pub fn iou(&self, other: &BoxLabel) -> f32 {
        let (ax0, ay0, ax1, ay1) = self.corners();
        let (bx0, by0, bx1, by1) = other.corners();
        let ix = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
        let iy = (ay1.min(by1) - ay0.max(by0)).max(0.0);
        let inter = ix * iy;
        let union = self.w * self.h + other.w * other.h - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    fn corners(&self) -> (f32, f32, f32, f32) {
        (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )
    }
}

/// Deterministic synthetic detection dataset.
#[derive(Debug, Clone)]
pub struct DetectionDataset {
    classes: usize,
    size: usize,
    train_len: usize,
    test_len: usize,
    seed: u64,
}

impl DetectionDataset {
    /// Creates a detection dataset with square images of `size` pixels.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `size < 8`.
    pub fn new(classes: usize, size: usize, train_len: usize, test_len: usize, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        assert!(size >= 8, "images must be at least 8x8");
        DetectionDataset {
            classes,
            size,
            train_len,
            test_len,
            seed,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of training images.
    pub fn train_len(&self) -> usize {
        self.train_len
    }

    /// Number of test images.
    pub fn test_len(&self) -> usize {
        self.test_len
    }

    fn sample(&self, split: u64, index: usize) -> (Vec<f32>, BoxLabel) {
        let mut rng = Prng::seed_from_u64(
            self.seed ^ split.wrapping_mul(0x1234_5678) ^ (index as u64).wrapping_mul(0x9E37_79B9),
        );
        let class = index % self.classes;
        let s = self.size;
        let mut img = vec![0.0f32; 3 * s * s];
        for v in &mut img {
            *v = rng.normal(0.0, 0.3);
        }
        // Box geometry: at least 1/4 of the image, fully inside.
        let bw = (s / 4 + rng.below(s / 4)).max(2);
        let bh = (s / 4 + rng.below(s / 4)).max(2);
        let x0 = rng.below(s - bw + 1);
        let y0 = rng.below(s - bh + 1);
        // Per-channel class signature in [0.5, 2.0].
        let sig = [
            0.5 + 1.5 * ((class % 5) as f32 / 4.0),
            0.5 + 1.5 * (((class / 5) % 4) as f32 / 3.0),
            0.5 + 1.5 * ((class % 3) as f32 / 2.0),
        ];
        for (c, &amp) in sig.iter().enumerate() {
            for y in y0..y0 + bh {
                for x in x0..x0 + bw {
                    img[(c * s + y) * s + x] += amp;
                }
            }
        }
        let label = BoxLabel {
            class,
            cx: (x0 as f32 + bw as f32 / 2.0) / s as f32,
            cy: (y0 as f32 + bh as f32 / 2.0) / s as f32,
            w: bw as f32 / s as f32,
            h: bh as f32 / s as f32,
        };
        (img, label)
    }

    /// Training batch `batch_idx` as `(images (B, 3, S, S), labels)`.
    pub fn train_batch(&self, batch_idx: usize, batch_size: usize) -> (Tensor, Vec<BoxLabel>) {
        self.batch(0, batch_idx, batch_size, self.train_len)
    }

    /// Test batch `batch_idx`.
    pub fn test_batch(&self, batch_idx: usize, batch_size: usize) -> (Tensor, Vec<BoxLabel>) {
        self.batch(1, batch_idx, batch_size, self.test_len)
    }

    fn batch(
        &self,
        split: u64,
        batch_idx: usize,
        batch_size: usize,
        split_len: usize,
    ) -> (Tensor, Vec<BoxLabel>) {
        assert!(batch_size > 0, "batch_size must be positive");
        let plen = 3 * self.size * self.size;
        let mut data = Vec::with_capacity(batch_size * plen);
        let mut labels = Vec::with_capacity(batch_size);
        for i in 0..batch_size {
            let index = (batch_idx * batch_size + i) % split_len.max(1);
            let (img, label) = self.sample(split, index);
            data.extend_from_slice(&img);
            labels.push(label);
        }
        (
            Tensor::from_vec(data, &[batch_size, 3, self.size, self.size]),
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_identical_is_one() {
        let b = BoxLabel {
            class: 0,
            cx: 0.5,
            cy: 0.5,
            w: 0.4,
            h: 0.4,
        };
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BoxLabel {
            class: 0,
            cx: 0.2,
            cy: 0.2,
            w: 0.2,
            h: 0.2,
        };
        let b = BoxLabel {
            class: 0,
            cx: 0.8,
            cy: 0.8,
            w: 0.2,
            h: 0.2,
        };
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BoxLabel {
            class: 0,
            cx: 0.25,
            cy: 0.5,
            w: 0.5,
            h: 1.0,
        };
        let b = BoxLabel {
            class: 0,
            cx: 0.5,
            cy: 0.5,
            w: 0.5,
            h: 1.0,
        };
        // Intersection 0.25, union 0.75.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn batches_deterministic_and_valid() {
        let ds = DetectionDataset::new(20, 32, 256, 128, 1);
        let (xa, la) = ds.train_batch(0, 4);
        let (xb, lb) = ds.train_batch(0, 4);
        assert_eq!(xa, xb);
        assert_eq!(la, lb);
        assert_eq!(xa.shape(), &[4, 3, 32, 32]);
        for l in &la {
            assert!(l.class < 20);
            assert!(l.cx > 0.0 && l.cx < 1.0);
            assert!(l.w > 0.0 && l.w <= 1.0);
            // Box fully inside the image.
            assert!(l.cx - l.w / 2.0 >= -1e-6);
            assert!(l.cx + l.w / 2.0 <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn object_region_is_brighter() {
        let ds = DetectionDataset::new(4, 16, 16, 16, 2);
        let (x, labels) = ds.train_batch(0, 1);
        let l = labels[0];
        let s = 16;
        let x0 = ((l.cx - l.w / 2.0) * s as f32).round() as usize;
        let y0 = ((l.cy - l.h / 2.0) * s as f32).round() as usize;
        // Mean intensity inside the box exceeds the global mean.
        let mut inside = 0.0f32;
        let mut count = 0;
        for y in y0..(y0 + (l.h * s as f32) as usize).min(s) {
            for xx in x0..(x0 + (l.w * s as f32) as usize).min(s) {
                inside += x.at(&[0, 0, y, xx]);
                count += 1;
            }
        }
        assert!(inside / count as f32 > x.mean());
    }
}
