//! Synthetic datasets standing in for the paper's datasets.
//!
//! The reproduction cannot ship CIFAR10/CIFAR100/ImageNet/Multi30k/PascalVOC
//! (large, licensed, network-gated). Each stand-in generates a *learnable*
//! task deterministically from a seed, matching the original's input shape
//! and label cardinality, so that the BP-vs-ADA-GP accuracy comparisons
//! (Tables 1–3) exercise the identical code paths.

mod classification;
mod detection;
mod translation;

pub use classification::{DatasetSpec, VisionDataset};
pub use detection::{BoxLabel, DetectionDataset};
pub use translation::{TranslationDataset, BOS, EOS, PAD};
