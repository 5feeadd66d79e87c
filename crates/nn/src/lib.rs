//! # adagp-nn
//!
//! Neural-network building blocks for the ADA-GP reproduction (MICRO 2023):
//! a [`Module`] trait with explicit forward/backward, the layer set used by
//! the paper's fifteen evaluated models, containers for residual / densely
//! connected / branched topologies, optimizers and the learning-rate scheduler
//! matching the paper's training setup (§5.2), synthetic datasets standing
//! in for CIFAR/ImageNet/Multi30k/PascalVOC, and evaluation metrics
//! (BLEU, mAP).
//!
//! The crate deliberately exposes **prediction sites** ([`PredictionSite`]):
//! every parameterized layer can cache its output activation during the
//! forward pass and hand out its weight gradient, which is exactly the
//! interface ADA-GP's predictor model needs (`adagp-core`).
//!
//! ## Example
//!
//! ```
//! use adagp_nn::{layers::Linear, module::{Module, ForwardCtx}};
//! use adagp_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::seed_from_u64(0);
//! let mut layer = Linear::new(4, 2, true, &mut rng);
//! let x = Tensor::ones(&[3, 4]);
//! let y = layer.forward(&x, &mut ForwardCtx::train());
//! assert_eq!(y.shape(), &[3, 2]);
//! ```

pub mod containers;
pub mod data;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod module;
pub mod optim;
pub mod param;
pub mod sched;

pub use module::{ForwardCtx, Module, PredictionSite, SiteKind, SiteMeta};
pub use param::Param;
