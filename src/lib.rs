//! # ada-gp
//!
//! Umbrella crate for the ADA-GP reproduction (MICRO 2023): re-exports the
//! workspace crates so examples and downstream users can depend on a
//! single package.
//!
//! * [`runtime`] — shared thread pool, bounded queue, stage stats.
//! * [`tensor`] — dense f32 tensors and NN kernels (fwd + bwd).
//! * [`nn`] — layers, models, optimizers, schedulers, datasets, metrics.
//! * [`adagp`] — the ADA-GP algorithm: predictor, reorganization, phases.
//! * [`accel`] — accelerator cycle/energy/area models.
//! * [`sim`] — discrete-event, layer-granular accelerator simulator; also
//!   runs the GPipe/DAPPLE pipeline schedules.
//! * [`pipeline`] — closed-form GPipe/DAPPLE/Chimera step counts.
//! * [`obs`] — spans, counters/histograms, Chrome-trace export.
//!
//! ```
//! use ada_gp::adagp::{AdaGp, AdaGpConfig};
//! use ada_gp::nn::{containers::Sequential, layers::{Conv2d, Flatten, Linear}};
//! use ada_gp::tensor::Prng;
//!
//! let mut rng = Prng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Conv2d::new(3, 4, 3, 1, 1, true, &mut rng));
//! model.push(Flatten::new());
//! model.push(Linear::new(4 * 8 * 8, 10, true, &mut rng));
//! let adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
//! assert_eq!(adagp.sites().len(), 2);
//! ```

pub use adagp_accel as accel;
pub use adagp_core as adagp;
pub use adagp_nn as nn;
pub use adagp_obs as obs;
pub use adagp_pipeline as pipeline;
pub use adagp_runtime as runtime;
pub use adagp_sim as sim;
pub use adagp_tensor as tensor;
