//! Concrete layers: convolution, linear, normalization, activations,
//! pooling and shape utilities.

mod act;
mod conv;
mod linear;
mod misc;
mod norm;
mod pool;

pub use act::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use linear::Linear;
pub use misc::{Dropout, Flatten};
pub use norm::{BatchNorm2d, LayerNorm};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
