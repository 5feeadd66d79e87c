//! The per-channel loops of batch-norm and the depthwise stencil, eight
//! channels to an instruction.
//!
//! Both kernels are chains of `f32` additions, one chain per channel (a
//! channel's batch statistics, a filter's taps, a filter's weight gradient
//! over the outputs). Run one channel at a time, each step waits for the
//! previous add, so the loops ran at the latency of one add per element
//! whatever the shape. They run [`LANES`] channels at a time instead, and
//! follow [`gemm`](crate::gemm)'s rule: **a vector lane is an independent
//! output, never a piece of a sum.** Lane `l` of a group holds channel
//! `g · LANES + l`; each channel still adds its own terms from `0.0` in the
//! order it had, so no bit moves, and the chains of eight channels advance
//! in one instruction. A group past the channel count fills its spare
//! lanes with copies of the last channel and discards them; nothing crosses
//! lanes, so a NaN in one channel reaches no other.
//!
//! The lane loops have one build, the portable one. A second build under
//! `#[target_feature(enable = "avx2")]`, as `gemm` has, measured no faster
//! on `train_mobilenet` (the time goes to packing and gathering channels,
//! not to the adds) and batch-norm's statistics ran slower in it, so there
//! is none.

/// Channels per lane group.
pub(crate) const LANES: usize = 8;

/// The output lane `l` of group `group` holds, of `count` outputs: output
/// `group · LANES + l`, or the last one when that is past `count` (a
/// discarded lane).
pub(crate) fn index(group: usize, l: usize, count: usize) -> usize {
    (group * LANES + l).min(count - 1)
}

/// The `len`-long planes of lane group `group` in one sample of a
/// `(channels, len)` array, lane `l` reading channel `index(group, l,
/// channels)`.
pub(crate) fn planes(sample: &[f32], channels: usize, len: usize, group: usize) -> [&[f32]; LANES] {
    std::array::from_fn(|l| &sample[index(group, l, channels) * len..][..len])
}
