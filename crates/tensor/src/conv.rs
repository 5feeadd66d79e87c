//! 2-D convolution kernels, forward and backward.
//!
//! Convolutions are the dominant op in every CNN the paper evaluates
//! (VGG/ResNet/DenseNet/Inception/MobileNet/YOLO). The gradients of the
//! convolution *weights* are exactly what ADA-GP's predictor model learns to
//! predict, so both `conv2d_backward_weight` and `conv2d_backward_data` are
//! first-class kernels here.
//!
//! Each kernel is a lowering (`im2col` / `col2im`) around one
//! [`gemm`](crate::gemm) call per sample and channel group, whose contract
//! fixes the order of every sum for every `ADAGP_THREADS`. All three run one
//! block of samples per pool task, with a lowering buffer the task borrows
//! from its thread's `scratch` stack; weight-backward, whose samples all sum
//! into one `dw`, then adds their products in sample order (below). Two
//! cases need no lowering copy: a 1×1, stride-1, unpadded window, and a
//! grouped call with one input channel per group.
//!
//! # The geometry
//!
//! A call's shape is one `Geometry`, built from its tensors and
//! [`Conv2dParams`] and checked there once: a positive stride and group
//! count, groups that split both channel counts, a window that fits the
//! padded input. The kernels, the lowering and the depthwise stencil all
//! read their sizes, offsets and paths from it.
//!
//! # The lowering
//!
//! At stride 1 the outputs `ox` of one patch row `(ci, ki, kj)` and output
//! row `oy` read one run of input row `iy`: those whose tap lands in the
//! padding sit at the two ends (`Geometry::inside` gives the run), and
//! the rest are consecutive. So `im2col` writes each `(row, oy)` of `cols`
//! as zeros, one `copy_from_slice` and zeros, and `col2im` adds it back
//! with one slice add into `iy`. Within one `(row, oy)` every output pixel
//! gets at most one term, and the `(ci, ki, kj, oy)` order of those adds is
//! the element loop's, so each pixel sees the same additions in the same
//! order. Rows shorter than `WHOLE_ROW_MIN` = 8 outputs, stride 2 and the
//! transposed layout `colsᵀ` (weight-backward, whose writes are strided
//! anyway) stay element by element: measured on one thread (x86-64, AVX2),
//! the row form lowers VGG13 w0.25's 32×32 and 16×16 planes 3.5–5.5×
//! faster and scatters them 3–6× faster, but ran 1.2–2.4× slower on
//! MobileNet-V2's and the predictor's 4×4 and 2×2 planes, where a row is a
//! few elements, and writing `colsᵀ` in three runs per row was within
//! 10 % of the element loop. The parent's element loops are kept in the
//! unit tests as the reference the row form is compared with, byte for
//! byte.
//!
//! # Weight-backward
//!
//! `dw` is a sum over the samples, and its order is fixed: each sample's
//! product `s_i = dy_i · colsᵢᵀ` summed from `0.0`, outputs ascending (the
//! `gemm` contract), then `dw = 0.0 + s₀ + s₁ + …`, samples ascending. The
//! samples' products are independent, so the tasks compute them in
//! parallel, each into its own slot of a buffer the call borrows from its
//! thread's `scratch` stack (`gemm` with `accumulate = false`), and the
//! slots are added into `dw` in sample order afterwards — the same sequence
//! of `f32` additions, per element, as walking the samples one after the
//! other. The samples go in waves of `WAVE` = 4 (one pool region each), so
//! the buffer holds `(4, Cout · patch)`, not the whole batch's products: a
//! whole batch (4.5 MiB at VGG13 w0.25's 128→128 site, batch 8), allocated
//! per call, raised `train_mobilenet`'s median `peak_rss_mb` by 4.5–6 % —
//! freeing a large buffer raises glibc's dynamic mmap threshold, so later
//! frees stay resident (with the threshold fixed by
//! `MALLOC_MMAP_THRESHOLD_` the rise was gone). A task lowers its sample
//! straight into `colsᵀ`, `(Ho·Wo, Cin/groups · kh · kw)` row-major
//! (`im2col` writes either layout through destination strides), so
//! `gemm`'s `b` has contiguous rows and no transposed copy is made. A 1×1
//! window lowers the same way: its `colsᵀ` is the band's transpose, the
//! copy `gemm` would otherwise have made. The task borrows its `colsᵀ`
//! buffer from its thread's `scratch` stack too, the next one down when
//! that thread also holds the wave's slots.
//!
//! # Channel groups
//!
//! [`Conv2dParams::groups`] splits the channels into `groups` bands: output
//! band `g` (`Cout / groups` filters, a contiguous slice of the weight
//! `(Cout, Cin / groups, kh, kw)`) reads input band `g` only. `groups = 1` is
//! the dense convolution; `groups = Cin = Cout` is the depthwise convolution
//! of MobileNet-V2, one `k×k` filter per channel. The group loop sits inside
//! the per-sample body, so a dense call is the same code with one iteration,
//! and a grouped call is bit for bit a dense call on each band (gather the
//! band, convolve, scatter — `tests/kernel_properties.rs` keeps that lowering
//! as its reference).
//!
//! The lowering buffer holds **one group's** patches and is reused from
//! group to group: lowering every band of a depthwise site at once made a
//! 550 KB matrix that fell out of cache and ran slower than the per-band
//! buffer it replaced.
//!
//! # Without a lowering copy
//!
//! A 1×1 window at stride 1 without padding lowers a band to itself, so
//! forward hands the band to `gemm` as `cols`, and data-backward lets `gemm`
//! accumulate straight into the zeroed `dx` band — the `0 + v` that `col2im`
//! did. MobileNet-V2's expand, project and head sites are such calls.
//!
//! A grouped call with one input channel per group (`groups > 1`,
//! `Cin / groups == 1`: MobileNet-V2's depthwise sites, channel multipliers
//! included) runs a direct stencil over a zero-padded copy of each input
//! plane instead of `im2col` + a `1 × owh × k²` `gemm` per channel and
//! sample. It is the second multiply-accumulate loop of this crate, and it
//! keeps, per element, the order the lowering had:
//!
//! * **forward** — taps `ki, kj` ascending from `0.0`, then the bias;
//! * **data-backward** — each tap's `Σ_f w·dy` from `0.0` (filters
//!   ascending, `gemm`'s `wᵀ · dy`), scattered in `col2im`'s
//!   `(ki, kj, oy, ox)` order; what lands on the padding is dropped;
//! * **weight-backward** — each sample's `Σ dy·x` from `0.0`, outputs
//!   ascending, then the samples added in ascending order.
//!
//! The padding zeros are multiplied, not skipped, so `0 × ∞` stays `NaN`.
//!
//! Each of those sums is a chain of dependent adds, and a chain per output
//! ran at one add's latency per tap (a 2×2 or 4×4 plane gives the output
//! rows nothing to vectorise). So the stencil runs eight channels at a
//! time, a channel per vector lane, under `gemm`'s rule: **a lane is an
//! independent output, never a piece of a sum** (the crate's `lanes`
//! module). A pass packs a lane group's zero-padded input planes — and, for
//! the backward passes, its `dy` — channel-minor into a buffer from its
//! thread's `scratch` stack (element `(py, px)` of lane `l` at
//! `(py · pw + px) · 8 + l`), runs the taps on `[f32; 8]` accumulators in
//! the order above and writes NCHW back. Lanes are filters in forward and
//! weight-backward (a multiplier above 1 packs an input plane once per
//! filter that reads it) and input channels in data-backward; a group past
//! the channel count fills its spare lanes with copies of the last channel
//! and discards them, so a tail, a multiplier and stride 2 take the same
//! loop. Forward and data-backward work on four outputs of a row at once,
//! weight-backward on nine taps (a 3×3 window whole), each with its own
//! accumulator, and on one at a time past a multiple of four outputs or
//! nine taps. Nothing crosses lanes, so a NaN in one channel reaches no
//! other.
//!
//! Forward and data-backward split the samples, weight-backward the lane
//! groups (each walks the samples in order), into `STENCIL_BLOCKS` pool
//! tasks.
//!
//! # Dispatch
//!
//! Every call goes to the pool on its MAC count. Until the stencil, grouped
//! calls ran inline: handing the lowered depthwise sites to the pool was no
//! faster and raised `train_mobilenet`'s peak RSS by 15 % (each task then
//! allocated its own `cols`; tasks now borrow theirs from their thread's
//! `scratch` stack). Re-measured with the stencil on a 2-vCPU
//! host: dispatched, `train_mobilenet`'s `peak_rss_mb` stays within 2 % of
//! the lowering's and `cold_ops_per_s` is ≈ 10 % above an inline stencil,
//! so the rule is gone. Allocation sets the block count: each pool task
//! costs two allocations (its boxes). At `det_chunk_len`'s blocks (up to 32)
//! the 33 stencil calls of a MobileNet-V2 BP batch allocated 571 more times
//! than the lowering did (17 929 against 17 358); at two blocks they
//! allocate 209 fewer (17 149) and run within noise of 32.

use crate::gemm::{gemm, Mat};
use crate::lanes::{self, LANES};
use crate::{par, scratch, Tensor};
use adagp_runtime::det_chunk_len;

/// Pool tasks a stencil call is split into (module documentation).
const STENCIL_BLOCKS: usize = 2;

/// Output rows shorter than this are lowered element by element (module
/// documentation, "The lowering").
const WHOLE_ROW_MIN: usize = 8;

/// Samples whose products a dense weight-backward holds at once (module
/// documentation).
const WAVE: usize = 4;

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied on all four sides.
    pub padding: usize,
    /// Channel groups: 1 is a dense convolution, the channel count a
    /// depthwise one. Must divide both channel counts.
    pub groups: usize,
}

impl Default for Conv2dParams {
    /// Stride 1, no padding, one group.
    fn default() -> Self {
        Conv2dParams::new(1, 0)
    }
}

impl Conv2dParams {
    /// Creates dense (one group) parameters with the given stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Conv2dParams {
            stride,
            padding,
            groups: 1,
        }
    }

    /// The same parameters over `groups` channel groups.
    pub fn grouped(self, groups: usize) -> Self {
        Conv2dParams { groups, ..self }
    }

    /// Output spatial size for an input of size `in_size` and kernel `k`.
    /// The kernels reject a `k` wider than the padded input.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        (in_size + 2 * self.padding).saturating_sub(k) / self.stride + 1
    }
}

/// One kernel call's shape (module documentation): samples of `cin` input
/// planes of `h × w`, zero-padded by `pad` on all four sides and read by
/// `cout` filters of `kh × kw` over `groups` channel groups at `stride`,
/// into `ho × wo` outputs.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    cin: usize,
    cout: usize,
    groups: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
}

impl Geometry {
    /// The geometry of `op` over `(cin, h, w)` inputs and `(cout, kh, kw)`
    /// filters.
    ///
    /// Panics on a zero stride or group count, on groups that do not split
    /// both channel counts, and on a window that does not fit the padded
    /// input: `out_size` would call the missing taps one output and
    /// `im2col` would zero-fill them into a partial sum.
    fn new(
        op: &str,
        p: &Conv2dParams,
        (cin, h, w): (usize, usize, usize),
        (cout, kh, kw): (usize, usize, usize),
    ) -> Self {
        let (stride, pad, groups) = (p.stride, p.padding, p.groups);
        assert!(stride > 0, "{op}: stride must be positive");
        assert!(groups > 0, "{op}: groups must be positive");
        assert!(
            cin.is_multiple_of(groups) && cout.is_multiple_of(groups),
            "{op}: {cin} input and {cout} output channels do not split into {groups} groups"
        );
        assert!(
            h + 2 * pad >= kh && w + 2 * pad >= kw,
            "{op}: a {kh}x{kw} kernel does not fit a {h}x{w} input padded by {pad}"
        );
        let (ho, wo) = (p.out_size(h, kh), p.out_size(w, kw));
        Geometry {
            cin,
            cout,
            groups,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            ho,
            wo,
        }
    }

    /// Input channels per group.
    fn cin_g(&self) -> usize {
        self.cin / self.groups
    }

    /// Output channels (filters) per group: the stencil's multiplier.
    fn cout_g(&self) -> usize {
        self.cout / self.groups
    }

    /// Rows of one group's lowering: `Cin / groups · kh · kw`.
    fn patch(&self) -> usize {
        self.cin_g() * self.kh * self.kw
    }

    /// Outputs per plane.
    fn owh(&self) -> usize {
        self.ho * self.wo
    }

    /// Whether the call takes the depthwise stencil.
    fn depthwise(&self) -> bool {
        self.groups > 1 && self.cin_g() == 1
    }

    /// Rows (samples, or the stencil weight-backward's lane groups) per pool
    /// task of a call over `rows` rows: `det_chunk_len`'s for the lowering,
    /// `STENCIL_BLOCKS` blocks for the stencil.
    fn block_rows(&self, rows: usize) -> usize {
        if self.depthwise() {
            rows.div_ceil(STENCIL_BLOCKS)
        } else {
            det_chunk_len(rows)
        }
    }

    /// Whether the lowering moves an output row whole (module
    /// documentation): at stride 1, `WHOLE_ROW_MIN` outputs or more.
    fn whole_rows(&self) -> bool {
        self.stride == 1 && self.wo >= WHOLE_ROW_MIN
    }

    /// At stride 1, the outputs `lo..hi` of a row whose tap `kj` falls
    /// inside an input row (`lo == hi` when none does).
    fn inside(&self, kj: usize) -> (usize, usize) {
        let pad = self.pad;
        let lo = pad.saturating_sub(kj).min(self.wo);
        let hi = (self.w + pad).saturating_sub(kj).min(self.wo);
        (lo, hi.max(lo))
    }

    /// Whether the window lowers a band to the band itself.
    fn pointwise(&self) -> bool {
        (self.kh, self.kw, self.stride, self.pad) == (1, 1, 1, 0)
    }

    /// Length of one group's lowering buffer: none for a pointwise window.
    fn cols_len(&self) -> usize {
        if self.pointwise() {
            0
        } else {
            self.patch() * self.owh()
        }
    }

    /// Lowers one group's input patches, `(Cin / groups, h, w)` row-major
    /// in `band`: patch row `r = (ci, ki, kj)` at output `o = (oy, ox)` goes
    /// to `cols[r * rs + o * os]`. `(rs, os) = (Ho*Wo, 1)` writes `cols`,
    /// the `(patch, Ho*Wo)` matrix; `(1, patch)` writes its transpose.
    ///
    /// Into `cols`, at stride 1, a row of `WHOLE_ROW_MIN` outputs or more is
    /// written as zeros, one copy of a run of its input row, zeros; anything
    /// else element by element (module documentation).
    fn im2col(&self, band: &[f32], cols: &mut [f32], (rs, os): (usize, usize)) {
        let (c, h, w, kh, kw) = (self.cin_g(), self.h, self.w, self.kh, self.kw);
        let (ho, wo, s, pad) = (self.ho, self.wo, self.stride, self.pad);
        debug_assert_eq!(cols.len(), c * kh * kw * ho * wo);
        let whole_rows = os == 1 && self.whole_rows();
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let (lo, hi) = self.inside(kj);
                    for oy in 0..ho {
                        let at = row * rs + oy * wo * os;
                        let iy = (oy * s + ki) as isize - pad as isize;
                        if !whole_rows {
                            for ox in 0..wo {
                                let ix = (ox * s + kj) as isize - pad as isize;
                                let inside =
                                    iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                                cols[at + ox * os] = if inside {
                                    band[(ci * h + iy as usize) * w + ix as usize]
                                } else {
                                    0.0
                                };
                            }
                            continue;
                        }
                        let out = &mut cols[at..][..wo];
                        if iy < 0 || iy as usize >= h {
                            out.fill(0.0);
                            continue;
                        }
                        let src = &band[(ci * h + iy as usize) * w..][..w];
                        // The input row from the tap of output `lo` on.
                        let run = &src[(lo + kj).saturating_sub(pad).min(w)..];
                        out[..lo].fill(0.0);
                        out[lo..hi].copy_from_slice(&run[..hi - lo]);
                        out[hi..].fill(0.0);
                    }
                }
            }
        }
    }

    /// The `(patch, Ho*Wo)` lowering of `band`: the band itself for a
    /// pointwise window, else `im2col` into `cols` (`cols_len` long).
    fn lower<'a>(&self, band: &'a [f32], cols: &'a mut [f32]) -> &'a [f32] {
        if self.pointwise() {
            return band;
        }
        self.im2col(band, cols, (self.owh(), 1));
        cols
    }

    /// Scatters one group's column matrix back to its image band,
    /// accumulating overlaps: each `(r, oy)` adds its outputs into one input
    /// row, as one slice add when the lowering moves whole rows, else
    /// element by element (module documentation).
    fn col2im(&self, cols: &[f32], out: &mut [f32]) {
        let (c, h, w, kh, kw) = (self.cin_g(), self.h, self.w, self.kh, self.kw);
        let (ho, wo, s, pad) = (self.ho, self.wo, self.stride, self.pad);
        let whole_rows = self.whole_rows();
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let (lo, hi) = self.inside(kj);
                    for oy in 0..ho {
                        let iy = (oy * s + ki) as isize - pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src = &cols[(row * ho + oy) * wo..][..wo];
                        let dst = &mut out[(ci * h + iy as usize) * w..][..w];
                        if whole_rows {
                            let dst = &mut dst[(lo + kj).saturating_sub(pad).min(w)..];
                            dst.iter_mut().zip(&src[lo..hi]).for_each(|(o, &v)| *o += v);
                            continue;
                        }
                        for (ox, &v) in src.iter().enumerate() {
                            let ix = (ox * s + kj) as isize - pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                dst[ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Element `at`'s lanes in a channel-minor buffer.
fn lane(buf: &[f32], at: usize) -> &[f32; LANES] {
    buf[at * LANES..][..LANES].try_into().expect("LANES wide")
}

/// The depthwise stencil (module documentation): `cin` planes, each read by
/// `m = cout_g()` filters. Every pass runs a lane group of [`LANES`]
/// channels at a time.
impl Geometry {
    /// Width of a padded plane.
    fn pw(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Length of a padded plane.
    fn padded_len(&self) -> usize {
        (self.h + 2 * self.pad) * self.pw()
    }

    /// Where, in a padded plane, output row `oy`'s tap `(ki, kj)` starts
    /// (for `ox = 0`; output `ox` reads `stride · ox` further on).
    fn at(&self, oy: usize, ki: usize, kj: usize) -> usize {
        (oy * self.stride + ki) * self.pw() + kj
    }

    /// Scratch a pass needs: forward and weight-backward a packed plane and
    /// a packed weight or `dy` plane, data-backward a packed plane, `dy`
    /// and weights for every multiplier.
    fn stencil_len(&self) -> usize {
        let (patch, owh) = (self.kh * self.kw, self.owh());
        LANES * (self.padded_len() + self.cout_g() * (owh + patch))
    }

    /// Packs the input planes that lane group `group`'s filters read into
    /// the middle of `packed`; its border is left as it is (zero). Lane `l`
    /// holds the plane filter `lanes::index(group, l, cout)` reads.
    fn pack_planes(&self, sample: &[f32], group: usize, packed: &mut [f32]) {
        let (plane, m) = (self.h * self.w, self.cout_g());
        let src: [&[f32]; LANES] = std::array::from_fn(|l| {
            &sample[lanes::index(group, l, self.cout) / m * plane..][..plane]
        });
        for iy in 0..self.h {
            let at = (iy + self.pad) * self.pw() + self.pad;
            let row = &mut packed[at * LANES..][..self.w * LANES];
            for (ix, px) in row.chunks_exact_mut(LANES).enumerate() {
                for l in 0..LANES {
                    px[l] = src[l][iy * self.w + ix];
                }
            }
        }
    }

    /// Packs lane group `group` of `count` rows of `len` elements (rows
    /// `index(group, l, count) · per + j`, `j < per`) channel-minor:
    /// `(j, i)` of lane `l` lands at `(j · len + i) · LANES + l`.
    fn pack_rows(
        src: &[f32],
        (count, per, len): (usize, usize, usize),
        group: usize,
        dst: &mut [f32],
    ) {
        for j in 0..per {
            let rows: [&[f32]; LANES] = std::array::from_fn(|l| {
                &src[(lanes::index(group, l, count) * per + j) * len..][..len]
            });
            let dst = &mut dst[j * len * LANES..][..len * LANES];
            for (i, px) in dst.chunks_exact_mut(LANES).enumerate() {
                for l in 0..LANES {
                    px[l] = rows[l][i];
                }
            }
        }
    }

    /// Forward over a block of samples: `y (cout, ho · wo)` per sample
    /// gets every filter's taps in ascending order, from `0.0`.
    fn stencil_forward(&self, x: &[f32], weight: &[f32], y: &mut [f32], buf: &mut [f32]) {
        let (patch, owh, filters) = (self.kh * self.kw, self.owh(), self.cout);
        let (packed, taps) = buf.split_at_mut(self.padded_len() * LANES);
        packed.fill(0.0);
        for group in 0..filters.div_ceil(LANES) {
            Self::pack_rows(weight, (filters, 1, patch), group, taps);
            let live = (filters - group * LANES).min(LANES);
            let samples = x.chunks(self.cin * self.h * self.w);
            for (sample, y) in samples.zip(y.chunks_mut(filters * owh)) {
                self.pack_planes(sample, group, packed);
                let y = &mut y[group * LANES * owh..][..live * owh];
                for oy in 0..self.ho {
                    let mut ox = 0;
                    while ox + 4 <= self.wo {
                        self.forward_tile::<4>(packed, taps, (oy, ox), y);
                        ox += 4;
                    }
                    while ox < self.wo {
                        self.forward_tile::<1>(packed, taps, (oy, ox), y);
                        ox += 1;
                    }
                }
            }
        }
    }

    /// `T` outputs of row `oy` from `ox` on: one accumulator per output and
    /// lane, the taps ascending.
    fn forward_tile<const T: usize>(
        &self,
        packed: &[f32],
        taps: &[f32],
        (oy, ox): (usize, usize),
        y: &mut [f32],
    ) {
        let mut acc = [[0.0f32; LANES]; T];
        for ki in 0..self.kh {
            for kj in 0..self.kw {
                let wv = lane(taps, ki * self.kw + kj);
                for (t, acc) in acc.iter_mut().enumerate() {
                    let xv = lane(packed, self.at(oy, ki, kj) + (ox + t) * self.stride);
                    for l in 0..LANES {
                        acc[l] += wv[l] * xv[l];
                    }
                }
            }
        }
        for (l, y_f) in y.chunks_mut(self.owh()).enumerate() {
            for (t, acc) in acc.iter().enumerate() {
                y_f[oy * self.wo + ox + t] = acc[l];
            }
        }
    }

    /// Data-backward over a block of samples: `dx (cin, h · w)` per sample
    /// from `dy (cout, ho · wo)`. Each tap's `Σ_j w·dy` over the channel's
    /// filters is summed from `0.0` and scattered into a packed, zeroed
    /// padded plane in `(tap, oy, ox)` order.
    fn stencil_backward_data(&self, dy: &[f32], weight: &[f32], dx: &mut [f32], buf: &mut [f32]) {
        let (patch, owh, plane) = (self.kh * self.kw, self.owh(), self.h * self.w);
        let (channels, m) = (self.cin, self.cout_g());
        let (sums, rest) = buf.split_at_mut(self.padded_len() * LANES);
        let (dys, taps) = rest.split_at_mut(m * owh * LANES);
        for group in 0..channels.div_ceil(LANES) {
            Self::pack_rows(weight, (channels, m, patch), group, taps);
            let live = (channels - group * LANES).min(LANES);
            let samples = dy.chunks(self.cout * owh);
            for (dy, dx) in samples.zip(dx.chunks_mut(channels * plane)) {
                Self::pack_rows(dy, (channels, m, owh), group, dys);
                sums.fill(0.0);
                for ki in 0..self.kh {
                    for kj in 0..self.kw {
                        let tap = ki * self.kw + kj;
                        for oy in 0..self.ho {
                            let mut ox = 0;
                            while ox + 4 <= self.wo {
                                self.data_tile::<4>(dys, taps, (tap, oy, ox), (ki, kj), sums);
                                ox += 4;
                            }
                            while ox < self.wo {
                                self.data_tile::<1>(dys, taps, (tap, oy, ox), (ki, kj), sums);
                                ox += 1;
                            }
                        }
                    }
                }
                let dx = &mut dx[group * LANES * plane..][..live * plane];
                for (l, dx_c) in dx.chunks_mut(plane).enumerate() {
                    for (iy, row) in dx_c.chunks_mut(self.w).enumerate() {
                        let at = (iy + self.pad) * self.pw() + self.pad;
                        for (ix, v) in row.iter_mut().enumerate() {
                            *v = sums[(at + ix) * LANES + l];
                        }
                    }
                }
            }
        }
    }

    /// Tap `tap` of `T` outputs of row `oy` from `ox` on: each output's
    /// `Σ_j w·dy` from `0.0`, then added to where the tap read it.
    fn data_tile<const T: usize>(
        &self,
        dys: &[f32],
        taps: &[f32],
        (tap, oy, ox): (usize, usize, usize),
        (ki, kj): (usize, usize),
        sums: &mut [f32],
    ) {
        let (patch, owh) = (self.kh * self.kw, self.owh());
        let mut s = [[0.0f32; LANES]; T];
        for j in 0..self.cout_g() {
            let wv = lane(taps, j * patch + tap);
            for (t, s) in s.iter_mut().enumerate() {
                let d = lane(dys, j * owh + oy * self.wo + ox + t);
                for l in 0..LANES {
                    s[l] += wv[l] * d[l];
                }
            }
        }
        for (t, s) in s.iter().enumerate() {
            let at = self.at(oy, ki, kj) + (ox + t) * self.stride;
            let dst = &mut sums[at * LANES..][..LANES];
            for l in 0..LANES {
                dst[l] += s[l];
            }
        }
    }

    /// Weight-backward of lane groups `first..` of `dw (cout, kh · kw)`
    /// (rows of `LANES · kh · kw`) over the whole batch of `x` and `dy`: per
    /// sample each tap's `Σ dy·x` from `0.0`, outputs ascending, added to
    /// `dw` in sample order.
    fn stencil_backward_weight(
        &self,
        x: &[f32],
        dy: &[f32],
        first: usize,
        dw: &mut [f32],
        buf: &mut [f32],
    ) {
        let (patch, owh, filters) = (self.kh * self.kw, self.owh(), self.cout);
        let (packed, dys) = buf.split_at_mut(self.padded_len() * LANES);
        packed.fill(0.0);
        for (group, dw) in (first..).zip(dw.chunks_mut(LANES * patch)) {
            let samples = x
                .chunks(self.cin * self.h * self.w)
                .zip(dy.chunks(filters * owh));
            for (sample, dy) in samples {
                self.pack_planes(sample, group, packed);
                Self::pack_rows(dy, (filters, 1, owh), group, dys);
                let mut tap = 0;
                while tap + 9 <= patch {
                    self.weight_tile::<9>(packed, dys, tap, dw);
                    tap += 9;
                }
                while tap < patch {
                    self.weight_tile::<1>(packed, dys, tap, dw);
                    tap += 1;
                }
            }
        }
    }

    /// Taps `tap0..tap0 + T` of one sample: one accumulator per tap and
    /// lane, the outputs ascending, then added to the live lanes' `dw` rows.
    fn weight_tile<const T: usize>(
        &self,
        packed: &[f32],
        dys: &[f32],
        tap0: usize,
        dw: &mut [f32],
    ) {
        let offsets: [usize; T] = std::array::from_fn(|t| {
            let tap = tap0 + t;
            (tap / self.kw) * self.pw() + tap % self.kw
        });
        let mut acc = [[0.0f32; LANES]; T];
        for oy in 0..self.ho {
            for ox in 0..self.wo {
                let origin = self.at(oy, 0, 0) + ox * self.stride;
                let d = lane(dys, oy * self.wo + ox);
                for (acc, &off) in acc.iter_mut().zip(&offsets) {
                    let xv = lane(packed, origin + off);
                    for l in 0..LANES {
                        acc[l] += d[l] * xv[l];
                    }
                }
            }
        }
        let patch = self.kh * self.kw;
        for (l, dw_f) in dw.chunks_mut(patch).enumerate() {
            for (t, acc) in acc.iter().enumerate() {
                dw_f[tap0 + t] += acc[l];
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// * `input`  — `(N, Cin, H, W)`
/// * `weight` — `(Cout, Cin / groups, kh, kw)`
/// * `bias`   — optional `(Cout,)`
///
/// Returns `(N, Cout, Ho, Wo)`.
///
/// # Panics
///
/// Panics if ranks or channel counts disagree, if the stride is zero, if
/// `groups` is zero or does not divide `Cout`, or if the kernel does not fit
/// the padded input.
///
/// ```
/// use adagp_tensor::{Tensor, conv::{conv2d, Conv2dParams}};
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
/// assert_eq!(y.shape(), &[1, 1, 3, 3]);
/// assert_eq!(y.at(&[0, 0, 1, 1]), 9.0); // full overlap in the centre
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: &Conv2dParams) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d: input must be (N, C, H, W)");
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d: weight must be (Cout, Cin, kh, kw)"
    );
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (cout, cin_w, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let g = Geometry::new("conv2d", p, (cin, h, w), (cout, kh, kw));
    assert_eq!(g.cin_g(), cin_w, "conv2d: channel mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), cout, "conv2d: bias length must equal Cout");
    }
    let (cin_g, cout_g, patch, owh) = (g.cin_g(), g.cout_g(), g.patch(), g.owh());

    let mut out = vec![0.0f32; n * cout * owh];

    par::row_blocks_by(
        g.block_rows(n),
        &mut out,
        n,
        cout * owh,
        n * cout * patch * owh,
        |first, chunk| {
            if g.depthwise() {
                let (x, weight) = (&input.data()[first * cin * h * w..], weight.data());
                scratch::with(g.stencil_len(), |buf| {
                    g.stencil_forward(x, weight, chunk, buf)
                });
            } else {
                let samples = input.data().chunks(cin * h * w).skip(first);
                scratch::with(g.cols_len(), |cols| {
                    for (y, sample) in chunk.chunks_mut(cout * owh).zip(samples) {
                        let bands = sample.chunks(cin_g * h * w);
                        let filters = weight.data().chunks(cout_g * patch);
                        for ((y_band, band), filter) in
                            y.chunks_mut(cout_g * owh).zip(bands).zip(filters)
                        {
                            let cols = g.lower(band, cols);
                            let (wmat, cols_mat) = (Mat::rows(filter, patch), Mat::rows(cols, owh));
                            gemm(cout_g, owh, patch, wmat, cols_mat, y_band, false);
                        }
                    }
                });
            }
            if let Some(b) = bias {
                // After the sum, so the bias is the last term of every element.
                for (yrow, &bv) in chunk.chunks_mut(owh).zip(b.data().iter().cycle()) {
                    yrow.iter_mut().for_each(|v| *v += bv);
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, cout, g.ho, g.wo])
}

/// Gradient of the convolution with respect to its input.
///
/// Given `dy (N, Cout, Ho, Wo)` and `weight (Cout, Cin / groups, kh, kw)`,
/// returns `dx (N, Cin, H, W)` for the original input spatial size `(h, w)`.
///
/// # Panics
///
/// Panics on rank mismatch, if the stride is zero, if `groups` is zero or
/// does not divide `Cout`, or if `dy`'s spatial size disagrees with the
/// parameters.
pub fn conv2d_backward_data(
    dy: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    p: &Conv2dParams,
) -> Tensor {
    assert_eq!(dy.ndim(), 4, "conv2d_backward_data: dy must be rank-4");
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d_backward_data: weight must be rank-4"
    );
    let (n, cout, ho, wo) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    let (cout_w, cin_w, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(cout, cout_w, "conv2d_backward_data: channel mismatch");
    let cin = cin_w * p.groups;
    let g = Geometry::new("conv2d_backward_data", p, (cin, h, w), (cout, kh, kw));
    assert_eq!(
        (ho, wo),
        (g.ho, g.wo),
        "conv2d_backward_data: Ho x Wo mismatch"
    );
    let (cin_g, cout_g, patch, owh) = (g.cin_g(), g.cout_g(), g.patch(), g.owh());

    let mut dx = vec![0.0f32; n * cin * h * w];

    par::row_blocks_by(
        g.block_rows(n),
        &mut dx,
        n,
        cin * h * w,
        n * cout * patch * owh,
        |first, chunk| {
            if g.depthwise() {
                let (dy, weight) = (&dy.data()[first * cout * owh..], weight.data());
                scratch::with(g.stencil_len(), |buf| {
                    g.stencil_backward_data(dy, weight, chunk, buf)
                });
                return;
            }
            let dy_samples = dy.data().chunks(cout * owh).skip(first);
            scratch::with(g.cols_len(), |dcols| {
                for (dx_sample, dy_sample) in chunk.chunks_mut(cin * h * w).zip(dy_samples) {
                    let dy_bands = dy_sample.chunks(cout_g * owh);
                    let filters = weight.data().chunks(cout_g * patch);
                    let dx_bands = dx_sample.chunks_mut(cin_g * h * w);
                    for ((dx_band, dy_band), filter) in dx_bands.zip(dy_bands).zip(filters) {
                        let wmat_t = Mat::rows(filter, patch).t(); // (patch, cout_g)
                        let dy_mat = Mat::rows(dy_band, owh);
                        if g.pointwise() {
                            // `dx_band` is zero: `0 + v` is what `col2im` wrote.
                            gemm(patch, owh, cout_g, wmat_t, dy_mat, dx_band, true);
                        } else {
                            gemm(patch, owh, cout_g, wmat_t, dy_mat, dcols, false);
                            g.col2im(dcols, dx_band);
                        }
                    }
                }
            });
        },
    );
    Tensor::from_vec(dx, &[n, cin, h, w])
}

/// Gradient of the convolution with respect to its weights (and bias).
///
/// Returns `(dw, db)` with `dw (Cout, Cin / groups, kh, kw)` and
/// `db (Cout,)`. These are the *true gradients* that ADA-GP's predictor is
/// trained to imitate.
///
/// # Panics
///
/// Panics on rank mismatch, inconsistent spatial sizes, a zero stride, or
/// if `groups` is zero or does not divide both channel counts.
pub fn conv2d_backward_weight(
    input: &Tensor,
    dy: &Tensor,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
) -> (Tensor, Tensor) {
    assert_eq!(
        input.ndim(),
        4,
        "conv2d_backward_weight: input must be rank-4"
    );
    assert_eq!(dy.ndim(), 4, "conv2d_backward_weight: dy must be rank-4");
    let (n, cin, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (n2, cout, ho, wo) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    assert_eq!(n, n2, "conv2d_backward_weight: batch mismatch");
    let g = Geometry::new("conv2d_backward_weight", p, (cin, h, w), (cout, kh, kw));
    assert_eq!(
        (ho, wo),
        (g.ho, g.wo),
        "conv2d_backward_weight: Ho x Wo mismatch"
    );
    let (cin_g, cout_g, patch, owh) = (g.cin_g(), g.cout_g(), g.patch(), g.owh());

    let mut dw = vec![0.0f32; cout * patch];
    let mut db = vec![0.0f32; cout];

    // dw = 0 + s_0 + s_1 + ..., samples ascending, where s_i is sample i's
    // dy_band (cout_g, owh) . cols^T (owh, patch) summed from zero.
    if g.depthwise() {
        let groups = cout.div_ceil(LANES);
        par::row_blocks_by(
            g.block_rows(groups),
            &mut dw,
            groups,
            LANES * patch,
            n * cout * patch * owh,
            |first, dw| {
                let (x, dy) = (input.data(), dy.data());
                scratch::with(g.stencil_len(), |buf| {
                    g.stencil_backward_weight(x, dy, first, dw, buf)
                });
            },
        );
    } else {
        let (x_len, dy_len, s_len) = (cin * h * w, cout * owh, cout * patch);
        scratch::with(n.min(WAVE) * s_len, |sums| {
            let waves = input.data().chunks(WAVE * x_len);
            for (x_wave, dy_wave) in waves.zip(dy.data().chunks(WAVE * dy_len)) {
                let wave = x_wave.len() / x_len;
                let sums = &mut sums[..wave * s_len];
                par::row_blocks(sums, wave, s_len, wave * s_len * owh, |first, block| {
                    let samples = x_wave.chunks(x_len).zip(dy_wave.chunks(dy_len)).skip(first);
                    scratch::with(owh * patch, |cols_t| {
                        // Each sample's products `s (Cout, patch)`, a band at a time.
                        for (s, (sample, dy_sample)) in block.chunks_mut(s_len).zip(samples) {
                            let bands = sample.chunks(cin_g * h * w);
                            let dy_bands = dy_sample.chunks(cout_g * owh);
                            let s_bands = s.chunks_mut(cout_g * patch);
                            for ((band, dy_band), s_band) in bands.zip(dy_bands).zip(s_bands) {
                                g.im2col(band, cols_t, (1, patch));
                                let (dy_mat, b) =
                                    (Mat::rows(dy_band, owh), Mat::rows(cols_t, patch));
                                gemm(cout_g, patch, owh, dy_mat, b, s_band, false);
                            }
                        }
                    });
                });
                for s in sums.chunks(s_len) {
                    dw.iter_mut().zip(s).for_each(|(v, &x)| *v += x);
                }
            }
        });
    }
    for dy_sample in dy.data().chunks(cout * owh) {
        for (dbv, dyrow) in db.iter_mut().zip(dy_sample.chunks(owh)) {
            *dbv += dyrow.iter().sum::<f32>();
        }
    }
    (
        Tensor::from_vec(dw, &[cout, cin_g, kh, kw]),
        Tensor::from_vec(db, &[cout]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Prng};

    /// The element-by-element `im2col` the row-wise one replaced: the
    /// reference it is held to byte for byte.
    fn im2col_reference(
        data: &[f32],
        (c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        p: &Conv2dParams,
        cols: &mut [f32],
        (rs, os): (usize, usize),
    ) {
        let (ho, wo) = (p.out_size(h, kh), p.out_size(w, kw));
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    for oy in 0..ho {
                        let iy = (oy * p.stride + ki) as isize - p.padding as isize;
                        for ox in 0..wo {
                            let ix = (ox * p.stride + kj) as isize - p.padding as isize;
                            let inside =
                                iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                            cols[row * rs + (oy * wo + ox) * os] = if inside {
                                data[(ci * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// The element-by-element `col2im` the row-wise one replaced.
    fn col2im_reference(
        cols: &[f32],
        (c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        p: &Conv2dParams,
        out: &mut [f32],
    ) {
        let (ho, wo) = (p.out_size(h, kh), p.out_size(w, kw));
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let in_base = ((ci * kh + ki) * kw + kj) * ho * wo;
                    for oy in 0..ho {
                        let iy = (oy * p.stride + ki) as isize - p.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * p.stride + kj) as isize - p.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            out[(ci * h + iy as usize) * w + ix as usize] +=
                                cols[in_base + oy * wo + ox];
                        }
                    }
                }
            }
        }
    }

    /// The row-wise lowering writes the element-wise reference's bytes:
    /// strides 1 and 2, padding 0-2, windows 1, 2, 3 and 5 (and 3×1, 1×3),
    /// planes of 1-9 rows by 1-9 columns (so windows that overhang one side
    /// only), both `im2col` layouts over stale contents, and `col2im` into
    /// an image that already holds values, with a NaN planted in its input.
    #[test]
    fn row_wise_lowering_matches_the_element_wise_reference() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Prng::seed_from_u64(0x10_4e);
        let windows = [(1, 1), (2, 2), (3, 3), (5, 5), (3, 1), (1, 3)];
        let mut checked = 0;
        for stride in [1, 2] {
            for padding in [0, 1, 2] {
                let p = Conv2dParams::new(stride, padding);
                for (kh, kw) in windows {
                    for h in 1..=9 {
                        for w in 1..=9 {
                            if h + 2 * padding < kh || w + 2 * padding < kw {
                                continue;
                            }
                            let c = 2;
                            let g = Geometry::new("lowering", &p, (c, h, w), (c, kh, kw));
                            let mut x = init::gaussian(&[c * h * w], 0.0, 1.0, &mut rng);
                            x.data_mut()[0] = f32::NAN;
                            let len = c * kh * kw * p.out_size(h, kh) * p.out_size(w, kw);
                            let owh = len / (c * kh * kw);
                            for layout in [(owh, 1), (1, c * kh * kw)] {
                                let stale = init::gaussian(&[len], 0.0, 1.0, &mut rng);
                                let (mut got, mut want) = (stale.clone(), stale);
                                let (x, dims) = (x.data(), (c, h, w));
                                g.im2col(x, got.data_mut(), layout);
                                im2col_reference(x, dims, (kh, kw), &p, want.data_mut(), layout);
                                let label = format!("im2col {h}x{w} k{kh}x{kw} {p:?} {layout:?}");
                                assert_eq!(bits(got.data()), bits(want.data()), "{label}");
                            }
                            let cols = init::gaussian(&[len], 0.0, 1.0, &mut rng);
                            let image = init::gaussian(&[c * h * w], 0.0, 1.0, &mut rng);
                            let (mut got, mut want) = (image.clone(), image);
                            g.col2im(cols.data(), got.data_mut());
                            col2im_reference(cols.data(), (c, h, w), (kh, kw), &p, want.data_mut());
                            let label = format!("col2im {h}x{w} k{kh}x{kw} {p:?}");
                            assert_eq!(bits(got.data()), bits(want.data()), "{label}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 1500, "{checked} shapes checked");
    }

    #[test]
    fn out_size_formula() {
        let p = Conv2dParams::new(1, 1);
        assert_eq!(p.out_size(28, 3), 28);
        let p = Conv2dParams::new(2, 1);
        assert_eq!(p.out_size(28, 3), 14);
        let p = Conv2dParams::new(1, 0);
        assert_eq!(p.out_size(5, 3), 3);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel of value 1 is identity.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, &Conv2dParams::default());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, &Conv2dParams::default());
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn padding_zero_borders() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
        // Corners see a 2x2 window of ones.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv2d(&x, &w, Some(&b), &Conv2dParams::default());
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn multi_channel_multi_batch_shapes() {
        let mut rng = Prng::seed_from_u64(0);
        let x = init::gaussian(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[5, 3, 3, 3], 0.0, 1.0, &mut rng);
        let y = conv2d(&x, &w, None, &Conv2dParams::new(2, 1));
        assert_eq!(y.shape(), &[2, 5, 4, 4]);
    }

    /// Numerical gradient check of both backward kernels.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Prng::seed_from_u64(11);
        let p = Conv2dParams::new(1, 1);
        let x = init::gaussian(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let dy = Tensor::ones(&[1, 3, 4, 4]);

        let dx = conv2d_backward_data(&dy, &w, 4, 4, &p);
        let (dw, db) = conv2d_backward_weight(&x, &dy, 3, 3, &p);

        let f = |x: &Tensor, w: &Tensor| conv2d(x, w, None, &p).sum();
        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        for i in (0..w.len()).step_by(7) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[i]).abs() < 5e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
        // Bias gradient for sum-loss is simply the output element count per channel.
        assert!(db.data().iter().all(|&v| (v - 16.0).abs() < 1e-4));
    }

    /// `out_size` saturates: unchecked, a 3x3 kernel on an unpadded 2x2 input
    /// "has" a 1x1 output that `im2col` zero-fills into a partial sum.
    #[test]
    #[should_panic(expected = "conv2d: a 3x3 kernel does not fit a 2x2 input padded by 0")]
    fn forward_rejects_a_kernel_larger_than_the_input() {
        let (x, w) = (Tensor::ones(&[1, 1, 2, 2]), Tensor::ones(&[1, 1, 3, 3]));
        conv2d(&x, &w, None, &Conv2dParams::default());
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_data: a 3x3 kernel does not fit a 2x2 input")]
    fn backward_data_rejects_a_kernel_larger_than_the_input() {
        let (dy, w) = (Tensor::ones(&[1, 1, 1, 1]), Tensor::ones(&[1, 1, 3, 3]));
        conv2d_backward_data(&dy, &w, 2, 2, &Conv2dParams::default());
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_weight: a 3x3 kernel does not fit a 2x2 input")]
    fn backward_weight_rejects_a_kernel_larger_than_the_input() {
        let (x, dy) = (Tensor::ones(&[1, 1, 2, 2]), Tensor::ones(&[1, 1, 1, 1]));
        conv2d_backward_weight(&x, &dy, 3, 3, &Conv2dParams::default());
    }

    /// `Conv2dParams`'s fields are public, so a zero stride can skip
    /// `Conv2dParams::new`; unchecked, `out_size` divides by it.
    const STRIDE_0: Conv2dParams = Conv2dParams {
        stride: 0,
        padding: 0,
        groups: 1,
    };

    #[test]
    #[should_panic(expected = "conv2d: stride must be positive")]
    fn forward_rejects_a_zero_stride() {
        conv2d(
            &Tensor::ones(&[1, 1, 3, 3]),
            &Tensor::ones(&[1, 1, 3, 3]),
            None,
            &STRIDE_0,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_data: stride must be positive")]
    fn backward_data_rejects_a_zero_stride() {
        conv2d_backward_data(
            &Tensor::ones(&[1, 1, 1, 1]),
            &Tensor::ones(&[1, 1, 3, 3]),
            3,
            3,
            &STRIDE_0,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_weight: stride must be positive")]
    fn backward_weight_rejects_a_zero_stride() {
        conv2d_backward_weight(
            &Tensor::ones(&[1, 1, 3, 3]),
            &Tensor::ones(&[1, 1, 1, 1]),
            3,
            3,
            &STRIDE_0,
        );
    }

    #[test]
    fn padding_makes_the_kernel_fit() {
        let (x, w) = (Tensor::ones(&[1, 1, 2, 2]), Tensor::ones(&[1, 1, 3, 3]));
        let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
        assert_eq!(y.data(), &[4.0; 4]);
    }

    #[test]
    fn two_groups_are_two_convolutions() {
        // Group 0 doubles channel 0, group 1 sums channels 2 and 3.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4, 1, 1]);
        let w = Tensor::from_vec(vec![2.0, 0.0, 1.0, 1.0], &[2, 2, 1, 1]);
        let p = Conv2dParams::default().grouped(2);
        assert_eq!(conv2d(&x, &w, None, &p).data(), &[2.0, 7.0]);
        let dy = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]);
        let dx = conv2d_backward_data(&dy, &w, 1, 1, &p);
        assert_eq!(dx.data(), &[2.0, 0.0, 10.0, 10.0]);
        let (dw, db) = conv2d_backward_weight(&x, &dy, 1, 1, &p);
        assert_eq!(dw.shape(), &[2, 2, 1, 1]);
        assert_eq!(dw.data(), &[1.0, 2.0, 30.0, 40.0]);
        assert_eq!(db.data(), &[1.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "conv2d: groups must be positive")]
    fn zero_groups_panics() {
        let (x, w) = (Tensor::ones(&[1, 2, 3, 3]), Tensor::ones(&[2, 2, 3, 3]));
        conv2d(&x, &w, None, &Conv2dParams::new(1, 1).grouped(0));
    }

    #[test]
    #[should_panic(expected = "conv2d: channel mismatch")]
    fn grouped_weight_must_hold_one_band_of_input_channels() {
        // Two groups over four channels read two each; the weight offers four.
        let (x, w) = (Tensor::ones(&[1, 4, 3, 3]), Tensor::ones(&[2, 4, 3, 3]));
        conv2d(&x, &w, None, &Conv2dParams::new(1, 1).grouped(2));
    }

    #[test]
    #[should_panic(expected = "conv2d: 4 input and 3 output channels do not split into 2 groups")]
    fn groups_must_divide_the_output_channels() {
        let (x, w) = (Tensor::ones(&[1, 4, 3, 3]), Tensor::ones(&[3, 2, 3, 3]));
        conv2d(&x, &w, None, &Conv2dParams::new(1, 1).grouped(2));
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_data: 4 input and 3 output channels do not split")]
    fn backward_data_groups_must_divide_the_output_channels() {
        let (dy, w) = (Tensor::ones(&[1, 3, 3, 3]), Tensor::ones(&[3, 2, 3, 3]));
        conv2d_backward_data(&dy, &w, 3, 3, &Conv2dParams::new(1, 1).grouped(2));
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_weight: 3 input and 2 output channels do not split")]
    fn backward_weight_groups_must_divide_the_input_channels() {
        let (x, dy) = (Tensor::ones(&[1, 3, 3, 3]), Tensor::ones(&[1, 2, 3, 3]));
        conv2d_backward_weight(&x, &dy, 3, 3, &Conv2dParams::new(1, 1).grouped(2));
    }

    #[test]
    fn stride_2_backward_shapes() {
        let p = Conv2dParams::new(2, 1);
        let dy = Tensor::ones(&[2, 4, 4, 4]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let dx = conv2d_backward_data(&dy, &w, 8, 8, &p);
        assert_eq!(dx.shape(), &[2, 3, 8, 8]);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let (dw, db) = conv2d_backward_weight(&x, &dy, 3, 3, &p);
        assert_eq!(dw.shape(), &[4, 3, 3, 3]);
        assert_eq!(db.shape(), &[4]);
    }
}
