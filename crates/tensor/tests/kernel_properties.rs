//! Property-based tests of the tensor kernels: linearity, adjointness and
//! conservation laws that must hold for any shapes.
//!
//! The build environment is offline, so instead of proptest these are
//! seeded randomized sweeps driven by the crate's own [`Prng`]: each
//! property runs across `CASES` pseudo-random configurations drawn from the
//! same ranges the original proptest strategies used.

use adagp_runtime::with_threads;
use adagp_tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weight, Conv2dParams};
use adagp_tensor::gemm::{gemm, Mat, MR, NR};
use adagp_tensor::norm::{batchnorm2d_backward, batchnorm2d_forward};
use adagp_tensor::pool::{avgpool2d, avgpool2d_backward, global_avgpool, maxpool2d};
use adagp_tensor::softmax::{cross_entropy, log_softmax, relu, relu_backward};
use adagp_tensor::{init, Prng, Tensor};
use std::ops::Range;

const CASES: u64 = 48;

/// Uniform draw from `lo..hi` (half-open, like a proptest range strategy).
fn draw(rng: &mut Prng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Runs `body` for `CASES` seeded cases.
fn cases(mut body: impl FnMut(&mut Prng)) {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x7e45_0000 + case);
        body(&mut rng);
    }
}

/// Convolution is linear in its input: conv(ax) = a·conv(x).
#[test]
fn conv_linear_in_input() {
    cases(|rng| {
        let a = rng.uniform_range(0.1, 8.0);
        let x = init::gaussian(&[1, 2, 6, 6], 0.0, 1.0, rng);
        let w = init::gaussian(&[3, 2, 3, 3], 0.0, 0.5, rng);
        let p = Conv2dParams::new(1, 1);
        let y1 = conv2d(&x.scale(a), &w, None, &p);
        let y2 = conv2d(&x, &w, None, &p).scale(a);
        assert!(y1.allclose(&y2, 1e-3 * a.max(1.0)));
    });
}

/// Convolution data-backward is the adjoint of the forward map:
/// <conv(x), y> == <x, conv_bw(y)> for any x, y.
#[test]
fn conv_backward_is_adjoint() {
    cases(|rng| {
        let x = init::gaussian(&[1, 2, 5, 5], 0.0, 1.0, rng);
        let w = init::gaussian(&[3, 2, 3, 3], 0.0, 0.5, rng);
        let p = Conv2dParams::new(1, 1);
        let y = init::gaussian(&[1, 3, 5, 5], 0.0, 1.0, rng);
        let fwd = conv2d(&x, &w, None, &p);
        let bwd = conv2d_backward_data(&y, &w, 5, 5, &p);
        let lhs: f32 = fwd.mul(&y).sum();
        let rhs: f32 = x.mul(&bwd).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    });
}

/// Average pooling preserves the mean of the tensor (for exact tiling).
#[test]
fn avgpool_preserves_mean() {
    cases(|rng| {
        let x = init::gaussian(&[2, 3, 8, 8], 0.0, 2.0, rng);
        let y = avgpool2d(&x, 2, 2);
        assert!((x.mean() - y.mean()).abs() < 1e-4);
    });
}

/// Avg-pool backward conserves total gradient mass.
#[test]
fn avgpool_backward_conserves_mass() {
    cases(|rng| {
        let dy = init::gaussian(&[1, 2, 4, 4], 0.0, 1.0, rng);
        let dx = avgpool2d_backward(&dy, &[1, 2, 8, 8], 2, 2);
        assert!((dx.sum() - dy.sum()).abs() < 1e-3);
    });
}

/// Max-pool output dominates avg-pool output elementwise.
#[test]
fn maxpool_dominates_avgpool() {
    cases(|rng| {
        let x = init::gaussian(&[1, 2, 8, 8], 0.0, 1.0, rng);
        let mx = maxpool2d(&x, 2, 2).output;
        let av = avgpool2d(&x, 2, 2);
        for (m, a) in mx.data().iter().zip(av.data().iter()) {
            assert!(m >= a);
        }
    });
}

/// Global average pooling equals the per-channel mean.
#[test]
fn gap_equals_channel_mean() {
    cases(|rng| {
        let x = init::gaussian(&[1, 1, 6, 6], 0.0, 1.0, rng);
        let y = global_avgpool(&x);
        assert!((y.data()[0] - x.mean()).abs() < 1e-5);
    });
}

/// Log-softmax is shift invariant: adding a constant to every logit leaves
/// it unchanged.
#[test]
fn log_softmax_shift_invariant() {
    cases(|rng| {
        let shift = rng.uniform_range(-50.0, 50.0);
        let l = init::gaussian(&[2, 5], 0.0, 2.0, rng);
        let a = log_softmax(&l);
        let b = log_softmax(&l.map(|v| v + shift));
        assert!(a.allclose(&b, 1e-3));
    });
}

/// Cross-entropy gradient rows sum to zero (softmax minus one-hot).
#[test]
fn cross_entropy_grad_rows_sum_zero() {
    cases(|rng| {
        let t = draw(rng, 0, 4);
        let l = init::gaussian(&[1, 4], 0.0, 2.0, rng);
        let (_, g) = cross_entropy(&l, &[t]);
        assert!(g.sum().abs() < 1e-5);
    });
}

/// ReLU backward never increases gradient magnitude.
#[test]
fn relu_backward_contracts() {
    cases(|rng| {
        let x = init::gaussian(&[32], 0.0, 1.0, rng);
        let dy = init::gaussian(&[32], 0.0, 1.0, rng);
        let dx = relu_backward(&x, &dy);
        assert!(dx.norm() <= dy.norm() + 1e-6);
        // And forward output is non-negative.
        assert!(relu(&x).min() >= 0.0);
    });
}

/// matmul distributes over addition: (A+B)C = AC + BC.
#[test]
fn matmul_distributes() {
    cases(|rng| {
        let a = init::gaussian(&[4, 3], 0.0, 1.0, rng);
        let b = init::gaussian(&[4, 3], 0.0, 1.0, rng);
        let c = init::gaussian(&[3, 5], 0.0, 1.0, rng);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        assert!(lhs.allclose(&rhs, 1e-3));
    });
}

/// Tensor reshape preserves the sum.
#[test]
fn reshape_preserves_sum() {
    cases(|rng| {
        let rows = draw(rng, 1, 8);
        let cols = draw(rng, 1, 8);
        let t = init::gaussian(&[rows * cols], 0.0, 1.0, rng);
        let r = t.reshape(&[rows, cols]);
        assert!((t.sum() - r.sum()).abs() < 1e-5);
    });
}

/// Deterministic sanity outside the randomized sweeps: conv with zero
/// weights is zero.
#[test]
fn conv_zero_weights_zero_output() {
    let x = Tensor::ones(&[1, 2, 4, 4]);
    let w = Tensor::zeros(&[3, 2, 3, 3]);
    let y = conv2d(&x, &w, None, &Conv2dParams::new(1, 1));
    assert_eq!(y.norm(), 0.0);
}

// ---------------------------------------------------------------------------
// Thread-count invariance: every parallel kernel must be *bit-identical* to
// the scalar reference (`ADAGP_THREADS=1` runs the kernels inline) for every
// pool size. The shapes are chosen large enough to clear the kernels'
// serial-dispatch thresholds, so the parallel paths genuinely execute.
// ---------------------------------------------------------------------------

/// Thread counts swept against the scalar reference. 7 is deliberately odd
/// and coprime with typical chunk counts to shake out boundary bugs.
const SWEEP_THREADS: [usize; 3] = [2, 4, 7];

/// Asserts `kernel` produces byte-identical tensors for 1, 2, 4 and 7
/// threads.
fn assert_thread_invariant(label: &str, kernel: impl Fn() -> Vec<Tensor>) {
    let reference = with_threads(1, &kernel);
    for threads in SWEEP_THREADS {
        let got = with_threads(threads, &kernel);
        assert_eq!(reference.len(), got.len(), "{label}: output arity");
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                a.shape(),
                b.shape(),
                "{label}[{i}] shape, threads={threads}"
            );
            assert!(
                a.data() == b.data(),
                "{label}[{i}] diverged from scalar reference at threads={threads}"
            );
        }
    }
}

#[test]
fn conv2d_forward_thread_invariant() {
    cases(|rng| {
        let n = draw(rng, 1, 5);
        let cin = draw(rng, 1, 5);
        let cout = draw(rng, 2, 9);
        let size = draw(rng, 6, 13);
        let x = init::gaussian(&[n, cin, size, size], 0.0, 1.0, rng);
        let w = init::gaussian(&[cout, cin, 3, 3], 0.0, 0.5, rng);
        let b = init::gaussian(&[cout], 0.0, 0.5, rng);
        let p = Conv2dParams::new(1 + draw(rng, 0, 2), 1);
        assert_thread_invariant("conv2d", || vec![conv2d(&x, &w, Some(&b), &p)]);
    });
}

#[test]
fn conv2d_backward_thread_invariant() {
    cases(|rng| {
        let n = draw(rng, 2, 5);
        let cin = draw(rng, 1, 4);
        let cout = draw(rng, 2, 7);
        let size = draw(rng, 6, 11);
        let p = Conv2dParams::new(1, 1);
        let x = init::gaussian(&[n, cin, size, size], 0.0, 1.0, rng);
        let dy = init::gaussian(&[n, cout, size, size], 0.0, 1.0, rng);
        let w = init::gaussian(&[cout, cin, 3, 3], 0.0, 0.5, rng);
        assert_thread_invariant("conv2d_backward", || {
            let dx = conv2d_backward_data(&dy, &w, size, size, &p);
            let (dw, db) = conv2d_backward_weight(&x, &dy, 3, 3, &p);
            vec![dx, dw, db]
        });
    });
}

#[test]
fn matmul_family_thread_invariant() {
    cases(|rng| {
        let m = draw(rng, 2, 70);
        let k = draw(rng, 1, 48);
        let n = draw(rng, 1, 48);
        let a = init::gaussian(&[m, k], 0.0, 1.0, rng);
        let b = init::gaussian(&[k, n], 0.0, 1.0, rng);
        let at = init::gaussian(&[k, m], 0.0, 1.0, rng);
        let bt = init::gaussian(&[n, k], 0.0, 1.0, rng);
        assert_thread_invariant("matmul_family", || {
            vec![a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)]
        });
    });
}

#[test]
fn batchnorm_forward_thread_invariant() {
    cases(|rng| {
        let n = draw(rng, 2, 7);
        let c = draw(rng, 2, 9);
        let size = draw(rng, 4, 13);
        let x = init::gaussian(&[n, c, size, size], 1.0, 2.0, rng);
        let gamma = init::uniform(&[c], 0.5, 1.5, rng);
        let beta = init::uniform(&[c], -0.5, 0.5, rng);
        assert_thread_invariant("batchnorm2d_forward", || {
            let (y, cache, mean, var) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
            vec![
                y,
                cache.x_hat,
                Tensor::from_vec(cache.std, &[c]),
                Tensor::from_vec(mean, &[c]),
                Tensor::from_vec(var, &[c]),
            ]
        });
    });
}

#[test]
fn batchnorm_backward_thread_invariant() {
    cases(|rng| {
        let n = draw(rng, 2, 7);
        let c = draw(rng, 2, 19);
        let size = draw(rng, 4, 13);
        let x = init::gaussian(&[n, c, size, size], 1.0, 2.0, rng);
        let gamma = init::uniform(&[c], 0.5, 1.5, rng);
        let beta = init::uniform(&[c], -0.5, 0.5, rng);
        let dy = init::gaussian(&[n, c, size, size], 0.0, 1.0, rng);
        let (_, cache, _, _) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
        assert_thread_invariant("batchnorm2d_backward", || {
            let (dx, dgamma, dbeta) = batchnorm2d_backward(&dy, &cache, &gamma);
            vec![dx, dgamma, dbeta]
        });
    });
}

/// Large-shape spot check at the bench sizes, where chunking covers many
/// row blocks per thread.
#[test]
fn large_shapes_thread_invariant() {
    let mut rng = Prng::seed_from_u64(0xbeef);
    let x = init::gaussian(&[4, 16, 16, 16], 0.0, 1.0, &mut rng);
    let w = init::gaussian(&[32, 16, 3, 3], 0.0, 0.1, &mut rng);
    let p = Conv2dParams::new(1, 1);
    let a = init::gaussian(&[128, 96], 0.0, 1.0, &mut rng);
    let b = init::gaussian(&[96, 128], 0.0, 1.0, &mut rng);
    assert_thread_invariant("large_shapes", || {
        let y = conv2d(&x, &w, None, &p);
        let dx = conv2d_backward_data(&y, &w, 16, 16, &p);
        let (dw, db) = conv2d_backward_weight(&x, &y, 3, 3, &p);
        vec![y, dx, dw, db, a.matmul(&b)]
    });
}

/// Channel band `g` of `groups` of an `(N, C, H, W)` tensor, as its own
/// `(N, C / groups, H, W)` tensor.
fn gather_band(t: &Tensor, g: usize, groups: usize) -> Tensor {
    let (n, c) = (t.dim(0), t.dim(1) / groups);
    let len = c * t.dim(2) * t.dim(3);
    let mut band = Vec::with_capacity(n * len);
    for sample in t.data().chunks(groups * len) {
        band.extend_from_slice(&sample[g * len..(g + 1) * len]);
    }
    Tensor::from_vec(band, &[n, c, t.dim(2), t.dim(3)])
}

/// Writes `band` back as channel band `g` of `groups` of `dst`.
fn scatter_band(dst: &mut Tensor, band: &Tensor, g: usize, groups: usize) {
    let len = band.len() / band.dim(0);
    let samples = dst.data_mut().chunks_mut(groups * len);
    for (sample, src) in samples.zip(band.data().chunks(len)) {
        sample[g * len..(g + 1) * len].copy_from_slice(src);
    }
}

/// Rows `g` of `groups` of a tensor whose first dimension splits evenly.
fn row_band(t: &Tensor, g: usize, groups: usize) -> Tensor {
    let len = t.len() / groups;
    let mut shape = t.shape().to_vec();
    shape[0] /= groups;
    Tensor::from_vec(t.data()[g * len..(g + 1) * len].to_vec(), &shape)
}

/// What `groups` means, spelled with the dense kernels alone (and how a
/// depthwise layer was lowered before the kernels took `groups`): per group,
/// gather the band of every operand into fresh tensors, call the *dense*
/// kernels on it, scatter the results back. Returns `[y, dx, dw, db]`.
fn conv_by_bands(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    dense: &Conv2dParams,
    groups: usize,
) -> Vec<Tensor> {
    let (h, wd, kh, kw) = (x.dim(2), x.dim(3), w.dim(2), w.dim(3));
    let mut y = Tensor::zeros(dy.shape());
    let mut dx = Tensor::zeros(x.shape());
    let (mut dw, mut db) = (Vec::new(), Vec::new());
    for g in 0..groups {
        let (x_g, dy_g) = (gather_band(x, g, groups), gather_band(dy, g, groups));
        let (w_g, bias_g) = (row_band(w, g, groups), row_band(bias, g, groups));
        scatter_band(&mut y, &conv2d(&x_g, &w_g, Some(&bias_g), dense), g, groups);
        let dx_g = conv2d_backward_data(&dy_g, &w_g, h, wd, dense);
        scatter_band(&mut dx, &dx_g, g, groups);
        let (dw_g, db_g) = conv2d_backward_weight(&x_g, &dy_g, kh, kw, dense);
        dw.extend_from_slice(dw_g.data());
        db.extend_from_slice(db_g.data());
    }
    vec![
        y,
        dx,
        Tensor::from_vec(dw, w.shape()),
        Tensor::from_vec(db, bias.shape()),
    ]
}

/// A grouped convolution is, bit for bit, the dense kernels run band by
/// band — forward, data-backward and weight-backward, at 1, 2, 4 and 7
/// threads. Rows with `Cin / groups == 1` take the depthwise stencil while
/// their per-band reference (`groups = 1`, one input channel) takes the
/// lowering, so every stencil branch is checked against `im2col` + `gemm`:
/// padding 0, 1 and 2, `k` 1, 3 and 5, a `kh != kw` kernel, a 2×2 plane
/// under a padded 3×3, odd sizes at stride 2, channel multipliers 2 and 3,
/// and sites large enough for the stencil to run on the pool. The
/// `groups = 1` rows sit on both sides of the parallel-dispatch threshold.
#[test]
fn grouped_conv_matches_dense_kernels_on_each_band() {
    // (n, cin, cout, size, [kh, kw], stride, padding, groups)
    let sites = [
        (8, 8, 8, 16, [3, 3], 2, 1, 8),
        (8, 48, 48, 8, [3, 3], 1, 1, 48),
        (8, 32, 32, 16, [3, 3], 1, 1, 32),
        (8, 16, 48, 12, [3, 3], 2, 1, 16),
        (3, 5, 5, 7, [3, 3], 2, 1, 5),
        (3, 5, 5, 11, [3, 3], 2, 0, 5),
        (2, 4, 4, 7, [3, 3], 1, 0, 4),
        (2, 4, 4, 7, [3, 3], 2, 2, 4),
        (3, 6, 6, 5, [1, 1], 1, 0, 6),
        (2, 3, 3, 6, [1, 1], 2, 1, 3),
        (2, 4, 4, 11, [5, 5], 1, 2, 4),
        (2, 4, 8, 9, [3, 2], 2, 1, 4),
        (2, 3, 3, 2, [3, 3], 1, 1, 3),
        (4, 6, 12, 9, [3, 3], 1, 1, 6),
        (2, 4, 12, 8, [3, 3], 2, 1, 4),
        (2, 4, 8, 6, [3, 3], 1, 1, 4),
        (4, 6, 8, 9, [3, 3], 1, 1, 2),
        (4, 6, 4, 9, [3, 3], 2, 1, 2),
        (4, 16, 16, 12, [3, 3], 1, 1, 2),
        (2, 2, 3, 5, [3, 3], 1, 1, 1),
        (2, 2, 3, 5, [3, 3], 2, 1, 1),
        (4, 8, 16, 12, [3, 3], 1, 1, 1),
        (4, 8, 16, 12, [3, 3], 2, 1, 1),
    ];
    let mut rng = Prng::seed_from_u64(0x96a0);
    for (n, cin, cout, size, [kh, kw], stride, padding, groups) in sites {
        let dense = Conv2dParams::new(stride, padding);
        let (ho, wo) = (dense.out_size(size, kh), dense.out_size(size, kw));
        let x = init::gaussian(&[n, cin, size, size], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[cout, cin / groups, kh, kw], 0.0, 0.5, &mut rng);
        let bias = init::gaussian(&[cout], 0.0, 0.5, &mut rng);
        let dy = init::gaussian(&[n, cout, ho, wo], 0.0, 1.0, &mut rng);
        let label = format!("n{n} {cin}->{cout} @{size} k{kh}x{kw} s{stride} p{padding} g{groups}");
        assert_thread_invariant(&label, || {
            let p = dense.grouped(groups);
            let y = conv2d(&x, &w, Some(&bias), &p);
            let dx = conv2d_backward_data(&dy, &w, size, size, &p);
            let (dw, db) = conv2d_backward_weight(&x, &dy, kh, kw, &p);
            let grouped = vec![y, dx, dw, db];
            let banded = conv_by_bands(&x, &w, &bias, &dy, &dense, groups);
            for (i, (a, b)) in grouped.iter().zip(&banded).enumerate() {
                assert_eq!(a.shape(), b.shape(), "{label}[{i}] shape");
                assert!(
                    same_bits(a.data(), b.data()),
                    "{label}[{i}]: grouped kernel differs from the per-band lowering"
                );
            }
            grouped
        });
    }
}

// ---------------------------------------------------------------------------
// The GEMM core under every product kernel: its order contract, a
// differential check against f64, IEEE propagation, and a cross-commit pin
// of the output bytes.
// ---------------------------------------------------------------------------

/// Sizes around the register tile for `m` and `n` with short `k`, sizes on
/// both sides of the parallel-dispatch threshold (16 Ki multiply-adds), and
/// a seeded draw.
fn gemm_shapes() -> Vec<(usize, usize, usize)> {
    let edges = [1, 2, 3, MR - 1, MR + 1, NR - 1, NR + 1];
    let mut shapes = Vec::new();
    for m in edges {
        for n in edges {
            for k in [0, 1, 2, 5] {
                shapes.push((m, n, k));
            }
        }
    }
    shapes.extend([(33, 17, 29), (33, 17, 30), (64, 40, 48), (130, 24, 19)]);
    let mut rng = Prng::seed_from_u64(0x6e44);
    for _ in 0..24 {
        shapes.push((
            draw(&mut rng, 1, 70),
            draw(&mut rng, 1, 48),
            draw(&mut rng, 0, 48),
        ));
    }
    shapes
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `gemm` equals its documented contract — `p` ascending through one `f32`
/// accumulator — bit for bit: all four operand views × {assign, accumulate},
/// at 1, 2, 4 and 7 threads.
#[test]
fn gemm_matches_scalar_reference_bit_for_bit() {
    let mut rng = Prng::seed_from_u64(0x9e33);
    let cases: Vec<_> = gemm_shapes()
        .into_iter()
        .map(|(m, n, k)| {
            let a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
            let b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
            let c0 = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
            (a, b, c0)
        })
        .collect();
    let reference = |a: &Tensor, b: &Tensor, c: &mut [f32], accumulate: bool| {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                if accumulate {
                    c[i * n + j] += acc;
                } else {
                    c[i * n + j] = acc;
                }
            }
        }
    };
    assert_thread_invariant("gemm", || {
        let mut outputs = Vec::new();
        for (a, b, c0) in &cases {
            let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
            let (at, bt) = (a.transpose2(), b.transpose2());
            for accumulate in [false, true] {
                let mut expected = c0.data().to_vec();
                reference(a, b, &mut expected, accumulate);
                for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                    let av = if ta {
                        Mat::rows(at.data(), m).t()
                    } else {
                        Mat::rows(a.data(), k)
                    };
                    let bv = if tb {
                        Mat::rows(bt.data(), k).t()
                    } else {
                        Mat::rows(b.data(), n)
                    };
                    let mut c = c0.data().to_vec();
                    gemm(m, n, k, av, bv, &mut c, accumulate);
                    assert!(
                        same_bits(&c, &expected),
                        "gemm {m}x{n}x{k} ta={ta} tb={tb} accumulate={accumulate}"
                    );
                    outputs.push(Tensor::from_vec(c, &[m, n]));
                }
            }
        }
        outputs
    });
}

/// NaNs with distinct payloads, planted in `a` and `b`, reach exactly the
/// outputs whose sums read them, and each such output carries the payload of
/// a NaN its sum read (quieted), never another: the direct and the
/// transposed product, every view, assigned and accumulated. Which of two
/// NaNs meeting in one `*` or `+` wins is not fixed: Rust leaves the payload
/// unspecified and LLVM commutes both operations, so the parent's direct
/// product already disagreed with the scalar loop here, and writing an
/// operand order in the source changes no byte of the compiled tile.
#[test]
fn nan_payloads_come_from_the_nans_each_sum_read() {
    let payloads = [0x7fc0_0a0a, 0x7fc0_0b0b, 0x7fc0_0c0c, 0x7fc0_0d0d].map(f32::from_bits);
    let mut rng = Prng::seed_from_u64(0x4a4e);
    for (m, n, k) in [
        (8, 40, 5),
        (4, 17, 3),
        (16, 9, 4),
        (12, 33, 2),
        (3, 20, 6),
        (20, 16, 3),
    ] {
        let mut a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
        let mut b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
        // A column of `a` and a row of `b` at the same `p`, a lone NaN in
        // each, and rows and columns left clean.
        for i in (0..m).step_by(2) {
            a.data_mut()[i * k + 1] = payloads[0];
        }
        for j in (0..n).step_by(3) {
            b.data_mut()[n + j] = payloads[1];
        }
        b.data_mut()[2] = payloads[2];
        a.data_mut()[(m - 1) * k] = payloads[3];
        let c0 = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
        let (at, bt) = (a.transpose2(), b.transpose2());
        for accumulate in [false, true] {
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let av = if ta {
                    Mat::rows(at.data(), m).t()
                } else {
                    Mat::rows(a.data(), k)
                };
                let bv = if tb {
                    Mat::rows(bt.data(), k).t()
                } else {
                    Mat::rows(b.data(), n)
                };
                let mut c = c0.data().to_vec();
                gemm(m, n, k, av, bv, &mut c, accumulate);
                for (i, row) in c.chunks(n).enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        let read: Vec<u32> = (0..k)
                            .flat_map(|p| [a.data()[i * k + p], b.data()[p * n + j]])
                            .filter(|x| x.is_nan())
                            .map(f32::to_bits)
                            .collect();
                        let at = format!("{m}x{n}x{k} ta={ta} tb={tb} acc={accumulate} ({i}, {j})");
                        if read.is_empty() {
                            assert!(!v.is_nan(), "{at}: a NaN from nowhere");
                        } else {
                            assert!(read.contains(&v.to_bits()), "{at}: {:#x}", v.to_bits());
                        }
                    }
                }
            }
        }
    }
}

/// Exact (f64) sums next to their `Σ|aᵢbᵢ|`, one pair per output element.
struct ExactSums {
    sum: Vec<f64>,
    abs: Vec<f64>,
}

impl ExactSums {
    fn new(len: usize) -> Self {
        ExactSums {
            sum: vec![0.0; len],
            abs: vec![0.0; len],
        }
    }

    fn add(&mut self, i: usize, a: f32, b: f32) {
        let term = f64::from(a) * f64::from(b);
        self.sum[i] += term;
        self.abs[i] += term.abs();
    }

    /// The stated bound: an `f32` sum of `terms` products, in any order,
    /// is within `terms · ε · Σ|aᵢbᵢ|` of the exact value (ε = 2⁻²³, twice
    /// the unit roundoff, which covers the product roundings too).
    fn assert_bounds(&self, label: &str, got: &Tensor, terms: usize) {
        assert_eq!(got.len(), self.sum.len(), "{label}: length");
        for (i, &g) in got.data().iter().enumerate() {
            let bound = terms as f64 * f64::from(f32::EPSILON) * self.abs[i];
            let err = (f64::from(g) - self.sum[i]).abs();
            assert!(
                err <= bound,
                "{label}[{i}]: {g} vs exact {} (error {err:e}, bound {bound:e})",
                self.sum[i]
            );
        }
    }
}

/// The three matrix products against a naive f64 reference, over the
/// `gemm` shape sweep.
#[test]
fn matmul_family_within_bound_of_f64_reference() {
    let mut rng = Prng::seed_from_u64(0xd1ff);
    for (m, n, k) in gemm_shapes() {
        let a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
        let b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
        let mut exact = ExactSums::new(m * n);
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    exact.add(i * n + j, a.data()[i * k + p], b.data()[p * n + j]);
                }
            }
        }
        let label = format!("{m}x{n}x{k}");
        exact.assert_bounds(&format!("matmul {label}"), &a.matmul(&b), k);
        exact.assert_bounds(
            &format!("matmul_tn {label}"),
            &a.transpose2().matmul_tn(&b),
            k,
        );
        exact.assert_bounds(
            &format!("matmul_nt {label}"),
            &a.matmul_nt(&b.transpose2()),
            k,
        );
    }
}

/// The three convolution kernels against a direct (no im2col) f64
/// convolution: one walk over the index relation `y[n, co, oy, ox] ∋
/// x[n, ci, iy, ix] · w[co, ci, ki, kj]` yields all three references. Each
/// drawn site runs dense and then at every other group count that divides
/// both of its channel counts.
#[test]
fn conv_kernels_within_bound_of_f64_reference() {
    cases(|rng| {
        let (n, cin, cout) = (draw(rng, 1, 4), draw(rng, 1, 5), draw(rng, 1, 7));
        let (h, w) = (draw(rng, 4, 10), draw(rng, 4, 10));
        let (kh, kw) = (draw(rng, 1, 4), draw(rng, 1, 4));
        let dense = Conv2dParams::new(draw(rng, 1, 3), draw(rng, 0, 2));
        let (ho, wo) = (dense.out_size(h, kh), dense.out_size(w, kw));
        for groups in (1..=cin).filter(|g| cin % g == 0 && cout % g == 0) {
            let p = dense.grouped(groups);
            let (cin_g, cout_g) = (cin / groups, cout / groups);
            let x = init::gaussian(&[n, cin, h, w], 0.0, 1.0, rng);
            let wt = init::gaussian(&[cout, cin_g, kh, kw], 0.0, 0.5, rng);
            let bias = init::gaussian(&[cout], 0.0, 0.5, rng);
            let dy = init::gaussian(&[n, cout, ho, wo], 0.0, 1.0, rng);

            let mut y = ExactSums::new(dy.len());
            let mut dx = ExactSums::new(x.len());
            let mut dw = ExactSums::new(wt.len());
            let mut db = ExactSums::new(cout);
            for ni in 0..n {
                for co in 0..cout {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let yi = ((ni * cout + co) * ho + oy) * wo + ox;
                            y.add(yi, bias.data()[co], 1.0);
                            db.add(co, dy.data()[yi], 1.0);
                            for cg in 0..cin_g {
                                let ci = co / cout_g * cin_g + cg;
                                for ki in 0..kh {
                                    for kj in 0..kw {
                                        let iy = (oy * p.stride + ki).wrapping_sub(p.padding);
                                        let ix = (ox * p.stride + kj).wrapping_sub(p.padding);
                                        if iy >= h || ix >= w {
                                            continue;
                                        }
                                        let xi = ((ni * cin + ci) * h + iy) * w + ix;
                                        let wi = ((co * cin_g + cg) * kh + ki) * kw + kj;
                                        y.add(yi, x.data()[xi], wt.data()[wi]);
                                        dx.add(xi, wt.data()[wi], dy.data()[yi]);
                                        dw.add(wi, x.data()[xi], dy.data()[yi]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let label = format!("n{n} {cin}->{cout} {h}x{w} k{kh}x{kw} {p:?}");
            let got = conv2d(&x, &wt, Some(&bias), &p);
            y.assert_bounds(&format!("conv2d {label}"), &got, cin_g * kh * kw + 1);
            let got = conv2d_backward_data(&dy, &wt, h, w, &p);
            dx.assert_bounds(&format!("bw_data {label}"), &got, cout_g * kh * kw);
            let (got_dw, got_db) = conv2d_backward_weight(&x, &dy, kh, kw, &p);
            dw.assert_bounds(&format!("bw_weight {label}"), &got_dw, n * ho * wo);
            db.assert_bounds(&format!("bw_bias {label}"), &got_db, n * ho * wo);
        }
    });
}

/// IEEE says `0 × NaN = NaN` and `0 × ∞ = NaN`: a non-finite operand
/// reaches the output of every product kernel even when it sits opposite
/// a zero (the four entry points here used to skip zero left operands).
#[test]
fn zero_times_non_finite_reaches_the_output() {
    for bad in [f32::NAN, f32::INFINITY] {
        let zero_one = |shape: &[usize]| Tensor::from_vec(vec![0.0, 1.0], shape);
        let b = Tensor::from_vec(vec![bad, 1.0], &[2, 1]);
        assert!(zero_one(&[1, 2]).matmul(&b).data()[0].is_nan(), "matmul");
        assert!(
            zero_one(&[2, 1]).matmul_tn(&b).data()[0].is_nan(),
            "matmul_tn"
        );
        let bad_pixel = Tensor::from_vec(vec![bad], &[1, 1, 1, 1]);
        let zero_weight = Tensor::zeros(&[1, 1, 1, 1]);
        let p = Conv2dParams::default();
        assert!(
            conv2d(&bad_pixel, &zero_weight, None, &p).data()[0].is_nan(),
            "conv2d"
        );
        assert!(
            conv2d_backward_data(&bad_pixel, &zero_weight, 1, 1, &p).data()[0].is_nan(),
            "conv2d_backward_data"
        );
        // Depthwise: the top-left tap of the first output reads the zero
        // padding, so a non-finite weight there gives NaN, not a skipped term.
        let depthwise = Conv2dParams::new(1, 1).grouped(2);
        let mut w = Tensor::ones(&[2, 1, 3, 3]);
        w.data_mut()[0] = bad;
        let y = conv2d(&Tensor::ones(&[1, 2, 3, 3]), &w, None, &depthwise);
        assert!(y.data()[0].is_nan(), "depthwise conv2d padding");
        // ... and a non-finite `dy` reaches `dw` through a zero input.
        let mut dy = Tensor::zeros(&[1, 2, 3, 3]);
        dy.data_mut()[4] = bad;
        let x = Tensor::zeros(&[1, 2, 3, 3]);
        let (dw, _) = conv2d_backward_weight(&x, &dy, 3, 3, &depthwise);
        assert!(dw.data()[0].is_nan(), "depthwise conv2d_backward_weight");
        // Dense and padded at batch 2: the second sample's non-finite `dy`
        // reaches every tap of its filter through the zero input.
        let mut dy = Tensor::zeros(&[2, 3, 3, 3]);
        dy.data_mut()[27 + 4] = bad;
        let x = Tensor::zeros(&[2, 2, 3, 3]);
        let (dw, _) = conv2d_backward_weight(&x, &dy, 3, 3, &Conv2dParams::new(1, 1));
        assert!(
            dw.data()[..18].iter().all(|v| v.is_nan()),
            "dense conv2d_backward_weight"
        );
        assert!(
            dw.data()[18..].iter().all(|&v| v == 0.0),
            "dense conv2d_backward_weight"
        );
    }
}

/// Asserts that the non-finite elements of `t` lie in the channels of `hit`
/// (indices along dimension `axis`) and that each of those has one.
fn assert_only_channels_non_finite(label: &str, t: &Tensor, axis: usize, hit: Range<usize>) {
    let channels = t.dim(axis);
    let inner: usize = t.shape()[axis + 1..].iter().product();
    let mut non_finite = vec![false; channels];
    for (i, v) in t.data().iter().enumerate() {
        non_finite[(i / inner) % channels] |= !v.is_finite();
    }
    for (ch, &bad) in non_finite.iter().enumerate() {
        assert_eq!(bad, hit.contains(&ch), "{label}: channel {ch}");
    }
}

/// A NaN or an infinity planted in one channel of an input, `dy` or weight
/// reaches that channel's outputs and no other's. Batch-norm and the
/// depthwise stencil run eight channels per instruction; the planted
/// channels sit in a full lane group and in the tail of one.
#[test]
fn a_non_finite_channel_stays_in_its_lane() {
    // In channel `ch` of the last sample of an `(n, c, h, w)` tensor.
    let plant = |t: &Tensor, ch: usize, bad: f32| {
        let mut t = t.clone();
        let plane = t.dim(2) * t.dim(3);
        let at = ((t.dim(0) - 1) * t.dim(1) + ch) * plane + plane / 3;
        t.data_mut()[at] = bad;
        t
    };
    // In the centre tap of filter `f` of a `(f, 1, 3, 3)` weight.
    let plant_filter = |w: &Tensor, f: usize, bad: f32| {
        let mut w = w.clone();
        w.data_mut()[f * 9 + 4] = bad;
        w
    };
    let mut rng = Prng::seed_from_u64(0x1a_7e5);
    for bad in [f32::NAN, f32::INFINITY] {
        for (c, ch) in [(7, 6), (9, 3), (9, 8), (17, 16)] {
            let shape = [2, c, 4, 4];
            let x = init::gaussian(&shape, 0.0, 1.0, &mut rng);
            let gamma = init::uniform(&[c], 0.5, 1.5, &mut rng);
            let beta = init::uniform(&[c], -0.5, 0.5, &mut rng);
            let dy = init::gaussian(&shape, 0.0, 1.0, &mut rng);
            let at = format!("batch-norm C={c} channel {ch} {bad}");
            let (y, cache, mean, var) =
                batchnorm2d_forward(&plant(&x, ch, bad), &gamma, &beta, 1e-5);
            let stats = [y, cache.x_hat, Tensor::from_vec(cache.std, &[c])];
            let stats = stats
                .into_iter()
                .chain([mean, var].map(|v| Tensor::from_vec(v, &[c])));
            for t in stats {
                assert_only_channels_non_finite(
                    &format!("{at} forward"),
                    &t,
                    usize::from(t.ndim() == 4),
                    ch..ch + 1,
                );
            }
            let (_, cache, _, _) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
            let (dx, dgamma, dbeta) = batchnorm2d_backward(&plant(&dy, ch, bad), &cache, &gamma);
            for t in [dx, dgamma, dbeta] {
                assert_only_channels_non_finite(
                    &format!("{at} backward"),
                    &t,
                    usize::from(t.ndim() == 4),
                    ch..ch + 1,
                );
            }

            for (m, stride) in [(1, 1), (1, 2), (2, 1)] {
                let p = Conv2dParams::new(stride, 1).grouped(c);
                let (o, f) = (p.out_size(4, 3), c * m);
                let w = init::gaussian(&[f, 1, 3, 3], 0.0, 0.5, &mut rng);
                let dy = init::gaussian(&[2, f, o, o], 0.0, 1.0, &mut rng);
                let at = format!("depthwise C={c} x{m} s{stride} channel {ch} {bad}");
                let filters = ch * m..(ch + 1) * m;
                let y = conv2d(&plant(&x, ch, bad), &w, None, &p);
                assert_only_channels_non_finite(
                    &format!("{at} forward, x"),
                    &y,
                    1,
                    filters.clone(),
                );
                let y = conv2d(&x, &plant_filter(&w, ch * m, bad), None, &p);
                let first = ch * m..ch * m + 1;
                assert_only_channels_non_finite(&format!("{at} forward, w"), &y, 1, first.clone());
                let dx = conv2d_backward_data(&plant(&dy, ch * m, bad), &w, 4, 4, &p);
                assert_only_channels_non_finite(&format!("{at} data, dy"), &dx, 1, ch..ch + 1);
                let dx = conv2d_backward_data(&dy, &plant_filter(&w, ch * m, bad), 4, 4, &p);
                assert_only_channels_non_finite(&format!("{at} data, w"), &dx, 1, ch..ch + 1);
                let (dw, _) = conv2d_backward_weight(&plant(&x, ch, bad), &dy, 3, 3, &p);
                assert_only_channels_non_finite(&format!("{at} weight, x"), &dw, 0, filters);
                let (dw, _) = conv2d_backward_weight(&x, &plant(&dy, ch * m, bad), 3, 3, &p);
                assert_only_channels_non_finite(&format!("{at} weight, dy"), &dw, 0, first);
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of every tensor, in order.
fn fnv1a(tensors: &[&Tensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in tensors {
        for v in t.data() {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Hash of forward (with bias), data-backward and weight-backward on one
/// seeded convolution site.
fn conv_site_hash(seed: u64, x: [usize; 4], w: [usize; 4], p: Conv2dParams) -> u64 {
    let mut rng = Prng::seed_from_u64(seed);
    let [n, _, h, wd] = x;
    let [cout, _, kh, kw] = w;
    let xs = init::gaussian(&x, 0.0, 1.0, &mut rng);
    let ws = init::gaussian(&w, 0.0, 0.5, &mut rng);
    let bias = init::gaussian(&[cout], 0.0, 0.5, &mut rng);
    let dy = init::gaussian(
        &[n, cout, p.out_size(h, kh), p.out_size(wd, kw)],
        0.0,
        1.0,
        &mut rng,
    );
    let y = conv2d(&xs, &ws, Some(&bias), &p);
    let dx = conv2d_backward_data(&dy, &ws, h, wd, &p);
    let (dw, db) = conv2d_backward_weight(&xs, &dy, kh, kw, &p);
    fnv1a(&[&y, &dx, &dw, &db])
}

/// Cross-commit pin: the output bytes of the six public product kernels on
/// the shapes training runs on. The constants were captured from a build of
/// the commit *before* the kernels moved onto `gemm` (the grouped rows: before
/// the depthwise stencil replaced the lowering; the rows from "batch 1" to
/// "gemm n 16, 24, 37": before `gemm` gained its AVX2 build and
/// weight-backward split its samples over the pool; the depthwise rows at
/// C = 7, 9 and 17: before the stencil ran eight channels per instruction;
/// the rows from "linear" on: before `gemm` packed its operand panels and the
/// lowering moved whole rows) and are identical in the dev and release
/// profiles at 1 and 3 threads (the rows from "linear" on at 2 as well); a
/// kernel change that moves one must say so and re-baseline the training
/// goldens with it (see `gemm`'s module doc).
#[test]
fn product_kernel_bytes_are_pinned() {
    let (s1p1, s2p1) = (Conv2dParams::new(1, 1), Conv2dParams::new(2, 1));
    let mut rng = Prng::seed_from_u64(0x51fe);
    let mut gauss = |shape: &[usize]| init::gaussian(shape, 0.0, 1.0, &mut rng);
    // Linear::backward on a post-ReLU input at batch 8: dx and dW.
    let (sparse, w, dy) = (
        relu(&gauss(&[8, 512])),
        gauss(&[512, 256]),
        gauss(&[8, 256]),
    );
    let (a, b, bt) = (gauss(&[37, 29]), gauss(&[29, 53]), gauss(&[53, 29]));
    // The predictor head at 1024 rows.
    let (rows, head) = (gauss(&[1024, 1152]), gauss(&[128, 1152]));
    let pins: [(&str, u64, u64); 38] = [
        // VGG13 w0.25 on 3x32x32 at batch 8.
        (
            "vgg 3->16 @32",
            conv_site_hash(1, [8, 3, 32, 32], [16, 3, 3, 3], s1p1),
            PINS[0],
        ),
        (
            "vgg 16->32 @16",
            conv_site_hash(2, [8, 16, 16, 16], [32, 16, 3, 3], s1p1),
            PINS[1],
        ),
        (
            "vgg 64->128 @4",
            conv_site_hash(3, [8, 64, 4, 4], [128, 64, 3, 3], s1p1),
            PINS[2],
        ),
        (
            "vgg 128->128 @2",
            conv_site_hash(4, [8, 128, 2, 2], [128, 128, 3, 3], s1p1),
            PINS[3],
        ),
        // MobileNetV2 w0.25 on 3x16x16 at batch 8: 1x1 expand, one
        // channel of a stride-2 depthwise as a dense single-channel call
        // (groups 1, so it takes the lowering, not the depthwise stencil),
        // 1x1 project.
        (
            "mbv2 expand 8->48",
            conv_site_hash(5, [8, 8, 8, 8], [48, 8, 1, 1], Conv2dParams::new(1, 0)),
            PINS[4],
        ),
        (
            "mbv2 depthwise s2",
            conv_site_hash(6, [8, 1, 16, 16], [1, 1, 3, 3], Conv2dParams::new(2, 1)),
            PINS[5],
        ),
        (
            "mbv2 project 48->8",
            conv_site_hash(7, [8, 48, 8, 8], [8, 48, 1, 1], Conv2dParams::new(1, 0)),
            PINS[6],
        ),
        // Strided without padding; non-square input and kernel, padded.
        (
            "strided 4->6 @9",
            conv_site_hash(8, [2, 4, 9, 9], [6, 4, 3, 3], Conv2dParams::new(2, 0)),
            PINS[7],
        ),
        (
            "non-square 2->3",
            conv_site_hash(9, [3, 2, 7, 5], [3, 2, 3, 2], Conv2dParams::new(2, 1)),
            PINS[8],
        ),
        (
            "relu-sparse nn+tn",
            fnv1a(&[&sparse.matmul(&w), &sparse.matmul_tn(&dy)]),
            PINS[9],
        ),
        (
            "odd nn+tn+nt",
            fnv1a(&[
                &a.matmul(&b),
                &a.transpose2().matmul_tn(&b),
                &a.matmul_nt(&bt),
            ]),
            PINS[10],
        ),
        (
            "predictor head nt",
            fnv1a(&[&rows.matmul_nt(&head)]),
            PINS[11],
        ),
        // Grouped calls with one input channel per group (the depthwise
        // stencil): MobileNetV2's depthwise sites at both strides, a channel
        // multiplier, a 5x5 kernel and a kh != kw kernel.
        (
            "mbv2 grouped depthwise s1",
            conv_site_hash(10, [8, 48, 16, 16], [48, 1, 3, 3], s1p1.grouped(48)),
            PINS[12],
        ),
        (
            "mbv2 grouped depthwise s2",
            conv_site_hash(
                11,
                [8, 48, 16, 16],
                [48, 1, 3, 3],
                Conv2dParams::new(2, 1).grouped(48),
            ),
            PINS[13],
        ),
        (
            "depthwise multiplier 2",
            conv_site_hash(12, [4, 6, 9, 9], [12, 1, 3, 3], s1p1.grouped(6)),
            PINS[14],
        ),
        (
            "depthwise 5x5 pad 2",
            conv_site_hash(
                13,
                [2, 8, 11, 11],
                [8, 1, 5, 5],
                Conv2dParams::new(1, 2).grouped(8),
            ),
            PINS[15],
        ),
        (
            "depthwise 3x2 s2",
            conv_site_hash(
                14,
                [3, 4, 7, 6],
                [8, 1, 3, 2],
                Conv2dParams::new(2, 1).grouped(4),
            ),
            PINS[16],
        ),
        // The lowering at batch 1 and at batch 33, above `MAX_CHUNKS`, so
        // a pool block holds several samples.
        (
            "vgg 16->32 @16 batch 1",
            conv_site_hash(15, [1, 16, 16, 16], [32, 16, 3, 3], s1p1),
            PINS[17],
        ),
        (
            "vgg 16->32 @8 batch 33",
            conv_site_hash(16, [33, 16, 8, 8], [32, 16, 3, 3], s1p1),
            PINS[18],
        ),
        (
            "mbv2 expand 8->48 batch 33",
            conv_site_hash(17, [33, 8, 4, 4], [48, 8, 1, 1], Conv2dParams::new(1, 0)),
            PINS[19],
        ),
        // A dense grouped call: four input channels per group.
        (
            "grouped 8->6 in 2 groups",
            conv_site_hash(18, [3, 8, 7, 7], [6, 4, 3, 3], s1p1.grouped(2)),
            PINS[20],
        ),
        (
            "1x1 s2 8->12",
            conv_site_hash(19, [4, 8, 9, 9], [12, 8, 1, 1], Conv2dParams::new(2, 0)),
            PINS[21],
        ),
        // The predictor's conv stage: 256 pooled rows of 1x4x4 -> 8.
        (
            "predictor conv 256 rows",
            conv_site_hash(20, [256, 1, 4, 4], [8, 1, 3, 3], s1p1),
            PINS[22],
        ),
        // `gemm` at widths that take the 16-wide tile and each tail.
        ("gemm n 16, 24, 37", gemm_widths_hash(), PINS[23]),
        // The depthwise stencil at channel counts around a lane group of
        // eight, at both strides, and a channel multiplier over a tail.
        (
            "depthwise C=7 s1",
            conv_site_hash(21, [4, 7, 9, 9], [7, 1, 3, 3], s1p1.grouped(7)),
            PINS[24],
        ),
        (
            "depthwise C=7 s2",
            conv_site_hash(22, [4, 7, 9, 9], [7, 1, 3, 3], s2p1.grouped(7)),
            PINS[25],
        ),
        (
            "depthwise C=9 s1",
            conv_site_hash(23, [4, 9, 9, 9], [9, 1, 3, 3], s1p1.grouped(9)),
            PINS[26],
        ),
        (
            "depthwise C=9 s2",
            conv_site_hash(24, [4, 9, 9, 9], [9, 1, 3, 3], s2p1.grouped(9)),
            PINS[27],
        ),
        (
            "depthwise C=17 s1",
            conv_site_hash(25, [4, 17, 9, 9], [17, 1, 3, 3], s1p1.grouped(17)),
            PINS[28],
        ),
        (
            "depthwise C=17 s2",
            conv_site_hash(26, [4, 17, 9, 9], [17, 1, 3, 3], s2p1.grouped(17)),
            PINS[29],
        ),
        (
            "depthwise C=9 multiplier 2",
            conv_site_hash(27, [3, 9, 8, 8], [18, 1, 3, 3], s1p1.grouped(9)),
            PINS[30],
        ),
        // `Linear` at batch 8 (VGG13 w0.25's fc1 and fc2) and the predictor's
        // FC at its few-row, per-site and 1024-row calls: forward `x · Wᵀ`,
        // data-backward `dy · W` and weight-backward `dyᵀ · x` accumulated.
        ("linear 8x1024x512", linear_hash(31, 8, 1024, 512), PINS[31]),
        ("linear 8x10x1024", linear_hash(32, 8, 10, 1024), PINS[32]),
        (
            "predictor fc 128x1152x128",
            linear_hash(33, 128, 1152, 128),
            PINS[33],
        ),
        (
            "predictor fc 10x1024x128",
            linear_hash(34, 10, 1024, 128),
            PINS[34],
        ),
        (
            "predictor fc 1024x512x128",
            linear_hash(35, 1024, 512, 128),
            PINS[35],
        ),
        // Strips of 1-5 rows, `k` = 0 and 1, column bands and a row stride
        // below `n`.
        ("gemm strips, short k, bands", gemm_edges_hash(), PINS[36]),
        // The lowering: strides 1 and 2, padding 0-2, planes 1x1 to 32x32.
        ("conv planes", conv_planes_hash(), PINS[37]),
    ];
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(label, got, _)| format!("{label}: {got:#018x}"))
        .collect();
    assert!(moved.is_empty(), "output bytes moved: {moved:#?}");
}

/// Hash of `gemm` at `n` = 16, 24 and 37: plain and transposed views of
/// both operands, assigned and accumulated.
fn gemm_widths_hash() -> u64 {
    let mut rng = Prng::seed_from_u64(0x16_24_37);
    let (m, k) = (11, 29);
    let mut outputs = Vec::new();
    for n in [16, 24, 37] {
        let a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
        let b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
        let (at, bt) = (a.transpose2(), b.transpose2());
        let mut c = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
        for accumulate in [false, true] {
            let views = [
                (Mat::rows(a.data(), k), Mat::rows(b.data(), n)),
                (Mat::rows(at.data(), m).t(), Mat::rows(bt.data(), k).t()),
            ];
            for (av, bv) in views {
                gemm(m, n, k, av, bv, c.data_mut(), accumulate);
                outputs.push(c.clone());
            }
        }
    }
    fnv1a(&outputs.iter().collect::<Vec<_>>())
}

/// Hash of a `Linear` layer's three products at batch `m`, `n` outputs
/// and `k` inputs: `y = x · Wᵀ`, `dx = dy · W` and `dW += dyᵀ · x`.
fn linear_hash(seed: u64, m: usize, n: usize, k: usize) -> u64 {
    let mut rng = Prng::seed_from_u64(seed);
    let x = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
    let w = init::gaussian(&[n, k], 0.0, 0.5, &mut rng);
    let dy = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
    let mut dw = init::gaussian(&[n, k], 0.0, 0.1, &mut rng);
    let y = x.matmul_nt(&w);
    let dx = dy.matmul(&w);
    gemm(
        n,
        k,
        m,
        Mat::rows(dy.data(), n).t(),
        Mat::rows(x.data(), k),
        dw.data_mut(),
        true,
    );
    fnv1a(&[&y, &dx, &dw])
}

/// Hash of `gemm` on strips of 1-5 rows at `k` from 0 up, over every view
/// of both operands, assigned and accumulated; then the same on column
/// bands (row strides above the width) and on a `b` whose row stride, 1,
/// is below `n` (`k` = 1 reads one row only).
fn gemm_edges_hash() -> u64 {
    let mut rng = Prng::seed_from_u64(0xed9e);
    let mut outputs = Vec::new();
    for m in 1..=5 {
        for n in [1, 3, 4, 8, 9, 16, 17, 33] {
            for k in [0, 1, 2, 7, 40] {
                let a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
                let b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
                let (at, bt) = (a.transpose2(), b.transpose2());
                // Bands: `a` rows `k + 3` apart, `b` rows `n + 5` apart,
                // `bᵀ` rows `k + 2` apart.
                let (ra, rb, rbt) = (k + 3, n + 5, k + 2);
                let a_band = init::gaussian(&[m * ra], 0.0, 1.0, &mut rng);
                let b_band = init::gaussian(&[k * rb], 0.0, 1.0, &mut rng);
                let bt_band = init::gaussian(&[n * rbt], 0.0, 1.0, &mut rng);
                let mut c = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
                let views = [
                    (Mat::rows(a.data(), k), Mat::rows(b.data(), n)),
                    (Mat::rows(a.data(), k), Mat::rows(bt.data(), k).t()),
                    (Mat::rows(at.data(), m).t(), Mat::rows(b.data(), n)),
                    (Mat::rows(at.data(), m).t(), Mat::rows(bt.data(), k).t()),
                    (Mat::rows(a_band.data(), ra), Mat::rows(b_band.data(), rb)),
                    (
                        Mat::rows(a_band.data(), ra),
                        Mat::rows(bt_band.data(), rbt).t(),
                    ),
                ];
                for accumulate in [false, true] {
                    for (av, bv) in views {
                        gemm(m, n, k, av, bv, c.data_mut(), accumulate);
                        outputs.push(c.clone());
                    }
                }
                if k == 1 {
                    let row = init::gaussian(&[n], 0.0, 1.0, &mut rng);
                    let bv = Mat::rows(row.data(), 1).t();
                    gemm(m, n, k, Mat::rows(a.data(), k), bv, c.data_mut(), false);
                    outputs.push(c.clone());
                }
            }
        }
    }
    fnv1a(&outputs.iter().collect::<Vec<_>>())
}

/// Hash of [`conv_site_hash`] over strides 1 and 2, padding 0-2, square
/// planes of 1 to 32 and windows 1, 2, 3 and 5 that fit the padded plane.
fn conv_planes_hash() -> u64 {
    let (mut seed, mut hash) = (0xc0_0000, 0u64);
    for stride in [1, 2] {
        for pad in [0, 1, 2] {
            for side in [1, 2, 3, 4, 5, 8, 16, 32] {
                for k in [1, 2, 3, 5] {
                    if side + 2 * pad < k {
                        continue;
                    }
                    seed += 1;
                    let p = Conv2dParams::new(stride, pad);
                    let site = conv_site_hash(seed, [2, 3, side, side], [4, 3, k, k], p);
                    hash = hash.rotate_left(7) ^ site;
                }
            }
        }
    }
    hash
}

const PINS: [u64; 38] = [
    0x844e_9e73_d3f1_351b,
    0x3173_600d_e824_856a,
    0xf98a_e0e0_29eb_6d32,
    0x7d5a_4651_56d8_1071,
    0x49c5_583a_d1d2_6e33,
    0x6490_d2d6_2960_4f2d,
    0x97dd_cec8_7872_5de9,
    0x216b_73cf_3b83_0965,
    0x6bd9_abda_17f7_dda2,
    0x1b4d_2d0a_4d9f_3b9a,
    0x4812_873b_f031_b813,
    0x0edd_325e_cb72_470c,
    0x4564_f1b4_5864_be39,
    0xfed7_a31c_a50a_dd57,
    0xd358_4008_5d69_a533,
    0x2f9b_2522_a9a5_87bd,
    0xd4ad_c9a5_130c_58a2,
    0x3b40_a74c_257e_aff8,
    0x7ead_2632_b919_a799,
    0xbcf1_98ec_1cb5_75f2,
    0xa754_ea02_2422_c07e,
    0xd474_a5b0_77e1_f926,
    0x43c9_a9f6_623b_7e06,
    0xad2e_952f_6f9f_7751,
    0x9b8b_076c_5c00_c8f2,
    0xa9ce_23a5_66f0_0b95,
    0xa1b4_aff7_dc1d_2ce2,
    0xb353_2bad_1d1c_bc1d,
    0x80da_bbb7_3e78_79ed,
    0x1cc2_c118_e409_7b2e,
    0x1492_b1a9_b458_b011,
    0x45d5_9e7f_a0d4_109f,
    0x432a_f271_7d65_e766,
    0xb04d_3b7e_c895_5fc3,
    0x59f7_fc6e_d3cd_9b34,
    0x58ef_2254_211e_b1f5,
    0x0c63_a893_e630_61b8,
    0xd6a7_8c62_8051_1ba8,
];

/// Hash of batch-norm forward (output, `x_hat`, `std`, mean, var) and
/// backward (`dx`, `dγ`, `dβ`) at `c` channels, batch 1 and 8, planes of
/// 1, 4, 16 and 256 elements.
fn batchnorm_hash(c: usize) -> u64 {
    let mut rng = Prng::seed_from_u64(0xb7_0000 + c as u64);
    let mut outputs = Vec::new();
    for n in [1, 8] {
        for side in [1, 2, 4, 16] {
            let shape = [n, c, side, side];
            let x = init::gaussian(&shape, 1.0, 2.0, &mut rng);
            let gamma = init::uniform(&[c], 0.5, 1.5, &mut rng);
            let beta = init::uniform(&[c], -0.5, 0.5, &mut rng);
            let dy = init::gaussian(&shape, 0.0, 1.0, &mut rng);
            let (y, cache, mean, var) = batchnorm2d_forward(&x, &gamma, &beta, 1e-5);
            let (dx, dgamma, dbeta) = batchnorm2d_backward(&dy, &cache, &gamma);
            let std = Tensor::from_vec(cache.std, &[c]);
            let (mean, var) = (Tensor::from_vec(mean, &[c]), Tensor::from_vec(var, &[c]));
            outputs.extend([y, cache.x_hat, std, mean, var, dx, dgamma, dbeta]);
        }
    }
    fnv1a(&outputs.iter().collect::<Vec<_>>())
}

/// Cross-commit pin of batch-norm's output bytes at channel counts around a
/// lane group of eight and MobileNet-V2's widest site (320). Captured before
/// batch-norm ran eight channels per instruction, identical in the dev and
/// release profiles at 1, 2 and 3 threads.
#[test]
fn batchnorm_kernel_bytes_are_pinned() {
    let pins = [1, 7, 8, 9, 17, 320].map(|c| (c, batchnorm_hash(c)));
    let moved: Vec<String> = pins
        .iter()
        .zip(BATCHNORM_PINS)
        .filter(|((_, got), pinned)| got != pinned)
        .map(|((c, got), _)| format!("C={c}: {got:#018x}"))
        .collect();
    assert!(moved.is_empty(), "output bytes moved: {moved:#?}");
}

const BATCHNORM_PINS: [u64; 6] = [
    0x9733_7c9b_76de_0ce7,
    0x33c3_0203_4bb2_54f0,
    0xe2f2_3d5d_3c46_3ef7,
    0x2ba3_2590_b4bb_77de,
    0x1e09_b3ff_335a_95cb,
    0xc355_4938_5210_6054,
];

/// A convolution site: input and weight shapes and parameters.
type Site = ([usize; 4], [usize; 4], Conv2dParams);

/// A kernel call that hashes its output bytes.
type Call = Box<dyn Fn() -> u64 + Sync>;

/// One call of each kernel that borrows its thread's scratch buffers:
/// forward, data-backward and weight-backward on each of `sites` (the
/// lowering element by element or in whole rows, and `gemm`'s operand
/// panel, on a dense one; the depthwise stencil on a grouped one), then `x · Wᵀ` at batch 8 and 5 (`gemm`'s transposed
/// product and its row-by-row copy of `b`) with `n` outputs and `k` inputs.
fn scratch_calls(sites: &[Site], (n, k): (usize, usize)) -> Vec<Call> {
    let mut calls: Vec<Call> = Vec::new();
    for &(x, w, p) in sites {
        let mut rng = Prng::seed_from_u64(0x57a1e);
        let xs = init::gaussian(&x, 0.0, 1.0, &mut rng);
        let ws = init::gaussian(&w, 0.0, 0.5, &mut rng);
        let (ho, wo) = (p.out_size(x[2], w[2]), p.out_size(x[3], w[3]));
        let dy = init::gaussian(&[x[0], w[0], ho, wo], 0.0, 1.0, &mut rng);
        let (xf, wf, wd, dyd) = (xs.clone(), ws.clone(), ws, dy.clone());
        calls.push(Box::new(move || fnv1a(&[&conv2d(&xf, &wf, None, &p)])));
        calls.push(Box::new(move || {
            fnv1a(&[&conv2d_backward_data(&dyd, &wd, x[2], x[3], &p)])
        }));
        calls.push(Box::new(move || {
            let (dw, db) = conv2d_backward_weight(&xs, &dy, w[2], w[3], &p);
            fnv1a(&[&dw, &db])
        }));
    }
    for m in [8, 5] {
        let mut rng = Prng::seed_from_u64(0x57a1e);
        let x = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
        let w = init::gaussian(&[n, k], 0.0, 0.5, &mut rng);
        calls.push(Box::new(move || fnv1a(&[&x.matmul_nt(&w)])));
    }
    calls
}

/// Kernels borrow their buffers from their thread's scratch stack with
/// whatever the last borrower left in them. Each small call runs on a fresh
/// thread; then, on one thread, each runs again after every large call has
/// left the buffers longer and full of other values. The bytes are equal,
/// so no kernel reads a buffer before writing it. The same holds on the
/// pool, whose workers' stacks earlier tests left dirty too.
#[test]
fn kernels_do_not_read_a_stale_scratch_buffer() {
    let small = scratch_calls(
        &[
            ([2, 3, 6, 6], [4, 3, 3, 3], Conv2dParams::new(1, 1)),
            ([2, 3, 9, 9], [4, 3, 3, 3], Conv2dParams::new(1, 1)),
            (
                [2, 8, 5, 5],
                [8, 1, 3, 3],
                Conv2dParams::new(1, 1).grouped(8),
            ),
        ],
        (9, 7),
    );
    let large = scratch_calls(
        &[
            ([4, 16, 12, 12], [16, 16, 3, 3], Conv2dParams::new(1, 2)),
            (
                [3, 24, 9, 9],
                [48, 1, 3, 3],
                Conv2dParams::new(2, 1).grouped(24),
            ),
        ],
        (30, 40),
    );
    let after_large = || -> Vec<u64> {
        let each = small.iter().map(|call| {
            large.iter().for_each(|dirty| _ = dirty());
            call()
        });
        each.collect()
    };
    let (fresh, reused) = std::thread::scope(|s| {
        let fresh = small
            .iter()
            .map(|call| s.spawn(move || with_threads(1, call)));
        let fresh: Vec<_> = fresh.collect();
        let fresh = fresh.into_iter().map(|t| t.join().expect("fresh thread"));
        let reused = s.spawn(|| with_threads(1, after_large));
        (
            fresh.collect::<Vec<_>>(),
            reused.join().expect("reused thread"),
        )
    });
    assert_eq!(reused, fresh, "on one thread");
    assert_eq!(after_large(), fresh, "on the pool");
}
