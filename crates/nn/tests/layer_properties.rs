//! Property-based tests of the layer framework: shape invariants, gradient
//! flow and parameter bookkeeping across randomized layer configurations.
//!
//! The build environment is offline, so instead of proptest these are
//! seeded randomized sweeps driven by the workspace's own [`Prng`]: each
//! property runs across `CASES` pseudo-random configurations drawn from the
//! same ranges the original proptest strategies used.

use adagp_nn::containers::{Branches, DenseCat, Residual, Sequential};
use adagp_nn::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool, LayerNorm, LeakyRelu, Linear, MaxPool2d, Relu,
    Sigmoid, Tanh,
};
use adagp_nn::module::{count_params, count_sites, zero_grads, ForwardCtx, Module};
use adagp_nn::optim::{Optimizer, Sgd};
use adagp_tensor::conv::Conv2dParams;
use adagp_tensor::{init, Prng, Tensor};

const CASES: u64 = 32;

/// Uniform draw from `lo..hi` (half-open, like a proptest range strategy).
fn draw(rng: &mut Prng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Runs `body` for `CASES` seeded cases.
fn cases(mut body: impl FnMut(&mut Prng)) {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x1a7e_0000 + case);
        body(&mut rng);
    }
}

/// Any conv config: backward input-gradient shape equals input shape, and
/// weight gradients are populated.
#[test]
fn conv_backward_shapes() {
    cases(|rng| {
        let in_ch = draw(rng, 1, 5);
        let out_ch = draw(rng, 1, 6);
        let k = draw(rng, 1, 4);
        let hw = draw(rng, 4, 10);
        let stride = draw(rng, 1, 3);
        let pad = k / 2;
        if hw + 2 * pad < k {
            return; // proptest's prop_assume! equivalent
        }
        let mut conv = Conv2d::new(in_ch, out_ch, k, stride, pad, true, rng);
        let x = init::gaussian(&[2, in_ch, hw, hw], 0.0, 1.0, rng);
        let y = conv.forward(&x, &mut ForwardCtx::train());
        let dx = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        let mut grads_nonzero = false;
        conv.visit_params(&mut |p| grads_nonzero |= p.grad.norm() > 0.0);
        assert!(grads_nonzero);
    });
}

/// `L = <forward(x), r>` for a fixed `r`, summed in f64. The training
/// forward, so batch norm uses batch statistics; no checked layer is
/// stochastic.
fn probe_loss(module: &mut dyn Module, x: &Tensor, r: &Tensor) -> f64 {
    let y = module.forward(x, &mut ForwardCtx::train());
    let terms = y.data().iter().zip(r.data());
    terms.map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
}

/// The step of every central difference.
const STEP: f32 = 1e-2;

/// Central difference of a loss along one element, which `loss_after` moves
/// by the step it is given.
fn central_difference(mut loss_after: impl FnMut(f32) -> f64) -> f64 {
    (loss_after(STEP) - loss_after(-STEP)) / (2.0 * f64::from(STEP))
}

/// Whether an input draw keeps every step off the layer's kinks, where a
/// central difference that straddles one is wrong.
type OffKinks = fn(&Tensor) -> bool;

/// A layer without kinks takes any draw.
fn any(_: &Tensor) -> bool {
    true
}

/// ReLU and LeakyReLU bend at zero: no input within two steps of it.
fn off_zero(x: &Tensor) -> bool {
    x.data().iter().all(|v| v.abs() >= 2.0 * STEP)
}

/// A 2×2, stride-2 max-pool switches its pick where the top two of a window
/// tie: each window's top two at least two steps apart.
fn top_two_apart(x: &Tensor) -> bool {
    let (h, w) = (x.dim(2), x.dim(3));
    x.data().chunks(h * w).all(|plane| {
        (0..h / 2 * (w / 2)).all(|at| {
            let (wy, wx) = (at / (w / 2) * 2, at % (w / 2) * 2);
            let mut window = [0, 1, w, w + 1].map(|d| plane[wy * w + wx + d]);
            window.sort_by(|a, b| b.total_cmp(a));
            window[0] - window[1] >= 2.0 * STEP
        })
    })
}

/// Adds `by` to element `i` of the `pi`-th parameter `visit_params` yields.
fn nudge_param(module: &mut dyn Module, pi: usize, i: usize, by: f32) {
    let mut seen = 0;
    module.visit_params(&mut |p| {
        if seen == pi {
            p.value.data_mut()[i] += by;
        }
        seen += 1;
    });
}

/// `analytic` within `tol` of `numeric`, relative to `max(|numeric|, 1)`.
fn assert_close(label: &str, analytic: f32, numeric: f64, tol: f64) {
    let tol = tol * numeric.abs().max(1.0);
    assert!(
        (f64::from(analytic) - numeric).abs() < tol,
        "{label}: analytic {analytic} vs numeric {numeric}"
    );
}

/// `module.backward` against central differences of [`probe_loss`] at a
/// random `x` of `x_shape` (redrawn until `off_kinks` takes it), every
/// element of `dx` and of each parameter gradient.
fn check_gradients(
    label: &str,
    module: &mut dyn Module,
    (x_shape, off_kinks): (&[usize], OffKinks),
    tol: f64,
    seed: u64,
) {
    let mut rng = Prng::seed_from_u64(seed);
    let x = loop {
        let x = init::gaussian(x_shape, 0.0, 1.0, &mut rng);
        if off_kinks(&x) {
            break x;
        }
    };
    let y = module.forward(&x, &mut ForwardCtx::train());
    let r = init::gaussian(y.shape(), 0.0, 1.0, &mut rng);
    let dx = module.backward(&r);
    let mut grads = Vec::new();
    module.visit_params(&mut |p| grads.push(p.grad.clone()));

    for i in 0..x.len() {
        let numeric = central_difference(|step| {
            let mut moved = x.clone();
            moved.data_mut()[i] += step;
            probe_loss(module, &moved, &r)
        });
        assert_close(&format!("{label} dx[{i}]"), dx.data()[i], numeric, tol);
    }
    for (pi, grad) in grads.iter().enumerate() {
        for i in 0..grad.len() {
            let numeric = central_difference(|step| {
                nudge_param(module, pi, i, step);
                let loss = probe_loss(module, &x, &r);
                nudge_param(module, pi, i, -step);
                loss
            });
            let at = format!("{label} param {pi} [{i}]");
            assert_close(&at, grad.data()[i], numeric, tol);
        }
    }
}

/// A row of a central-difference table: label, input shape and the draws
/// of it that keep off the layer's kinks, relative tolerance, and a builder
/// seeded from the row's index.
type GradRow = (
    &'static str,
    (&'static [usize], OffKinks),
    f64,
    fn(&mut Prng) -> Box<dyn Module>,
);

fn check_rows(rows: &[GradRow], seed: u64) {
    for (case, &(label, x, tol, build)) in rows.iter().enumerate() {
        let seed = seed + case as u64;
        let mut module = build(&mut Prng::seed_from_u64(seed));
        check_gradients(label, module.as_mut(), x, tol, seed);
    }
}

// Convolutions, linear layers and average pools are linear in x and in
// every parameter, so their central difference is exact but for f32
// rounding of the two forward passes (about 5e-5 relative at worst).
const LINEAR_TOL: f64 = 1e-3;
// Batch and row statistics and the smooth activations make the output
// nonlinear in x (and gamma, beta), which adds the step's O(eps²)
// truncation error.
const BATCH_STATS_TOL: f64 = 2e-3;

/// `Conv2d::backward` against central differences, every element of `dx`,
/// `dw` and `db`: dense, strided, two groups, and depthwise at both strides
/// and over a lane group's tail.
#[test]
fn conv_gradients_match_central_differences() {
    check_rows(
        &[
            ("dense", (&[2, 2, 5, 5], any), LINEAR_TOL, |rng| {
                Box::new(Conv2d::new(2, 3, 3, 1, 1, true, rng))
            }),
            ("strided", (&[2, 3, 7, 7], any), LINEAR_TOL, |rng| {
                Box::new(Conv2d::new(3, 2, 3, 2, 0, false, rng))
            }),
            ("groups=2", (&[2, 4, 5, 5], any), LINEAR_TOL, |rng| {
                let params = Conv2dParams::new(1, 1).grouped(2);
                Box::new(Conv2d::with_params(4, 6, 3, params, true, rng))
            }),
            ("depthwise", (&[2, 3, 5, 5], any), LINEAR_TOL, |rng| {
                Box::new(Conv2d::depthwise(3, 3, 1, 1, rng))
            }),
            ("depthwise s2", (&[2, 3, 6, 6], any), LINEAR_TOL, |rng| {
                Box::new(Conv2d::depthwise(3, 3, 2, 1, rng))
            }),
            // Nine channels: a full lane group of eight and a tail of one.
            ("depthwise C=9", (&[2, 9, 5, 5], any), LINEAR_TOL, |rng| {
                Box::new(Conv2d::depthwise(9, 3, 1, 1, rng))
            }),
        ],
        0x6c4d_0000,
    );
}

/// The same check for the other layers and for containers of them. ReLU,
/// LeakyReLU and max-pool have kinks, where a central difference that
/// straddles one is wrong, so their inputs are drawn to keep every step off
/// them.
#[test]
fn layer_gradients_match_central_differences() {
    check_rows(
        &[
            ("linear", (&[3, 5], any), LINEAR_TOL, |rng| {
                Box::new(Linear::new(5, 4, true, rng))
            }),
            ("batchnorm", (&[2, 3, 3, 3], any), BATCH_STATS_TOL, |_| {
                Box::new(BatchNorm2d::new(3))
            }),
            ("layernorm", (&[3, 5], any), BATCH_STATS_TOL, |_| {
                Box::new(LayerNorm::new(5))
            }),
            ("sigmoid", (&[2, 3, 3, 3], any), BATCH_STATS_TOL, |_| {
                Box::new(Sigmoid::new())
            }),
            ("tanh", (&[2, 3, 3, 3], any), BATCH_STATS_TOL, |_| {
                Box::new(Tanh::new())
            }),
            ("avgpool", (&[2, 2, 4, 4], any), LINEAR_TOL, |_| {
                Box::new(AvgPool2d::new(2, 2))
            }),
            ("global avgpool", (&[2, 3, 3, 3], any), LINEAR_TOL, |_| {
                Box::new(GlobalAvgPool::new())
            }),
            ("residual", (&[2, 2, 4, 4], any), BATCH_STATS_TOL, |rng| {
                let mut body = Sequential::new();
                body.push(Conv2d::new(2, 2, 3, 1, 1, false, rng));
                body.push(BatchNorm2d::new(2));
                Box::new(Residual::new(body))
            }),
            ("sequential", (&[2, 2, 4, 4], any), BATCH_STATS_TOL, |rng| {
                let mut net = Sequential::new();
                net.push(Conv2d::new(2, 3, 3, 1, 1, true, rng));
                net.push(BatchNorm2d::new(3));
                net.push(AvgPool2d::new(2, 2));
                net.push(GlobalAvgPool::new());
                net.push(Linear::new(3, 2, true, rng));
                Box::new(net)
            }),
            (
                "batchnorm C=9",
                (&[2, 9, 3, 3], any),
                BATCH_STATS_TOL,
                |_| Box::new(BatchNorm2d::new(9)),
            ),
            ("relu", (&[2, 3, 3, 3], off_zero), LINEAR_TOL, |_| {
                Box::new(Relu::new())
            }),
            ("leaky relu", (&[2, 3, 3, 3], off_zero), LINEAR_TOL, |_| {
                Box::new(LeakyRelu::new(0.1))
            }),
            (
                "maxpool",
                (&[2, 2, 4, 4], top_two_apart),
                LINEAR_TOL,
                |_| Box::new(MaxPool2d::new(2, 2)),
            ),
            ("branches", (&[2, 2, 4, 4], any), BATCH_STATS_TOL, |rng| {
                let mut conv = Sequential::new();
                conv.push(Conv2d::new(2, 2, 3, 1, 1, true, rng));
                let mut conv_bn = Sequential::new();
                conv_bn.push(Conv2d::new(2, 3, 1, 1, 0, false, rng));
                conv_bn.push(BatchNorm2d::new(3));
                Box::new(Branches::new(vec![conv, conv_bn]))
            }),
            ("dense cat", (&[2, 2, 4, 4], any), LINEAR_TOL, |rng| {
                let mut body = Sequential::new();
                body.push(Conv2d::new(2, 3, 3, 1, 1, true, rng));
                Box::new(DenseCat::new(body, 2, 3))
            }),
        ],
        0x6c4d_1000,
    );
}

/// Linear layers: parameter count is exactly `in·out (+ out)`.
#[test]
fn linear_param_count() {
    cases(|rng| {
        let inf = draw(rng, 1, 32);
        let outf = draw(rng, 1, 32);
        let bias = rng.below(2) == 1;
        let mut lin = Linear::new(inf, outf, bias, rng);
        let expected = inf * outf + if bias { outf } else { 0 };
        assert_eq!(count_params(&mut lin), expected);
        assert_eq!(count_sites(&mut lin), 1);
    });
}

/// SGD step with zero gradients leaves parameters unchanged.
#[test]
fn sgd_noop_on_zero_grads() {
    cases(|rng| {
        let mut lin = Linear::new(4, 3, true, rng);
        zero_grads(&mut lin);
        let before = lin.weight().value.clone();
        let mut opt = Sgd::new(0.1, 0.9);
        opt.step(&mut lin);
        assert_eq!(lin.weight().value.clone(), before);
    });
}

/// BatchNorm in eval mode is an affine map: doubling gamma doubles the
/// centred output.
#[test]
fn batchnorm_eval_is_affine() {
    cases(|rng| {
        let mut bn = BatchNorm2d::new(3);
        // Prime the running stats.
        let x = init::gaussian(&[4, 3, 4, 4], 0.5, 1.5, rng);
        bn.forward(&x, &mut ForwardCtx::train());
        let y1 = bn.forward(&x, &mut ForwardCtx::eval());
        bn.visit_params(&mut |p| {
            if p.value.len() == 3 && p.value.data()[0] != 0.0 {
                // gamma starts at ones; scale it.
                p.value.scale_in_place(2.0);
            }
        });
        let y2 = bn.forward(&x, &mut ForwardCtx::eval());
        // Doubling both gamma and beta doubles the output exactly.
        assert!(y2.allclose(&y1.scale(2.0), 1e-3));
    });
}

/// Depthwise conv keeps channel count for any config.
#[test]
fn depthwise_preserves_channels() {
    cases(|rng| {
        let ch = draw(rng, 1, 6);
        let hw = draw(rng, 4, 9);
        let mut dw = Conv2d::depthwise(ch, 3, 1, 1, rng);
        let x = init::gaussian(&[1, ch, hw, hw], 0.0, 1.0, rng);
        let y = dw.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), x.shape());
    });
}

/// Residual blocks: output = body(x) + x exactly, for any body.
#[test]
fn residual_adds_skip() {
    for case in 0..CASES {
        let seed = 0x1a7e_0000 + case;
        let mut rng = Prng::seed_from_u64(seed);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 2, 3, 1, 1, false, &mut rng));
        let x = init::gaussian(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);

        // Clone of the body for the reference computation (same seed, same
        // draw order, so identical weights).
        let mut rng2 = Prng::seed_from_u64(seed);
        let mut body_ref = Sequential::new();
        body_ref.push(Conv2d::new(2, 2, 3, 1, 1, false, &mut rng2));
        let expected = body_ref.forward(&x, &mut ForwardCtx::eval()).add(&x);

        let mut res = Residual::new(body);
        let y = res.forward(&x, &mut ForwardCtx::eval());
        assert!(y.allclose(&expected, 1e-5));
    }
}

/// Gradient flow: a Sequential of depth d still propagates a gradient back
/// to its input.
#[test]
fn deep_chain_gradient_flows() {
    cases(|rng| {
        let depth = draw(rng, 1, 6);
        let mut net = Sequential::new();
        for _ in 0..depth {
            net.push(Conv2d::new(2, 2, 3, 1, 1, false, rng));
            net.push(Relu::new());
        }
        let x = init::gaussian(&[1, 2, 6, 6], 0.3, 1.0, rng);
        let y = net.forward(&x, &mut ForwardCtx::train());
        let dx = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.norm().is_finite());
    });
}
