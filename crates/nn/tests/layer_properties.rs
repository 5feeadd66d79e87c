//! Property-based tests of the layer framework: shape invariants, gradient
//! flow and parameter bookkeeping across randomized layer configurations.
//!
//! The build environment is offline, so instead of proptest these are
//! seeded randomized sweeps driven by the workspace's own [`Prng`]: each
//! property runs across `CASES` pseudo-random configurations drawn from the
//! same ranges the original proptest strategies used.

use adagp_nn::containers::{Residual, Sequential};
use adagp_nn::layers::{BatchNorm2d, Conv2d, Linear, Relu};
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

/// `L = <forward(x), r>` for a fixed `r`, summed in f64.
fn probe_loss(conv: &mut Conv2d, x: &Tensor, r: &Tensor) -> f64 {
    let y = conv.forward(x, &mut ForwardCtx::eval());
    let terms = y.data().iter().zip(r.data());
    terms.map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
}

/// Central difference of a loss along one element, which `loss_after` moves
/// by the step it is given.
fn central_difference(mut loss_after: impl FnMut(f32) -> f64) -> f64 {
    const EPS: f32 = 1e-2;
    (loss_after(EPS) - loss_after(-EPS)) / (2.0 * f64::from(EPS))
}

/// Adds `by` to element `i` of the `pi`-th parameter `visit_params` yields.
fn nudge_param(conv: &mut Conv2d, pi: usize, i: usize, by: f32) {
    let mut seen = 0;
    conv.visit_params(&mut |p| {
        if seen == pi {
            p.value.data_mut()[i] += by;
        }
        seen += 1;
    });
}

fn assert_close(label: &str, analytic: f32, numeric: f64) {
    // A convolution is linear in x and in every parameter, so the central
    // difference is exact but for f32 rounding of the two forward passes.
    let tol = 1e-2 * numeric.abs().max(1.0);
    assert!(
        (f64::from(analytic) - numeric).abs() < tol,
        "{label}: analytic {analytic} vs numeric {numeric}"
    );
}

/// `Conv2d::backward` against central differences, every element of `dx`,
/// `dw` and `db`: dense, strided, two groups, and depthwise at both strides.
#[test]
fn conv_gradients_match_central_differences() {
    type Build = fn(&mut Prng) -> Conv2d;
    let configs: [(&str, usize, usize, Build); 5] = [
        ("dense", 2, 5, |rng| Conv2d::new(2, 3, 3, 1, 1, true, rng)),
        ("strided", 3, 7, |rng| {
            Conv2d::new(3, 2, 3, 2, 0, false, rng)
        }),
        ("groups=2", 4, 5, |rng| {
            Conv2d::with_params(4, 6, 3, Conv2dParams::new(1, 1).grouped(2), true, rng)
        }),
        ("depthwise", 3, 5, |rng| Conv2d::depthwise(3, 3, 1, 1, rng)),
        ("depthwise s2", 3, 6, |rng| {
            Conv2d::depthwise(3, 3, 2, 1, rng)
        }),
    ];
    for (case, (label, in_ch, hw, build)) in configs.into_iter().enumerate() {
        let mut rng = Prng::seed_from_u64(0x6c4d_0000 + case as u64);
        let mut conv = build(&mut rng);
        let x = init::gaussian(&[2, in_ch, hw, hw], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, &mut ForwardCtx::train());
        let r = init::gaussian(y.shape(), 0.0, 1.0, &mut rng);
        let dx = conv.backward(&r);
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push(p.grad.clone()));

        for i in 0..x.len() {
            let numeric = central_difference(|step| {
                let mut moved = x.clone();
                moved.data_mut()[i] += step;
                probe_loss(&mut conv, &moved, &r)
            });
            assert_close(&format!("{label} dx[{i}]"), dx.data()[i], numeric);
        }
        for (pi, grad) in grads.iter().enumerate() {
            for i in 0..grad.len() {
                let numeric = central_difference(|step| {
                    nudge_param(&mut conv, pi, i, step);
                    let loss = probe_loss(&mut conv, &x, &r);
                    nudge_param(&mut conv, pi, i, -step);
                    loss
                });
                assert_close(
                    &format!("{label} param {pi} [{i}]"),
                    grad.data()[i],
                    numeric,
                );
            }
        }
    }
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
