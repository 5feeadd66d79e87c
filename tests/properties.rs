//! Property-based tests over the core data structures and invariants of the
//! reproduction.
//!
//! The build environment is offline, so instead of proptest these are
//! seeded randomized sweeps driven by the workspace's own [`Prng`]: each
//! property is checked across `CASES` pseudo-random configurations drawn
//! from the same ranges the original proptest strategies used. Failures are
//! reproducible from the printed case seed.

use ada_gp::accel::dataflow::{utilization, Dataflow};
use ada_gp::accel::designs::{
    baseline_batch_cycles, bp_batch_cycles, gp_batch_cycles, AdaGpDesign,
};
use ada_gp::accel::layer_cost::LayerCost;
use ada_gp::adagp::controller::{PhaseController, ScheduleConfig};
use ada_gp::adagp::reorg;
use ada_gp::nn::models::shapes::LayerShape;
use ada_gp::nn::{SiteKind, SiteMeta};
use ada_gp::pipeline::{PipelineConfig, PipelineScheme};
use ada_gp::sim::{pipeline_graph, Phase, PipelineOrder};
use ada_gp::tensor::{init, Prng, Tensor};

const CASES: u64 = 64;

/// Uniform draw from `lo..hi` (half-open, like a proptest range strategy).
fn draw(rng: &mut Prng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Runs `body` for `CASES` seeded cases.
fn cases(mut body: impl FnMut(&mut Prng)) {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xada0_0000 + case);
        body(&mut rng);
    }
}

/// Reorganization round-trip: gradient rows -> gradient is lossless for
/// arbitrary conv site shapes.
#[test]
fn reorg_gradient_roundtrip() {
    cases(|rng| {
        let out_ch = draw(rng, 1, 16);
        let in_ch = draw(rng, 1, 8);
        let k = draw(rng, 1, 4);
        let meta = SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![out_ch, in_ch, k, k],
            label: "p".into(),
        };
        let grad = init::gaussian(&[out_ch, in_ch, k, k], 0.0, 0.1, rng);
        let rows = reorg::gradient_rows(&meta, grad.clone());
        let back = reorg::rows_to_gradient(&meta, rows);
        assert_eq!(back, grad);
    });
}

/// The reorganized predictor input always has `out_ch` rows and one channel,
/// regardless of batch and spatial size.
#[test]
fn reorg_shape_invariant() {
    cases(|rng| {
        let batch = draw(rng, 1, 8);
        let out_ch = draw(rng, 1, 12);
        let hw = draw(rng, 1, 9);
        let meta = SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![out_ch, 2, 3, 3],
            label: "p".into(),
        };
        let act = init::gaussian(&[batch, out_ch, hw, hw], 0.0, 1.0, rng);
        let r = reorg::reorganize(&meta, &act);
        assert_eq!(r.input.shape(), &[out_ch, 1, hw, hw]);
        assert_eq!(r.row_len, 2 * 9);
    });
}

/// Batch-mean reorganization is linear: scaling all activations scales the
/// predictor input.
#[test]
fn reorg_is_linear() {
    cases(|rng| {
        let scale = rng.uniform_range(0.1, 10.0);
        let meta = SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![4, 2, 3, 3],
            label: "p".into(),
        };
        let act = init::gaussian(&[3, 4, 5, 5], 0.0, 1.0, rng);
        let r1 = reorg::reorganize(&meta, &act);
        let r2 = reorg::reorganize(&meta, &act.scale(scale));
        let scaled = r1.input.scale(scale);
        assert!(r2.input.allclose(&scaled, 1e-3 * scale.max(1.0)));
    });
}

/// Phase controller: a full epoch's phases respect the k:m ratio exactly
/// over whole cycles.
#[test]
fn controller_respects_ratio() {
    cases(|rng| {
        let epoch_offset = draw(rng, 0, 16);
        let batches = draw(rng, 1, 100);
        let cfg = ScheduleConfig {
            warmup_epochs: 0,
            ..Default::default()
        };
        let mut c = PhaseController::new(cfg);
        for _ in 0..epoch_offset {
            c.end_epoch();
        }
        let (k, m) = cfg.ratio_at(epoch_offset);
        let mut gp = 0usize;
        for _ in 0..batches {
            if c.next_phase() == ada_gp::adagp::Phase::GP {
                gp += 1;
            }
        }
        let cycle = k + m;
        let full_cycles = batches / cycle;
        let rem = batches % cycle;
        let expected_gp = full_cycles * k + rem.min(k);
        assert_eq!(gp, expected_gp);
    });
}

/// Utilization is always within (0, 1] for any dataflow and layer.
#[test]
fn utilization_bounds() {
    cases(|rng| {
        let in_ch = draw(rng, 1, 512);
        let out_ch = draw(rng, 1, 512);
        let k = draw(rng, 1, 8);
        let out = draw(rng, 1, 64);
        let layer = LayerShape::conv("l", in_ch, out_ch, k, out);
        for df in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::RowStationary,
        ] {
            let u = utilization(df, &layer, 180);
            assert!(u > 0.0 && u <= 1.0, "{:?}: {}", df, u);
        }
    });
}

/// For any cost vector: GP < baseline <= BP, and the design ordering
/// MAX <= Efficient <= LOW holds in GP.
#[test]
fn design_cycle_ordering() {
    cases(|rng| {
        let n = draw(rng, 1, 20);
        let costs: Vec<LayerCost> = (0..n)
            .map(|_| {
                let fw = 1 + rng.below(100_000) as u64;
                let alpha = 1 + rng.below(1_000) as u64;
                LayerCost {
                    fw,
                    bw: 2 * fw,
                    alpha,
                }
            })
            .collect();
        let b = baseline_batch_cycles(&costs);
        for d in AdaGpDesign::all() {
            assert!(bp_batch_cycles(d, &costs) >= b);
        }
        let max = gp_batch_cycles(AdaGpDesign::Max, &costs);
        let eff = gp_batch_cycles(AdaGpDesign::Efficient, &costs);
        let low = gp_batch_cycles(AdaGpDesign::Low, &costs);
        assert!(max <= eff && eff <= low);
        assert!(eff < b, "GP must beat the baseline when alpha < fw");
    });
}

/// Pipeline simulation on the event engine, GPipe and 1F1B alike:
/// makespan matches the closed form and all work is scheduled, for
/// arbitrary device/micro-batch counts.
#[test]
fn gpipe_simulation_consistent() {
    cases(|rng| {
        let d = draw(rng, 1, 8);
        let m = draw(rng, 1, 8);
        let fw = draw(rng, 1, 3) as u64;
        let bw = draw(rng, 1, 4) as u64;
        for order in [PipelineOrder::GPipe, PipelineOrder::OneFOneB] {
            let g = pipeline_graph(order, d, m, fw, bw, &[Phase::Bp]);
            assert_eq!(
                g.run().makespan,
                (d + m - 1) as u64 * (fw + bw),
                "{order:?}"
            );
            let busy: u64 = g.busy().iter().sum();
            assert_eq!(busy, (d * m) as u64 * (fw + bw), "{order:?}");
        }
    });
}

/// The GPipe/DAPPLE closed forms of `adagp-pipeline` are the engine's
/// makespans — one batch, one GP→BP pair and k alternating pairs — over
/// every (D, M, fw, bw) in 1..=8 × 1..=8 × 1..=3 × 1..=4.
#[test]
fn pipeline_closed_forms_match_the_engine() {
    let pairs = [Phase::Gp, Phase::Bp].repeat(4);
    for (scheme, order) in [
        (PipelineScheme::GPipe, PipelineOrder::GPipe),
        (PipelineScheme::Dapple, PipelineOrder::OneFOneB),
    ] {
        for devices in 1..=8 {
            for microbatches in 1..=8 {
                for fw in 1..=3 {
                    for bw in 1..=4 {
                        let cfg = PipelineConfig {
                            devices,
                            microbatches,
                            fw,
                            bw,
                        };
                        let steps = |batches: &[Phase]| {
                            pipeline_graph(
                                order,
                                devices,
                                microbatches,
                                fw as u64,
                                bw as u64,
                                batches,
                            )
                            .run()
                            .makespan as usize
                        };
                        let at = format!("{} {cfg:?}", scheme.name());
                        assert_eq!(steps(&[Phase::Bp]), scheme.batch_steps(&cfg), "{at}");
                        let pair = scheme.adagp_pair_steps(&cfg);
                        for k in 1..=4 {
                            assert_eq!(steps(&pairs[..2 * k]), k * pair, "{at} k={k}");
                        }
                    }
                }
            }
        }
    }
}

/// ADA-GP pipeline speed-up is bounded by (2·batch)/(batch + M·fw) and
/// decreases monotonically with the predictor latency.
#[test]
fn pipeline_speedup_bounds() {
    cases(|rng| {
        let alpha = rng.uniform_range(0.0, 0.5) as f64;
        let cfg = PipelineConfig::default();
        for scheme in PipelineScheme::all() {
            let s = scheme.adagp_speedup(&cfg, alpha);
            let ceiling =
                2.0 * scheme.batch_steps(&cfg) as f64 / scheme.adagp_pair_steps(&cfg) as f64;
            assert!(s > 1.0, "{}: {}", scheme.name(), s);
            assert!(s <= ceiling + 1e-12);
        }
    });
}

/// Tensor elementwise algebra: (a + b) - b == a within float tolerance.
#[test]
fn tensor_add_sub_inverse() {
    cases(|rng| {
        let len = draw(rng, 1, 64);
        let a = init::gaussian(&[len], 0.0, 10.0, rng);
        let b = init::gaussian(&[len], 0.0, 10.0, rng);
        let roundtrip = a.add(&b).sub(&b);
        assert!(roundtrip.allclose(&a, 1e-3));
    });
}

/// Softmax output is a probability distribution for any logits.
#[test]
fn softmax_is_distribution() {
    cases(|rng| {
        let rows = draw(rng, 1, 6);
        let cols = draw(rng, 1, 10);
        let logits = init::gaussian(&[rows, cols], 0.0, 5.0, rng);
        let p = ada_gp::tensor::softmax::softmax(&logits);
        for i in 0..rows {
            let s: f32 = p.data()[i * cols..(i + 1) * cols].iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert!(p.min() >= 0.0);
    });
}

/// Conv output shape formula holds for arbitrary parameters.
#[test]
fn conv_shape_formula() {
    cases(|rng| {
        let n = draw(rng, 1, 3);
        let cin = draw(rng, 1, 4);
        let cout = draw(rng, 1, 4);
        let hw = draw(rng, 3, 10);
        let k = draw(rng, 1, 4);
        let stride = draw(rng, 1, 3);
        let pad = draw(rng, 0, 2);
        if hw + 2 * pad < k {
            return; // proptest's prop_assume! equivalent
        }
        let x = init::gaussian(&[n, cin, hw, hw], 0.0, 1.0, rng);
        let w = init::gaussian(&[cout, cin, k, k], 0.0, 1.0, rng);
        let p = ada_gp::tensor::conv::Conv2dParams::new(stride, pad);
        let y = ada_gp::tensor::conv::conv2d(&x, &w, None, &p);
        let expected = (hw + 2 * pad - k) / stride + 1;
        assert_eq!(y.shape(), &[n, cout, expected, expected]);
    });
}

/// Non-proptest sanity: Tensor equality/cloning semantics.
#[test]
fn tensor_clone_is_deep() {
    let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
    let mut b = a.clone();
    b.data_mut()[0] = 9.0;
    assert_eq!(a.data()[0], 1.0);
}
