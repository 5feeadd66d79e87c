//! Simulator-core guarantees, integration-level:
//!
//! 1. **Seeded property sweep** — over random layer-cost mixes, the
//!    no-contention simulation reproduces the analytic per-batch cycle
//!    counts *exactly* (the closed forms are the sim's zero-contention
//!    special case), and enabling contention can only add cycles, so the
//!    analytic number is always a lower bound.
//! 2. **Determinism** — re-running a simulation yields the identical
//!    span trace, and equal-time event ties always resolve the same way.
//! 3. **Sanity of derived stats** — utilizations and overlap
//!    efficiencies stay inside [0, 1], buffer occupancy returns to zero.
//! 4. **Replay ≡ rebuild** — a graph compiled once and re-timed to a
//!    bandwidth runs exactly as one freshly built at that bandwidth
//!    (stats and the whole trace), and nothing survives in the engine's
//!    per-thread scratch from one run to the next.

use adagp_accel::designs::{baseline_batch_cycles, bp_batch_cycles, gp_batch_cycles};
use adagp_accel::layer_cost::LayerCost;
use adagp_accel::AdaGpDesign;
use adagp_sim::{simulate_batch, BatchGraph, BatchSim, Phase, SimConfig, SimLayer};
use adagp_tensor::Prng;

/// A random model: 1–24 layers with FW in [1, 10⁶], BW = 2×FW ± jitter,
/// α in [0, 2×FW] (deliberately allowed to exceed FW to exercise the
/// predictor-bound branches of the MAX schedules).
fn random_layers(rng: &mut Prng) -> Vec<SimLayer> {
    let n = 1 + (rng.next_u64() % 24) as usize;
    (0..n)
        .map(|i| {
            let fw = 1 + rng.next_u64() % 1_000_000;
            let jitter = rng.next_u64() % (fw / 2 + 1);
            let bw = 2 * fw + jitter;
            let alpha = rng.next_u64() % (2 * fw);
            SimLayer {
                label: format!("l{i}").into(),
                cost: LayerCost { fw, bw, alpha },
                weight_words: rng.next_u64() % 1_000_000,
                activation_words: rng.next_u64() % 1_000_000,
                spill_words: rng.next_u64() % 500_000,
            }
        })
        .collect()
}

fn phases() -> Vec<(Phase, Option<AdaGpDesign>)> {
    let mut cases = vec![(Phase::Baseline, None)];
    for d in AdaGpDesign::all() {
        cases.push((Phase::Bp, Some(d)));
        cases.push((Phase::Gp, Some(d)));
    }
    cases
}

fn analytic_batch(phase: Phase, design: Option<AdaGpDesign>, costs: &[LayerCost]) -> u64 {
    match (phase, design) {
        (Phase::Baseline, _) => baseline_batch_cycles(costs),
        (Phase::Bp, Some(d)) => bp_batch_cycles(d, costs),
        (Phase::Gp, Some(d)) => gp_batch_cycles(d, costs),
        _ => unreachable!(),
    }
}

#[test]
fn no_contention_equals_analytic_on_random_mixes() {
    let mut rng = Prng::seed_from_u64(0xADA6_2023);
    for case in 0..200 {
        let layers = random_layers(&mut rng);
        let costs: Vec<LayerCost> = layers.iter().map(|l| l.cost).collect();
        for (phase, design) in phases() {
            let sim = simulate_batch(phase, design, &layers, &SimConfig::no_contention());
            assert_eq!(
                sim.makespan(),
                analytic_batch(phase, design, &costs),
                "case {case}: {phase:?} {design:?} over {} layers",
                layers.len()
            );
        }
    }
}

#[test]
fn contention_never_beats_the_analytic_lower_bound() {
    let mut rng = Prng::seed_from_u64(0xBEEF);
    for case in 0..100 {
        let layers = random_layers(&mut rng);
        let costs: Vec<LayerCost> = layers.iter().map(|l| l.cost).collect();
        let bw = 1 + rng.next_u64() % 256;
        let cfg = SimConfig {
            dram_words_per_cycle: Some(bw),
            ..SimConfig::no_contention()
        };
        for (phase, design) in phases() {
            let sim = simulate_batch(phase, design, &layers, &cfg);
            let bound = analytic_batch(phase, design, &costs);
            assert!(
                sim.makespan() >= bound,
                "case {case}: {phase:?} {design:?} at {bw} w/c: {} < {bound}",
                sim.makespan()
            );
            assert!(sim.pe_utilization() > 0.0 && sim.pe_utilization() <= 1.0);
            let eff = sim.overlap_efficiency();
            assert!((0.0..=1.0).contains(&eff), "{eff}");
            if let Some((_, words)) = sim.result.buffer_curve.last() {
                assert_eq!(*words, 0, "buffer must drain by the end of the batch");
            }
        }
    }
}

#[test]
fn repeated_simulation_reproduces_the_identical_trace() {
    let mut rng = Prng::seed_from_u64(7);
    let layers = random_layers(&mut rng);
    let cfg = SimConfig::default();
    let a = simulate_batch(Phase::Bp, Some(AdaGpDesign::Max), &layers, &cfg);
    for _ in 0..5 {
        let b = simulate_batch(Phase::Bp, Some(AdaGpDesign::Max), &layers, &cfg);
        assert_eq!(a.result.spans, b.result.spans);
        assert_eq!(a.result.busy, b.result.busy);
        assert_eq!(a.result.buffer_curve, b.result.buffer_curve);
    }
}

#[test]
fn event_ties_resolve_by_task_id_even_with_equal_costs() {
    // Every layer identical → masses of equal-time completions; the GP-MAX
    // graph (two lanes + joins) must still order its spans identically and
    // keep FIFO admission: fwd of slot i always precedes fwd of slot i+1.
    let layers: Vec<SimLayer> = (0..16)
        .map(|i| {
            SimLayer::from_cost(
                format!("l{i}"),
                LayerCost {
                    fw: 100,
                    bw: 200,
                    alpha: 100, // == fw: fill and fwd of a slot tie exactly
                },
            )
        })
        .collect();
    let a = simulate_batch(
        Phase::Gp,
        Some(AdaGpDesign::Max),
        &layers,
        &SimConfig::no_contention(),
    );
    let b = simulate_batch(
        Phase::Gp,
        Some(AdaGpDesign::Max),
        &layers,
        &SimConfig::no_contention(),
    );
    assert_eq!(a.result.spans, b.result.spans);
    let fwd_starts: Vec<u64> = a
        .result
        .spans
        .iter()
        .filter(|s| a.result.tasks.kind(s.task) == adagp_sim::TaskKind::Forward)
        .map(|s| s.start)
        .collect();
    let mut sorted = fwd_starts.clone();
    sorted.sort_unstable();
    assert_eq!(fwd_starts, sorted, "forward sweep must stay in layer order");
    // 16 slots of max(fw, α) = 100 plus the trailing fill.
    assert_eq!(a.makespan(), 16 * 100 + 100);
}

/// Asserts a replayed graph's traced run equals a freshly built one:
/// every span, ready cycle and admission cause, plus the summary numbers.
fn assert_same_trace(replayed: &BatchSim, fresh: &BatchSim, context: &str) {
    assert_eq!(replayed.stats, fresh.stats, "{context}: stats");
    assert_eq!(replayed.result.makespan, fresh.result.makespan, "{context}");
    assert_eq!(replayed.result.busy, fresh.result.busy, "{context}: busy");
    assert_eq!(
        replayed.result.buffer_peak, fresh.result.buffer_peak,
        "{context}: buffer peak"
    );
    assert_eq!(
        replayed.result.buffer_curve, fresh.result.buffer_curve,
        "{context}: buffer curve"
    );
    assert_eq!(
        replayed.result.spans, fresh.result.spans,
        "{context}: spans"
    );
    assert_eq!(
        replayed.result.ready_of, fresh.result.ready_of,
        "{context}: ready_of"
    );
    assert_eq!(
        replayed.result.unblocked_by, fresh.result.unblocked_by,
        "{context}: unblocked_by"
    );
}

#[test]
fn replayed_graph_equals_a_fresh_build_at_every_bandwidth() {
    let mut rng = Prng::seed_from_u64(0x5EED_CAFE);
    for case in 0..200 {
        let layers = random_layers(&mut rng);
        let built_at = 1 + rng.next_u64() % 256;
        let cfg = SimConfig {
            dram_ports: 1 + (rng.next_u64() % 2) as u32,
            ..SimConfig::default().with_bandwidth(built_at)
        };
        let probes = [1, 2, 3, 7, 18, 64, 1 << 20, 1 + rng.next_u64() % 4096];
        for (phase, design) in phases() {
            let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
            for bw in probes {
                let context = format!("case {case}: {phase:?} {design:?} at {bw} w/c");
                let fresh = simulate_batch(phase, design, &layers, &cfg.with_bandwidth(bw));
                graph.set_bandwidth(bw);
                assert_eq!(graph.run(), fresh.stats, "{context}: untraced");
                assert_eq!(graph.graph().busy(), fresh.result.busy, "{context}: busy");
                assert_same_trace(&graph.clone().simulate(), &fresh, &context);
            }
        }
    }
}

#[test]
fn no_state_leaks_through_the_scratch_between_runs() {
    // One graph at bandwidths a, b, a — with runs of other, differently
    // shaped graphs (more resources, more tasks) in between on the same
    // thread, traced and untraced interleaved.
    let mut rng = Prng::seed_from_u64(0x0ABA);
    for case in 0..50 {
        let layers = random_layers(&mut rng);
        let other = random_layers(&mut rng);
        let cfg = SimConfig {
            dram_ports: 1 + (rng.next_u64() % 2) as u32,
            ..SimConfig::default()
        };
        let (a, b) = (1 + rng.next_u64() % 64, 65 + rng.next_u64() % 4096);
        for (phase, design) in phases() {
            let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
            graph.set_bandwidth(a);
            let first = graph.run();
            let first_traced = graph.clone().simulate();
            simulate_batch(Phase::Bp, Some(AdaGpDesign::Max), &other, &cfg);
            graph.set_bandwidth(b);
            let second = graph.run();
            BatchGraph::build(Phase::Baseline, None, &other, &SimConfig::no_contention()).run();
            graph.set_bandwidth(a);
            let context = format!("case {case}: {phase:?} {design:?} {a} → {b} → {a}");
            assert_eq!(graph.run(), first, "{context}");
            assert_same_trace(&graph.clone().simulate(), &first_traced, &context);
            graph.set_bandwidth(b);
            assert_eq!(graph.run(), second, "{context} → {b}");
        }
    }
}
