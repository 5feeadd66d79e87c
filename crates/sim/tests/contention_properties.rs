//! Contention-study properties, integration-level (seeded `Prng` sweep
//! over ≥200 random layer mixes built from real [`LayerShape`]s so the
//! buffer tiling model is in the loop):
//!
//! 1. **Bandwidth monotonicity** — the simulated makespan is monotone
//!    non-increasing in `dram_words_per_cycle` (more bandwidth never
//!    hurts; the DRAM service order is fixed, so shrinking task durations
//!    can only pull completions earlier).
//! 2. **Buffer monotonicity** — the makespan is monotone non-increasing
//!    in the buffer capacity (a bigger buffer spills fewer words per
//!    layer, shrinking or deleting spill tasks).
//! 3. **Analytic lower bound** — every contended makespan is ≥ the
//!    closed-form per-batch cycle count, and the no-contention
//!    configuration reproduces it exactly.
//! 4. **Longest-path lower bound** — a compiled graph's
//!    `TaskGraph::longest_path` (the knee search's floor) never exceeds
//!    its replayed makespan, and never grows with bandwidth. Without the
//!    DRAM channel it *is* the makespan, on every zoo model's batch graph:
//!    each resource's tasks then form one dependency chain, so nothing
//!    queues. That is why the floor's crossing is the knee for 300 of the
//!    eight benchmark presets' 308 knee keys.
//! 5. **Chain certificates** — the chain the longest-path walk visits is
//!    a dependency path whose durations sum to the path, and its
//!    certificate (fixed cycles, DRAM words) taken at one bandwidth is at
//!    most the longest path, and so the makespan, at every other: the
//!    knee search's proof that a bandwidth's floor is over target.
//! 6. **The fixed-order pass is the event loop** — every batch graph is
//!    order-determinate (each resource's tasks with dependencies reach
//!    one another in id order), and its untraced replay, the engine's
//!    fixed-order pass, starts every task at the cycle the traced event
//!    loop does, at every bandwidth, port count and buffer tried.

use adagp_accel::designs::{baseline_batch_cycles, bp_batch_cycles, gp_batch_cycles};
use adagp_accel::layer_cost::{model_costs, LayerCost, PredictorCostModel};
use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::{model_shapes, InputScale, LayerShape};
use adagp_nn::models::CnnModel;
use adagp_sim::{model_sim_layers, simulate_batch, BatchGraph, Phase, SimConfig, TaskKind};
use adagp_tensor::Prng;

/// A random model: 1–12 conv/linear layers with channel counts and
/// spatial sizes spanning buffer-friendly through badly over-capacity
/// working sets.
fn random_shapes(rng: &mut Prng) -> Vec<LayerShape> {
    let n = 1 + (rng.next_u64() % 12) as usize;
    (0..n)
        .map(|i| {
            if rng.next_u64().is_multiple_of(4) {
                let in_f = 64 << (rng.next_u64() % 5); // 64..1024
                let out_f = 16 << (rng.next_u64() % 7); // 16..1024
                LayerShape::linear(format!("fc{i}"), in_f as usize, out_f as usize)
            } else {
                let in_ch = 1 + (rng.next_u64() % 512) as usize;
                let out_ch = 1 + (rng.next_u64() % 512) as usize;
                let spatial = 4 + (rng.next_u64() % 56) as usize;
                LayerShape::conv(format!("conv{i}"), in_ch, out_ch, 3, spatial)
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

const DATAFLOWS: [Dataflow; 4] = [
    Dataflow::WeightStationary,
    Dataflow::OutputStationary,
    Dataflow::InputStationary,
    Dataflow::RowStationary,
];

#[test]
fn makespan_is_monotone_in_bandwidth_and_buffer_and_bounded_by_analytic() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let mut rng = Prng::seed_from_u64(0x0C0F_FEE5);
    let cases = phases();
    // Ladders descend in capacity/bandwidth, so monotone non-increasing
    // makespan in the resource reads as non-decreasing along the ladder.
    let bandwidths = [1024u64, 256, 64, 16, 4];
    let buffers = [1u64 << 22, 1 << 17, 1 << 13];

    for case in 0..200 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let batch = 1 + (rng.next_u64() % 32) as usize;
        let (phase, design) = cases[case % cases.len()];
        let base = SimConfig {
            batch,
            ..SimConfig::no_contention()
        };
        let costs = model_costs(&acfg, df, &pred, &shapes, batch);
        let bound = analytic_batch(phase, design, &costs);

        // Contention off: exact equality, whatever the shapes.
        let free_layers = model_sim_layers(&acfg, df, &pred, &shapes, &base);
        let free = simulate_batch(phase, design, &free_layers, &base).makespan();
        assert_eq!(free, bound, "case {case}: {phase:?} {design:?} {df:?}");

        // Buffer ladder at fixed bandwidth: a bigger buffer never loses.
        for &bw in &[16u64, 256] {
            let mut prev = 0u64;
            for &buf in &buffers {
                let cfg = SimConfig {
                    buffer_words: Some(buf),
                    ..base.with_bandwidth(bw)
                };
                let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
                let span = simulate_batch(phase, design, &layers, &cfg).makespan();
                assert!(
                    span >= prev,
                    "case {case}: shrinking the buffer to {buf} words sped \
                     things up ({prev} -> {span} at bw {bw})"
                );
                assert!(span >= bound, "case {case}: {span} < analytic {bound}");
                prev = span;
            }
        }

        // Bandwidth ladder at fixed buffer: more bandwidth, never slower.
        for &buf in &[None, Some(1u64 << 15)] {
            let buffered = SimConfig {
                buffer_words: buf,
                ..base
            };
            let layers = model_sim_layers(&acfg, df, &pred, &shapes, &buffered);
            let mut prev = 0u64;
            for &bw in &bandwidths {
                let cfg = buffered.with_bandwidth(bw);
                let span = simulate_batch(phase, design, &layers, &cfg).makespan();
                assert!(
                    span >= prev,
                    "case {case}: lowering bandwidth to {bw} w/c sped the \
                     sim up ({prev} -> {span}, buffer {buf:?})"
                );
                assert!(span >= bound, "case {case}: {span} < analytic {bound}");
                prev = span;
            }
        }
    }
}

#[test]
fn port_counts_never_slow_the_simulation_down() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let mut rng = Prng::seed_from_u64(0x9047);
    for case in 0..40 {
        let shapes = random_shapes(&mut rng);
        let cfg = SimConfig {
            dram_words_per_cycle: Some(16),
            buffer_words: Some(1 << 14),
            ..SimConfig::default()
        };
        let layers = model_sim_layers(&acfg, Dataflow::WeightStationary, &pred, &shapes, &cfg);
        let (phase, design) = phases()[case % phases().len()];
        let single = simulate_batch(phase, design, &layers, &cfg).makespan();
        let multi = simulate_batch(
            phase,
            design,
            &layers,
            &SimConfig {
                dram_ports: 2,
                ..cfg
            },
        )
        .makespan();
        assert!(
            multi <= single,
            "case {case}: a second DRAM port slowed {phase:?} {design:?} \
             down ({single} -> {multi})"
        );
    }
}

#[test]
fn longest_path_bounds_every_makespan_and_never_grows_with_bandwidth() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let mut rng = Prng::seed_from_u64(0x10_4C57);
    // Ascending, so the path must be non-increasing along the ladder.
    let bandwidths = [1u64, 2, 7, 64, 1 << 20];
    let buffers = [None, Some(1u64 << 13), Some(1 << 17)];
    let mut checked = 0;
    for case in 0..200 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let batch = 1 + (rng.next_u64() % 32) as usize;
        let buffer = buffers[(rng.next_u64() % 3) as usize];
        for dram_ports in 1..=3 {
            let cfg = SimConfig {
                batch,
                dram_ports,
                buffer_words: buffer,
                ..SimConfig::default()
            };
            let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
            for (phase, design) in phases() {
                let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
                let mut prev = u64::MAX;
                for &bw in &bandwidths {
                    graph.set_bandwidth(bw);
                    let (path, span) = (graph.longest_path().0, graph.run().makespan);
                    let at = format!(
                        "case {case}: {phase:?} {design:?} at {bw} w/c, {dram_ports} ports, \
                         buffer {buffer:?}"
                    );
                    assert!(path <= span, "{at}: longest path {path} > makespan {span}");
                    assert!(path <= prev, "{at}: longest path grew {prev} -> {path}");
                    prev = path;
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 200 * 3 * phases().len() * bandwidths.len());
}

#[test]
fn without_contention_the_longest_path_is_the_makespan_of_every_zoo_graph() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let cfg = SimConfig::no_contention();
    let mut checked = 0;
    for model in CnnModel::all() {
        for scale in [InputScale::Cifar, InputScale::ImageNet] {
            let shapes = model_shapes(model, scale);
            for df in DATAFLOWS {
                let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
                for (phase, design) in phases() {
                    let graph = BatchGraph::build(phase, design, &layers, &cfg);
                    assert_eq!(
                        graph.longest_path().0,
                        graph.run().makespan,
                        "{model:?} {scale:?} {df:?} {phase:?} {design:?}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 13 * 2 * 4 * 7);
}

/// Checks property 5 on `graph` over `bandwidths`: at each, the visited
/// chain and its certificate against the graph itself; then every
/// certificate against the longest path and the makespan at every
/// bandwidth. Returns how many chains held more than one DRAM task (the
/// ones whose certificate rounds up less than their tasks do).
fn check_certificates(graph: &mut BatchGraph, bandwidths: &[u64], at: &str) -> usize {
    let mut multi = 0;
    let mut certs = Vec::new();
    for &bw in bandwidths {
        graph.set_bandwidth(bw);
        let mut chain = Vec::new();
        let path = graph.graph().longest_path(|t| chain.push(t));
        let (same, cert) = graph.longest_path();
        assert_eq!(same, path, "{at}, {bw} w/c");
        let g = graph.graph();
        for pair in chain.windows(2) {
            assert!(
                g.deps(pair[1]).any(|d| d == pair[0]),
                "{at}, {bw} w/c: {} does not wait on {}",
                pair[1],
                pair[0]
            );
        }
        assert!(chain.first().is_none_or(|&t| g.deps(t).next().is_none()));
        let sum: u64 = chain.iter().map(|&t| g.duration(t)).sum();
        assert_eq!(sum, path, "{at}, {bw} w/c: chain durations");
        let (dram, fixed): (Vec<usize>, Vec<usize>) = chain
            .iter()
            .partition(|&&t| matches!(g.kind(t), TaskKind::WeightLoad | TaskKind::Spill));
        let fixed: u64 = fixed.iter().map(|&t| g.duration(t)).sum();
        assert_eq!(cert.fixed_cycles, fixed, "{at}, {bw} w/c: fixed cycles");
        // At 1 w/c a DRAM task takes as many cycles as it has words.
        graph.set_bandwidth(1);
        let words: u64 = dram.iter().map(|&t| graph.graph().duration(t)).sum();
        assert_eq!(cert.dram_words, words, "{at}, {bw} w/c: DRAM words");
        multi += usize::from(dram.len() > 1);
        certs.push((bw, cert));
    }
    for &bw in bandwidths {
        graph.set_bandwidth(bw);
        let (path, span) = (graph.longest_path().0, graph.run().makespan);
        assert!(
            path <= span,
            "{at}, {bw} w/c: path {path} > makespan {span}"
        );
        for (taken, cert) in &certs {
            assert!(
                cert.cycles_at(bw) <= path,
                "{at}: chain taken at {taken} w/c bounds {} > path {path} at {bw} w/c",
                cert.cycles_at(bw)
            );
        }
    }
    multi
}

#[test]
fn a_chain_certificate_bounds_the_longest_path_at_every_bandwidth() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let bandwidths = [1u64, 3, 64, 1 << 20];
    // Every zoo model's batch graphs under the default channel and buffer.
    let cfg = SimConfig::default();
    let (mut checked, mut multi) = (0, 0);
    for model in CnnModel::all() {
        for scale in [InputScale::Cifar, InputScale::ImageNet] {
            let shapes = model_shapes(model, scale);
            for df in DATAFLOWS {
                let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
                for (phase, design) in phases() {
                    let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
                    let at = format!("{model:?} {scale:?} {df:?} {phase:?} {design:?}");
                    multi += check_certificates(&mut graph, &bandwidths, &at);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 13 * 2 * 4 * 7);
    // Seeded mixes, with buffers small enough that chains carry spills.
    let mut rng = Prng::seed_from_u64(0xCE27);
    let buffers = [None, Some(1u64 << 10), Some(1 << 13), Some(1 << 17)];
    for case in 0..200 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let cfg = SimConfig {
            batch: 1 + (rng.next_u64() % 32) as usize,
            dram_ports: 1 + (rng.next_u64() % 3) as u32,
            buffer_words: buffers[(rng.next_u64() % 4) as usize],
            ..SimConfig::default()
        };
        let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
        let (phase, design) = phases()[case % phases().len()];
        let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
        multi += check_certificates(&mut graph, &bandwidths, &format!("case {case}: {cfg:?}"));
    }
    assert!(multi > 0, "no chain carried two DRAM tasks");
}

/// Property 6 on `graph` at `bandwidths`: every task's start in the
/// untraced replay against the traced event loop's.
fn check_pass_is_the_loop(graph: &mut BatchGraph, bandwidths: &[u64], at: &str) {
    assert!(graph.graph().is_order_determinate(), "{at}");
    for &bw in bandwidths {
        graph.set_bandwidth(bw);
        let looped = graph.clone().simulate().result;
        let g = graph.graph();
        assert_eq!(g.start_times(), looped.start_of, "{at}, {bw} w/c");
        assert_eq!(graph.run().makespan, looped.makespan, "{at}, {bw} w/c");
    }
}

#[test]
fn every_batch_graph_is_order_determinate_and_its_pass_is_the_event_loop() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    // Every zoo configuration: the predicate does not read durations.
    let mut zoo = 0;
    for model in CnnModel::all() {
        for scale in [InputScale::Cifar, InputScale::ImageNet] {
            let shapes = model_shapes(model, scale);
            for df in DATAFLOWS {
                for buffer_words in [Some(1u64 << 17), Some(1 << 12), None] {
                    for dram_ports in [1, 2] {
                        let cfg = SimConfig {
                            buffer_words,
                            dram_ports,
                            ..SimConfig::default()
                        };
                        let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
                        for (phase, design) in phases() {
                            let graph = BatchGraph::build(phase, design, &layers, &cfg);
                            assert!(
                                graph.graph().is_order_determinate(),
                                "{model:?} {scale:?} {df:?} {phase:?} {design:?} {cfg:?}"
                            );
                            zoo += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(zoo, 13 * 2 * 4 * 3 * 2 * 7);
    // Seeded mixes, every schedule, 1-3 ports, buffers down to 1 Ki words.
    let mut rng = Prng::seed_from_u64(0x0F1F0);
    let buffers = [None, Some(1u64 << 10), Some(1 << 13), Some(1 << 17)];
    let mut multi_port_spills = 0;
    for case in 0..200 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let cfg = SimConfig {
            batch: 1 + (rng.next_u64() % 32) as usize,
            dram_ports: 1 + (rng.next_u64() % 3) as u32,
            buffer_words: buffers[(rng.next_u64() % 4) as usize],
            ..SimConfig::default()
        };
        let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
        if cfg.dram_ports > 1 && layers.iter().any(|l| l.spill_words > 0) {
            multi_port_spills += 1;
        }
        for (phase, design) in phases() {
            let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
            let at = format!("case {case}: {phase:?} {design:?} {cfg:?}");
            check_pass_is_the_loop(&mut graph, &[1, 3, 64, 1 << 20], &at);
        }
    }
    assert!(multi_port_spills > 0, "no mix spilled over two ports");
}
