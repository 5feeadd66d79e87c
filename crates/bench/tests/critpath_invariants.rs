//! Critical-path invariants, integration-level: the zero-slack chain
//! walk (`adagp_sim::critical_path` → `adagp_obs::crit`) must reproduce
//! the simulated makespan **bit-exactly** — not approximately — on every
//! cell of the fig17 grid and on seeded random contention mixes, and its
//! blame table must be a true partition of the makespan:
//!
//! 1. **Bit-exact chain** — summed chain-segment durations equal the
//!    engine's makespan, per cell × phase, with the full
//!    `validate_critpath` machine-check (contiguity, blame partition,
//!    queue-wait consistency) green on the serialized report.
//! 2. **Fractions partition** — blame fractions sum to 1 within 1e-9
//!    whenever the makespan is nonzero.
//! 3. **Bandwidth monotonicity of DRAM blame** — raising the DRAM
//!    bandwidth never *lengthens* the time the zero-slack chain spends
//!    on the dram lane (equivalently: walking the ladder down in
//!    bandwidth, dram blame is monotone non-decreasing), checked on the
//!    same seeded mixes as `contention_properties.rs`.

use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::LayerShape;
use adagp_obs::crit::{CritReport, FRACTION_TOLERANCE};
use adagp_sim::{critical_path, model_sim_layers, simulate_batch, Phase, SimConfig};
use adagp_sweep::presets;
use adagp_sweep::shapes::cached_shapes;
use adagp_tensor::Prng;

/// Asserts every chain/blame invariant on one finished batch sim and
/// returns the report for further inspection.
fn checked_report(sim: &adagp_sim::BatchSim, context: &str) -> CritReport {
    let report = critical_path(&sim.result, context);
    assert_eq!(
        report.makespan,
        sim.makespan(),
        "{context}: report disagrees with the engine"
    );
    let chain_sum: u64 = report.chain.iter().map(|c| c.end - c.start).sum();
    assert_eq!(
        chain_sum,
        sim.makespan(),
        "{context}: chain is not bit-exact"
    );
    let blame_sum: u64 = report.blame.iter().map(|b| b.time).sum();
    assert_eq!(
        blame_sum,
        sim.makespan(),
        "{context}: blame does not partition the makespan"
    );
    if sim.makespan() > 0 {
        let fractions: f64 = report.blame.iter().map(|b| b.fraction).sum();
        assert!(
            (fractions - 1.0).abs() <= FRACTION_TOLERANCE,
            "{context}: blame fractions sum to {fractions}"
        );
    }
    adagp_obs::validate_critpath(&report.to_json())
        .unwrap_or_else(|e| panic!("{context}: serialized report invalid: {e}"));
    report
}

/// Total chain time blamed on the DRAM lane.
fn dram_blame(report: &CritReport) -> u64 {
    report
        .blame
        .iter()
        .filter(|b| b.lane == "dram")
        .map(|b| b.time)
        .sum()
}

#[test]
fn fig17_chains_are_bit_exact_for_every_cell_and_phase() {
    let grid = presets::speedup_figure(Dataflow::WeightStationary);
    let cells = grid.expand();
    assert_eq!(cells.len(), 117, "fig17 grid changed shape");
    let cfg = SimConfig::default();
    let checked: usize = adagp_runtime::pool()
        .parallel_map(cells, |spec| {
            let cell_cfg = adagp_sweep::cell_sim_config(&spec, &cfg);
            let layers = model_sim_layers(
                &AcceleratorConfig::default(),
                spec.dataflow,
                &PredictorCostModel::default(),
                &cached_shapes(spec.model, spec.dataset.input_scale()),
                &cell_cfg,
            );
            for (phase, design) in [
                (Phase::Baseline, None),
                (Phase::Bp, Some(spec.design)),
                (Phase::Gp, Some(spec.design)),
            ] {
                let sim = simulate_batch(phase, design, &layers, &cell_cfg);
                checked_report(&sim, &format!("{} {}", spec.key(), phase.name()));
            }
            3usize
        })
        .into_iter()
        .sum();
    assert_eq!(checked, 117 * 3);
}

/// The `contention_properties.rs` random model generator, verbatim: the
/// chain invariant must hold on the same distribution the monotonicity
/// properties are proven over.
fn random_shapes(rng: &mut Prng) -> Vec<LayerShape> {
    let n = 1 + (rng.next_u64() % 12) as usize;
    (0..n)
        .map(|i| {
            if rng.next_u64().is_multiple_of(4) {
                let in_f = 64 << (rng.next_u64() % 5);
                let out_f = 16 << (rng.next_u64() % 7);
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

const DATAFLOWS: [Dataflow; 4] = [
    Dataflow::WeightStationary,
    Dataflow::OutputStationary,
    Dataflow::InputStationary,
    Dataflow::RowStationary,
];

#[test]
fn seeded_contention_mixes_hold_the_chain_invariant() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let mut rng = Prng::seed_from_u64(0x0C0F_FEE5);
    let cases = phases();
    let bandwidths = [1024u64, 256, 64, 16, 4];
    let buffers = [1u64 << 22, 1 << 17, 1 << 13];
    for case in 0..200 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let batch = 1 + (rng.next_u64() % 32) as usize;
        let (phase, design) = cases[case % cases.len()];
        let cfg = SimConfig {
            batch,
            dram_words_per_cycle: Some(bandwidths[case % bandwidths.len()]),
            buffer_words: Some(buffers[case % buffers.len()]),
            ..SimConfig::default()
        };
        let layers = model_sim_layers(&acfg, df, &pred, &shapes, &cfg);
        let sim = simulate_batch(phase, design, &layers, &cfg);
        checked_report(&sim, &format!("case {case} ({phase:?} {design:?} {df:?})"));
    }
}

#[test]
fn more_bandwidth_never_lengthens_dram_blame() {
    let acfg = AcceleratorConfig::default();
    let pred = PredictorCostModel::default();
    let mut rng = Prng::seed_from_u64(0x0C0F_FEE5);
    let cases = phases();
    // Descending bandwidth: dram blame must be monotone non-decreasing
    // along the ladder (more bandwidth never adds DRAM time to the
    // zero-slack chain, just as it never lengthens the makespan).
    let bandwidths = [1024u64, 256, 64, 16, 4];
    for case in 0..40 {
        let shapes = random_shapes(&mut rng);
        let df = DATAFLOWS[(rng.next_u64() % 4) as usize];
        let batch = 1 + (rng.next_u64() % 32) as usize;
        let (phase, design) = cases[case % cases.len()];
        let base = SimConfig {
            batch,
            buffer_words: Some(1 << 15),
            ..SimConfig::default()
        };
        let layers = model_sim_layers(&acfg, df, &pred, &shapes, &base);
        let mut prev = 0u64;
        for &bw in &bandwidths {
            let cfg = SimConfig {
                dram_words_per_cycle: Some(bw),
                ..base
            };
            let sim = simulate_batch(phase, design, &layers, &cfg);
            let report = checked_report(&sim, &format!("case {case} bw {bw}"));
            let blame = dram_blame(&report);
            assert!(
                blame >= prev,
                "case {case}: raising bandwidth to {bw} w/c lengthened dram \
                 blame ({prev} -> {blame}) for {phase:?} {design:?} {df:?}"
            );
            prev = blame;
        }
    }
}
