//! The one measured-vs-sim harness: a pipelined training epoch measured
//! on the host, and the 3-stage pipeline it is simulated as, each stage
//! taking its measured mean duration. `critpath measured`,
//! `critpath diff` and `tests/obs_timeline.rs` all run these, so the
//! model, the data, the graph and the band exist once.

use adagp_core::{AdaGp, AdaGpConfig};
use adagp_nn::containers::Sequential;
use adagp_nn::layers::{Conv2d, Flatten, Linear, Relu};
use adagp_nn::optim::Sgd;
use adagp_obs as obs;
use adagp_runtime::StageReport;
use adagp_sim::{SimBuilder, SimResult, TaskKind, TaskSpec};
use adagp_tensor::{init, Prng, Tensor};

/// Batches in the measured epoch.
pub const EPOCH_BATCHES: usize = 12;

/// How far the simulated and the measured share of the bottleneck stage
/// may lie apart. Loose: wall clocks are noisy and the sim is idealized
/// (no queue-depth stalls, mean durations).
pub const AGREEMENT_BAND: f64 = 0.35;

/// Runs one pipelined epoch of [`EPOCH_BATCHES`] seeded batches through a
/// small conv model at queue depth 3 and returns the stage reports. The
/// default config warms up the whole epoch, so every batch runs all three
/// stages.
pub fn pipelined_epoch() -> Vec<StageReport> {
    let mut rng = Prng::seed_from_u64(5);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, true, &mut rng));
    m.push(Relu::new());
    m.push(Flatten::new());
    m.push(Linear::new(8 * 16 * 16, 10, true, &mut rng));
    let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut m, &mut rng);
    let mut opt = Sgd::new(0.02, 0.9);
    let mut data_rng = Prng::seed_from_u64(17);
    let data: Vec<(Tensor, Vec<usize>)> = (0..EPOCH_BATCHES)
        .map(|b| {
            (
                init::uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut data_rng),
                vec![b % 10; 4],
            )
        })
        .collect();
    let report =
        adagp.train_epoch_pipelined(&mut m, &mut opt, EPOCH_BATCHES, 3, |b| data[b].clone());
    assert_eq!(report.batches.len(), EPOCH_BATCHES);
    report.stages
}

/// [`pipelined_epoch`] with span recording on, and the recorder's
/// snapshot taken after it.
pub fn recorded_epoch() -> (Vec<StageReport>, obs::TraceSnapshot) {
    obs::set_enabled(true);
    let stages = pipelined_epoch();
    obs::set_enabled(false);
    (stages, obs::snapshot())
}

/// Simulates the measured pipeline: per batch, gen → train → predict,
/// each stage serialized on a unit resource of its own (resource `i` is
/// stage `i`, named after it) and taking the stage's mean measured
/// duration, in nanoseconds as cycles.
pub fn stage_pipeline_sim(stages: &[StageReport]) -> SimResult {
    let mean_ns = |r: &StageReport| (r.busy.as_nanos() as u64 / r.items.max(1)).max(1);
    let mut b = SimBuilder::new();
    let resources: Vec<_> = stages
        .iter()
        .map(|r| (b.add_resource(r.name.clone(), 1), mean_ns(r)))
        .collect();
    let mut prev: Option<usize> = None;
    for batch in 0..EPOCH_BATCHES {
        for (stage, &(resource, duration)) in resources.iter().enumerate() {
            // Each batch's first stage depends on nothing, every later
            // stage on the stage before it in the same batch.
            let deps = prev.filter(|_| stage > 0).into_iter().collect();
            prev = Some(b.add_task(TaskSpec {
                label: format!("{} b{batch}", stages[stage].name),
                kind: TaskKind::Forward,
                layer: None,
                resource: Some(resource),
                duration,
                deps,
                buffer_delta: 0,
            }));
        }
    }
    b.simulate()
}
