//! Closing the loop between measured and simulated timelines.
//!
//! 1. A pipelined training epoch recorded by `adagp-obs` must export a
//!    Chrome trace that parses under the workspace's own `serde::json`
//!    reader (the same one the sim trace tests use) and whose spans nest
//!    well-formed per lane — the "measured trace is Perfetto-loadable"
//!    gate.
//! 2. The measured stage occupancies from `PipelineStats` are compared
//!    against what `adagp-sim` predicts for a 3-stage pipeline with the
//!    measured mean stage durations. The anchor is the bottleneck stage
//!    (whichever has the largest mean duration — it flips between
//!    `train` and `predictor` across debug/release profiles): both
//!    domains must agree it runs hot. The band is loose (wall clocks
//!    are noisy; the sim is idealized), but the test is non-degenerate:
//!    both occupancies must exceed 0.5 and agree to within
//!    `AGREEMENT_BAND`.
//!
//! The epoch, the stage graph and the band are `critpath diff`'s, from
//! `adagp_bench::stage_pipeline`.

use adagp_bench::stage_pipeline::{
    pipelined_epoch, recorded_epoch, stage_pipeline_sim, AGREEMENT_BAND,
};
use adagp_obs as obs;

#[test]
fn measured_trace_is_parseable_and_well_nested() {
    let _g = obs::test_guard();
    let (stages, snap) = recorded_epoch();
    assert_eq!(stages.len(), 3);

    assert!(snap.span_count() > 0, "pipelined epoch recorded no spans");
    let text = obs::chrome_trace(&snap, "pipelined epoch (measured)");
    let stats = obs::validate_chrome_trace(&text).expect("measured trace must validate");
    assert!(stats.spans > 0);
    assert!(
        stats.lanes >= 3,
        "expected main + datagen + predictor lanes, got {}",
        stats.lanes
    );
    // The named stage threads surfaced as named lanes.
    assert!(text.contains("adagp-datagen"), "datagen lane missing");
    assert!(text.contains("adagp-predictor"), "predictor lane missing");
    // Stage spans from all three stages made it in.
    for stage in ["datagen", "train", "predictor"] {
        assert!(
            snap.lanes
                .iter()
                .any(|l| l.spans.iter().any(|s| s.cat == "stage" && s.name == stage)),
            "no `{stage}` stage span recorded"
        );
    }
}

#[test]
fn measured_bottleneck_occupancy_matches_sim_prediction() {
    let _g = obs::test_guard();
    let stages = pipelined_epoch();

    // The 3-stage pipeline in adagp-sim, each stage taking its measured
    // mean duration; resource `i` is stage `i`.
    let result = stage_pipeline_sim(&stages);

    // Anchor on the bottleneck (the stage with the largest mean duration,
    // hence the most busy cycles): everything else waits on it, so both
    // the measurement and the prediction must put its occupancy high.
    let bottleneck = (0..stages.len())
        .max_by_key(|&r| result.busy[r])
        .expect("three stages");
    let measured = stages[bottleneck].utilization();
    let predicted = result.utilization(bottleneck);
    assert!(
        measured > 0.0 && measured <= 1.0,
        "degenerate measured occupancy {measured}"
    );
    assert!(
        predicted > 0.0 && predicted <= 1.0,
        "degenerate predicted occupancy {predicted}"
    );

    // Loose agreement: the sim is an idealized pipeline (no queue-depth
    // stalls, mean durations), the measurement is wall clock on a shared
    // machine — but they must describe the same pipeline.
    assert!(
        (measured - predicted).abs() < AGREEMENT_BAND,
        "measured `{}` occupancy {measured:.3} vs sim prediction {predicted:.3}",
        stages[bottleneck].name
    );
    // Non-degeneracy of the comparison itself: a pipeline bottleneck
    // runs hot in both domains.
    assert!(
        measured > 0.5 && predicted > 0.5,
        "bottleneck `{}` not hot: measured {measured:.3}, predicted {predicted:.3}",
        stages[bottleneck].name
    );
}
