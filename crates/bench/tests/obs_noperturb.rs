//! The no-perturbation contract of `adagp-obs`: turning span recording
//! on must not change a single output bit.
//!
//! Two representative workloads are checked, each at `ADAGP_THREADS ∈
//! {1, 4}` (via the `with_threads` override, so the environment stays
//! untouched):
//!
//! * a pool-parallel tensor kernel chain (the instrumented
//!   `scope_run` hot path), compared bit-for-bit;
//! * the smoke sweep grid's CSV (per-cell spans plus histograms on the
//!   instrumented runner), compared byte-for-byte with the committed
//!   golden, and each smoke cell's unmemoized `simulate_cell` columns,
//!   traced against untraced bit for bit.
//!
//! The recorder is process-global, so the tests serialize on
//! `obs::test_guard()`, which also leaves recording disabled and the
//! lanes clear for whoever runs next.

use adagp_obs as obs;
use adagp_runtime::with_threads;
use adagp_sim::SimConfig;
use adagp_sweep::{presets, runner, simeval, store};
use adagp_tensor::{init, Prng};

/// Runs `f` with span recording forced on or off, restoring "off" after.
fn with_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
    obs::set_enabled(on);
    let r = f();
    obs::set_enabled(false);
    r
}

/// A deterministic pool-parallel kernel chain, reduced to raw bits.
fn kernel_bits() -> Vec<u32> {
    let mut rng = Prng::seed_from_u64(11);
    let a = init::uniform(&[96, 64], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[64, 80], -1.0, 1.0, &mut rng);
    let c = a.matmul(&b); // [96, 80]
    let d = c.matmul_tn(&a); // c^T a: [80, 64]
    let e = d.matmul_nt(&a); // d a^T: [80, 96]
    e.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn kernels_are_bit_identical_with_tracing_on() {
    let _g = obs::test_guard();
    for threads in [1usize, 4] {
        let plain = with_threads(threads, || with_tracing(false, kernel_bits));
        let traced = with_threads(threads, || with_tracing(true, kernel_bits));
        assert_eq!(
            plain, traced,
            "tracing perturbed kernels at {threads} threads"
        );
    }
}

#[test]
fn sweep_csv_is_byte_identical_with_tracing_on() {
    let _g = obs::test_guard();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/testdata/sweep_smoke_golden.csv"
    ))
    .expect("committed golden CSV");
    let csv = |on: bool| {
        with_tracing(on, || {
            store::to_csv_string(&runner::run_grid(&presets::smoke()))
        })
    };
    let sim_bits = |on: bool| {
        with_tracing(on, || {
            adagp_runtime::pool().parallel_map(presets::smoke().expand(), |spec| {
                let d = simeval::simulate_cell(&spec, &SimConfig::default());
                [
                    d.sim_cycles,
                    d.pe_utilization,
                    d.overlap_efficiency,
                    d.spill_cycles,
                ]
                .map(f64::to_bits)
            })
        })
    };
    // No other test in this binary evaluates a cell, so the first traced
    // run is the process's cold one: its simulations and knee searches
    // run with recording on. Later runs read the sweep's memos, so the
    // untraced side of the sweep CSV is the committed golden (the
    // untraced evaluation `sweep_golden.rs` holds to it), and the
    // simulator is compared again through `simulate_cell`, which
    // compiles and replays on every call.
    for threads in [1usize, 4] {
        let traced = with_threads(threads, || csv(true));
        assert_eq!(
            traced, golden,
            "tracing perturbed the sweep at {threads} threads"
        );
        assert_eq!(with_threads(threads, || csv(false)), golden);
        assert_eq!(
            with_threads(threads, || sim_bits(true)),
            with_threads(threads, || sim_bits(false)),
            "tracing perturbed the simulator at {threads} threads"
        );
    }
    // The traced arms actually recorded something — the comparison above
    // must not pass vacuously because instrumentation was compiled out.
    assert!(
        obs::snapshot().span_count() > 0,
        "traced runs recorded no spans: the no-perturb check is vacuous"
    );
}
