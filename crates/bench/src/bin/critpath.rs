//! `critpath` — critical-path and stall attribution over simulated and
//! measured timelines (`obs::crit`, the `adagp-critpath-v1` schema).
//!
//! ```text
//! critpath sim      [simulator flags] [--trace PATH] [--json PATH] [--top N]
//! critpath measured [--threshold-us N] [--json PATH] [--top N]
//! critpath diff     [--report-only] [--json PATH] [--sim-json PATH]
//! ```
//!
//! * `sim` simulates one cell's batch (the simulator flags of
//!   `adagp_bench::cli`) and walks its zero-slack chain; the walk must
//!   reproduce the simulated makespan **bit-exactly** (an error, exit 2,
//!   otherwise). It prints the blame report, the per-resource
//!   utilization report and the first 40 rows of the span table (a
//!   textual Gantt chart). `--json` writes the report as
//!   `adagp-critpath-v1`, and `--trace` the Chrome trace for
//!   `chrome://tracing` / Perfetto (1 cycle = 1 µs on the viewer's axis,
//!   one lane per resource port). The same invariants over every fig17
//!   cell and phase are `tests/critpath_invariants.rs`.
//! * `measured` runs the pipelined training epoch of
//!   `adagp_bench::stage_pipeline` in-process with span recording on,
//!   folds the recorded lanes into busy/queue-wait/idle segments
//!   (threshold: `--threshold-us`, defaulting to the pool's queue-wait
//!   histogram p95) and prints the same report shape.
//! * `diff` runs both: the measured epoch, then the 3-stage pipeline sim
//!   parameterized by the measured mean stage durations, and pairs each
//!   stage's sim-predicted blame fraction with its measured busy
//!   fraction. The bottleneck stage must agree in name and within
//!   `AGREEMENT_BAND` (0.35, the band `obs_timeline.rs` checks
//!   occupancies in) — exit 1 on disagreement unless `--report-only`.
//!
//! A closed stdout (a reader such as `head` that quit early) is not an
//! error: printing stops, and the run still writes every file it was
//! asked for and exits with the status it would otherwise have had.

use adagp_bench::cli::{number, value, SimFlags};
use adagp_bench::stage_pipeline::{
    recorded_epoch, stage_pipeline_sim, AGREEMENT_BAND, EPOCH_BATCHES,
};
use adagp_obs as obs;
use adagp_obs::crit::CritReport;
use adagp_sim::report::{span_table, utilization_report};
use adagp_sim::{critical_path, simulate_batch, write_chrome_trace};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "\
Usage: critpath sim      [--model VGG13] [--dataset cifar10|cifar100|imagenet]
                         [--design low|efficient|max] [--dataflow ws|os|is|rs]
                         [--phase baseline|bp|gp] [--no-contention] [--bandwidth N]
                         [--buffer-words N] [--dram-ports N] [--trace PATH]
                         [--json PATH] [--top N]
       critpath measured [--threshold-us N] [--json PATH] [--top N]
       critpath diff     [--report-only] [--json PATH] [--sim-json PATH]
";

/// `print!` that stops printing, instead of panicking, once stdout is
/// closed.
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` on `out!`.
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

fn write_stdout(args: std::fmt::Arguments) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if !CLOSED.load(Ordering::Relaxed) && std::io::stdout().write_fmt(args).is_err() {
        CLOSED.store(true, Ordering::Relaxed);
    }
}

struct SimOptions {
    sim: SimFlags,
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
    top: usize,
}

struct MeasuredOptions {
    threshold_us: Option<u64>,
    json: Option<PathBuf>,
    top: usize,
}

struct DiffOptions {
    report_only: bool,
    json: Option<PathBuf>,
    sim_json: Option<PathBuf>,
}

fn parse_sim_args(args: &[String]) -> Result<SimOptions, String> {
    let mut opt = SimOptions {
        sim: SimFlags::default(),
        trace: None,
        json: None,
        top: 10,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => opt.trace = Some(PathBuf::from(value("--trace", &mut it)?)),
            "--json" => opt.json = Some(PathBuf::from(value("--json", &mut it)?)),
            "--top" => opt.top = number("--top", &mut it)?,
            "--help" | "-h" => return Err("help".to_string()),
            other => {
                if !opt.sim.flag(other, &mut it)? {
                    return Err(format!("unexpected argument `{other}`"));
                }
            }
        }
    }
    Ok(opt)
}

fn parse_measured_args(args: &[String]) -> Result<MeasuredOptions, String> {
    let mut opt = MeasuredOptions {
        threshold_us: None,
        json: None,
        top: 10,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold-us" => opt.threshold_us = Some(number("--threshold-us", &mut it)?),
            "--json" => opt.json = Some(PathBuf::from(value("--json", &mut it)?)),
            "--top" => opt.top = number("--top", &mut it)?,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opt)
}

fn parse_diff_args(args: &[String]) -> Result<DiffOptions, String> {
    let mut opt = DiffOptions {
        report_only: false,
        json: None,
        sim_json: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report-only" => opt.report_only = true,
            "--json" => opt.json = Some(PathBuf::from(value("--json", &mut it)?)),
            "--sim-json" => opt.sim_json = Some(PathBuf::from(value("--sim-json", &mut it)?)),
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opt)
}

/// Writes a report as `adagp-critpath-v1`, re-validating it on the way
/// out so a file this binary produced always machine-checks.
fn write_report(path: &PathBuf, report: &CritReport) -> Result<(), String> {
    let json = report.to_json();
    obs::validate_critpath(&json).map_err(|e| format!("self-check failed: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    outln!("wrote {} report to {}", report.mode, path.display());
    Ok(())
}

/// Critical-path of one simulated batch, with the bit-exact chain
/// invariant enforced.
fn sim_report(sim: &adagp_sim::BatchSim, title: &str) -> Result<CritReport, String> {
    let report = critical_path(&sim.result, title);
    let chain_sum: u64 = report.chain.iter().map(|c| c.end - c.start).sum();
    if chain_sum != sim.result.makespan {
        return Err(format!(
            "{title}: chain sums to {chain_sum} cycles, makespan is {} — zero-slack walk broken",
            sim.result.makespan
        ));
    }
    obs::validate_critpath(&report.to_json()).map_err(|e| format!("{title}: {e}"))?;
    Ok(report)
}

fn run_sim(opt: &SimOptions) -> Result<(), String> {
    let flags = &opt.sim;
    let sim = simulate_batch(
        flags.phase,
        flags.design(),
        &flags.layers(),
        &flags.config(),
    );
    let title = flags.title();
    let report = sim_report(&sim, &title)?;
    out!("{}", report.render(opt.top));
    outln!();
    out!("{}", utilization_report(&sim));
    outln!();
    out!("{}", span_table(&sim.result, 40));
    if let Some(path) = &opt.trace {
        write_chrome_trace(path, &sim.result, &title)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outln!(
            "\nwrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &opt.json {
        write_report(path, &report)?;
    }
    Ok(())
}

/// Folds the recorded epoch into the measured report: lanes renamed to
/// their dominant pipeline stage, gaps classified by the explicit
/// threshold or the pool's queue-wait p95.
fn measured_report(
    snap: &obs::TraceSnapshot,
    threshold_us: Option<u64>,
    title: &str,
) -> (CritReport, Option<u64>) {
    let threshold_ns = threshold_us
        .map(|us| us * 1000)
        .or_else(obs::measured_gap_threshold_ns);
    let staged = obs::relabel_lanes_by_cat(snap, "stage");
    (
        obs::analyze_snapshot(&staged, threshold_ns, title),
        threshold_ns,
    )
}

fn run_measured(opt: &MeasuredOptions) -> Result<(), String> {
    let (_stages, snap) = recorded_epoch();
    let (report, threshold_ns) = measured_report(
        &snap,
        opt.threshold_us,
        &format!("pipelined epoch ({EPOCH_BATCHES} batches, measured)"),
    );
    match threshold_ns {
        Some(t) => outln!("gap classifier threshold: {t} ns"),
        None => outln!("gap classifier threshold: none (all gaps idle)"),
    }
    out!("{}", report.render(opt.top));
    if report.lanes.is_empty() {
        return Err("no measured lanes recorded".into());
    }
    if let Some(path) = &opt.json {
        write_report(path, &report)?;
    }
    Ok(())
}

fn run_diff(opt: &DiffOptions) -> Result<bool, String> {
    let (stages, snap) = recorded_epoch();
    let (measured, _) = measured_report(
        &snap,
        None,
        &format!("pipelined epoch ({EPOCH_BATCHES} batches, measured)"),
    );

    // The sim side: the same idealized 3-stage pipeline obs_timeline.rs
    // checks occupancies against.
    let result = stage_pipeline_sim(&stages);
    let sim = critical_path(
        &result,
        &format!("pipelined epoch ({EPOCH_BATCHES} batches, sim)"),
    );
    let chain_sum: u64 = sim.chain.iter().map(|c| c.end - c.start).sum();
    if chain_sum != result.makespan {
        return Err(format!(
            "sim chain sums to {chain_sum}, makespan is {} — zero-slack walk broken",
            result.makespan
        ));
    }

    // Pair per stage: the sim column is the stage's share of the
    // simulated critical path; the measured column is the stage lane's
    // busy share of its extent. For the bottleneck stage both approach
    // its occupancy, which is where the verdict anchors.
    outln!(
        "critpath diff: {EPOCH_BATCHES} batches; stage blame fractions (sim chain share vs measured busy share)"
    );
    outln!(
        "  {:<14} {:>10} {:>10} {:>8}",
        "stage",
        "sim",
        "measured",
        "delta"
    );
    for stage in &stages {
        let s = sim.lane_fraction(&stage.name);
        let m = measured
            .lanes
            .iter()
            .find(|l| l.name == stage.name)
            .map_or(0.0, |l| {
                if l.extent == 0 {
                    0.0
                } else {
                    l.busy as f64 / l.extent as f64
                }
            });
        outln!(
            "  {:<14} {:>9.1}% {:>9.1}% {:>+7.1}%",
            stage.name,
            s * 100.0,
            m * 100.0,
            (s - m) * 100.0
        );
    }

    let sim_bottleneck = stages
        .iter()
        .max_by(|a, b| {
            sim.lane_fraction(&a.name)
                .partial_cmp(&sim.lane_fraction(&b.name))
                .unwrap()
        })
        .expect("stages");
    let measured_bottleneck = measured
        .lanes
        .iter()
        .filter(|l| stages.iter().any(|s| s.name == l.name))
        .max_by(|a, b| {
            let occ = |l: &&obs::MeasuredLane| {
                if l.extent == 0 {
                    0.0
                } else {
                    l.busy as f64 / l.extent as f64
                }
            };
            occ(a).partial_cmp(&occ(b)).unwrap()
        })
        .ok_or("no measured lane carries a stage name")?;
    let s_frac = sim.lane_fraction(&sim_bottleneck.name);
    let m_frac = if measured_bottleneck.extent == 0 {
        0.0
    } else {
        measured_bottleneck.busy as f64 / measured_bottleneck.extent as f64
    };
    let agree = sim_bottleneck.name == measured_bottleneck.name
        && (s_frac - m_frac).abs() <= AGREEMENT_BAND;
    outln!(
        "bottleneck: sim says {} ({:.1}%), measured says {} ({:.1}%) -> {}",
        sim_bottleneck.name,
        s_frac * 100.0,
        measured_bottleneck.name,
        m_frac * 100.0,
        if agree { "agree" } else { "DISAGREE" }
    );

    if let Some(path) = &opt.json {
        write_report(path, &measured)?;
    }
    if let Some(path) = &opt.sim_json {
        write_report(path, &sim)?;
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let _trace = obs::trace_guard_from_env("critpath");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd {
        "sim" => parse_sim_args(rest).and_then(|opt| run_sim(&opt).map(|()| true)),
        "measured" => parse_measured_args(rest).and_then(|opt| run_measured(&opt).map(|()| true)),
        "diff" => parse_diff_args(rest).and_then(|opt| {
            let report_only = opt.report_only;
            run_diff(&opt).map(|agree| {
                if !agree && report_only {
                    outln!("report-only: disagreement not enforced");
                }
                agree || report_only
            })
        }),
        "--help" | "-h" | "help" => {
            out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("critpath: unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) if msg == "help" => {
            out!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("critpath: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
