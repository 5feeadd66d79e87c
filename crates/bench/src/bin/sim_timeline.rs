//! `sim_timeline` — simulate one training-step schedule layer by layer
//! and show where the overlap lands: the per-task Gantt timeline, the
//! per-resource utilization report and (optionally) a Chrome-trace JSON
//! for `chrome://tracing` / Perfetto.
//!
//! ```text
//! sim_timeline [--model VGG13] [--dataset cifar10|cifar100|imagenet]
//!              [--design low|efficient|max] [--dataflow ws|os|is|rs]
//!              [--phase baseline|bp|gp] [--no-contention]
//!              [--bandwidth N] [--buffer-words N] [--dram-ports N]
//!              [--limit N] [--trace out.json]
//! ```
//!
//! Defaults simulate VGG13 / CIFAR10 / ADA-GP-MAX / WS / Phase GP with
//! DRAM contention enabled (64 words/cycle, 128K-word buffer).
//! `--bandwidth`, `--buffer-words` and `--dram-ports` steer the
//! contention axes; `--no-contention` disables the DRAM channel (and
//! with it all spill traffic). Time stamps in the exported trace are
//! cycles (1 cycle = 1 µs in the viewer's axis).

use adagp_bench::cli::{number, value, SimFlags};
use adagp_sim::{report, simulate_batch, write_chrome_trace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    sim: SimFlags,
    limit: usize,
    trace: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opt = Options {
        sim: SimFlags::default(),
        limit: 40,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--limit" => opt.limit = number("--limit", &mut it)?,
            "--trace" => opt.trace = Some(PathBuf::from(value("--trace", &mut it)?)),
            "--help" | "-h" => {
                return Err("help".to_string());
            }
            other => {
                if !opt.sim.flag(other, &mut it)? {
                    return Err(format!("unexpected argument `{other}`"));
                }
            }
        }
    }
    Ok(opt)
}

const USAGE: &str = "\
Usage: sim_timeline [--model VGG13] [--dataset cifar10|cifar100|imagenet]
                    [--design low|efficient|max] [--dataflow ws|os|is|rs]
                    [--phase baseline|bp|gp] [--no-contention]
                    [--bandwidth N] [--buffer-words N] [--dram-ports N]
                    [--limit N] [--trace out.json]
";

fn main() -> ExitCode {
    let _trace = adagp_obs::trace_guard_from_env("sim_timeline");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) if msg == "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("sim_timeline: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let flags = &opt.sim;
    let cfg = flags.config();
    let layers = flags.layers();
    let sim = simulate_batch(flags.phase, flags.design(), &layers, &cfg);

    println!(
        "sim_timeline: {} on {} ({} dataflow), one {} batch of {} samples, {} layers",
        flags.model.name(),
        flags.dataset.name(),
        flags.dataflow.name(),
        flags.phase.name(),
        cfg.batch,
        layers.len()
    );
    print!("{}", report::utilization_report(&sim));
    println!();
    print!("{}", report::span_table(&sim.result, opt.limit));

    if let Some(path) = &opt.trace {
        let title = flags.title();
        if let Err(e) = write_chrome_trace(path, &sim.result, &title) {
            eprintln!("sim_timeline: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "\nwrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    ExitCode::SUCCESS
}
