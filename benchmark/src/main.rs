//! The repo's benchmark: training, cold sweeps and served grids measured
//! end to end from outside, with a separate traced run for the per-layer
//! breakdown. See `benchmark/README.md`.
//!
//! ```text
//! adagp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! adagp-benchmark run     [--seed <n>] [--seconds <s>] [--quick] [--repeat <k>] [--out <file>]
//! adagp-benchmark trace   [--seed <n>] [--seconds <s>] [--quick] [--repeat <k>] [--out <file>]
//! adagp-benchmark compare <parent.json> <change.json>
//! ```
//!
//! The first form is the driver's contract: one workload, one JSON object
//! as the last line of standard output. Every workload runs in child
//! processes of this one (`child` is the internal subcommand they run).

mod alloc;
mod compare;
mod probes;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod train;

use report::{Metric, Samples};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `ADAGP_THREADS` of every child process.
pub const CHILD_THREADS: usize = 2;
/// The run length (`run_seconds` of `BENCHMARK.json`) the operation counts
/// of each workload are sized for; another `--seconds` scales the counts.
pub const REFERENCE_SECONDS: f64 = 20.0;
/// `--quick` divides the counts by this and stamps the results
/// non-comparable.
const QUICK_DIVISOR: f64 = 8.0;
/// Where children write logs and traces, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

pub const WORKLOADS: [&str; 4] = ["train_vgg", "train_mobilenet", "sweep_cold", "serve_grid"];

/// End-to-end metrics: `(name, unit, better, bound)`, as in
/// `BENCHMARK.json`. The names are generic because the driver wants every
/// one from every workload; `README.md` maps them onto each workload.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("fast_ops_per_s", "1/s", "higher", 0.25),
    ("cold_ops_per_s", "1/s", "higher", 0.25),
    ("fast_op_ms_p50", "ms", "lower", 0.25),
    ("cold_op_ms_p50", "ms", "lower", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`, as in `BENCHMARK.json`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 94] = [
    ("host.fma_gflops", "GFLOP/s", "higher"),
    ("host.stream_gb_per_s", "GB/s", "higher"),
    ("runtime.region_dispatch_us", "us", "lower"),
    ("runtime.parallel_map_items_per_s", "1/s", "higher"),
    ("runtime.queue_handoff_us", "us", "lower"),
    ("tensor.conv_fw_ms", "ms", "lower"),
    ("tensor.conv_bw_data_ms", "ms", "lower"),
    ("tensor.conv_bw_weight_ms", "ms", "lower"),
    ("tensor.conv_fw_gflops", "GFLOP/s", "higher"),
    ("tensor.conv_bw_data_gflops", "GFLOP/s", "higher"),
    ("tensor.conv_bw_weight_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_nt_gflops", "GFLOP/s", "higher"),
    ("tensor.batchnorm_gb_per_s", "GB/s", "higher"),
    ("tensor.conv_fw_peak_frac", "ratio", "higher"),
    ("tensor.conv_bw_weight_peak_frac", "ratio", "higher"),
    ("tensor.flops_per_batch", "count", "lower"),
    ("tensor.bytes_per_batch", "B", "lower"),
    ("nn.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.opt_step_ms", "ms", "lower"),
    ("nn.datagen_ms", "ms", "lower"),
    ("nn.loss_ms", "ms", "lower"),
    ("nn.forward_self_ms_est", "ms", "lower"),
    ("nn.backward_self_ms_est", "ms", "lower"),
    ("nn.allocs_per_forward", "count", "lower"),
    ("nn.allocs_per_backward", "count", "lower"),
    ("nn.alloc_mb_per_forward", "MiB", "lower"),
    ("core.predictor_train_ms", "ms", "lower"),
    ("core.apply_predicted_ms", "ms", "lower"),
    ("core.predict_site_us", "us", "lower"),
    ("core.train_site_us", "us", "lower"),
    ("core.reorg_us", "us", "lower"),
    ("core.predictor_rows_per_s", "1/s", "higher"),
    ("core.predictor_share_gp", "ratio", "lower"),
    ("core.predictor_share_bp", "ratio", "lower"),
    ("core.gp_batch_ms_hi", "ms", "lower"),
    ("core.bp_batch_ms_hi", "ms", "lower"),
    ("core.gp_over_baseline_batch", "ratio", "lower"),
    ("core.adagp_vs_baseline", "ratio", "higher"),
    ("core.pipe_gain", "ratio", "higher"),
    ("core.pipe_datagen_util", "ratio", "higher"),
    ("core.pipe_train_util", "ratio", "higher"),
    ("core.pipe_predictor_util", "ratio", "higher"),
    ("core.allocs_per_gp_batch", "count", "lower"),
    ("core.allocs_per_bp_batch", "count", "lower"),
    ("accel.cycles_call_us", "us", "lower"),
    ("accel.energy_call_us", "us", "lower"),
    ("accel.share_of_cold_cell", "ratio", "lower"),
    ("sim.simulate_batch_us", "us", "lower"),
    ("sim.tasks_per_s", "1/s", "higher"),
    ("sim.tasks_per_batch", "count", "lower"),
    ("sim.build_layers_us", "us", "lower"),
    ("sim.step_sim_us", "us", "lower"),
    ("sim.cycles_checksum", "count", "lower"),
    ("sweep.expand_us_per_cell", "us", "lower"),
    ("sweep.analytic_us", "us", "lower"),
    ("sweep.simulate_cell_us", "us", "lower"),
    ("sweep.knee_cold_ms", "ms", "lower"),
    ("sweep.knee_hit_us", "us", "lower"),
    ("sweep.share_analytic", "ratio", "lower"),
    ("sweep.share_sim", "ratio", "lower"),
    ("sweep.share_knee", "ratio", "lower"),
    ("sweep.cold_cell_ms_hi", "ms", "lower"),
    ("sweep.warm_cell_us", "us", "lower"),
    ("sweep.allocs_per_warm_cell", "count", "lower"),
    ("sweep.csv_cells_per_s", "1/s", "higher"),
    ("sweep.json_cells_per_s", "1/s", "higher"),
    ("sweep.load_cells_per_s", "1/s", "higher"),
    ("sweep.log_append_us_p50", "us", "lower"),
    ("sweep.log_append_us_p99", "us", "lower"),
    ("sweep.log_load_cells_per_s", "1/s", "higher"),
    ("sweep.log_merge_ms", "ms", "lower"),
    ("sweep.resume_skip_cells_per_s", "1/s", "higher"),
    ("serve.request_ms_hi", "ms", "lower"),
    ("serve.health_roundtrip_us", "us", "lower"),
    ("serve.http_parse_us", "us", "lower"),
    ("serve.grid_parse_us", "us", "lower"),
    ("serve.cell_line_us", "us", "lower"),
    ("serve.cache_hit_ns", "ns", "lower"),
    ("serve.warm_cells_per_s", "1/s", "higher"),
    ("serve.server_share", "ratio", "lower"),
    ("serve.cold_coalesced_share", "ratio", "higher"),
    ("serve.evaluations", "count", "lower"),
    ("serve.rejected_503", "count", "lower"),
    ("serve.log_replay_cells_per_s", "1/s", "higher"),
    ("serve.restart_ready_ms", "ms", "lower"),
    ("serve.allocs_per_warm_request", "count", "lower"),
    ("serde.json_parse_mb_per_s", "MB/s", "higher"),
    ("serde.json_write_mb_per_s", "MB/s", "higher"),
    ("obs.span_off_ns", "ns", "lower"),
    ("obs.span_on_ns", "ns", "lower"),
    ("obs.enabled_overhead_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];

/// The unit `BENCHMARK.json` gives `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// Splitmix64 of `seed` and a per-use salt: one `--seed` drives every
/// generator without two of them sharing a stream.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a-64 of a byte stream: the checksum behind "bit-identical" checks.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Host, `runtime` and `obs` probes every traced workload reports.
pub fn shared_probes(out: &mut Samples) {
    out.push("host.fma_gflops", probes::fma_gflops());
    out.push(
        "host.stream_gb_per_s",
        probes::stream_gb_per_s(probes::stream_array_bytes(probes::llc_bytes())),
    );
    out.push("runtime.region_dispatch_us", probes::region_dispatch_us());
    out.push(
        "runtime.parallel_map_items_per_s",
        probes::parallel_map_items_per_s(),
    );
    out.push("runtime.queue_handoff_us", probes::queue_handoff_us());
    let (off, on) = probes::obs_span_ns();
    out.push("obs.span_off_ns", off);
    out.push("obs.span_on_ns", on);
}

/// Non-zero when any operation or check failed.
pub fn exit_code(results: &[&Samples]) -> i32 {
    i32::from(results.iter().any(|s| s.failed > 0))
}

fn die(msg: &str) -> ! {
    eprintln!("adagp-benchmark: {msg}");
    std::process::exit(2);
}

/// `--name value` options after the subcommand.
struct Opts(Vec<String>);

impl Opts {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).map(|i| {
            self.0
                .get(i + 1)
                .map_or_else(|| die(&format!("{name} needs a value")), String::as_str)
        })
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("{name}: cannot read `{v}`"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A child process: one workload (or one pass of it), its samples printed
/// as one JSON line.
fn child(opts: &Opts) {
    let workload = opts
        .value("--workload")
        .unwrap_or_else(|| die("child needs --workload"));
    let seed: u64 = opts.parsed("--seed", 1);
    let scale: f64 = opts.parsed("--scale", 1.0);
    let trace = opts.parsed("--trace", 0u8) == 1;
    let spawned_at: u128 = opts.parsed("--spawned-at", 0);
    let out_dir = PathBuf::from(OUT_DIR);
    let mut out = match (workload, trace) {
        ("train_vgg", false) => train::run(&train::VGG, seed, scale),
        ("train_vgg", true) => train::run_traced(&train::VGG, seed, scale, &out_dir),
        ("train_mobilenet", false) => train::run(&train::MOBILENET, seed, scale),
        ("train_mobilenet", true) => train::run_traced(&train::MOBILENET, seed, scale, &out_dir),
        ("sweep_cold", false) => sweep::run_pass(seed, spawned_at, opts.flag("--setup-only")),
        ("sweep_cold", true) => sweep::run_traced(seed, &out_dir),
        ("serve_grid", false) => serve::run_pass(seed, &out_dir),
        ("serve_grid", true) => serve::run_traced(seed, &out_dir),
        _ => die(&format!("unknown workload `{workload}`")),
    };
    out.push("rss_mb", peak_rss_mb());
    println!("{}", out.to_json());
}

/// Runs one child and parses the samples it prints; a child that dies or
/// prints nothing usable is one failed operation.
fn spawn_child(workload: &str, seed: u64, scale: f64, trace: bool, extra: &[&str]) -> Samples {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let output = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(extra)
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--spawned-at", &sweep::epoch_ns().to_string()])
        .env(adagp_runtime::THREADS_ENV, CHILD_THREADS.to_string())
        .env_remove(adagp_obs::TRACE_ENV)
        .env_remove(adagp_obs::PROFILE_ENV)
        .env_remove(adagp_sweep::shardlog::FAULT_ENV)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let parsed = output.map_err(|e| format!("spawn: {e}")).and_then(|o| {
        let text = String::from_utf8_lossy(&o.stdout);
        let last = text.lines().last().unwrap_or("");
        if !o.status.success() {
            return Err(format!("child exited with {}", o.status));
        }
        Samples::from_json(last)
    });
    parsed.unwrap_or_else(|why| {
        let mut s = Samples::default();
        s.check(&format!("{workload} child"), Err(why));
        s
    })
}

/// One workload measured: the merged samples and the named metrics.
pub struct Measured {
    samples: Samples,
    metrics: Vec<Metric>,
}

fn measure(workload: &str, seed: u64, scale: f64, trace: bool) -> Measured {
    let passes = match (workload, trace) {
        ("sweep_cold", false) => sweep::passes(scale),
        ("serve_grid", false) => serve::passes(scale),
        _ => 1,
    };
    let mut samples = Samples::default();
    for _ in 0..passes {
        samples.merge(spawn_child(workload, seed, scale, trace, &[]));
    }
    if workload == "sweep_cold" && !trace {
        sweep::cross_pass_checks(&mut samples);
        for _ in 0..sweep::SETUP_ONLY_RUNS {
            samples.merge(spawn_child(workload, seed, scale, trace, &["--setup-only"]));
        }
    }
    let metrics = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let v = samples.get(name);
                let note = match samples.get(&format!("{name}.percentile")).first() {
                    Some(p) => format!("p{p}"),
                    None if v.is_empty() => "not exercised by this workload".to_string(),
                    None => String::new(),
                };
                Metric::new(name, stats::median(v), v.len(), note)
            })
            .collect()
    } else {
        let rss = samples.get("rss_mb");
        let mut m = vec![
            Metric::new(
                "setup_s",
                stats::median(samples.get("setup_s")),
                samples.get("setup_s").len(),
                "median over set-ups",
            ),
            Metric::new(
                "peak_rss_mb",
                rss.iter().copied().fold(0.0, f64::max),
                rss.len(),
                "max VmHWM over the workload's child processes",
            ),
        ];
        m.extend(match workload {
            "sweep_cold" => sweep::end_to_end(&samples),
            "serve_grid" => serve::end_to_end(&samples),
            _ => train::end_to_end(&samples),
        });
        m
    };
    Measured { samples, metrics }
}

fn print_table(workload: &str, m: &Measured) {
    println!(
        "{workload}: attempted {} failed {}",
        m.samples.attempted, m.samples.failed
    );
    for metric in &m.metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} n={:<6} {}",
            metric.name,
            metric.value,
            unit_of(metric.name),
            metric.n,
            metric.note
        );
    }
    for e in &m.samples.errors {
        eprintln!("  FAILED {e}");
    }
}

/// The driver's contract: one workload, the result object as the last
/// line.
fn contract(opts: &Opts) {
    let workload = opts
        .value("--workload")
        .unwrap_or_else(|| die("--workload is required"));
    if !WORKLOADS.contains(&workload) {
        die(&format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = opts.parsed("--seed", 1);
    let seconds: f64 = opts.parsed("--seconds", REFERENCE_SECONDS);
    let trace = opts.parsed("--trace", 0u8) == 1;
    let m = measure(workload, seed, seconds / REFERENCE_SECONDS, trace);
    print_table(workload, &m);
    let metrics = m
        .metrics
        .iter()
        .map(|x| {
            (
                x.name,
                Value::object(vec![
                    ("value", Value::Float(x.value)),
                    ("unit", Value::String(unit_of(x.name).to_string())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        serde::json::to_string(&Value::object(vec![
            ("correct", Value::Bool(m.samples.failed == 0)),
            ("attempted", Value::UInt(m.samples.attempted.max(1))),
            ("failed", Value::UInt(m.samples.failed)),
            ("metrics", Value::object(metrics)),
        ]))
    );
}

/// `run` / `trace`: every workload, a results file for `compare`, and a
/// summary line.
fn run_all(opts: &Opts, trace: bool) {
    let seed: u64 = opts.parsed("--seed", 1);
    let seconds: f64 = opts.parsed("--seconds", REFERENCE_SECONDS);
    let quick = opts.flag("--quick");
    let repeat: usize = opts.parsed("--repeat", 1);
    let mode = if trace { "trace" } else { "run" };
    let default_out = format!("{OUT_DIR}/{mode}-results.json");
    let out_path = PathBuf::from(opts.value("--out").unwrap_or(&default_out));
    let scale = seconds / REFERENCE_SECONDS / if quick { QUICK_DIVISOR } else { 1.0 };

    let mut runs = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..repeat.max(1) {
        let mut workloads = Vec::new();
        for workload in WORKLOADS {
            let m = measure(workload, seed, scale, trace);
            println!("[{mode} {}/{repeat} seed {seed}]", rep + 1);
            print_table(workload, &m);
            attempted += m.samples.attempted;
            failed += m.samples.failed;
            workloads.push((workload, compare::workload_value(&m.samples, &m.metrics)));
        }
        runs.push(Value::object(vec![("workloads", Value::object(workloads))]));
    }
    let file = Value::object(vec![
        ("schema", Value::String(compare::SCHEMA.to_string())),
        ("mode", Value::String(mode.to_string())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("comparable", Value::Bool(!quick)),
        ("env", probes::env_block()),
        ("runs", Value::Array(runs)),
        ("claim", Value::Null),
    ]);
    write_file(&out_path, &serde::json::to_string_pretty(&file));
    println!(
        "{}",
        serde::json::to_string(&Value::object(vec![
            ("mode", Value::String(mode.to_string())),
            ("seed", Value::UInt(seed)),
            ("results", Value::String(out_path.display().to_string())),
            ("attempted", Value::UInt(attempted)),
            ("failed", Value::UInt(failed)),
            ("comparable", Value::Bool(!quick)),
            ("claim", Value::Null),
        ]))
    );
    std::process::exit(i32::from(failed > 0));
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        die(&format!("write {}: {e}", path.display()));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s.to_string(), args[1..].to_vec()),
        _ => (String::new(), args),
    };
    let opts = Opts(rest);
    match sub.as_str() {
        "" => contract(&opts),
        "child" => child(&opts),
        "run" => run_all(&opts, false),
        "trace" => run_all(&opts, true),
        "compare" => std::process::exit(compare::main(&opts.0)),
        other => die(&format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics,
    /// units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde::json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match v.field(key).unwrap() {
            Value::Array(items) => items.clone(),
            other => panic!("{key} is {}", other.kind()),
        };
        let text = |item: &Value, f: &str| item.field(f).unwrap().as_str().unwrap().to_string();
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.field("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), m.3))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(layers, want);
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            v.field("run_seconds").unwrap().as_f64().unwrap(),
            REFERENCE_SECONDS
        );
    }

    #[test]
    fn metric_names_are_unique_and_seeds_do_not_collide() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(unit_of("cold_op_ms_p50"), "ms");
        assert_eq!(unit_of("serve.cache_hit_ns"), "ns");
        // The published FNV-1a-64 test vector for "a".
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(mix_seed(1, 1), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 1), mix_seed(2, 1));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }

    #[test]
    fn exit_code_is_non_zero_on_any_failure() {
        let mut ok = Samples::default();
        ok.check("fine", Ok(()));
        let mut bad = Samples::default();
        bad.check("broken", Err("why".to_string()));
        assert_eq!(exit_code(&[&ok]), 0);
        assert_eq!(exit_code(&[&ok, &bad]), 1);
    }
}
