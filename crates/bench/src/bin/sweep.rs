//! The `sweep` CLI: run, list, merge and diff declarative experiment
//! grids.
//!
//! ```text
//! sweep list                      # every preset with its axes and cell count
//! sweep list <preset>             # the preset's cells (id + key)
//! sweep run <preset> [--csv <path>] [--json <path>] [--quiet]
//!           [--log-dir <dir>] [--shard <k/n>]
//! sweep merge <preset> --log-dir <dir> [--csv <path>] [--json <path>]
//!           [--partial] [--quiet]
//! sweep diff <before> <after> [--tol <rel>]
//! ```
//!
//! `run` executes the grid in parallel on the shared runtime pool
//! (`ADAGP_THREADS` sizes it) and prints the cell table; `--csv` writes
//! the byte-stable metrics file, `--json` the full-precision run record
//! with timings. With `--log-dir` the run becomes crash-safe and
//! resumable: the grid runs in windows of 64 cells, each window's cells
//! are appended to a per-shard NDJSON log as one group with one fsync,
//! already-logged cells are skipped on re-invocation, `--shard k/n`
//! runs one slice of the grid
//! (n cooperating invocations sharing the directory cover it exactly
//! once), and the final CSV/JSON are reconstructed from the merged logs
//! — byte-identical no matter how often the run was interrupted;
//! `--shard` without `--log-dir` is a usage error. In
//! log-dir mode the JSON record is the zero-timing snapshot form (wall
//! clocks are meaningless across resumed fragments). `merge` rebuilds
//! the final artifacts from an existing log directory without running
//! anything. Every cell's metrics include its simulated columns (the
//! grid's `bandwidths` / `buffers` axes set the DRAM channel) and its
//! bandwidth-roofline knee
//! (`knee_words_per_cycle`), so the roofline study is `run roofline
//! --csv <path>`. `diff` loads two stored runs
//! (CSV or JSON, by extension), compares them cell-by-cell and exits
//! non-zero when a metric regressed beyond the tolerance; on a regression
//! it prints the command that regenerates `<before>`, naming the grid
//! when the file's stem is a preset (as every `runs/<grid>.*` is).

use adagp_bench::report::render_table;
use adagp_bench::{out, outln};
use adagp_sweep::{
    diff, presets, runner, shardlog, store, DiffConfig, GridSpec, RunFormat, Shard, StoredRun,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let _trace = adagp_obs::trace_guard_from_env("sweep");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("sweep: {msg}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "\
Usage:
  sweep list                                list presets (axes, cell counts)
  sweep list <preset>                       list a preset's cells (id + key)
  sweep run <preset> [--csv p] [--json p] [--quiet]
            [--log-dir d] [--shard k/n]
                                            execute a grid on the shared pool;
                                            --log-dir appends each window of
                                            64 finished cells to a crash-safe
                                            per-shard NDJSON log and resumes
                                            past cells already on disk;
                                            --shard k/n runs one slice (cells
                                            k-1 mod n; needs --log-dir)
  sweep merge <preset> --log-dir d [--csv p] [--json p] [--partial] [--quiet]
                                            rebuild final CSV/JSON from shard
                                            logs without evaluating anything
                                            (--partial accepts an incomplete
                                            grid)
  sweep diff <before> <after> [--tol rel]
                                            compare stored runs (.csv/.json)

Exit codes:
  0  success (diff: no metric regressed beyond the tolerance)
  1  diff found at least one regression
  2  usage, I/O or parse error
";

fn preset(name: &str) -> Result<GridSpec, String> {
    presets::by_name(name).ok_or_else(|| {
        let known: Vec<String> = presets::all().into_iter().map(|g| g.name).collect();
        format!("unknown preset `{name}` (known: {})", known.join(", "))
    })
}

fn cmd_list(args: &[String]) -> Result<ExitCode, String> {
    match args.first() {
        None => {
            let rows: Vec<Vec<String>> = presets::all()
                .iter()
                .map(|g| vec![g.name.clone(), g.axes_summary(), g.cell_count().to_string()])
                .collect();
            out!(
                "{}",
                render_table("sweep presets", &["Preset", "Axes", "Cells"], &rows)
            );
        }
        Some(name) => {
            let grid = preset(name)?;
            let rows: Vec<Vec<String>> = grid
                .expand()
                .into_iter()
                .map(|c| vec![c.id.clone(), c.key()])
                .collect();
            out!(
                "{}",
                render_table(&format!("{name} cells"), &["ID", "Cell"], &rows)
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let name = args
        .first()
        .ok_or_else(|| format!("run: missing preset name\n{USAGE}"))?;
    let grid = preset(name)?;
    let mut csv_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut log_dir: Option<PathBuf> = None;
    let mut shard = Shard::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv_path = Some(path_arg(&mut it, "--csv")?),
            "--json" => json_path = Some(path_arg(&mut it, "--json")?),
            "--log-dir" => log_dir = Some(path_arg(&mut it, "--log-dir")?),
            "--shard" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--shard requires a k/n value".to_string())?;
                shard = Shard::parse(raw)?;
            }
            "--quiet" => quiet = true,
            other => return Err(format!("run: unexpected argument `{other}`")),
        }
    }
    if let Some(dir) = &log_dir {
        return run_logged(name, &grid, shard, dir, csv_path, json_path, quiet);
    }
    if shard != Shard::default() {
        return Err("run: --shard requires --log-dir (sharded runs live in shard logs)".into());
    }

    let run = runner::run_grid(&grid);
    if !quiet {
        let rows: Vec<Vec<String>> = run
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.spec.id.clone(),
                    c.spec.key(),
                    store::csv_float(c.metrics.speedup),
                ]
            })
            .collect();
        out!(
            "{}",
            render_table(
                &format!("sweep run: {name}"),
                &["ID", "Cell", "Speed-up"],
                &rows
            )
        );
    }
    outln!(
        "{}: {} cells in {:.1} ms on {} thread(s)",
        name,
        run.cells.len(),
        run.total_wall_micros as f64 / 1e3,
        adagp_runtime::pool().size()
    );
    if let Some(p) = &csv_path {
        store::write_csv(p, &run).map_err(|e| format!("write {}: {e}", p.display()))?;
        outln!("wrote CSV to {}", p.display());
    }
    if let Some(p) = &json_path {
        store::write_json(p, &run).map_err(|e| format!("write {}: {e}", p.display()))?;
        outln!("wrote JSON to {}", p.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Cells evaluated per window in log-dir mode, each window one commit
/// group (one fsync): small enough to bound memory on huge grids, large
/// enough to amortize pool dispatch.
const WINDOW: usize = 64;

/// The `run --log-dir` path: resumable sharded execution plus merged
/// final artifacts once the grid is complete.
fn run_logged(
    name: &str,
    grid: &GridSpec,
    shard: Shard,
    dir: &Path,
    csv_path: Option<PathBuf>,
    json_path: Option<PathBuf>,
    quiet: bool,
) -> Result<ExitCode, String> {
    let stats = shardlog::run_sharded(grid, shard, dir, WINDOW)?;
    outln!(
        "{name} [shard {}]: {} cells owned, {} resumed from log, {} evaluated ({} thread(s))",
        stats.shard,
        stats.owned,
        stats.resumed,
        stats.evaluated,
        adagp_runtime::pool().size()
    );
    let run = shardlog::merge_to_run(dir, grid)?;
    report_skipped(&run.skipped);
    if !quiet && !run.cells.is_empty() {
        let rows: Vec<Vec<String>> = run
            .cells
            .iter()
            .map(|c| vec![c.id.clone(), c.key(), store::csv_float(c.metrics[0])])
            .collect();
        out!(
            "{}",
            render_table(
                &format!("sweep run: {name} (merged log)"),
                &["ID", "Cell", "Speed-up"],
                &rows
            )
        );
    }
    if run.is_complete() {
        outln!(
            "{name}: grid complete in {} ({} cells)",
            dir.display(),
            run.cells.len()
        );
        write_merged_outputs(&run, &grid.name, csv_path.as_deref(), json_path.as_deref())?;
    } else {
        outln!(
            "{name}: {}/{} cells logged, {} missing — run the remaining shards, then \
             `sweep merge {name} --log-dir {}`",
            run.cells.len(),
            run.cells.len() + run.missing.len(),
            run.missing.len(),
            dir.display()
        );
        if csv_path.is_some() || json_path.is_some() {
            outln!("final CSV/JSON not written: the merge is incomplete");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let name = args
        .first()
        .ok_or_else(|| format!("merge: missing preset name\n{USAGE}"))?;
    let grid = preset(name)?;
    let mut csv_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut log_dir: Option<PathBuf> = None;
    let mut partial = false;
    let mut quiet = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv_path = Some(path_arg(&mut it, "--csv")?),
            "--json" => json_path = Some(path_arg(&mut it, "--json")?),
            "--log-dir" => log_dir = Some(path_arg(&mut it, "--log-dir")?),
            "--partial" => partial = true,
            "--quiet" => quiet = true,
            other => return Err(format!("merge: unexpected argument `{other}`")),
        }
    }
    let dir = log_dir.ok_or_else(|| "merge: --log-dir is required".to_string())?;
    let run = shardlog::merge_to_run(&dir, &grid)?;
    report_skipped(&run.skipped);
    if !quiet {
        outln!(
            "{name}: merged {} of {} cells from {} ({} extra record(s) ignored)",
            run.cells.len(),
            run.cells.len() + run.missing.len(),
            dir.display(),
            run.extras
        );
    }
    if !run.is_complete() && !partial {
        return Err(format!(
            "merge: {} cell(s) missing from the logs (first: {}); run the remaining \
             shards or pass --partial to write what is present",
            run.missing.len(),
            run.missing.first().map(String::as_str).unwrap_or("?"),
        ));
    }
    write_merged_outputs(&run, &grid.name, csv_path.as_deref(), json_path.as_deref())?;
    Ok(ExitCode::SUCCESS)
}

/// Streams a merged run into its final CSV/JSON artifacts (bounded
/// memory; bytes identical to an uninterrupted run's). The JSON record
/// carries zero timings: wall clocks are meaningless across resumed
/// fragments.
fn write_merged_outputs(
    run: &shardlog::MergedRun,
    grid_name: &str,
    csv_path: Option<&Path>,
    json_path: Option<&Path>,
) -> Result<(), String> {
    let json = RunFormat::Json {
        grid: grid_name,
        total_wall_micros: 0,
    };
    let outputs = [("CSV", csv_path, RunFormat::Csv), ("JSON", json_path, json)];
    for (name, path, format) in outputs {
        if let Some(p) = path {
            store::write_run_file(p, format, run.cells.iter().map(|c| (c, 0)))
                .map_err(|e| format!("write {}: {e}", p.display()))?;
            outln!("wrote {name} to {}", p.display());
        }
    }
    Ok(())
}

/// Surfaces undecodable shard-log spans on stderr (they are warnings:
/// every intact record was still recovered).
fn report_skipped(skipped: &[(PathBuf, shardlog::SkippedSpan)]) {
    for (path, span) in skipped {
        eprintln!(
            "sweep: warning: {}: skipped {span}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string())
        );
    }
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = DiffConfig::default();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol" => cfg.rel_tol = tol_arg(&mut it)?,
            other if other.starts_with("--") => {
                return Err(format!("diff: unexpected argument `{other}`"))
            }
            _ => paths.push(a),
        }
    }
    let [before_path, after_path] = paths[..] else {
        return Err(format!("diff: need <before> and <after> paths\n{USAGE}"));
    };
    let before = StoredRun::load(&PathBuf::from(before_path))?;
    let after = StoredRun::load(&PathBuf::from(after_path))?;
    let report = diff::diff_runs(&before, &after, &cfg);
    out!("{}", report.render());
    Ok(if report.has_regressions() {
        let before_path = Path::new(before_path);
        let flag = if before_path.extension().is_some_and(|e| e == "json") {
            "--json"
        } else {
            "--csv"
        };
        let grid = before_path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|stem| presets::by_name(stem).is_some())
            .unwrap_or("<preset>");
        outln!(
            "if the model change is intentional, regenerate the stored run:\n  \
             cargo run --release -p adagp-bench --bin sweep -- run {grid} --quiet {flag} {}",
            before_path.display()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn path_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} requires a path argument"))
}

/// The value of `--tol`: a relative tolerance, finite and non-negative
/// (NaN, a negative or an infinite tolerance would turn every comparison
/// into a regression, or none).
fn tol_arg(it: &mut std::slice::Iter<'_, String>) -> Result<f64, String> {
    let raw = it
        .next()
        .ok_or_else(|| "--tol requires a value".to_string())?;
    raw.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| format!("--tol: bad value `{raw}` (need a finite non-negative number)"))
}
