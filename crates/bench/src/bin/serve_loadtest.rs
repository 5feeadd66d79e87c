//! Load-test harness for `adagp-serve`: many client threads submit
//! overlapping random sub-grids and every reply is checked against
//! direct local evaluation, bit for bit.
//!
//! ```text
//! serve_loadtest [--clients n] [--grids n] [--seed n]
//!                [--workers n] [--queue-depth n]
//!                [--addr host:port]
//! ```
//!
//! By default the harness starts an in-process server on an ephemeral
//! port, so a single invocation is a full closed-loop check:
//!
//! 1. Pre-evaluate a small **cell universe** locally (`evaluate_cell`).
//! 2. Launch `--clients` threads; each submits seeded-random sub-grids
//!    of that universe (heavily overlapping across clients).
//! 3. Every streamed cell must be **bit-identical** to the local
//!    evaluation; every done line must account for its cells.
//! 4. The scraped `/metrics` must satisfy the counter invariants and
//!    show **exactly one evaluation per distinct cell requested** —
//!    coalescing and memoization, proven end-to-end.
//! 5. After a graceful shutdown, a second server on the same shard-log
//!    directory answers the whole universe with **zero evaluations**,
//!    still bit-identical — the log is the cache's persistence.
//!
//! With `--addr` the harness drives an external server instead: the
//! bit-exactness checks still run (the universe is evaluated locally),
//! the cold-cache metrics and shutdown checks are skipped. Exit code 0
//! on a clean PASS, 1 on any mismatch, 2 on usage errors.

use adagp_accel::{AdaGpDesign, Dataflow};
use adagp_nn::models::CnnModel;
use adagp_obs as obs;
use adagp_serve::wire::grid_to_value;
use adagp_serve::{
    check_invariants, fetch_metrics, http_request, server, submit_grid, ServerConfig,
};
use adagp_sweep::grid::{DatasetScale, GridSpec, PhaseSchedule};
use adagp_sweep::{evaluate_cell, metrics_to_array};
use adagp_tensor::Prng;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
Usage:
  serve_loadtest [--clients n]      client threads (default 8)
                 [--grids n]        total grid submissions (default 96)
                 [--seed n]         base PRNG seed (default 7)
                 [--workers n]      server connection workers (default 8)
                 [--queue-depth n]  server accept queue (default 64)
                 [--addr host:port] drive an external server instead of
                                    an in-process one (skips the
                                    cold-metrics and shutdown checks)

Exit codes: 0 pass, 1 mismatch, 2 usage error
";

/// The axes the random sub-grids draw from. Small enough to
/// pre-evaluate in seconds, rich enough to cover the bandwidth axis and
/// to make cross-client sharing overwhelming.
struct Universe {
    models: Vec<CnnModel>,
    designs: Vec<AdaGpDesign>,
    schedules: Vec<PhaseSchedule>,
    bandwidths: Vec<Option<u64>>,
}

impl Universe {
    fn new() -> Self {
        Universe {
            models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
            designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
            schedules: vec![PhaseSchedule::Paper, PhaseSchedule::SteadyOnly],
            bandwidths: vec![None, Some(64)],
        }
    }

    fn full_grid(&self, name: &str) -> GridSpec {
        GridSpec {
            name: name.to_string(),
            models: self.models.clone(),
            datasets: vec![DatasetScale::Cifar10],
            designs: self.designs.clone(),
            dataflows: vec![Dataflow::WeightStationary],
            schedules: self.schedules.clone(),
            bandwidths: self.bandwidths.clone(),
            buffers: vec![None],
        }
    }

    /// A random non-empty sub-grid (each axis keeps each value with
    /// probability ½, and at least one).
    fn random_subgrid(&self, rng: &mut Prng, name: &str) -> GridSpec {
        fn subset<T: Clone>(rng: &mut Prng, all: &[T]) -> Vec<T> {
            let picked: Vec<T> = all
                .iter()
                .filter(|_| rng.next_u64() & 1 == 0)
                .cloned()
                .collect();
            if picked.is_empty() {
                vec![all[rng.below(all.len())].clone()]
            } else {
                picked
            }
        }
        let mut grid = self.full_grid(name);
        grid.models = subset(rng, &self.models);
        grid.designs = subset(rng, &self.designs);
        grid.schedules = subset(rng, &self.schedules);
        grid.bandwidths = subset(rng, &self.bandwidths);
        grid
    }
}

struct Options {
    clients: usize,
    grids: usize,
    seed: u64,
    workers: usize,
    queue_depth: usize,
    addr: Option<SocketAddr>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            clients: 8,
            grids: 96,
            seed: 7,
            workers: 8,
            queue_depth: 64,
            addr: None,
        }
    }
}

/// What one client thread observed.
#[derive(Default)]
struct ClientReport {
    latencies_micros: Vec<u64>,
    cells: u64,
    hits: u64,
    evaluated: u64,
    joined: u64,
    requested_ids: HashSet<String>,
}

fn main() -> ExitCode {
    let opts = match parse_options(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve_loadtest: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => {
            println!("loadtest: PASS");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("loadtest: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_options(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if matches!(arg.as_str(), "--help" | "-h") {
            print!("{USAGE}");
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
        let count = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("{arg}: `{value}` is not a count\n{USAGE}"))
        };
        match arg.as_str() {
            "--clients" => opts.clients = count()?.max(1),
            "--grids" => opts.grids = count()?.max(1),
            "--seed" => opts.seed = count()? as u64,
            "--workers" => opts.workers = count()?.max(1),
            "--queue-depth" => opts.queue_depth = count()?.max(1),
            "--addr" => {
                opts.addr = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--addr: `{value}` is not host:port\n{USAGE}"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(opts))
}

fn run(opts: &Options) -> Result<(), String> {
    let universe = Universe::new();
    let full = universe.full_grid("universe");

    // 1. Local ground truth, bit for bit.
    let expected: HashMap<String, Vec<u64>> = full
        .expand()
        .iter()
        .map(|spec| {
            let bits = metrics_to_array(&evaluate_cell(spec))
                .iter()
                .map(|m| m.to_bits())
                .collect();
            (spec.id.clone(), bits)
        })
        .collect();
    println!(
        "loadtest: universe {} cells, {} clients x {} grids (seed {})",
        expected.len(),
        opts.clients,
        opts.grids,
        opts.seed
    );

    // 2. The server under test: in-process unless --addr points away.
    // Span recording on, so the in-process server's `GET /profile` has a
    // real request tree to serve (step 4.5).
    if opts.addr.is_none() {
        obs::set_enabled(true);
    }
    let log_dir = std::env::temp_dir().join(format!("adagp-serve-loadtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let config = ServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        log_dir: Some(log_dir.clone()),
        ..ServerConfig::default()
    };
    let local = match opts.addr {
        Some(_) => None,
        None => Some(server::start(config.clone())?),
    };
    let addr = opts
        .addr
        .unwrap_or_else(|| local.as_ref().expect("in-process server").addr());

    // 3. Fan out the clients.
    let started = Instant::now();
    let reports: Vec<Result<ClientReport, String>> = std::thread::scope(|scope| {
        let universe = &universe;
        let expected = &expected;
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let grids =
                    opts.grids / opts.clients + usize::from(client < opts.grids % opts.clients);
                let seed = opts.seed.wrapping_add(client as u64);
                scope.spawn(move || run_client(addr, client, grids, seed, universe, expected))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let mut merged = ClientReport::default();
    for report in reports {
        let r = report?;
        merged.latencies_micros.extend(r.latencies_micros);
        merged.cells += r.cells;
        merged.hits += r.hits;
        merged.evaluated += r.evaluated;
        merged.joined += r.joined;
        merged.requested_ids.extend(r.requested_ids);
    }
    merged.latencies_micros.sort_unstable();
    let pct = |p: usize| merged.latencies_micros[(merged.latencies_micros.len() - 1) * p / 100];
    println!(
        "loadtest: {} grids in {:?}: {} cells ({} hits, {} evaluated, {} joined), \
         hit rate {:.1}%, latency p50 {}us p95 {}us max {}us",
        merged.latencies_micros.len(),
        wall,
        merged.cells,
        merged.hits,
        merged.evaluated,
        merged.joined,
        100.0 * merged.hits as f64 / merged.cells as f64,
        pct(50),
        pct(95),
        pct(100),
    );

    // 4. Server-side accounting.
    let metrics = fetch_metrics(addr)?;
    if let Some(why) = check_invariants(&metrics) {
        return Err(format!("metrics inconsistent: {why}"));
    }
    if local.is_some() {
        let distinct = merged.requested_ids.len() as i128;
        if metrics["evaluations"] != distinct {
            return Err(format!(
                "coalescing failed: {} evaluations for {distinct} distinct cells",
                metrics["evaluations"]
            ));
        }
        if metrics["cells_served"] != merged.cells as i128 {
            return Err(format!(
                "served {} cells, clients saw {}",
                metrics["cells_served"], merged.cells
            ));
        }
        println!(
            "loadtest: metrics consistent; {} distinct cells evaluated exactly once \
             ({} overload rejections)",
            distinct, metrics["overload_rejections"]
        );

        // 4.5. The live span-tree profile: non-empty under load, and
        // internally consistent (calls ≥ 1, self ≤ total, children sum ≤
        // parent) — the same validator `obs_check profile` runs.
        let reply = http_request(addr, "GET", "/profile", None)?;
        if reply.status != 200 {
            return Err(format!("/profile answered {}", reply.status));
        }
        let stats = obs::validate_profile(&reply.body)
            .map_err(|e| format!("/profile body invalid: {e}"))?;
        if stats.nodes == 0 {
            return Err("/profile returned an empty span tree under load".to_string());
        }
        println!(
            "loadtest: /profile consistent; {} nodes across {} lanes, {} us total",
            stats.nodes, stats.lanes, stats.total_us
        );

        // 4.6. The live critical-path report: valid `adagp-critpath-v1`
        // in measured mode with at least one lane under load — the same
        // validator `obs_check critpath` runs.
        let reply = http_request(addr, "GET", "/critical", None)?;
        if reply.status != 200 {
            return Err(format!("/critical answered {}", reply.status));
        }
        let crit = obs::validate_critpath(&reply.body)
            .map_err(|e| format!("/critical body invalid: {e}"))?;
        if crit.mode != "measured" || crit.lanes == 0 {
            return Err(format!(
                "/critical returned a degenerate report ({} mode, {} lanes)",
                crit.mode, crit.lanes
            ));
        }
        println!(
            "loadtest: /critical consistent; {} lanes, {} blame rows, makespan {} ns",
            crit.lanes, crit.blame, crit.makespan
        );
    }

    // 5. Graceful shutdown, then a restart on the same shard log
    // (in-process mode only): every cell the clients requested comes
    // back as a hit, bit-identical, with no evaluation.
    if let Some(handle) = local {
        handle.shutdown()?;
        let restarted = server::start(config)?;
        let spec_json = serde::json::to_string(&grid_to_value(&full));
        let replay = submit_grid(restarted.addr(), &spec_json)?;
        let evaluations = fetch_metrics(restarted.addr())?["evaluations"];
        restarted.shutdown()?;
        std::fs::remove_dir_all(&log_dir).ok();
        let requested = merged.requested_ids.len() as u64;
        if replay.done.hits != requested
            || evaluations != (expected.len() as u64 - requested) as i128
        {
            return Err(format!(
                "restart on the log served {} hits and ran {evaluations} evaluations \
                 for {requested} logged of {} cells",
                replay.done.hits,
                expected.len()
            ));
        }
        for line in &replay.cells {
            let got: Vec<u64> = line.metrics.iter().map(|m| m.to_bits()).collect();
            if got != expected[&line.id] {
                return Err(format!("replayed cell {} is not bit-identical", line.id));
            }
        }
        println!(
            "loadtest: graceful shutdown; restart replays {requested} logged cells, 0 re-evaluated"
        );
    }
    Ok(())
}

fn run_client(
    addr: SocketAddr,
    client: usize,
    grids: usize,
    seed: u64,
    universe: &Universe,
    expected: &HashMap<String, Vec<u64>>,
) -> Result<ClientReport, String> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut report = ClientReport::default();
    for i in 0..grids {
        let grid = universe.random_subgrid(&mut rng, &format!("lt-{client}-{i}"));
        let spec_json = serde::json::to_string(&grid_to_value(&grid));
        let sent = Instant::now();
        let response =
            submit_grid(addr, &spec_json).map_err(|e| format!("client {client} grid {i}: {e}"))?;
        report
            .latencies_micros
            .push(sent.elapsed().as_micros() as u64);
        if !response.cell_errors.is_empty() {
            return Err(format!(
                "client {client} grid {i}: cell errors {:?}",
                response.cell_errors
            ));
        }
        let cells = grid.expand();
        if response.announced_cells != cells.len() as u64 || response.cells.len() != cells.len() {
            return Err(format!(
                "client {client} grid {i}: {} cells announced, {} streamed, {} expected",
                response.announced_cells,
                response.cells.len(),
                cells.len()
            ));
        }
        let d = &response.done;
        if d.cells != cells.len() as u64 || d.hits + d.evaluated + d.joined != d.cells {
            return Err(format!(
                "client {client} grid {i}: done line does not add up: {d:?}"
            ));
        }
        report.cells += d.cells;
        report.hits += d.hits;
        report.evaluated += d.evaluated;
        report.joined += d.joined;
        for (spec, line) in cells.iter().zip(&response.cells) {
            if line.id != spec.id {
                return Err(format!(
                    "client {client} grid {i}: cell order drifted ({} != {})",
                    line.id, spec.id
                ));
            }
            let want = &expected[&spec.id];
            let got: Vec<u64> = line.metrics.iter().map(|m| m.to_bits()).collect();
            if &got != want {
                return Err(format!(
                    "client {client} grid {i}: cell {} not bit-identical to direct \
                     evaluation",
                    spec.key()
                ));
            }
            report.requested_ids.insert(spec.id.clone());
        }
    }
    Ok(report)
}
