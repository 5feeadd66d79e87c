//! The `serve_grid` workload: a fresh process per pass starts the server on
//! an empty log directory, two closed-loop clients (the callers are sweep
//! scripts that wait for each reply) submit overlapping sub-grids until
//! every cell of the preset universe has been requested, replay requests
//! against the now-full cache, and the server is restarted on its log. A
//! traced run re-issues a request from `serve`'s public pieces and probes
//! the vendored `serde`.

use crate::alloc::counted;
use crate::probes::time_reps;
use crate::report::{Metric, Samples};
use crate::stats::{hi_percentile, median};
use crate::sweep::seeded_presets;
use crate::trace::Tracer;
use adagp_serve::wire::{cell_line, grid_to_value, parse_cell_line, parse_grid_request, CellLine};
use adagp_serve::{
    check_invariants, fetch_metrics, http_request, server, submit_grid, CellCache, GridResponse,
    RequestParser, ServerConfig, ServerHandle,
};
use adagp_sweep::store::METRICS;
use adagp_sweep::{evaluate_cells, metrics_to_array, CellSpec, GridSpec, StoredCell};
use adagp_tensor::Prng;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Server worker threads, and closed-loop clients (at most `nproc`).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Restarts on the full log per pass.
const RESTARTS: usize = 5;
/// Times set-up is repeated per pass; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Share of an axis's other values a sub-grid takes beyond the anchor
/// cell's own (rounded up): enough that sub-grids overlap heavily. The
/// count is fixed and only the choice is random, so the sizes of the
/// requests do not depend on the seed.
const EXTRA_VALUE_SHARE: f64 = 0.3;

/// Fresh-process passes of a run `scale` times the reference length.
pub fn passes(scale: f64) -> usize {
    ((3.0 * scale).round() as usize).max(1)
}

/// Warm-phase requests per pass, driven in [`WARM_SEGMENTS`] equal
/// segments so a burst of host noise costs one throughput sample, not the
/// pass.
const WARM_REQUESTS: usize = 1200;
const WARM_SEGMENTS: usize = 4;

/// One `POST /grid` body and the cells it must stream back.
#[derive(Debug, Clone)]
struct GridRequest {
    body: String,
    ids: Vec<String>,
}

/// The anchor's value plus [`EXTRA_VALUE_SHARE`] of the axis's other
/// values, chosen at random, in axis order.
fn sub_axis<T: Copy + PartialEq>(rng: &mut Prng, axis: &[T], anchor: T) -> Vec<T> {
    let mut others: Vec<T> = axis.iter().copied().filter(|v| *v != anchor).collect();
    rng.shuffle(&mut others);
    others.truncate((EXTRA_VALUE_SHARE * others.len() as f64).ceil() as usize);
    axis.iter()
        .copied()
        .filter(|v| *v == anchor || others.contains(v))
        .collect()
}

/// A random sub-grid of `grid` that contains `anchor`.
fn sub_grid(rng: &mut Prng, grid: &GridSpec, anchor: &CellSpec) -> GridSpec {
    GridSpec {
        name: grid.name.clone(),
        models: sub_axis(rng, &grid.models, anchor.model),
        datasets: sub_axis(rng, &grid.datasets, anchor.dataset),
        designs: sub_axis(rng, &grid.designs, anchor.design),
        dataflows: sub_axis(rng, &grid.dataflows, anchor.dataflow),
        schedules: sub_axis(rng, &grid.schedules, anchor.schedule),
        bandwidths: sub_axis(rng, &grid.bandwidths, anchor.dram_words_per_cycle),
        buffers: sub_axis(rng, &grid.buffers, anchor.buffer_words),
    }
}

/// The cold phase's requests: sub-grids anchored on a not-yet-requested
/// cell, until every cell of the universe has been requested. Generated
/// up front so the request count depends on the seed alone, not on how
/// the two clients interleave.
fn cold_requests(seed: u64, grids: &[GridSpec]) -> Vec<GridRequest> {
    let mut rng = Prng::seed_from_u64(crate::mix_seed(seed, 6));
    let mut pending: Vec<(usize, CellSpec)> = grids
        .iter()
        .enumerate()
        .flat_map(|(g, grid)| grid.expand().into_iter().map(move |c| (g, c)))
        .collect();
    let mut requested = HashSet::new();
    let mut requests = Vec::new();
    while !pending.is_empty() {
        let (g, anchor) = pending[rng.below(pending.len())].clone();
        let sub = sub_grid(&mut rng, &grids[g], &anchor);
        let ids: Vec<String> = sub.expand().into_iter().map(|c| c.id).collect();
        requested.extend(ids.iter().cloned());
        pending.retain(|(_, c)| !requested.contains(&c.id));
        requests.push(GridRequest {
            body: serde::json::to_string(&grid_to_value(&sub)),
            ids,
        });
    }
    requests
}

/// One client-observed exchange.
struct Exchange {
    request: usize,
    ms: f64,
    reply: Result<GridResponse, String>,
}

/// Closed loop: each client sends its next request only after the previous
/// reply; requests are handed out in `order`. Returns the exchanges and
/// the wall seconds from first send to last reply.
fn drive(addr: SocketAddr, requests: &[GridRequest], order: &[usize]) -> (Vec<Exchange>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(order.len()));
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&request) = order.get(i) else { break };
                let t = Instant::now();
                let reply = submit_grid(addr, &requests[request].body);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                done.lock()
                    .expect("a client panicked holding the exchange list")
                    .push(Exchange { request, ms, reply });
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    (done.into_inner().expect("clients have exited"), wall)
}

/// A streamed cell must carry exactly the metrics a direct `evaluate_cell`
/// gives, bit for bit.
fn check_cell(
    line: &CellLine,
    reference: &HashMap<String, [f64; METRICS.len()]>,
) -> Result<(), String> {
    let want = reference
        .get(&line.id)
        .ok_or_else(|| format!("cell {} is not in the universe", line.id))?;
    let bits = |m: &[f64; METRICS.len()]| m.map(f64::to_bits);
    if bits(&line.metrics) == bits(want) {
        Ok(())
    } else {
        Err(format!(
            "cell {} ({}) differs from evaluate_cell",
            line.id, line.key
        ))
    }
}

/// A reply must stream every requested cell once, without error lines, and
/// every cell must pass [`check_cell`].
fn check_reply(
    request: &GridRequest,
    reply: &Result<GridResponse, String>,
    reference: &HashMap<String, [f64; METRICS.len()]>,
) -> Result<(), String> {
    let reply = reply.as_ref().map_err(Clone::clone)?;
    if !reply.cell_errors.is_empty() {
        return Err(format!("cell error lines: {:?}", reply.cell_errors));
    }
    let got: Vec<&String> = reply.cells.iter().map(|c| &c.id).collect();
    if got != request.ids.iter().collect::<Vec<_>>() || reply.announced_cells != got.len() as u64 {
        return Err(format!(
            "streamed {} cells (announced {}), requested {}",
            got.len(),
            reply.announced_cells,
            request.ids.len()
        ));
    }
    reply
        .cells
        .iter()
        .try_for_each(|c| check_cell(c, reference))
}

fn start(log_dir: &Path) -> Result<ServerHandle, String> {
    server::start(ServerConfig {
        workers: WORKERS,
        log_dir: Some(log_dir.to_path_buf()),
        ..ServerConfig::default()
    })
}

fn cells_cached(addr: SocketAddr) -> Result<u64, String> {
    let reply = http_request(addr, "GET", "/health", None)?;
    serde::json::parse_value(&reply.body)
        .ok()
        .and_then(|v| v.field("cells_cached").ok().and_then(serde::Value::as_u64))
        .ok_or_else(|| format!("malformed /health body `{}`", reply.body))
}

fn metric(addr: SocketAddr, name: &str) -> Result<i128, String> {
    let m = fetch_metrics(addr)?;
    if let Some(why) = check_invariants(&m) {
        return Err(format!("/metrics invariants: {why}"));
    }
    Ok(m.get(name).copied().unwrap_or(0))
}

/// What the phases of one pass leave for the checks and the traced run.
struct Pass {
    requests: Vec<GridRequest>,
    distinct: usize,
    exchanges: Vec<Exchange>,
}

/// Set-up, cold phase, warm phase and restarts of one pass; the server is
/// shut down and the log directory removed on return.
fn run_phases(seed: u64, log_dir: &Path, out: &mut Samples, traced: Option<&mut Tracer>) -> Pass {
    // Set-up is cheap here, so it is repeated and only the last server is
    // kept; the shutdowns in between are not timed.
    let mut set_up = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, _, _)) = set_up.take() {
            let handle: ServerHandle = handle;
            out.check("shutdown after set-up", handle.shutdown().map(|_| ()));
        }
        let _ = std::fs::remove_dir_all(log_dir);
        let t = Instant::now();
        let handle = start(log_dir).expect("start the server on an empty log directory");
        let requests = cold_requests(seed, &seeded_presets(seed));
        let mut rng = Prng::seed_from_u64(crate::mix_seed(seed, 7));
        let warm_order: Vec<usize> = (0..WARM_REQUESTS)
            .map(|_| rng.below(requests.len()))
            .collect();
        out.push("setup_s", t.elapsed().as_secs_f64());
        set_up = Some((handle, requests, warm_order));
    }
    let (handle, requests, warm_order) = set_up.expect("SETUP_REPS is positive");
    let addr = handle.addr();
    let distinct = requests
        .iter()
        .flat_map(|r| &r.ids)
        .collect::<HashSet<_>>()
        .len();

    let cold_order: Vec<usize> = (0..requests.len()).collect();
    let (mut exchanges, cold_s) = drive(addr, &requests, &cold_order);
    out.push("cold_cells_per_s", distinct as f64 / cold_s);
    out.extend(
        "cold_cell_ms",
        exchanges.iter().filter_map(|e| match &e.reply {
            Ok(r) if r.done.evaluated > 0 => Some(e.ms / r.done.evaluated as f64),
            _ => None,
        }),
    );
    let cold_cells: usize = requests.iter().map(|r| r.ids.len()).sum();
    let coalesced = handle
        .state()
        .metrics
        .coalesced_waits
        .load(Ordering::Relaxed);
    out.push(
        "serve.cold_coalesced_share",
        coalesced as f64 / cold_cells as f64,
    );

    let micros_before = handle
        .state()
        .metrics
        .request_micros_total
        .load(Ordering::Relaxed);
    let (mut warm, mut warm_s) = (Vec::with_capacity(warm_order.len()), 0.0);
    for segment in warm_order.chunks(WARM_REQUESTS / WARM_SEGMENTS) {
        let (done, secs) = drive(addr, &requests, segment);
        out.push("warm_requests_per_s", done.len() as f64 / secs);
        warm.extend(done);
        warm_s += secs;
    }
    let server_us = handle
        .state()
        .metrics
        .request_micros_total
        .load(Ordering::Relaxed)
        - micros_before;
    out.extend("request_ms", warm.iter().map(|e| e.ms));
    let warm_cells: usize = warm_order.iter().map(|&r| requests[r].ids.len()).sum();
    out.push("serve.warm_cells_per_s", warm_cells as f64 / warm_s);
    out.push(
        "serve.server_share",
        server_us as f64 / 1e3 / warm.iter().map(|e| e.ms).sum::<f64>(),
    );
    exchanges.extend(warm);

    out.check(
        "evaluations == distinct cells",
        metric(addr, "evaluations").and_then(|n| {
            if n == distinct as i128 {
                Ok(())
            } else {
                Err(format!("{n} evaluations for {distinct} distinct cells"))
            }
        }),
    );
    out.push("serve.evaluations", distinct as f64);
    out.push(
        "serve.rejected_503",
        handle
            .state()
            .metrics
            .overload_rejections
            .load(Ordering::Relaxed) as f64,
    );
    if let Some(tr) = traced {
        traced_requests(tr, out, &handle, log_dir, &requests, &warm_order);
    }
    out.check("shutdown", handle.shutdown().map(|_| ()));

    for _ in 0..RESTARTS {
        let t = Instant::now();
        let outcome = start(log_dir).and_then(|h| {
            let replay_s = t.elapsed().as_secs_f64();
            let cached = cells_cached(h.addr())?;
            out.push("restart_ready_ms", t.elapsed().as_secs_f64() * 1e3);
            out.push("serve.log_replay_cells_per_s", distinct as f64 / replay_s);
            let evaluations = metric(h.addr(), "evaluations")?;
            h.shutdown()?;
            if cached == distinct as u64 && evaluations == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{cached}/{distinct} cells cached, {evaluations} evaluations"
                ))
            }
        });
        out.check("restart on the full log", outcome);
    }
    let _ = std::fs::remove_dir_all(log_dir);
    Pass {
        requests,
        distinct,
        exchanges,
    }
}

/// Verifies every exchange against direct evaluation. Runs after the
/// phases: evaluating here first would fill the process-global knee memo
/// the cold phase is meant to find empty.
fn verify(pass: &Pass, seed: u64, out: &mut Samples) {
    let reference: HashMap<String, [f64; METRICS.len()]> =
        evaluate_cells(crate::sweep::distinct_cells(seed))
            .into_iter()
            .map(|r| (r.spec.id, metrics_to_array(&r.metrics)))
            .collect();
    for e in &pass.exchanges {
        out.check(
            "reply == evaluate_cell",
            check_reply(&pass.requests[e.request], &e.reply, &reference),
        );
    }
}

/// One untraced pass.
pub fn run_pass(seed: u64, out_dir: &Path) -> Samples {
    let mut out = Samples::default();
    let log_dir = out_dir.join(format!("serve-log-{}", std::process::id()));
    let pass = run_phases(seed, &log_dir, &mut out, None);
    verify(&pass, seed, &mut out);
    out
}

/// End-to-end metrics of the pooled untraced passes.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let (cold, warm) = (s.get("cold_cell_ms"), s.get("request_ms"));
    vec![
        Metric::new(
            "fast_ops_per_s",
            median(s.get("warm_requests_per_s")),
            s.get("warm_requests_per_s").len(),
            "warm_requests_per_s: requests/s of one warm segment, median over segments and processes",
        ),
        Metric::new(
            "cold_ops_per_s",
            median(s.get("cold_cells_per_s")),
            s.get("cold_cells_per_s").len(),
            "cold_cells_per_s: distinct cells evaluated and logged per second of the cold phase, median over processes",
        ),
        Metric::new(
            "fast_op_ms_p50",
            median(warm),
            warm.len(),
            "request_ms_p50: client-observed submit_grid latency, warm phase",
        ),
        Metric::new(
            "cold_op_ms_p50",
            median(cold),
            cold.len(),
            "cold_cell_ms_p50: client-observed submit_grid latency per cell the reply evaluated, cold phase",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The bytes a client puts on the socket for one `POST /grid`.
fn wire_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /grid HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The server's handling of one warm `POST /grid`, re-issued from public
/// pieces on this thread: parse the bytes, decode the grid, look every
/// cell up in `cache`, render the cell lines.
fn reissue(tr: &mut Tracer, cache: &CellCache, bytes: &[u8]) -> Result<Vec<String>, String> {
    let request = tr.begin("serve", "request");
    let lines = reissue_steps(tr, cache, bytes);
    tr.end(request);
    lines
}

fn reissue_steps(tr: &mut Tracer, cache: &CellCache, bytes: &[u8]) -> Result<Vec<String>, String> {
    let parsed = tr
        .span("serve", "http_parse", || RequestParser::new().feed(bytes))
        .map_err(|e| format!("{e:?}"))?
        .ok_or("incomplete request")?;
    let grid = tr.span("serve", "grid_parse", || parse_grid_request(&parsed.body))?;
    let cells = tr.span("sweep", "expand", || grid.expand());
    let served = tr.span("serve", "cache_lookup", || {
        cells
            .iter()
            .map(|c| cache.get_or_evaluate(c))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(tr.span("serve", "cell_lines", || {
        cells
            .iter()
            .zip(&served)
            .map(|(c, (cached, _))| cell_line(&c.id, &c.key(), true, &cached.metrics()))
            .collect()
    }))
}

/// Re-issues the warm requests against the live server's cache, untraced
/// then traced, and probes the HTTP floor and the vendored JSON.
fn traced_requests(
    tr: &mut Tracer,
    out: &mut Samples,
    handle: &ServerHandle,
    log_dir: &Path,
    requests: &[GridRequest],
    warm_order: &[usize],
) {
    let addr = handle.addr();
    let health = time_reps(200, || {
        drop(black_box(http_request(addr, "GET", "/health", None)))
    });
    out.push("serve.health_roundtrip_us", median(&health) * 1e6);

    let cache = &handle.state().cache;
    let wire: Vec<Vec<u8>> = requests.iter().map(|r| wire_bytes(&r.body)).collect();
    // Request by request: re-issued untraced (timed from outside,
    // allocations counted), then under spans, alternating so host drift
    // hits both alike.
    let mut off = Tracer::new(false);
    let (mut u_us, mut allocs_per, mut cells_per) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcome = Ok(());
    for (op, &r) in warm_order.iter().enumerate() {
        let t = Instant::now();
        let (lines, allocs, _) = counted(|| reissue(&mut off, cache, &wire[r]));
        u_us.push(t.elapsed().as_secs_f64() * 1e6);
        allocs_per.push(allocs as f64);
        black_box(lines.ok());
        tr.set_op(op as u64);
        match reissue(tr, cache, &wire[r]) {
            Ok(lines) => {
                cells_per.push(lines.len() as f64);
                let ids: Result<Vec<String>, String> = lines
                    .iter()
                    .map(|l| parse_cell_line(l).map(|c| c.id))
                    .collect();
                if ids.as_ref() != Ok(&requests[r].ids) && outcome.is_ok() {
                    outcome = Err(format!("re-issued request {r} rendered other cells"));
                }
            }
            Err(e) => outcome = Err(e),
        }
    }
    out.check("re-issued request renders the requested cells", outcome);
    out.attempt(2 * warm_order.len() as u64);

    let us = |name: &str| tr.durations_us(name);
    let per_cell = |name: &str| -> Vec<f64> {
        us(name)
            .iter()
            .zip(&cells_per)
            .map(|(us, n)| us / n)
            .collect()
    };
    out.push("serve.http_parse_us", median(&us("http_parse")));
    out.push("serve.grid_parse_us", median(&us("grid_parse")));
    out.push("serve.cell_line_us", median(&per_cell("cell_lines")));
    out.push(
        "serve.cache_hit_ns",
        median(&per_cell("cache_lookup")) * 1e3,
    );
    out.push("serve.allocs_per_warm_request", median(&allocs_per));
    out.push(
        "bench.trace_overhead_frac",
        median(&us("request")) / median(&u_us) - 1.0,
    );

    // The vendored JSON on the workload's own bytes: request bodies and the
    // records the server has appended to its shard log.
    let log = log_dir.join(adagp_sweep::shard_file_name(adagp_sweep::Shard::default()));
    let records = std::fs::read_to_string(&log).unwrap_or_default();
    let texts: Vec<&str> = requests
        .iter()
        .map(|r| r.body.as_str())
        .chain(records.lines())
        .collect();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let values: Vec<serde::Value> = texts
        .iter()
        .map(|t| serde::json::parse_value(t).expect("the workload's own JSON parses"))
        .collect();
    let parse_s = median(&time_reps(5, || {
        for t in &texts {
            black_box(serde::json::parse_value(t).ok());
        }
    }));
    let write_s = median(&time_reps(5, || {
        for v in &values {
            black_box(serde::json::to_string(v));
        }
    }));
    out.push("serde.json_parse_mb_per_s", bytes as f64 / parse_s / 1e6);
    out.push("serde.json_write_mb_per_s", bytes as f64 / write_s / 1e6);
}

/// The traced run: one pass with the request re-issued under spans while
/// the server is up, then the `sim` and shard-log probes on the cells the
/// server evaluated.
pub fn run_traced(seed: u64, out_dir: &Path) -> Samples {
    let mut out = Samples::default();
    crate::shared_probes(&mut out);
    let mut tr = Tracer::new(true);
    let log_dir = out_dir.join(format!("serve-log-{}", std::process::id()));
    let pass = run_phases(seed, &log_dir, &mut out, Some(&mut tr));
    verify(&pass, seed, &mut out);
    let restart = median(out.get("restart_ready_ms"));
    out.push("serve.restart_ready_ms", restart);
    let (p, hi) = hi_percentile(out.get("request_ms"));
    out.push("serve.request_ms_hi", hi);
    out.push("serve.request_ms_hi.percentile", p);

    let grids = seeded_presets(seed);
    let specs = crate::sweep::distinct_cells(seed);
    assert_eq!(
        specs.len(),
        pass.distinct,
        "the cold phase requests the whole universe"
    );
    crate::sweep::sim_probes(&mut out, &specs);
    let stored: Vec<StoredCell> = evaluate_cells(specs)
        .iter()
        .map(|r| StoredCell::from_evaluation(&r.spec, &r.metrics))
        .collect();
    crate::sweep::shardlog_probes(&mut out, &stored, &grids, &out_dir.join("serve-probe-log"));

    let path = out_dir.join("serve_grid.trace.json");
    if let Err(e) = tr.write(&path, "serve_grid") {
        out.check("write trace", Err(format!("{}: {e}", path.display())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_sweep::{evaluate_cell, presets};

    #[test]
    fn cold_requests_cover_the_universe_and_repeat_per_seed() {
        let grids = seeded_presets(3);
        let a = cold_requests(3, &grids);
        let b = cold_requests(3, &grids);
        assert_eq!(
            a.iter().map(|r| &r.body).collect::<Vec<_>>(),
            b.iter().map(|r| &r.body).collect::<Vec<_>>()
        );
        let distinct: HashSet<&String> = a.iter().flat_map(|r| &r.ids).collect();
        assert_eq!(distinct.len(), 633);
        let requested: usize = a.iter().map(|r| r.ids.len()).sum();
        assert!(
            requested > 2 * 633,
            "sub-grids overlap heavily: {requested} cells requested"
        );
        for r in &a {
            let grid = parse_grid_request(r.body.as_bytes()).unwrap();
            let ids: Vec<String> = grid.expand().into_iter().map(|c| c.id).collect();
            assert_eq!(ids, r.ids);
        }
    }

    #[test]
    fn a_corrupted_cell_line_fails_the_check_and_the_run() {
        let spec = presets::smoke().expand().remove(0);
        let metrics = evaluate_cell(&spec);
        let reference = HashMap::from([(spec.id.clone(), metrics_to_array(&metrics))]);
        let line = cell_line(&spec.id, &spec.key(), false, &metrics);
        assert_eq!(
            check_cell(&parse_cell_line(&line).unwrap(), &reference),
            Ok(())
        );

        // Flip one digit of the speed-up the server streamed.
        let at = line.find("\"speedup\":").unwrap() + "\"speedup\":".len() + 2;
        let mut corrupted = line.clone().into_bytes();
        corrupted[at] = if corrupted[at] == b'7' { b'8' } else { b'7' };
        let corrupted = parse_cell_line(&String::from_utf8(corrupted).unwrap()).unwrap();
        let verdict = check_cell(&corrupted, &reference);
        assert!(verdict.is_err(), "{verdict:?}");

        let mut out = Samples::default();
        out.check("reply == evaluate_cell", verdict);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert_ne!(crate::exit_code(&[&out]), 0);
    }
}
