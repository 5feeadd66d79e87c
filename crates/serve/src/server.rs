//! The resident sweep server: accept loop, bounded connection queue,
//! worker threads, routing, and graceful draining shutdown.
//!
//! Threading model: one accept thread pushes connections onto a
//! [`BoundedQueue`] with [`try_push`](BoundedQueue::try_push) — a full
//! queue answers `503` immediately instead of growing without bound —
//! and a small fixed set of worker threads pops them, parses one request
//! per connection, and serves it. A grid streams in windows: the worker
//! looks each window's cells up in the [`CellCache`] and copies a
//! memoized cell's hit line itself; only absent or in-flight cells run
//! on the shared `adagp_runtime::pool()`, where every evaluation is
//! memoized and coalesced. Cell results stream back while later windows
//! are still evaluating, and a window of hits never wakes the pool.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or `POST /shutdown`) raises
//! a flag and pokes the listener with a wake-up connection; the accept
//! thread stops and closes the queue, and the workers finish every
//! already accepted request (draining in-flight evaluations with them).
//!
//! Durability does not depend on a graceful shutdown: with
//! [`ServerConfig::log_dir`] set, the worker appends each window's fresh
//! evaluations to a crash-safe shard log as one group (one fsync) before
//! it streams the window's lines, and a restarted server replays the
//! merged log before accepting traffic — after a `kill -9` mid-grid, only
//! the cells of windows that had not committed are evaluated again. The
//! log is the server's only persistence; without it the cache lives and
//! dies with the process.

use crate::cache::{CellCache, Served};
use crate::http::{error_response, response, streaming_head, HttpError, Request, RequestParser};
use crate::metrics::ServerMetrics;
use crate::wire::{cell_line, done_line, error_line, header_line, parse_grid_request, DoneLine};
use adagp_obs as obs;
use adagp_runtime::{BoundedQueue, TryPushError};
use adagp_sweep::grid::{CellSpec, GridSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells per streaming window of a `/grid` response: the unit a reply
/// flushes in and the shard log commits (one group, one fsync) in.
pub const GRID_WINDOW: usize = 8;

/// Server tunables. `Default` is suitable for tests: an ephemeral port,
/// four workers, a 64-connection queue.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-serving worker threads.
    pub workers: usize,
    /// Bounded connection-queue depth; overflow answers 503.
    pub queue_depth: usize,
    /// Run artifacts to warm the cache from before accepting traffic
    /// (an in-memory preload; nothing is written back).
    pub warm: Vec<PathBuf>,
    /// Shard-log directory (`None`: nothing is persisted). When set, the
    /// cache warm-loads every record already merged from the directory's
    /// shard logs, and each `/grid` window appends its fresh evaluations
    /// to `shard-1-of-1.ndjson` as one group, one fsync, before its lines
    /// stream — a stopped or killed server restarts mid-grid with zero
    /// recomputation.
    pub log_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            warm: Vec::new(),
            log_dir: None,
        }
    }
}

/// Shared server state: the memo cache, the counters, and the shutdown
/// flag.
#[derive(Debug)]
pub struct ServeState {
    /// The memoized, coalescing cell store.
    pub cache: CellCache,
    /// The `/metrics` counters.
    pub metrics: ServerMetrics,
    addr: SocketAddr,
    stop: AtomicBool,
}

impl ServeState {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown: raises the flag and pokes the accept loop with
    /// a wake-up connection so a blocking `accept()` observes it.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The probe connection sends no bytes; the handler ignores it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// Where a parsed request routes. Pure — computable without a socket,
/// which is what the protocol tests exercise.
#[derive(Debug)]
pub enum Routed {
    /// `GET /health`.
    Health,
    /// `GET /metrics`.
    Metrics,
    /// `GET /profile`.
    Profile,
    /// `GET /critical`.
    Critical,
    /// `POST /shutdown`.
    Shutdown,
    /// `POST /grid` with a decoded submission.
    Grid(GridSpec),
    /// Anything else: the error to answer with.
    Error(HttpError),
}

/// Routes a parsed request.
pub fn route(req: &Request) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Routed::Health,
        ("GET", "/metrics") => Routed::Metrics,
        ("GET", "/profile") => Routed::Profile,
        ("GET", "/critical") => Routed::Critical,
        ("POST", "/shutdown") => Routed::Shutdown,
        ("POST", "/grid") => match parse_grid_request(&req.body) {
            Ok(spec) => Routed::Grid(spec),
            Err(msg) => Routed::Error(HttpError::new(400, msg)),
        },
        (_, "/health" | "/metrics" | "/profile" | "/critical" | "/shutdown" | "/grid") => {
            Routed::Error(HttpError::new(
                405,
                format!("method {} not allowed on {}", req.method, req.path),
            ))
        }
        (_, path) => Routed::Error(HttpError::new(404, format!("no such endpoint `{path}`"))),
    }
}

/// A running server: its address, state, and joinable threads.
#[derive(Debug)]
pub struct ServerHandle {
    state: Arc<ServeState>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Starts a server per `cfg`: warm-loads the cache, binds, and spawns
/// the accept and worker threads. Returns once the server is accepting.
///
/// # Errors
///
/// Returns a description of a warm-load or bind failure.
pub fn start(cfg: ServerConfig) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let state = Arc::new(ServeState {
        cache: CellCache::new(),
        metrics: ServerMetrics::new(),
        addr,
        stop: AtomicBool::new(false),
    });
    for path in &cfg.warm {
        state.cache.warm_load(path)?;
    }
    if let Some(dir) = &cfg.log_dir {
        // Replay the crash-safe append log: every record any previous
        // incarnation committed becomes a warm entry (resume hits on
        // /metrics), then this incarnation appends to the same log.
        let merged = adagp_sweep::shardlog::merge_dir(dir)?;
        for (path, span) in &merged.skipped {
            eprintln!("adagp-serve: warning: {}: skipped {span}", path.display());
        }
        let resumed = state.cache.warm(merged.by_id.into_values());
        adagp_sweep::shardlog::note_resume_hits(resumed as u64);
        let writer = adagp_sweep::shardlog::ShardWriter::open(dir, adagp_sweep::Shard::default())
            .map_err(|e| format!("open shard log in {}: {e}", dir.display()))?;
        state.cache.attach_log(writer);
    }
    let queue = Arc::new(BoundedQueue::<TcpStream>::new(cfg.queue_depth.max(1)));
    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("adagp-serve-{i}"))
                .spawn(move || {
                    while let Some(stream) = queue.pop() {
                        handle_connection(&state, stream);
                    }
                })
                .expect("spawn serve worker")
        })
        .collect();
    let accept = {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("adagp-serve-accept".to_string())
            .spawn(move || {
                accept_loop(&listener, &state, &queue);
                queue.close();
            })
            .expect("spawn serve accept loop")
    };
    Ok(ServerHandle {
        state,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, state: &ServeState, queue: &BoundedQueue<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.stopping() {
                    return;
                }
                continue;
            }
        };
        if state.stopping() {
            // The wake-up probe (or a late arrival); drop and stop.
            drop(stream);
            return;
        }
        match queue.try_push(stream) {
            Ok(()) => {}
            Err(TryPushError::Full(stream)) => {
                state
                    .metrics
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                reject_overload(stream);
            }
            Err(TryPushError::Closed(_)) => return,
        }
    }
}

/// Answers a connection the queue had no room for: 503 with a
/// `Retry-After` hint, without reading the request.
fn reject_overload(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = r#"{"error":"server overloaded, retry later"}"#;
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// How long a served connection may stall a read or a write: a peer that
/// stops sending mid-request, or stops reading a reply larger than the
/// socket buffers, frees its worker after this.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounds both directions of a served stream by [`IO_TIMEOUT`].
fn set_io_timeouts(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
}

/// Reads, parses and serves one request on `stream` (one request per
/// connection; every response closes).
fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    set_io_timeouts(&stream);
    let mut parser = RequestParser::new();
    let mut buf = [0u8; 4096];
    let req = loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                // EOF: a silent wake-up probe closes clean; a truncated
                // request earns its 400.
                if let Err(e) = parser.finish() {
                    state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.write_all(&error_response(&e));
                }
                return;
            }
            Ok(n) => match parser.feed(&buf[..n]) {
                Ok(Some(req)) => break req,
                Ok(None) => {}
                Err(e) => {
                    state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.write_all(&error_response(&e));
                    return;
                }
            },
            // Read timeout or reset: drop the connection. Nothing useful
            // can be said to a peer that stopped talking mid-request.
            Err(_) => return,
        }
    };
    state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .requests_in_flight
        .fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    // Request-lifecycle span (wall clock, `ADAGP_TRACE`-gated): covers
    // routing, evaluation and the streamed write-out.
    let span_start = if obs::enabled() { obs::now_ns() } else { 0 };
    let _ = respond(state, &req, &mut stream, started);
    if obs::enabled() {
        obs::record_span(
            "serve",
            format!("{} {}", req.method, req.path),
            span_start,
            obs::now_ns(),
        );
    }
    let micros = started.elapsed().as_micros() as u64;
    state.metrics.record_request_micros(micros);
    state.metrics.record_endpoint_micros(&req.path, micros);
    state
        .metrics
        .requests_in_flight
        .fetch_sub(1, Ordering::Relaxed);
}

fn respond(
    state: &ServeState,
    req: &Request,
    stream: &mut TcpStream,
    started: Instant,
) -> std::io::Result<()> {
    match route(req) {
        Routed::Health => stream.write_all(&response(
            200,
            "application/json",
            &format!(r#"{{"ok":true,"cells_cached":{}}}"#, state.cache.len()),
        )),
        Routed::Metrics => {
            // Server counters and endpoint histograms, then the
            // process-global obs registry (runtime pool, sweep) — one
            // scrape covers the whole process.
            let mut body = state.metrics.render();
            body.push_str(&obs::registry().render("adagp_"));
            stream.write_all(&response(200, "text/plain; charset=utf-8", &body))
        }
        Routed::Profile => {
            // The live span-tree profile of this process, aggregated from
            // the recorder's lanes on the spot (empty unless recording is
            // on — run the server under `ADAGP_TRACE`/`ADAGP_PROFILE` or
            // flip `obs::set_enabled`). Request spans are recorded *after*
            // `respond` returns, so a scrape never contains its own
            // in-flight request as a half-open span.
            let body = obs::build_profile(&obs::snapshot()).to_json("adagp-serve live profile");
            stream.write_all(&response(200, "application/json", &body))
        }
        Routed::Critical => {
            // Live stall attribution of this process's recorded lanes
            // (`adagp-critpath-v1`, measured mode): spans folded into
            // busy / queue-wait / idle per lane, with gaps classified
            // against the runtime pool's queue-wait p95. Empty unless
            // recording is on, same as `/profile`.
            let body = obs::analyze_snapshot(
                &obs::snapshot(),
                obs::measured_gap_threshold_ns(),
                "adagp-serve live critical path",
            )
            .to_json();
            stream.write_all(&response(200, "application/json", &body))
        }
        Routed::Shutdown => {
            stream.write_all(&response(
                200,
                "application/json",
                r#"{"ok":true,"draining":true}"#,
            ))?;
            stream.flush()?;
            state.request_shutdown();
            Ok(())
        }
        Routed::Grid(spec) => serve_grid(state, &spec, stream, started),
        Routed::Error(e) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            stream.write_all(&error_response(&e))
        }
    }
}

/// Streams a `/grid` response: header line, cell lines in evaluation
/// windows (flushed per window), summary line. A hit streams its cache
/// entry's hit line; an evaluated or joined cell is rendered here. The
/// cells a window evaluated are committed to the log, as one group in
/// window order, before any of its lines is written.
fn serve_grid(
    state: &ServeState,
    spec: &GridSpec,
    stream: &mut TcpStream,
    started: Instant,
) -> std::io::Result<()> {
    state.metrics.grid_requests.fetch_add(1, Ordering::Relaxed);
    let cells = spec.expand();
    stream.write_all(&streaming_head(200, "application/x-ndjson"))?;
    let mut line = header_line(&spec.name, cells.len());
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    let mut done = DoneLine {
        cells: 0,
        hits: 0,
        evaluated: 0,
        joined: 0,
        micros: 0,
    };
    for window in cells.chunks(GRID_WINDOW) {
        // Memoized cells are answered on this worker; only absent or
        // in-flight cells go to the pool, so an all-hit window opens no
        // pool region.
        let memoized: Vec<_> = window.iter().map(|c| state.cache.memoized(c)).collect();
        let misses: Vec<&CellSpec> = window
            .iter()
            .zip(&memoized)
            .filter_map(|(cell, memo)| memo.is_none().then_some(cell))
            .collect();
        let fresh = adagp_runtime::pool().parallel_map(misses, |cell| state.cache.answer(cell));
        // The window's evaluations reach the disk before its lines leave.
        let evaluated = fresh.iter().filter_map(|answer| match answer {
            Ok((entry, Served::Evaluated)) => Some(&*entry.cell),
            _ => None,
        });
        state.cache.commit(evaluated);
        let mut fresh = fresh.into_iter();
        let mut chunk = String::new();
        for (cell, memo) in window.iter().zip(memoized) {
            let answer = match memo {
                Some(entry) => Ok((entry, Served::Hit)),
                None => fresh.next().expect("one answer per miss"),
            };
            let (entry, served) = match answer {
                Ok(answer) => answer,
                Err(msg) => {
                    chunk.push_str(&error_line(&cell.id, &msg));
                    chunk.push('\n');
                    continue;
                }
            };
            if served == Served::Hit {
                chunk.push_str(entry.hit_line(cell));
            } else {
                chunk.push_str(&cell_line(
                    &cell.id,
                    &cell.key(),
                    false,
                    &entry.cell.metrics(),
                ));
            }
            chunk.push('\n');
            state.metrics.cells_served.fetch_add(1, Ordering::Relaxed);
            done.cells += 1;
            match served {
                Served::Hit => {
                    state.metrics.cell_hits.fetch_add(1, Ordering::Relaxed);
                    done.hits += 1;
                }
                Served::Evaluated => {
                    state.metrics.cell_misses.fetch_add(1, Ordering::Relaxed);
                    state.metrics.evaluations.fetch_add(1, Ordering::Relaxed);
                    done.evaluated += 1;
                }
                Served::Joined => {
                    state.metrics.cell_misses.fetch_add(1, Ordering::Relaxed);
                    state
                        .metrics
                        .coalesced_waits
                        .fetch_add(1, Ordering::Relaxed);
                    done.joined += 1;
                }
            }
        }
        stream.write_all(chunk.as_bytes())?;
        stream.flush()?;
    }
    done.micros = started.elapsed().as_micros() as u64;
    let mut tail = done_line(&done);
    tail.push('\n');
    stream.write_all(tail.as_bytes())
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The shared state (cache + metrics), for in-process assertions.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain every accepted request
    /// (in-flight evaluations included) and join all threads. Nothing is
    /// written here — every evaluation reached the shard log with its
    /// window.
    ///
    /// # Errors
    ///
    /// Returns how many server threads panicked, if any did; all of them
    /// are joined regardless.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.shutdown_impl(0)
    }

    /// Blocks until shutdown is requested remotely (`POST /shutdown`),
    /// then drains and joins exactly like
    /// [`shutdown`](ServerHandle::shutdown). This is the CLI's main
    /// loop.
    ///
    /// # Errors
    ///
    /// Returns how many server threads panicked, if any did.
    pub fn serve_forever(mut self) -> Result<(), String> {
        let accept_panicked = self.accept.take().is_some_and(|a| a.join().is_err());
        self.shutdown_impl(usize::from(accept_panicked))
    }

    fn shutdown_impl(&mut self, mut panicked: usize) -> Result<(), String> {
        self.state.request_shutdown();
        for thread in self.accept.take().into_iter().chain(self.workers.drain(..)) {
            panicked += usize::from(thread.join().is_err());
        }
        match panicked {
            0 => Ok(()),
            n => Err(format!("{n} server thread(s) panicked")),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort cleanup for handles dropped without an explicit
        // shutdown (e.g. a panicking test): threads must not leak.
        let _ = self.shutdown_impl(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn routing_is_pure_and_total() {
        assert!(matches!(route(&req("GET", "/health", b"")), Routed::Health));
        assert!(matches!(
            route(&req("GET", "/metrics", b"")),
            Routed::Metrics
        ));
        assert!(matches!(
            route(&req("GET", "/profile", b"")),
            Routed::Profile
        ));
        match route(&req("POST", "/profile", b"")) {
            Routed::Error(e) => assert_eq!(e.status, 405),
            other => panic!("expected 405, got {other:?}"),
        }
        assert!(matches!(
            route(&req("GET", "/critical", b"")),
            Routed::Critical
        ));
        match route(&req("POST", "/critical", b"")) {
            Routed::Error(e) => assert_eq!(e.status, 405),
            other => panic!("expected 405, got {other:?}"),
        }
        assert!(matches!(
            route(&req("POST", "/shutdown", b"")),
            Routed::Shutdown
        ));
        match route(&req("POST", "/grid", br#"{"preset":"smoke"}"#)) {
            Routed::Grid(spec) => assert_eq!(spec.name, "smoke"),
            other => panic!("expected grid route, got {other:?}"),
        }
        match route(&req("POST", "/grid", b"not json")) {
            Routed::Error(e) => assert_eq!(e.status, 400),
            other => panic!("expected 400, got {other:?}"),
        }
        match route(&req("DELETE", "/grid", b"")) {
            Routed::Error(e) => assert_eq!(e.status, 405),
            other => panic!("expected 405, got {other:?}"),
        }
        match route(&req("GET", "/nope", b"")) {
            Routed::Error(e) => assert_eq!(e.status, 404),
            other => panic!("expected 404, got {other:?}"),
        }
    }

    /// A client that stops reading must not hold a worker in `write_all`
    /// forever: a served stream times out writes as well as reads.
    #[test]
    fn served_streams_time_out_in_both_directions() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        assert_eq!(served.write_timeout().unwrap(), None);
        set_io_timeouts(&served);
        assert_eq!(served.read_timeout().unwrap(), Some(IO_TIMEOUT));
        assert_eq!(served.write_timeout().unwrap(), Some(IO_TIMEOUT));
    }

    /// One window holding two memoized cells, one in flight on another
    /// request and one absent streams its lines in window order and
    /// counts each cell once, by how it was served.
    #[test]
    fn a_window_of_hits_a_joined_cell_and_a_miss_streams_in_window_order() {
        use adagp_sweep::store::StoredCell;
        let server = start(ServerConfig::default()).expect("server starts");
        let body = r#"{"name":"mixed","models":["VGG13"],"datasets":["Cifar10","Cifar100"],
            "designs":["ADA-GP-Efficient","ADA-GP-MAX"],"dataflows":["WS"],"schedules":["paper"]}"#;
        let cells = parse_grid_request(body.as_bytes()).unwrap().expand();
        assert_eq!(cells.len(), 4);
        assert!(cells.len() <= GRID_WINDOW, "one window");
        let cache = &server.state().cache;
        cache.warm(
            [&cells[0], &cells[3]]
                .map(|c| StoredCell::from_evaluation(c, &adagp_sweep::evaluate_cell(c))),
        );
        let addr = server.addr();
        let reply = std::thread::scope(|scope| {
            let held = cache.hold_flight(scope, &cells[1]);
            let client = scope.spawn(move || crate::submit_grid(addr, body));
            let deadline = Instant::now() + Duration::from_secs(60);
            while held.waiters() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let joined = held.waiters() == 1;
            held.finish();
            assert!(joined, "the window never joined the held flight");
            client.join().unwrap().expect("grid reply")
        });
        assert_eq!(reply.cells.len(), cells.len());
        for (got, spec) in reply.cells.iter().zip(&cells) {
            assert_eq!(got.id, spec.id, "window order");
            let want = adagp_sweep::metrics_to_array(&adagp_sweep::evaluate_cell(spec));
            assert_eq!(got.metrics, want, "{}", spec.key());
        }
        let cached: Vec<bool> = reply.cells.iter().map(|c| c.cached).collect();
        assert_eq!(cached, [true, false, false, true]);
        let done = &reply.done;
        assert_eq!(
            (done.cells, done.hits, done.evaluated, done.joined),
            (4, 2, 1, 1)
        );
        let metrics = crate::fetch_metrics(addr).expect("metrics");
        assert_eq!(crate::check_invariants(&metrics), None);
        for (name, want) in [
            ("cells_served", 4),
            ("cell_hits", 2),
            ("cell_misses", 2),
            ("evaluations", 1),
            ("coalesced_waits", 1),
        ] {
            assert_eq!(metrics[name], want, "{name}");
        }
        server.shutdown().expect("clean shutdown");
    }
}
