//! # adagp-serve
//!
//! Sweep-as-a-service: a resident TCP server that answers `GridSpec`
//! submissions from a **memoized cell store** instead of re-deriving
//! every design-space point from scratch. `adagp-sweep`'s content-derived
//! cell IDs (FNV-1a over the canonical axis key) are perfect cache keys:
//! the same cell submitted by any client, in any grid, at any time maps
//! to the same entry, so the server evaluates each point of the paper's
//! design space **once** — the ROADMAP's "resident sweep service" item.
//!
//! Layers (std-only, hand-rolled in the same vendoring spirit as the
//! workspace's serde stand-in):
//!
//! * [`http`] — an incremental HTTP/1.1 push parser tolerant of
//!   arbitrary TCP fragmentation, with typed 4xx/5xx errors; one request
//!   per connection, `Connection: close` framing.
//! * [`wire`] — `GridSpec` ⇄ JSON (preset references or explicit axes
//!   under their stable display names) and the NDJSON result stream
//!   (header line, one line per cell as it completes, summary line).
//!   Metric floats use shortest-round-trip formatting, so clients
//!   recover bit-identical `f64`s.
//! * [`cache`] — the coalescing memo store: exactly one evaluation per
//!   cell across any number of concurrent requests, warm-loadable from
//!   committed `runs/*` artifacts (CSV/JSON), made durable by appending
//!   every fresh evaluation to a crash-safe shard log that a restarted
//!   server replays.
//! * [`metrics`] — atomic hit/miss/evaluation/in-flight counters on
//!   `/metrics`, with machine-checkable cross-counter invariants.
//! * [`server`] — accept loop + bounded connection queue (503 on
//!   overload via `BoundedQueue::try_push`) + worker threads; cell
//!   evaluation runs on the shared `adagp_runtime::pool()`; graceful
//!   shutdown drains accepted requests.
//! * [`client`] — the blocking client the load-test harness and the
//!   integration tests drive the server with.
//!
//! ## Endpoints
//!
//! | Endpoint         | Reply                                          |
//! |------------------|------------------------------------------------|
//! | `GET /health`    | `{"ok":true,"cells_cached":n}`                 |
//! | `GET /metrics`   | `adagp_serve_<counter> <value>` lines          |
//! | `POST /grid`     | NDJSON stream of evaluated cells               |
//! | `POST /shutdown` | `{"ok":true,"draining":true}`, then drain      |

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;
pub mod wire;

pub use cache::{CellCache, Served};
pub use client::{fetch_metrics, http_request, submit_grid, GridResponse, HttpReply};
pub use http::{HttpError, Request, RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
pub use metrics::{check_invariants, parse_metrics, ServerMetrics};
pub use server::{route, start, Routed, ServeState, ServerConfig, ServerHandle};
pub use wire::{grid_from_value, grid_to_value, parse_grid_request, CellLine, DoneLine};
