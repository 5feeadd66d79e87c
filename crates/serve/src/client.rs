//! A small blocking client for the serve wire protocol — what the
//! load-test harness, the CLI and the integration tests talk through.
//!
//! One request per connection, `Connection: close` framing: the client
//! writes the request, shutting down its write half, and reads to EOF.
//! [`submit_grid`] decodes each NDJSON line of a `/grid` reply once,
//! through [`parse_grid_line`], and sorts it by kind.

use crate::metrics::parse_metrics;
use crate::wire::{parse_grid_line, CellLine, DoneLine, GridLine};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A raw HTTP exchange: status code, body text, and the `Retry-After`
/// hint when the server sent one (overload responses do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// Response status code.
    pub status: u16,
    /// Response body (header section stripped).
    pub body: String,
    /// Parsed `Retry-After` header, in seconds, if present.
    pub retry_after: Option<u64>,
}

/// Bounded-retry policy for overloaded (`503`) replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff before a retry when the server sent no `Retry-After`
    /// hint; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Cap on any single sleep, hinted or not. Keeps a hostile or
    /// misconfigured `Retry-After: 3600` from wedging a client.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// Milliseconds to sleep before retry number `attempt` (1-based),
    /// honoring the server's `Retry-After` hint when present.
    fn backoff_ms(&self, attempt: u32, retry_after: Option<u64>) -> u64 {
        let ms = match retry_after {
            Some(secs) => secs.saturating_mul(1_000),
            None => self
                .base_backoff_ms
                .saturating_mul(1u64 << (attempt - 1).min(16)),
        };
        ms.min(self.max_backoff_ms)
    }
}

/// Performs one request against `addr` and reads the reply to EOF.
///
/// # Errors
///
/// Returns a description of a connect/write/read failure or a reply
/// that is not parseable HTTP.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpReply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_reply(raw)
}

/// Splits a raw reply into status, `Retry-After` hint, and body. The head
/// ends at the first `\r\n\r\n`; the body is what follows, moved to the
/// front of `raw`'s own buffer.
fn parse_reply(mut raw: Vec<u8>) -> Result<HttpReply, String> {
    const NOT_UTF8: &str = "reply is not UTF-8";
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| {
            let text = String::from_utf8_lossy(&raw);
            format!("reply without head terminator: `{text}`")
        })?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| NOT_UTF8.to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{status_line}`"))?;
    let retry_after = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse::<u64>().ok())
            .flatten()
    });
    raw.drain(..end + 4);
    Ok(HttpReply {
        status,
        body: String::from_utf8(raw).map_err(|_| NOT_UTF8.to_string())?,
        retry_after,
    })
}

/// Like [`http_request`], but retries `503 Service Unavailable` replies
/// per `policy`, honoring the server's `Retry-After` hint (seconds,
/// capped by the policy). Transport errors are **not** retried — a dead
/// server is a different failure than a busy one. After the retry budget
/// is spent, the final `503` reply is returned for the caller to report.
///
/// # Errors
///
/// Returns a description of a connect/write/read failure or an
/// unparseable reply.
pub(crate) fn http_request_retrying(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: RetryPolicy,
) -> Result<HttpReply, String> {
    let mut attempt = 0u32;
    loop {
        let reply = http_request(addr, method, path, body)?;
        if reply.status != 503 || attempt >= policy.max_retries {
            return Ok(reply);
        }
        attempt += 1;
        let ms = policy.backoff_ms(attempt, reply.retry_after);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// A fully read `/grid` response.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResponse {
    /// Grid name echoed by the header line.
    pub grid: String,
    /// Cell count announced by the header line.
    pub announced_cells: u64,
    /// Every successfully served cell, in stream order.
    pub cells: Vec<CellLine>,
    /// Mid-stream cell error lines, verbatim.
    pub cell_errors: Vec<String>,
    /// The terminating summary.
    pub done: DoneLine,
}

/// Submits a grid (JSON text) and parses the NDJSON stream. Overload
/// (`503`) replies are retried up to three times, after the server's
/// `Retry-After` hint or a doubling 50 ms backoff (each sleep capped at
/// 2 s), before giving up.
///
/// # Errors
///
/// Returns a description of a transport failure, a non-200 status (with
/// the server's error body), or a malformed stream.
pub fn submit_grid(addr: SocketAddr, spec_json: &str) -> Result<GridResponse, String> {
    let reply = http_request_retrying(
        addr,
        "POST",
        "/grid",
        Some(spec_json),
        RetryPolicy::default(),
    )?;
    if reply.status != 200 {
        return Err(format!(
            "/grid answered {}: {}",
            reply.status,
            reply.body.trim()
        ));
    }
    let mut lines = reply.body.lines().filter(|l| !l.is_empty());
    let header = lines.next().ok_or("empty /grid stream")?;
    let Ok(GridLine::Header {
        grid,
        cells: announced_cells,
    }) = parse_grid_line(header)
    else {
        return Err(format!("malformed header line `{header}`"));
    };
    let mut cells = Vec::new();
    let mut cell_errors = Vec::new();
    let mut done = None;
    for line in lines {
        match parse_grid_line(line)? {
            GridLine::Cell(cell) => cells.push(cell),
            GridLine::Error { .. } => cell_errors.push(line.to_string()),
            GridLine::Done(d) => done = Some(d),
            GridLine::Header { .. } => return Err(format!("second header line `{line}`")),
        }
    }
    Ok(GridResponse {
        grid,
        announced_cells,
        cells,
        cell_errors,
        done: done.ok_or("stream ended without a done line")?,
    })
}

/// Scrapes `/metrics` into a name → value map (`i128` values: gauges
/// may be negative, histogram `_sum`s may exceed `i64`).
///
/// # Errors
///
/// Returns a description of a transport failure, a non-200 status, or a
/// malformed metrics body.
pub fn fetch_metrics(addr: SocketAddr) -> Result<HashMap<String, i128>, String> {
    let reply = http_request(addr, "GET", "/metrics", None)?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    parse_metrics(&reply.body)
}

/// Requests remote shutdown.
///
/// # Errors
///
/// Returns a description of a transport failure or a non-200 status.
pub fn request_shutdown(addr: SocketAddr) -> Result<(), String> {
    let reply = http_request(addr, "POST", "/shutdown", None)?;
    if reply.status != 200 {
        return Err(format!("/shutdown answered {}", reply.status));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted stub server: answers each accepted connection with the
    /// next raw response, counting requests served. Closes each
    /// connection after answering (the client's framing).
    fn stub(responses: Vec<String>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let served_in_thread = Arc::clone(&served);
        std::thread::spawn(move || {
            for resp in responses {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                // Drain the request head before answering.
                let mut buf = [0u8; 4096];
                let mut head: Vec<u8> = Vec::new();
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            head.extend_from_slice(&buf[..n]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                served_in_thread.fetch_add(1, Ordering::SeqCst);
                let _ = stream.write_all(resp.as_bytes());
            }
        });
        (addr, served)
    }

    fn overloaded(retry_after: &str) -> String {
        format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\nRetry-After: {retry_after}\r\n\r\nbusy"
        )
    }

    fn ok() -> String {
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_string()
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff_ms: 1,
            max_backoff_ms: 5,
        }
    }

    #[test]
    fn retry_after_header_is_parsed_case_insensitively() {
        let reply = parse_reply(
            b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 7\r\nContent-Length: 1\r\n\r\nx"
                .to_vec(),
        )
        .unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.retry_after, Some(7));
        let reply = parse_reply(b"HTTP/1.1 200 OK\r\n\r\nok".to_vec()).unwrap();
        assert_eq!(reply.retry_after, None);
    }

    #[test]
    fn the_head_ends_at_the_first_blank_line() {
        let reply =
            parse_reply(b"HTTP/1.1 200 OK\r\n\r\nRetry-After: 9\r\n\r\nbody".to_vec()).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.retry_after, None, "a header-like body line is body");
        assert_eq!(reply.body, "Retry-After: 9\r\n\r\nbody");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n".to_vec())
            .unwrap_err()
            .starts_with("reply without head terminator"));
        assert_eq!(
            parse_reply(b"HTTP/1.1 200 OK\r\n\r\n\xff".to_vec()).unwrap_err(),
            "reply is not UTF-8"
        );
    }

    #[test]
    fn overload_is_retried_until_success() {
        let (addr, served) = stub(vec![overloaded("0"), overloaded("0"), ok()]);
        let reply =
            http_request_retrying(addr, "GET", "/health", None, fast_policy(3)).expect("reply");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, "ok");
        assert_eq!(served.load(Ordering::SeqCst), 3, "two retries then success");
    }

    #[test]
    fn retry_budget_is_bounded_and_the_final_503_is_returned() {
        let (addr, served) = stub(vec![overloaded("0"), overloaded("0"), overloaded("0")]);
        let reply =
            http_request_retrying(addr, "GET", "/health", None, fast_policy(2)).expect("reply");
        assert_eq!(reply.status, 503, "gives up with the last overload reply");
        assert_eq!(served.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
    }

    #[test]
    fn zero_retries_means_one_attempt() {
        let (addr, served) = stub(vec![overloaded("0")]);
        let reply =
            http_request_retrying(addr, "GET", "/health", None, fast_policy(0)).expect("reply");
        assert_eq!(reply.status, 503);
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_honors_hints_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
        };
        assert_eq!(p.backoff_ms(1, Some(1)), 1_000, "hinted seconds");
        assert_eq!(p.backoff_ms(1, Some(3_600)), 2_000, "hint is capped");
        assert_eq!(p.backoff_ms(1, None), 50, "unhinted: base");
        assert_eq!(p.backoff_ms(2, None), 100, "unhinted: doubles");
        assert_eq!(p.backoff_ms(10, None), 2_000, "unhinted: capped");
    }
}
