//! Protocol property tests: the hand-rolled HTTP layer and the JSON
//! wire format under seeded adversarial input.
//!
//! Three properties, each fuzzed with the workspace `Prng`
//! (xoshiro256++, fixed seeds — failures reproduce exactly):
//!
//! 1. **Fragmentation-invariance** — a valid request parses to the same
//!    `Request` no matter how the TCP stream slices it.
//! 2. **Totality** — arbitrary garbage (random bytes, and mutations of
//!    valid requests) never panics or hangs the parser; every rejection
//!    is a typed 4xx/5xx.
//! 3. **Round-trip** — every preset `GridSpec` survives
//!    JSON-encode → parse and the live server answers garbage with 4xx
//!    while staying healthy.

use adagp_serve::http::{RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use adagp_serve::wire::{grid_to_value, parse_grid_request};
use adagp_serve::{check_invariants, http_request, server, ServerConfig};
use adagp_sweep::presets;
use adagp_tensor::Prng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Feeds `bytes` to a fresh parser in one call.
fn parse_whole(bytes: &[u8]) -> Result<Option<adagp_serve::Request>, adagp_serve::HttpError> {
    RequestParser::new().feed(bytes)
}

/// Splits `bytes` into `cuts + 1` chunks at random boundaries and feeds
/// them one at a time, returning the first non-`Ok(None)` outcome.
fn parse_fragmented(
    bytes: &[u8],
    rng: &mut Prng,
    cuts: usize,
) -> Result<Option<adagp_serve::Request>, adagp_serve::HttpError> {
    let mut boundaries: Vec<usize> = (0..cuts).map(|_| rng.below(bytes.len() + 1)).collect();
    boundaries.push(0);
    boundaries.push(bytes.len());
    boundaries.sort_unstable();
    let mut parser = RequestParser::new();
    for pair in boundaries.windows(2) {
        match parser.feed(&bytes[pair[0]..pair[1]])? {
            Some(req) => return Ok(Some(req)),
            None => continue,
        }
    }
    Ok(None)
}

fn valid_requests() -> Vec<Vec<u8>> {
    let grid_body = serde::json::to_string(&grid_to_value(&presets::smoke()));
    vec![
        b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
        b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
        format!(
            "POST /grid HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{grid_body}",
            grid_body.len()
        )
        .into_bytes(),
        // Bare-LF head framing is accepted too.
        b"GET /health HTTP/1.1\nHost: x\n\n".to_vec(),
    ]
}

#[test]
fn valid_requests_parse_identically_under_any_fragmentation() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e01);
    for bytes in valid_requests() {
        let whole = parse_whole(&bytes)
            .expect("valid request parses")
            .expect("valid request completes");
        for round in 0..200 {
            let cuts = 1 + rng.below(bytes.len().min(24));
            let fragged = parse_fragmented(&bytes, &mut rng, cuts)
                .unwrap_or_else(|e| panic!("round {round}: fragmented parse failed: {e}"))
                .unwrap_or_else(|| panic!("round {round}: fragmented parse incomplete"));
            assert_eq!(fragged.method, whole.method, "round {round}");
            assert_eq!(fragged.path, whole.path, "round {round}");
            assert_eq!(fragged.headers, whole.headers, "round {round}");
            assert_eq!(fragged.body, whole.body, "round {round}");
        }
    }
}

#[test]
fn random_garbage_never_panics_and_rejections_are_typed() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e02);
    for round in 0..400 {
        let len = 1 + rng.below(512);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                // Bias toward protocol-ish bytes so parsing gets past the
                // first token often enough to stress the later states.
                match rng.below(4) {
                    0 => b"GET POST HTTP/1.1\r\n: "[rng.below(21)],
                    _ => (rng.next_u64() & 0xff) as u8,
                }
            })
            .collect();
        let mut parser = RequestParser::new();
        let cuts = rng.below(8);
        let mut start = 0;
        let mut outcome = Ok(None);
        for _ in 0..=cuts {
            let end = (start + 1 + rng.below(bytes.len())).min(bytes.len());
            outcome = parser.feed(&bytes[start..end]);
            start = end;
            if !matches!(outcome, Ok(None)) || start == bytes.len() {
                break;
            }
        }
        match outcome {
            Ok(_) => {
                // Incomplete (or improbably valid): EOF must still answer
                // without a panic.
                let _ = parser.finish();
            }
            Err(e) => assert!(
                (400..600).contains(&e.status),
                "round {round}: untyped rejection {e:?} for {bytes:?}"
            ),
        }
    }
}

#[test]
fn mutated_valid_requests_never_panic() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e03);
    let templates = valid_requests();
    for round in 0..400 {
        let mut bytes = templates[rng.below(templates.len())].clone();
        for _ in 0..=rng.below(6) {
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] = (rng.next_u64() & 0xff) as u8,
                1 => {
                    bytes.remove(at);
                    if bytes.is_empty() {
                        bytes.push(b' ');
                    }
                }
                _ => bytes.insert(at, (rng.next_u64() & 0xff) as u8),
            }
        }
        let mut parser = RequestParser::new();
        match parser.feed(&bytes) {
            Ok(_) => {
                let _ = parser.finish();
            }
            Err(e) => assert!(
                (400..600).contains(&e.status),
                "round {round}: untyped rejection {e:?}"
            ),
        }
    }
}

#[test]
fn oversized_heads_and_bodies_are_bounded_rejections() {
    // Head larger than the cap: 431, raised before buffering the world.
    let mut parser = RequestParser::new();
    let mut head = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(head.len() + MAX_HEAD_BYTES, b'a');
    let err = parser.feed(&head).expect_err("oversized head rejected");
    assert_eq!(err.status, 431);

    // Declared body over the cap: 413 from the declaration alone.
    let mut parser = RequestParser::new();
    let req = format!(
        "POST /grid HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let err = parser
        .feed(req.as_bytes())
        .expect_err("oversized body rejected");
    assert_eq!(err.status, 413);

    // Truncated body: EOF mid-body is a 400, not a hang.
    let mut parser = RequestParser::new();
    let outcome = parser
        .feed(b"POST /grid HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        .expect("prefix is well-formed");
    assert!(outcome.is_none(), "body is incomplete");
    let err = parser.finish().expect_err("truncation rejected at EOF");
    assert_eq!(err.status, 400);
}

#[test]
fn every_preset_grid_round_trips_over_the_wire_encoding() {
    for grid in presets::all() {
        let encoded = serde::json::to_string(&grid_to_value(&grid));
        let decoded = parse_grid_request(encoded.as_bytes())
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", grid.name));
        assert_eq!(decoded, grid, "{} drifted across the wire", grid.name);
        // And the cells derived from it are identical, IDs included.
        let (a, b) = (grid.expand(), decoded.expand());
        assert_eq!(a, b, "{} expansion drifted", grid.name);
    }
}

#[test]
fn live_server_answers_garbage_with_4xx_and_stays_healthy() {
    let server = server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let mut rng = Prng::seed_from_u64(0x05e4_1e04);
    for round in 0..24 {
        let len = 1 + rng.below(200);
        let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&garbage).expect("write garbage");
        // Half-close so the server sees EOF even when the bytes happen to
        // look like an incomplete head.
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read reply");
        if !reply.is_empty() {
            let text = String::from_utf8_lossy(&reply);
            let status: u16 = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("round {round}: unparseable reply {text:?}"));
            assert!(
                (400..600).contains(&status),
                "round {round}: garbage earned status {status}"
            );
        }
    }
    // The server is still fully functional afterwards.
    let health = http_request(addr, "GET", "/health", None).expect("health after fuzz");
    assert_eq!(health.status, 200);
    let metrics = adagp_serve::fetch_metrics(addr).expect("metrics after fuzz");
    assert!(metrics["bad_requests"] > 0, "fuzz rounds were all silent");
    assert_eq!(check_invariants(&metrics), None);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn deeply_nested_grid_body_is_a_400_and_the_server_stays_up() {
    let server = server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let bad_before = adagp_serve::fetch_metrics(addr).expect("metrics")["bad_requests"];
    // 10 KB, far under MAX_BODY_BYTES: unbounded parser recursion on
    // this body overflows the worker's stack, which aborts the process.
    let body = "[".repeat(10_000);
    assert!(body.len() < MAX_BODY_BYTES);
    let reply = http_request(addr, "POST", "/grid", Some(&body)).expect("reply to nested body");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("nesting deeper than 128"),
        "{}",
        reply.body
    );
    let health = http_request(addr, "GET", "/health", None).expect("health after nested body");
    assert_eq!(health.status, 200);
    let metrics = adagp_serve::fetch_metrics(addr).expect("metrics");
    assert_eq!(metrics["bad_requests"], bad_before + 1);
    assert_eq!(check_invariants(&metrics), None);
    server.shutdown().expect("clean shutdown");
}
