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
//! 4. **Decoders are total and exact** — `parse_grid_request` and the
//!    response line decoder `parse_grid_line`, fed truncated, mutated and
//!    mistyped forms of every valid input, never panic, reject each
//!    invalid input with a message, and accept only input that re-encodes
//!    to what they decoded.

use adagp_serve::http::{RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use adagp_serve::wire::{
    cell_line, done_line, error_line, grid_to_value, header_line, parse_grid_line,
    parse_grid_request, DoneLine, GridLine,
};
use adagp_serve::{check_invariants, http_request, server, ServerConfig};
use adagp_sweep::{presets, StoredCell};
use adagp_tensor::Prng;
use serde::Value;
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

/// Flips, inserts or deletes one to six random bytes of `bytes`.
fn mutate_bytes(rng: &mut Prng, bytes: &mut Vec<u8>) {
    for _ in 0..=rng.below(6) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, (rng.next_u64() & 0xff) as u8),
        }
    }
}

/// The grid decoder's contract on one body: no panic, an `Err` with a
/// message, or an `Ok` grid that re-encodes to itself.
fn check_grid_body(body: &[u8], what: &str) -> bool {
    match parse_grid_request(body) {
        Ok(grid) => {
            let again = serde::json::to_string(&grid_to_value(&grid));
            assert_eq!(
                parse_grid_request(again.as_bytes()).as_ref(),
                Ok(&grid),
                "{what}: accepted a body that does not re-encode to its grid"
            );
            true
        }
        Err(msg) => {
            assert!(!msg.is_empty(), "{what}: rejected without a message");
            false
        }
    }
}

/// The axis fields of an explicit-axes submission.
const AXES: [&str; 7] = [
    "models",
    "datasets",
    "designs",
    "dataflows",
    "schedules",
    "bandwidths",
    "buffers",
];

/// Every preset as explicit axes and as a preset reference.
fn grid_bodies() -> Vec<(String, Vec<u8>)> {
    presets::all()
        .iter()
        .flat_map(|g| {
            let reference = format!(r#"{{"preset":"{}"}}"#, g.name);
            [
                (
                    format!("{} axes", g.name),
                    serde::json::to_string(&grid_to_value(g)),
                ),
                (format!("{} reference", g.name), reference),
            ]
        })
        .map(|(what, body)| (what, body.into_bytes()))
        .collect()
}

/// `v` with the array under `field` rewritten by `f`.
fn with_axis(v: &Value, field: &str, f: impl FnOnce(&mut Vec<Value>)) -> Value {
    let Value::Object(mut fields) = v.clone() else {
        unreachable!("a grid encodes as an object")
    };
    let (_, Value::Array(items)) = fields.iter_mut().find(|(k, _)| k == field).unwrap() else {
        unreachable!("every axis encodes as an array")
    };
    f(items);
    Value::Object(fields)
}

#[test]
fn grid_bodies_decode_totally_and_exactly() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e05);
    for (what, body) in grid_bodies() {
        assert!(check_grid_body(&body, &what), "{what}: the valid body");
        // A strict prefix of an object is never JSON.
        for cut in 0..body.len() {
            assert!(
                !check_grid_body(&body[..cut], &format!("{what} cut at {cut}")),
                "{what}: accepted a truncation at byte {cut}"
            );
        }
        for round in 0..300 {
            let mut mutated = body.clone();
            mutate_bytes(&mut rng, &mut mutated);
            check_grid_body(&mutated, &format!("{what} mutation {round}"));
        }
    }
}

#[test]
fn mistyped_axis_values_are_rejected_with_the_axis_named() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e06);
    let bad_values = [
        r#""VGG99""#,
        r#""""#,
        "true",
        "{}",
        "[]",
        "7",
        "-5",
        "0",
        "64.5",
        "-0.5",
        "1e300",
        "18446744073709551616",
        "184467440737095516150",
    ];
    for grid in presets::all() {
        let v = grid_to_value(&grid);
        for axis in AXES {
            for bad in bad_values {
                if bad == "7" && matches!(axis, "bandwidths" | "buffers") {
                    continue; // a valid knob value
                }
                let bad_value = serde::json::parse_value(bad).unwrap();
                let mutated = with_axis(&v, axis, |items| {
                    let at = rng.below(items.len());
                    items[at] = bad_value;
                });
                let body = serde::json::to_string(&mutated);
                let what = format!("{} {axis} <- {bad}", grid.name);
                let err = parse_grid_request(body.as_bytes())
                    .expect_err(&what)
                    .to_string();
                assert!(err.contains(axis), "{what}: `{err}` does not name the axis");
            }
        }
    }
}

#[test]
fn repeated_axes_past_the_cell_cap_are_rejected() {
    const CAP: usize = 1 << 16;
    for grid in presets::all() {
        let v = grid_to_value(&grid);
        // Every axis repeated until the product passes the cap.
        let mut reps: usize = 1;
        while grid.cell_count() * reps.pow(7) <= CAP {
            reps += 1;
        }
        let mut all = v.clone();
        for axis in AXES {
            all = with_axis(&all, axis, |items| {
                *items = (0..reps).flat_map(|_| items.iter().cloned()).collect()
            });
        }
        // One axis repeated just past the cap.
        let per_model = grid.cell_count() / grid.models.len();
        let one = with_axis(&v, "models", |items| {
            *items = items
                .iter()
                .cycle()
                .take(CAP / per_model + 1)
                .cloned()
                .collect()
        });
        for (what, body) in [("every axis", all), ("models", one)] {
            let body = serde::json::to_string(&body);
            assert!(body.len() < MAX_BODY_BYTES, "{} {what}", grid.name);
            let err = parse_grid_request(body.as_bytes()).expect_err(&grid.name);
            assert!(err.contains("more than"), "{} {what}: {err}", grid.name);
        }
    }
}

/// What the server's renderers write for a decoded line.
fn encode_line(line: &GridLine) -> String {
    match line {
        GridLine::Header { grid, cells } => header_line(grid, *cells as usize),
        GridLine::Cell(cell) => {
            let stored = StoredCell {
                id: cell.id.clone(),
                axes: Default::default(),
                metrics: cell.metrics,
            };
            cell_line(&cell.id, &cell.key, cell.cached, &stored.metrics())
        }
        GridLine::Error { id, message } => error_line(id, message),
        GridLine::Done(done) => done_line(done),
    }
}

/// The line decoder's contract on one line: no panic, an `Err` with a
/// message, or an `Ok` that re-encodes to a line decoding to itself.
fn check_line(line: &str, what: &str) -> bool {
    match parse_grid_line(line) {
        Ok(decoded) => {
            let again = encode_line(&decoded);
            assert_eq!(
                parse_grid_line(&again).as_ref(),
                Ok(&decoded),
                "{what}: accepted `{line}`, which does not re-encode to itself"
            );
            true
        }
        Err(msg) => {
            assert!(!msg.is_empty(), "{what}: rejected without a message");
            false
        }
    }
}

/// Stands in for a value spliced into a line as raw text.
const PLACEHOLDER: &str = "@@value@@";

/// One of each kind of response line, as the server renders them.
fn response_lines() -> Vec<String> {
    let spec = presets::smoke().expand().remove(0);
    let metrics = adagp_sweep::evaluate_cell(&spec);
    vec![
        header_line("fig17-ws", 117),
        cell_line(&spec.id, &spec.key(), false, &metrics),
        cell_line(&spec.id, &spec.key(), true, &metrics),
        done_line(&DoneLine {
            cells: 117,
            hits: 100,
            evaluated: 12,
            joined: 5,
            micros: 98_765,
        }),
        error_line(
            &spec.id,
            "evaluation panicked: DRAM bandwidth must be positive",
        ),
    ]
}

#[test]
fn response_lines_decode_totally_and_exactly() {
    let mut rng = Prng::seed_from_u64(0x05e4_1e07);
    for (i, line) in response_lines().iter().enumerate() {
        let what = format!("line {i}");
        let decoded = parse_grid_line(line).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            &encode_line(&decoded),
            line,
            "{what}: renderers invert the decoder"
        );
        for cut in 0..line.len() {
            if line.is_char_boundary(cut) {
                assert!(
                    !check_line(&line[..cut], &format!("{what} cut at {cut}")),
                    "{what}: accepted a truncation at byte {cut}"
                );
            }
        }
        for round in 0..300 {
            let mut bytes = line.clone().into_bytes();
            mutate_bytes(&mut rng, &mut bytes);
            let mutated = String::from_utf8_lossy(&bytes);
            check_line(&mutated, &format!("{what} mutation {round}"));
        }
        // Each field dropped, and each field's value replaced by every
        // other JSON kind.
        let Value::Object(fields) = serde::json::parse_value(line).unwrap() else {
            unreachable!("every line is an object")
        };
        let replacements = [
            "null",
            "true",
            "-1",
            "0.5",
            "1e999",
            "18446744073709551616",
            r#""x""#,
            "[]",
            "{}",
        ];
        for at in 0..fields.len() {
            let mut dropped = fields.clone();
            let (name, _) = dropped.remove(at);
            let body = serde::json::to_string(&Value::Object(dropped));
            assert!(
                !check_line(&body, &format!("{what} without `{name}`")),
                "{what}: accepted a line without `{name}`"
            );
            for bad in replacements {
                // The value goes in as raw text: the writer would render a
                // parsed `1e999` as `null`.
                let with_bad = |fields: Vec<(String, Value)>| {
                    serde::json::to_string(&Value::Object(fields))
                        .replace(&format!("\"{PLACEHOLDER}\""), bad)
                };
                let mut mistyped = fields.clone();
                mistyped[at].1 = Value::String(PLACEHOLDER.to_string());
                check_line(&with_bad(mistyped), &format!("{what} `{name}` <- {bad}"));
                // And each metric of a cell line: only a finite number fits.
                let Value::Object(metrics) = &fields[at].1 else {
                    continue;
                };
                let fits = serde::json::parse_value(bad)
                    .unwrap()
                    .as_f64()
                    .is_some_and(f64::is_finite);
                for m in 0..metrics.len() {
                    let mut mistyped = fields.clone();
                    let Value::Object(inner) = &mut mistyped[at].1 else {
                        unreachable!("metrics is an object")
                    };
                    inner[m].1 = Value::String(PLACEHOLDER.to_string());
                    let what = format!("{what} metric {m} <- {bad}");
                    assert_eq!(check_line(&with_bad(mistyped), &what), fits, "{what}");
                }
            }
        }
    }
}
