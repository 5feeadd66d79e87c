//! Seeded stress battery for the span recorder's `unsafe` blocks (the
//! lanes' single-writer slots, their `Release`/`Acquire` publication and
//! the cleanup in `Drop`).
//!
//! Producer threads record spans while snapshot threads copy the lanes out
//! concurrently; between rounds, with every producer paused at a barrier
//! (the quiescence [`reset`]'s contract asks for), the recorder is checked
//! and, on seeded rounds, reset. Every snapshot must hold whole records —
//! each one's fields agree with the index its name carries — and a lane's
//! records must be its producer's, in order, from the last reset on; at
//! every pause, published plus dropped spans must equal the spans recorded
//! since the last reset, and a lane must hold `min(recorded, capacity)`.
//! A failed check is collected, not raised, so every thread still reaches
//! every barrier and the test fails instead of hanging. Run with
//! `ADAGP_THREADS` producers (3 when unset).

use adagp_obs::recorder::LANE_CAPACITY;
use adagp_obs::{record_span, reset, set_enabled, snapshot, test_guard, SpanRecord, TraceSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

const CAT: &str = "stress";
const ROUNDS: usize = 8;
const SNAPSHOTTERS: usize = 2;

/// SplitMix64: the battery's one source of randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn producers() -> usize {
    std::env::var("ADAGP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// The `i`-th span producer `t` records after a reset.
fn record(t: usize, i: u64) {
    record_span(CAT, format!("p{t}-{i}"), i, 3 * i + t as u64);
}

/// Whether `rec` is whole and is the `i`-th record of producer `t`.
fn is_record(rec: &SpanRecord, t: usize, i: u64) -> bool {
    rec.name == format!("p{t}-{i}")
        && rec.cat == CAT
        && (rec.start_ns, rec.end_ns) == (i, 3 * i + t as u64)
}

/// Producer `t`'s lane in `snap`, checked: whole records, indices
/// `0, 1, 2, …` from the last reset. Returns `(published, dropped)`, zero
/// for a lane not yet made.
fn check_lane(snap: &TraceSnapshot, t: usize) -> Result<(u64, u64), String> {
    let name = format!("stress-p{t}");
    let Some(lane) = snap.lanes.iter().find(|l| l.name == name) else {
        return Ok((0, 0));
    };
    if let Some((j, rec)) =
        (lane.spans.iter().enumerate()).find(|(j, rec)| !is_record(rec, t, *j as u64))
    {
        return Err(format!("{name}: record {j} is {rec:?}"));
    }
    if lane.spans.len() > LANE_CAPACITY {
        return Err(format!("{name}: {} spans", lane.spans.len()));
    }
    Ok((lane.spans.len() as u64, lane.dropped))
}

#[test]
fn snapshots_hold_whole_records_and_drops_add_up() {
    let _guard = test_guard();
    set_enabled(true);
    let n = producers();
    let mut rng = SplitMix(0x0b5_5eed);
    // Per round and producer: spans to record (some rounds overflow a
    // lane), and whether the pause after the round resets.
    let cap = LANE_CAPACITY as u64;
    let plan: Vec<(Vec<u64>, bool)> = (0..ROUNDS)
        .map(|round| {
            let counts = (0..n)
                .map(|_| match round % 3 {
                    0 => rng.below(4_000),
                    1 => cap / 2 + rng.below(cap / 2),
                    _ => rng.below(cap / 4),
                })
                .collect();
            (counts, rng.below(3) == 0)
        })
        .collect();
    // Producers, snapshot threads and this thread meet at each round's
    // start, end and checked pause.
    let barrier = Barrier::new(n + SNAPSHOTTERS + 1);
    // Producer rounds finished, over all rounds so far.
    let finished = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let fail = |msg: String| {
        let mut failures = failures.lock().unwrap();
        if failures.len() < 20 {
            failures.push(msg);
        }
    };
    let mut drops_seen = 0;
    std::thread::scope(|s| {
        for t in 0..n {
            let (plan, barrier, finished) = (&plan, &barrier, &finished);
            std::thread::Builder::new()
                .name(format!("stress-p{t}"))
                .spawn_scoped(s, move || {
                    let mut next = 0;
                    for (counts, resets) in plan {
                        barrier.wait();
                        for _ in 0..counts[t] {
                            record(t, next);
                            next += 1;
                        }
                        finished.fetch_add(1, Ordering::Release);
                        barrier.wait();
                        barrier.wait(); // checked (and maybe reset)
                        if *resets {
                            next = 0;
                        }
                    }
                })
                .expect("spawn producer");
        }
        for _ in 0..SNAPSHOTTERS {
            let (plan, barrier, finished, fail) = (&plan, &barrier, &finished, &fail);
            s.spawn(move || {
                for round in 1..=plan.len() {
                    barrier.wait();
                    // Snapshots racing the producers until all are done.
                    loop {
                        let snap = snapshot();
                        for t in 0..n {
                            if let Err(e) = check_lane(&snap, t) {
                                fail(e);
                            }
                        }
                        if finished.load(Ordering::Acquire) == round * n {
                            break;
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                }
            });
        }
        let mut since_reset = vec![0u64; n];
        for (round, (counts, resets)) in plan.iter().enumerate() {
            barrier.wait();
            barrier.wait();
            // Quiescent: every producer waits at the next barrier.
            let snap = snapshot();
            for t in 0..n {
                since_reset[t] += counts[t];
                match check_lane(&snap, t) {
                    Ok((published, dropped)) => {
                        let kept = since_reset[t].min(cap);
                        let want = (kept, since_reset[t] - kept);
                        if (published, dropped) != want {
                            fail(format!(
                                "round {round}, producer {t}: (published, dropped) = \
                                 {:?}, want {want:?}",
                                (published, dropped)
                            ));
                        }
                        drops_seen += dropped;
                    }
                    Err(e) => fail(e),
                }
            }
            if *resets {
                reset();
                since_reset.fill(0);
                let snap = snapshot();
                if !(0..n).all(|t| check_lane(&snap, t) == Ok((0, 0))) {
                    fail(format!("round {round}: lanes not empty after reset"));
                }
            }
            barrier.wait();
        }
    });
    set_enabled(false);
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "failures (first 20): {failures:#?}");
    assert!(drops_seen > 0, "no round overflowed a lane");
}
