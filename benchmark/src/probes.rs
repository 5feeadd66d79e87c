//! Probes every workload shares: the host's multiply-add and memory-stream
//! rates (the denominators of the `tensor` fractions), the `runtime`
//! primitives, `obs`'s span cost, and the env block of a results file.

use crate::stats::median;
use adagp_runtime::{pool, BoundedQueue};
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` once untimed (caches, lazy set-up), then `reps` timed times;
/// returns seconds per call.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Last-level cache size in bytes as `/sys` reports it for cpu0 (0 when
/// unreadable).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) * 1024 * 1024,
                None => size.parse().unwrap_or(0),
            },
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Bytes of each of the three stream arrays: four times the LLC, capped so
/// that a VM reporting a socket-wide L3 (hundreds of MiB shared with other
/// tenants) does not turn the probe into a multi-second page-fault test.
pub fn stream_array_bytes(llc: u64) -> usize {
    const CAP: u64 = 64 << 20;
    const FLOOR: u64 = 8 << 20;
    (4 * llc).clamp(FLOOR, CAP) as usize
}

/// Multiply-add rate (GFLOP/s, two operations per element step) of
/// independent `f32` chains on every pool thread at once, built with the
/// same flags as the kernels it is compared against.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 2_000_000;
    let threads = pool().size();
    let run = || {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut acc = [t as f32 + 1.0; LANES];
                    let (a, b) = (black_box(0.999_9f32), black_box(1e-4f32));
                    for _ in 0..STEPS {
                        for v in &mut acc {
                            *v = *v * a + b;
                        }
                    }
                    black_box(acc);
                });
            }
        });
    };
    let secs = median(&time_reps(5, run));
    (2 * LANES * STEPS * threads) as f64 / secs / 1e9
}

/// Triad (`a = b + s·c`) rate in GB/s over three arrays of
/// [`stream_array_bytes`] each, split across the pool threads; counts the
/// two reads and one write per element.
pub fn stream_gb_per_s(array_bytes: usize) -> f64 {
    let n = array_bytes / 4;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let threads = pool().size().max(1);
    let part = n.div_ceil(threads);
    let mut run = || {
        std::thread::scope(|s| {
            for ((pa, pb), pc) in a.chunks_mut(part).zip(b.chunks(part)).zip(c.chunks(part)) {
                s.spawn(move || {
                    for ((x, y), z) in pa.iter_mut().zip(pb).zip(pc) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
    };
    let secs = median(&time_reps(5, &mut run));
    black_box(&a);
    (3 * array_bytes) as f64 / secs / 1e9
}

/// `runtime.region_dispatch_us`: an empty `parallel_for` region with one
/// chunk per pool thread.
pub fn region_dispatch_us() -> f64 {
    let p = pool();
    let n = p.size();
    let secs = time_reps(2000, || {
        p.parallel_for(n, 1, |r| {
            black_box(r);
        })
    });
    median(&secs) * 1e6
}

/// `runtime.parallel_map_items_per_s`: `parallel_map` of a trivial closure
/// over as many items as the largest preset grid has cells.
pub fn parallel_map_items_per_s() -> f64 {
    const ITEMS: usize = 234;
    let p = pool();
    let secs = time_reps(500, || {
        black_box(p.parallel_map((0..ITEMS).collect::<Vec<usize>>(), |i| i.wrapping_mul(31)));
    });
    ITEMS as f64 / median(&secs)
}

/// `runtime.queue_handoff_us`: one item's push→pop across two threads
/// through a depth-3 `BoundedQueue` (the trainer's queue depth), timed as a
/// ping-pong round trip halved.
pub fn queue_handoff_us() -> f64 {
    const ROUNDS: usize = 20_000;
    let there: BoundedQueue<usize> = BoundedQueue::new(3);
    let back: BoundedQueue<usize> = BoundedQueue::new(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(v) = there.pop() {
                if back.push(v).is_err() {
                    break;
                }
            }
            back.close();
        });
        let t = Instant::now();
        for i in 0..ROUNDS {
            there.push(i).expect("echo thread holds the queue open");
            black_box(back.pop());
        }
        let secs = t.elapsed().as_secs_f64();
        there.close();
        secs / (2 * ROUNDS) as f64 * 1e6
    })
}

/// `(obs.span_off_ns, obs.span_on_ns)`: one `obs::span` around an empty
/// closure with recording off, then on. Leaves recording off and the
/// recorder's buffers empty.
pub fn obs_span_ns() -> (f64, f64) {
    use adagp_obs as obs;
    const CALLS: usize = 200_000;
    let per_call = |calls: usize| {
        let secs = time_reps(5, || {
            for i in 0..calls {
                obs::span("bench", || format!("probe {i}"), || black_box(i));
            }
        });
        median(&secs) / calls as f64 * 1e9
    };
    let off = per_call(CALLS);
    obs::set_enabled(true);
    let on = per_call(CALLS / 10);
    obs::set_enabled(false);
    obs::reset();
    (off, on)
}

/// The env block of a results file: what must match for two files to be
/// comparable.
pub fn env_block() -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let label = adagp_obs::bench::snapshot_label();
    let llc = llc_bytes();
    Value::object(vec![
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("adagp_threads", Value::UInt(crate::CHILD_THREADS as u64)),
        ("llc_bytes", Value::UInt(llc)),
        (
            "stream_array_bytes",
            Value::UInt(stream_array_bytes(llc) as u64),
        ),
        ("rustc", Value::String(rustc)),
        ("dirty", Value::Bool(label.ends_with("-dirty"))),
        ("git", Value::String(label)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_arrays_are_four_llc_within_the_cap() {
        assert_eq!(stream_array_bytes(2 << 20), 8 << 20);
        assert_eq!(stream_array_bytes(8 << 20), 32 << 20);
        assert_eq!(stream_array_bytes(256 << 20), 64 << 20);
        assert_eq!(stream_array_bytes(0), 8 << 20);
    }

    #[test]
    fn time_reps_skips_the_warm_up_call() {
        let mut calls = 0;
        assert_eq!(time_reps(3, || calls += 1).len(), 3);
        assert_eq!(calls, 4);
    }
}
