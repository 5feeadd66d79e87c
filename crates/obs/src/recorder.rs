//! The span recorder: per-thread bounded buffers with drop counting and
//! no hot-path locks.
//!
//! ## Design
//!
//! Each recording thread owns one `LaneBuf` — a fixed-capacity append
//! buffer it alone writes. A slot is published by writing the record and
//! then storing the new length with `Release`; the snapshotting reader
//! loads the length with `Acquire` and only touches slots below it, so
//! the single-writer/single-reader pair needs no lock and no CAS. When a
//! lane fills up, further spans are **dropped and counted** — tracing a
//! long run degrades to a truncated trace, never to unbounded memory or
//! a stalled hot path.
//!
//! The only lock in the module guards the lane *registry*, taken once per
//! thread (at lane creation) and once per snapshot — never per span.
//!
//! ## Gating
//!
//! Recording is off unless [`set_enabled`]`(true)` ran (the
//! [`crate::trace::trace_guard_from_env`] helper does this when
//! `ADAGP_TRACE` is set). Disabled, every entry point is one relaxed
//! atomic load and an early return: no clock reads, no allocation.
//! Observability must never perturb results — the recorder observes wall
//! time and copies labels, it never touches the traced computation's
//! data, and the `obs_noperturb` battery in `adagp-bench` holds it to
//! that (bit-identical kernel and sweep outputs, tracing on vs off).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans one lane (thread) can hold before dropping. ~64 bytes a span,
/// so a full lane costs a few megabytes.
pub const LANE_CAPACITY: usize = 1 << 16;

/// One completed span, timestamped in nanoseconds since the process
/// trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Display name (e.g. a stage name or a sweep cell key).
    pub name: String,
    /// Category — groups spans in the trace viewer (e.g. `stage`,
    /// `pool`, `sweep`, `serve`).
    pub cat: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// A single-writer bounded span buffer (one per recording thread).
struct LaneBuf {
    name: String,
    slots: Box<[UnsafeCell<MaybeUninit<SpanRecord>>]>,
    /// Published slot count. The owning thread stores with `Release`
    /// after writing slot `len`; readers load with `Acquire` and stay
    /// strictly below it.
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots below `len` are only written once (before the Release
// store that published them) and are read-only afterwards; the slot at
// `len` is exclusively the owning thread's until published. See `push`
// and `snapshot_into`.
unsafe impl Sync for LaneBuf {}
unsafe impl Send for LaneBuf {}

impl LaneBuf {
    fn new(name: String) -> Self {
        let mut slots = Vec::with_capacity(LANE_CAPACITY);
        slots.resize_with(LANE_CAPACITY, || UnsafeCell::new(MaybeUninit::uninit()));
        LaneBuf {
            name,
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one record (owning thread only).
    fn push(&self, rec: SpanRecord) {
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread pushes, and slot `len` is not
        // yet published, so this is the sole reference to it.
        unsafe { (*self.slots[len].get()).write(rec) };
        self.len.store(len + 1, Ordering::Release);
    }

    /// Copies the published records out (any thread).
    fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        let len = self.len.load(Ordering::Acquire);
        out.reserve(len);
        for slot in &self.slots[..len] {
            // SAFETY: every slot below the Acquire-loaded `len` was fully
            // written before its Release publication and is never written
            // again (the buffer is append-only).
            out.push(unsafe { (*slot.get()).assume_init_ref() }.clone());
        }
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for slot in &mut self.slots[..len] {
            // SAFETY: slots below `len` are initialized; `&mut self`
            // proves no reader is live.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

/// All spans one lane held at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Lane display name (the thread name when it had one).
    pub name: String,
    /// Published spans, in record (≈ completion) order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the lane was full.
    pub dropped: u64,
}

/// A point-in-time copy of every lane.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// One entry per lane, in lane-registration order.
    pub lanes: Vec<LaneSnapshot>,
}

impl TraceSnapshot {
    /// Total spans across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Total dropped spans across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LANES: Mutex<Vec<Arc<LaneBuf>>> = Mutex::new(Vec::new());
static LANE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_LANE: std::cell::OnceCell<Arc<LaneBuf>> = const { std::cell::OnceCell::new() };
}

/// Whether span recording is on. One relaxed load — branch on this
/// before doing any per-span work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off. Typically driven by
/// [`crate::trace::trace_guard_from_env`]; tests flip it directly.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are positive.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// The process trace epoch (pinned on first use).
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn my_lane() -> Arc<LaneBuf> {
    MY_LANE.with(|cell| {
        cell.get_or_init(|| {
            let seq = LANE_SEQ.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("lane-{seq}"));
            let lane = Arc::new(LaneBuf::new(name));
            LANES.lock().unwrap().push(Arc::clone(&lane));
            lane
        })
        .clone()
    })
}

/// Records a completed span with explicit timestamps (from [`now_ns`]).
/// No-op when recording is disabled.
pub fn record_span(cat: &'static str, name: String, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    my_lane().push(SpanRecord {
        name,
        cat,
        start_ns,
        end_ns,
    });
}

/// Times `f` as a span named by `name()` (called only when recording is
/// enabled, so a disabled run never allocates the label).
pub fn span<R>(cat: &'static str, name: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let r = f();
    record_span(cat, name(), start, now_ns());
    r
}

/// Copies every lane's published spans and drop counts.
pub fn snapshot() -> TraceSnapshot {
    let lanes = LANES.lock().unwrap();
    TraceSnapshot {
        lanes: lanes
            .iter()
            .map(|lane| {
                let mut spans = Vec::new();
                lane.snapshot_into(&mut spans);
                LaneSnapshot {
                    name: lane.name.clone(),
                    spans,
                    dropped: lane.dropped.load(Ordering::Relaxed),
                }
            })
            .collect(),
    }
}

/// Clears every lane (lengths and drop counts back to zero).
///
/// ## Quiescence contract
///
/// `reset` is only safe to call while the recorder is **quiescent**: no
/// thread is inside [`record_span`]/[`span`]. The supported way to get
/// there is to disable recording with [`set_enabled`]`(false)` and join
/// (or otherwise quiesce) every thread that was recording — which is
/// exactly what [`test_guard`] does; obs-touching tests should hold one
/// instead of rolling their own mutex. A call during concurrent
/// recording is memory-safe only while no [`snapshot`] runs (slots are
/// overwritten before being re-published, but a snapshot that loaded the
/// old length would read a slot the rewound recorder is rewriting), and it
/// scrambles the trace: the recorder restarts its lane from slot zero
/// mid-run. Labels already in the cleared slots are
/// leaked rather than dropped (dropping them from a foreign thread could
/// race a misbehaving recorder); `reset` is a test/bench helper, not a
/// hot-path API.
pub fn reset() {
    let lanes = LANES.lock().unwrap();
    for lane in lanes.iter() {
        lane.len.store(0, Ordering::Release);
        lane.dropped.store(0, Ordering::Relaxed);
    }
}

/// Serializes tests (and benches) that touch the process-global
/// recorder. Held by [`test_guard`].
static TEST_MUTEX: Mutex<()> = Mutex::new(());

/// Exclusive, clean-slate access to the global recorder for a test.
///
/// Dropped guards re-disable and re-clear, so the next holder always
/// starts from zero. Returned by [`test_guard`].
#[derive(Debug)]
pub struct TestGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for TestGuard {
    fn drop(&mut self) {
        // Runs before `_lock` releases: leave the recorder disabled and
        // empty for whoever serializes in next.
        set_enabled(false);
        reset();
    }
}

/// Takes the process-wide recorder lock and resets to a quiescent,
/// disabled state — the one sanctioned way for tests to share the global
/// recorder.
///
/// The guard satisfies [`reset`]'s quiescence contract on both edges:
/// entry happens-after the previous holder's drop (which disabled
/// recording and cleared the lanes), and the guard's own drop disables
/// and clears again before releasing the lock. Tests that want recording
/// call [`set_enabled`]`(true)` themselves after taking the guard, and
/// must join any recording threads before dropping it. A panicked holder
/// poisons nothing: the poison is shrugged off, and the drop-side reset
/// restores the clean slate.
pub fn test_guard() -> TestGuard {
    let lock = TEST_MUTEX
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(false);
    reset();
    TestGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_guard();
        span("test", || "never".to_string(), || ());
        record_span("test", "never".to_string(), 0, 1);
        assert_eq!(snapshot().span_count(), 0);
    }

    #[test]
    fn spans_are_recorded_in_order_with_monotone_times() {
        let _g = test_guard();
        set_enabled(true);
        for i in 0..5 {
            span("test", || format!("s{i}"), || std::hint::black_box(i));
        }
        set_enabled(false);
        let snap = snapshot();
        let lane = snap
            .lanes
            .iter()
            .find(|l| l.spans.iter().any(|s| s.name == "s0"))
            .expect("recording lane");
        let names: Vec<&str> = lane
            .spans
            .iter()
            .filter(|s| s.cat == "test")
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["s0", "s1", "s2", "s3", "s4"]);
        for s in &lane.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn full_lanes_drop_and_count() {
        let _g = test_guard();
        set_enabled(true);
        let over = 100u64;
        std::thread::Builder::new()
            .name("obs-drop-test".into())
            .spawn(move || {
                for i in 0..(LANE_CAPACITY as u64 + over) {
                    record_span("test", String::new(), i, i + 1);
                }
            })
            .unwrap()
            .join()
            .unwrap();
        set_enabled(false);
        let snap = snapshot();
        let lane = snap
            .lanes
            .iter()
            .find(|l| l.name == "obs-drop-test")
            .expect("drop-test lane");
        assert_eq!(lane.spans.len(), LANE_CAPACITY);
        assert_eq!(lane.dropped, over);
    }

    #[test]
    fn concurrent_recording_lands_on_separate_lanes() {
        let _g = test_guard();
        set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || {
                    for i in 0..50 {
                        span("conc", || format!("t{t}-{i}"), || std::hint::black_box(i));
                    }
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        let conc: usize = snap
            .lanes
            .iter()
            .map(|l| l.spans.iter().filter(|s| s.cat == "conc").count())
            .sum();
        assert_eq!(conc, 150);
        assert_eq!(snap.dropped(), 0);
    }

    #[test]
    fn test_guard_leaves_a_clean_disabled_recorder() {
        {
            let _g = test_guard();
            set_enabled(true);
            record_span("test", "leftover".to_string(), 0, 1);
            assert!(snapshot().span_count() > 0);
        }
        let _g = test_guard();
        assert!(!enabled(), "previous guard left recording on");
        assert_eq!(snapshot().span_count(), 0, "previous guard left spans");
    }
}
