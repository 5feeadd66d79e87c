//! Lightweight pipeline instrumentation: per-stage busy/idle wall-clock
//! accounting so harnesses can report stage utilization.
//!
//! Each stage accumulates three lock-free counters — time spent doing
//! useful work (`busy`), time spent blocked on a queue (`idle`), and items
//! processed. The counters are `adagp-obs` atomics, so a stage can be
//! hammered from any thread with no mutex on the item path; they are
//! touched once per pipeline item (a training batch), not per tensor
//! element. When span recording is enabled (`ADAGP_TRACE`), every
//! [`Stage::busy`] / [`Stage::busy_more`] interval is additionally
//! recorded as a wall-clock trace span (category `stage`), so the
//! measured pipeline timeline loads in Perfetto next to `adagp-sim`'s
//! predicted one.

use adagp_obs as obs;
use std::time::Duration;

/// One instrumented pipeline stage.
#[derive(Debug)]
pub struct Stage {
    name: String,
    busy_ns: obs::Counter,
    idle_ns: obs::Counter,
    items: obs::Counter,
}

impl Stage {
    fn new(name: &str) -> Self {
        Stage {
            name: name.to_string(),
            busy_ns: obs::Counter::new(),
            idle_ns: obs::Counter::new(),
            items: obs::Counter::new(),
        }
    }

    /// Times `f`, accumulates into `acc`, and (when tracing is on)
    /// records the interval as a `stage` span named after the stage.
    fn timed<R>(&self, acc: &obs::Counter, as_span: bool, f: impl FnOnce() -> R) -> R {
        let start = obs::now_ns();
        let r = f();
        let end = obs::now_ns();
        acc.add(end.saturating_sub(start));
        if as_span && obs::enabled() {
            obs::record_span("stage", self.name.clone(), start, end);
        }
        r
    }

    /// Times `f` as useful work and counts one processed item.
    pub fn busy<R>(&self, f: impl FnOnce() -> R) -> R {
        let r = self.timed(&self.busy_ns, true, f);
        self.items.inc();
        r
    }

    /// Times `f` as useful work belonging to an already-counted item (no
    /// additional item is tallied). Use when one item's work is split
    /// around a wait that must be timed as [`Stage::idle`].
    pub fn busy_more<R>(&self, f: impl FnOnce() -> R) -> R {
        self.timed(&self.busy_ns, true, f)
    }

    /// Times `f` as blocking/waiting time (no item is counted, no span is
    /// recorded — idle gaps show up in a trace as exactly that: gaps).
    pub fn idle<R>(&self, f: impl FnOnce() -> R) -> R {
        self.timed(&self.idle_ns, false, f)
    }

    /// Snapshot of the stage's counters.
    pub fn report(&self) -> StageReport {
        StageReport {
            name: self.name.clone(),
            busy: Duration::from_nanos(self.busy_ns.get()),
            idle: Duration::from_nanos(self.idle_ns.get()),
            items: self.items.get(),
        }
    }
}

/// Immutable snapshot of one stage's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Accumulated useful-work time.
    pub busy: Duration,
    /// Accumulated blocking/waiting time.
    pub idle: Duration,
    /// Items processed (one per [`Stage::busy`] call).
    pub items: u64,
}

impl StageReport {
    /// Busy fraction of the stage's observed wall clock, in `[0, 1]`
    /// (zero when nothing was timed).
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.idle;
        if total.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// A fixed set of named stages timed across threads.
///
/// ```
/// use adagp_runtime::PipelineStats;
/// let stats = PipelineStats::new(&["datagen", "train"]);
/// let x = stats.stage(0).busy(|| 21 * 2);
/// assert_eq!(x, 42);
/// assert_eq!(stats.reports()[0].items, 1);
/// ```
#[derive(Debug)]
pub struct PipelineStats {
    stages: Vec<Stage>,
}

impl PipelineStats {
    /// Creates stats with one [`Stage`] per name.
    pub fn new(names: &[&str]) -> Self {
        PipelineStats {
            stages: names.iter().map(|n| Stage::new(n)).collect(),
        }
    }

    /// Stage `i` (in construction order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> &Stage {
        &self.stages[i]
    }

    /// Snapshots every stage.
    pub fn reports(&self) -> Vec<StageReport> {
        self.stages.iter().map(Stage::report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = PipelineStats::new(&["a", "b"]);
        stats
            .stage(0)
            .busy(|| std::thread::sleep(Duration::from_millis(2)));
        stats
            .stage(0)
            .idle(|| std::thread::sleep(Duration::from_millis(1)));
        stats.stage(0).busy(|| ());
        stats.stage(0).busy_more(|| ());
        let r = &stats.reports()[0];
        assert_eq!(r.items, 2, "busy_more must not tally an item");
        assert!(r.busy >= Duration::from_millis(2));
        assert!(r.idle >= Duration::from_millis(1));
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
        assert_eq!(stats.reports()[1].items, 0);
    }

    #[test]
    fn utilization_handles_zero_time() {
        let r = StageReport {
            name: "x".into(),
            busy: Duration::ZERO,
            idle: Duration::ZERO,
            items: 0,
        };
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn stages_are_shareable_across_threads_without_locks() {
        let stats = PipelineStats::new(&["shared"]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        stats.stage(0).busy(|| std::hint::black_box(1 + 1));
                    }
                });
            }
        });
        assert_eq!(stats.reports()[0].items, 400);
    }
}
