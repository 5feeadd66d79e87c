//! The memoized cell store: content-derived cell IDs → evaluated
//! cells, with request coalescing and a crash-safe append log.
//!
//! ## Coalescing
//!
//! [`CellCache::get_or_evaluate`] guarantees **exactly one evaluation
//! per cell**, no matter how many requests ask concurrently: the first
//! asker installs an in-flight marker and evaluates on its own thread;
//! everyone else parks on the marker's condvar and receives the shared
//! result ([`Served::Joined`]). The marker only ever exists while its
//! creator is actively evaluating, so a waiter always waits on a running
//! computation — there is no lock-holding across the evaluation and no
//! cross-flight waiting, hence no deadlock on any pool size (including
//! `ADAGP_THREADS=1`, where pool regions run inline).
//!
//! ## Warm start vs. bit-exactness
//!
//! The cache warm-loads from any committed `runs/*` artifact (CSV or
//! JSON) through the one store loader; every loaded cell is a full
//! entry and answers requests as a hit. CSV entries are quantized to 6
//! decimals (byte-stable, not bit-exact); callers that require
//! bit-exact metrics (the load-test harness) start cold, or from a
//! shard log, instead.
//!
//! ## Durability: the append log
//!
//! With a [`ShardWriter`] attached ([`CellCache::attach_log`]), every
//! *fresh* evaluation is appended to the crash-safe shard log. A window
//! commits its evaluations as one group (one write, one fsync) on the
//! connection worker, after its pool region and before its lines
//! stream, so no `"cached":false` line reaches its client before its
//! record is on disk, and no pool task waits on the disk.
//! [`CellCache::get_or_evaluate`] commits its own evaluation as a group
//! of one. A cell is published in memory before its group commits, so
//! another request can stream a just-published cell before it is on
//! disk. That log is the cache's only persistence: a stopped or killed
//! server replays the merged log on restart ([`CellCache::warm`]) and
//! re-evaluates nothing that reached the disk. Its records are full
//! precision, so replayed cells are bit-identical to the evaluation that
//! produced them.
//!
//! ## The hit line
//!
//! A ready entry also holds the line a hit on it streams: the exact
//! bytes of `wire::cell_line(id, key, true, metrics)`, rendered on the
//! cell's first hit and copied on every later one. Log replay and
//! warm-load render nothing. The server looks a window's cells up with
//! `CellCache::memoized` and sends only the rest to the pool, through
//! `CellCache::answer`.

use crate::wire::cell_line;
use adagp_sweep::grid::CellSpec;
use adagp_sweep::shardlog::ShardWriter;
use adagp_sweep::store::{StoredCell, StoredRun};
use adagp_sweep::{evaluate_cell, CellMetrics};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How a cell was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Already memoized.
    Hit,
    /// This call ran the evaluator.
    Evaluated,
    /// A concurrent call was already evaluating; this one waited for it.
    Joined,
}

/// Completion slot of one in-flight evaluation.
#[derive(Debug)]
enum FlightState {
    Pending,
    Done(Arc<StoredCell>),
    Failed(String),
}

#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<StoredCell>, String>) {
        let mut s = self.state.lock().unwrap();
        *s = match result {
            Ok(cell) => FlightState::Done(cell),
            Err(msg) => FlightState::Failed(msg),
        };
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<StoredCell>, String> {
        let mut s = self.state.lock().unwrap();
        loop {
            match &*s {
                FlightState::Pending => s = self.done.wait(s).unwrap(),
                FlightState::Done(cell) => return Ok(Arc::clone(cell)),
                FlightState::Failed(msg) => return Err(msg.clone()),
            }
        }
    }
}

/// A memoized cell and the line a hit on it streams.
#[derive(Debug)]
pub(crate) struct Memo {
    cell: Arc<StoredCell>,
    hit_line: OnceLock<String>,
}

impl Memo {
    fn new(cell: Arc<StoredCell>) -> Arc<Memo> {
        Arc::new(Memo {
            cell,
            hit_line: OnceLock::new(),
        })
    }

    /// `cell_line(&spec.id, &spec.key(), true, ..)` for this cell,
    /// rendered on the first call. `spec` is the cell's spec: its ID keys
    /// the entry, and the ID is derived from its content.
    pub(crate) fn hit_line(&self, spec: &CellSpec) -> &str {
        self.hit_line
            .get_or_init(|| cell_line(&spec.id, &spec.key(), true, &self.cell.metrics()))
    }
}

#[derive(Debug)]
enum Entry {
    Ready(Arc<Memo>),
    InFlight(Arc<Flight>),
}

/// What the map lookup decided a caller that missed should do.
enum Claim {
    Wait(Arc<Flight>),
    Evaluate(Arc<Flight>),
}

/// How a cell was answered.
pub(crate) enum Answer {
    /// Already memoized: the entry, with its hit line.
    Hit(Arc<Memo>),
    /// Evaluated by this call ([`Served::Evaluated`]) or by a concurrent
    /// one ([`Served::Joined`]).
    Fresh(Arc<StoredCell>, Served),
}

/// The concurrent memo store. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct CellCache {
    map: Mutex<HashMap<String, Entry>>,
    /// The attached append log (`None`: the cache is memory-only). Its
    /// own mutex, never held together with `map`: a cell's group commits
    /// after its entry is published.
    log: Mutex<Option<ShardWriter>>,
}

impl CellCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// Attaches an append-only shard log: from now on every fresh
    /// evaluation is durably appended, in the group its window commits.
    /// Replaces any previously attached writer.
    pub fn attach_log(&self, writer: ShardWriter) {
        *self.log.lock().unwrap() = Some(writer);
    }

    /// Appends freshly evaluated cells to the attached log, if any, as
    /// one group: one write, one fsync. An append failure does not fail
    /// the serving path — the entries are already published in memory
    /// and the reply is correct — but the cells are *not* durable: a
    /// restart will evaluate them again. The writer counts each of them
    /// on `sweep_log_append_errors_total` (`/metrics`), and the failure
    /// is reported on stderr here.
    pub(crate) fn commit<'a>(&self, cells: impl IntoIterator<Item = &'a StoredCell>) {
        let mut log = self.log.lock().unwrap();
        if let Some(writer) = log.as_mut() {
            if let Err(e) = writer.append_group(cells) {
                eprintln!(
                    "adagp-serve: warning: append to {} failed: {e}",
                    writer.path().display()
                );
            }
        }
    }

    /// Number of ready (memoized) cells.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap()
            .values()
            .filter(|e| matches!(e, Entry::Ready(_)))
            .count()
    }

    /// Whether no cell is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memoized entry of `spec`, if it is ready; an absent or
    /// in-flight cell is `None`.
    pub(crate) fn memoized(&self, spec: &CellSpec) -> Option<Arc<Memo>> {
        match self.map.lock().unwrap().get(&spec.id) {
            Some(Entry::Ready(memo)) => Some(Arc::clone(memo)),
            _ => None,
        }
    }

    /// Serves `spec` from the memo store, evaluating it (exactly once
    /// across all concurrent callers) on a miss. A cell this call
    /// evaluated is committed to the attached log before it returns.
    ///
    /// # Errors
    ///
    /// Returns the panic message if the evaluation itself panicked (the
    /// entry is removed so a later request can retry).
    pub fn get_or_evaluate(&self, spec: &CellSpec) -> Result<(Arc<StoredCell>, Served), String> {
        Ok(match self.answer(spec)? {
            Answer::Hit(memo) => (Arc::clone(&memo.cell), Served::Hit),
            Answer::Fresh(cell, served) => {
                if served == Served::Evaluated {
                    self.commit([&*cell]);
                }
                (cell, served)
            }
        })
    }

    /// [`get_or_evaluate`](CellCache::get_or_evaluate), with a hit
    /// answered by its entry and an evaluated cell left for the caller
    /// to [`commit`](CellCache::commit).
    pub(crate) fn answer(&self, spec: &CellSpec) -> Result<Answer, String> {
        let claim = {
            let mut map = self.map.lock().unwrap();
            match map.get(&spec.id) {
                Some(Entry::Ready(memo)) => return Ok(Answer::Hit(Arc::clone(memo))),
                Some(Entry::InFlight(flight)) => Claim::Wait(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    map.insert(spec.id.clone(), Entry::InFlight(Arc::clone(&flight)));
                    Claim::Evaluate(flight)
                }
            }
        };
        match claim {
            Claim::Wait(flight) => flight
                .wait()
                .map(|cell| Answer::Fresh(cell, Served::Joined)),
            Claim::Evaluate(flight) => {
                let result = catch_unwind(AssertUnwindSafe(|| evaluate_cell(spec)));
                self.publish(spec, &flight, result.map_err(|p| panic_message(p.as_ref())))
                    .map(|cell| Answer::Fresh(cell, Served::Evaluated))
            }
        }
    }

    /// Ends `spec`'s flight with its evaluation's outcome: a cell is
    /// memoized and handed to the flight's waiters; a failure removes the
    /// entry so a later request can retry.
    fn publish(
        &self,
        spec: &CellSpec,
        flight: &Flight,
        result: Result<CellMetrics, String>,
    ) -> Result<Arc<StoredCell>, String> {
        let mut map = self.map.lock().unwrap();
        match result {
            Ok(metrics) => {
                let cell = Arc::new(StoredCell::from_evaluation(spec, &metrics));
                map.insert(spec.id.clone(), Entry::Ready(Memo::new(Arc::clone(&cell))));
                drop(map);
                flight.complete(Ok(Arc::clone(&cell)));
                Ok(cell)
            }
            Err(msg) => {
                map.remove(&spec.id);
                drop(map);
                flight.complete(Err(msg.clone()));
                Err(msg)
            }
        }
    }

    /// Memoizes already-evaluated cells (a loaded run file, a replayed
    /// shard log). Cells already memoized or mid-evaluation are left
    /// alone. Returns how many entries were inserted.
    pub fn warm(&self, cells: impl IntoIterator<Item = StoredCell>) -> usize {
        let mut map = self.map.lock().unwrap();
        let mut loaded = 0;
        for cell in cells {
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(cell.id.clone()) {
                slot.insert(Entry::Ready(Memo::new(Arc::new(cell))));
                loaded += 1;
            }
        }
        loaded
    }

    /// Warm-loads a committed run artifact (CSV or JSON). Returns how
    /// many entries were inserted.
    ///
    /// # Errors
    ///
    /// Returns the loader's description of an I/O or parse failure.
    pub fn warm_load(&self, path: &Path) -> Result<usize, String> {
        Ok(self.warm(StoredRun::load(path)?.cells))
    }
}

/// A flight a test holds open, as a concurrent request evaluating the
/// cell would.
#[cfg(test)]
pub(crate) struct HeldFlight(Arc<Flight>);

#[cfg(test)]
impl HeldFlight {
    /// Callers parked on the flight (the map and the holder aside).
    pub(crate) fn waiters(&self) -> usize {
        Arc::strong_count(&self.0).saturating_sub(2)
    }

    /// Evaluates `spec` and publishes it to the cache and the waiters.
    pub(crate) fn finish(self, cache: &CellCache, spec: &CellSpec) {
        cache
            .publish(spec, &self.0, Ok(evaluate_cell(spec)))
            .unwrap();
    }
}

#[cfg(test)]
impl CellCache {
    /// Marks the absent `spec` in flight until the returned flight is
    /// finished.
    pub(crate) fn hold_flight(&self, spec: &CellSpec) -> HeldFlight {
        let flight = Arc::new(Flight::new());
        let mut map = self.map.lock().unwrap();
        assert!(!map.contains_key(&spec.id), "{} is not absent", spec.key());
        map.insert(spec.id.clone(), Entry::InFlight(Arc::clone(&flight)));
        HeldFlight(flight)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("evaluation panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("evaluation panicked: {s}")
    } else {
        "evaluation panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_sweep::grid::{DatasetScale, PhaseSchedule};
    use adagp_sweep::metrics_to_array;

    fn spec() -> CellSpec {
        CellSpec::new(
            adagp_accel::Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            adagp_nn::models::CnnModel::Vgg13,
            adagp_accel::AdaGpDesign::Efficient,
            PhaseSchedule::Paper,
        )
    }

    #[test]
    fn evaluate_then_hit_bit_exact() {
        let cache = CellCache::new();
        assert!(cache.is_empty());
        let (first, served) = cache.get_or_evaluate(&spec()).unwrap();
        assert_eq!(served, Served::Evaluated);
        let (second, served) = cache.get_or_evaluate(&spec()).unwrap();
        assert_eq!(served, Served::Hit);
        assert_eq!(cache.len(), 1);
        let direct = metrics_to_array(&evaluate_cell(&spec()));
        for ((a, b), d) in first.metrics.iter().zip(&second.metrics).zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), d.to_bits());
        }
        assert_eq!(first.metrics(), evaluate_cell(&spec()));
    }

    #[test]
    fn warm_entries_hit_and_never_replace_memoized_cells() {
        let cache = CellCache::new();
        let s = spec();
        let mut stale = StoredCell::from_evaluation(&s, &evaluate_cell(&s));
        stale.metrics[0] = -1.0;
        assert_eq!(cache.warm([stale.clone()]), 1);
        let (cell, served) = cache.get_or_evaluate(&s).unwrap();
        assert_eq!(served, Served::Hit);
        assert_eq!(*cell, stale);
        // Warming again leaves the memoized entry alone.
        assert_eq!(
            cache.warm([StoredCell::from_evaluation(&s, &evaluate_cell(&s))]),
            0
        );
        assert_eq!(*cache.get_or_evaluate(&s).unwrap().0, stale);
    }

    #[test]
    fn a_panicking_evaluation_is_an_error_that_leaves_nothing_behind() {
        use adagp_sweep::{shard_file_name, Shard};
        let dir = std::env::temp_dir().join(format!("adagp-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = CellCache::new();
        cache.attach_log(ShardWriter::open(&dir, Shard::default()).unwrap());
        let log = dir.join(shard_file_name(Shard::default()));
        let logged = || std::fs::metadata(&log).map_or(0, |m| m.len());
        // A zero DRAM bandwidth trips the batch builder's assert.
        let bad = CellSpec::with_contention(
            adagp_accel::Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            adagp_nn::models::CnnModel::Vgg13,
            adagp_accel::AdaGpDesign::Efficient,
            PhaseSchedule::Paper,
            Some(0),
            None,
        );
        for attempt in 0..2 {
            let err = cache.get_or_evaluate(&bad).unwrap_err();
            assert!(
                err.starts_with("evaluation panicked: DRAM bandwidth must be positive"),
                "attempt {attempt}: {err}"
            );
            assert_eq!(cache.len(), 0, "attempt {attempt}");
            assert_eq!(logged(), 0, "attempt {attempt}: nothing is appended");
        }
        assert_eq!(cache.get_or_evaluate(&spec()).unwrap().1, Served::Evaluated);
        assert_eq!(cache.len(), 1);
        assert!(logged() > 0, "the valid cell is appended");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_log_append_is_counted_and_the_cell_is_still_served() {
        use adagp_sweep::{shard_file_name, Shard};
        // `/dev/full` accepts the open and fails every write with ENOSPC.
        let dir = std::env::temp_dir().join(format!("adagp-serve-fulldisk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join(shard_file_name(Shard::default())))
            .unwrap();
        let cache = CellCache::new();
        cache.attach_log(ShardWriter::open(&dir, Shard::default()).unwrap());
        let errors = adagp_obs::registry().counter("sweep_log_append_errors_total");
        let before = errors.get();
        let (cell, served) = cache.get_or_evaluate(&spec()).unwrap();
        assert_eq!(served, Served::Evaluated);
        assert_eq!(cell.metrics(), evaluate_cell(&spec()));
        assert!(errors.get() > before, "the failed append must be counted");
        assert_eq!(cache.get_or_evaluate(&spec()).unwrap().1, Served::Hit);
        std::fs::remove_dir_all(&dir).ok();
    }
}
