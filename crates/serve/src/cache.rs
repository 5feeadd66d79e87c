//! The memoized cell store: content-derived cell IDs → evaluated
//! cells, with request coalescing and a crash-safe append log.
//!
//! ## Coalescing
//!
//! The cells live in one [`adagp_runtime::Memo`] keyed by cell ID, so
//! [`CellCache::get_or_evaluate`] guarantees **exactly one evaluation
//! per cell**, no matter how many requests ask concurrently: the first
//! asker evaluates on its own thread, inside the cell's slot; everyone
//! else parks on the slot and receives the shared result
//! ([`Served::Joined`]). A waiter only ever waits on a running
//! evaluation, and no lock is held across one, hence no deadlock on any
//! pool size (including `ADAGP_THREADS=1`, where pool regions run
//! inline).
//!
//! An evaluation that panics is an error for its request and leaves the
//! cell's slot empty: a request parked on it evaluates the cell itself
//! (and reports its own error), and a later request retries.
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
use adagp_runtime::{Found, Memo};
use adagp_sweep::evaluate_cell;
use adagp_sweep::grid::CellSpec;
use adagp_sweep::shardlog::ShardWriter;
use adagp_sweep::store::{StoredCell, StoredRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

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

/// A memoized cell and the line a hit on it streams.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) cell: Arc<StoredCell>,
    hit_line: OnceLock<String>,
}

impl Entry {
    fn new(cell: StoredCell) -> Arc<Entry> {
        Arc::new(Entry {
            cell: Arc::new(cell),
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

/// The concurrent memo store. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct CellCache {
    cells: Memo<String, Arc<Entry>>,
    /// The attached append log (`None`: the cache is memory-only). Its
    /// own mutex, never held during a lookup: a cell's group commits
    /// after its entry is published.
    log: Mutex<Option<ShardWriter>>,
    /// A cell whose next evaluation a test holds (see `hold`).
    #[cfg(test)]
    gate: Mutex<Option<Gate>>,
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
        self.cells.len()
    }

    /// Whether no cell is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The memoized entry of `spec`, if it is ready; an absent or
    /// in-flight cell is `None`.
    pub(crate) fn memoized(&self, spec: &CellSpec) -> Option<Arc<Entry>> {
        self.cells.get(&spec.id)
    }

    /// Serves `spec` from the memo store, evaluating it (exactly once
    /// across all concurrent callers) on a miss. A cell this call
    /// evaluated is committed to the attached log before it returns.
    ///
    /// # Errors
    ///
    /// Returns the panic message if the evaluation panicked (nothing is
    /// memoized, so a later request retries).
    pub fn get_or_evaluate(&self, spec: &CellSpec) -> Result<(Arc<StoredCell>, Served), String> {
        let (entry, served) = self.answer(spec)?;
        if served == Served::Evaluated {
            self.commit([&*entry.cell]);
        }
        Ok((Arc::clone(&entry.cell), served))
    }

    /// [`get_or_evaluate`](CellCache::get_or_evaluate), with the cell's
    /// entry, and an evaluated cell left for the caller to
    /// [`commit`](CellCache::commit).
    pub(crate) fn answer(&self, spec: &CellSpec) -> Result<(Arc<Entry>, Served), String> {
        let evaluate = || {
            #[cfg(test)]
            self.wait_at_gate(spec);
            Entry::new(StoredCell::from_evaluation(spec, &evaluate_cell(spec)))
        };
        let (entry, found) = catch_unwind(AssertUnwindSafe(|| {
            self.cells.get_or_compute(&spec.id, evaluate)
        }))
        .map_err(|p| panic_message(p.as_ref()))?;
        let served = match found {
            Found::Ready => Served::Hit,
            Found::Computed => Served::Evaluated,
            Found::Joined => Served::Joined,
        };
        Ok((entry, served))
    }

    /// Memoizes already-evaluated cells (a loaded run file, a replayed
    /// shard log). Cells already memoized or mid-evaluation are left
    /// alone. Returns how many entries were inserted.
    pub fn warm(&self, cells: impl IntoIterator<Item = StoredCell>) -> usize {
        cells
            .into_iter()
            .map(|cell| self.cells.insert(cell.id.clone(), Entry::new(cell)))
            .filter(|&inserted| inserted)
            .count()
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

/// A test's hold on the next evaluation of one cell: it waits, inside
/// the cell's slot, until `callers` calls hold the slot.
#[cfg(test)]
#[derive(Debug)]
struct Gate {
    id: String,
    callers: usize,
    entered: bool,
}

/// An evaluation a test holds open inside its cell's slot, as a
/// concurrent request evaluating the cell would.
#[cfg(test)]
pub(crate) struct HeldFlight<'scope> {
    cache: &'scope CellCache,
    id: String,
    thread: std::thread::ScopedJoinHandle<'scope, ()>,
}

#[cfg(test)]
impl HeldFlight<'_> {
    /// Calls parked on the held evaluation.
    pub(crate) fn waiters(&self) -> usize {
        self.cache.cells.callers(&self.id) - 1
    }

    /// Lets the held evaluation run and publish the cell.
    pub(crate) fn finish(self) {
        if let Some(gate) = self.cache.gate.lock().unwrap().as_mut() {
            gate.callers = 0;
        }
        self.thread.join().unwrap();
    }
}

#[cfg(test)]
impl CellCache {
    /// Makes the next evaluation of `spec` wait, inside its slot, until
    /// `callers` calls hold the slot: itself and `callers − 1` joined
    /// ones. After a minute without them the evaluation panics.
    pub(crate) fn hold(&self, spec: &CellSpec, callers: usize) {
        *self.gate.lock().unwrap() = Some(Gate {
            id: spec.id.clone(),
            callers,
            entered: false,
        });
    }

    /// Starts evaluating the absent `spec` on a thread of `scope` and
    /// holds the evaluation until the returned flight is finished.
    pub(crate) fn hold_flight<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        spec: &'scope CellSpec,
    ) -> HeldFlight<'scope> {
        self.hold(spec, usize::MAX);
        let thread = scope.spawn(move || {
            let (_, served) = self.get_or_evaluate(spec).unwrap();
            assert_eq!(served, Served::Evaluated, "{} is not absent", spec.key());
        });
        while !self
            .gate
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|g| g.entered)
        {
            assert!(!thread.is_finished(), "{} is not absent", spec.key());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        HeldFlight {
            cache: self,
            id: spec.id.clone(),
            thread,
        }
    }

    fn wait_at_gate(&self, spec: &CellSpec) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            {
                let mut gate = self.gate.lock().unwrap();
                let Some(held) = gate.as_mut().filter(|g| g.id == spec.id) else {
                    return;
                };
                held.entered = true;
                let callers = self.cells.callers(&spec.id);
                if callers >= held.callers {
                    *gate = None;
                    return;
                }
                if std::time::Instant::now() > deadline {
                    *gate = None;
                    panic!(
                        "{}: {callers} callers joined the held evaluation",
                        spec.key()
                    );
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
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

    /// `f` on `n` threads that start together, results in thread order.
    fn on_threads<T: Send>(n: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        f()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_misses_of_one_cell_evaluate_once_and_append_one_record() {
        use adagp_sweep::shardlog::load_shard;
        use adagp_sweep::{shard_file_name, Shard};
        const K: usize = 4;
        let dir = std::env::temp_dir().join(format!("adagp-serve-join-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = CellCache::new();
        cache.attach_log(ShardWriter::open(&dir, Shard::default()).unwrap());
        // The evaluation ends only once every caller holds the cell's
        // slot, so all but the evaluating one join it.
        cache.hold(&spec(), K);
        let served = on_threads(K, || cache.get_or_evaluate(&spec()).unwrap());
        let count = |want| served.iter().filter(|(_, s)| *s == want).count();
        assert_eq!(
            (count(Served::Evaluated), count(Served::Joined)),
            (1, K - 1)
        );
        let bits = |c: &StoredCell| c.metrics.map(f64::to_bits);
        for (cell, _) in &served {
            assert_eq!(bits(cell), bits(&served[0].0));
        }
        let log = load_shard(&dir.join(shard_file_name(Shard::default()))).unwrap();
        assert_eq!(log.cells.len(), 1, "one record for one evaluation");
        assert_eq!(bits(&log.cells[0]), bits(&served[0].0));
        std::fs::remove_dir_all(&dir).ok();
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
        // The first evaluation panics only once a second request has
        // joined it; the joined request then evaluates, and fails, itself.
        // A later request retries alone.
        cache.hold(&bad, 2);
        for (attempt, requests) in [2, 1].into_iter().enumerate() {
            for err in on_threads(requests, || cache.get_or_evaluate(&bad).unwrap_err()) {
                assert!(
                    err.starts_with("evaluation panicked: DRAM bandwidth must be positive"),
                    "attempt {attempt}: {err}"
                );
            }
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
