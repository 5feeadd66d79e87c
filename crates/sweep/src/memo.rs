//! The process-lifetime memo tables a cell evaluation consults: the
//! batch memo ([`crate::simeval::BatchMemoKey`] → the cell's simulated
//! Phase-BP and Phase-GP batch stats) and the knee memo
//! ([`crate::roofline::KneeMemoKey`] → the roofline knee). Both are one
//! [`Memo`]: a lookup, and on a miss the computation *outside* the
//! table's lock, in the key's own once-cell. A thread that asks for a key
//! another thread is computing waits for that value instead of computing
//! it again, so every distinct key is computed exactly once per table at
//! any thread count, and what a sweep costs does not depend on how its
//! threads happen to interleave.
//!
//! The tables only grow, by one entry per distinct key, and hold small
//! `Copy` values. The global pair counts its misses
//! (`sweep_sim_runs_total`, `sweep_knee_searches_total`) and its entries
//! (`sweep_sim_memo_entries`, `sweep_knee_memo_entries`) in the
//! [`adagp_obs::registry`], which `adagp-serve` renders on `/metrics`.

use crate::roofline::KneeMemoKey;
use crate::simeval::BatchMemoKey;
use adagp_obs as obs;
use adagp_sim::BatchStats;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// One memo table, optionally metered: a miss counter and an entry-count
/// gauge in the obs registry.
pub(crate) struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    meters: Option<(Arc<obs::Counter>, Arc<obs::Gauge>)>,
}

impl<K: Eq + Hash, V: Copy> Memo<K, V> {
    /// An empty table; `meters` names its miss counter and entry gauge.
    fn new(meters: Option<(&str, &str)>) -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            meters: meters.map(|(misses, entries)| {
                (
                    obs::registry().counter(misses),
                    obs::registry().gauge(entries),
                )
            }),
        }
    }

    /// For each of `keys`, whether the table has no entry for it yet
    /// (an entry being computed counts as present), under one lock.
    pub(crate) fn absent<'k>(&self, keys: impl IntoIterator<Item = &'k K>) -> Vec<bool>
    where
        K: 'k,
    {
        let map = self.map.lock().expect("memo poisoned");
        keys.into_iter().map(|k| !map.contains_key(k)).collect()
    }

    /// The value under `key`: one lookup, and on a miss `compute`,
    /// outside the table's lock. A caller that finds `key` being computed
    /// by another thread waits for that value; `compute` runs once per
    /// key (again only if a computation panicked).
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = {
            let mut map = self.map.lock().expect("memo poisoned");
            let slot = map.entry(key).or_default();
            if let Some(&v) = slot.get() {
                return v;
            }
            let slot = Arc::clone(slot);
            if let Some((_, entries)) = &self.meters {
                entries.set(map.len() as i64);
            }
            slot
        };
        *slot.get_or_init(|| {
            if let Some((misses, _)) = &self.meters {
                misses.inc();
            }
            compute()
        })
    }
}

/// The two tables one cell evaluation consults.
pub(crate) struct CellMemos {
    /// A cell's simulated BP and GP batches.
    pub(crate) batches: Memo<BatchMemoKey, [BatchStats; 2]>,
    /// A cell's roofline knee.
    pub(crate) knees: Memo<KneeMemoKey, u64>,
}

impl CellMemos {
    /// The process-global tables, metered in the obs registry.
    pub(crate) fn global() -> &'static CellMemos {
        static MEMOS: OnceLock<CellMemos> = OnceLock::new();
        MEMOS.get_or_init(|| CellMemos {
            batches: Memo::new(Some(("sweep_sim_runs_total", "sweep_sim_memo_entries"))),
            knees: Memo::new(Some((
                "sweep_knee_searches_total",
                "sweep_knee_memo_entries",
            ))),
        })
    }

    /// Empty, unmetered tables: what a test evaluates with when it needs
    /// an evaluation that no earlier one in the process can have served.
    #[cfg(test)]
    pub(crate) fn fresh() -> CellMemos {
        CellMemos {
            batches: Memo::new(None),
            knees: Memo::new(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_miss_computes_once_and_a_hit_never() {
        let memo: Memo<u32, u64> = Memo::new(None);
        let mut calls = 0;
        for _ in 0..3 {
            let v = memo.get_or_compute(7, || {
                calls += 1;
                49
            });
            assert_eq!(v, 49);
        }
        assert_eq!(calls, 1);
        assert_eq!(memo.get_or_compute(8, || 64), 64);
    }

    #[test]
    fn racing_misses_of_one_key_compute_once_and_leave_one_entry() {
        let memo: Memo<u32, u64> = Memo::new(None);
        let calls = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    let v = memo.get_or_compute(1, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other threads arrive while
                        // the key is still being computed.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        11
                    });
                    assert_eq!(v, 11);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.map.lock().unwrap().len(), 1);
    }
}
