//! A compute-once table: a lookup, and on a miss the computation
//! *outside* the table's lock, in the key's own once-cell. A caller that
//! finds its key being computed parks on that computation (never on one
//! that is not running, so no pool size deadlocks it) instead of
//! computing it again: every distinct key is computed exactly once per
//! table at any thread count. A computation that panics leaves its slot
//! empty: the panic reaches its caller, a caller parked on it computes
//! the key itself, and a later caller computes it again.

use adagp_obs as obs;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// How [`Memo::get_or_compute`] came by its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// Ready when the table's lock was taken.
    Ready,
    /// Computed by this call.
    Computed,
    /// Not ready at the lookup, and computed by a concurrent call, which
    /// this one waited for if it was still running.
    Joined,
}

/// One compute-once table, optionally metered: a miss counter and an
/// entry-count gauge in the obs registry. See the module docs.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    meters: Option<(Arc<obs::Counter>, Arc<obs::Gauge>)>,
}

impl<K, V> Default for Memo<K, V> {
    /// An empty, unmetered table.
    fn default() -> Self {
        Memo::new(None)
    }
}

impl<K, V> Memo<K, V> {
    /// An empty table; `meters` names its miss counter and entry gauge
    /// (every slot, computing or ready).
    pub fn new(meters: Option<(&str, &str)>) -> Self {
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
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        self.map.lock().expect("memo poisoned")
    }

    fn note_entries(&self, entries: usize) {
        if let Some((_, gauge)) = &self.meters {
            gauge.set(entries as i64);
        }
    }

    /// The value under `key` and how it was found: one lookup, and on a
    /// miss `compute`, outside the table's lock. A caller that finds
    /// `key` being computed by another thread waits for that value;
    /// `compute` runs once per key (again only if a computation
    /// panicked).
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> (V, Found) {
        let slot = {
            let mut map = self.lock();
            let slot = match map.get(key) {
                Some(slot) => {
                    if let Some(v) = slot.get() {
                        return (v.clone(), Found::Ready);
                    }
                    Arc::clone(slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    map.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
            };
            self.note_entries(map.len());
            slot
        };
        let mut found = Found::Joined;
        let value = slot.get_or_init(|| {
            found = Found::Computed;
            if let Some((misses, _)) = &self.meters {
                misses.inc();
            }
            compute()
        });
        (value.clone(), found)
    }

    /// The value under `key`, if it is ready.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key)?.get().cloned()
    }

    /// Stores `value` under `key` if the key's slot is vacant, or empty
    /// with no computation running in it (one panicked); returns whether
    /// it did. A ready value and a running computation are left alone.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut map = self.lock();
        let inserted = match map.get(&key) {
            None => {
                map.insert(key, Arc::new(OnceLock::from(value)));
                true
            }
            // No caller holds the slot, so nobody is computing in it.
            Some(slot) if Arc::strong_count(slot) == 1 => slot.set(value).is_ok(),
            Some(_) => false,
        };
        self.note_entries(map.len());
        inserted
    }

    /// Number of ready values.
    pub fn len(&self) -> usize {
        self.lock().values().filter(|s| s.get().is_some()).count()
    }

    /// Whether no value is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For each of `keys`, whether the table has no slot for it yet (a
    /// slot being computed counts as present), under one lock.
    pub fn absent<'k>(&self, keys: impl IntoIterator<Item = &'k K>) -> Vec<bool>
    where
        K: 'k,
    {
        let map = self.lock();
        keys.into_iter().map(|k| !map.contains_key(k)).collect()
    }

    /// How many calls hold `key`'s slot right now: the one computing it
    /// and those joined to it (0 once it is ready and they returned). A
    /// test observes a join with it.
    pub fn callers(&self, key: &K) -> usize {
        self.lock()
            .get(key)
            .map_or(0, |slot| Arc::strong_count(slot) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_miss_computes_once_and_a_hit_never() {
        let memo: Memo<u32, u64> = Memo::default();
        let mut calls = 0;
        for want in [Found::Computed, Found::Ready, Found::Ready] {
            let got = memo.get_or_compute(&7, || {
                calls += 1;
                49
            });
            assert_eq!(got, (49, want));
        }
        assert_eq!(calls, 1);
        assert_eq!(memo.get_or_compute(&8, || 64), (64, Found::Computed));
        assert_eq!((memo.get(&7), memo.get(&9)), (Some(49), None));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn racing_misses_of_one_key_compute_once_and_leave_one_entry() {
        let memo: Memo<u32, u64> = Memo::default();
        let calls = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let found: Vec<Found> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, found) = memo.get_or_compute(&1, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Long enough that the other threads arrive
                            // while the key is still being computed.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            11
                        });
                        assert_eq!(v, 11);
                        found
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let computed = found.iter().filter(|&&f| f == Found::Computed).count();
        assert_eq!(computed, 1, "{found:?}");
        assert_eq!(memo.map.lock().unwrap().len(), 1);
        assert_eq!(memo.callers(&1), 0);
    }

    #[test]
    fn a_panicked_computation_leaves_an_empty_slot_that_insert_or_a_retry_fills() {
        let memo: Memo<&str, u64> = Memo::default();
        for key in ["retried", "inserted"] {
            let compute =
                std::panic::AssertUnwindSafe(|| memo.get_or_compute(&key, || panic!("no")));
            assert!(std::panic::catch_unwind(compute).is_err());
            assert_eq!((memo.get(&key), memo.len()), (None, 0));
            assert_eq!(memo.absent([&key]), [false], "the empty slot stays");
        }
        assert_eq!(memo.get_or_compute(&"retried", || 3), (3, Found::Computed));
        assert!(memo.insert("inserted", 5));
        assert!(!memo.insert("inserted", 6), "a ready value stays");
        assert!(memo.insert("vacant", 7));
        assert_eq!(memo.get_or_compute(&"inserted", || 0), (5, Found::Ready));
        assert_eq!(memo.len(), 3);
    }
}
