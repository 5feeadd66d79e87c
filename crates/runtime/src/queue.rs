//! A bounded blocking MPSC/MPMC channel built on `Mutex` + `Condvar`,
//! plus a [`WaitGroup`] for flush barriers.
//!
//! These are the coordination primitives behind the pipelined training
//! queue in `adagp_core::trainer`: a producer thread pushes generated
//! batches while the consumer trains, and the predictor-update worker is
//! flushed (via [`WaitGroup`]) before any Phase-GP read of the predictor.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue. `push` blocks while the queue is full; `pop`
/// blocks while it is empty. Closing wakes all waiters: pending items are
/// still drained, after which `pop` returns `None`.
///
/// ```
/// use adagp_runtime::BoundedQueue;
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// q.close();
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().unwrap();
        while s.items.len() >= self.capacity && !s.closed {
            s = self.not_full.wait(s).unwrap();
        }
        if s.closed {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed and drained (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap();
        }
    }

    /// Non-blocking push: enqueues `item` only if there is room right now.
    ///
    /// # Errors
    ///
    /// Returns the item back, tagged with why it was refused: the queue is
    /// at capacity ([`TryPushError::Full`] — the caller should shed load,
    /// e.g. a server answering 503) or closed ([`TryPushError::Closed`]).
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(TryPushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: pending pushes fail, pending items remain
    /// poppable, and blocked waiters wake up.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why [`BoundedQueue::try_push`] refused an item (the item rides along
/// so the caller can still use it — e.g. answer the connection with 503).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity right now.
    Full(T),
    /// The queue has been closed.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the refused item.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Closed(item) => item,
        }
    }
}

/// Counts outstanding work items: `add` before dispatch, `done` on
/// completion, `wait` to flush. The pipelined trainer uses this to drain
/// the predictor-update stage before a Phase-GP batch reads the predictor.
#[derive(Debug, Default)]
pub struct WaitGroup {
    count: Mutex<usize>,
    zero: Condvar,
}

impl WaitGroup {
    /// Creates an empty wait group.
    pub fn new() -> Self {
        WaitGroup::default()
    }

    /// Registers `n` outstanding items.
    pub fn add(&self, n: usize) {
        *self.count.lock().unwrap() += n;
    }

    /// Marks one item complete.
    ///
    /// # Panics
    ///
    /// Panics if called more times than [`WaitGroup::add`] registered.
    pub fn done(&self) {
        let mut c = self.count.lock().unwrap();
        *c = c.checked_sub(1).expect("WaitGroup::done without add");
        if *c == 0 {
            self.zero.notify_all();
        }
    }

    /// Blocks until the outstanding count reaches zero.
    pub fn wait(&self) {
        let mut c = self.count.lock().unwrap();
        while *c > 0 {
            c = self.zero.wait(c).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn push_blocks_at_capacity() {
        let q = BoundedQueue::new(2);
        let produced = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..6 {
                    q.push(i).unwrap();
                    produced.fetch_add(1, Ordering::SeqCst);
                }
            });
            // Give the producer time to hit the bound.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(produced.load(Ordering::SeqCst) <= 3, "bound not enforced");
            for i in 0..6 {
                assert_eq!(q.pop(), Some(i));
            }
        });
    }

    #[test]
    fn close_rejects_pushes_and_drains() {
        let q = BoundedQueue::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn try_push_never_blocks_and_tags_the_refusal() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        q.close();
        assert_eq!(q.try_push(5), Err(TryPushError::Closed(5)));
        assert_eq!(TryPushError::Full(7).into_inner(), 7);
        // Items enqueued before the close still drain in FIFO order.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wait_group_flushes() {
        let wg = WaitGroup::new();
        wg.add(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    wg.done();
                }
            });
            wg.wait();
        });
        // A drained group waits without blocking.
        wg.wait();
    }
}
