//! The bounded single-producer single-consumer queue between pipeline
//! stages, with occupancy statistics.
//!
//! Each pipeline stage pair is connected by one of these: a fixed-capacity
//! FIFO whose `send` blocks when the downstream stage falls behind — that
//! blocking *is* the backpressure mechanism, propagating from the slowest
//! stage back to `StreamServer::submit`.  Closing happens by dropping the
//! [`Sender`]; the receiver then drains the remaining items and observes end
//! of stream, which is how shutdown ripples down the pipeline.
//!
//! There is one flavour, [`channel`].  [`mpmc_channel`] is the same queue
//! under the name `benchmark/` times as `serve.queue_mpmc.ns_per_item`; the
//! name goes when that benchmark row does.
//!
//! The queue is a plain mutex + condvars — a mutex keeps the
//! close/backpressure semantics obvious.  What is *not* noise once a
//! micro-batch can be a single event (batches shrink to whatever arrived
//! while the state worker was busy) is the kernel entry behind every
//! `Condvar::notify_*`: std's condvar always makes the futex call, waiter or
//! not.  So each end records under the queue mutex that it is about to park
//! and the other end notifies only then.
//!
//! The statistics live in one block of counters beside the queue, shared by
//! both ends and every [`QueueMonitor`]: a monitor reads atomics and never
//! takes the queue's mutex.  The live depth is one of them, stored under the
//! mutex after each push or pop, so it always equals the queue's length as
//! of the last completed operation.
//!
//! Lost-wakeup arguments, both of one shape — *the flag and the condition it
//! guards change under the same mutex the waiter checks them under*:
//! * **close / receiver gone** — `Sender::drop` / `Receiver::drop` set their
//!   flag and notify while holding the queue mutex; a peer checks the flag
//!   and then waits without releasing that mutex in between, so the notify
//!   cannot land between its check and its wait.
//! * **parked flags** — a receiver sets `receiver_parked` and a sender
//!   `sender_parked` immediately before `Condvar::wait`, mutex held (the
//!   wait releases it atomically).  The peer pushes or pops under the same
//!   mutex and reads the flag there: set means the waiter is inside `wait`
//!   (or already woken and about to re-check the queue), so one notify
//!   reaches it; clear means it has not checked the queue yet and will see
//!   the item or the free slot before it ever waits.  The notifier clears
//!   the flag — one wakeup per park, not one per item pushed while the
//!   woken thread is still on its way back to the mutex.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Occupancy statistics of one queue, for the backpressure report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Static name of the queue (which stage pair it connects).
    pub name: &'static str,
    /// Capacity bound.
    pub capacity: usize,
    /// Total items pushed over the queue's lifetime.
    pub pushes: u64,
    /// Total items popped over the queue's lifetime.
    pub pops: u64,
    /// Depth after the last push or pop completed before this snapshot.
    pub depth: usize,
    /// Highest depth observed right after a push.
    pub max_depth: usize,
    /// Mean depth sampled after every push *and* every pop.  Sampling both
    /// sides is what keeps the estimate unbiased: push-only sampling always
    /// observes the post-push peak and never the post-pop trough, so a queue
    /// that alternates between 1 and 0 would read 1.0 instead of ~0.5.
    pub mean_depth: f64,
    /// Number of `send` calls that had to block because the queue was full.
    pub blocked_sends: u64,
}

/// A queue's statistics, written by its ends and read by its monitors.
#[derive(Debug)]
struct Counters {
    name: &'static str,
    capacity: usize,
    pushes: AtomicU64,
    pops: AtomicU64,
    depth_sum: AtomicU64,
    max_depth: AtomicUsize,
    blocked_sends: AtomicU64,
    /// The queue's length after the last push or pop, stored under the
    /// queue mutex so stores land in the order the operations did.
    depth: AtomicUsize,
}

impl Counters {
    fn stats(&self) -> QueueStats {
        let pushes = self.pushes.load(Ordering::Relaxed);
        let pops = self.pops.load(Ordering::Relaxed);
        let samples = pushes + pops;
        QueueStats {
            name: self.name,
            capacity: self.capacity,
            pushes,
            pops,
            depth: self.depth.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            mean_depth: if samples == 0 {
                0.0
            } else {
                self.depth_sum.load(Ordering::Relaxed) as f64 / samples as f64
            },
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
        }
    }
}

/// The SPSC state the queue mutex guards.
#[derive(Debug)]
struct Spsc<T> {
    queue: VecDeque<T>,
    /// The receiver is blocked in `recv` on an empty queue and nothing has
    /// been pushed since: set by the receiver before it waits, cleared by
    /// the `send` that wakes it.
    receiver_parked: bool,
    /// The sender is blocked in `send` on a full queue; set and cleared the
    /// same way from the other side.
    sender_parked: bool,
}

struct Inner<T> {
    state: Mutex<Spsc<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    closed: AtomicBool,
    receiver_gone: AtomicBool,
    counters: Arc<Counters>,
}

impl<T> Inner<T> {
    /// Finishes a pop: records the post-pop depth (so the mean sees troughs
    /// as well as peaks) and wakes the sender if it was parked on a full
    /// queue.
    fn popped(&self, mut state: std::sync::MutexGuard<'_, Spsc<T>>) {
        let depth = state.queue.len();
        self.counters.depth.store(depth, Ordering::Relaxed);
        let wake = std::mem::take(&mut state.sender_parked);
        drop(state);
        self.counters.pops.fetch_add(1, Ordering::Relaxed);
        self.counters
            .depth_sum
            .fetch_add(depth as u64, Ordering::Relaxed);
        if wake {
            self.not_full.notify_one();
        }
    }
}

impl<T> std::fmt::Debug for Inner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

/// Producer end.  Dropping it closes the queue.
#[derive(Debug)]
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer end.
#[derive(Debug)]
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Read-only observer of a queue's live depth and statistics, held by the
/// server for reporting while the ends live inside worker threads.  It
/// holds only the queue's counters, never the queue's mutex.
#[derive(Debug, Clone)]
pub struct QueueMonitor {
    counters: Arc<Counters>,
}

/// Creates a bounded SPSC channel.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn channel<T>(name: &'static str, capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "spsc channel: capacity must be positive");
    let inner = Arc::new(Inner {
        state: Mutex::new(Spsc {
            queue: VecDeque::with_capacity(capacity),
            receiver_parked: false,
            sender_parked: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        closed: AtomicBool::new(false),
        receiver_gone: AtomicBool::new(false),
        counters: Arc::new(Counters {
            name,
            capacity,
            pushes: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            depth_sum: AtomicU64::new(0),
            max_depth: AtomicUsize::new(0),
            blocked_sends: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

/// [`channel`] under the name `benchmark/` calls for its
/// `serve.queue_mpmc.ns_per_item` row: one producer thread, one consumer,
/// `send`/`recv` only, closed by dropping the sender.  It goes with that row.
pub fn mpmc_channel<T>(name: &'static str, capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel(name, capacity)
}

impl<T> Sender<T> {
    /// Pushes an item, blocking while the queue is full (backpressure).
    /// Returns the item back if the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        let inner = &*self.inner;
        let counters = &*inner.counters;
        if inner.receiver_gone.load(Ordering::Acquire) {
            return Err(item);
        }
        let mut s = inner.state.lock().unwrap();
        if s.queue.len() >= counters.capacity {
            counters.blocked_sends.fetch_add(1, Ordering::Relaxed);
            while s.queue.len() >= counters.capacity {
                if inner.receiver_gone.load(Ordering::Acquire) {
                    return Err(item);
                }
                s.sender_parked = true;
                s = inner.not_full.wait(s).unwrap();
            }
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        counters.depth.store(depth, Ordering::Relaxed);
        let wake = std::mem::take(&mut s.receiver_parked);
        drop(s);
        counters.pushes.fetch_add(1, Ordering::Relaxed);
        counters
            .depth_sum
            .fetch_add(depth as u64, Ordering::Relaxed);
        counters.max_depth.fetch_max(depth, Ordering::Relaxed);
        if wake {
            inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// A monitoring handle for this queue.
    pub fn monitor(&self) -> QueueMonitor {
        QueueMonitor {
            counters: self.inner.counters.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // The flag store and the notify must happen under the queue mutex:
        // a receiver checks `closed` and then waits while holding that mutex,
        // so notifying lock-free could land between its check and its wait —
        // a lost wakeup that would park the receiver forever.
        let _guard = self.inner.state.lock().unwrap();
        self.inner.closed.store(true, Ordering::Release);
        self.inner.not_empty.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Pops the next item, blocking until one arrives.  Returns `None` once
    /// the queue is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut s = inner.state.lock().unwrap();
        loop {
            if let Some(item) = s.queue.pop_front() {
                inner.popped(s);
                return Some(item);
            }
            if inner.closed.load(Ordering::Acquire) {
                return None;
            }
            s.receiver_parked = true;
            s = inner.not_empty.wait(s).unwrap();
        }
    }

    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut s = inner.state.lock().unwrap();
        let item = s.queue.pop_front();
        if item.is_some() {
            inner.popped(s);
        }
        item
    }

    /// A monitoring handle for this queue.
    pub fn monitor(&self) -> QueueMonitor {
        QueueMonitor {
            counters: self.inner.counters.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Same lost-wakeup discipline as Sender::drop: a sender checks
        // `receiver_gone` and waits under the queue mutex.
        let _guard = self.inner.state.lock().unwrap();
        self.inner.receiver_gone.store(true, Ordering::Release);
        self.inner.not_full.notify_all();
    }
}

impl QueueMonitor {
    /// Depth after the queue's last completed push or pop.
    pub fn depth(&self) -> usize {
        self.counters.depth.load(Ordering::Relaxed)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.counters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_close_semantics() {
        let (tx, rx) = channel::<u32>("test", 4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None); // closed and drained
    }

    #[test]
    fn send_blocks_on_full_queue_until_consumer_drains() {
        let (tx, rx) = channel::<u32>("test", 2);
        let producer = thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            tx.monitor().stats()
        });
        let mut got = Vec::new();
        while let Some(x) = rx.recv() {
            got.push(x);
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        let stats = producer.join().unwrap();
        assert_eq!(stats.pushes, 10);
        assert!(stats.max_depth <= 2);
        assert!(stats.blocked_sends > 0, "slow consumer must cause blocking");
    }

    #[test]
    fn mean_depth_samples_pops_not_just_pushes() {
        // Strict push → pop alternation: depth is 1 after every push and 0
        // after every pop, so the unbiased mean is 0.5.  The old push-only
        // sampling reported 1.0 — the regression this test pins down.
        let (tx, rx) = channel::<u32>("test", 2);
        for i in 0..1000 {
            tx.send(i).unwrap();
            assert_eq!(rx.recv(), Some(i));
        }
        let stats = tx.monitor().stats();
        assert_eq!(stats.pushes, 1000);
        assert_eq!(stats.pops, 1000);
        assert!(
            (stats.mean_depth - 0.5).abs() < 1e-9,
            "push-only sampling bias: mean_depth = {}",
            stats.mean_depth
        );
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn stats_report_live_depth() {
        // Both reads come from the counters, not the queue: after every
        // kind of push and pop they must equal the queue's length.
        let (tx, rx) = channel::<u32>("test", 8);
        let monitor = tx.monitor();
        let assert_depth = |want: usize, after: &str| {
            let len = rx.inner.state.lock().unwrap().queue.len();
            assert_eq!(len, want, "queue length after {after}");
            assert_eq!(monitor.depth(), want, "depth() after {after}");
            assert_eq!(monitor.stats().depth, want, "stats().depth after {after}");
            assert_eq!(
                rx.monitor().depth(),
                want,
                "receiver's monitor after {after}"
            );
        };
        assert_depth(0, "nothing");
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_depth(3, "three sends");
        rx.recv().unwrap();
        assert_depth(2, "a recv");
        // `try_recv` finishes through the same `popped` path `poll` takes.
        assert_eq!(rx.try_recv(), Some(2));
        assert_depth(1, "a try_recv");
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), None);
        assert_depth(0, "an empty try_recv");
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (tx, rx) = channel::<u32>("test", 1);
        assert_eq!(rx.try_recv(), None);
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
    }

    #[test]
    fn send_fails_when_receiver_dropped_and_queue_full() {
        let (tx, rx) = channel::<u32>("test", 1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(2));
    }
}
