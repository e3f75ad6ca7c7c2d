//! Bounded SPSC and MPMC queues with occupancy statistics.
//!
//! Each pipeline stage pair is connected by one of these: a fixed-capacity
//! FIFO whose `send` blocks when the downstream stage falls behind — that
//! blocking *is* the backpressure mechanism, propagating from the slowest
//! stage back to `StreamServer::submit`.  Closing happens by dropping the
//! [`Sender`]; the receiver then drains the remaining items and observes end
//! of stream, which is how shutdown ripples down the pipeline.
//!
//! Two flavours share the semantics:
//! * [`channel`] — single-producer single-consumer, one end per stage;
//! * [`mpmc_channel`] — multi-producer multi-consumer with clonable ends.
//!   The channel closes when the last [`MpmcSender`] drops (or
//!   [`MpmcSender::close`]/[`MpmcReceiver::close`] is called explicitly), and
//!   `send` fails once every receiver is gone.  No pipeline stage uses it
//!   (every stage is one thread, connected by [`channel`]s); it stays because
//!   `benchmark/` times it (`serve.queue_mpmc.ns_per_item`), and goes when
//!   that benchmark is next re-baselined.
//!
//! Both are a plain mutex + condvars — a mutex keeps the close/backpressure
//! semantics obvious.  What is *not* noise once a micro-batch can be a single
//! event (batches shrink to whatever arrived while the state worker was
//! busy) is the kernel entry behind every `Condvar::notify_*`: std's condvar
//! always makes the futex call, waiter or not.  So each end records under
//! the queue mutex that it is about to park and the other end notifies only
//! then.
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
    /// Depth at the moment this snapshot was taken.
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
    capacity: usize,
    name: &'static str,
    pushes: AtomicU64,
    pops: AtomicU64,
    depth_sum: AtomicU64,
    max_depth: AtomicUsize,
    blocked_sends: AtomicU64,
}

impl<T> Inner<T> {
    fn stats(&self) -> QueueStats {
        let pushes = self.pushes.load(Ordering::Relaxed);
        let pops = self.pops.load(Ordering::Relaxed);
        let samples = pushes + pops;
        QueueStats {
            name: self.name,
            capacity: self.capacity,
            pushes,
            pops,
            depth: self.state.lock().unwrap().queue.len(),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            mean_depth: if samples == 0 {
                0.0
            } else {
                self.depth_sum.load(Ordering::Relaxed) as f64 / samples as f64
            },
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
        }
    }

    /// Finishes a pop: records the post-pop depth (so the mean sees troughs
    /// as well as peaks) and wakes the sender if it was parked on a full
    /// queue.
    fn popped(&self, mut state: std::sync::MutexGuard<'_, Spsc<T>>) {
        let depth = state.queue.len();
        let wake = std::mem::take(&mut state.sender_parked);
        drop(state);
        self.pops.fetch_add(1, Ordering::Relaxed);
        self.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        if wake {
            self.not_full.notify_one();
        }
    }
}

impl<T> std::fmt::Debug for Inner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("name", &self.name)
            .field("capacity", &self.capacity)
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
/// server for reporting while the ends live inside worker threads.
#[derive(Debug, Clone)]
pub struct QueueMonitor<T> {
    inner: Arc<Inner<T>>,
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
        capacity,
        name,
        pushes: AtomicU64::new(0),
        pops: AtomicU64::new(0),
        depth_sum: AtomicU64::new(0),
        max_depth: AtomicUsize::new(0),
        blocked_sends: AtomicU64::new(0),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Pushes an item, blocking while the queue is full (backpressure).
    /// Returns the item back if the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        let inner = &*self.inner;
        if inner.receiver_gone.load(Ordering::Acquire) {
            return Err(item);
        }
        let mut s = inner.state.lock().unwrap();
        if s.queue.len() >= inner.capacity {
            inner.blocked_sends.fetch_add(1, Ordering::Relaxed);
            while s.queue.len() >= inner.capacity {
                if inner.receiver_gone.load(Ordering::Acquire) {
                    return Err(item);
                }
                s.sender_parked = true;
                s = inner.not_full.wait(s).unwrap();
            }
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        let wake = std::mem::take(&mut s.receiver_parked);
        drop(s);
        inner.pushes.fetch_add(1, Ordering::Relaxed);
        inner.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        inner.max_depth.fetch_max(depth, Ordering::Relaxed);
        if wake {
            inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// A monitoring handle for this queue.
    pub fn monitor(&self) -> QueueMonitor<T> {
        QueueMonitor {
            inner: self.inner.clone(),
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
    pub fn monitor(&self) -> QueueMonitor<T> {
        QueueMonitor {
            inner: self.inner.clone(),
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

impl<T> QueueMonitor<T> {
    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.inner.stats()
    }
}

// ---------------------------------------------------------------------------
// MPMC variant
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct MpmcState<T> {
    queue: VecDeque<T>,
    /// Live `MpmcSender` clones; the channel closes when this reaches 0.
    senders: usize,
    /// Live `MpmcReceiver` clones; `send` fails when this reaches 0.
    receivers: usize,
    /// Set by the last sender dropping or an explicit `close()` from either
    /// end: no further sends succeed, receivers drain then observe Closed.
    closed: bool,
    /// Receivers inside `not_empty.wait` / senders inside `not_full.wait`:
    /// a push or pop notifies only when the matching count is non-zero (the
    /// SPSC parked flags, as counts because the ends are clonable).
    parked_receivers: usize,
    parked_senders: usize,
}

#[derive(Debug)]
struct MpmcInner<T> {
    state: Mutex<MpmcState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    name: &'static str,
    pushes: AtomicU64,
    pops: AtomicU64,
    depth_sum: AtomicU64,
    max_depth: AtomicUsize,
    blocked_sends: AtomicU64,
}

impl<T> MpmcInner<T> {
    fn stats(&self) -> QueueStats {
        let pushes = self.pushes.load(Ordering::Relaxed);
        let pops = self.pops.load(Ordering::Relaxed);
        let samples = pushes + pops;
        QueueStats {
            name: self.name,
            capacity: self.capacity,
            pushes,
            pops,
            depth: self.state.lock().unwrap().queue.len(),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            mean_depth: if samples == 0 {
                0.0
            } else {
                self.depth_sum.load(Ordering::Relaxed) as f64 / samples as f64
            },
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
        }
    }

    /// Records the post-pop depth so the mean sees troughs as well as peaks.
    fn note_pop(&self, depth: usize) {
        self.pops.fetch_add(1, Ordering::Relaxed);
        self.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
    }

    /// Marks the channel closed and wakes every blocked sender and receiver.
    fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Clonable producer end of an MPMC channel.
#[derive(Debug)]
pub struct MpmcSender<T> {
    inner: Arc<MpmcInner<T>>,
}

/// Clonable consumer end of an MPMC channel.
#[derive(Debug)]
pub struct MpmcReceiver<T> {
    inner: Arc<MpmcInner<T>>,
}

/// Read-only observer of an MPMC queue's depth and statistics.
#[derive(Debug, Clone)]
pub struct MpmcMonitor<T> {
    inner: Arc<MpmcInner<T>>,
}

/// Creates a bounded MPMC channel.  Both ends are clonable; the channel
/// closes when the last sender drops (or either end calls `close()`).  The
/// pipeline does not use it; it is kept for `benchmark/`, which times it.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn mpmc_channel<T>(name: &'static str, capacity: usize) -> (MpmcSender<T>, MpmcReceiver<T>) {
    assert!(capacity > 0, "mpmc channel: capacity must be positive");
    let inner = Arc::new(MpmcInner {
        state: Mutex::new(MpmcState {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receivers: 1,
            closed: false,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
        name,
        pushes: AtomicU64::new(0),
        pops: AtomicU64::new(0),
        depth_sum: AtomicU64::new(0),
        max_depth: AtomicUsize::new(0),
        blocked_sends: AtomicU64::new(0),
    });
    (
        MpmcSender {
            inner: inner.clone(),
        },
        MpmcReceiver { inner },
    )
}

impl<T> MpmcSender<T> {
    /// Pushes an item, blocking while the queue is full (backpressure).
    /// Returns the item back if the channel is closed or every receiver is
    /// gone — including when either happens *while* blocked.
    pub fn send(&self, item: T) -> Result<(), T> {
        let inner = &*self.inner;
        let mut state = inner.state.lock().unwrap();
        let mut counted_block = false;
        loop {
            if state.closed || state.receivers == 0 {
                return Err(item);
            }
            if state.queue.len() < inner.capacity {
                state.queue.push_back(item);
                let depth = state.queue.len();
                let wake = state.parked_receivers > 0;
                drop(state);
                inner.pushes.fetch_add(1, Ordering::Relaxed);
                inner.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
                inner.max_depth.fetch_max(depth, Ordering::Relaxed);
                if wake {
                    inner.not_empty.notify_one();
                }
                return Ok(());
            }
            if !counted_block {
                inner.blocked_sends.fetch_add(1, Ordering::Relaxed);
                counted_block = true;
            }
            state.parked_senders += 1;
            state = inner.not_full.wait(state).unwrap();
            state.parked_senders -= 1;
        }
    }

    /// Closes the channel: blocked and future `send`s fail, receivers drain
    /// the remaining items and then observe end of stream.
    pub fn close(&self) {
        self.inner.close();
    }

    /// A monitoring handle for this queue.
    pub fn monitor(&self) -> MpmcMonitor<T> {
        MpmcMonitor {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Clone for MpmcSender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().senders += 1;
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for MpmcSender<T> {
    fn drop(&mut self) {
        // Count decrement, close flag, and wakeup all happen under the state
        // mutex — same lost-wakeup discipline as the SPSC ends.
        let mut state = self.inner.state.lock().unwrap();
        state.senders -= 1;
        let last = state.senders == 0;
        if last {
            state.closed = true;
        }
        drop(state);
        if last {
            self.inner.not_empty.notify_all();
            self.inner.not_full.notify_all();
        }
    }
}

impl<T> MpmcReceiver<T> {
    /// Pops the next item, blocking until one arrives.  Returns `None` once
    /// the channel is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut state = inner.state.lock().unwrap();
        loop {
            if let Some(item) = state.queue.pop_front() {
                let depth = state.queue.len();
                let wake = state.parked_senders > 0;
                drop(state);
                inner.note_pop(depth);
                if wake {
                    inner.not_full.notify_one();
                }
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked_receivers += 1;
            state = inner.not_empty.wait(state).unwrap();
            state.parked_receivers -= 1;
        }
    }

    /// Closes the channel from the consumer side: blocked and future `send`s
    /// fail, remaining items stay poppable.
    pub fn close(&self) {
        self.inner.close();
    }

    /// A monitoring handle for this queue.
    pub fn monitor(&self) -> MpmcMonitor<T> {
        MpmcMonitor {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Clone for MpmcReceiver<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().receivers += 1;
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for MpmcReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.receivers -= 1;
        let last = state.receivers == 0;
        drop(state);
        if last {
            // Senders blocked on a full queue must fail, not wait forever.
            self.inner.not_full.notify_all();
        }
    }
}

impl<T> MpmcMonitor<T> {
    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.inner.stats()
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
    fn mpmc_mean_depth_samples_pops_not_just_pushes() {
        let (tx, rx) = mpmc_channel::<u32>("test", 2);
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
    }

    #[test]
    fn stats_report_live_depth() {
        let (tx, rx) = channel::<u32>("test", 8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(tx.monitor().stats().depth, 3);
        rx.recv().unwrap();
        assert_eq!(rx.monitor().stats().depth, 2);
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

    #[test]
    fn mpmc_fifo_and_close_on_last_sender_drop() {
        let (tx, rx) = mpmc_channel::<u32>("test", 4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1)); // still open: tx2 alive
        drop(tx2);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None); // closed and drained
    }

    #[test]
    fn mpmc_many_producers_many_consumers_deliver_every_item() {
        let (tx, rx) = mpmc_channel::<u32>("test", 3);
        let mut producers = Vec::new();
        for p in 0..4u32 {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..50 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(x) = rx.recv() {
                    got.push(x);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<u32> = (0..4u32)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn mpmc_explicit_close_fails_blocked_sender_and_drains_receiver() {
        let (tx, rx) = mpmc_channel::<u32>("test", 1);
        tx.send(7).unwrap();
        let blocked = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(8))
        };
        thread::sleep(Duration::from_millis(10));
        rx.close();
        assert_eq!(blocked.join().unwrap(), Err(8));
        assert_eq!(rx.recv(), Some(7)); // remaining item stays poppable
        assert_eq!(rx.recv(), None);
        assert_eq!(tx.send(9), Err(9));
    }

    #[test]
    fn mpmc_send_fails_once_every_receiver_is_gone() {
        let (tx, rx) = mpmc_channel::<u32>("test", 1);
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        drop(rx);
        let blocked = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2))
        };
        thread::sleep(Duration::from_millis(10));
        drop(rx2); // last receiver: blocked send must fail, not hang
        assert_eq!(blocked.join().unwrap(), Err(2));
    }
}
