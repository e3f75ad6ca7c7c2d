//! Stress tests for the queue close/backpressure paths — many iterations of
//! a producer or consumer blocked on a full/empty queue racing the other
//! end's close.  Guards the lost-wakeup discipline (close flag + notify under
//! the queue mutex) of the channel both pipeline queues use.  A lost wakeup
//! parks a thread forever, so each case runs its loop on a thread of its own
//! under a watchdog: a hung iteration fails the test after [`WATCHDOG`]
//! instead of hanging the suite.
//!
//! Each test spawns its own racing threads; CI additionally runs this suite
//! in release (tighter race windows than debug codegen) with several test
//! functions concurrent for extra thread pressure.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;
use tgnn_serve::queue::channel;

const ITERS: usize = 10_000;

/// How long one case's whole loop may take.  A case takes well under a
/// second in release and a few in debug.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `case` on a thread of its own and fails if it does not finish
/// within [`WATCHDOG`]; a panic inside `case` fails the test as it is.
fn with_watchdog(case: fn()) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        case();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("an iteration hung for {WATCHDOG:?}: a lost wakeup parked a queue end")
        }
    }
}

/// Producer blocked on a full queue races the receiver dropping: the send
/// must fail (item returned), never hang.
#[test]
fn spsc_close_races_blocked_push() {
    with_watchdog(|| {
        for i in 0..ITERS {
            let (tx, rx) = channel::<u32>("stress", 1);
            tx.send(0).unwrap(); // fill: the next send blocks
            thread::scope(|s| {
                let producer = s.spawn(move || tx.send(1));
                if i % 3 == 0 {
                    thread::yield_now(); // vary interleaving across iterations
                }
                drop(rx);
                assert_eq!(producer.join().unwrap(), Err(1), "iteration {i}");
            });
        }
    });
}

/// Consumer blocked on an empty queue races the sender dropping: the recv
/// must observe end of stream, never hang.
#[test]
fn spsc_close_races_blocked_pop() {
    with_watchdog(|| {
        for i in 0..ITERS {
            let (tx, rx) = channel::<u32>("stress", 1);
            thread::scope(|s| {
                let consumer = s.spawn(move || rx.recv());
                if i % 3 == 0 {
                    thread::yield_now();
                }
                drop(tx);
                assert_eq!(consumer.join().unwrap(), None, "iteration {i}");
            });
        }
    });
}

/// Last item sent right before the close must still be delivered — the
/// close/drain ordering half of the contract.
#[test]
fn spsc_item_sent_before_close_is_never_lost() {
    with_watchdog(|| {
        for i in 0..ITERS {
            let (tx, rx) = channel::<u32>("stress", 2);
            thread::scope(|s| {
                let consumer = s.spawn(move || {
                    let mut got = Vec::new();
                    while let Some(x) = rx.recv() {
                        got.push(x);
                    }
                    got
                });
                tx.send(i as u32).unwrap();
                drop(tx);
                assert_eq!(consumer.join().unwrap(), vec![i as u32], "iteration {i}");
            });
        }
    });
}
