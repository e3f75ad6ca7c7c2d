//! The vertex-partitioned (sharded) Vertex Neighbor Table, and the
//! [`EpochGate`] primitive.
//!
//! The table is partitioned into `N` shards by `node_id % N`, each behind
//! its own lock.  In the streaming server (`tgnn-serve`) one state worker
//! is its only reader and writer: it samples batch *k+1* only after it has
//! committed batch *k*, so program order on that thread is what gives the
//! sampler the serial engine's chronological view — the software analogue
//! of the paper's Updater, which commits vertex updates in order through
//! one commit pointer.  [`ShardedNeighborTable::commit_epoch`] keeps one
//! committed-epoch watermark as a tripwire: an epoch that moves backwards
//! panics.
//!
//! [`EpochGate`] — per-shard watermarks with blocking waits — stands alone:
//! no table uses it.  The sharded vertex memory lives in `tgnn-core` next
//! to `NodeMemory` (`tgnn_core::memory` — not a dependency of this crate,
//! so no intra-doc link).

use crate::neighbor_table::{NeighborEntry, NeighborTable};
use crate::{InteractionEvent, NodeId, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Per-shard committed-epoch watermarks with blocking waits.
///
/// Epochs are the 1-based batch sequence numbers of the stream; a fresh gate
/// reports epoch 0 ("nothing committed") for every shard.  Writers bump a
/// shard's watermark with [`EpochGate::commit`] after releasing the shard's
/// data lock; readers block in [`EpochGate::wait_for`] until the watermark
/// reaches the epoch whose state they need.
#[derive(Debug)]
pub struct EpochGate {
    committed: Vec<AtomicU64>,
    poisoned: std::sync::atomic::AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl EpochGate {
    /// Creates a gate for `num_shards` shards, all at epoch 0.
    pub fn new(num_shards: usize) -> Self {
        Self {
            committed: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.committed.len()
    }

    /// The highest fully committed epoch of a shard.
    pub fn committed(&self, shard: usize) -> u64 {
        self.committed[shard].load(Ordering::Acquire)
    }

    /// Locks the coordination mutex, recovering from std mutex poisoning: a
    /// waiter panics *while holding the guard* when the gate is poisoned
    /// (that is the designed unwind path), and the gate's own `poisoned`
    /// flag — not the std mutex state — carries the liveness information.
    /// Recovering keeps `poison()` callable from destructors during that
    /// unwind, where a second panic would abort the process.
    fn lock_recovered(&self) -> std::sync::MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks `epoch` committed for `shard` and wakes waiting readers.
    ///
    /// # Panics
    /// Panics if the watermark would move backwards — epochs must be
    /// committed in order.
    pub fn commit(&self, shard: usize, epoch: u64) {
        let guard = self.lock_recovered();
        let prev = self.committed[shard].swap(epoch, Ordering::Release);
        assert!(
            prev <= epoch,
            "EpochGate: shard {shard} committed epoch {epoch} after {prev}"
        );
        drop(guard);
        self.cv.notify_all();
    }

    /// Marks the gate dead and wakes every waiter: the committing side is
    /// gone, so pending epochs will never arrive.  Subsequent or woken
    /// [`Self::wait_for`] calls panic instead of blocking forever — this is
    /// what lets a pipeline unwind cleanly when one of its workers dies.
    /// Idempotent and safe to call from destructors mid-unwind.
    pub fn poison(&self) {
        let _guard = self.lock_recovered();
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
        self.cv.notify_all();
    }

    /// True once [`Self::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Blocks until `shard` has committed at least `epoch`.
    ///
    /// # Panics
    /// Panics if the gate is (or becomes) poisoned before the epoch commits.
    pub fn wait_for(&self, shard: usize, epoch: u64) {
        if self.committed[shard].load(Ordering::Acquire) >= epoch {
            return;
        }
        let mut guard = self.lock_recovered();
        while self.committed[shard].load(Ordering::Acquire) < epoch {
            assert!(
                !self.is_poisoned(),
                "EpochGate: poisoned while waiting for shard {shard} epoch {epoch} — \
                 the committing worker died"
            );
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Maps a vertex to its shard under the `node_id % N` partition.
#[inline]
pub fn shard_of(v: NodeId, num_shards: usize) -> usize {
    (v as usize) % num_shards
}

/// Local row index of a vertex inside its shard.
#[inline]
pub fn local_index(v: NodeId, num_shards: usize) -> usize {
    (v as usize) / num_shards
}

/// Number of vertices a shard owns under the modulo partition.
pub fn shard_len(num_nodes: usize, num_shards: usize, shard: usize) -> usize {
    if shard >= num_nodes {
        0
    } else {
        (num_nodes - shard).div_ceil(num_shards)
    }
}

/// The Vertex Neighbor Table partitioned into `N` independently locked
/// shards.
///
/// Invariants (asserted by `check_invariants` and the serve-crate property
/// tests):
/// * vertex `v` lives in shard `v % N` at local row `v / N` — shards never
///   share a vertex;
/// * within a shard, every per-vertex FIFO is chronologically ordered and
///   within capacity (inherited from [`NeighborTable`]);
/// * after `commit_epoch(k, ..)` shard `s` contains exactly the interactions
///   of batches `1..=k` whose endpoint lies in shard `s` — the table state
///   the serial engine has after processing batch `k`.
#[derive(Debug)]
pub struct ShardedNeighborTable {
    shards: Vec<Mutex<NeighborTable>>,
    /// The last committed epoch: the out-of-order-commit tripwire.
    committed: AtomicU64,
    num_shards: usize,
    num_nodes: usize,
}

impl ShardedNeighborTable {
    /// Creates an empty sharded table for `num_nodes` vertices with
    /// per-vertex capacity `mr` and `num_shards` shards.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or `capacity == 0`.
    pub fn new(num_nodes: usize, capacity: usize, num_shards: usize) -> Self {
        assert!(
            num_shards > 0,
            "ShardedNeighborTable: need at least 1 shard"
        );
        let shards = (0..num_shards)
            .map(|s| {
                Mutex::new(NeighborTable::new(
                    shard_len(num_nodes, num_shards, s),
                    capacity,
                ))
            })
            .collect();
        Self {
            shards,
            committed: AtomicU64::new(0),
            num_shards,
            num_nodes,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of vertices tracked across all shards.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Samples up to `k` neighbors of `v` with timestamp strictly before `t`,
    /// most recent first, appending to `out`.  Bit-identical to
    /// `FifoSampler::sample_into` on an unsharded table maintained over the
    /// same event prefix: it reads the table as of the last committed epoch.
    pub fn sample_into(&self, v: NodeId, t: Timestamp, k: usize, out: &mut Vec<NeighborEntry>) {
        let shard = self.shards[shard_of(v, self.num_shards)].lock().unwrap();
        out.extend(
            shard
                .iter_recent(local_index(v, self.num_shards) as NodeId)
                .filter(|e| e.timestamp < t)
                .take(k)
                .copied(),
        );
    }

    /// Commits one batch (epoch) of interactions: every shard absorbs the
    /// endpoints it owns, in event order (src endpoint before dst, as
    /// [`NeighborTable::record_interaction`] does).  Each shard is locked
    /// once, in index order, and one pass over the events routes every
    /// append.
    ///
    /// # Panics
    /// Panics if `epoch` is below the last committed one — epochs must be
    /// committed in order (re-committing the current epoch is allowed).
    pub fn commit_epoch(&self, epoch: u64, events: &[InteractionEvent]) {
        let prev = self.committed.fetch_max(epoch, Ordering::Relaxed);
        assert!(
            prev <= epoch,
            "ShardedNeighborTable: committed epoch {epoch} after {prev}"
        );
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        for e in events {
            for (v, neighbor) in [(e.src, e.dst), (e.dst, e.src)] {
                shards[shard_of(v, self.num_shards)].push(
                    local_index(v, self.num_shards) as NodeId,
                    NeighborEntry {
                        neighbor,
                        edge_id: e.edge_id,
                        timestamp: e.timestamp,
                    },
                );
            }
        }
    }

    /// Runs `f` on one shard's table, read-only, under its lock — how the
    /// durability layer encodes a snapshot payload.
    pub fn read_shard<R>(&self, shard: usize, f: impl FnOnce(&NeighborTable) -> R) -> R {
        f(&self.shards[shard].lock().unwrap())
    }

    /// Replaces one shard's entire state (recovery restore path).
    ///
    /// # Panics
    /// Panics if the replacement's node count or capacity does not match the
    /// shard's.
    pub fn restore_shard(&self, shard: usize, state: NeighborTable) {
        let mut guard = self.shards[shard].lock().unwrap();
        assert_eq!(
            guard.num_nodes(),
            state.num_nodes(),
            "restore_shard: node count mismatch for shard {shard}"
        );
        assert_eq!(
            guard.capacity(),
            state.capacity(),
            "restore_shard: capacity mismatch for shard {shard}"
        );
        *guard = state;
    }

    /// Current number of stored neighbors for `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.shards[shard_of(v, self.num_shards)]
            .lock()
            .unwrap()
            .degree(local_index(v, self.num_shards) as NodeId)
    }

    /// Checks every shard's FIFO invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .lock()
                .unwrap()
                .check_invariants()
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{FifoSampler, TemporalSampler};
    use std::sync::Arc;

    fn events(n: usize, nodes: u32) -> Vec<InteractionEvent> {
        (0..n)
            .map(|i| {
                let src = (i as u32 * 7 + 1) % nodes;
                let mut dst = (i as u32 * 13 + 3) % nodes;
                if dst == src {
                    dst = (dst + 1) % nodes;
                }
                InteractionEvent::new(src, dst, i as u32, i as f64 * 0.25)
            })
            .collect()
    }

    #[test]
    fn partition_helpers_cover_all_vertices_once() {
        let num_nodes = 23;
        for num_shards in [1, 2, 4, 7] {
            let mut seen = vec![0usize; num_shards];
            for v in 0..num_nodes as u32 {
                let s = shard_of(v, num_shards);
                assert!(local_index(v, num_shards) < shard_len(num_nodes, num_shards, s));
                seen[s] += 1;
            }
            let total: usize = (0..num_shards)
                .map(|s| shard_len(num_nodes, num_shards, s))
                .sum();
            assert_eq!(total, num_nodes);
            for (s, &count) in seen.iter().enumerate() {
                assert_eq!(count, shard_len(num_nodes, num_shards, s));
            }
        }
    }

    #[test]
    fn sharded_sampling_matches_fifo_sampler_at_every_epoch() {
        let nodes = 17u32;
        let evs = events(240, nodes);
        for num_shards in [1usize, 2, 4, 5] {
            let sharded = ShardedNeighborTable::new(nodes as usize, 6, num_shards);
            let mut fifo = FifoSampler::new(nodes as usize, 6);
            for (epoch, chunk) in evs.chunks(30).enumerate() {
                sharded.commit_epoch(epoch as u64 + 1, chunk);
                for e in chunk {
                    fifo.observe(e);
                }
                let t = chunk.last().unwrap().timestamp + 0.1;
                let mut got = Vec::new();
                for v in 0..nodes {
                    got.clear();
                    sharded.sample_into(v, t, 4, &mut got);
                    assert_eq!(got, fifo.sample(v, t, 4), "shards={num_shards} vertex {v}");
                }
            }
            assert!(sharded.check_invariants().is_ok());
        }
    }

    #[test]
    fn every_vertex_appends_in_event_order_as_the_plain_table_does() {
        let nodes = 11u32;
        let mut evs = events(90, nodes);
        // A self-loop appends to its vertex twice, src side first.
        evs.push(InteractionEvent::new(3, 3, 90, 90.0 * 0.25));
        for num_shards in [1usize, 3, 4] {
            let sharded = ShardedNeighborTable::new(nodes as usize, 64, num_shards);
            let mut plain = NeighborTable::new(nodes as usize, 64);
            for (epoch, chunk) in evs.chunks(13).enumerate() {
                sharded.commit_epoch(epoch as u64 + 1, chunk);
                for e in chunk {
                    plain.record_interaction(e.src, e.dst, e.edge_id, e.timestamp);
                }
                for v in 0..nodes {
                    let local = local_index(v, num_shards) as NodeId;
                    let got = sharded.read_shard(shard_of(v, num_shards), |t| t.neighbors(local));
                    assert_eq!(got, plain.neighbors(v), "shards={num_shards} vertex {v}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "committed epoch 1 after 2")]
    fn table_commit_panics_when_the_epoch_moves_backwards() {
        let table = ShardedNeighborTable::new(4, 2, 2);
        table.commit_epoch(2, &events(3, 4));
        table.commit_epoch(2, &[]);
        table.commit_epoch(1, &[]);
    }

    #[test]
    fn gate_waits_until_commit() {
        let gate = EpochGate::new(2);
        assert_eq!(gate.committed(0), 0);
        gate.wait_for(0, 0); // trivially satisfied
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                gate.wait_for(1, 3);
                gate.committed(1)
            });
            for epoch in 1..=3 {
                gate.commit(1, epoch);
            }
            assert!(waiter.join().unwrap() >= 3);
        });
    }

    #[test]
    #[should_panic(expected = "committed epoch")]
    fn gate_rejects_backwards_commits() {
        let gate = EpochGate::new(1);
        gate.commit(0, 2);
        gate.commit(0, 1);
    }

    #[test]
    fn poisoned_gate_wakes_and_fails_waiters() {
        let gate = Arc::new(EpochGate::new(1));
        assert!(!gate.is_poisoned());
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    gate.wait_for(0, 5);
                }))
                .is_err()
            })
        };
        // Give the waiter time to actually block, then kill the gate.
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.poison();
        assert!(waiter.join().unwrap(), "poison must unblock + panic waiter");
        // Already-satisfied waits stay fine; blocking ones fail fast.
        gate.wait_for(0, 0);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gate.wait_for(0, 1))).is_err()
        );
    }
}
