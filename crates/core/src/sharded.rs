//! Vertex-partitioned node memory with per-shard locks — the memory-table
//! counterpart of [`tgnn_graph::ShardedNeighborTable`].
//!
//! Partitioning follows the same `node_id % N` scheme.  In the streaming
//! server one state worker is the only reader and writer of this state: it
//! samples, runs the memory stage and commits batch *k* before it touches
//! batch *k+1*, so program order on that thread is what keeps the result
//! bit-identical to the serial engine.  [`ShardedMemory::commit_epoch`] is
//! a plain write of the batch's rows; it keeps one committed-epoch
//! watermark and panics if an epoch moves backwards, and it checks each
//! row's time against the vertex's stored update time, counting the
//! commits and the backwards ones ([`ShardedMemory::backward_commits`] —
//! the chronology the hardware Updater guarantees).  What else happens at
//! the epoch barrier — the embedding cache's expiry before the writes, a
//! snapshot capture after them, which reads each shard through
//! [`ShardedMemory::read_shard`] — the state worker decides in one place.
//!
//! Mailbox slots are overwritten in place ([`NodeMemory`]), and the memory
//! stage consumes messages through [`MemoryTable`], reading them under the
//! shard lock — the state worker's per-event path does not allocate.

use crate::config::ModelConfig;
use crate::memory::{MemoryTable, Message, NodeMemory};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tgnn_graph::sharded::{local_index, shard_len, shard_of};
use tgnn_graph::{EdgeId, NodeId, Timestamp};
use tgnn_tensor::Float;

/// The node memory table (memory rows, last-update clocks, mailbox)
/// partitioned into `N` independently locked shards.
#[derive(Debug)]
pub struct ShardedMemory {
    shards: Vec<Mutex<NodeMemory>>,
    /// The last committed epoch: the out-of-order-commit tripwire.
    committed: AtomicU64,
    /// Rows written by [`Self::commit_epoch`], and those of them earlier
    /// than their vertex's stored update time.
    commits: AtomicU64,
    backward_commits: AtomicU64,
    num_shards: usize,
    num_nodes: usize,
    memory_dim: usize,
}

impl ShardedMemory {
    /// Creates zeroed sharded memory for `num_nodes` vertices.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn new(num_nodes: usize, memory_dim: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedMemory: need at least 1 shard");
        let shards = (0..num_shards)
            .map(|s| {
                Mutex::new(NodeMemory::new(
                    shard_len(num_nodes, num_shards, s),
                    memory_dim,
                ))
            })
            .collect();
        Self {
            shards,
            committed: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            backward_commits: AtomicU64::new(0),
            num_shards,
            num_nodes,
            memory_dim,
        }
    }

    /// Creates sharded memory sized for a model configuration.
    pub fn for_config(num_nodes: usize, config: &ModelConfig, num_shards: usize) -> Self {
        Self::new(num_nodes, config.memory_dim, num_shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of vertices tracked across all shards.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Memory dimensionality.
    pub fn memory_dim(&self) -> usize {
        self.memory_dim
    }

    /// Runs `f` on the shard owning `v` with the vertex's local index.
    fn with_shard<R>(&self, v: NodeId, f: impl FnOnce(&mut NodeMemory, NodeId) -> R) -> R {
        let mut shard = self.shards[shard_of(v, self.num_shards)].lock().unwrap();
        f(&mut shard, local_index(v, self.num_shards) as NodeId)
    }

    /// Copies a vertex's memory row into `dst`.
    pub fn copy_memory_into(&self, v: NodeId, dst: &mut [Float]) {
        self.with_shard(v, |m, local| dst.copy_from_slice(m.memory_of(local)));
    }

    /// A vertex's memory row as an owned vector.
    pub fn memory_of(&self, v: NodeId) -> Vec<Float> {
        self.with_shard(v, |m, local| m.memory_of(local).to_vec())
    }

    /// Timestamp of the last committed memory update of a vertex.
    pub fn last_update(&self, v: NodeId) -> Timestamp {
        self.with_shard(v, |m, local| m.last_update(local))
    }

    /// Consumes the pending mailbox message of a vertex and returns a copy
    /// of it (the memory stage reads it in place through [`MemoryTable`]).
    pub fn take_message(&self, v: NodeId) -> Option<Message> {
        self.with_shard(v, |m, local| m.take_message(local).cloned())
    }

    /// Builds and stores the pair of raw messages generated by an interaction
    /// `(src, dst)` from the *current* memory snapshots — the body is
    /// [`NodeMemory::cache_interaction_messages`]'s: this only takes the shard
    /// locks, once per endpoint (once total when both endpoints share a
    /// shard).
    pub fn cache_interaction_messages(
        &self,
        src: NodeId,
        dst: NodeId,
        edge_id: EdgeId,
        event_time: Timestamp,
    ) {
        let s_src = shard_of(src, self.num_shards);
        let s_dst = shard_of(dst, self.num_shards);
        let l_src = local_index(src, self.num_shards) as NodeId;
        let l_dst = local_index(dst, self.num_shards) as NodeId;
        if s_src == s_dst {
            self.shards[s_src]
                .lock()
                .unwrap()
                .cache_interaction_messages(l_src, l_dst, edge_id, event_time);
            return;
        }
        // Acquire both shard locks in index order (deadlock-safe against any
        // other ordered two-lock acquisition).
        let (lo, hi) = (s_src.min(s_dst), s_src.max(s_dst));
        let mut shard_lo = self.shards[lo].lock().unwrap();
        let mut shard_hi = self.shards[hi].lock().unwrap();
        let (src_shard, dst_shard) = if s_src == lo {
            (&mut *shard_lo, &mut *shard_hi)
        } else {
            (&mut *shard_hi, &mut *shard_lo)
        };
        src_shard.cache_message_from(l_src, dst_shard.memory_of(l_dst), edge_id, event_time);
        dst_shard.cache_message_from(l_dst, src_shard.memory_of(l_src), edge_id, event_time);
    }

    /// Commits one batch (epoch) of memory write-backs: every shard applies
    /// the writes it owns, each checked against its vertex's stored update
    /// time ([`NodeMemory::commit_memory`]) and counted.
    ///
    /// # Panics
    /// Panics if `epoch` is below the last committed one — epochs must be
    /// committed in order (re-committing the current epoch is allowed).
    pub fn commit_epoch<W: MemoryWrites + ?Sized>(&self, epoch: u64, writes: &W) {
        let prev = self.committed.fetch_max(epoch, Ordering::Relaxed);
        assert!(
            prev <= epoch,
            "ShardedMemory: committed epoch {epoch} after {prev}"
        );
        let (mut commits, mut backward) = (0u64, 0u64);
        // Each shard locked once, in index order like every path that holds
        // two, and one pass routes every write.
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.lock().unwrap()).collect();
        writes.for_each_write(|v, row, t| {
            let local = local_index(v, self.num_shards) as NodeId;
            let shard = &mut shards[shard_of(v, self.num_shards)];
            commits += 1;
            backward += u64::from(!shard.commit_memory(local, row, t));
        });
        self.commits.fetch_add(commits, Ordering::Relaxed);
        self.backward_commits.fetch_add(backward, Ordering::Relaxed);
    }

    /// Memory rows written by [`Self::commit_epoch`] so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Committed rows that were earlier than their vertex's stored update
    /// time — zero while every vertex is updated in chronological order.
    pub fn backward_commits(&self) -> u64 {
        self.backward_commits.load(Ordering::Relaxed)
    }

    /// Runs `f` on one shard's memory, read-only, under its lock — how the
    /// durability layer encodes a snapshot payload.
    pub fn read_shard<R>(&self, shard: usize, f: impl FnOnce(&NodeMemory) -> R) -> R {
        f(&self.shards[shard].lock().unwrap())
    }

    /// Replaces one shard's entire state (recovery restore path).
    ///
    /// # Panics
    /// Panics if the replacement's node count or memory dimensionality does
    /// not match the shard's.
    pub fn restore_shard(&self, shard: usize, state: NodeMemory) {
        let mut guard = self.shards[shard].lock().unwrap();
        assert_eq!(
            guard.num_nodes(),
            state.num_nodes(),
            "restore_shard: node count mismatch for shard {shard}"
        );
        assert_eq!(
            guard.memory_dim(),
            state.memory_dim(),
            "restore_shard: memory_dim mismatch for shard {shard}"
        );
        *guard = state;
    }

    /// Number of vertices with a pending mailbox message (diagnostics).
    pub fn pending_messages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().pending_messages())
            .sum()
    }
}

/// One batch of memory write-backs `(vertex, new row, time)`, however the
/// caller holds them: a list of owned rows, or the memory stage's output
/// matrix stamped with the batch's query times.
pub trait MemoryWrites {
    /// Calls `f(vertex, row, time)` for every write, in order.
    fn for_each_write(&self, f: impl FnMut(NodeId, &[Float], Timestamp));
}

impl MemoryWrites for [(NodeId, Vec<Float>, Timestamp)] {
    fn for_each_write(&self, mut f: impl FnMut(NodeId, &[Float], Timestamp)) {
        for (v, row, t) in self {
            f(*v, row, *t);
        }
    }
}

impl<const N: usize> MemoryWrites for [(NodeId, Vec<Float>, Timestamp); N] {
    fn for_each_write(&self, f: impl FnMut(NodeId, &[Float], Timestamp)) {
        self[..].for_each_write(f)
    }
}

impl MemoryWrites for Vec<(NodeId, Vec<Float>, Timestamp)> {
    fn for_each_write(&self, f: impl FnMut(NodeId, &[Float], Timestamp)) {
        self[..].for_each_write(f)
    }
}

impl MemoryTable for &ShardedMemory {
    fn take_message_into(
        &mut self,
        v: NodeId,
        memories: &mut [Float],
    ) -> Option<(EdgeId, Timestamp)> {
        self.with_shard(v, |m, local| m.take_message_into(local, memories))
    }

    fn last_update(&self, v: NodeId) -> Timestamp {
        ShardedMemory::last_update(self, v)
    }

    fn copy_memory_into(&self, v: NodeId, dst: &mut [Float]) {
        ShardedMemory::copy_memory_into(self, v, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_memory_round_trips_like_node_memory() {
        for num_shards in [1usize, 3, 4] {
            let sharded = ShardedMemory::new(10, 4, num_shards);
            let mut reference = NodeMemory::new(10, 4);
            assert_eq!(sharded.num_nodes(), 10);
            assert_eq!(sharded.memory_dim(), 4);

            let writes: Vec<(NodeId, Vec<Float>, Timestamp)> = (0..10u32)
                .map(|v| (v, vec![v as Float; 4], v as Timestamp))
                .collect();
            sharded.commit_epoch(1, &writes);
            for (v, row, t) in &writes {
                reference.set_memory(*v, row, *t);
            }
            for v in 0..10u32 {
                assert_eq!(sharded.memory_of(v), reference.memory_of(v));
                assert_eq!(sharded.last_update(v), reference.last_update(v));
            }
        }
    }

    #[test]
    fn interaction_messages_match_unsharded_semantics() {
        let sharded = ShardedMemory::new(6, 2, 3);
        let mut reference = NodeMemory::new(6, 2);
        sharded.commit_epoch(1, &[(1, vec![1.0, 1.0], 0.0), (2, vec![2.0, 2.0], 0.0)]);
        reference.set_memory(1, &[1.0, 1.0], 0.0);
        reference.set_memory(2, &[2.0, 2.0], 0.0);

        sharded.cache_interaction_messages(1, 2, 4, 3.0);
        reference.cache_interaction_messages(1, 2, 4, 3.0);
        assert_eq!(sharded.pending_messages(), 2);
        for v in [1u32, 2] {
            let got = sharded.take_message(v).unwrap();
            let want = reference.take_message(v).unwrap();
            assert_eq!(&got, want, "vertex {v}");
        }
        assert!(sharded.take_message(1).is_none());
    }

    #[test]
    fn commit_epoch_lands_each_write_in_its_shard_only() {
        let sharded = ShardedMemory::new(8, 2, 4);
        sharded.commit_epoch(1, &[(5, vec![0.5, 0.5], 1.0)]);
        assert_eq!(sharded.memory_of(5), vec![0.5, 0.5]);
        for s in 0..4 {
            // Vertex 5 is shard 1's local row 1; every other row stays zero.
            let rows: Vec<Vec<Float>> =
                sharded.read_shard(s, |m| (0..2).map(|l| m.memory_of(l).to_vec()).collect());
            for (local, row) in rows.iter().enumerate() {
                let want = if (s, local) == (1, 1) { 0.5 } else { 0.0 };
                assert_eq!(row, &vec![want; 2], "shard {s} row {local}");
            }
        }
    }

    #[test]
    fn a_commit_earlier_than_the_stored_update_time_counts_one_backward_commit() {
        let sharded = ShardedMemory::new(4, 2, 2);
        sharded.commit_epoch(1, &[(1, vec![1.0, 1.0], 10.0), (2, vec![2.0, 2.0], 3.0)]);
        sharded.commit_epoch(2, &[(1, vec![1.5, 1.5], 10.0), (2, vec![2.5, 2.5], 4.0)]);
        assert_eq!((sharded.commits(), sharded.backward_commits()), (4, 0));
        sharded.commit_epoch(3, &[(1, vec![0.5, 0.5], 5.0), (3, vec![3.0, 3.0], 1.0)]);
        assert_eq!((sharded.commits(), sharded.backward_commits()), (6, 1));
        // The write itself still lands: the check counts, it does not veto.
        assert_eq!(sharded.memory_of(1), vec![0.5, 0.5]);
        assert_eq!(sharded.last_update(1), 5.0);
        // A restored shard is not a commit.
        sharded.restore_shard(1, NodeMemory::new(2, 2));
        assert_eq!((sharded.commits(), sharded.backward_commits()), (6, 1));
    }

    #[test]
    #[should_panic(expected = "committed epoch 1 after 2")]
    fn memory_commit_panics_when_the_epoch_moves_backwards() {
        let sharded = ShardedMemory::new(4, 2, 2);
        sharded.commit_epoch(2, &[(1, vec![1.0, 1.0], 0.0)]);
        sharded.commit_epoch(2, &[]);
        sharded.commit_epoch(1, &[]);
    }
}
