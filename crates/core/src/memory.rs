//! Node memory, cached messages (the Vertex Mailbox), and message
//! construction (Eq. 4–5).
//!
//! To avoid the information-leak problem described in Section II, the model
//! never feeds the current graph signal's message directly into the memory
//! update.  Instead the *raw* message ingredients are cached in the mailbox
//! when an event is processed, and consumed the next time the vertex is
//! involved in an event (Algorithm 1, lines 3–8).

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};
use tgnn_graph::{EdgeId, NodeId, Timestamp};
use tgnn_tensor::{Float, Matrix};

/// A cached raw message for one vertex: everything needed to rebuild
/// `m_v = s_v || s_u || f_e || Φ(Δt)` at memory-update time.  The edge
/// feature `f_e` is static, so the message names its edge and the feature
/// is read from the graph's edge table when the message is consumed.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Snapshot of the destination vertex's own memory when the message was
    /// generated.
    pub self_memory: Vec<Float>,
    /// Snapshot of the counterpart vertex's memory.
    pub other_memory: Vec<Float>,
    /// The generating interaction's edge (row of the graph's edge feature
    /// table).
    pub edge_id: EdgeId,
    /// Timestamp of the generating interaction.
    pub event_time: Timestamp,
}

impl Message {
    /// Assembles the flat message vector given the generating edge's
    /// feature and the time encoding of Δt.
    pub fn assemble(&self, edge_feature: &[Float], time_encoding: &[Float]) -> Vec<Float> {
        let mut out = Vec::with_capacity(
            self.self_memory.len()
                + self.other_memory.len()
                + edge_feature.len()
                + time_encoding.len(),
        );
        out.extend_from_slice(&self.self_memory);
        out.extend_from_slice(&self.other_memory);
        out.extend_from_slice(edge_feature);
        out.extend_from_slice(time_encoding);
        out
    }

    /// Writes the part of the message head the slot holds, `s_v ‖ s_u`,
    /// into `dst`, which must be exactly that long.
    pub fn write_memories(&self, dst: &mut [Float]) {
        let (own, other) = dst.split_at_mut(self.self_memory.len());
        own.copy_from_slice(&self.self_memory);
        other.copy_from_slice(&self.other_memory);
    }
}

/// One mailbox slot: the buffers of the last message written into it and
/// whether that message is still pending.  Consuming the message only
/// clears `pending`, so the next write reuses the buffers in place — after
/// a vertex's first interaction its slot never touches the heap again.
#[derive(Clone, Debug, Default)]
struct Slot {
    pending: bool,
    message: Message,
}

impl Slot {
    /// The mailbox's one write path: overwrites the slot in place with the
    /// message a vertex whose memory is `own` receives from an interaction
    /// along `edge_id` at `event_time` with a vertex whose memory is `other`.
    fn write(&mut self, own: &[Float], other: &[Float], edge_id: EdgeId, event_time: Timestamp) {
        let m = &mut self.message;
        for (dst, src) in [(&mut m.self_memory, own), (&mut m.other_memory, other)] {
            dst.clear();
            dst.extend_from_slice(src);
        }
        m.edge_id = edge_id;
        m.event_time = event_time;
        self.pending = true;
    }
}

/// The node memory table and mailbox — the state persisted in the FPGA
/// board's external DDR memory (Vertex Memory Table + Vertex Mailbox in
/// Fig. 2).  As on the board, a vertex's mailbox slot is a fixed place that
/// every message for it is written into; snapshots go through
/// `tgnn_durable`'s codec, which reads only pending messages.
#[derive(Clone, Debug)]
pub struct NodeMemory {
    memory: Matrix,
    /// Timestamp of the last committed memory update per vertex.
    last_update: Vec<Timestamp>,
    /// Cached raw message per vertex ("Most-Recent" aggregator: only the
    /// latest message is kept).
    mailbox: Vec<Slot>,
    memory_dim: usize,
}

impl NodeMemory {
    /// Creates zeroed memory for `num_nodes` vertices.
    pub fn new(num_nodes: usize, memory_dim: usize) -> Self {
        Self {
            memory: Matrix::zeros(num_nodes, memory_dim),
            last_update: vec![0.0; num_nodes],
            mailbox: vec![Slot::default(); num_nodes],
            memory_dim,
        }
    }

    /// Creates memory sized for a model configuration.
    pub fn for_config(num_nodes: usize, config: &ModelConfig) -> Self {
        Self::new(num_nodes, config.memory_dim)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.memory.rows()
    }

    /// Memory dimensionality.
    pub fn memory_dim(&self) -> usize {
        self.memory_dim
    }

    /// Read a vertex's memory vector.
    pub fn memory_of(&self, v: NodeId) -> &[Float] {
        self.memory.row(v as usize)
    }

    /// Gather the memory rows of several vertices into a batch matrix.
    pub fn gather(&self, vertices: &[NodeId]) -> Matrix {
        let idx: Vec<usize> = vertices.iter().map(|&v| v as usize).collect();
        self.memory.gather_rows(&idx)
    }

    /// Overwrite a vertex's memory (the Updater's write-back path).
    ///
    /// # Panics
    /// Panics if the vector length differs from the memory dimensionality.
    pub fn set_memory(&mut self, v: NodeId, new_memory: &[Float], at: Timestamp) {
        assert_eq!(
            new_memory.len(),
            self.memory_dim,
            "set_memory: dim mismatch"
        );
        self.memory.set_row(v as usize, new_memory);
        self.last_update[v as usize] = at;
    }

    /// [`Self::set_memory`] plus the chronology check the hardware Updater
    /// guarantees: returns `false` when `at` is earlier than the vertex's
    /// stored update time (the write still lands).  Commit owners count
    /// these; a raw `set_memory` (a snapshot restore, a test) counts nothing.
    pub fn commit_memory(&mut self, v: NodeId, new_memory: &[Float], at: Timestamp) -> bool {
        let in_order = at >= self.last_update[v as usize];
        self.set_memory(v, new_memory, at);
        in_order
    }

    /// Timestamp of the last committed memory update of a vertex.
    pub fn last_update(&self, v: NodeId) -> Timestamp {
        self.last_update[v as usize]
    }

    /// Read (without consuming) the pending message of a vertex.
    pub fn cached_message(&self, v: NodeId) -> Option<&Message> {
        let slot = &self.mailbox[v as usize];
        slot.pending.then_some(&slot.message)
    }

    /// Consumes the pending message of a vertex: from now on the slot reads
    /// empty to every reader.  Returns what was consumed, read in place —
    /// the slot keeps its buffers for the next message written into it.
    pub fn take_message(&mut self, v: NodeId) -> Option<&Message> {
        let slot = &mut self.mailbox[v as usize];
        std::mem::take(&mut slot.pending).then_some(&slot.message)
    }

    /// Store a new cached message for a vertex, replacing any previous one
    /// (the "Most-Recent" message aggregator of TGN).
    ///
    /// # Panics
    /// Panics if either memory row of the message is not `memory_dim` wide.
    pub fn store_message(&mut self, v: NodeId, message: Message) {
        assert!(
            message.self_memory.len() == self.memory_dim
                && message.other_memory.len() == self.memory_dim,
            "store_message: message width mismatch"
        );
        self.mailbox[v as usize] = Slot {
            pending: true,
            message,
        };
    }

    /// Builds the pair of raw messages generated by an interaction
    /// `(src, dst)` (Eq. 4–5) from the *current* memory snapshots, and
    /// writes them into the two vertices' mailbox slots in place.
    pub fn cache_interaction_messages(
        &mut self,
        src: NodeId,
        dst: NodeId,
        edge_id: EdgeId,
        event_time: Timestamp,
    ) {
        let (memory, mailbox) = (&self.memory, &mut self.mailbox);
        for (v, other) in [(src, dst), (dst, src)] {
            let (v, other) = (v as usize, other as usize);
            mailbox[v].write(memory.row(v), memory.row(other), edge_id, event_time);
        }
    }

    /// One half of [`Self::cache_interaction_messages`] for an interaction
    /// whose counterpart lives in another table (another shard of
    /// [`ShardedMemory`](crate::ShardedMemory)): writes the message `v`
    /// receives from a vertex whose memory is `other`.
    pub(crate) fn cache_message_from(
        &mut self,
        v: NodeId,
        other: &[Float],
        edge_id: EdgeId,
        event_time: Timestamp,
    ) {
        let v = v as usize;
        self.mailbox[v].write(self.memory.row(v), other, edge_id, event_time);
    }

    /// Number of vertices that currently have a pending cached message.
    pub fn pending_messages(&self) -> usize {
        self.mailbox.iter().filter(|m| m.pending).count()
    }

    /// Resets all state (memory, clocks, mailbox).
    pub fn reset(&mut self) {
        self.memory.as_mut_slice().fill(0.0);
        self.last_update.iter_mut().for_each(|t| *t = 0.0);
        self.mailbox.iter_mut().for_each(|m| m.pending = false);
    }

    /// External-memory footprint in bytes (memory table + mailbox), matching
    /// the paper's DDR sizing discussion.
    pub fn memory_bytes(&self, config: &ModelConfig, bytes_per_word: usize) -> usize {
        let memory_table = self.num_nodes() * self.memory_dim * bytes_per_word;
        let mailbox = self.num_nodes() * config.message_dim() * bytes_per_word;
        memory_table + mailbox
    }
}

/// The memory table a memory stage runs over
/// ([`run_memory_stage`](crate::stages::run_memory_stage)): a plain
/// [`NodeMemory`] in the engine, the per-shard locks of a
/// [`ShardedMemory`](crate::ShardedMemory) in the pipeline.
pub trait MemoryTable {
    /// Consumes `v`'s pending message, writing `s_v ‖ s_u` into `memories`
    /// and returning its edge and event time; `None`, with `memories`
    /// untouched, when the slot is empty.
    fn take_message_into(
        &mut self,
        v: NodeId,
        memories: &mut [Float],
    ) -> Option<(EdgeId, Timestamp)>;

    /// Timestamp of the last committed memory update of `v`.
    fn last_update(&self, v: NodeId) -> Timestamp;

    /// Copies `v`'s memory row into `dst`.
    fn copy_memory_into(&self, v: NodeId, dst: &mut [Float]);
}

impl MemoryTable for NodeMemory {
    fn take_message_into(
        &mut self,
        v: NodeId,
        memories: &mut [Float],
    ) -> Option<(EdgeId, Timestamp)> {
        let m = self.take_message(v)?;
        m.write_memories(memories);
        Some((m.edge_id, m.event_time))
    }

    fn last_update(&self, v: NodeId) -> Timestamp {
        NodeMemory::last_update(self, v)
    }

    fn copy_memory_into(&self, v: NodeId, dst: &mut [Float]) {
        dst.copy_from_slice(self.memory_of(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_assembly_concatenates_in_order() {
        let m = Message {
            self_memory: vec![1.0, 2.0],
            other_memory: vec![3.0],
            edge_id: 7,
            event_time: 9.0,
        };
        assert_eq!(
            m.assemble(&[4.0, 5.0], &[6.0]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut mem = NodeMemory::new(3, 4);
        assert_eq!(mem.num_nodes(), 3);
        assert_eq!(mem.memory_of(1), &[0.0; 4]);
        mem.set_memory(1, &[1.0, 2.0, 3.0, 4.0], 5.0);
        assert_eq!(mem.memory_of(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mem.last_update(1), 5.0);
        assert_eq!(mem.last_update(0), 0.0);
        let batch = mem.gather(&[1, 0, 1]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(batch.row(1), &[0.0; 4]);
    }

    #[test]
    fn mailbox_keeps_only_most_recent_message() {
        let mut mem = NodeMemory::new(2, 2);
        mem.store_message(
            0,
            Message {
                self_memory: vec![0.0; 2],
                other_memory: vec![0.0; 2],
                edge_id: 0,
                event_time: 1.0,
            },
        );
        mem.store_message(
            0,
            Message {
                self_memory: vec![1.0; 2],
                other_memory: vec![1.0; 2],
                edge_id: 1,
                event_time: 2.0,
            },
        );
        assert_eq!(mem.pending_messages(), 1);
        let taken = mem.take_message(0).unwrap();
        assert_eq!(taken.event_time, 2.0);
        assert!(mem.take_message(0).is_none());
    }

    #[test]
    fn cache_interaction_creates_symmetric_messages() {
        let mut mem = NodeMemory::new(4, 2);
        mem.set_memory(1, &[1.0, 1.0], 0.0);
        mem.set_memory(2, &[2.0, 2.0], 0.0);
        mem.cache_interaction_messages(1, 2, 5, 3.0);
        let m1 = mem.cached_message(1).unwrap();
        let m2 = mem.cached_message(2).unwrap();
        assert_eq!(m1.self_memory, vec![1.0, 1.0]);
        assert_eq!(m1.other_memory, vec![2.0, 2.0]);
        assert_eq!(m2.self_memory, vec![2.0, 2.0]);
        assert_eq!(m2.other_memory, vec![1.0, 1.0]);
        assert_eq!((m1.edge_id, m2.edge_id), (5, 5));
        assert_eq!(m1.event_time, 3.0);
        assert_eq!(mem.pending_messages(), 2);
    }

    #[test]
    fn consumed_slots_read_empty_and_rewrites_reuse_their_buffers() {
        let mut mem = NodeMemory::new(3, 2);
        mem.set_memory(0, &[1.0, 2.0], 0.0);
        mem.set_memory(1, &[3.0, 4.0], 0.0);
        mem.cache_interaction_messages(0, 1, 0, 1.0);
        let buffers = |mem: &NodeMemory| {
            let m = &mem.mailbox[0].message;
            [&m.self_memory, &m.other_memory].map(|b| b.as_ptr())
        };
        let first = buffers(&mem);

        let taken = mem.take_message(0).unwrap().clone();
        assert_eq!(taken.other_memory, vec![3.0, 4.0]);
        assert!(mem.cached_message(0).is_none());
        assert!(mem.take_message(0).is_none());
        assert_eq!(mem.pending_messages(), 1);

        // A write into the consumed slot, then one replacing a pending
        // message: both in place.
        mem.set_memory(1, &[5.0, 6.0], 1.0);
        mem.cache_interaction_messages(1, 0, 1, 2.0);
        mem.cache_interaction_messages(0, 2, 2, 3.0);
        assert_eq!(buffers(&mem), first);
        let m = mem.cached_message(0).unwrap();
        assert_eq!(
            (m.other_memory.as_slice(), m.edge_id, m.event_time),
            (&[0.0, 0.0][..], 2, 3.0)
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut mem = NodeMemory::new(2, 2);
        mem.set_memory(0, &[1.0, 1.0], 2.0);
        mem.cache_interaction_messages(0, 1, 0, 2.0);
        mem.reset();
        assert_eq!(mem.memory_of(0), &[0.0, 0.0]);
        assert_eq!(mem.last_update(0), 0.0);
        assert_eq!(mem.pending_messages(), 0);
    }

    #[test]
    fn memory_bytes_accounting() {
        let cfg = ModelConfig::tiny(0, 4);
        let mem = NodeMemory::for_config(10, &cfg);
        let expected = 10 * cfg.memory_dim * 4 + 10 * cfg.message_dim() * 4;
        assert_eq!(mem.memory_bytes(&cfg, 4), expected);
    }
}
