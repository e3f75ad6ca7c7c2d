//! The Vertex Neighbor Table: per-vertex FIFO of the most recent `mr`
//! neighbors.
//!
//! The paper replaces the software temporal sampler with "an on-chip FIFO
//! based hardware sampler": each vertex keeps only its `mr` most recent
//! temporal neighbors (neighbor index, edge index, timestamp), appended as
//! new edges arrive and evicting the oldest entry when full (Section IV-A,
//! "Vertex Neighbor Table", and line 12–14 of Algorithm 1).  Sampling the
//! supporting temporal neighbors of a vertex then degenerates to reading this
//! small fixed-size table.

use crate::{EdgeId, NodeId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One row of a vertex's neighbor list.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor vertex.
    pub neighbor: NodeId,
    /// The interaction edge that created this entry.
    pub edge_id: EdgeId,
    /// Timestamp of that interaction.
    pub timestamp: Timestamp,
}

/// Most-recent-`mr` neighbor table for every vertex.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NeighborTable {
    capacity: usize,
    entries: Vec<VecDeque<NeighborEntry>>,
}

impl NeighborTable {
    /// Creates an empty table for `num_nodes` vertices, keeping at most
    /// `capacity` (= `mr`) neighbors per vertex.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(num_nodes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "NeighborTable: capacity must be positive");
        Self {
            capacity,
            entries: vec![VecDeque::with_capacity(capacity); num_nodes],
        }
    }

    /// A table over already-filled FIFOs, one per vertex, oldest entry
    /// first — how a snapshot decoder rebuilds one.  Unlike [`Self::new`] it
    /// reserves nothing beyond what the entries occupy, so an untrusted
    /// `capacity` costs no memory.  Fails if `capacity` is zero or a FIFO
    /// holds more than `capacity` entries.  Timestamp order is not checked:
    /// [`Self::push`] never enforces it, and a live server whose tenants
    /// share a vertex may interleave their streams into one FIFO.
    pub fn from_fifos(
        capacity: usize,
        entries: Vec<VecDeque<NeighborEntry>>,
    ) -> Result<Self, String> {
        if capacity == 0 {
            return Err("capacity must be positive".into());
        }
        if let Some(v) = entries.iter().position(|q| q.len() > capacity) {
            return Err(format!("vertex {v} exceeds capacity"));
        }
        Ok(Self { capacity, entries })
    }

    /// The per-vertex capacity `mr`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of vertices tracked.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// Records a new interaction `src —(edge, t)— dst`, updating both
    /// endpoints' neighbor lists (lines 12–14 of Algorithm 1:
    /// `UpdateNeighbor(N(u), v)` and `UpdateNeighbor(N(v), u)`).
    pub fn record_interaction(
        &mut self,
        src: NodeId,
        dst: NodeId,
        edge_id: EdgeId,
        timestamp: Timestamp,
    ) {
        self.push(
            src,
            NeighborEntry {
                neighbor: dst,
                edge_id,
                timestamp,
            },
        );
        self.push(
            dst,
            NeighborEntry {
                neighbor: src,
                edge_id,
                timestamp,
            },
        );
    }

    /// Appends one entry to a single vertex's FIFO, evicting the oldest if
    /// the vertex is already at capacity.
    pub fn push(&mut self, v: NodeId, entry: NeighborEntry) {
        let q = &mut self.entries[v as usize];
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// The stored neighbors of `v`, oldest first.  At most `capacity`
    /// entries.
    pub fn neighbors(&self, v: NodeId) -> Vec<NeighborEntry> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.neighbors_into(v, &mut out);
        out
    }

    /// Appends the stored neighbors of `v` (oldest first) to `out` without
    /// allocating — the hot-path variant of [`Self::neighbors`].
    pub fn neighbors_into(&self, v: NodeId, out: &mut Vec<NeighborEntry>) {
        out.extend(self.entries[v as usize].iter().copied());
    }

    /// The `k` most recent neighbors of `v`, most recent first.
    pub fn most_recent(&self, v: NodeId, k: usize) -> Vec<NeighborEntry> {
        let mut out = Vec::with_capacity(k.min(self.degree(v)));
        self.most_recent_into(v, k, &mut out);
        out
    }

    /// Appends the `k` most recent neighbors of `v` (most recent first) to
    /// `out` without allocating — the hot-path variant of
    /// [`Self::most_recent`].
    pub fn most_recent_into(&self, v: NodeId, k: usize, out: &mut Vec<NeighborEntry>) {
        out.extend(self.iter_recent(v).take(k).copied());
    }

    /// Iterates the stored neighbors of `v`, most recent first, borrowing the
    /// FIFO storage directly (no per-call `Vec`).
    pub fn iter_recent(&self, v: NodeId) -> impl Iterator<Item = &NeighborEntry> {
        self.entries[v as usize].iter().rev()
    }

    /// Current number of stored neighbors for `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.entries[v as usize].len()
    }

    /// Timestamp of the most recent neighbor of `v`, if any.
    pub fn last_interaction_time(&self, v: NodeId) -> Option<Timestamp> {
        self.entries[v as usize].back().map(|e| e.timestamp)
    }

    /// Clears all entries (used when replaying a trace from the start).
    pub fn reset(&mut self) {
        for q in &mut self.entries {
            q.clear();
        }
    }

    /// Checks the internal invariant that every vertex's FIFO is
    /// chronologically ordered and within capacity.  Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (v, q) in self.entries.iter().enumerate() {
            if q.len() > self.capacity {
                return Err(format!("vertex {v} exceeds capacity"));
            }
            let mut prev = f64::NEG_INFINITY;
            for e in q {
                if e.timestamp < prev {
                    return Err(format!("vertex {v} has out-of-order neighbor timestamps"));
                }
                prev = e.timestamp;
            }
        }
        Ok(())
    }

    /// Approximate external-memory footprint in bytes of the table given a
    /// data word size, matching the paper's accounting of the Vertex
    /// Neighbor Table stored in DDR (each entry holds a neighbor index, an
    /// edge index, and a timestamp).
    pub fn memory_bytes(&self, bytes_per_word: usize) -> usize {
        self.num_nodes() * self.capacity * 3 * bytes_per_word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest_when_full() {
        let mut t = NeighborTable::new(2, 3);
        for i in 0..5u32 {
            t.push(
                0,
                NeighborEntry {
                    neighbor: i,
                    edge_id: i,
                    timestamp: i as f64,
                },
            );
        }
        let n = t.neighbors(0);
        assert_eq!(n.len(), 3);
        assert_eq!(n[0].neighbor, 2);
        assert_eq!(n[2].neighbor, 4);
        assert_eq!(t.degree(0), 3);
        assert_eq!(t.degree(1), 0);
    }

    #[test]
    fn record_interaction_updates_both_endpoints() {
        let mut t = NeighborTable::new(4, 10);
        t.record_interaction(1, 3, 7, 2.5);
        assert_eq!(t.neighbors(1)[0].neighbor, 3);
        assert_eq!(t.neighbors(3)[0].neighbor, 1);
        assert_eq!(t.neighbors(3)[0].edge_id, 7);
        assert_eq!(t.last_interaction_time(1), Some(2.5));
        assert_eq!(t.last_interaction_time(0), None);
    }

    #[test]
    fn most_recent_returns_reverse_chronological() {
        let mut t = NeighborTable::new(1, 10);
        for i in 0..6u32 {
            t.push(
                0,
                NeighborEntry {
                    neighbor: i,
                    edge_id: i,
                    timestamp: i as f64,
                },
            );
        }
        let recent = t.most_recent(0, 3);
        let ids: Vec<u32> = recent.iter().map(|e| e.neighbor).collect();
        assert_eq!(ids, vec![5, 4, 3]);
        // Asking for more than stored returns everything.
        assert_eq!(t.most_recent(0, 100).len(), 6);
    }

    #[test]
    fn into_variants_match_allocating_reads() {
        let mut t = NeighborTable::new(3, 4);
        for i in 0..9u32 {
            t.record_interaction(i % 3, (i + 1) % 3, i, i as f64);
        }
        let mut buf = Vec::new();
        for v in 0..3u32 {
            buf.clear();
            t.neighbors_into(v, &mut buf);
            assert_eq!(buf, t.neighbors(v));
            buf.clear();
            t.most_recent_into(v, 2, &mut buf);
            assert_eq!(buf, t.most_recent(v, 2));
            let recent: Vec<NeighborEntry> = t.iter_recent(v).copied().collect();
            let mut oldest_first = t.neighbors(v);
            oldest_first.reverse();
            assert_eq!(recent, oldest_first);
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = NeighborTable::new(2, 4);
        t.record_interaction(0, 1, 0, 1.0);
        t.reset();
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(1), 0);
    }

    #[test]
    fn invariants_hold_after_random_usage() {
        let mut t = NeighborTable::new(8, 5);
        for i in 0..100u32 {
            t.record_interaction(i % 8, (i * 3 + 1) % 8, i, i as f64 * 0.5);
        }
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn memory_accounting() {
        let t = NeighborTable::new(100, 10);
        assert_eq!(t.memory_bytes(4), 100 * 10 * 3 * 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = NeighborTable::new(1, 0);
    }
}
