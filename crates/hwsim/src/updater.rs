//! The Updater: a fully-associative cache with rotating pointers (Fig. 3).
//!
//! Its jobs (Section IV-B): receive updated vertex information from the CUs
//! in round-robin order, write it back to external memory, guarantee the
//! chronological order of the committed updates, and eliminate redundant
//! writes (an uncommitted cache line for the same vertex is invalidated when
//! a newer update arrives).
//!
//! The simulation here is functional + cycle-counting: it reproduces the
//! commit order and the redundant-write elimination, and reports how many
//! cache lines the commit pointer scanned and how many external writes were
//! issued, which the pipeline model converts into time.

use serde::{Deserialize, Serialize};
use tgnn_graph::NodeId;

/// One cache line of the Updater.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CacheLine {
    valid: bool,
    vertex: NodeId,
    /// Timestamp carried with the update (used only for verification).
    timestamp: f64,
}

/// Statistics of an Updater run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdaterStats {
    /// Updates received from the CUs.
    pub received: usize,
    /// Lines actually written back to external memory.
    pub committed: usize,
    /// Updates squashed by redundant-write elimination.
    pub invalidated: usize,
    /// Cycles spent scanning by the commit pointer.
    pub scan_cycles: u64,
}

/// Fully-associative cache with one write pointer per CU and a rotating
/// commit pointer.
#[derive(Clone, Debug)]
pub struct Updater {
    lines: Vec<CacheLine>,
    write_pointers: Vec<usize>,
    commit_pointer: usize,
    /// How many consecutive lines the commit pointer scans per cycle
    /// (3 in the paper's implementation).
    scan_width: usize,
    redundant_write_elimination: bool,
    stats: UpdaterStats,
    /// Committed (vertex, timestamp) pairs in commit order, for verification.
    commit_order: Vec<(NodeId, f64)>,
}

impl Updater {
    /// Creates an Updater with `capacity` cache lines serving `num_cu`
    /// computation units.
    ///
    /// # Panics
    /// Panics if the capacity is smaller than the number of CUs or zero.
    pub fn new(
        capacity: usize,
        num_cu: usize,
        scan_width: usize,
        redundant_write_elimination: bool,
    ) -> Self {
        assert!(
            num_cu > 0 && capacity >= num_cu,
            "Updater: capacity must cover all CUs"
        );
        assert!(scan_width > 0, "Updater: scan width must be positive");
        Self {
            lines: vec![
                CacheLine {
                    valid: false,
                    vertex: 0,
                    timestamp: 0.0,
                };
                capacity
            ],
            // Write pointers start staggered so concurrent CU writes land on
            // distinct lines; the relative order of the pointers encodes the
            // chronological order of the round-robin-assigned edges.
            write_pointers: (0..num_cu).collect(),
            commit_pointer: 0,
            scan_width,
            redundant_write_elimination,
            stats: UpdaterStats::default(),
            commit_order: Vec::new(),
        }
    }

    /// Number of cache lines.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> UpdaterStats {
        self.stats
    }

    /// The committed (vertex, timestamp) sequence.
    pub fn commit_order(&self) -> &[(NodeId, f64)] {
        &self.commit_order
    }

    /// A CU pushes an updated vertex into the cache.
    ///
    /// If redundant-write elimination is enabled and an uncommitted line for
    /// the same vertex exists, that older line is invalidated (its write will
    /// never reach external memory).
    pub fn receive(&mut self, cu: usize, vertex: NodeId, timestamp: f64) {
        assert!(cu < self.write_pointers.len(), "Updater: unknown CU index");
        self.stats.received += 1;

        if self.redundant_write_elimination {
            for line in &mut self.lines {
                if line.valid && line.vertex == vertex {
                    line.valid = false;
                    self.stats.invalidated += 1;
                }
            }
        }

        // Place at this CU's write pointer, then advance it by the number of
        // CUs (so pointers stay interleaved, preserving round-robin order).
        let pos = self.write_pointers[cu] % self.lines.len();
        // If the slot is still valid (cache full), force-commit it first.
        if self.lines[pos].valid {
            self.commit_line(pos);
        }
        self.lines[pos] = CacheLine {
            valid: true,
            vertex,
            timestamp,
        };
        self.write_pointers[cu] += self.write_pointers.len();
    }

    /// Advances the commit pointer by one scan step (up to `scan_width`
    /// consecutive lines), committing any valid lines found.  Returns the
    /// number of lines committed this cycle.
    pub fn commit_cycle(&mut self) -> usize {
        self.stats.scan_cycles += 1;
        let mut committed = 0;
        for _ in 0..self.scan_width {
            let pos = self.commit_pointer % self.lines.len();
            if self.lines[pos].valid {
                self.commit_line(pos);
                committed += 1;
            }
            self.commit_pointer += 1;
        }
        committed
    }

    /// Drains the entire cache, committing everything that is still valid.
    /// Returns the number of scan cycles it took.
    pub fn drain(&mut self) -> u64 {
        let start = self.stats.scan_cycles;
        let mut remaining: usize = self.lines.iter().filter(|l| l.valid).count();
        while remaining > 0 {
            remaining -= self.commit_cycle();
        }
        self.stats.scan_cycles - start
    }

    fn commit_line(&mut self, pos: usize) {
        let line = &mut self.lines[pos];
        line.valid = false;
        self.stats.committed += 1;
        self.commit_order.push((line.vertex, line.timestamp));
    }

    /// Verifies that for every vertex the committed timestamps are
    /// non-decreasing — the chronological-update guarantee.
    pub fn verify_chronological(&self) -> bool {
        use std::collections::HashMap;
        let mut last: HashMap<NodeId, f64> = HashMap::new();
        for &(v, t) in &self.commit_order {
            if let Some(&prev) = last.get(&v) {
                if t < prev {
                    return false;
                }
            }
            last.insert(v, t);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_everything_without_duplicates_when_vertices_distinct() {
        let mut upd = Updater::new(16, 2, 3, true);
        for i in 0..10u32 {
            upd.receive((i % 2) as usize, i, i as f64);
        }
        upd.drain();
        let stats = upd.stats();
        assert_eq!(stats.received, 10);
        assert_eq!(stats.committed, 10);
        assert_eq!(stats.invalidated, 0);
        assert!(upd.verify_chronological());
    }

    #[test]
    fn redundant_writes_are_eliminated() {
        let mut upd = Updater::new(16, 2, 3, true);
        // The same vertex is updated 5 times before any commit: only the
        // newest version should reach external memory.
        for i in 0..5 {
            upd.receive(i % 2, 7, i as f64);
        }
        upd.drain();
        let stats = upd.stats();
        assert_eq!(stats.received, 5);
        assert_eq!(stats.invalidated, 4);
        assert_eq!(stats.committed, 1);
        assert_eq!(upd.commit_order()[0], (7, 4.0));
    }

    #[test]
    fn without_elimination_every_write_commits() {
        let mut upd = Updater::new(16, 1, 3, false);
        for i in 0..5 {
            upd.receive(0, 7, i as f64);
        }
        upd.drain();
        assert_eq!(upd.stats().committed, 5);
        assert_eq!(upd.stats().invalidated, 0);
        assert!(upd.verify_chronological());
    }

    #[test]
    fn chronological_order_is_preserved_across_cus() {
        // Edges are assigned to CUs round-robin; the updater receives them in
        // that order and must commit per-vertex updates chronologically.
        let mut upd = Updater::new(8, 2, 3, true);
        let updates = [
            (0usize, 1u32, 1.0),
            (1usize, 2u32, 1.5),
            (0usize, 1u32, 2.0),
            (1usize, 3u32, 2.5),
            (0usize, 2u32, 3.0),
        ];
        for &(cu, v, t) in &updates {
            upd.receive(cu, v, t);
        }
        upd.drain();
        assert!(upd.verify_chronological());
    }

    #[test]
    fn full_cache_forces_commit_instead_of_dropping() {
        let mut upd = Updater::new(2, 1, 1, true);
        for i in 0..6u32 {
            upd.receive(0, i, i as f64);
        }
        upd.drain();
        assert_eq!(upd.stats().committed, 6);
        assert!(upd.verify_chronological());
    }

    #[test]
    fn scan_cycles_scale_with_capacity_over_width() {
        let mut upd = Updater::new(30, 1, 3, true);
        for i in 0..30u32 {
            upd.receive(0, i, i as f64);
        }
        let cycles = upd.drain();
        // 30 valid lines scanned 3 per cycle → at least 10 cycles.
        assert!(cycles >= 10);
    }

    #[test]
    #[should_panic(expected = "capacity must cover")]
    fn rejects_capacity_smaller_than_cus() {
        let _ = Updater::new(1, 2, 3, true);
    }
}
