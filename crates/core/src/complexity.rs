//! Operation accounting: multiply-accumulates (MACs) and external-memory
//! accesses (MEMs) per inference stage — the quantities reported in Table I
//! and Table II of the paper.
//!
//! MEMs are counted in data words (one word = one feature element) read from
//! or written to the external vertex tables (memory, mailbox, neighbor table,
//! node/edge features).  Learnable parameters are assumed to be resident
//! on-chip, as in the paper's accounting.
//!
//! There is one formula, [`StageOps::of`], and it prices a [`BatchWorkload`]
//! — edges, memory updates, embeddings, neighbors scored and fetched.  The
//! inference engine records the workload it actually ran
//! (`InferenceEngine::workload`) and its `ops()` are that workload priced;
//! the closed-form per-embedding figures of Tables I–II
//! ([`per_embedding_ops`]) price the nominal workload of one edge
//! ([`BatchWorkload::nominal`]).  `hwsim` times the same workloads.
//!
//! The GNN MACs count the paper's per-neighbor (FPGA) order — every sampled
//! or kept neighbor row projected through `W_k` / `W_v`, then scored and
//! summed — not the order the CPU forwards run, which aggregate the rows
//! first and project once per target vertex (`ARCHITECTURE.md`, *one
//! aggregation rule*).  The counts model the accelerator.

use crate::config::{AttentionKind, ModelConfig, TimeEncoderKind};
use crate::profiling::Stage;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Sub};

/// MAC and MEM counts for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// External-memory accesses, in data words.
    pub mems: u64,
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            macs: self.macs + rhs.macs,
            mems: self.mems + rhs.mems,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        self.macs += rhs.macs;
        self.mems += rhs.mems;
    }
}

/// Per-stage operation counts (sample / memory / GNN / update), the rows of
/// Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageOps {
    pub sample: OpCounts,
    pub memory: OpCounts,
    pub gnn: OpCounts,
    pub update: OpCounts,
}

impl StageOps {
    /// Totals across the four stages.
    pub fn total(&self) -> OpCounts {
        self.sample + self.memory + self.gnn + self.update
    }

    /// Mutable access to one stage's counter.
    pub fn stage_mut(&mut self, stage: Stage) -> &mut OpCounts {
        match stage {
            Stage::Sample => &mut self.sample,
            Stage::Memory => &mut self.memory,
            Stage::Gnn => &mut self.gnn,
            Stage::Update => &mut self.update,
        }
    }

    /// Read access to one stage's counter.
    pub fn stage(&self, stage: Stage) -> OpCounts {
        match stage {
            Stage::Sample => self.sample,
            Stage::Memory => self.memory,
            Stage::Gnn => self.gnn,
            Stage::Update => self.update,
        }
    }
}

impl Add for StageOps {
    type Output = StageOps;
    fn add(self, rhs: StageOps) -> StageOps {
        StageOps {
            sample: self.sample + rhs.sample,
            memory: self.memory + rhs.memory,
            gnn: self.gnn + rhs.gnn,
            update: self.update + rhs.update,
        }
    }
}

impl AddAssign for StageOps {
    fn add_assign(&mut self, rhs: StageOps) {
        *self = *self + rhs;
    }
}

impl Div<u64> for OpCounts {
    type Output = OpCounts;
    fn div(self, rhs: u64) -> OpCounts {
        OpCounts {
            macs: self.macs / rhs,
            mems: self.mems / rhs,
        }
    }
}

impl Div<u64> for StageOps {
    type Output = StageOps;
    fn div(self, rhs: u64) -> StageOps {
        StageOps {
            sample: self.sample / rhs,
            memory: self.memory / rhs,
            gnn: self.gnn / rhs,
            update: self.update / rhs,
        }
    }
}

/// The workload of one processing batch, or of a whole stream: what the
/// engine did, counted where it did it — the quantity both the operation
/// counts ([`StageOps::of`]) and the accelerator's timing model price.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchWorkload {
    /// Edges in the processing batch.
    pub edges: usize,
    /// Vertices whose memory is updated (had a pending message).
    pub memory_updates: usize,
    /// Vertices for which embeddings are produced.
    pub embeddings: usize,
    /// Total neighbor-feature fetches (after pruning).
    pub neighbors_fetched: usize,
    /// Total candidate neighbors scored (before pruning).
    pub neighbors_scored: usize,
}

impl BatchWorkload {
    /// The nominal workload of `edges` edges: each edge updates and embeds
    /// its two endpoints, and every embedding scores `k` sampled neighbors
    /// and fetches `k` of them (vanilla attention) or the pruning budget
    /// (simplified attention, which scores before it fetches).  A real
    /// stream does less: vertices repeat within a batch and young vertices
    /// have fewer than `k` neighbors.
    pub fn nominal(config: &ModelConfig, edges: usize) -> Self {
        let endpoints = 2 * edges;
        let fetched = match config.attention {
            AttentionKind::Vanilla => config.sampled_neighbors,
            AttentionKind::Simplified => config.neighbor_budget,
        };
        Self {
            edges,
            memory_updates: endpoints,
            embeddings: endpoints,
            neighbors_fetched: endpoints * fetched,
            neighbors_scored: endpoints * config.sampled_neighbors,
        }
    }
}

impl Sub for BatchWorkload {
    type Output = BatchWorkload;
    fn sub(self, rhs: BatchWorkload) -> BatchWorkload {
        BatchWorkload {
            edges: self.edges - rhs.edges,
            memory_updates: self.memory_updates - rhs.memory_updates,
            embeddings: self.embeddings - rhs.embeddings,
            neighbors_fetched: self.neighbors_fetched - rhs.neighbors_fetched,
            neighbors_scored: self.neighbors_scored - rhs.neighbors_scored,
        }
    }
}

impl StageOps {
    /// The operation counts of a workload — the one MAC/MEM formula.  The
    /// engine's counters, the per-embedding figures of Tables I–II and the
    /// nominal workloads all go through it.
    pub fn of(config: &ModelConfig, w: &BatchWorkload) -> StageOps {
        let mem = config.memory_dim as u64;
        let time = config.time_dim as u64;
        let efeat = config.edge_feature_dim as u64;
        let nfeat = config.node_feature_dim as u64;
        let msg = config.message_dim() as u64;
        let k = config.sampled_neighbors as u64;
        let nbr_in = config.neighbor_input_dim() as u64;
        let q_in = config.query_input_dim() as u64;
        let emb = config.embedding_dim as u64;
        let edges = w.edges as u64;
        let updates = w.memory_updates as u64;
        let embeddings = w.embeddings as u64;
        let fetched = w.neighbors_fetched as u64;
        let scored = w.neighbors_scored as u64;
        let time_macs = |encodings: u64| match config.time_encoder {
            TimeEncoderKind::Cos => 2 * time * encodings,
            TimeEncoderKind::Lut => 0,
        };

        let mut ops = StageOps::default();

        // --- sample: read the neighbor table (index, edge id, timestamp per
        // neighbor slot); no arithmetic.
        ops.sample.mems = 3 * scored;

        // --- memory: read the cached message + own memory, run the time
        // encoder for the message Δt, and the GRU (three input-side and three
        // hidden-side projections).
        ops.memory.mems = updates * (msg + mem);
        ops.memory.macs = time_macs(updates) + updates * (3 * msg * mem + 3 * mem * mem);

        // --- GNN: read the fetched neighbors' memories + edge features (+
        // each vertex's node feature), encode their Δt, run the attention
        // aggregator and the output feature transformation.
        ops.gnn.mems = fetched * (mem + efeat) + embeddings * nfeat;
        let attention_macs = match config.attention {
            // q, K, V projections + score dot products + weighted sum: every
            // sampled neighbor is fetched before its score is known.
            AttentionKind::Vanilla => {
                embeddings * q_in * mem + 2 * scored * nbr_in * mem + 2 * scored * mem
            }
            // W_t·Δt + value projections of the pruned set + weighted sum.
            AttentionKind::Simplified => {
                embeddings * k * k + fetched * nbr_in * mem + fetched * mem
            }
        };
        // Node-feature projection (W_s) + output transformation (FTM).
        let projection_macs = embeddings * nfeat * mem;
        let ftm_macs = embeddings * (mem + mem) * emb;
        ops.gnn.macs = time_macs(fetched) + attention_macs + projection_macs + ftm_macs;

        // --- update: write back the new memories; per edge, cache the two
        // new messages and append to both endpoints' neighbor tables.
        ops.update.mems = updates * mem + edges * (2 * msg + 6);

        ops
    }
}

/// Analytical per-embedding operation counts for a model configuration —
/// the figures of Table I/II: [`StageOps::of`] on one nominal edge, which
/// embeds two vertices.
pub fn per_embedding_ops(config: &ModelConfig) -> StageOps {
    StageOps::of(config, &BatchWorkload::nominal(config, 1)) / 2
}

/// Computation-reduction factor of a configuration relative to a baseline
/// (1.0 = no reduction).  Used to report the "84% computation reduction"
/// headline number.
pub fn mac_reduction(baseline: &StageOps, optimized: &StageOps) -> f64 {
    let base = baseline.total().macs as f64;
    if base == 0.0 {
        return 0.0;
    }
    1.0 - optimized.total().macs as f64 / base
}

/// Memory-access-reduction factor relative to a baseline.
pub fn mem_reduction(baseline: &StageOps, optimized: &StageOps) -> f64 {
    let base = baseline.total().mems as f64;
    if base == 0.0 {
        return 0.0;
    }
    1.0 - optimized.total().mems as f64 / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, OptimizationVariant};

    fn wiki_config(variant: OptimizationVariant) -> ModelConfig {
        ModelConfig::paper_default(0, 172).with_variant(variant)
    }

    #[test]
    fn gnn_dominates_baseline_compute_as_in_table_i() {
        let ops = per_embedding_ops(&wiki_config(OptimizationVariant::Baseline));
        let total = ops.total();
        assert!(total.macs > 0);
        // Table I: the GNN stage dominates the MACs and the memory stage
        // dominates the MEMs.  (The paper reports ~94% of MACs in the GNN
        // stage; our GRU is slightly heavier because the full concatenated
        // message is fed to every gate, so we assert a looser bound.)
        assert!(ops.gnn.macs as f64 > 0.75 * total.macs as f64);
        // Vertex-data traffic (messages/memory in the memory stage plus the
        // neighbor memory/edge-feature fetches in the GNN stage) dominates
        // the external-memory accesses.
        assert!((ops.memory.mems + ops.gnn.mems) as f64 > 0.8 * total.mems as f64);
        assert_eq!(ops.sample.macs, 0);
        assert_eq!(ops.update.macs, 0);
    }

    #[test]
    fn sat_halves_gnn_compute() {
        let base = per_embedding_ops(&wiki_config(OptimizationVariant::Baseline));
        let sat = per_embedding_ops(&wiki_config(OptimizationVariant::Sat));
        let ratio = sat.total().macs as f64 / base.total().macs as f64;
        // Table II: +SAT leaves ~53% of the baseline computation.
        assert!(ratio > 0.35 && ratio < 0.70, "SAT ratio {ratio}");
        // Memory accesses unchanged at this rung (neighbors still all fetched).
        assert_eq!(sat.total().mems, base.total().mems);
    }

    #[test]
    fn pruning_reduces_compute_and_memory_linearly() {
        let full = per_embedding_ops(&wiki_config(OptimizationVariant::SatLut));
        let np_l = per_embedding_ops(&wiki_config(OptimizationVariant::NpLarge));
        let np_m = per_embedding_ops(&wiki_config(OptimizationVariant::NpMedium));
        let np_s = per_embedding_ops(&wiki_config(OptimizationVariant::NpSmall));
        assert!(np_l.total().macs > np_m.total().macs);
        assert!(np_m.total().macs > np_s.total().macs);
        assert!(np_l.total().mems > np_m.total().mems);
        assert!(np_m.total().mems > np_s.total().mems);
        // Near-linear reduction in the GNN-stage memory accesses with the
        // number of kept neighbors (6/4/2 out of 10).
        let per_neighbor_mem = (full.gnn.mems - np_s.gnn.mems) as f64 / 8.0;
        let expected_np_m = full.gnn.mems as f64 - 6.0 * per_neighbor_mem;
        let actual = np_m.gnn.mems as f64;
        assert!((actual - expected_np_m).abs() / expected_np_m < 0.05);
    }

    #[test]
    fn headline_reductions_match_paper_shape() {
        // The paper reports 84% computation reduction and 67% memory-access
        // reduction for the most aggressive model (NP(S)) vs the baseline.
        let base = per_embedding_ops(&wiki_config(OptimizationVariant::Baseline));
        let np_s = per_embedding_ops(&wiki_config(OptimizationVariant::NpSmall));
        let mac_red = mac_reduction(&base, &np_s);
        let mem_red = mem_reduction(&base, &np_s);
        assert!(mac_red > 0.70, "MAC reduction only {mac_red:.2}");
        assert!(mem_red > 0.40, "MEM reduction only {mem_red:.2}");
        assert!(mac_red < 0.98 && mem_red < 0.98);
    }

    #[test]
    fn lut_removes_time_encoder_macs() {
        let sat = per_embedding_ops(&wiki_config(OptimizationVariant::Sat));
        let lut = per_embedding_ops(&wiki_config(OptimizationVariant::SatLut));
        assert!(lut.total().macs < sat.total().macs);
        assert_eq!(lut.total().mems, sat.total().mems);
    }

    #[test]
    fn halving_one_nominal_edge_is_exact() {
        // Every term of one edge's count covers both endpoints alike, so
        // `per_embedding_ops` loses nothing to the division.
        for shape in [(0, 172), (200, 0), (100, 16)] {
            for variant in OptimizationVariant::ladder() {
                let cfg = ModelConfig::paper_default(shape.0, shape.1).with_variant(variant);
                let edge = StageOps::of(&cfg, &BatchWorkload::nominal(&cfg, 1));
                assert_eq!(per_embedding_ops(&cfg) + per_embedding_ops(&cfg), edge);
            }
        }
    }

    #[test]
    fn stage_ops_arithmetic() {
        let mut a = StageOps::default();
        a.stage_mut(Stage::Gnn).macs = 10;
        a.stage_mut(Stage::Sample).mems = 3;
        let b = a;
        let sum = a + b;
        assert_eq!(sum.gnn.macs, 20);
        assert_eq!(sum.stage(Stage::Sample).mems, 6);
        assert_eq!(sum.total().macs, 20);
        let mut c = a;
        c += b;
        assert_eq!(c, sum);
    }
}
