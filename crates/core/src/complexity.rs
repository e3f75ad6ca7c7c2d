//! Operation accounting: multiply-accumulates (MACs) and external-memory
//! accesses (MEMs) per inference stage — the quantities reported in Table I
//! and Table II of the paper, and the work the accelerator model times.
//!
//! MEMs are counted in data words (one word = one feature element) read from
//! or written to the external vertex tables (memory, mailbox, neighbor table,
//! node/edge features).  Learnable parameters are assumed to be resident
//! on-chip, as in the paper's accounting.
//!
//! This module is the only place that counts work.  [`StageTerms::of`]
//! prices a [`BatchWorkload`] — edges, memory updates, embeddings, neighbors
//! scored and fetched — as one [`Term`] (MACs, words, and an item count
//! where a stage is charged per item) per stage of the accelerator's
//! nine-stage schedule.  [`StageOps::of`] groups those terms into Table I's
//! four stages; `hwsim`'s pipeline model divides them by a design's
//! parallelism, clock and DDR bandwidth, and adds no count of its own.  The
//! inference engine records the workload it actually ran
//! (`InferenceEngine::workload`), a served GNN job the workload of its batch
//! (`GnnJobBatch::workload`); the closed-form per-embedding figures of
//! Tables I–II ([`per_embedding_ops`]) price the nominal workload of one
//! edge ([`BatchWorkload::nominal`]).
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

/// One term of a workload's work: what one stage of the accelerator's
/// schedule computes and moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Term {
    /// Multiply-accumulates.
    pub macs: u64,
    /// External-memory accesses, in data words.
    pub words: u64,
    /// Width in words of the rows the term moves — its DDR burst (0 where
    /// it moves nothing).
    pub row: u64,
    /// Work charged item by item rather than per MAC: the time encoder's
    /// table reads (one per Δt under `Lut`) or cosine elements (`time_dim`
    /// per Δt under `Cos`); 0 for every other term.
    pub items: u64,
}

/// Two terms one stage carries together: counts add, and the stage moves
/// rows as wide as the wider term's.
impl Add for Term {
    type Output = Term;
    fn add(self, rhs: Term) -> Term {
        Term {
            macs: self.macs + rhs.macs,
            words: self.words + rhs.words,
            row: self.row.max(rhs.row),
            items: self.items + rhs.items,
        }
    }
}

/// A workload's work term by term, in the order of the accelerator's
/// nine-stage schedule (Fig. 4): (1) load edges, (2) load neighbors, vertex
/// memory and mail, (3) prefetch neighbor memories, (4) update neighbors,
/// memory and mail, (5) update embeddings, (6) the Memory Update Unit and
/// (7) the Embedding Unit.  The only place that counts work:
/// [`StageOps::of`] groups the terms into Table I's four stages, and
/// `hwsim` divides each by a design's parallelism, clock and DDR
/// bandwidth.  Two terms lie outside Table I — the edge records and the
/// embedding write-out; they are counted here once, for the accelerator's
/// memory stages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTerms {
    /// (1) The batch's edge records — source, destination, time and edge
    /// feature — which the accelerator reads to build the new messages it
    /// writes in (4).  Not in Table I: the CPU engine takes its events from
    /// the caller.
    pub load_edges: Term,
    /// (2) The neighbor-table entries of every neighbor scored — index,
    /// edge id and time.  Table I: sample.
    pub load_neighbors: Term,
    /// (2) Each updated vertex's cached message and memory.  Table I:
    /// memory.
    pub load_vertex_state: Term,
    /// (3) The fetched neighbors' memory and edge feature, and each
    /// embedded vertex's node feature.  Table I: GNN.
    pub prefetch_neighbors: Term,
    /// (6.1) The message Δt of every update, encoded.  Table I: memory.
    pub muu_time_encoding: Term,
    /// (6.2–6.5) The GRU: three input-side and three hidden-side
    /// projections per update.  Table I: memory.
    pub muu_gates: Term,
    /// (7.1) Attention scores: vanilla projects the query and every scored
    /// neighbor's key and takes their dot products; simplified attention
    /// computes `W_t·Δt` once per embedding.  Table I: GNN.
    pub eu_attention: Term,
    /// (7.2) The fetched neighbors' Δt, encoded.  Table I: GNN.
    pub eu_time_encoding: Term,
    /// (7.3) Values: each aggregated neighbor's value projection and its
    /// share of the weighted sum.  Table I: GNN.
    pub eu_aggregation: Term,
    /// (7.4) The node-feature projection `W_s` and the output
    /// transformation (FTM).  Table I: GNN.
    pub eu_transformation: Term,
    /// (4) The new memories; per edge, the two new messages and the two
    /// neighbor-table appends.  Table I: update.
    pub write_back: Term,
    /// (5) The embeddings written out.  Not in Table I: the CPU engine
    /// hands them to the caller.
    pub write_embeddings: Term,
}

impl StageTerms {
    /// The terms of a workload on a model configuration.  The GNN terms
    /// count the paper's per-neighbor order (see the module doc).
    pub fn of(config: &ModelConfig, w: &BatchWorkload) -> StageTerms {
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
        let moved = |words: u64, row: u64| Term {
            words,
            row,
            ..Term::default()
        };
        let computed = |macs: u64| Term {
            macs,
            ..Term::default()
        };
        let encoded = |deltas: u64| match config.time_encoder {
            TimeEncoderKind::Cos => Term {
                macs: 2 * time * deltas,
                items: time * deltas,
                ..Term::default()
            },
            TimeEncoderKind::Lut => Term {
                items: deltas,
                ..Term::default()
            },
        };
        // Vanilla scores every sampled neighbor from its features, so every
        // one is fetched before its score is known; simplified attention
        // scores from Δt alone and aggregates the kept ones.
        let (eu_attention, eu_aggregation) = match config.attention {
            AttentionKind::Vanilla => (
                embeddings * q_in * mem + scored * nbr_in * mem + scored * mem,
                scored * nbr_in * mem + scored * mem,
            ),
            AttentionKind::Simplified => {
                (embeddings * k * k, fetched * nbr_in * mem + fetched * mem)
            }
        };
        StageTerms {
            load_edges: moved(edges * (3 + efeat), 3 + efeat),
            load_neighbors: moved(3 * scored, 3),
            load_vertex_state: moved(updates * (msg + mem), msg),
            prefetch_neighbors: moved(fetched * (mem + efeat) + embeddings * nfeat, mem + efeat),
            muu_time_encoding: encoded(updates),
            muu_gates: computed(updates * (3 * msg * mem + 3 * mem * mem)),
            eu_attention: computed(eu_attention),
            eu_time_encoding: encoded(fetched),
            eu_aggregation: computed(eu_aggregation),
            eu_transformation: computed(embeddings * (nfeat * mem + (mem + mem) * emb)),
            write_back: moved(updates * mem + edges * (2 * msg + 6), mem),
            write_embeddings: moved(embeddings * emb, emb),
        }
    }
}

impl StageOps {
    /// The operation counts of a workload: its [`StageTerms`] grouped into
    /// Table I's four stages.  The engine's counters, the per-embedding
    /// figures of Tables I–II and the nominal workloads all go through it.
    pub fn of(config: &ModelConfig, w: &BatchWorkload) -> StageOps {
        let t = StageTerms::of(config, w);
        let ops = |macs: u64, mems: u64| OpCounts { macs, mems };
        StageOps {
            sample: ops(0, t.load_neighbors.words),
            memory: ops(
                t.muu_time_encoding.macs + t.muu_gates.macs,
                t.load_vertex_state.words,
            ),
            gnn: ops(
                t.eu_time_encoding.macs
                    + t.eu_attention.macs
                    + t.eu_aggregation.macs
                    + t.eu_transformation.macs,
                t.prefetch_neighbors.words,
            ),
            update: ops(0, t.write_back.words),
        }
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
