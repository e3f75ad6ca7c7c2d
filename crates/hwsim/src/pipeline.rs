//! The 9-stage task schedule of Fig. 4 and its pipelined execution.
//!
//! A processing batch of `N_b` edges passes through: (1) load edges,
//! (2) load neighbors / vertex memory / mail, (3) prefetch neighbor
//! memories, (4) update neighbors / memory / mail, (5) update embeddings,
//! (6.1–6.5) the MUU sub-stages (time encoding, update/reset/memory/merging
//! gates) and (7.1–7.4) the EU sub-stages (attention, time encoding, feature
//! aggregation, feature transformation).  Consecutive processing batches are
//! fully pipelined, so the steady-state cost of a batch is the longest stage
//! (`T_p`), with the full pipeline depth paid once per user-visible batch.
//!
//! The simulator works at stage-time granularity and counts nothing itself:
//! `tgnn_core::StageTerms` gives each stage's MACs, words and items — the
//! same terms Table I groups — and [`PipelineModel::stage_breakdown`]
//! divides them by the design's parallelism (`S_g²` for the MUU gates,
//! `S_FAM` for attention and aggregation, `S_FTM²` for the transformation,
//! `N_cu`) and clock, or times them on the DDR model at the datapath's bytes
//! per word.  Three design-side factors are named constants below.  It
//! times the *actual* per-batch workload the functional engine or a served
//! job recorded (how many vertices had pending messages, how many neighbors
//! were scored, and fetched after pruning), which is what distinguishes it
//! from the closed-form model of Section V (which times
//! [`BatchWorkload::nominal`]).

use crate::ddr::DdrModel;
use crate::design::DesignConfig;
use serde::{Deserialize, Serialize};
use tgnn_core::{ModelConfig, StageTerms, Term, TimeEncoderKind};

/// The workload a processing batch is timed from — defined beside the
/// operation counts it also feeds ([`tgnn_core::StageOps::of`]).
pub use tgnn_core::BatchWorkload;

/// How many times faster the Feature Aggregation Module retires the
/// aggregation's MACs than the attention's at the same `S_FAM`: the
/// aggregation stage takes `MACs / (S_FAM · 8)` cycles.  The factor has
/// been in the simulator since its first version; the repository records
/// no derivation for it (`PAPER.md` carries the paper's title only), so it
/// is kept as it was.
pub const FAM_AGGREGATION_SPEEDUP: f64 = 8.0;

/// Cycles the cosine time encoder spends per element of `Φ(Δt)`: one, so
/// encoding a Δt takes `time_dim` cycles — the simulator's timing since its
/// first version.
pub const COS_CYCLES_PER_ELEMENT: f64 = 1.0;

/// Cycles a lookup-table time encoder spends per Δt: one table read — the
/// simulator's timing since its first version.
pub const LUT_CYCLES_PER_READ: f64 = 1.0;

/// Per-stage time breakdown of one processing batch, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdown {
    pub load_edges: f64,
    pub load_vertex_state: f64,
    pub prefetch_neighbors: f64,
    pub muu_time_encoding: f64,
    pub muu_gates: f64,
    pub eu_attention: f64,
    pub eu_time_encoding: f64,
    pub eu_aggregation: f64,
    pub eu_transformation: f64,
    pub write_back: f64,
}

impl StageBreakdown {
    /// The longest stage — the pipeline period `T_p` contribution of this
    /// batch.
    pub fn max_stage(&self) -> f64 {
        [
            self.load_edges,
            self.load_vertex_state,
            self.prefetch_neighbors,
            self.muu_time_encoding,
            self.muu_gates,
            self.eu_attention,
            self.eu_time_encoding,
            self.eu_aggregation,
            self.eu_transformation,
            self.write_back,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Sum of all stages — the unpipelined latency of this batch.
    pub fn total(&self) -> f64 {
        self.load_edges
            + self.load_vertex_state
            + self.prefetch_neighbors
            + self.muu_time_encoding
            + self.muu_gates
            + self.eu_attention
            + self.eu_time_encoding
            + self.eu_aggregation
            + self.eu_transformation
            + self.write_back
    }
}

/// The pipeline timing model.
#[derive(Clone, Debug)]
pub struct PipelineModel {
    pub design: DesignConfig,
    pub model: ModelConfig,
    pub ddr: DdrModel,
}

impl PipelineModel {
    /// Creates a pipeline model.
    pub fn new(design: DesignConfig, model: ModelConfig, ddr: DdrModel) -> Self {
        Self { design, model, ddr }
    }

    /// Stage breakdown for one processing batch with the given measured
    /// workload: its [`StageTerms`] divided by the design's parallelism and
    /// clock (compute stages) or timed on the DDR model (memory stages).
    pub fn stage_breakdown(&self, w: &BatchWorkload) -> StageBreakdown {
        let d = &self.design;
        let t = StageTerms::of(&self.model, w);
        // Seconds per cycle of work, the CUs sharing it.
        let cycle = d.clock_period() / d.num_cu as f64;
        let on = |parallel: usize, term: Term| term.macs as f64 / parallel as f64 * cycle;
        let per_item = match self.model.time_encoder {
            TimeEncoderKind::Lut => LUT_CYCLES_PER_READ,
            TimeEncoderKind::Cos => COS_CYCLES_PER_ELEMENT,
        };
        let encode = |term: Term| term.items as f64 * per_item * cycle;
        // Everything the pipeline moves over DDR per batch (memory rows,
        // features, messages, embeddings) is activation-width data; the
        // datapath precision sets the bytes per word, so an int8 design
        // quarters every transfer relative to fp32.
        let word = d.precision.activation_bytes;
        let transfer = |term: Term| {
            self.ddr
                .transfer_time(term.words as f64 * word, term.row as f64 * word)
        };

        let muu_time_encoding = encode(t.muu_time_encoding);
        let muu_gates = on(d.sg * d.sg, t.muu_gates);
        let mut prefetch_neighbors = transfer(t.prefetch_neighbors);
        // Prefetching (Section IV-C) overlaps the neighbor-memory loads with
        // the MUU computation: only the non-overlapped part remains on the
        // critical path.
        if d.prefetch {
            let overlap = muu_gates + muu_time_encoding;
            prefetch_neighbors = (prefetch_neighbors - overlap).max(0.0);
        }

        StageBreakdown {
            load_edges: transfer(t.load_edges),
            load_vertex_state: transfer(t.load_neighbors + t.load_vertex_state),
            prefetch_neighbors,
            muu_time_encoding,
            muu_gates,
            eu_attention: on(d.s_fam, t.eu_attention),
            eu_time_encoding: encode(t.eu_time_encoding),
            eu_aggregation: on(d.s_fam, t.eu_aggregation) / FAM_AGGREGATION_SPEEDUP,
            eu_transformation: on(d.s_ftm * d.s_ftm, t.eu_transformation),
            write_back: transfer(t.write_back + t.write_embeddings),
        }
    }

    /// Simulated latency of one user-visible batch made of several processing
    /// batches (fully pipelined): the pipeline fills once and then advances
    /// one processing batch per period.
    pub fn batch_latency(&self, workloads: &[BatchWorkload]) -> f64 {
        let Some((first, rest)) = workloads.split_first() else {
            return 0.0;
        };
        // Fill latency of the first processing batch plus one period per
        // subsequent batch (each period bounded by that batch's slowest
        // stage — a conservative dynamic version of Eq. 22).
        let fill = self.stage_breakdown(first).total();
        let steady: f64 = rest
            .iter()
            .map(|w| self.stage_breakdown(w).max_stage())
            .sum();
        fill + steady
    }

    /// Splits a user batch of `edges` into processing batches of `N_b` and
    /// produces per-processing-batch workloads assuming the given average
    /// statistics (used when only aggregate workload numbers are available).
    /// Each field is shared out by cumulative rounding — chunk `i` gets
    /// `round(T·E_i/E) − round(T·E_{i−1}/E)` of its batch total `T`, `E_i`
    /// being the edges of chunks `0…i` — so the chunks sum to the total
    /// exactly and no work rounds away.
    pub fn split_workload(&self, total: &BatchWorkload) -> Vec<BatchWorkload> {
        let nb = self.design.nb.max(1);
        let edges = total.edges;
        if edges == 0 {
            return Vec::new();
        }
        // round(field · upto / edges), half up, in exact integers.
        let share = |field: usize, upto: usize| (2 * field * upto + edges) / (2 * edges);
        (0..edges.div_ceil(nb))
            .map(|i| {
                let (from, upto) = (i * nb, ((i + 1) * nb).min(edges));
                let cut = |field| share(field, upto) - share(field, from);
                BatchWorkload {
                    edges: upto - from,
                    memory_updates: cut(total.memory_updates),
                    embeddings: cut(total.embeddings),
                    neighbors_fetched: cut(total.neighbors_fetched),
                    neighbors_scored: cut(total.neighbors_scored),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use tgnn_core::OptimizationVariant;

    fn pipeline(variant: OptimizationVariant, design: DesignConfig, gbps: f64) -> PipelineModel {
        PipelineModel::new(
            design,
            ModelConfig::paper_default(0, 172).with_variant(variant),
            DdrModel::new_gbps(gbps),
        )
    }

    #[test]
    fn stage_breakdown_is_positive_and_bounded() {
        let p = pipeline(OptimizationVariant::NpMedium, DesignConfig::u200(), 77.0);
        let w = BatchWorkload::nominal(&p.model, 8);
        let b = p.stage_breakdown(&w);
        assert!(b.total() > 0.0);
        assert!(b.max_stage() <= b.total());
        assert!(b.max_stage() > 0.0);
    }

    #[test]
    fn simplified_attention_shrinks_the_attention_stage() {
        let vanilla = pipeline(OptimizationVariant::Baseline, DesignConfig::u200(), 77.0);
        let sat = pipeline(OptimizationVariant::Sat, DesignConfig::u200(), 77.0);
        let wv = BatchWorkload::nominal(&vanilla.model, 8);
        let ws = BatchWorkload::nominal(&sat.model, 8);
        let bv = vanilla.stage_breakdown(&wv);
        let bs = sat.stage_breakdown(&ws);
        assert!(
            bs.eu_attention < 0.2 * bv.eu_attention,
            "SAT attention stage {} vs vanilla {}",
            bs.eu_attention,
            bv.eu_attention
        );
    }

    #[test]
    fn lut_time_encoder_removes_time_encoding_cycles() {
        let cos = pipeline(OptimizationVariant::Sat, DesignConfig::u200(), 77.0);
        let lut = pipeline(OptimizationVariant::SatLut, DesignConfig::u200(), 77.0);
        let wc = BatchWorkload::nominal(&cos.model, 8);
        let wl = BatchWorkload::nominal(&lut.model, 8);
        assert!(
            lut.stage_breakdown(&wl).eu_time_encoding < cos.stage_breakdown(&wc).eu_time_encoding
        );
        assert!(
            lut.stage_breakdown(&wl).muu_time_encoding < cos.stage_breakdown(&wc).muu_time_encoding
        );
    }

    #[test]
    fn prefetching_hides_neighbor_loads() {
        let mut design = DesignConfig::u200();
        design.prefetch = false;
        let without = pipeline(OptimizationVariant::NpMedium, design, 77.0);
        let with = pipeline(OptimizationVariant::NpMedium, DesignConfig::u200(), 77.0);
        let w = BatchWorkload::nominal(&with.model, 8);
        let b_without = without.stage_breakdown(&w);
        let b_with = with.stage_breakdown(&w);
        assert!(b_with.prefetch_neighbors <= b_without.prefetch_neighbors);
    }

    #[test]
    fn pipelining_beats_sequential_execution() {
        let p = pipeline(OptimizationVariant::NpMedium, DesignConfig::u200(), 77.0);
        let total = BatchWorkload::nominal(&p.model, 256);
        let workloads = p.split_workload(&total);
        assert!(workloads.len() > 1);
        let pipelined = p.batch_latency(&workloads);
        let sequential: f64 = workloads.iter().map(|w| p.stage_breakdown(w).total()).sum();
        assert!(
            pipelined < sequential,
            "pipelining must help: {pipelined} vs {sequential}"
        );
    }

    #[test]
    fn split_workload_conserves_edges() {
        let p = pipeline(OptimizationVariant::NpSmall, DesignConfig::zcu104(), 19.2);
        let nominal = BatchWorkload::nominal(&p.model, 103);
        // A measured workload's fields need not be multiples of the edges:
        // shares of a few units per chunk must still add up.
        let measured = BatchWorkload {
            edges: 1000,
            memory_updates: 7,
            embeddings: 1999,
            neighbors_fetched: 3,
            neighbors_scored: 12_345,
        };
        for total in [nominal, measured] {
            let parts = p.split_workload(&total);
            let sum = parts
                .iter()
                .fold(BatchWorkload::default(), |a, w| BatchWorkload {
                    edges: a.edges + w.edges,
                    memory_updates: a.memory_updates + w.memory_updates,
                    embeddings: a.embeddings + w.embeddings,
                    neighbors_fetched: a.neighbors_fetched + w.neighbors_fetched,
                    neighbors_scored: a.neighbors_scored + w.neighbors_scored,
                });
            assert_eq!(sum, total);
            assert!(parts.iter().all(|w| w.edges <= p.design.nb));
        }
        assert!(p.split_workload(&BatchWorkload::default()).is_empty());
    }

    #[test]
    fn zcu104_batch_latency_grows_with_the_batch() {
        let p = pipeline(
            OptimizationVariant::NpMedium,
            DesignConfig::zcu104(),
            FpgaDevice::zcu104().ddr_bandwidth_gbps,
        );
        // A measured per-edge mix whose per-chunk shares are fractions.
        let at = |edges: usize| BatchWorkload {
            edges,
            memory_updates: edges * 3 / 2,
            embeddings: edges * 3 / 2,
            neighbors_fetched: edges / 3,
            neighbors_scored: edges * 2,
        };
        let latency = |edges| p.batch_latency(&p.split_workload(&at(edges)));
        let mut last = 0.0;
        for edges in (1..=40).map(|i| i * 50) {
            let now = latency(edges);
            assert!(now > last, "{edges} edges: {now} s after {last} s");
            last = now;
        }
    }

    #[test]
    fn int8_datapath_shrinks_every_memory_stage() {
        use crate::design::DatapathPrecision;
        let fp32 = pipeline(OptimizationVariant::NpMedium, DesignConfig::u200(), 77.0);
        let int8 = pipeline(
            OptimizationVariant::NpMedium,
            DesignConfig::u200().with_precision(DatapathPrecision::int8()),
            77.0,
        );
        let w = BatchWorkload::nominal(&fp32.model, 64);
        let bf = fp32.stage_breakdown(&w);
        let bi = int8.stage_breakdown(&w);
        assert!(bi.load_edges < bf.load_edges);
        assert!(bi.load_vertex_state < bf.load_vertex_state);
        assert!(bi.write_back < bf.write_back);
        assert!(bi.prefetch_neighbors <= bf.prefetch_neighbors);
        // Compute stages are cycle-count driven and unchanged.
        assert_eq!(bi.muu_gates, bf.muu_gates);
        assert_eq!(bi.eu_transformation, bf.eu_transformation);
        // The end-to-end batch cannot get slower.
        let lat_f = fp32.batch_latency(&fp32.split_workload(&w));
        let lat_i = int8.batch_latency(&int8.split_workload(&w));
        assert!(lat_i <= lat_f, "int8 latency {lat_i} vs fp32 {lat_f}");
    }

    #[test]
    fn zcu104_is_slower_than_u200() {
        let u200 = pipeline(
            OptimizationVariant::NpMedium,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200().ddr_bandwidth_gbps,
        );
        let zcu = pipeline(
            OptimizationVariant::NpMedium,
            DesignConfig::zcu104(),
            FpgaDevice::zcu104().ddr_bandwidth_gbps,
        );
        let total_u = BatchWorkload::nominal(&u200.model, 200);
        let total_z = BatchWorkload::nominal(&zcu.model, 200);
        let lat_u = u200.batch_latency(&u200.split_workload(&total_u));
        let lat_z = zcu.batch_latency(&zcu.split_workload(&total_z));
        assert!(lat_u < lat_z);
    }

    #[test]
    fn stage_breakdown_of_a_measured_workload_matches_the_pins() {
        // Every stage of one fixed measured workload as f64 bits, on the
        // U200 with +NP(M) over Wikipedia's shape (simplified attention, LUT)
        // and on the ZCU104 with the Baseline over GDELT's (vanilla
        // attention, cos encoder, node features) — without prefetching, so
        // the neighbor loads show.  A drift in any term's count or divisor
        // moves a pin; the message prints the new ones.
        let w = BatchWorkload {
            edges: 8,
            memory_updates: 11,
            embeddings: 13,
            neighbors_fetched: 37,
            neighbors_scored: 104,
        };
        let stages = |b: StageBreakdown| {
            [
                b.load_edges,
                b.load_vertex_state,
                b.prefetch_neighbors,
                b.muu_time_encoding,
                b.muu_gates,
                b.eu_attention,
                b.eu_time_encoding,
                b.eu_aggregation,
                b.eu_transformation,
                b.write_back,
            ]
            .map(f64::to_bits)
        };
        let no_prefetch = DesignConfig {
            prefetch: false,
            ..DesignConfig::zcu104()
        };
        let cases = [
            (
                OptimizationVariant::NpMedium,
                (0, 172),
                DesignConfig::u200(),
                77.0,
            ),
            (OptimizationVariant::Baseline, (200, 0), no_prefetch, 19.2),
        ];
        let got = cases.map(|(rung, (node, edge), design, gbps)| {
            let model = ModelConfig::paper_default(node, edge).with_variant(rung);
            let p = PipelineModel::new(design, model, DdrModel::new_gbps(gbps));
            stages(p.stage_breakdown(&w))
        });
        let pins: [[u64; 10]; 2] = [
            [
                0x3ea2b746373e55be,
                0x3eb3da26345b3a18,
                0x0000000000000000,
                0x3e579f505f35670d,
                0x3f0eed2b1125c232,
                0x3e85cf751db94e6b,
                0x3e73dd3dc46ce81c,
                0x3ef69c8f175f9816,
                0x3ee10a137f38c544,
                0x3edbec2a1cd4df0e,
            ],
            [
                0x3ea3c51226456292,
                0x3ec05d4afdd3bc1d,
                0x3ed6d1c60491656a,
                0x3ee27476ca61b882,
                0x3f45a07b352a8438,
                0x3f634125643d973b,
                0x3eff09b082ea2aac,
                0x3f311fe2f4567e92,
                0x3f310a137f38c544,
                0x3eda625273837f8e,
            ],
        ];
        let table: Vec<String> = (got.iter())
            .map(|g| format!("[{}],", g.map(|b| format!("{b:#018x}")).join(", ")))
            .collect();
        assert!(got == pins, "moved pins; now:\n{}", table.join("\n"));
    }
}
