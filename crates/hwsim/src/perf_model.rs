//! The analytical performance model of Section V (Eq. 18–22).
//!
//! For a processing batch of `N_b` edges the pipeline period is
//! `T_p = max(T_comp_max, T_LS)` where `T_comp_max` is the slowest
//! computation stage (Eq. 20) and `T_LS` the time to load/store the batch's
//! data from/to external memory (Eq. 21).  Throughput and latency then follow
//! from Eq. 22.
//!
//! Both are read off the pipeline model's stage breakdown of one processing
//! batch at its nominal workload ([`BatchWorkload::nominal`]): the
//! per-stage MACs and words of `tgnn_core::StageTerms` — the counts behind
//! Table I — divided by the design's parallelism, clock and DDR bandwidth.
//! The model counts nothing itself; the bytes per word come from the
//! design's [`DatapathPrecision`](crate::design::DatapathPrecision).

use crate::ddr::DdrModel;
use crate::design::DesignConfig;
use crate::pipeline::{PipelineModel, StageBreakdown};
use serde::{Deserialize, Serialize};
use tgnn_core::{BatchWorkload, ModelConfig};

/// Number of pipeline stages β in the task schedule of Fig. 4.
pub const PIPELINE_STAGES: usize = 9;

/// Closed-form performance prediction for one design/model/memory
/// combination.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerformanceModel {
    pub design: DesignConfig,
    pub model: ModelConfig,
    pub ddr: DdrModel,
}

/// Predicted quantities for a given batch size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Pipeline period `T_p`, seconds.
    pub pipeline_period: f64,
    /// Slowest computation stage `T_comp_max`, seconds.
    pub t_comp: f64,
    /// Load/store time `T_LS`, seconds.
    pub t_ls: f64,
    /// Maximum throughput, edges per second.
    pub throughput_eps: f64,
    /// Latency to process a batch of `N` edges, seconds.
    pub latency: f64,
}

impl PerformanceModel {
    /// Creates the model.
    pub fn new(design: DesignConfig, model: ModelConfig, ddr: DdrModel) -> Self {
        Self { design, model, ddr }
    }

    /// The stage breakdown of one processing batch of `N_b` edges at its
    /// nominal workload ([`BatchWorkload::nominal`]).  The real stream does
    /// less (vertices repeat within a batch, young vertices have fewer
    /// neighbors than `k`), which is exactly the source of prediction error
    /// the paper discusses.
    fn nominal_breakdown(&self) -> StageBreakdown {
        PipelineModel::new(self.design.clone(), self.model.clone(), self.ddr.clone())
            .stage_breakdown(&BatchWorkload::nominal(&self.model, self.design.nb))
    }

    /// `T_comp_max` (Eq. 20): the dominant computation stage for one
    /// processing batch of `N_b` edges, in seconds, evaluated at the nominal
    /// workload using the same per-stage cost model as the simulator.
    pub fn t_comp(&self) -> f64 {
        let b = self.nominal_breakdown();
        [
            b.muu_time_encoding,
            b.muu_gates,
            b.eu_attention,
            b.eu_time_encoding,
            b.eu_aggregation,
            b.eu_transformation,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// `T_LS` (Eq. 21): external-memory time for one processing batch at the
    /// nominal workload.
    pub fn t_ls(&self) -> f64 {
        let b = self.nominal_breakdown();
        b.load_edges + b.load_vertex_state + b.prefetch_neighbors + b.write_back
    }

    /// Full prediction for a batch of `batch_size` edges (Eq. 18 and 22).
    pub fn predict(&self, batch_size: usize) -> Prediction {
        let t_comp = self.t_comp();
        let t_ls = self.t_ls();
        let tp = t_comp.max(t_ls);
        let nb = self.design.nb;
        let steps = (batch_size as f64 / nb as f64).ceil();
        Prediction {
            pipeline_period: tp,
            t_comp,
            t_ls,
            throughput_eps: nb as f64 / tp,
            latency: (PIPELINE_STAGES as f64 - 1.0 + steps) * tp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use tgnn_core::OptimizationVariant;

    fn model_cfg(variant: OptimizationVariant) -> ModelConfig {
        ModelConfig::paper_default(0, 172).with_variant(variant)
    }

    fn u200_model(variant: OptimizationVariant) -> PerformanceModel {
        PerformanceModel::new(
            DesignConfig::u200(),
            model_cfg(variant),
            DdrModel::new_gbps(FpgaDevice::alveo_u200().ddr_bandwidth_gbps),
        )
    }

    fn zcu_model(variant: OptimizationVariant) -> PerformanceModel {
        PerformanceModel::new(
            DesignConfig::zcu104(),
            model_cfg(variant),
            DdrModel::new_gbps(FpgaDevice::zcu104().ddr_bandwidth_gbps),
        )
    }

    #[test]
    fn latency_grows_with_batch_size_and_throughput_is_constant() {
        let pm = u200_model(OptimizationVariant::NpMedium);
        let small = pm.predict(100);
        let large = pm.predict(4000);
        assert!(large.latency > small.latency);
        assert!((large.throughput_eps - small.throughput_eps).abs() < 1e-6);
        assert!(small.latency > 0.0);
    }

    #[test]
    fn u200_outperforms_zcu104() {
        let u200 = u200_model(OptimizationVariant::NpMedium).predict(1000);
        let zcu = zcu_model(OptimizationVariant::NpMedium).predict(1000);
        assert!(u200.throughput_eps > zcu.throughput_eps);
        assert!(u200.latency < zcu.latency);
    }

    #[test]
    fn pruning_improves_predicted_performance() {
        let full = u200_model(OptimizationVariant::SatLut).predict(1000);
        let pruned = u200_model(OptimizationVariant::NpSmall).predict(1000);
        assert!(pruned.throughput_eps >= full.throughput_eps);
        assert!(pruned.latency <= full.latency);
    }

    #[test]
    fn pipeline_period_is_max_of_compute_and_memory() {
        let pm = u200_model(OptimizationVariant::NpMedium);
        let p = pm.predict(500);
        assert!((p.pipeline_period - p.t_comp.max(p.t_ls)).abs() < 1e-15);
        assert!(p.t_comp > 0.0 && p.t_ls > 0.0);
    }

    #[test]
    fn higher_bandwidth_never_hurts() {
        let slow = PerformanceModel::new(
            DesignConfig::u200(),
            model_cfg(OptimizationVariant::NpMedium),
            DdrModel::new_gbps(10.0),
        );
        let fast = PerformanceModel::new(
            DesignConfig::u200(),
            model_cfg(OptimizationVariant::NpMedium),
            DdrModel::new_gbps(77.0),
        );
        assert!(fast.predict(1000).latency <= slow.predict(1000).latency);
    }

    #[test]
    fn more_parallelism_reduces_compute_time() {
        let base = zcu_model(OptimizationVariant::NpMedium);
        let mut bigger_design = DesignConfig::zcu104();
        bigger_design.sg *= 2;
        bigger_design.s_fam *= 2;
        bigger_design.s_ftm *= 2;
        let bigger = PerformanceModel::new(
            bigger_design,
            model_cfg(OptimizationVariant::NpMedium),
            DdrModel::new_gbps(19.2),
        );
        assert!(bigger.t_comp() < base.t_comp());
    }

    #[test]
    fn int8_datapath_reduces_t_ls_and_never_reduces_throughput() {
        use crate::design::DatapathPrecision;
        let fp32 = u200_model(OptimizationVariant::NpMedium);
        let int8 = PerformanceModel::new(
            DesignConfig::u200().with_precision(DatapathPrecision::int8()),
            model_cfg(OptimizationVariant::NpMedium),
            DdrModel::new_gbps(FpgaDevice::alveo_u200().ddr_bandwidth_gbps),
        );
        assert!(int8.t_ls() < fp32.t_ls(), "int8 must cut DDR time");
        let pf = fp32.predict(1000);
        let pi = int8.predict(1000);
        assert!(pi.throughput_eps >= pf.throughput_eps);
        assert!(pi.latency <= pf.latency);
    }

    #[test]
    fn paper_scale_latency_is_sub_100ms_for_small_batches() {
        // Fig. 5 / Fig. 7: U200 latencies for batch size 200 are in the
        // millisecond range.  The model should land in the same regime
        // (well under 100 ms, well above 1 µs).
        let pm = u200_model(OptimizationVariant::NpMedium);
        let p = pm.predict(200);
        assert!(p.latency < 0.1, "latency {} s too large", p.latency);
        assert!(
            p.latency > 1e-6,
            "latency {} s implausibly small",
            p.latency
        );
    }

    #[test]
    fn predicted_latency_matches_the_pins_on_every_rung_and_feature_shape() {
        // `predict(1000).latency` as f64 bits on U200 and ZCU104, per
        // `(node, edge)` feature shape — Wikipedia (0, 172), GDELT (200, 0)
        // and a mixed one — and rung: the model on `StageTerms`, the counts
        // behind Table I.  A formula that drifts moves a pin here; on a
        // mismatch the message prints the table to re-pin from.
        use OptimizationVariant::*;
        let pins: [((usize, usize), OptimizationVariant, u64, u64); 18] = [
            ((0, 172), Baseline, 0x3fbac3009b30728f, 0x3fe9f4f50a02b841),
            ((0, 172), Sat, 0x3f896659d12cadde, 0x3fc6aaeca8346711),
            ((0, 172), SatLut, 0x3f896659d12cadde, 0x3fc6aaeca8346711),
            ((0, 172), NpLarge, 0x3f875edc2e699fd8, 0x3fc6aaeca8346711),
            ((0, 172), NpMedium, 0x3f875edc2e699fd8, 0x3fc6aaeca8346711),
            ((0, 172), NpSmall, 0x3f875edc2e699fd8, 0x3fc6aaeca8346711),
            ((200, 0), Baseline, 0x3fae1932d6ece13f, 0x3fdd31769a91105e),
            ((200, 0), Sat, 0x3f8057d1782d3848, 0x3fbfb3fa6defc7a4),
            ((200, 0), SatLut, 0x3f8057d1782d3848, 0x3fbfb3fa6defc7a4),
            ((200, 0), NpLarge, 0x3f8057d1782d3848, 0x3fbfb3fa6defc7a4),
            ((200, 0), NpMedium, 0x3f8057d1782d3848, 0x3fbfb3fa6defc7a4),
            ((200, 0), NpSmall, 0x3f8057d1782d3848, 0x3fbfb3fa6defc7a4),
            ((100, 16), Baseline, 0x3fb023854046412d, 0x3fdf4e874c8ffb8c),
            ((100, 16), Sat, 0x3f80ff2bc4a9e89c, 0x3fc07c4f05f790c6),
            ((100, 16), SatLut, 0x3f80ff2bc4a9e89c, 0x3fc07c4f05f790c6),
            ((100, 16), NpLarge, 0x3f80ff2bc4a9e89c, 0x3fc07c4f05f790c6),
            ((100, 16), NpMedium, 0x3f80ff2bc4a9e89c, 0x3fc07c4f05f790c6),
            ((100, 16), NpSmall, 0x3f80ff2bc4a9e89c, 0x3fc07c4f05f790c6),
        ];
        let latency = |cfg: &ModelConfig, design: DesignConfig, gbps: f64| {
            let pm = PerformanceModel::new(design, cfg.clone(), DdrModel::new_gbps(gbps));
            pm.predict(1000).latency.to_bits()
        };
        let got = pins.map(|((node, edge), rung, _, _)| {
            let cfg = ModelConfig::paper_default(node, edge).with_variant(rung);
            let u200 = latency(&cfg, DesignConfig::u200(), 77.0);
            let zcu104 = latency(&cfg, DesignConfig::zcu104(), 19.2);
            ((node, edge), rung, u200, zcu104)
        });
        let table: Vec<String> = (got.iter())
            .map(|(shape, rung, u, z)| format!("({shape:?}, {rung:?}, {u:#018x}, {z:#018x}),"))
            .collect();
        assert!(got == pins, "moved pins; now:\n{}", table.join("\n"));
    }
}
