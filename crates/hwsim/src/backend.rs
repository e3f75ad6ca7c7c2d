//! The FPGA latency model of one served GNN job — the paper's U200
//! accelerator timed beside every batch the server computes.
//!
//! [`HwSimBackend`] computes nothing: it answers a gathered GNN job with
//! the service latency the 9-stage pipeline model
//! ([`crate::pipeline::PipelineModel`]) predicts for it.  The job carries
//! its batch's workload, recorded as it was gathered
//! ([`GnnJobBatch::workload`]: the batch's events, the rows the memory stage
//! updated, the embeddings, the neighbors scored and fetched) — the same
//! five counts the engine records, so the gauge prices what the batch did
//! rather than an estimate of it.  The workload is split into `N_b`-edge
//! processing batches and timed on the configured [`DesignConfig`] —
//! including its
//! [`DatapathPrecision`](crate::design::DatapathPrecision), so an int8
//! accelerator design reports proportionally smaller memory-stage times.
//! It is not a compute backend: the embeddings come from `tgnn_core`'s two
//! backends, and the serving layer records this model's prediction for
//! every batch either of them computes.
//!
//! Because the pipeline model is a pure function of the workload, the
//! modeled latency is deterministic: the same event stream produces the
//! same sealed batches, the same gathered jobs, and therefore the same
//! modeled latencies, run after run (the serving layer's golden-counter
//! tests pin the exported quantiles).

use crate::ddr::DdrModel;
use crate::design::DesignConfig;
use crate::pipeline::PipelineModel;
use tgnn_core::{GnnJobBatch, TgnModel};

/// The accelerator latency model of a served GNN job: a design point over
/// a DDR model, for one model configuration.  Holds no weights.
pub struct HwSimBackend {
    pipeline: PipelineModel,
}

impl HwSimBackend {
    /// The latency model of `model`'s configuration timed on `design` over
    /// `ddr` (the weights are not read: timing depends on the shapes only).
    pub fn new(model: &TgnModel, design: DesignConfig, ddr: DdrModel) -> Self {
        Self {
            pipeline: PipelineModel::new(design, model.config.clone(), ddr),
        }
    }

    /// [`Self::new`] on the paper's Alveo U200 design point with its
    /// measured 77 GB/s DDR bandwidth — the accelerator the server times
    /// every batch on.
    pub fn u200(model: &TgnModel) -> Self {
        Self::new(model, DesignConfig::u200(), DdrModel::new_gbps(77.0))
    }

    /// Models the service latency of one gathered GNN job on the configured
    /// datapath (seconds), without computing anything: the workload the job
    /// recorded as it was gathered ([`GnnJobBatch::workload`]), split into
    /// `N_b`-edge processing batches and timed on the pipeline model.
    pub fn modeled_latency(&self, job: &GnnJobBatch) -> f64 {
        let chunks = self.pipeline.split_workload(&job.workload());
        self.pipeline.batch_latency(&chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DatapathPrecision;
    use tgnn_core::{ModelConfig, OptimizationVariant, SampledBatch};
    use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
    use tgnn_tensor::{Matrix, TensorRng};

    fn gathered_job(seed: u64) -> (TgnModel, GnnJobBatch) {
        gathered_job_of(seed, ModelConfig::tiny(0, 2))
    }

    fn gathered_job_of(seed: u64, cfg: ModelConfig) -> (TgnModel, GnnJobBatch) {
        let model = TgnModel::new(cfg.clone(), &mut TensorRng::new(seed));
        let events: Vec<InteractionEvent> = (0..12u32)
            .map(|i| InteractionEvent::new(i % 5, (i + 1) % 5, i, i as f64))
            .collect();
        let graph = std::sync::Arc::new(TemporalGraph::new(
            "backend-test",
            5,
            Matrix::zeros(5, 0),
            Matrix::zeros(12, 2),
            events.clone(),
        ));
        // Every touched vertex samples three neighbors.
        let history = [0u32, 1, 2].map(|k| tgnn_graph::NeighborEntry {
            neighbor: k,
            edge_id: k,
            timestamp: k as f64,
        });
        let sampled = SampledBatch::assemble(EventBatch::new(events), 0, &model, |_, _, _, out| {
            out.extend_from_slice(&history)
        });
        // Two of the five touched vertices had a pending message.
        let row = vec![0.5; cfg.memory_dim];
        let updated = std::collections::HashMap::from([(0, row.clone()), (2, row)]);
        let job = GnnJobBatch::gather(&sampled, &updated, &graph, &cfg, |_, dst| dst.fill(0.25));
        (model, job)
    }

    #[test]
    fn modeled_latency_is_positive_and_pure_in_the_job() {
        let (model, job) = gathered_job(3);
        let lat = HwSimBackend::u200(&model).modeled_latency(&job);
        assert!(lat > 0.0);
        // The same job models the same latency, on this model and on a
        // fresh one of the same configuration: the weights are not read.
        assert_eq!(HwSimBackend::u200(&model).modeled_latency(&job), lat);
        let (other, _) = gathered_job(4);
        assert_eq!(
            HwSimBackend::u200(&other).modeled_latency(&job).to_bits(),
            lat.to_bits()
        );
    }

    #[test]
    fn int8_design_models_a_faster_datapath_than_fp32() {
        let (model, job) = gathered_job(9);
        let fp32 = HwSimBackend::u200(&model);
        let int8 = HwSimBackend::new(
            &model,
            DesignConfig::u200().with_precision(DatapathPrecision::int8()),
            DdrModel::new_gbps(77.0),
        );
        assert!(int8.modeled_latency(&job) <= fp32.modeled_latency(&job));
    }

    #[test]
    fn pruned_neighbors_are_not_charged_for_fetch_or_aggregation() {
        let sat_lut = ModelConfig::tiny(0, 2).with_variant(OptimizationVariant::SatLut);
        let mut np_small = ModelConfig::tiny(0, 2).with_variant(OptimizationVariant::NpSmall);
        assert!(
            np_small.neighbor_budget < 3,
            "NP(S) must prune the 3 gathered neighbors"
        );
        let latency = |cfg: &ModelConfig| {
            let (model, job) = gathered_job_of(5, cfg.clone());
            assert_eq!(job.workload().neighbors_scored, 3 * job.len());
            HwSimBackend::u200(&model).modeled_latency(&job)
        };
        assert!(latency(&np_small) < latency(&sat_lut));
        // No pruning, no discount.
        np_small.neighbor_budget = np_small.sampled_neighbors;
        assert_eq!(latency(&np_small), latency(&sat_lut));
    }

    #[test]
    fn modeled_latency_prices_the_recorded_workload_to_the_pinned_bits() {
        // The job's own workload — 12 events, 5 touched vertices of which
        // 2 were updated, 3 neighbors scored each and the kept ones fetched
        // — timed on the U200 (seconds, as f64 bits).
        for (variant, pinned) in [
            (OptimizationVariant::Baseline, 0x3ede93f3ee19028eu64),
            (OptimizationVariant::SatLut, 0x3edd4b634a611bc6),
            (OptimizationVariant::NpSmall, 0x3edc71423f644d67),
        ] {
            let (model, job) = gathered_job_of(5, ModelConfig::tiny(0, 2).with_variant(variant));
            let w = job.workload();
            assert_eq!((w.edges, w.memory_updates, w.embeddings), (12, 2, 5));
            assert_eq!(w.neighbors_scored, 15);
            let latency = HwSimBackend::u200(&model).modeled_latency(&job);
            assert_eq!(latency.to_bits(), pinned, "{variant:?}: {latency:e}");
        }
    }
}
