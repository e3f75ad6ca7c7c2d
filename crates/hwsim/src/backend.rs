//! The FPGA latency model of one served GNN job — the paper's U200
//! accelerator timed beside every batch the server computes.
//!
//! [`HwSimBackend`] computes nothing: it answers a gathered GNN job with
//! the service latency the 9-stage pipeline model
//! ([`crate::pipeline::PipelineModel`]) predicts for it.  The job's
//! workload (edges, memory updates, embeddings, neighbor fetches) is split
//! into `N_b`-edge processing batches and timed on the configured
//! [`DesignConfig`] — including its
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
use tgnn_core::{BatchWorkload, GnnJobBatch, TgnModel};

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
    /// datapath (seconds), without computing anything.
    pub fn modeled_latency(&self, job: &GnnJobBatch) -> f64 {
        let total = BatchWorkload {
            // The gathered job no longer knows its event count; embeddings
            // (touched vertices) bound it within 2× and keep the model a
            // pure function of the job.
            edges: job.len(),
            memory_updates: job.len(),
            embeddings: job.len(),
            // Every sampled neighbor is scored; only the ones pruning keeps
            // are fetched and aggregated (as in `accelerator`/`perf_model`).
            neighbors_fetched: job.neighbors_within_budget(self.pipeline.model.neighbor_budget),
            neighbors_scored: job.total_neighbors(),
        };
        self.pipeline
            .batch_latency(&self.pipeline.split_workload(&total))
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
        let updated = std::collections::HashMap::new();
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
            assert_eq!(job.total_neighbors(), 3 * job.len());
            HwSimBackend::u200(&model).modeled_latency(&job)
        };
        assert!(latency(&np_small) < latency(&sat_lut));
        // No pruning, no discount.
        np_small.neighbor_budget = np_small.sampled_neighbors;
        assert_eq!(latency(&np_small), latency(&sat_lut));
    }

    #[test]
    fn modeled_latency_is_what_it_was_before_pruned_rows_stopped_being_gathered() {
        // The model has always charged kept rows only; gathering kept rows
        // only changes what the job holds, not what the model is fed.  The
        // constants are the parent commit's (seconds, as f64 bits).
        for (variant, parent) in [
            (OptimizationVariant::Baseline, 0x3ed53754d9eb7b45u64),
            (OptimizationVariant::SatLut, 0x3ed38f3413f83c74),
            (OptimizationVariant::NpSmall, 0x3ed2245378c9f604),
        ] {
            let (model, job) = gathered_job_of(5, ModelConfig::tiny(0, 2).with_variant(variant));
            let latency = HwSimBackend::u200(&model).modeled_latency(&job);
            assert_eq!(latency.to_bits(), parent, "{variant:?}: {latency:e}");
        }
    }
}
