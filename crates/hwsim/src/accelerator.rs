//! The full accelerator simulation: functional execution identical to the
//! software reference plus timing from the pipeline and Updater models.
//!
//! Functionally, the accelerator runs Algorithm 1 exactly like the software
//! [`tgnn_core::InferenceEngine`] (the hardware changes *where* work happens,
//! not *what* is computed), so the simulator wraps that engine for the
//! numerical results and drives the timing models with the batch's
//! workload as the engine recorded it ([`InferenceEngine::workload`]: how
//! many vertices had pending messages, how many neighbors were scored and
//! fetched after pruning) plus how many redundant updates the Updater
//! squashed.

use crate::ddr::DdrModel;
use crate::design::DesignConfig;
use crate::device::FpgaDevice;
use crate::pipeline::PipelineModel;
use crate::updater::Updater;
use serde::{Deserialize, Serialize};
use tgnn_core::{BatchWorkload, InferenceEngine, TgnModel};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};

/// Timing result of one user-visible batch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimulatedBatch {
    /// The batch's workload as the functional engine recorded it.
    pub workload: BatchWorkload,
    /// Simulated latency on the accelerator, seconds.
    pub latency: f64,
    /// Redundant vertex writes eliminated by the Updater.
    pub redundant_writes_eliminated: usize,
}

/// Aggregate report over a simulated stream (the series plotted in Fig. 5/6).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimulatedStreamReport {
    pub device: String,
    pub design: String,
    pub num_events: usize,
    pub num_embeddings: usize,
    pub batches: Vec<SimulatedBatch>,
    /// Total simulated execution time, seconds.
    pub total_time: f64,
}

impl SimulatedStreamReport {
    /// Throughput in edges per second (Eq. 3) under the simulated timing.
    pub fn throughput_eps(&self) -> f64 {
        if self.total_time > 0.0 {
            self.num_events as f64 / self.total_time
        } else {
            0.0
        }
    }

    /// Mean simulated batch latency, seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.batches.iter().map(|b| b.latency).sum::<f64>() / self.batches.len() as f64
        }
    }
}

/// The accelerator simulator.
pub struct AcceleratorSim {
    engine: InferenceEngine,
    pipeline: PipelineModel,
    device: FpgaDevice,
    design: DesignConfig,
}

impl AcceleratorSim {
    /// Builds a simulator for a model deployed on a device with a design
    /// configuration.
    ///
    /// # Panics
    /// Panics if the design configuration is invalid.
    pub fn new(
        model: TgnModel,
        num_nodes: usize,
        device: FpgaDevice,
        design: DesignConfig,
    ) -> Self {
        design
            .validate()
            .unwrap_or_else(|e| panic!("invalid DesignConfig: {e}"));
        let ddr = DdrModel::new_gbps(device.ddr_bandwidth_gbps);
        let pipeline = PipelineModel::new(design.clone(), model.config.clone(), ddr);
        let engine = InferenceEngine::new(model, num_nodes);
        Self {
            engine,
            pipeline,
            device,
            design,
        }
    }

    /// Access to the wrapped functional engine (e.g. to inspect embeddings or
    /// the commit log).
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Warm-up on a chronological prefix (no timing recorded).
    pub fn warm_up(&mut self, events: &[InteractionEvent], graph: &TemporalGraph) {
        self.engine.warm_up(events, graph);
    }

    /// Processes one user-visible batch: functional results from the
    /// reference engine, timing from the pipeline + Updater models.
    pub fn process_batch(&mut self, batch: &EventBatch, graph: &TemporalGraph) -> SimulatedBatch {
        let before = self.engine.workload();
        self.engine.process_batch(batch, graph);
        let workload = self.engine.workload() - before;

        // Updater simulation: edges are assigned to CUs round-robin; each
        // edge produces two vertex updates.
        let mut updater = Updater::new(
            (4 * self.design.num_cu).max(8),
            self.design.num_cu,
            3,
            self.design.redundant_write_elimination,
        );
        for (i, e) in batch.events().iter().enumerate() {
            let cu = i % self.design.num_cu;
            updater.receive(cu, e.src, e.timestamp);
            updater.receive(cu, e.dst, e.timestamp);
            if i % 2 == 1 {
                updater.commit_cycle();
            }
        }
        updater.drain();
        debug_assert!(updater.verify_chronological());

        let workloads = self.pipeline.split_workload(&workload);
        let mut latency = self.pipeline.batch_latency(&workloads);
        // Updater drain cycles add to the tail latency.
        latency += updater.stats().scan_cycles as f64 * self.design.clock_period();

        SimulatedBatch {
            workload,
            latency,
            redundant_writes_eliminated: updater.stats().invalidated,
        }
    }

    /// Simulates a full stream split into fixed-size batches.
    pub fn simulate_stream(
        &mut self,
        events: &[InteractionEvent],
        graph: &TemporalGraph,
        batch_size: usize,
    ) -> SimulatedStreamReport {
        let batches = tgnn_graph::batching::fixed_size_batches(events, batch_size);
        self.simulate_batches(&batches, graph)
    }

    /// Simulates an explicit batch sequence (e.g. 15-minute windows).
    pub fn simulate_batches(
        &mut self,
        batches: &[EventBatch],
        graph: &TemporalGraph,
    ) -> SimulatedStreamReport {
        let mut results = Vec::with_capacity(batches.len());
        let mut total_time = 0.0;
        let mut events = 0;
        let mut embeddings = 0;
        for batch in batches {
            let sim = self.process_batch(batch, graph);
            total_time += sim.latency;
            events += sim.workload.edges;
            embeddings += sim.workload.embeddings;
            results.push(sim);
        }
        SimulatedStreamReport {
            device: self.device.name.clone(),
            design: self.design.name.clone(),
            num_events: events,
            num_embeddings: embeddings,
            batches: results,
            total_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_core::{GnnJobBatch, ModelConfig, OptimizationVariant};
    use tgnn_data::{generate, tiny};
    use tgnn_tensor::TensorRng;

    fn build(
        variant: OptimizationVariant,
        design: DesignConfig,
        device: FpgaDevice,
    ) -> (AcceleratorSim, TemporalGraph) {
        let graph = generate(&tiny(91));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(variant);
        let mut rng = TensorRng::new(1);
        let mut model = TgnModel::new(cfg, &mut rng);
        if model.config.time_encoder == tgnn_core::TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        (
            AcceleratorSim::new(model, graph.num_nodes(), device, design),
            graph,
        )
    }

    #[test]
    fn functional_results_match_reference_engine() {
        let graph = generate(&tiny(91));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
        let mut rng = TensorRng::new(5);
        let model = TgnModel::new(cfg, &mut rng);

        let mut reference = InferenceEngine::new(model.clone(), graph.num_nodes());
        let mut sim = AcceleratorSim::new(
            model,
            graph.num_nodes(),
            FpgaDevice::alveo_u200(),
            DesignConfig::u200(),
        );

        let batch = EventBatch::new(graph.events()[..40].to_vec());
        let ref_out = reference.process_batch(&batch, &graph);
        let _ = sim.process_batch(&batch, &graph);
        // The wrapped engine inside the simulator saw the identical stream,
        // so its vertex memory must match the reference bit for bit.
        for v in batch.touched_vertices() {
            assert_eq!(
                sim.engine().memory().memory_of(v),
                reference.memory().memory_of(v),
                "memory diverged for vertex {v}"
            );
        }
        assert_eq!(
            ref_out.embeddings.len(),
            sim.engine().embeddings_generated()
        );
    }

    #[test]
    fn each_batch_is_timed_on_the_sampled_and_kept_counts_of_a_node_feature_graph() {
        // Node features are GNN-stage reads that are not neighbor fetches,
        // and young vertices sample fewer than `k` neighbors: a workload
        // recovered from the op counters gets both wrong.
        let graph = generate(&tgnn_data::DatasetConfig {
            node_feature_dim: 6,
            edge_feature_dim: 0,
            ..tiny(91)
        });
        let shared = std::sync::Arc::new(graph.clone());
        for variant in [OptimizationVariant::Baseline, OptimizationVariant::NpSmall] {
            let cfg = ModelConfig {
                sampled_neighbors: 6,
                ..ModelConfig::tiny(graph.node_feature_dim(), 0)
            }
            .with_variant(variant);
            let mut model = TgnModel::new(cfg.clone(), &mut TensorRng::new(2));
            if model.config.time_encoder == tgnn_core::TimeEncoderKind::Lut {
                let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
                model.calibrate_lut(&deltas);
            }
            let mut reference = InferenceEngine::new(model.clone(), graph.num_nodes());
            let mut sim = AcceleratorSim::new(
                model,
                graph.num_nodes(),
                FpgaDevice::alveo_u200(),
                DesignConfig::u200(),
            );
            for chunk in graph.events()[..300].chunks(50) {
                let batch = EventBatch::new(chunk.to_vec());
                let sampled = reference.stage_sample(&batch);
                let updated = reference.stage_memory(&sampled, &graph);
                // A served job records the same workload as it is gathered.
                let job = GnnJobBatch::gather(&sampled, &updated, &shared, &cfg, |v, dst| {
                    dst.copy_from_slice(reference.memory().memory_of(v))
                });
                reference.stage_gnn(&sampled, &updated, &graph);
                reference.stage_update(&sampled, &updated);
                let expected = BatchWorkload {
                    edges: batch.len(),
                    memory_updates: updated.len(),
                    embeddings: sampled.len(),
                    neighbors_fetched: sampled.selection().kept.len(),
                    neighbors_scored: sampled.total_sampled(),
                };
                let simulated = sim.process_batch(&batch, &graph);
                assert_eq!(simulated.workload, expected, "{variant:?}");
                assert_eq!(job.workload(), expected, "{variant:?}");
            }
        }
    }

    #[test]
    fn u200_is_faster_than_zcu104_in_simulation() {
        let (mut u200, graph) = build(
            OptimizationVariant::NpMedium,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200(),
        );
        let (mut zcu, _) = build(
            OptimizationVariant::NpMedium,
            DesignConfig::zcu104(),
            FpgaDevice::zcu104(),
        );
        let events = &graph.events()[..400];
        let rep_u = u200.simulate_stream(events, &graph, 100);
        let rep_z = zcu.simulate_stream(events, &graph, 100);
        assert!(rep_u.throughput_eps() > rep_z.throughput_eps());
        assert!(rep_u.mean_latency() < rep_z.mean_latency());
        assert_eq!(rep_u.num_events, 400);
        assert_eq!(rep_u.batches.len(), 4);
    }

    #[test]
    fn pruned_models_are_faster_on_the_same_hardware() {
        let (mut full, graph) = build(
            OptimizationVariant::SatLut,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200(),
        );
        let (mut pruned, _) = build(
            OptimizationVariant::NpSmall,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200(),
        );
        let events = &graph.events()[..400];
        let rep_full = full.simulate_stream(events, &graph, 100);
        let rep_pruned = pruned.simulate_stream(events, &graph, 100);
        assert!(rep_pruned.total_time < rep_full.total_time);
    }

    #[test]
    fn updater_eliminates_redundant_writes_for_repeated_vertices() {
        let (mut sim, graph) = build(
            OptimizationVariant::NpMedium,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200(),
        );
        // Large batch on a small graph → many repeated vertices per batch.
        let batch = EventBatch::new(graph.events()[..200].to_vec());
        let out = sim.process_batch(&batch, &graph);
        assert!(out.redundant_writes_eliminated > 0);
        assert!(out.latency > 0.0);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let (mut sim, graph) = build(
            OptimizationVariant::Sat,
            DesignConfig::zcu104(),
            FpgaDevice::zcu104(),
        );
        let out = sim.process_batch(&EventBatch::empty(), &graph);
        assert_eq!(out.latency, 0.0);
        assert_eq!(out.workload, BatchWorkload::default());
    }
}
