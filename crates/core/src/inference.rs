//! The batch inference engine — Algorithm 1 of the paper, in software.
//!
//! For every incoming batch of chronologically ordered edges the engine:
//!
//! 1. **sample** — reads each touched vertex's most-recent-`mr` neighbor
//!    list from the FIFO neighbor table;
//! 2. **memory** — consumes the cached mailbox messages and runs the GRU to
//!    produce updated vertex memory, then caches the new raw messages of the
//!    current batch (information-leak-safe ordering);
//! 3. **GNN** — computes the output embedding of every touched vertex with
//!    the configured attention aggregator and time encoder;
//! 4. **update** — writes the new memory back, checking each row's time
//!    against the vertex's stored update time, and records the new
//!    interactions in the neighbor table.
//!
//! Wall-clock time per stage (Table I), the workload that
//! [`StageOps::of`] prices into MAC/MEM counts (Tables I–II), and per-batch
//! latencies (Fig. 5) are collected as the stream is processed.

use crate::complexity::{BatchWorkload, OpCounts, StageOps};
use crate::memory::NodeMemory;
use crate::model::{EmbeddingJob, NeighborContext, NeighborRef, TgnModel};
use crate::profiling::{Stage, StageTimer, StageTimings};
use crate::stages::{self, SampledBatch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;
use tgnn_graph::{
    EventBatch, FifoSampler, InteractionEvent, NodeId, TemporalGraph, TemporalSampler, Timestamp,
};
use tgnn_tensor::{Float, Matrix, Workspace};

/// How the engine executes the per-batch computation.
///
/// The three f32 modes — `Serial`, `Batched` and `Parallel` — produce
/// **bit-identical embeddings**: the batched GEMMs and the parallel split
/// preserve each vertex's accumulation order exactly (asserted by the
/// engine's mode-equivalence tests).  They differ only in speed and in how
/// easy they are to reason about; the fourth, `Quantized`, trades a
/// measured accuracy budget for int8 kernels:
///
/// * [`ExecMode::Serial`] — the literal Algorithm-1 reference loop, one
///   vertex at a time on the blocked kernels.  Slowest; kept as the
///   deterministic baseline every optimisation is validated against.
/// * [`ExecMode::Batched`] — single-threaded hot path: one packed GEMM per
///   weight matrix per batch, all temporaries from a reusable [`Workspace`]
///   (no hot-path allocation).
/// * [`ExecMode::Parallel`] — the batched pipeline sharded over touched
///   vertices across rayon workers, one workspace per worker.  The memory
///   and update stages stay sequential, preserving the chronological commit
///   order.  Falls back to `Batched` when only one thread is available or
///   the batch is too small to shard.
/// * [`ExecMode::Quantized`] — the batched pipeline with an int8 weight set
///   attached (see [`crate::quantized`]): the large projections run on the
///   packed int8 GEMM with calibrated activation scales.  The **one mode
///   that is not bit-identical** to the serial reference — its embedding
///   error is measured (cosine similarity / max-abs), not zero, which is why
///   attaching the weights is an explicit step
///   ([`Self::with_quantized`](InferenceEngine::with_quantized)).  A model
///   that carries an int8 weight set always runs it on the batched path, so
///   [`InferenceEngine::new`] picks this mode for such a model and the
///   batched f32 modes refuse it — the mode never mislabels the kernels.
///   It runs on one thread: rayon sharding is `Parallel`'s alone.
///
/// # Selection guide
///
/// Debugging or validating numerics → `Serial`.  Otherwise `Batched` or
/// `Parallel` (the default; it degrades to `Batched` on one core), by
/// model: on 2 vCPUs at the paper's dimensions, `Parallel` ran a
/// GNN-bound Baseline model at 1.46× `Batched`'s throughput but the
/// co-designed +NP(M) model at 0.96× (median of 10 alternating pairs, first
/// 60 k Wikipedia-like events, batches of 200).  Throughput-bound
/// serving that can afford a measured, gated accuracy budget →
/// calibrate + quantize, then `Quantized` (see [`crate::quantized`]):
///
/// ```
/// use tgnn_core::{ExecMode, InferenceEngine, ModelConfig, TgnModel};
/// # let graph = tgnn_data::generate(&tgnn_data::tiny(5));
/// # let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
/// # let model = TgnModel::new(cfg, &mut tgnn_tensor::TensorRng::new(5));
/// # let batches = tgnn_graph::batching::fixed_size_batches(graph.events(), 64);
/// // The three f32 modes are interchangeable bit-for-bit; pick by host.
/// let mut reference: Option<Vec<_>> = None;
/// for mode in [ExecMode::Serial, ExecMode::Batched, ExecMode::Parallel] {
///     let mut engine = InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(mode);
///     let mut embeddings = Vec::new();
///     for batch in &batches {
///         embeddings.extend(engine.process_batch(batch, &graph).embeddings);
///     }
///     match &reference {
///         None => reference = Some(embeddings),
///         Some(r) => assert_eq!(r, &embeddings, "f32 modes are bit-identical"),
///     }
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Reference per-vertex loop (seed behaviour).
    Serial,
    /// Batched GEMMs on one thread, allocation-free.
    Batched,
    /// Batched GEMMs sharded across rayon workers.
    #[default]
    Parallel,
    /// Batched int8 GEMMs with calibrated static activation scales.
    Quantized,
}

/// Result of processing one batch: the embedding of every touched vertex.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// Embeddings keyed by vertex, in order of first appearance in the batch.
    pub embeddings: Vec<(NodeId, Vec<Float>)>,
    /// Wall-clock latency of the batch (receive → all embeddings produced).
    pub latency: Duration,
}

impl BatchOutput {
    /// Looks up the embedding of a vertex.
    pub fn embedding_of(&self, v: NodeId) -> Option<&[Float]> {
        self.embeddings
            .iter()
            .find(|(id, _)| *id == v)
            .map(|(_, e)| e.as_slice())
    }
}

/// Aggregate report over a processed stream — the quantities plotted in
/// Fig. 5 and reported in Tables I–II.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Number of edges processed.
    pub num_events: usize,
    /// Number of dynamic node embeddings generated.
    pub num_embeddings: usize,
    /// Number of batches processed.
    pub num_batches: usize,
    /// Total execution time.
    pub total_time: Duration,
    /// Per-batch latencies.
    pub batch_latencies: Vec<Duration>,
    /// Per-stage wall-clock breakdown.
    pub timings: StageTimings,
    /// Accumulated operation counts.
    pub ops: StageOps,
}

impl InferenceReport {
    /// Throughput in edges per second (Eq. 3).
    pub fn throughput_eps(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.num_events as f64 / self.total_time.as_secs_f64()
        }
    }

    /// Mean per-batch latency.
    pub fn mean_latency(&self) -> Duration {
        if self.batch_latencies.is_empty() {
            Duration::ZERO
        } else {
            self.batch_latencies.iter().sum::<Duration>() / self.batch_latencies.len() as u32
        }
    }

    /// Operation counts per generated embedding (the per-embedding kMAC/kMEM
    /// numbers of Table I).
    pub fn ops_per_embedding(&self) -> OpCounts {
        if self.num_embeddings == 0 {
            OpCounts::default()
        } else {
            self.ops.total() / self.num_embeddings as u64
        }
    }
}

/// The inference engine: model + persistent vertex state.
#[derive(Debug)]
pub struct InferenceEngine {
    model: TgnModel,
    memory: NodeMemory,
    sampler: FifoSampler,
    /// What the stages did since construction / reset, each count recorded
    /// by the stage that did the work; [`Self::ops`] prices it.
    workload: BatchWorkload,
    /// Written-back memory rows earlier than their vertex's stored update
    /// time.
    backward_commits: usize,
    timings: StageTimings,
    mode: ExecMode,
    /// Scratch for the single-threaded hot path (memory stage + batched GNN).
    ws: Workspace,
    /// Per-worker scratch for [`ExecMode::Parallel`]; persists across batches
    /// so the steady state stays allocation-free.
    par_workspaces: Vec<Workspace>,
    /// Activation recorder attached during an int8 calibration pass
    /// ([`crate::quantized::calibrate_activations`]); `None` in production.
    observer: Option<Box<tgnn_quant::ActivationRecorder>>,
}

impl InferenceEngine {
    /// Creates an engine for a graph with `num_nodes` vertices, in the
    /// default mode — [`ExecMode::Quantized`] when the model carries an
    /// int8 weight set, since that is what its batched forwards run.
    pub fn new(model: TgnModel, num_nodes: usize) -> Self {
        let memory = NodeMemory::for_config(num_nodes, &model.config);
        let sampler = FifoSampler::new(num_nodes, model.config.sampled_neighbors);
        let mode = if model.is_quantized() {
            ExecMode::Quantized
        } else {
            ExecMode::default()
        };
        Self {
            model,
            memory,
            sampler,
            workload: BatchWorkload::default(),
            backward_commits: 0,
            timings: StageTimings::default(),
            mode,
            ws: Workspace::new(),
            par_workspaces: Vec::new(),
            observer: None,
        }
    }

    /// Builder-style execution-mode override.
    ///
    /// # Panics
    /// As [`Self::set_mode`]: when the mode does not name the kernels the
    /// model would run — reporting one datapath while running the other
    /// would silently misattribute every measurement.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.set_mode(mode);
        self
    }

    /// Attaches an int8 weight set to the model and switches the engine to
    /// [`ExecMode::Quantized`] — the serving entry point of the quantized
    /// path (see [`crate::quantized`]).
    pub fn with_quantized(mut self, q: std::sync::Arc<crate::quantized::QuantizedTgn>) -> Self {
        self.model.attach_quantized(q);
        self.mode = ExecMode::Quantized;
        self
    }

    /// Attaches an activation recorder to the batched forward paths (used by
    /// the int8 calibration pass; negligible overhead, one call per batch
    /// per hook).
    pub fn set_observer(&mut self, observer: Box<tgnn_quant::ActivationRecorder>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the activation recorder, if one was attached.
    pub fn take_observer(&mut self) -> Option<Box<tgnn_quant::ActivationRecorder>> {
        self.observer.take()
    }

    /// Switches the execution mode (takes effect from the next batch).
    ///
    /// # Panics
    /// Panics when asked for [`ExecMode::Quantized`] without an attached
    /// int8 weight set — attach one first ([`Self::with_quantized`] does
    /// both in order) — and when asked for [`ExecMode::Batched`] or
    /// [`ExecMode::Parallel`] *with* one: those name the f32 kernels, but an
    /// attached set runs int8 on every batched path.
    pub fn set_mode(&mut self, mode: ExecMode) {
        let quantized = self.model.is_quantized();
        assert!(
            mode != ExecMode::Quantized || quantized,
            "ExecMode::Quantized requires an attached int8 weight set \
             (InferenceEngine::with_quantized / TgnModel::attach_quantized)"
        );
        assert!(
            !matches!(mode, ExecMode::Batched | ExecMode::Parallel) || !quantized,
            "ExecMode::{mode:?} runs the f32 kernels, but the model carries an \
             int8 weight set: TgnModel::detach_quantized it first, or ask for \
             ExecMode::Quantized"
        );
        self.mode = mode;
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Read access to the model.
    pub fn model(&self) -> &TgnModel {
        &self.model
    }

    /// Read access to the vertex memory.
    pub fn memory(&self) -> &NodeMemory {
        &self.memory
    }

    /// Memory rows written back so far (warm-up included).
    pub fn commits(&self) -> usize {
        self.workload.memory_updates
    }

    /// Written-back rows that were earlier than their vertex's stored update
    /// time — zero while the engine commits in chronological order (asserted
    /// by the integration tests).
    pub fn backward_commits(&self) -> usize {
        self.backward_commits
    }

    /// Number of embeddings generated so far.
    pub fn embeddings_generated(&self) -> usize {
        self.workload.embeddings
    }

    /// Resets all vertex state (model weights are kept).
    pub fn reset_state(&mut self) {
        let num_nodes = self.memory.num_nodes();
        self.memory = NodeMemory::for_config(num_nodes, &self.model.config);
        self.sampler = FifoSampler::new(num_nodes, self.model.config.sampled_neighbors);
        self.workload = BatchWorkload::default();
        self.backward_commits = 0;
        self.timings = StageTimings::default();
    }

    /// Warm-up: replays a chronological event prefix updating only the vertex
    /// state (memory via the GRU, mailbox, neighbor table) without computing
    /// embeddings.  Used to position the engine at the start of the test
    /// split, as the paper does before measuring inference performance.
    pub fn warm_up(&mut self, events: &[InteractionEvent], graph: &TemporalGraph) {
        for chunk in events.chunks(256) {
            self.advance_state(EventBatch::new(chunk.to_vec()), graph);
        }
    }

    /// Processes one batch of new edges and returns the embeddings of every
    /// touched vertex (Algorithm 1) — the synchronous composition of the four
    /// stage entry points ([`Self::stage_sample`], [`Self::stage_memory`],
    /// [`Self::stage_gnn`], [`Self::stage_update`]).
    pub fn process_batch(&mut self, batch: &EventBatch, graph: &TemporalGraph) -> BatchOutput {
        if batch.is_empty() {
            return BatchOutput::default();
        }
        let wall_start = std::time::Instant::now();
        let mut timer = StageTimer::new();

        timer.start(Stage::Sample);
        let sampled = self.stage_sample(batch);

        timer.start(Stage::Memory);
        let updated_memory = self.stage_memory(&sampled, graph);

        timer.start(Stage::Gnn);
        let embeddings = self.stage_gnn(&sampled, &updated_memory, graph);

        timer.start(Stage::Update);
        self.stage_update(&sampled, &updated_memory);
        timer.stop();

        self.timings.merge(&timer.finish());
        BatchOutput {
            embeddings,
            latency: wall_start.elapsed(),
        }
    }

    /// Stage 1: samples the supporting temporal neighbors of every touched
    /// vertex from the FIFO neighbor table into one flat arena, and decides
    /// from their Δt's which of them the GNN stage aggregates.
    pub fn stage_sample(&mut self, batch: &EventBatch) -> SampledBatch {
        let k = self.model.config.sampled_neighbors;
        let sampler = &self.sampler;
        let sampled = SampledBatch::assemble(batch.clone(), k, &self.model, |v, t, k, out| {
            sampler.sample_into(v, t, k, out)
        });
        self.workload.neighbors_scored += sampled.total_sampled();
        sampled
    }

    /// Stage 2: consumes the pending mailbox messages of the touched vertices
    /// and runs the GRU on them, then caches the raw messages generated by
    /// the current batch (Eq. 4–5, information-leak-safe ordering).  Returns
    /// the new memory per vertex — not yet written back; that is
    /// [`Self::stage_update`]'s job.
    pub fn stage_memory(
        &mut self,
        sampled: &SampledBatch,
        graph: &TemporalGraph,
    ) -> HashMap<NodeId, Vec<Float>> {
        let updated_memory = self.update_memories(&sampled.touched, &sampled.query_times, graph);
        for e in sampled.batch.events() {
            // The message names its edge; its feature is read when the
            // message is consumed, so check the edge at its own event.
            let edges = graph.num_events();
            assert!(
                (e.edge_id as usize) < edges,
                "event names edge {} of {edges}",
                e.edge_id
            );
            self.memory
                .cache_interaction_messages(e.src, e.dst, e.edge_id, e.timestamp);
        }
        updated_memory
    }

    /// Stage 3: computes the output embedding of every touched vertex with
    /// the configured attention aggregator, in `touched` order.  Reads the
    /// pre-write-back memory table for neighbor rows, exactly like the serial
    /// reference.
    pub fn stage_gnn(
        &mut self,
        sampled: &SampledBatch,
        updated_memory: &HashMap<NodeId, Vec<Float>>,
        graph: &TemporalGraph,
    ) -> Vec<(NodeId, Vec<Float>)> {
        let mut embeddings = Vec::with_capacity(sampled.len());
        match self.mode {
            ExecMode::Serial => {
                for (i, &v) in sampled.touched.iter().enumerate() {
                    let query_time = sampled.query_times[i];
                    let contexts =
                        self.neighbor_contexts(sampled.neighbors_of(i), query_time, graph);
                    let node_feature = if self.model.config.node_feature_dim > 0 {
                        Some(graph.node_feature(v))
                    } else {
                        None
                    };
                    let memory_row = updated_memory
                        .get(&v)
                        .cloned()
                        .unwrap_or_else(|| self.memory.memory_of(v).to_vec());
                    let out = self
                        .model
                        .compute_embedding(&memory_row, node_feature, &contexts);
                    embeddings.push((v, out.embedding));
                }
            }
            ExecMode::Batched | ExecMode::Parallel | ExecMode::Quantized => {
                let outputs = self.gnn_stage_fast(sampled, updated_memory, graph);
                embeddings.extend(sampled.touched.iter().copied().zip(outputs));
            }
        }
        self.workload.embeddings += embeddings.len();
        self.workload.neighbors_fetched += sampled.selection().kept.len();
        embeddings
    }

    /// Stage 4: writes the updated memory back — counting each row whose
    /// time is earlier than its vertex's stored update time
    /// ([`Self::backward_commits`]) — and records the batch's interactions
    /// in the neighbor table.
    pub fn stage_update(
        &mut self,
        sampled: &SampledBatch,
        updated_memory: &HashMap<NodeId, Vec<Float>>,
    ) {
        for (&v, new_mem) in updated_memory {
            let t = sampled.query_time_of(v);
            self.backward_commits += usize::from(!self.memory.commit_memory(v, new_mem, t));
        }
        for e in sampled.batch.events() {
            self.sampler.observe(e);
        }
        self.workload.memory_updates += updated_memory.len();
        self.workload.edges += sampled.batch.len();
    }

    /// Runs a full event stream split into fixed-size batches and returns the
    /// aggregate report.
    pub fn run_stream(
        &mut self,
        events: &[InteractionEvent],
        graph: &TemporalGraph,
        batch_size: usize,
    ) -> InferenceReport {
        let batches = tgnn_graph::batching::fixed_size_batches(events, batch_size);
        self.run_batches(&batches, graph)
    }

    /// Runs an explicit batch sequence (e.g. 15-minute windows for the
    /// real-time experiment of Fig. 5) and returns the aggregate report.
    pub fn run_batches(
        &mut self,
        batches: &[EventBatch],
        graph: &TemporalGraph,
    ) -> InferenceReport {
        let workload_before = self.workload;
        let timings_before = self.timings;
        let start = std::time::Instant::now();
        let mut latencies = Vec::with_capacity(batches.len());
        let mut events = 0;
        for batch in batches {
            let out = self.process_batch(batch, graph);
            latencies.push(out.latency);
            events += batch.len();
        }
        let total_time = start.elapsed();
        let workload = self.workload - workload_before;

        let mut timings = self.timings;
        timings.sample -= timings_before.sample;
        timings.memory -= timings_before.memory;
        timings.gnn -= timings_before.gnn;
        timings.update -= timings_before.update;

        InferenceReport {
            num_events: events,
            num_embeddings: workload.embeddings,
            num_batches: batches.len(),
            total_time,
            batch_latencies: latencies,
            timings,
            ops: StageOps::of(&self.model.config, &workload),
        }
    }

    /// The workload processed since construction / reset (warm-up
    /// included): edges, memory rows committed, embeddings, neighbors
    /// scored and fetched.
    pub fn workload(&self) -> BatchWorkload {
        self.workload
    }

    /// Operation counts of [`Self::workload`] (Tables I–II).
    pub fn ops(&self) -> StageOps {
        StageOps::of(&self.model.config, &self.workload)
    }

    /// Accumulated stage timings since construction / reset.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    // ----- internals -------------------------------------------------------

    /// Consumes the pending mailbox messages of the touched vertices and runs
    /// the GRU on them, returning the new memory per vertex (not yet written
    /// back).  In the batched/parallel modes all temporaries come from the
    /// engine workspace and the GRU runs on the packed kernels; results are
    /// bit-identical to the serial reference.
    fn update_memories(
        &mut self,
        touched: &[NodeId],
        query_times: &[Timestamp],
        graph: &TemporalGraph,
    ) -> HashMap<NodeId, Vec<Float>> {
        let cfg = &self.model.config;
        if self.mode == ExecMode::Serial {
            // Reference path: per-call allocations, blocked GEMM.
            let with_messages: Vec<(NodeId, crate::memory::Message)> = (touched.iter())
                .filter_map(|&v| Some((v, self.memory.take_message(v)?.clone())))
                .collect();
            if with_messages.is_empty() {
                return HashMap::new();
            }
            let rows = with_messages.len();
            let mut messages = Matrix::zeros(rows, cfg.message_dim());
            let mut memories = Matrix::zeros(rows, cfg.memory_dim);
            let dts: Vec<Float> = with_messages
                .iter()
                .map(|(v, msg)| (msg.event_time - self.memory.last_update(*v)).max(0.0) as Float)
                .collect();
            let encodings = self.model.encode_time(&dts);
            for (i, (v, msg)) in with_messages.iter().enumerate() {
                let assembled = msg.assemble(graph.edge_feature(msg.edge_id), encodings.row(i));
                messages.set_row(i, &assembled);
                memories.set_row(i, self.memory.memory_of(*v));
            }
            let updated = self.model.update_memory(&messages, &memories);
            return with_messages
                .iter()
                .enumerate()
                .map(|(i, (v, _))| (*v, updated.row_to_vec(i)))
                .collect();
        }

        // Hot path: the shared allocation-free memory stage (also used by the
        // streaming pipeline) on this engine's workspace.
        let obs = self
            .observer
            .as_deref_mut()
            .map(|o| o as &mut dyn tgnn_quant::ActivationObserver);
        let updated = stages::run_memory_stage_obs(
            &self.model,
            graph,
            &mut self.memory,
            touched,
            query_times,
            &mut self.ws,
            obs,
        );
        let out = updated.iter().map(|(v, row)| (v, row.to_vec())).collect();
        updated.recycle(&mut self.ws);
        out
    }

    /// The batched / parallel GNN stage: builds zero-copy [`EmbeddingJob`]s
    /// pointing into the memory table and the graph's feature storage — for
    /// the neighbors the sampling stage kept, nothing else is touched — then
    /// runs [`TgnModel::embeddings_selected`]: on this thread's workspace in
    /// [`ExecMode::Batched`], sharded over rayon workers with per-worker
    /// workspaces in [`ExecMode::Parallel`].  Output order matches `touched`.
    fn gnn_stage_fast(
        &mut self,
        sampled: &SampledBatch,
        updated_memory: &HashMap<NodeId, Vec<Float>>,
        graph: &TemporalGraph,
    ) -> Vec<Vec<Float>> {
        let model = &self.model;
        let memory = &self.memory;
        let cfg = &model.config;
        let touched = &sampled.touched;
        let sel = sampled.selection();

        // Flat neighbor-reference arena (one Vec for the whole batch instead
        // of per-vertex context clones), indexed by the selection's ranges.
        let mut nbr_refs: Vec<NeighborRef<'_>> = Vec::with_capacity(sel.kept.len());
        for i in 0..touched.len() {
            let (entries, dts) = (sampled.neighbors_of(i), sampled.delta_t_of(i));
            nbr_refs.extend(sel.kept_of(i).iter().map(|&j| {
                let e = &entries[j as usize];
                NeighborRef {
                    memory: memory.memory_of(e.neighbor),
                    edge_feature: graph.edge_feature(e.edge_id),
                    delta_t: dts[j as usize],
                }
            }));
        }
        let jobs: Vec<EmbeddingJob<'_>> = touched
            .iter()
            .zip(&sel.ranges)
            .map(|(&v, &(start, len))| EmbeddingJob {
                memory: updated_memory
                    .get(&v)
                    .map(|m| m.as_slice())
                    .unwrap_or_else(|| memory.memory_of(v)),
                node_feature: if cfg.node_feature_dim > 0 {
                    Some(graph.node_feature(v))
                } else {
                    None
                },
                neighbors: &nbr_refs[start..start + len],
            })
            .collect();
        let rows_of = |embeddings: Matrix, ws: &mut Workspace| {
            let rows = (0..embeddings.rows()).map(|i| embeddings.row_to_vec(i));
            let rows: Vec<Vec<Float>> = rows.collect();
            ws.recycle_matrix(embeddings);
            rows
        };

        // A calibration observer must see every batch, so its presence
        // forces the single-thread path even in ExecMode::Parallel —
        // otherwise large batches would shard across rayon workers and
        // their activations would silently go unrecorded, biasing the
        // calibrated ranges.
        if let Some(o) = self.observer.as_deref_mut() {
            let out = model.embeddings_selected(&jobs, (sel, 0), &mut self.ws, Some(o));
            return rows_of(out, &mut self.ws);
        }
        let threads = rayon::current_num_threads();
        if self.mode != ExecMode::Parallel || threads <= 1 || jobs.len() < 2 * threads {
            let out = model.embeddings_selected(&jobs, (sel, 0), &mut self.ws, None);
            return rows_of(out, &mut self.ws);
        }

        // Shard over rayon workers, one persistent workspace per worker.
        let chunk_size = jobs.len().div_ceil(threads);
        let num_chunks = jobs.len().div_ceil(chunk_size);
        if self.par_workspaces.len() < num_chunks {
            self.par_workspaces.resize_with(num_chunks, Workspace::new);
        }
        let mut results: Vec<Vec<Vec<Float>>> = Vec::new();
        results.resize_with(num_chunks, Vec::new);
        let tasks: Vec<_> = jobs
            .chunks(chunk_size)
            .enumerate()
            .zip(self.par_workspaces.iter_mut())
            .zip(results.iter_mut())
            .collect();
        tasks.into_par_iter().for_each(|(((c, chunk), ws), out)| {
            let embeddings = model.embeddings_selected(chunk, (sel, c * chunk_size), ws, None);
            *out = rows_of(embeddings, ws);
        });
        results.into_iter().flatten().collect()
    }

    /// Builds the [`NeighborContext`] list for a vertex from its sampled
    /// neighbor entries.
    fn neighbor_contexts(
        &mut self,
        entries: &[tgnn_graph::NeighborEntry],
        query_time: Timestamp,
        graph: &TemporalGraph,
    ) -> Vec<NeighborContext> {
        entries
            .iter()
            .map(|e| NeighborContext {
                memory: self.memory.memory_of(e.neighbor).to_vec(),
                edge_feature: graph.edge_feature(e.edge_id).to_vec(),
                delta_t: (query_time - e.timestamp).max(0.0) as Float,
            })
            .collect()
    }

    /// Advances the vertex state over a batch without producing embeddings
    /// (used by [`Self::warm_up`]) — the state-only step the streaming
    /// server's warm-up and recovery run: no neighbor is sampled, then the
    /// memory and update stages.
    pub fn advance_state(&mut self, batch: EventBatch, graph: &TemporalGraph) {
        if batch.is_empty() {
            return;
        }
        let sampled = SampledBatch::assemble(batch, 0, &self.model, |_, _, _, _| {});
        let updated = self.stage_memory(&sampled, graph);
        self.stage_update(&sampled, &updated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, OptimizationVariant, TimeEncoderKind};
    use tgnn_data::{generate, tiny};
    use tgnn_tensor::TensorRng;

    fn tiny_setup(variant: OptimizationVariant) -> (TgnModel, TemporalGraph) {
        let graph = generate(&tiny(11));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(variant);
        let mut rng = TensorRng::new(3);
        let mut model = TgnModel::new(cfg, &mut rng);
        if model.config.time_encoder == TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        (model, graph)
    }

    #[test]
    fn batch_produces_one_embedding_per_touched_vertex() {
        let (model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let batch = EventBatch::new(graph.events()[..32].to_vec());
        let expected = batch.touched_vertices().len();
        let out = engine.process_batch(&batch, &graph);
        assert_eq!(out.embeddings.len(), expected);
        assert_eq!(engine.embeddings_generated(), expected);
        let first_vertex = out.embeddings[0].0;
        assert!(out.embedding_of(first_vertex).is_some());
        assert!(out.embedding_of(u32::MAX).is_none());
    }

    #[test]
    fn memory_evolves_and_commits_stay_chronological() {
        let (model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let report = engine.run_stream(&graph.events()[..200], &graph, 25);
        assert_eq!(report.num_events, 200);
        assert_eq!(report.num_batches, 8);
        assert!(report.num_embeddings > 0);
        assert_eq!(engine.backward_commits(), 0);
        assert!(engine.commits() > 0);
        // Some vertex memory must have moved away from zero.
        let moved = (0..graph.num_nodes() as u32)
            .any(|v| engine.memory().memory_of(v).iter().any(|&x| x.abs() > 1e-6));
        assert!(moved, "node memory never updated");
        assert!(report.throughput_eps() > 0.0);
        assert!(report.mean_latency() > Duration::ZERO);
    }

    #[test]
    fn a_commit_earlier_than_the_stored_update_time_counts_one_backward_commit() {
        let (model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let ev = InteractionEvent::new;
        // A vertex commits once it has a pending message: 0 and 1 get one at
        // t = 1 and commit at t = 10.
        for batch in [vec![ev(0, 1, 0, 1.0)], vec![ev(0, 1, 1, 10.0)]] {
            engine.process_batch(&EventBatch::new(batch), &graph);
        }
        assert_eq!((engine.commits(), engine.backward_commits()), (2, 0));
        // Vertex 0 again, at t = 5: one backwards commit (2 has no message).
        engine.process_batch(&EventBatch::new(vec![ev(0, 2, 2, 5.0)]), &graph);
        assert_eq!((engine.commits(), engine.backward_commits()), (3, 1));
        engine.reset_state();
        assert_eq!((engine.commits(), engine.backward_commits()), (0, 0));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let out = engine.process_batch(&EventBatch::empty(), &graph);
        assert!(out.embeddings.is_empty());
        assert_eq!(engine.embeddings_generated(), 0);
    }

    #[test]
    fn op_counters_track_variant_differences() {
        let (baseline_model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let (pruned_model, _) = tiny_setup(OptimizationVariant::NpSmall);
        let events = &graph.events()[..300];

        let mut base_engine = InferenceEngine::new(baseline_model, graph.num_nodes());
        let base_report = base_engine.run_stream(events, &graph, 30);
        let mut pruned_engine = InferenceEngine::new(pruned_model, graph.num_nodes());
        let pruned_report = pruned_engine.run_stream(events, &graph, 30);

        assert_eq!(base_report.num_embeddings, pruned_report.num_embeddings);
        assert!(
            pruned_report.ops.total().macs < base_report.ops.total().macs,
            "pruned model must do less compute"
        );
        assert!(
            pruned_report.ops.gnn.mems < base_report.ops.gnn.mems,
            "pruned model must fetch fewer neighbor features"
        );
        assert!(base_report.ops_per_embedding().macs > 0);
    }

    #[test]
    fn warm_up_advances_state_without_embeddings() {
        let (model, graph) = tiny_setup(OptimizationVariant::Sat);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        engine.warm_up(graph.train_events(), &graph);
        assert_eq!(engine.embeddings_generated(), 0);
        assert!(engine.memory().pending_messages() > 0);
        assert_eq!(engine.backward_commits(), 0);
        assert!(
            engine.commits() > 0,
            "warm-up commits through the update stage"
        );
        // After warm-up, processing the validation events still works.
        let batch = EventBatch::new(graph.val_events().to_vec());
        let out = engine.process_batch(&batch, &graph);
        assert!(!out.embeddings.is_empty());
    }

    #[test]
    fn reset_clears_state_but_keeps_weights() {
        let (model, graph) = tiny_setup(OptimizationVariant::Baseline);
        let before = model.num_parameters();
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let _ = engine.run_stream(&graph.events()[..100], &graph, 20);
        engine.reset_state();
        assert_eq!(engine.embeddings_generated(), 0);
        assert_eq!(engine.ops().total().macs, 0);
        assert_eq!(engine.model().num_parameters(), before);
        assert_eq!(engine.memory().pending_messages(), 0);
    }

    #[test]
    fn all_exec_modes_produce_bitwise_identical_embeddings() {
        for variant in [
            OptimizationVariant::Baseline,
            OptimizationVariant::Sat,
            OptimizationVariant::NpMedium,
        ] {
            let (model, graph) = tiny_setup(variant);
            let events = &graph.events()[..240];

            let mut outputs: Vec<Vec<(NodeId, Vec<Float>)>> = Vec::new();
            let mut commits = Vec::new();
            for mode in [ExecMode::Serial, ExecMode::Batched, ExecMode::Parallel] {
                let mut engine =
                    InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(mode);
                let mut all = Vec::new();
                for chunk in events.chunks(30) {
                    let batch = EventBatch::new(chunk.to_vec());
                    let out = engine.process_batch(&batch, &graph);
                    all.extend(out.embeddings);
                }
                assert_eq!(engine.backward_commits(), 0, "{variant:?} {mode:?}");
                commits.push(engine.commits());
                outputs.push(all);
            }

            let serial = &outputs[0];
            for (mode_idx, other) in outputs.iter().enumerate().skip(1) {
                assert_eq!(serial.len(), other.len(), "{variant:?} mode {mode_idx}");
                for ((v_a, emb_a), (v_b, emb_b)) in serial.iter().zip(other) {
                    assert_eq!(v_a, v_b, "{variant:?} vertex order diverged");
                    assert_eq!(
                        emb_a, emb_b,
                        "{variant:?}: embeddings of vertex {v_a} differ between Serial and mode {mode_idx}"
                    );
                }
            }
            assert!(commits.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn manual_stage_composition_matches_process_batch() {
        let (model, graph) = tiny_setup(OptimizationVariant::Sat);
        let mut whole =
            InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
        let mut staged =
            InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Batched);
        for chunk in graph.events()[..180].chunks(40) {
            let batch = EventBatch::new(chunk.to_vec());
            let out = whole.process_batch(&batch, &graph);
            let sampled = staged.stage_sample(&batch);
            let updated = staged.stage_memory(&sampled, &graph);
            let embeddings = staged.stage_gnn(&sampled, &updated, &graph);
            staged.stage_update(&sampled, &updated);
            assert_eq!(out.embeddings, embeddings);
        }
        assert_eq!(staged.backward_commits(), 0);
        assert_eq!(whole.embeddings_generated(), staged.embeddings_generated());
    }

    #[test]
    fn batched_mode_steady_state_is_allocation_free_in_gemm_scratch() {
        let (model, graph) = tiny_setup(OptimizationVariant::Sat);
        let mut engine =
            InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Batched);
        // Warm up the workspace on a few batches.
        for chunk in graph.events()[..300].chunks(50) {
            let _ = engine.process_batch(&EventBatch::new(chunk.to_vec()), &graph);
        }
        let warm = engine.ws.heap_allocs();
        for chunk in graph.events()[300..600].chunks(50) {
            let _ = engine.process_batch(&EventBatch::new(chunk.to_vec()), &graph);
        }
        // The workspace may only grow if a later batch is strictly larger
        // than anything seen during warm-up; with fixed-size batches the
        // growth must be tiny compared to the number of kernel invocations.
        let growth = engine.ws.heap_allocs() - warm;
        assert!(
            growth <= 4,
            "workspace kept allocating in steady state: {growth} new allocs"
        );
    }

    #[test]
    fn report_per_batch_latency_count_matches_batches() {
        let (model, graph) = tiny_setup(OptimizationVariant::NpMedium);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let batches = tgnn_graph::batching::fixed_size_batches(&graph.events()[..120], 17);
        let report = engine.run_batches(&batches, &graph);
        assert_eq!(report.batch_latencies.len(), batches.len());
        assert_eq!(report.num_events, 120);
    }
}
