//! Stage-level building blocks of Algorithm 1, factored out of the batch
//! engine so a pipeline can drive them independently.
//!
//! [`InferenceEngine::process_batch`](crate::InferenceEngine::process_batch)
//! composes four stages — sample, memory, GNN, update — in one synchronous
//! call.  The streaming server (`tgnn-serve`) runs the same stages as
//! separate workers connected by bounded queues, so the stage computations
//! live here as free functions / owned job types that both callers share:
//! using the *same* arithmetic path is what keeps the pipelined output
//! bit-identical to the serial engine.
//!
//! * [`SampledBatch`] — output of the sampling stage: touched vertices, query
//!   times, and all sampled neighbor entries in one flat arena (no per-vertex
//!   `Vec`s).
//! * [`run_memory_stage`] — the allocation-free GRU memory update over the
//!   vertices with pending mailbox messages, generic over how memory rows are
//!   read (direct [`NodeMemory`](crate::NodeMemory) access in the engine,
//!   per-shard locks in the pipeline).
//! * [`GnnJobBatch`] — a self-contained, owned input for the batched GNN
//!   stage: every memory row, edge feature, and Δt is copied out of the
//!   shared state, so the compute stage can run while the update stage
//!   commits the *next* batch's state.

use crate::config::ModelConfig;
use crate::memory::Message;
use crate::model::{EmbeddingJob, NeighborRef, TgnModel};
use std::collections::HashMap;
use tgnn_graph::{EventBatch, NeighborEntry, NodeId, TemporalGraph, Timestamp};
use tgnn_tensor::{Float, Matrix, Workspace};

/// Output of the sampling stage for one batch: the touched vertices in order
/// of first appearance, their query times, and the sampled supporting
/// neighbors of all vertices packed into one flat arena.
#[derive(Clone, Debug, Default)]
pub struct SampledBatch {
    /// The batch of events this sampling belongs to.
    pub batch: EventBatch,
    /// Touched vertices, deduplicated, in order of first appearance.
    pub touched: Vec<NodeId>,
    /// Query time (latest event timestamp within the batch) per touched
    /// vertex, aligned with `touched`.
    pub query_times: Vec<Timestamp>,
    /// Flat neighbor arena; `ranges` indexes into it.
    neighbors: Vec<NeighborEntry>,
    /// Per-touched-vertex `(start, len)` into `neighbors`.
    ranges: Vec<(usize, usize)>,
    /// Vertex → index into `touched`.
    index: HashMap<NodeId, usize>,
}

impl SampledBatch {
    /// Builds the sampled batch by calling `sample(v, t, k, out)` once per
    /// touched vertex, appending into the shared arena.  `sample` must append
    /// at most `k` entries, most recent first — exactly the contract of
    /// [`tgnn_graph::TemporalSampler::sample_into`].
    pub fn assemble(
        batch: EventBatch,
        k: usize,
        mut sample: impl FnMut(NodeId, Timestamp, usize, &mut Vec<NeighborEntry>),
    ) -> Self {
        let touched = batch.touched_vertices();
        let mut index = HashMap::with_capacity(touched.len());
        for (i, &v) in touched.iter().enumerate() {
            index.insert(v, i);
        }
        let mut query_times = vec![Timestamp::NEG_INFINITY; touched.len()];
        for e in batch.events() {
            for v in e.endpoints() {
                let slot = &mut query_times[index[&v]];
                if e.timestamp > *slot {
                    *slot = e.timestamp;
                }
            }
        }
        let mut neighbors = Vec::with_capacity(touched.len() * k);
        let mut ranges = Vec::with_capacity(touched.len());
        for (i, &v) in touched.iter().enumerate() {
            let start = neighbors.len();
            sample(v, query_times[i], k, &mut neighbors);
            ranges.push((start, neighbors.len() - start));
        }
        Self {
            batch,
            touched,
            query_times,
            neighbors,
            ranges,
            index,
        }
    }

    /// Number of touched vertices (= embeddings the batch will produce).
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when the batch touches no vertices.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The sampled neighbors of the `i`-th touched vertex, most recent first.
    pub fn neighbors_of(&self, i: usize) -> &[NeighborEntry] {
        let (start, len) = self.ranges[i];
        &self.neighbors[start..start + len]
    }

    /// Total number of sampled neighbor entries across the batch.
    pub fn total_sampled(&self) -> usize {
        self.neighbors.len()
    }

    /// Index of a touched vertex, if present.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.index.get(&v).copied()
    }

    /// Query time of a touched vertex.
    ///
    /// # Panics
    /// Panics if `v` is not touched by the batch.
    pub fn query_time_of(&self, v: NodeId) -> Timestamp {
        self.query_times[self.index[&v]]
    }
}

/// Runs the GRU memory update over the vertices that had a pending mailbox
/// message — the allocation-free memory stage shared by
/// [`ExecMode::Batched`](crate::ExecMode) and the streaming pipeline.
///
/// `with_messages` lists `(vertex, consumed message)` in touched order;
/// `last_update` and `read_memory` abstract the memory-table reads so the
/// caller can serve them from a plain [`NodeMemory`](crate::NodeMemory) or
/// from per-shard locks.  Returns `(vertex, new memory)` in input order.
/// Results are bit-identical to the engine's serial reference path.
pub fn run_memory_stage(
    model: &TgnModel,
    with_messages: &[(NodeId, Message)],
    last_update: impl FnMut(NodeId) -> Timestamp,
    read_memory: impl FnMut(NodeId, &mut [Float]),
    ws: &mut Workspace,
) -> Vec<(NodeId, Vec<Float>)> {
    run_memory_stage_obs(model, with_messages, last_update, read_memory, ws, None)
}

/// [`run_memory_stage`] with an optional activation observer recording the
/// assembled GRU inputs (message rows and memory rows) — the hook the int8
/// calibration pass uses to derive the GRU's static activation scales.
pub fn run_memory_stage_obs(
    model: &TgnModel,
    with_messages: &[(NodeId, Message)],
    mut last_update: impl FnMut(NodeId) -> Timestamp,
    mut read_memory: impl FnMut(NodeId, &mut [Float]),
    ws: &mut Workspace,
    obs: Option<&mut dyn tgnn_quant::ActivationObserver>,
) -> Vec<(NodeId, Vec<Float>)> {
    let rows = with_messages.len();
    if rows == 0 {
        return Vec::new();
    }
    let cfg = &model.config;
    let mut dts = ws.take(rows);
    for (dt, (v, msg)) in dts.iter_mut().zip(with_messages) {
        *dt = (msg.event_time - last_update(*v)).max(0.0) as Float;
    }
    let mut encodings = ws.take_matrix(rows, cfg.time_dim);
    model.encode_time_into(&dts, &mut encodings);

    let mut messages = ws.take_matrix(rows, cfg.message_dim());
    let mut memories = ws.take_matrix(rows, cfg.memory_dim);
    let mem_dim = cfg.memory_dim;
    let efeat = cfg.edge_feature_dim;
    for (i, (v, msg)) in with_messages.iter().enumerate() {
        let row = messages.row_mut(i);
        row[..mem_dim].copy_from_slice(&msg.self_memory);
        row[mem_dim..2 * mem_dim].copy_from_slice(&msg.other_memory);
        row[2 * mem_dim..2 * mem_dim + efeat].copy_from_slice(&msg.edge_feature);
        row[2 * mem_dim + efeat..].copy_from_slice(encodings.row(i));
        read_memory(*v, memories.row_mut(i));
    }
    if let Some(o) = obs {
        o.record(crate::quantized::layers::GRU_INPUT, messages.as_slice());
        o.record(crate::quantized::layers::GRU_HIDDEN, memories.as_slice());
    }

    let updated = model.update_memory_ws(&messages, &memories, ws);
    let out = with_messages
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (*v, updated.row_to_vec(i)))
        .collect();
    ws.recycle_matrix(updated);
    ws.recycle_matrix(memories);
    ws.recycle_matrix(messages);
    ws.recycle_matrix(encodings);
    ws.recycle(dts);
    out
}

/// A self-contained, owned input for the batched GNN stage.
///
/// Where the engine's in-process GNN stage points zero-copy into the live
/// memory table, a pipelined GNN stage runs *concurrently* with the update
/// stage that commits the next batch — so everything it reads is copied out
/// of the shared state at gather time.  Because the gathered values equal
/// what the serial engine would have read, and the compute path is the same
/// [`TgnModel::compute_embeddings_batch`], the results stay bit-identical.
#[derive(Clone, Debug)]
pub struct GnnJobBatch {
    touched: Vec<NodeId>,
    self_memory: Matrix,
    node_features: Option<Matrix>,
    nbr_memory: Matrix,
    nbr_edge: Matrix,
    nbr_dt: Vec<Float>,
    ranges: Vec<(usize, usize)>,
}

impl GnnJobBatch {
    /// Gathers the owned GNN inputs for a sampled batch: the (updated) memory
    /// of every touched vertex, its static node feature (if the model uses
    /// them), and each sampled neighbor's memory row, edge feature, and time
    /// delta.  `read_memory` supplies pre-write-back memory rows, matching
    /// what the serial engine reads during its GNN stage.
    pub fn gather(
        sampled: &SampledBatch,
        updated: &HashMap<NodeId, Vec<Float>>,
        graph: &TemporalGraph,
        cfg: &ModelConfig,
        mut read_memory: impl FnMut(NodeId, &mut [Float]),
    ) -> Self {
        let t = sampled.len();
        let total = sampled.total_sampled();
        let mem_dim = cfg.memory_dim;

        let mut self_memory = Matrix::zeros(t, mem_dim);
        for (i, &v) in sampled.touched.iter().enumerate() {
            match updated.get(&v) {
                Some(m) => self_memory.row_mut(i).copy_from_slice(m),
                None => read_memory(v, self_memory.row_mut(i)),
            }
        }
        let node_features = (cfg.node_feature_dim > 0).then(|| {
            let mut f = Matrix::zeros(t, cfg.node_feature_dim);
            for (i, &v) in sampled.touched.iter().enumerate() {
                f.row_mut(i).copy_from_slice(graph.node_feature(v));
            }
            f
        });

        let mut nbr_memory = Matrix::zeros(total, mem_dim);
        let mut nbr_edge = Matrix::zeros(total, cfg.edge_feature_dim);
        let mut nbr_dt = vec![0.0; total];
        let mut row = 0;
        for i in 0..t {
            let query_time = sampled.query_times[i];
            for e in sampled.neighbors_of(i) {
                read_memory(e.neighbor, nbr_memory.row_mut(row));
                nbr_edge
                    .row_mut(row)
                    .copy_from_slice(graph.edge_feature(e.edge_id));
                nbr_dt[row] = (query_time - e.timestamp).max(0.0) as Float;
                row += 1;
            }
        }

        Self {
            touched: sampled.touched.clone(),
            self_memory,
            node_features,
            nbr_memory,
            nbr_edge,
            nbr_dt,
            ranges: sampled.ranges.clone(),
        }
    }

    /// The touched vertices, aligned with the outputs of [`Self::run`].
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Splits the job into at most `parts` contiguous sub-jobs over the
    /// touched vertices, each self-contained and independently computable.
    ///
    /// Because [`Self::run`] is row-independent (each embedding depends only
    /// on its own vertex's gathered inputs — the property that already makes
    /// the batched path bit-identical to the serial engine), running the
    /// sub-jobs in any order and concatenating their outputs **in part
    /// order** reproduces the unsplit job's output bitwise, for every
    /// `parts`.  This is what lets a pool of GNN workers share one batch.
    ///
    /// Chunks are balanced (sizes differ by at most one); fewer than `parts`
    /// sub-jobs are returned when the job has fewer vertices.  An empty job
    /// returns itself as a single part.
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    pub fn split(self, parts: usize) -> Vec<GnnJobBatch> {
        assert!(parts > 0, "GnnJobBatch::split: need at least one part");
        let t = self.touched.len();
        if parts == 1 || t <= 1 {
            return vec![self];
        }
        let parts = parts.min(t);
        let base = t / parts;
        let extra = t % parts; // first `extra` chunks get one more vertex
                               // Row ranges are contiguous, so each sub-matrix is one slice copy.
        let rows = |m: &Matrix, a: usize, b: usize| {
            Matrix::from_vec(
                b - a,
                m.cols(),
                m.as_slice()[a * m.cols()..b * m.cols()].to_vec(),
            )
        };
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            let end = start + len;
            // Neighbor-arena span of this vertex chunk: ranges are contiguous
            // in vertex order, so the span is [first chunk start, last end).
            let nbr_start = self.ranges[start].0;
            let (last_start, last_len) = self.ranges[end - 1];
            let nbr_end = last_start + last_len;
            out.push(GnnJobBatch {
                touched: self.touched[start..end].to_vec(),
                self_memory: rows(&self.self_memory, start, end),
                node_features: self.node_features.as_ref().map(|f| rows(f, start, end)),
                nbr_memory: rows(&self.nbr_memory, nbr_start, nbr_end),
                nbr_edge: rows(&self.nbr_edge, nbr_start, nbr_end),
                nbr_dt: self.nbr_dt[nbr_start..nbr_end].to_vec(),
                ranges: self.ranges[start..end]
                    .iter()
                    .map(|&(s, l)| (s - nbr_start, l))
                    .collect(),
            });
            start = end;
        }
        out
    }

    /// Number of embeddings the job will produce.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Total number of gathered neighbor rows across the job — the
    /// neighbor-fetch workload a modeled backend feeds its datapath model.
    pub fn total_neighbors(&self) -> usize {
        self.nbr_dt.len()
    }

    /// Gathered neighbor rows a model that keeps at most `budget` per vertex
    /// goes on to read: `Σ min(len_i, budget)` — what pruning leaves of
    /// [`Self::total_neighbors`].
    pub fn neighbors_within_budget(&self, budget: usize) -> usize {
        self.ranges.iter().map(|&(_, len)| len.min(budget)).sum()
    }

    /// True when the job holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Runs the batched GNN compute on the gathered inputs — pure in the
    /// model and the job, so it can execute on any worker thread.
    pub fn run(&self, model: &TgnModel, ws: &mut Workspace) -> Vec<(NodeId, Vec<Float>)> {
        let total = self.nbr_dt.len();
        let mut nbr_refs: Vec<NeighborRef<'_>> = Vec::with_capacity(total);
        for r in 0..total {
            nbr_refs.push(NeighborRef {
                memory: self.nbr_memory.row(r),
                edge_feature: self.nbr_edge.row(r),
                delta_t: self.nbr_dt[r],
            });
        }
        let jobs: Vec<EmbeddingJob<'_>> = self
            .touched
            .iter()
            .enumerate()
            .map(|(i, _)| EmbeddingJob {
                memory: self.self_memory.row(i),
                node_feature: self.node_features.as_ref().map(|f| f.row(i)),
                neighbors: {
                    let (start, len) = self.ranges[i];
                    &nbr_refs[start..start + len]
                },
            })
            .collect();
        let outputs = model.compute_embeddings_batch(&jobs, ws);
        self.touched
            .iter()
            .zip(outputs)
            .map(|(&v, out)| (v, out.embedding))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_tensor::TensorRng;

    /// A synthetic gathered job with `t` vertices, vertex `i` having `i % 4`
    /// neighbors, every value drawn from the RNG so misaligned splits show.
    fn synthetic_job(cfg: &ModelConfig, t: usize, rng: &mut TensorRng) -> GnnJobBatch {
        let mut ranges = Vec::with_capacity(t);
        let mut total = 0usize;
        for i in 0..t {
            let k = i % 4;
            ranges.push((total, k));
            total += k;
        }
        GnnJobBatch {
            touched: (0..t as NodeId).collect(),
            self_memory: rng.uniform_matrix(t, cfg.memory_dim, -1.0, 1.0),
            node_features: (cfg.node_feature_dim > 0)
                .then(|| rng.uniform_matrix(t, cfg.node_feature_dim, -1.0, 1.0)),
            nbr_memory: rng.uniform_matrix(total, cfg.memory_dim, -1.0, 1.0),
            nbr_edge: rng.uniform_matrix(total, cfg.edge_feature_dim, -1.0, 1.0),
            nbr_dt: (0..total).map(|_| rng.uniform(0.0, 10.0)).collect(),
            ranges,
        }
    }

    #[test]
    fn split_partitions_vertices_and_rebases_neighbor_ranges() {
        let cfg = ModelConfig::tiny(3, 2);
        let mut rng = TensorRng::new(11);
        let job = synthetic_job(&cfg, 10, &mut rng);
        for parts in [1usize, 2, 3, 7, 10, 25] {
            let subs = job.clone().split(parts);
            assert_eq!(subs.len(), parts.min(10), "parts={parts}");
            let sizes: Vec<usize> = subs.iter().map(|s| s.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), 10);
            assert!(sizes.iter().all(|&s| s > 0));
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            // Concatenating sub-jobs in part order reproduces the original
            // vertex order and per-vertex neighbor data exactly.
            let mut vi = 0usize;
            for sub in &subs {
                for i in 0..sub.len() {
                    assert_eq!(sub.touched[i], job.touched[vi]);
                    assert_eq!(sub.self_memory.row(i), job.self_memory.row(vi));
                    let (os, ol) = job.ranges[vi];
                    let (ss, sl) = sub.ranges[i];
                    assert_eq!(sl, ol);
                    for r in 0..ol {
                        assert_eq!(sub.nbr_memory.row(ss + r), job.nbr_memory.row(os + r));
                        assert_eq!(sub.nbr_edge.row(ss + r), job.nbr_edge.row(os + r));
                        assert_eq!(sub.nbr_dt[ss + r], job.nbr_dt[os + r]);
                    }
                    vi += 1;
                }
            }
        }
    }

    #[test]
    fn split_run_concat_is_bitwise_identical_to_unsplit_run() {
        let cfg = ModelConfig::tiny(3, 2);
        let mut rng = TensorRng::new(42);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let job = synthetic_job(&cfg, 13, &mut rng);
        let mut ws = Workspace::new();
        let reference = job.run(&model, &mut ws);
        for parts in [1usize, 2, 4, 5, 13, 64] {
            let merged: Vec<(NodeId, Vec<Float>)> = job
                .clone()
                .split(parts)
                .into_iter()
                .flat_map(|sub| {
                    let mut ws = Workspace::new();
                    sub.run(&model, &mut ws)
                })
                .collect();
            assert_eq!(merged, reference, "parts={parts}");
        }
    }

    #[test]
    fn split_handles_empty_and_single_vertex_jobs() {
        let cfg = ModelConfig::tiny(0, 2);
        let mut rng = TensorRng::new(3);
        let empty = synthetic_job(&cfg, 0, &mut rng);
        let parts = empty.split(4);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
        let single = synthetic_job(&cfg, 1, &mut rng);
        let parts = single.split(4);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 1);
    }
}
