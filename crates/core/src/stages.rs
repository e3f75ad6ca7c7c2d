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
//!   times, all sampled neighbor entries in one flat arena (no per-vertex
//!   `Vec`s) and, next to it, the attention decision taken on their Δt's:
//!   which neighbors the GNN stage will aggregate, and with what weights.
//! * [`run_memory_stage`] — the allocation-free GRU memory update over the
//!   vertices with pending mailbox messages, generic over the table it
//!   consumes them from ([`MemoryTable`]: a plain
//!   [`NodeMemory`](crate::NodeMemory) in the engine, per-shard locks in the
//!   pipeline).  A message names its edge; the stage reads the edge feature
//!   from the graph into the GRU input.  Its output, [`UpdatedRows`], is one
//!   workspace matrix that the GNN gather and the commit both read.  The
//!   GRU runs in row blocks ([`GruBlocks`]), bit for bit the one-call GRU;
//!   the pipeline runs the stage as [`MemoryStage`], whose blocks a second
//!   thread can help compute.
//! * [`GnnJobBatch`] — a self-contained input for the batched GNN stage:
//!   the memory row of every *kept* neighbor is copied out of the shared
//!   state (pruned ones are never fetched), so the compute stage can run
//!   while the commit overwrites memory rows.  Static edge and node
//!   features are not copied: the job holds edge ids and the immutable
//!   graph, and the GNN stage reads the features from it in place.  Its
//!   neighbor half does not read the memory stage's output, so a pipeline
//!   gathers it while the GRU is still being computed.

use crate::complexity::BatchWorkload;
use crate::config::ModelConfig;
use crate::memory::MemoryTable;
use crate::model::{EmbeddingJob, NeighborRef, TgnModel};
use crate::sharded::MemoryWrites;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tgnn_graph::{EdgeId, EventBatch, NeighborEntry, NodeId, TemporalGraph, Timestamp};
use tgnn_nn::attention::Selection;
use tgnn_tensor::{Float, Matrix, Workspace};

/// Output of the sampling stage for one batch: the touched vertices in order
/// of first appearance, their query times, the sampled supporting neighbors
/// of all vertices packed into one flat arena, and the model's attention
/// decision over them ([`TgnModel::select`]) — simplified attention scores
/// a neighbor from its Δt alone, so what to prune is known here, before any
/// neighbor feature is fetched.
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
    /// Query time minus interaction time (≥ 0) of every sampled neighbor,
    /// aligned with `neighbors`.
    delta_t: Vec<Float>,
    /// Per-touched-vertex `(start, len)` into `neighbors`.
    ranges: Vec<(usize, usize)>,
    /// Per touched vertex: logits over its sampled neighbors, the kept ones
    /// (as indices into `neighbors_of`) and their weights.
    selection: Selection,
    /// Vertex → index into `touched`.
    index: HashMap<NodeId, usize>,
}

impl SampledBatch {
    /// Builds the sampled batch by calling `sample(v, t, k, out)` once per
    /// touched vertex, appending into the shared arena, and has `model`
    /// decide which of the sampled neighbors the vertex aggregates.  `sample`
    /// must append at most `k` entries, most recent first — exactly the
    /// contract of [`tgnn_graph::TemporalSampler::sample_into`].
    pub fn assemble(
        batch: EventBatch,
        k: usize,
        model: &TgnModel,
        mut sample: impl FnMut(NodeId, Timestamp, usize, &mut Vec<NeighborEntry>),
    ) -> Self {
        // One hash per endpoint: first appearance appends the vertex, every
        // appearance raises its query time.
        let endpoints = 2 * batch.len();
        let mut touched = Vec::with_capacity(endpoints);
        let mut query_times = Vec::with_capacity(endpoints);
        let mut index = HashMap::with_capacity(endpoints);
        for e in batch.events() {
            for v in e.endpoints() {
                let i = *index.entry(v).or_insert_with(|| {
                    touched.push(v);
                    query_times.push(Timestamp::NEG_INFINITY);
                    touched.len() - 1
                });
                if e.timestamp > query_times[i] {
                    query_times[i] = e.timestamp;
                }
            }
        }
        let mut neighbors = Vec::with_capacity(touched.len() * k);
        let mut delta_t = Vec::with_capacity(touched.len() * k);
        let mut ranges = Vec::with_capacity(touched.len());
        let mut selection = Selection::default();
        for (i, &v) in touched.iter().enumerate() {
            let start = neighbors.len();
            sample(v, query_times[i], k, &mut neighbors);
            ranges.push((start, neighbors.len() - start));
            let sampled = neighbors[start..].iter();
            delta_t.extend(sampled.map(|e| (query_times[i] - e.timestamp).max(0.0) as Float));
            model.select(&delta_t[start..], &mut selection);
        }
        Self {
            batch,
            touched,
            query_times,
            neighbors,
            delta_t,
            ranges,
            selection,
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

    /// The Δt of the `i`-th touched vertex's sampled neighbors, aligned with
    /// [`Self::neighbors_of`].
    pub fn delta_t_of(&self, i: usize) -> &[Float] {
        let (start, len) = self.ranges[i];
        &self.delta_t[start..start + len]
    }

    /// The attention decision over the batch: entry `i` lists the neighbors
    /// the `i`-th touched vertex aggregates as indices into
    /// [`Self::neighbors_of`] (all of them under vanilla attention).
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Total number of sampled neighbor entries across the batch.
    pub fn total_sampled(&self) -> usize {
        self.neighbors.len()
    }

    /// Query time of a touched vertex.
    ///
    /// # Panics
    /// Panics if `v` is not touched by the batch.
    pub fn query_time_of(&self, v: NodeId) -> Timestamp {
        self.query_times[self.index[&v]]
    }
}

/// The memory stage's output for one batch: the new memory row of every
/// touched vertex that had a pending mailbox message, in touched order, as
/// rows of one workspace matrix — not yet written back.  Each row is stamped
/// with its vertex's query time, the time it is committed at.  Hand the
/// matrix back with [`Self::recycle`] once the batch is committed.
#[derive(Debug)]
pub struct UpdatedRows {
    vertices: Vec<NodeId>,
    times: Vec<Timestamp>,
    /// Per touched vertex: its row, or [`Self::NO_ROW`].
    row_of: Vec<u32>,
    rows: Matrix,
}

impl UpdatedRows {
    const NO_ROW: u32 = u32::MAX;

    /// Number of updated vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when no touched vertex had a pending message.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// `(vertex, new memory)` in touched order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Float])> {
        self.vertices
            .iter()
            .enumerate()
            .map(|(r, &v)| (v, self.rows.row(r)))
    }

    /// Returns the rows' buffer to the workspace they came from.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.rows);
    }
}

/// Where a GNN gather reads the memory stage's new rows from: the
/// engine's per-vertex map or the pipeline's [`UpdatedRows`].
pub trait UpdatedMemory {
    /// The new memory of `v`, the batch's `i`-th touched vertex, if the
    /// memory stage updated it.
    fn updated(&self, i: usize, v: NodeId) -> Option<&[Float]>;
}

impl UpdatedMemory for UpdatedRows {
    fn updated(&self, i: usize, _: NodeId) -> Option<&[Float]> {
        let r = self.row_of[i];
        (r != Self::NO_ROW).then(|| self.rows.row(r as usize))
    }
}

impl UpdatedMemory for HashMap<NodeId, Vec<Float>> {
    fn updated(&self, _: usize, v: NodeId) -> Option<&[Float]> {
        self.get(&v).map(Vec::as_slice)
    }
}

impl MemoryWrites for UpdatedRows {
    fn for_each_write(&self, mut f: impl FnMut(NodeId, &[Float], Timestamp)) {
        for ((v, row), &t) in self.iter().zip(&self.times) {
            f(v, row, t);
        }
    }
}

/// Runs the GRU memory update over the touched vertices that have a pending
/// mailbox message — the allocation-free memory stage shared by
/// [`ExecMode::Batched`](crate::ExecMode) and the streaming pipeline.
///
/// Each message is consumed from `table` (a plain
/// [`NodeMemory`](crate::NodeMemory) in the engine, per-shard locks in the
/// pipeline) straight into the GRU's input matrix, its edge feature read
/// from `graph`; `query_times` is aligned with `touched`.  Results are
/// bit-identical to the engine's serial reference path.
pub fn run_memory_stage(
    model: &TgnModel,
    graph: &TemporalGraph,
    table: &mut (impl MemoryTable + ?Sized),
    touched: &[NodeId],
    query_times: &[Timestamp],
    ws: &mut Workspace,
) -> UpdatedRows {
    run_memory_stage_obs(model, graph, table, touched, query_times, ws, None)
}

/// [`run_memory_stage`] with an optional activation observer recording the
/// assembled GRU inputs (message rows and memory rows) — the hook the int8
/// calibration pass uses to derive the GRU's static activation scales.  The
/// GRU runs in [`GRU_BLOCK_ROWS`]-row blocks on this thread, bit for bit the
/// one-call GRU.
pub fn run_memory_stage_obs(
    model: &TgnModel,
    graph: &TemporalGraph,
    table: &mut (impl MemoryTable + ?Sized),
    touched: &[NodeId],
    query_times: &[Timestamp],
    ws: &mut Workspace,
    obs: Option<&mut dyn tgnn_quant::ActivationObserver>,
) -> UpdatedRows {
    let mut set = GruBlocks::new(GRU_BLOCK_ROWS);
    let staged = set.stage(model, graph, table, touched, query_times, ws, obs);
    let updated = set.finish(staged, model, ws);
    set.recycle(ws);
    updated
}

/// Rows of one GRU block in the memory stage: two 12-row register tiles of
/// the AVX-512 GEMM kernel.
pub const GRU_BLOCK_ROWS: usize = 24;

/// The pipeline's memory stage: [`run_memory_stage`] with
/// [`GRU_BLOCK_ROWS`]-row blocks that a second thread can help compute.  It
/// keeps its block sets across batches, so a warm stage allocates no GRU
/// buffers.
#[derive(Debug, Default)]
pub struct MemoryStage {
    sets: Vec<Arc<GruBlocks>>,
}

impl MemoryStage {
    /// [`run_memory_stage`] over row blocks.  Between staging the GRU's
    /// inputs and computing it, `overlap` runs on this thread — with the
    /// block set when the GRU fills more than one block, for the caller to
    /// hand to a helper thread ([`GruBlocks::help`]).  The stage then
    /// computes every block nobody has claimed and waits only for blocks a
    /// helper holds, computing again any block a helper abandoned by
    /// panicking.  A set is restaged once no helper holds it any more; while
    /// one does, the batch takes another.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        model: &TgnModel,
        graph: &TemporalGraph,
        table: &mut (impl MemoryTable + ?Sized),
        touched: &[NodeId],
        query_times: &[Timestamp],
        ws: &mut Workspace,
        overlap: impl FnOnce(Option<&Arc<GruBlocks>>),
    ) -> UpdatedRows {
        let vacant = self.sets.iter_mut().position(|s| Arc::get_mut(s).is_some());
        let set = match vacant {
            Some(i) => &mut self.sets[i],
            None => {
                self.sets.push(Arc::new(GruBlocks::new(GRU_BLOCK_ROWS)));
                self.sets.last_mut().expect("just pushed")
            }
        };
        let staged = Arc::get_mut(set)
            .expect("no helper holds a vacant set")
            .stage(model, graph, table, touched, query_times, ws, None);
        overlap((set.len() > 1).then_some(&*set));
        set.finish(staged, model, ws)
    }
}

/// One batch's GRU inputs cut into fixed row blocks, which any thread
/// holding the set may compute ([`Self::help`]): a shared claim counter
/// hands the blocks out, and each block's lock and `done` flag decide who
/// computes it, so no block is computed twice and none is lost.  The GEMM
/// contract is per output element and the gate pass and the LUT row add are
/// per row, so a row's result does not depend on the block it sits in or the
/// thread that computed it: any cut is bit-identical to the one-call GRU.
#[derive(Debug)]
pub struct GruBlocks {
    block_rows: usize,
    blocks: Vec<Mutex<GruBlock>>,
    /// Blocks the batch's rows fill.
    used: usize,
    /// The next block to claim.  It only spreads the work — the block locks
    /// order the data — so it publishes nothing and is read `Relaxed`.
    next: AtomicUsize,
}

/// One GRU block: its staged inputs and, once `done`, its new rows.
#[derive(Debug)]
struct GruBlock {
    /// `s_v ‖ s_u ‖ f_e`, then `Φ(Δt)` unless the model folds the encoding.
    messages: Matrix,
    memories: Matrix,
    dts: Vec<Float>,
    out: Matrix,
    done: bool,
}

impl GruBlock {
    fn new() -> Self {
        Self {
            messages: Matrix::zeros(0, 0),
            memories: Matrix::zeros(0, 0),
            dts: Vec::new(),
            out: Matrix::zeros(0, 0),
            done: false,
        }
    }

    /// Shapes the input buffers to `rows` rows of the given widths,
    /// reusing them when the widths already match.
    fn reset(&mut self, rows: usize, width: usize, memory_dim: usize, ws: &mut Workspace) {
        for (m, cols) in [
            (&mut self.messages, width),
            (&mut self.memories, memory_dim),
        ] {
            if m.cols() == cols {
                m.resize_rows(rows);
            } else {
                let fresh = ws.take_matrix(rows, cols);
                ws.recycle_matrix(std::mem::replace(m, fresh));
            }
        }
        self.dts.resize(rows, 0.0);
        self.done = false;
    }

    /// Cuts the block to its first `rows` rows.
    fn truncate(&mut self, rows: usize) {
        self.messages.resize_rows(rows);
        self.memories.resize_rows(rows);
        self.dts.truncate(rows);
    }

    /// Runs the GRU on the block.  `out` is replaced and `done` set only
    /// after the GRU returns, so a panic mid-block leaves the block whole
    /// and not done.
    fn compute(&mut self, model: &TgnModel, ws: &mut Workspace) {
        let fold = model
            .fold_over(&model.gru.w_i)
            .map(|lut| (lut, &self.dts[..]));
        let out = model.update_memory_with(&self.messages, fold, &self.memories, ws);
        ws.recycle_matrix(std::mem::replace(&mut self.out, out));
        self.done = true;
    }
}

/// A block's lock.  A thread that panicked computing the block poisoned it,
/// but the block is still whole and not done ([`GruBlock::compute`]), so the
/// next locker computes it again.
fn lock(block: &Mutex<GruBlock>) -> MutexGuard<'_, GruBlock> {
    block.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the owner of the set, which needs no locking.
fn get_mut(block: &mut Mutex<GruBlock>) -> &mut GruBlock {
    block.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl GruBlocks {
    fn new(block_rows: usize) -> Self {
        Self {
            block_rows,
            blocks: Vec::new(),
            used: 0,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of blocks the batch's rows fill.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no touched vertex had a pending message.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Computes blocks nobody has claimed until none is left, on `model` and
    /// `ws`; returns how many this call computed.  A set whose blocks are
    /// all claimed costs one atomic.
    pub fn help(&self, model: &TgnModel, ws: &mut Workspace) -> usize {
        let mut computed = 0;
        let blocks = &self.blocks[..self.used];
        while let Some(block) = blocks.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let mut block = lock(block);
            if !block.done {
                block.compute(model, ws);
                computed += 1;
            }
        }
        computed
    }

    /// Consumes the touched vertices' messages into the blocks — `s_v ‖ s_u`
    /// straight from the mailbox, `f_e` from `graph`'s edge table, the time
    /// encoding after them unless `model` folds it — with each vertex's
    /// memory row and Δt, and resets the claims.  `obs` records every
    /// message row, then the LUT rows a folded GRU reads, then every memory
    /// row.
    #[allow(clippy::too_many_arguments)]
    fn stage(
        &mut self,
        model: &TgnModel,
        graph: &TemporalGraph,
        table: &mut (impl MemoryTable + ?Sized),
        touched: &[NodeId],
        query_times: &[Timestamp],
        ws: &mut Workspace,
        obs: Option<&mut dyn tgnn_quant::ActivationObserver>,
    ) -> Staged {
        let cfg = &model.config;
        // A LUT model's GRU reads the time encoding's contribution from its
        // fused table: the messages stop at the edge feature and no encoding
        // is materialised.  Otherwise the encoding is the message's last block.
        let lut = model.fold_over(&model.gru.w_i);
        let memories = 2 * cfg.memory_dim;
        let head = memories + cfg.edge_feature_dim;
        let width = if lut.is_some() {
            head
        } else {
            cfg.message_dim()
        };
        let n = self.block_rows;

        let mut vertices = Vec::with_capacity(touched.len());
        let mut times = Vec::with_capacity(touched.len());
        let mut row_of = Vec::with_capacity(touched.len());
        for (&v, &t) in touched.iter().zip(query_times) {
            let r = vertices.len();
            let (b, i) = (r / n, r % n);
            if i == 0 {
                // Block `b` gets its first row: full height, cut below.
                if b == self.blocks.len() {
                    self.blocks.push(Mutex::new(GruBlock::new()));
                }
                get_mut(&mut self.blocks[b]).reset(n, width, cfg.memory_dim, ws);
            }
            let block = get_mut(&mut self.blocks[b]);
            let message = block.messages.row_mut(i);
            let Some((edge, event_time)) = table.take_message_into(v, &mut message[..memories])
            else {
                row_of.push(UpdatedRows::NO_ROW);
                continue;
            };
            message[memories..head].copy_from_slice(graph.edge_feature(edge));
            block.dts[i] = (event_time - table.last_update(v)).max(0.0) as Float;
            table.copy_memory_into(v, block.memories.row_mut(i));
            row_of.push(r as u32);
            vertices.push(v);
            times.push(t);
        }
        let rows = vertices.len();
        self.used = rows.div_ceil(n);
        *self.next.get_mut() = 0;
        let blocks = &mut self.blocks[..self.used];
        if let Some(last) = blocks.last_mut() {
            get_mut(last).truncate(rows - (self.used - 1) * n);
        }

        if lut.is_none() {
            for block in blocks.iter_mut().map(get_mut) {
                let mut encodings = ws.take_matrix(block.dts.len(), cfg.time_dim);
                model.encode_time_into(&block.dts, &mut encodings);
                for i in 0..block.dts.len() {
                    block.messages.row_mut(i)[head..].copy_from_slice(encodings.row(i));
                }
                ws.recycle_matrix(encodings);
            }
        }
        if let Some(o) = obs {
            use crate::quantized::layers::{GRU_HIDDEN, GRU_INPUT};
            for block in blocks.iter_mut().map(get_mut) {
                o.record(GRU_INPUT, block.messages.as_slice());
            }
            if let Some(lut) = lut {
                for block in blocks.iter_mut().map(get_mut) {
                    for &dt in &block.dts {
                        o.record(GRU_INPUT, lut.table().value.row(lut.lookup_bin(dt)));
                    }
                }
            }
            for block in blocks.iter_mut().map(get_mut) {
                o.record(GRU_HIDDEN, block.memories.as_slice());
            }
        }
        Staged {
            vertices,
            times,
            row_of,
        }
    }

    /// Computes every block nobody has claimed, then takes the rows of each
    /// block in order — waiting on a block another thread still holds, and
    /// computing any block that is not done (one a helper claimed but had
    /// not begun, or abandoned by panicking).
    fn finish(&self, staged: Staged, model: &TgnModel, ws: &mut Workspace) -> UpdatedRows {
        self.help(model, ws);
        let memory_dim = model.config.memory_dim;
        let rows = match &self.blocks[..self.used] {
            [] => ws.take_matrix(0, memory_dim),
            // One block's rows are the stage's rows: hand them over whole.
            [only] => {
                let mut block = lock(only);
                if !block.done {
                    block.compute(model, ws);
                }
                std::mem::replace(&mut block.out, Matrix::zeros(0, 0))
            }
            blocks => {
                let mut rows = ws.take_matrix(staged.vertices.len(), memory_dim);
                let stride = self.block_rows * memory_dim;
                for (chunk, block) in rows.as_mut_slice().chunks_mut(stride).zip(blocks) {
                    let mut block = lock(block);
                    if !block.done {
                        block.compute(model, ws);
                    }
                    chunk.copy_from_slice(block.out.as_slice());
                }
                rows
            }
        };
        let Staged {
            vertices,
            times,
            row_of,
        } = staged;
        UpdatedRows {
            vertices,
            times,
            row_of,
            rows,
        }
    }

    /// Returns every buffer of a set no other thread holds to `ws`.
    fn recycle(self, ws: &mut Workspace) {
        for block in self.blocks {
            let block = block.into_inner().unwrap_or_else(PoisonError::into_inner);
            for m in [block.messages, block.memories, block.out] {
                ws.recycle_matrix(m);
            }
            ws.recycle(block.dts);
        }
    }
}

/// What staging learned about the batch's rows, beside the blocks.
struct Staged {
    vertices: Vec<NodeId>,
    times: Vec<Timestamp>,
    row_of: Vec<u32>,
}

/// A self-contained input for the batched GNN stage.
///
/// Where the engine's in-process GNN stage points zero-copy into the live
/// memory table, a pipelined GNN stage runs *concurrently* with the commit
/// that overwrites memory rows — so the job owns a copy of every memory row
/// it reads, taken at gather time.  Static features are never written: the
/// job holds the graph and the kept neighbors' edge ids, and [`Self::run`]
/// reads edge and node features from the graph's tables in place.  Because
/// the values read equal what the serial engine would have read, and the
/// compute path is the same [`TgnModel::embeddings_selected`], the results
/// stay bit-identical.
///
/// The job holds two arenas.  Per **sampled** neighbor: its Δt (4 bytes —
/// the sampling stage's decision was taken on these).  Per **kept**
/// neighbor, in kept order: its memory row and edge id, and in `selection`
/// its index among the vertex's sampled neighbors and its attention weight.
/// Pruned neighbors cost their Δt and nothing else.
#[derive(Clone)]
pub struct GnnJobBatch {
    touched: Vec<NodeId>,
    self_memory: Matrix,
    /// Kept arena: one memory row and one edge id per kept neighbor.
    nbr_memory: Matrix,
    nbr_edges: Vec<EdgeId>,
    /// Sampled arena: one Δt per sampled neighbor.
    nbr_dt: Vec<Float>,
    /// Per vertex `(start, len)` into the sampled arena.
    ranges: Vec<(usize, usize)>,
    /// Per vertex the kept neighbors (its `ranges` index the kept arena).
    selection: Selection,
    /// The static node and edge features the job reads.
    graph: Arc<TemporalGraph>,
    /// The batch's workload, counted as it was gathered.
    workload: BatchWorkload,
}

impl std::fmt::Debug for GnnJobBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnnJobBatch")
            .field("touched", &self.touched)
            .field("kept", &self.nbr_edges.len())
            .field("sampled", &self.nbr_dt.len())
            .finish_non_exhaustive()
    }
}

impl GnnJobBatch {
    /// Gathers the GNN inputs for a sampled batch: the (updated) memory of
    /// every touched vertex, the memory row and edge id of each neighbor the
    /// sampling stage **kept**, and every sampled neighbor's time delta.
    /// `read_memory` supplies pre-write-back memory rows, matching what the
    /// serial engine reads during its GNN stage.  Only memory — the mutable
    /// state — is copied; features stay in `graph`.
    pub fn gather(
        sampled: &SampledBatch,
        updated: &impl UpdatedMemory,
        graph: &Arc<TemporalGraph>,
        cfg: &ModelConfig,
        mut read_memory: impl FnMut(NodeId, &mut [Float]),
    ) -> Self {
        let mut job = Self::gather_neighbors(sampled, graph, cfg, &mut read_memory);
        job.gather_own(updated, read_memory);
        job
    }

    /// The half of [`Self::gather`] that does not read the memory stage's
    /// output: everything but the touched vertices' own memory rows, which
    /// [`Self::gather_own`] fills in.  A pipeline runs it while the GRU is
    /// still being computed.
    pub fn gather_neighbors(
        sampled: &SampledBatch,
        graph: &Arc<TemporalGraph>,
        cfg: &ModelConfig,
        mut read_memory: impl FnMut(NodeId, &mut [Float]),
    ) -> Self {
        let t = sampled.len();
        let mem_dim = cfg.memory_dim;
        let kept = sampled.selection.kept.len();
        let mut nbr_memory = Matrix::zeros(kept, mem_dim);
        let mut nbr_edges = Vec::with_capacity(kept);
        for i in 0..t {
            let entries = sampled.neighbors_of(i);
            for &j in sampled.selection.kept_of(i) {
                let e = &entries[j as usize];
                read_memory(e.neighbor, nbr_memory.row_mut(nbr_edges.len()));
                nbr_edges.push(e.edge_id);
            }
        }

        Self {
            touched: sampled.touched.clone(),
            self_memory: Matrix::zeros(t, mem_dim),
            nbr_memory,
            nbr_edges,
            nbr_dt: sampled.delta_t.clone(),
            ranges: sampled.ranges.clone(),
            selection: sampled.selection.clone(),
            graph: graph.clone(),
            workload: BatchWorkload {
                edges: sampled.batch.len(),
                memory_updates: 0,
                embeddings: t,
                neighbors_fetched: kept,
                neighbors_scored: sampled.total_sampled(),
            },
        }
    }

    /// The other half of [`Self::gather`]: each touched vertex's own memory —
    /// its new row when the memory stage updated it, its stored one
    /// otherwise.  The rows it takes from the memory stage are the batch's
    /// memory updates.
    pub fn gather_own(
        &mut self,
        updated: &impl UpdatedMemory,
        mut read_memory: impl FnMut(NodeId, &mut [Float]),
    ) {
        let mut updates = 0;
        for (i, &v) in self.touched.iter().enumerate() {
            match updated.updated(i, v) {
                Some(m) => {
                    self.self_memory.row_mut(i).copy_from_slice(m);
                    updates += 1;
                }
                None => read_memory(v, self.self_memory.row_mut(i)),
            }
        }
        self.workload.memory_updates = updates;
    }

    /// The touched vertices, aligned with the outputs of [`Self::run`].
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Number of embeddings the job will produce.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// The batch's workload, as the engine would record it: the batch's
    /// events, the rows the memory stage updated, the embeddings, and the
    /// neighbors scored (sampled) and fetched (kept, the rows the job
    /// holds).
    pub fn workload(&self) -> BatchWorkload {
        self.workload
    }

    /// True when the job holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Runs the batched GNN compute on the gathered inputs — pure in the
    /// model and the job (the graph it reads is immutable), so it can
    /// execute on any worker thread.
    pub fn run(&self, model: &TgnModel, ws: &mut Workspace) -> Vec<(NodeId, Vec<Float>)> {
        let graph = &*self.graph;
        let mut nbr_refs: Vec<NeighborRef<'_>> = Vec::with_capacity(self.nbr_edges.len());
        for (&(first, _), &(start, len)) in self.ranges.iter().zip(&self.selection.ranges) {
            for row in start..start + len {
                nbr_refs.push(NeighborRef {
                    memory: self.nbr_memory.row(row),
                    edge_feature: graph.edge_feature(self.nbr_edges[row]),
                    delta_t: self.nbr_dt[first + self.selection.kept[row] as usize],
                });
            }
        }
        let node_features = model.config.node_feature_dim > 0;
        let jobs: Vec<EmbeddingJob<'_>> = (self.touched.iter().enumerate())
            .map(|(i, &v)| EmbeddingJob {
                memory: self.self_memory.row(i),
                node_feature: node_features.then(|| graph.node_feature(v)),
                neighbors: {
                    let (start, len) = self.selection.ranges[i];
                    &nbr_refs[start..start + len]
                },
            })
            .collect();
        let embeddings = model.embeddings_selected(&jobs, (&self.selection, 0), ws, None);
        let out = (self.touched.iter().enumerate())
            .map(|(i, &v)| (v, embeddings.row_to_vec(i)))
            .collect();
        ws.recycle_matrix(embeddings);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptimizationVariant, TimeEncoderKind};
    use crate::model::NeighborContext;
    use tgnn_graph::{FifoSampler, TemporalSampler};
    use tgnn_tensor::TensorRng;

    /// Everything a gather needs, on a generated stream: a model of the
    /// given rung sampling 10 neighbors (so NP(L/M/S) keep 6/4/2), a random
    /// memory table, and a sampled batch whose vertices have anything from
    /// no history at all to a full neighbor list.
    struct Fixture {
        model: TgnModel,
        graph: Arc<TemporalGraph>,
        memory: Matrix,
        updated: HashMap<NodeId, Vec<Float>>,
        sampled: SampledBatch,
    }

    fn fixture(variant: OptimizationVariant, seed: u64) -> Fixture {
        let graph = Arc::new(tgnn_data::generate(&tgnn_data::DatasetConfig {
            node_feature_dim: 3,
            ..tgnn_data::tiny(seed)
        }));
        let mut cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
        cfg.sampled_neighbors = 10;
        let cfg = cfg.with_variant(variant);
        let mut rng = TensorRng::new(seed);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        if cfg.time_encoder == TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        // 300 events of history, then a batch of 60: some of its vertices
        // have been seen ten times and more, some once or twice, and the
        // first one never (its history is withheld).
        let mut sampler = FifoSampler::new(graph.num_nodes(), cfg.sampled_neighbors);
        graph.events()[..300]
            .iter()
            .for_each(|e| sampler.observe(e));
        let batch = EventBatch::new(graph.events()[300..360].to_vec());
        let newcomer = batch.events()[0].src;
        let sampled =
            SampledBatch::assemble(batch, cfg.sampled_neighbors, &model, |v, t, k, out| {
                if v != newcomer {
                    sampler.sample_into(v, t, k, out)
                }
            });
        let counts: Vec<usize> = (0..sampled.len())
            .map(|i| sampled.neighbors_of(i).len())
            .collect();
        assert!(counts.contains(&0) && counts.contains(&10), "{counts:?}");
        assert!(counts.contains(&1), "{counts:?}");
        // Every third touched vertex got a memory update this batch.
        let updated = (sampled.touched.iter().step_by(3))
            .map(|&v| (v, rng.uniform_vec(cfg.memory_dim, -1.0, 1.0)))
            .collect();
        Fixture {
            memory: rng.uniform_matrix(graph.num_nodes(), cfg.memory_dim, -1.0, 1.0),
            model,
            graph,
            updated,
            sampled,
        }
    }

    impl Fixture {
        fn gather(&self) -> GnnJobBatch {
            GnnJobBatch::gather(
                &self.sampled,
                &self.updated,
                &self.graph,
                &self.model.config,
                |v, dst| dst.copy_from_slice(self.memory.row(v as usize)),
            )
        }

        /// The oracle: fetch **every** sampled neighbor of vertex `i` and let
        /// the per-vertex reference decide what to do with them.
        fn fetch_everything(&self, i: usize) -> crate::model::EmbeddingOutput {
            let v = self.sampled.touched[i];
            let contexts: Vec<NeighborContext> = self
                .sampled
                .neighbors_of(i)
                .iter()
                .map(|e| NeighborContext {
                    memory: self.memory.row(e.neighbor as usize).to_vec(),
                    edge_feature: self.graph.edge_feature(e.edge_id).to_vec(),
                    delta_t: (self.sampled.query_times[i] - e.timestamp).max(0.0) as Float,
                })
                .collect();
            let own = self.updated.get(&v).map(Vec::as_slice);
            self.model.compute_embedding(
                own.unwrap_or(self.memory.row(v as usize)),
                Some(self.graph.node_feature(v)),
                &contexts,
            )
        }
    }

    /// A model of `variant` on the fixture's stream, its GRU on int8
    /// kernels when `int8`, and the stream's graph.
    fn gru_model(variant: OptimizationVariant, int8: bool) -> (TgnModel, Arc<TemporalGraph>) {
        let f = fixture(variant, 23);
        let mut model = f.model;
        if int8 {
            let events = f.graph.events();
            let config = tgnn_quant::QuantConfig::default();
            let q = crate::quantized::quantize_model(
                &model,
                &f.graph,
                &events[..100],
                &events[100..300],
                50,
                config,
            );
            assert!(q.gru().is_some(), "the default config quantizes the GRU");
            model.attach_quantized(Arc::new(q));
        }
        (model, f.graph)
    }

    /// A table in which each of `rows` vertices holds a pending message
    /// along an edge of `graph` and a memory row updated at its own time, so
    /// the Δt's spread over the time encoding's range; and the touched
    /// vertices with their query times — three of them without a message,
    /// first, in the middle and last.
    fn pending_messages(
        model: &TgnModel,
        graph: &TemporalGraph,
        rows: usize,
    ) -> (crate::NodeMemory, Vec<NodeId>, Vec<Timestamp>) {
        use crate::memory::Message;
        let cfg = &model.config;
        let mut rng = TensorRng::new(rows as u64);
        let mut table = crate::NodeMemory::new(rows + 3, cfg.memory_dim);
        let mut touched: Vec<NodeId> = (0..rows as NodeId).collect();
        touched.insert(0, rows as NodeId);
        touched.insert(touched.len() / 2, rows as NodeId + 1);
        touched.push(rows as NodeId + 2);
        for v in 0..rows as NodeId {
            let at = rng.pareto(1.0, 1.3).min(1e4) as Timestamp;
            table.set_memory(v, &rng.uniform_vec(cfg.memory_dim, -1.0, 1.0), at);
            let message = Message {
                self_memory: rng.uniform_vec(cfg.memory_dim, -1.0, 1.0),
                other_memory: rng.uniform_vec(cfg.memory_dim, -1.0, 1.0),
                edge_id: rng.index(graph.num_events()) as EdgeId,
                event_time: at + rng.pareto(1.0, 1.3).min(1e4) as Timestamp,
            };
            table.store_message(v, message);
        }
        let times = (0..touched.len()).map(|i| i as Timestamp).collect();
        (table, touched, times)
    }

    fn rows_of(updated: UpdatedRows, ws: &mut Workspace) -> Vec<(NodeId, Vec<Float>)> {
        let rows = updated.iter().map(|(v, r)| (v, r.to_vec())).collect();
        updated.recycle(ws);
        rows
    }

    /// The memory stage with the GRU as one call over every row: the
    /// reference every block cut must equal.
    fn one_call_gru(
        model: &TgnModel,
        graph: &TemporalGraph,
        (table, touched, times): &(crate::NodeMemory, Vec<NodeId>, Vec<Timestamp>),
        ws: &mut Workspace,
    ) -> Vec<(NodeId, Vec<Float>)> {
        let mut set = GruBlocks::new(touched.len().max(1));
        let staged = set.stage(model, graph, &mut table.clone(), touched, times, ws, None);
        let updated = set.finish(staged, model, ws);
        set.recycle(ws);
        rows_of(updated, ws)
    }

    #[test]
    fn gru_split_blocks_equal_the_one_call_gru_bitwise_with_a_helper_racing() {
        use std::sync::mpsc;
        for (variant, int8) in [
            (OptimizationVariant::NpMedium, false),
            (OptimizationVariant::Baseline, false),
            (OptimizationVariant::NpMedium, true),
        ] {
            let (model, graph) = gru_model(variant, int8);
            let folded = model.fold_over(&model.gru.w_i).is_some();
            assert_eq!(folded, variant == OptimizationVariant::NpMedium);
            let mut stage = MemoryStage::default();
            let mut ws = Workspace::new();
            for rows in [1, 23, 24, 25, 47, 138, 200] {
                let what = format!("{variant:?} int8 {int8}, {rows} rows");
                let pending = pending_messages(&model, &graph, rows);
                let (table, touched, times) = &pending;
                let one_call = one_call_gru(&model, &graph, &pending, &mut ws);
                assert_eq!(one_call.len(), rows, "{what}");
                let engine =
                    run_memory_stage(&model, &graph, &mut table.clone(), touched, times, &mut ws);
                assert_eq!(
                    rows_of(engine, &mut ws),
                    one_call,
                    "{what}: the engine's blocks"
                );
                let blocks = rows.div_ceil(GRU_BLOCK_ROWS);
                let (offers, sets) = mpsc::channel::<Arc<GruBlocks>>();
                let helped = std::thread::scope(|s| {
                    let (model, graph) = (&model, &*graph);
                    let helper = s.spawn(move || {
                        let mut ws = Workspace::new();
                        sets.iter()
                            .map(|set| set.help(model, &mut ws))
                            .sum::<usize>()
                    });
                    // Three batches: a set is restaged only once the helper
                    // has let go of it.
                    for _ in 0..3 {
                        let mut offered = None;
                        let updated = stage.run(
                            model,
                            graph,
                            &mut table.clone(),
                            touched,
                            times,
                            &mut ws,
                            |set| {
                                offered = set.map(|set| set.len());
                                if let Some(set) = set {
                                    offers.send(set.clone()).unwrap();
                                }
                            },
                        );
                        assert_eq!(rows_of(updated, &mut ws), one_call, "{what}");
                        let want = (blocks > 1).then_some(blocks);
                        assert_eq!(offered, want, "{what}: a one-block GRU is never offered");
                    }
                    drop(offers);
                    helper.join().unwrap()
                });
                assert!(helped <= 3 * blocks, "{what}: helped {helped}");
            }
        }
    }

    #[test]
    fn gru_split_recomputes_a_block_whose_helper_panicked_and_never_hangs() {
        use std::sync::mpsc::{self, RecvTimeoutError};
        let (done, watchdog) = mpsc::channel();
        let owner = std::thread::spawn(move || {
            let (model, graph) = gru_model(OptimizationVariant::NpMedium, false);
            let pending = pending_messages(&model, &graph, 138);
            let (table, touched, times) = &pending;
            // The helper's model disagrees with the staged blocks, so its
            // GRU panics in the first block it claims, with the lock held.
            let mut cfg = model.config.clone();
            cfg.memory_dim += 1;
            let broken = Arc::new(TgnModel::new(cfg, &mut TensorRng::new(5)));
            let mut ws = Workspace::new();
            let one_call = one_call_gru(&model, &graph, &pending, &mut ws);
            let mut stage = MemoryStage::default();
            for _ in 0..2 {
                let updated = stage.run(
                    &model,
                    &graph,
                    &mut table.clone(),
                    touched,
                    times,
                    &mut ws,
                    |set| {
                        let set = set.expect("138 rows fill six blocks").clone();
                        let broken = broken.clone();
                        let helper =
                            std::thread::spawn(move || set.help(&broken, &mut Workspace::new()));
                        assert!(helper.join().is_err(), "the helper panics mid-block");
                    },
                );
                assert_eq!(rows_of(updated, &mut ws), one_call);
            }
            done.send(()).unwrap();
        });
        match watchdog.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(()) => owner.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(owner.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("a helper that panicked mid-block hung the memory stage")
            }
        }
    }

    #[test]
    fn pruned_gather_and_run_equal_the_fetch_everything_oracle_bitwise() {
        for variant in OptimizationVariant::ladder() {
            let f = fixture(variant, 17);
            let (cfg, sel) = (&f.model.config, f.sampled.selection());
            let job = f.gather();
            let mut ws = Workspace::new();
            let served = job.run(&f.model, &mut ws);
            assert_eq!(served.len(), f.sampled.len());

            let mut logits_seen = 0;
            for (i, (v, embedding)) in served.iter().enumerate() {
                let oracle = f.fetch_everything(i);
                assert_eq!(*v, f.sampled.touched[i]);
                assert_eq!(embedding, &oracle.embedding, "{variant:?} vertex {i}");
                // What the sampling stage decided is what the reference
                // decides with every feature in hand — which is also what the
                // distillation loss reads off an `EmbeddingOutput`.
                let kept: Vec<usize> = sel.kept_of(i).iter().map(|&j| j as usize).collect();
                assert_eq!(kept, oracle.used_neighbors, "{variant:?} vertex {i}");
                let n = f.sampled.neighbors_of(i).len();
                assert_eq!(kept.len(), n.min(cfg.neighbor_budget));
                if cfg.attention == crate::config::AttentionKind::Simplified {
                    let scored = &sel.logits[logits_seen..logits_seen + n];
                    assert_eq!(scored, &oracle.attention_logits[..]);
                    logits_seen += n;
                }
            }

            // Job invariants: every sampled neighbor is counted, only kept
            // ones are held.
            let w = job.workload();
            let (edges, updates) = (f.sampled.batch.len(), f.updated.len());
            assert_eq!(
                (w.edges, w.memory_updates, w.embeddings),
                (edges, updates, served.len())
            );
            assert_eq!(w.neighbors_scored, f.sampled.total_sampled());
            assert_eq!(job.nbr_dt.len(), f.sampled.total_sampled());
            let held = w.neighbors_fetched;
            assert_eq!(held, sel.kept.len());
            assert_eq!((job.nbr_memory.rows(), job.nbr_edges.len()), (held, held));
            let prunes = cfg.neighbor_budget < cfg.sampled_neighbors;
            assert_eq!(held < w.neighbors_scored, prunes, "{variant:?}");
        }
    }
}
