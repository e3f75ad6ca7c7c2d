//! The TGN-attn neural model: GRU memory updater, attention aggregator
//! (vanilla or simplified), time encoder (cos or LUT), and output feature
//! transformation.
//!
//! The batched GNN stage ([`TgnModel::embeddings_selected`]) is the paper's
//! Embedding Unit on a CPU: batch GEMMs for the per-target projections and,
//! between them, one pass per target over its neighbor rows, staged in a
//! `k`-row buffer the next target reuses (the unit's on-chip neighbor
//! buffer) while the next target's edge features are prefetched.
//!
//! The model is *stateless with respect to the graph*: it owns only learnable
//! parameters.  The persistent vertex state (memory, mailbox, neighbor table)
//! lives in [`crate::memory::NodeMemory`] and `tgnn_graph`, and the
//! [`crate::inference::InferenceEngine`] wires everything together following
//! Algorithm 1.

use crate::config::{AttentionKind, ModelConfig, TimeEncoderKind};
use crate::quantized::QuantizedKey;
use crate::quantized::{layers, QuantizedTgn};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tgnn_nn::attention::{key_logits_into, Aggregate, Selection, SimplifiedCache, VanillaCache};
use tgnn_nn::{
    CosTimeEncoder, GruCell, Linear, LutTimeEncoder, Param, SimplifiedAttention, VanillaAttention,
};
use tgnn_quant::{ActivationObserver, QuantizedLinear};
use tgnn_tensor::ops::{prefetch, softmax_in_place};
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

/// Per-neighbor context assembled by the caller (memory snapshot, edge
/// feature, and time difference to the query time).
#[derive(Clone, Debug)]
pub struct NeighborContext {
    /// The neighbor's current memory vector.
    pub memory: Vec<Float>,
    /// Feature of the interaction edge that connects target and neighbor.
    pub edge_feature: Vec<Float>,
    /// Query time minus the interaction timestamp (≥ 0).
    pub delta_t: Float,
}

/// Borrowed per-neighbor context for the batched hot path: the engine points
/// straight into the memory table and the graph's edge-feature storage, so
/// assembling a batch copies nothing.
#[derive(Clone, Copy, Debug)]
pub struct NeighborRef<'a> {
    /// The neighbor's current memory row.
    pub memory: &'a [Float],
    /// Feature of the interaction edge that connects target and neighbor.
    pub edge_feature: &'a [Float],
    /// Query time minus the interaction timestamp (≥ 0).
    pub delta_t: Float,
}

/// One vertex's embedding request within a batched GNN-stage computation.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingJob<'a> {
    /// The vertex's (already updated) memory `s_i`.
    pub memory: &'a [Float],
    /// Its static feature row (required iff the model has node features).
    pub node_feature: Option<&'a [Float]>,
    /// Sampled temporal neighbor contexts, most recent first.
    pub neighbors: &'a [NeighborRef<'a>],
}

/// Result of computing one vertex embedding.
#[derive(Clone, Debug)]
pub struct EmbeddingOutput {
    /// The output embedding `h_v`.
    pub embedding: Vec<Float>,
    /// Pre-softmax attention logits over the candidate neighbors (used by
    /// knowledge distillation).
    pub attention_logits: Vec<Float>,
    /// Indices of the neighbors that were actually aggregated (after
    /// pruning).
    pub used_neighbors: Vec<usize>,
}

/// Backward cache for one embedding computation.
#[derive(Debug)]
pub struct EmbeddingCache {
    node_feature: Option<Matrix>,
    concat_input: Matrix,
    vanilla: Option<VanillaCache>,
    simplified: Option<SimplifiedCache>,
}

/// Hands a projection's input to the calibration observer, if there is one:
/// the rows of `x`, and for a layer folded over `lut` the LUT rows its time
/// tail reads, one per Δt of `dts`.
fn record_input(
    obs: &mut Option<&mut dyn ActivationObserver>,
    layer: &'static str,
    x: &Matrix,
    lut: Option<&LutTimeEncoder>,
    dts: impl IntoIterator<Item = Float>,
) {
    let Some(o) = obs else { return };
    o.record(layer, x.as_slice());
    if let Some(lut) = lut {
        for dt in dts {
            o.record(layer, lut.table().value.row(lut.lookup_bin(dt)));
        }
    }
}

/// One projection of the batched GNN stage, on whichever datapath serves it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Projection<'a> {
    F32(&'a Linear),
    Int8(&'a QuantizedLinear),
}

impl Projection<'_> {
    /// `x → y` into a workspace matrix; with `fold`, `x` stops before the
    /// layer's time tail, which is the LUT's encoding of the given Δt's.
    fn forward_ws(
        self,
        x: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        ws: &mut Workspace,
    ) -> Matrix {
        match (self, fold) {
            (Self::F32(l), None) => l.forward_ws(x, ws),
            (Self::F32(l), Some((lut, dts))) => l.forward_folded_ws(x, lut, dts, ws),
            (Self::Int8(q), None) => q.forward_ws(x, ws),
            (Self::Int8(q), Some((lut, dts))) => q.forward_folded_ws(x, lut, dts, ws),
        }
    }

    /// Input columns the aggregated forward multiplies.
    fn head_dim(self) -> usize {
        match self {
            Self::F32(l) => l.head_dim(),
            Self::Int8(q) => q.in_dim(),
        }
    }

    /// Columns of a row's time-tail chain, when the layer has one on rows
    /// staged folded or not (an int8 layer has one only when folded).
    fn tail_dim(self, folded: bool) -> Option<usize> {
        match self {
            Self::F32(l) => l.split().map(|_| l.out_dim()),
            Self::Int8(q) => folded.then(|| q.out_dim()),
        }
    }

    /// Row `j`'s time-tail chain, for every row of `rows`, into `out`
    /// ([`Linear::tails_into`]; only for a layer with a [`Self::tail_dim`]).
    fn tails_into(
        self,
        rows: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        out: &mut Matrix,
    ) {
        match (self, fold) {
            (Self::F32(l), _) => l.tails_into(rows, fold, out),
            (Self::Int8(q), Some((lut, dts))) => q.tails_into(lut, dts, out),
            (Self::Int8(_), None) => unreachable!("an unfolded int8 layer has no tails"),
        }
    }

    /// Aggregate, then transform ([`Linear::forward_aggregated_ws`]).
    fn forward_aggregated_ws(
        self,
        xbar: &Matrix,
        tails: Option<&Matrix>,
        mass: &[Float],
        ws: &mut Workspace,
    ) -> Matrix {
        match self {
            Self::F32(l) => l.forward_aggregated_ws(xbar, tails, mass, ws),
            Self::Int8(q) => q.forward_aggregated_ws(xbar, tails, mass, ws),
        }
    }
}

/// Vanilla attention's key side on whichever datapath serves it: `W_kᵀ`
/// (run on the queries), `b_k`, and the keys' time-tail chains.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KeySide<'a> {
    F32(&'a Linear),
    Int8(&'a QuantizedKey),
}

impl KeySide<'_> {
    /// `W_k[:, ..h]ᵀ q_i` for every query row (workspace matrix).
    fn transposed_ws(self, q: &Matrix, ws: &mut Workspace) -> Matrix {
        match self {
            Self::F32(l) => l.forward_transposed_ws(q, ws),
            Self::Int8(k) => k.transposed_ws(q, ws),
        }
    }

    fn bias(&self) -> &[Float] {
        match self {
            Self::F32(l) => l.bias.value.row(0),
            Self::Int8(k) => k.bias(),
        }
    }

    /// Columns of a row's key tail chain, as [`Projection::tail_dim`].
    fn tail_dim(self, folded: bool) -> Option<usize> {
        match self {
            Self::F32(l) => l.split().map(|_| l.out_dim()),
            Self::Int8(k) => k.tail_dim().filter(|_| folded),
        }
    }

    /// The key tail chains of `rows`, as [`Projection::tails_into`].
    fn tails_into(
        self,
        rows: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        out: &mut Matrix,
    ) {
        match (self, fold) {
            (Self::F32(l), _) => l.tails_into(rows, fold, out),
            (Self::Int8(k), Some((lut, dts))) => k.tails_into(lut, dts, out),
            (Self::Int8(_), None) => unreachable!("an unfolded int8 key has no tails"),
        }
    }
}

/// One target's neighbor rows on chip: the buffers the per-vertex pass of
/// [`TgnModel::embeddings_selected`] stages a target's ≤ k neighbors in —
/// the Embedding Unit's neighbor buffer.  Taken once per batch at `k` rows;
/// each target resizes them to its own count and overwrites them, so the
/// stage's footprint does not grow with the batch or its neighbor counts.
struct NeighborStage {
    /// `[s_j ‖ e_ij]`, then `Φ(Δt_j)` unless the layers fold it.
    rows: Matrix,
    /// The rows' Δt's.
    dts: Vec<Float>,
    /// `Φ(Δt_j)` on its way into `rows` (unfolded layers only).
    enc: Option<Matrix>,
    /// The rows' key and value time-tail chains, for layers with them.
    k_tails: Option<Matrix>,
    v_tails: Option<Matrix>,
    /// The rows' attention weights (vanilla: the logits first).
    weights: Vec<Float>,
}

impl NeighborStage {
    fn take(cfg: &ModelConfig, layers: &GnnLayers<'_>, ws: &mut Workspace) -> Self {
        let k = cfg.sampled_neighbors;
        let folded = layers.lut.is_some();
        let width = match folded {
            true => cfg.memory_dim + cfg.edge_feature_dim,
            false => cfg.neighbor_input_dim(),
        };
        let key_tail = layers.key.and_then(|key| key.tail_dim(folded));
        Self {
            rows: ws.take_matrix(k, width),
            dts: ws.take(k),
            enc: (!folded).then(|| ws.take_matrix(k, cfg.time_dim)),
            k_tails: key_tail.map(|d| ws.take_matrix(k, d)),
            v_tails: layers.w_v.tail_dim(folded).map(|d| ws.take_matrix(k, d)),
            weights: ws.take(k),
        }
    }

    /// Stages one target's neighbors: their rows and Δt's
    /// ([`TgnModel::stage_rows`]), then the tails of the layers with one.
    fn stage(&mut self, model: &TgnModel, layers: &GnnLayers<'_>, neighbors: &[NeighborRef<'_>]) {
        model.stage_rows(neighbors, &mut self.rows, &mut self.dts, self.enc.as_mut());
        let fold = layers.lut.map(|lut| (lut, &self.dts[..]));
        if let (Some(key), Some(tails)) = (layers.key, self.k_tails.as_mut()) {
            tails.resize_rows(neighbors.len());
            key.tails_into(&self.rows, fold, tails);
        }
        if let Some(tails) = self.v_tails.as_mut() {
            tails.resize_rows(neighbors.len());
            layers.w_v.tails_into(&self.rows, fold, tails);
        }
    }

    fn recycle(self, ws: &mut Workspace) {
        let matrices = [Some(self.rows), self.enc, self.k_tails, self.v_tails];
        matrices
            .into_iter()
            .flatten()
            .for_each(|m| ws.recycle_matrix(m));
        ws.recycle(self.dts);
        ws.recycle(self.weights);
    }
}

/// The weight set one batched GNN stage runs on: the model's own f32 layers
/// or an attached int8 snapshot ([`QuantizedTgn`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct GnnLayers<'a> {
    pub node_proj: Option<Projection<'a>>,
    /// Vanilla attention's query projection and key side.
    pub w_q: Option<Projection<'a>>,
    pub key: Option<KeySide<'a>>,
    pub w_v: Projection<'a>,
    pub output: Projection<'a>,
    /// The LUT every time tail of these layers is folded over; `None`: the
    /// layers take full-width inputs with the encoding materialised.
    pub lut: Option<&'a LutTimeEncoder>,
}

/// The TGN-attn model with the paper's optimization knobs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TgnModel {
    /// Model configuration.
    pub config: ModelConfig,
    /// GRU memory updater (`UPDT`).
    pub gru: GruCell,
    /// Optional static-node-feature projection `W_s` (Eq. 11).
    pub node_proj: Option<Linear>,
    /// Vanilla attention aggregator (present when
    /// `config.attention == Vanilla`).
    pub vanilla: Option<VanillaAttention>,
    /// Simplified attention aggregator (present when
    /// `config.attention == Simplified`).
    pub simplified: Option<SimplifiedAttention>,
    /// Trigonometric time encoder (always present; also the reference the
    /// LUT is calibrated from).
    pub cos_encoder: CosTimeEncoder,
    /// LUT time encoder (present when `config.time_encoder == Lut` and
    /// calibration has run).
    pub lut_encoder: Option<LutTimeEncoder>,
    /// Output feature transformation (FTM): `[h_agg || f'_i] -> embedding`.
    pub output: Linear,
    /// Attached int8 weight set.  When present, the *batched* paths — the
    /// embedding unit's [`Self::embeddings_selected`] and the memory
    /// stage's `update_memory_with` — run on the quantized kernels, which
    /// is how both `ExecMode::Quantized` and the `tgnn-serve` pipeline
    /// execute the int8 path without any caller changes.  The per-vertex
    /// reference paths always stay f32.
    pub quantized: Option<Arc<QuantizedTgn>>,
}

impl TgnModel {
    /// Creates a model with freshly initialised weights.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig, rng: &mut TensorRng) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ModelConfig: {e}"));
        // In a LUT model every layer whose input ends in a time encoding
        // accumulates it apart, so the encoding can be folded into the layer.
        let time_tail = (config.time_encoder == TimeEncoderKind::Lut).then_some(config.time_dim);
        let gru = GruCell::new("gru", config.message_dim(), config.memory_dim, rng)
            .with_time_tail(time_tail);
        let node_proj = if config.node_feature_dim > 0 {
            Some(Linear::new(
                "node_proj",
                config.node_feature_dim,
                config.memory_dim,
                rng,
            ))
        } else {
            None
        };
        let vanilla = match config.attention {
            AttentionKind::Vanilla => Some(VanillaAttention::new(
                "attention",
                config.query_input_dim(),
                config.neighbor_input_dim(),
                config.memory_dim,
                config.memory_dim,
                rng,
            )),
            AttentionKind::Simplified => None,
        };
        let simplified = match config.attention {
            AttentionKind::Simplified => Some(SimplifiedAttention::new(
                "sat",
                config.sampled_neighbors,
                config.neighbor_input_dim(),
                config.memory_dim,
                config.time_scale,
                rng,
            )),
            AttentionKind::Vanilla => None,
        };
        let cos_encoder = CosTimeEncoder::new("time", config.time_dim, rng);
        let output = Linear::new("ftm", 2 * config.memory_dim, config.embedding_dim, rng);
        Self {
            config,
            gru,
            node_proj,
            vanilla: vanilla.map(|att| att.with_time_tail(time_tail)),
            simplified: simplified.map(|att| att.with_time_tail(time_tail)),
            cos_encoder,
            lut_encoder: None,
            output,
            quantized: None,
        }
    }

    /// Attaches an int8 weight set (see [`crate::quantized`]): from the next
    /// batch on, every batched forward runs on the quantized kernels.
    pub fn attach_quantized(&mut self, q: Arc<QuantizedTgn>) {
        self.quantized = Some(q);
    }

    /// Detaches the int8 weight set, returning the model to pure f32.
    pub fn detach_quantized(&mut self) {
        self.quantized = None;
    }

    /// True when an int8 weight set is attached.
    pub fn is_quantized(&self) -> bool {
        self.quantized.is_some()
    }

    /// Calibrates the LUT time encoder from a sample of Δt values (only
    /// meaningful when `config.time_encoder == Lut`; harmless otherwise).
    pub fn calibrate_lut(&mut self, delta_samples: &[Float]) {
        if delta_samples.is_empty() {
            return;
        }
        self.lut_encoder = Some(LutTimeEncoder::calibrate(
            "time_lut",
            delta_samples,
            self.config.lut_bins,
            &self.cos_encoder,
        ));
    }

    /// True when the model will use the LUT path at inference.
    pub fn uses_lut(&self) -> bool {
        self.config.time_encoder == TimeEncoderKind::Lut && self.lut_encoder.is_some()
    }

    /// The LUT to fold `layer`'s time tail over, when the model serves from
    /// one and the layer has a tail to fold.
    pub(crate) fn fold_over(&self, layer: &Linear) -> Option<&LutTimeEncoder> {
        self.lut_encoder
            .as_ref()
            .filter(|_| self.uses_lut() && layer.split().is_some())
    }

    /// The attention decision for one vertex from the Δt's of its sampled
    /// neighbors, appended to `out`: [`SimplifiedAttention::select`] — no
    /// feature is needed, so the sampling stage calls this before anything is
    /// fetched — or, for vanilla attention, "keep all, score later".
    pub fn select(&self, delta_t: &[Float], out: &mut Selection) {
        match self.config.attention {
            AttentionKind::Simplified => {
                let att = self.simplified.as_ref();
                let att = att.expect("simplified attention missing");
                att.select(delta_t, self.config.neighbor_budget, out)
            }
            AttentionKind::Vanilla => out.keep_all(delta_t.len()),
        }
    }

    /// Encodes a batch of time deltas with the configured encoder.
    pub fn encode_time(&self, delta_t: &[Float]) -> Matrix {
        let mut out = Matrix::zeros(delta_t.len(), self.config.time_dim);
        self.encode_time_into(delta_t, &mut out);
        out
    }

    /// Updates a batch of vertex memories: `messages (B×message_dim)`,
    /// `memories (B×memory_dim)` → new memories.
    pub fn update_memory(&self, messages: &Matrix, memories: &Matrix) -> Matrix {
        self.gru.forward(messages, memories)
    }

    /// Like [`Self::update_memory`] but also returns the GRU cache for
    /// training.
    pub fn update_memory_cached(
        &self,
        messages: &Matrix,
        memories: &Matrix,
    ) -> (Matrix, tgnn_nn::gru::GruCache) {
        self.gru.forward_cached(messages, memories)
    }

    /// Computes the query-side feature `f'_i = s_i + W_s f_i + b_s`
    /// (Eq. 11); without node features this is simply the memory.
    fn f_prime(&self, memory: &[Float], node_feature: Option<&Matrix>) -> Matrix {
        let base = Matrix::row_vector(memory);
        match (&self.node_proj, node_feature) {
            (Some(proj), Some(feat)) => tgnn_tensor::ops::add(&base, &proj.forward(feat)),
            _ => base,
        }
    }

    /// Builds the neighbor-side input matrix `[s_j || e_ij || Φ(Δt_j)]` of one
    /// vertex (the per-vertex reference's view of [`Self::stage_rows`]).
    fn neighbor_inputs(&self, neighbors: &[NeighborContext]) -> (Matrix, Vec<Float>) {
        let refs: Vec<NeighborRef<'_>> = neighbors
            .iter()
            .map(|c| NeighborRef {
                memory: &c.memory,
                edge_feature: &c.edge_feature,
                delta_t: c.delta_t,
            })
            .collect();
        let (n, cfg) = (refs.len(), &self.config);
        let mut rows = Matrix::zeros(n, cfg.neighbor_input_dim());
        let mut dts = Vec::with_capacity(n);
        let mut enc = Matrix::zeros(n, cfg.time_dim);
        self.stage_rows(&refs, &mut rows, &mut dts, Some(&mut enc));
        (rows, dts)
    }

    /// Computes the embedding of one target vertex.
    ///
    /// * `memory` — the vertex's (already updated) memory `s_i`.
    /// * `node_feature` — its static feature row (required iff the model was
    ///   built with node features).
    /// * `neighbors` — the sampled temporal neighbor contexts, most recent
    ///   first, at most `config.sampled_neighbors` entries.
    pub fn compute_embedding(
        &self,
        memory: &[Float],
        node_feature: Option<&[Float]>,
        neighbors: &[NeighborContext],
    ) -> EmbeddingOutput {
        self.compute_embedding_cached(memory, node_feature, neighbors)
            .0
    }

    /// [`Self::compute_embedding`] plus the cache needed for
    /// [`Self::backward_embedding`].
    ///
    /// # Panics
    /// Panics on dimension mismatches or when more than
    /// `config.sampled_neighbors` neighbors are supplied.
    pub fn compute_embedding_cached(
        &self,
        memory: &[Float],
        node_feature: Option<&[Float]>,
        neighbors: &[NeighborContext],
    ) -> (EmbeddingOutput, EmbeddingCache) {
        assert_eq!(
            memory.len(),
            self.config.memory_dim,
            "target memory dim mismatch"
        );
        assert!(
            neighbors.len() <= self.config.sampled_neighbors,
            "more neighbors than the sampling budget"
        );
        let node_feature_matrix = node_feature.map(Matrix::row_vector);
        if self.node_proj.is_some() {
            assert!(
                node_feature_matrix.is_some(),
                "model expects node features but none were supplied"
            );
        }

        let f_prime = self.f_prime(memory, node_feature_matrix.as_ref());
        let (neighbor_input, dts) = self.neighbor_inputs(neighbors);

        let (out, vanilla, simplified) = match self.config.attention {
            AttentionKind::Vanilla => {
                let att = self.vanilla.as_ref().expect("vanilla attention missing");
                let query_input = f_prime.hconcat(&self.encode_time(&[0.0]));
                let (out, cache) = att.forward_cached(&query_input, &neighbor_input);
                (out, Some(cache), None)
            }
            AttentionKind::Simplified => {
                let att = self
                    .simplified
                    .as_ref()
                    .expect("simplified attention missing");
                let budget = self.config.neighbor_budget;
                let (out, cache) = att.forward_cached(&dts, &neighbor_input, budget);
                (out, None, Some(cache))
            }
        };

        // FTM: embedding = W_out [agg || f'_i] + b_out.
        let concat_input = Matrix::row_vector(&out.output).hconcat(&f_prime);
        let embedding = self.output.forward(&concat_input).row_to_vec(0);
        let output = EmbeddingOutput {
            embedding,
            attention_logits: out.logits,
            used_neighbors: out.selected,
        };
        let cache = EmbeddingCache {
            node_feature: node_feature_matrix,
            concat_input,
            vanilla,
            simplified,
        };
        (output, cache)
    }

    /// Encodes a batch of time deltas into a pre-sized output matrix
    /// (allocation-free [`Self::encode_time`]).
    pub fn encode_time_into(&self, delta_t: &[Float], out: &mut Matrix) {
        match self.lut_encoder.as_ref().filter(|_| self.uses_lut()) {
            Some(lut) => lut.forward_into(delta_t, out),
            None => self.cos_encoder.forward_into(delta_t, out),
        }
    }

    /// Allocation-free [`Self::update_memory`] on workspace buffers and the
    /// packed GEMM (bit-identical results to [`Self::update_memory`] while
    /// f32; recycle the returned matrix).  With a quantized weight set
    /// attached whose configuration quantizes the GRU, the gate projections
    /// run on the int8 kernels instead.
    pub fn update_memory_ws(
        &self,
        messages: &Matrix,
        memories: &Matrix,
        ws: &mut Workspace,
    ) -> Matrix {
        self.update_memory_with(messages, None, memories, ws)
    }

    /// [`Self::update_memory_ws`]; with `fold`, `messages` stop before the
    /// time encoding, which is the LUT's of the given Δt's and is never
    /// assembled ([`GruCell::forward_folded_ws`]).
    pub(crate) fn update_memory_with(
        &self,
        messages: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        memories: &Matrix,
        ws: &mut Workspace,
    ) -> Matrix {
        match (self.quantized.as_ref().and_then(|q| q.gru()), fold) {
            (Some(qgru), _) => qgru.forward_ws(messages, memories, fold, ws),
            (None, None) => self.gru.forward_ws(messages, memories, ws),
            (None, Some((lut, dts))) => {
                self.gru.forward_folded_ws(messages, lut, dts, memories, ws)
            }
        }
    }

    /// Computes the embeddings of a whole batch of vertices at once, given
    /// every vertex's *sampled* neighbors: [`Self::select`], then
    /// [`Self::embeddings_selected`] on the kept ones — bit-for-bit the
    /// per-vertex [`Self::compute_embedding`].  The served paths select at
    /// the sampling stage and never fetch the rest, so they skip this entry.
    ///
    /// # Panics
    /// Panics on dimension mismatches or when a job exceeds
    /// `config.sampled_neighbors`.
    pub fn compute_embeddings_batch(
        &self,
        jobs: &[EmbeddingJob<'_>],
        ws: &mut Workspace,
    ) -> Vec<EmbeddingOutput> {
        let mut sel = Selection::default();
        let mut dts = Vec::with_capacity(self.config.sampled_neighbors);
        let mut kept_refs = Vec::new();
        for job in jobs {
            dts.clear();
            dts.extend(job.neighbors.iter().map(|n| n.delta_t));
            self.select(&dts, &mut sel);
            let kept = sel.kept_of(sel.ranges.len() - 1);
            kept_refs.extend(kept.iter().map(|&j| job.neighbors[j as usize]));
        }
        let kept_jobs: Vec<EmbeddingJob<'_>> = jobs
            .iter()
            .zip(&sel.ranges)
            .map(|(job, &(start, len))| EmbeddingJob {
                neighbors: &kept_refs[start..start + len],
                ..*job
            })
            .collect();
        let mut vanilla_logits = Vec::new();
        let embeddings = self.embed_selected(
            self.gnn_layers(),
            &kept_jobs,
            (&sel, 0),
            Some(&mut vanilla_logits),
            ws,
            None,
        );
        // Simplified attention scored the candidates in `select`, vanilla
        // attention just now; either way one logit per sampled neighbor.
        let logits = match self.config.attention {
            AttentionKind::Simplified => &sel.logits,
            AttentionKind::Vanilla => &vanilla_logits,
        };
        let mut scored = 0;
        let outputs = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let first = scored;
                scored += job.neighbors.len();
                EmbeddingOutput {
                    embedding: embeddings.row_to_vec(i),
                    attention_logits: logits[first..scored].to_vec(),
                    used_neighbors: sel.kept_of(i).iter().map(|&j| j as usize).collect(),
                }
            })
            .collect();
        ws.recycle_matrix(embeddings);
        outputs
    }

    /// The attached int8 snapshot if there is one, else the model's layers.
    fn gnn_layers(&self) -> GnnLayers<'_> {
        match &self.quantized {
            Some(q) => q.gnn_layers(),
            None => self.f32_gnn_layers(),
        }
    }

    /// The model's own layers, folded when every time tail can be.
    fn f32_gnn_layers(&self) -> GnnLayers<'_> {
        let (w_q, w_k, w_v) = match self.config.attention {
            AttentionKind::Vanilla => {
                let att = self.vanilla.as_ref().expect("vanilla attention missing");
                (Some(&att.w_q), Some(&att.w_k), &att.w_v)
            }
            AttentionKind::Simplified => {
                let att = self.simplified.as_ref();
                (None, None, &att.expect("simplified attention missing").w_v)
            }
        };
        let foldable = [w_q, w_k].iter().flatten().all(|l| l.split().is_some());
        GnnLayers {
            node_proj: self.node_proj.as_ref().map(Projection::F32),
            w_q: w_q.map(Projection::F32),
            key: w_k.map(KeySide::F32),
            w_v: Projection::F32(w_v),
            output: Projection::F32(&self.output),
            lut: self.fold_over(w_v).filter(|_| foldable),
        }
    }

    /// The batched GNN stage — the hot path of every mode but `Serial` and
    /// of every served batch: one GEMM per weight matrix per batch on the
    /// packed kernel (int8 with a quantized set attached), each over one row
    /// per target vertex — the attention aggregates its neighbor rows before
    /// it projects them ([`tgnn_nn::attention`]) — temporaries from the
    /// workspace.  Between the GEMMs runs one pass per target: its ≤ k
    /// neighbor rows are staged in a `k`-row buffer the next target reuses,
    /// scored (vanilla) and aggregated there, so no matrix of the batch's
    /// neighbor rows is ever built.  `jobs[i].neighbors` are the neighbors
    /// vertex `i` **aggregates** (kept ones, kept order), weighted by entry
    /// `selection.1 + i` of `selection.0` — a shard passes the batch's
    /// selection and its offset.  Returns `jobs.len() × embedding_dim` in a
    /// workspace matrix (recycle it).
    ///
    /// No attention decision is taken here: there is one `select`
    /// ([`SimplifiedAttention::select`]) and every caller has been through
    /// it; one split rule ([`Linear::with_time_tail`]) says how a time
    /// encoding enters a sum, here (folded) as in the unfolded reference;
    /// and one aggregation rule ([`Aggregate::set_vertex`],
    /// [`key_logits_into`]) says how the neighbor rows meet the
    /// projections, here as in `Serial`.
    /// With `obs` the f32 layers run and every input a quantized projection
    /// would see is recorded (int8 calibration).
    ///
    /// # Panics
    /// Panics on dimension mismatches or when a job exceeds
    /// `config.sampled_neighbors`.
    pub fn embeddings_selected(
        &self,
        jobs: &[EmbeddingJob<'_>],
        selection: (&Selection, usize),
        ws: &mut Workspace,
        obs: Option<&mut dyn ActivationObserver>,
    ) -> Matrix {
        let layers = match obs {
            Some(_) => self.f32_gnn_layers(),
            None => self.gnn_layers(),
        };
        self.embed_selected(layers, jobs, selection, None, ws, obs)
    }

    /// Stages one vertex's neighbor-side inputs in `rows`, resized to one
    /// row per neighbor, and their Δt's in `dts`: `[s_j ‖ e_ij]`, then — with
    /// `enc`, the scratch the encodings pass through — `Φ(Δt_j)`.
    fn stage_rows(
        &self,
        neighbors: &[NeighborRef<'_>],
        rows: &mut Matrix,
        dts: &mut Vec<Float>,
        enc: Option<&mut Matrix>,
    ) {
        let cfg = &self.config;
        let (mem_dim, head) = (cfg.memory_dim, cfg.memory_dim + cfg.edge_feature_dim);
        let n = neighbors.len();
        rows.resize_rows(n);
        dts.clear();
        for (row, ctx) in neighbors.iter().enumerate() {
            assert_eq!(ctx.memory.len(), mem_dim, "neighbor memory dim mismatch");
            assert_eq!(
                ctx.edge_feature.len(),
                cfg.edge_feature_dim,
                "neighbor edge feature dim mismatch"
            );
            let dst = rows.row_mut(row);
            dst[..mem_dim].copy_from_slice(ctx.memory);
            dst[mem_dim..head].copy_from_slice(ctx.edge_feature);
            dts.push(ctx.delta_t);
        }
        if let Some(enc) = enc.filter(|_| n > 0) {
            enc.resize_rows(n);
            self.encode_time_into(dts, enc);
            for row in 0..n {
                rows.row_mut(row)[head..].copy_from_slice(enc.row(row));
            }
        }
    }

    /// The one body of the batched GNN stage (see
    /// [`Self::embeddings_selected`]); `vanilla_logits` receives vanilla
    /// attention's pre-softmax logits, vertices back to back.
    fn embed_selected(
        &self,
        layers: GnnLayers<'_>,
        jobs: &[EmbeddingJob<'_>],
        (sel, first): (&Selection, usize),
        mut vanilla_logits: Option<&mut Vec<Float>>,
        ws: &mut Workspace,
        mut obs: Option<&mut dyn ActivationObserver>,
    ) -> Matrix {
        let t = jobs.len();
        let cfg = &self.config;
        let mem_dim = cfg.memory_dim;
        if t == 0 {
            return ws.take_matrix(0, cfg.embedding_dim);
        }

        // --- f'_i = s_i (+ W_s f_i + b_s) for every target.
        let mut f_prime = ws.take_matrix(t, mem_dim);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.memory.len(), mem_dim, "target memory dim mismatch");
            assert!(
                job.neighbors.len() <= cfg.sampled_neighbors,
                "more neighbors than the sampling budget"
            );
            f_prime.row_mut(i).copy_from_slice(job.memory);
        }
        if let Some(proj) = layers.node_proj {
            let mut features = ws.take_matrix(t, cfg.node_feature_dim);
            for (i, job) in jobs.iter().enumerate() {
                let feat = job
                    .node_feature
                    .expect("model expects node features but none were supplied");
                features.row_mut(i).copy_from_slice(feat);
            }
            record_input(&mut obs, layers::NODE_PROJ_INPUT, &features, None, []);
            let projected = proj.forward_ws(&features, None, ws);
            for (a, &b) in f_prime.as_mut_slice().iter_mut().zip(projected.as_slice()) {
                *a += b;
            }
            ws.recycle_matrix(projected);
            ws.recycle_matrix(features);
        }

        // --- Vanilla: queries from `[f'_i ‖ Φ(0)]`, one W_q GEMM for the
        // batch; they meet the keys as `W_kᵀ q_i` (one GEMM more), so no
        // neighbor row is projected.
        let queries = match (layers.w_q, layers.key) {
            (Some(w_q), Some(key)) => {
                let zero_dts = ws.take(t);
                let q_fold = layers.lut.map(|lut| (lut, &zero_dts[..]));
                let unfolded = q_fold.is_none().then(|| {
                    let mut zero_enc = ws.take_matrix(1, cfg.time_dim);
                    self.encode_time_into(&[0.0], &mut zero_enc);
                    let mut query_input = ws.take_matrix(t, cfg.query_input_dim());
                    for i in 0..t {
                        let dst = query_input.row_mut(i);
                        dst[..mem_dim].copy_from_slice(f_prime.row(i));
                        dst[mem_dim..].copy_from_slice(zero_enc.row(0));
                    }
                    ws.recycle_matrix(zero_enc);
                    query_input
                });
                let query_input = unfolded.as_ref().unwrap_or(&f_prime);
                let zeros = std::iter::repeat_n(0.0, t);
                record_input(&mut obs, layers::ATTN_QUERY, query_input, layers.lut, zeros);
                let q_all = w_q.forward_ws(query_input, q_fold, ws);
                unfolded.into_iter().for_each(|m| ws.recycle_matrix(m));
                ws.recycle(zero_dts);
                record_input(&mut obs, layers::ATTN_Q, &q_all, None, []);
                let p_all = key.transposed_ws(&q_all, ws);
                Some((key, q_all, p_all))
            }
            _ => None,
        };

        // --- Per target, one pass over its neighbor rows staged on chip:
        // their weights — vanilla scores them against its query, simplified
        // took them when it selected the rows — then `x̄_i`, `τ_i` and the
        // mass into row i of the aggregate.  The next target's edge features
        // are on their way to the cache meanwhile.
        let mut stage = NeighborStage::take(cfg, &layers, ws);
        let tail_dim = stage.v_tails.as_ref().map(Matrix::cols);
        let mut agg = Aggregate::take(t, layers.w_v.head_dim(), tail_dim, ws);
        for (i, job) in jobs.iter().enumerate() {
            let next = jobs.get(i + 1).map_or(&[][..], |next| next.neighbors);
            next.iter().for_each(|ctx| prefetch(ctx.edge_feature));
            stage.stage(self, &layers, job.neighbors);
            let n = job.neighbors.len();
            let weights = match &queries {
                Some((key, q_all, p_all)) => {
                    let w = &mut stage.weights[..n];
                    let (q, p, k_tails) = (q_all.row(i), p_all.row(i), stage.k_tails.as_ref());
                    key_logits_into(q, p, key.bias(), &stage.rows, k_tails, w);
                    if let Some(logits) = vanilla_logits.as_deref_mut() {
                        logits.extend_from_slice(w);
                    }
                    softmax_in_place(w);
                    &stage.weights[..n]
                }
                None => {
                    let w = sel.weights_of(first + i);
                    assert_eq!(w.len(), n, "selection / job mismatch");
                    w
                }
            };
            agg.set_vertex(i, &stage.rows, weights, stage.v_tails.as_ref());
        }
        stage.recycle(ws);
        if let Some((_, q_all, p_all)) = queries {
            ws.recycle_matrix(p_all);
            ws.recycle_matrix(q_all);
        }

        // --- Values: one W_v product per target for the batch.
        let nbr_dts = jobs.iter().flat_map(|job| job.neighbors).map(|c| c.delta_t);
        record_input(
            &mut obs,
            layers::ATTN_NEIGHBOR,
            &agg.rows,
            layers.lut,
            nbr_dts,
        );
        let h_agg = layers
            .w_v
            .forward_aggregated_ws(&agg.rows, agg.tails.as_ref(), &agg.mass, ws);
        agg.recycle(ws);

        // --- FTM: one GEMM over `[h_agg || f'_i]` for the whole batch.
        let mut concat = ws.take_matrix(t, 2 * mem_dim);
        for i in 0..t {
            let dst = concat.row_mut(i);
            dst[..mem_dim].copy_from_slice(h_agg.row(i));
            dst[mem_dim..].copy_from_slice(f_prime.row(i));
        }
        record_input(&mut obs, layers::FTM_INPUT, &concat, None, []);
        let out_mat = layers.output.forward_ws(&concat, None, ws);
        ws.recycle_matrix(concat);
        ws.recycle_matrix(h_agg);
        ws.recycle_matrix(f_prime);
        out_mat
    }

    /// Backward pass of one embedding computation.  Accumulates gradients in
    /// the attention, FTM, and node-projection parameters, and returns the
    /// gradient with respect to the target vertex's memory `s_i` (to be fed
    /// into the GRU backward pass).  Neighbor memories are treated as
    /// constants, following the standard TGN training protocol where
    /// gradients do not flow across the memory table.
    pub fn backward_embedding(
        &mut self,
        cache: &EmbeddingCache,
        grad_embedding: &[Float],
    ) -> Vec<Float> {
        let mem_dim = self.config.memory_dim;
        // FTM backward.
        let grad_concat = self
            .output
            .backward(&cache.concat_input, &Matrix::row_vector(grad_embedding));
        let grad_agg: Vec<Float> = grad_concat.row(0)[..mem_dim].to_vec();
        let mut grad_f_prime: Vec<Float> = grad_concat.row(0)[mem_dim..].to_vec();

        // Attention backward.
        match self.config.attention {
            AttentionKind::Vanilla => {
                if let (Some(att), Some(vcache)) = (self.vanilla.as_mut(), cache.vanilla.as_ref()) {
                    let (grad_query, _grad_neighbors) = att.backward(vcache, &grad_agg);
                    // query_input = [f'_i || Φ(0)]; the time-encoding half is
                    // not trained through this path.
                    for (g, &gq) in grad_f_prime
                        .iter_mut()
                        .zip(grad_query.row(0)[..mem_dim].iter())
                    {
                        *g += gq;
                    }
                }
            }
            AttentionKind::Simplified => {
                if let (Some(att), Some(scache)) =
                    (self.simplified.as_mut(), cache.simplified.as_ref())
                {
                    let _grad_neighbors = att.backward(scache, &grad_agg);
                }
            }
        }

        // f'_i = s_i (+ W_s f_i): gradient w.r.t. s_i is grad_f_prime; the
        // node projection receives the same upstream gradient.
        if let (Some(proj), Some(feat)) = (self.node_proj.as_mut(), cache.node_feature.as_ref()) {
            let _ = proj.backward(feat, &Matrix::row_vector(&grad_f_prime));
        }
        grad_f_prime
    }

    /// All learnable parameters (used by the optimizer).  The cos time
    /// encoder's ω/φ and the LUT table are included so they can be trained or
    /// distilled when an experiment requires it.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.gru.params_mut());
        if let Some(p) = self.node_proj.as_mut() {
            out.extend(p.params_mut());
        }
        if let Some(a) = self.vanilla.as_mut() {
            out.extend(a.params_mut());
        }
        if let Some(a) = self.simplified.as_mut() {
            out.extend(a.params_mut());
        }
        out.extend(self.cos_encoder.params_mut());
        if let Some(l) = self.lut_encoder.as_mut() {
            out.extend(l.params_mut());
        }
        out.extend(self.output.params_mut());
        out
    }

    /// Immutable parameter access (for counting and serialization checks).
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        out.extend(self.gru.params());
        if let Some(p) = self.node_proj.as_ref() {
            out.extend(p.params());
        }
        if let Some(a) = self.vanilla.as_ref() {
            out.extend(a.params());
        }
        if let Some(a) = self.simplified.as_ref() {
            out.extend(a.params());
        }
        out.extend(self.cos_encoder.params());
        if let Some(l) = self.lut_encoder.as_ref() {
            out.extend(l.params());
        }
        out.extend(self.output.params());
        out
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Transfers the GRU, time encoder, node projection and FTM weights from
    /// a teacher model — the starting point of the knowledge-distillation
    /// setup, which only needs to learn the simplified-attention parameters
    /// from scratch.
    pub fn init_from_teacher(&mut self, teacher: &TgnModel) {
        assert_eq!(
            self.config.message_dim(),
            teacher.config.message_dim(),
            "init_from_teacher: incompatible message dimensions"
        );
        assert_eq!(
            self.config.memory_dim, teacher.config.memory_dim,
            "init_from_teacher: incompatible memory dimensions"
        );
        // The student's own split rule, whatever the teacher's encoder is.
        let time_tail = self.gru.w_i.split().map(|s| self.gru.input_dim() - s);
        self.gru = teacher.gru.clone().with_time_tail(time_tail);
        self.cos_encoder = teacher.cos_encoder.clone();
        self.node_proj = teacher.node_proj.clone();
        self.output = teacher.output.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationVariant;
    use tgnn_tensor::approx_eq;

    fn tiny_neighbors(rng: &mut TensorRng, n: usize, cfg: &ModelConfig) -> Vec<NeighborContext> {
        (0..n)
            .map(|i| NeighborContext {
                memory: rng.uniform_vec(cfg.memory_dim, -1.0, 1.0),
                edge_feature: rng.uniform_vec(cfg.edge_feature_dim, -1.0, 1.0),
                delta_t: 10.0 * (i as Float + 1.0),
            })
            .collect()
    }

    #[test]
    fn builds_every_variant_and_counts_parameters() {
        let mut rng = TensorRng::new(0);
        for variant in OptimizationVariant::ladder() {
            let cfg = ModelConfig::tiny(0, 4).with_variant(variant);
            let model = TgnModel::new(cfg, &mut rng);
            assert!(model.num_parameters() > 0, "{variant:?}");
            match variant.attention() {
                AttentionKind::Vanilla => assert!(model.vanilla.is_some()),
                AttentionKind::Simplified => assert!(model.simplified.is_some()),
            }
        }
    }

    #[test]
    fn embedding_has_configured_dimension_and_is_finite() {
        let mut rng = TensorRng::new(1);
        let cfg = ModelConfig::tiny(0, 4);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let neighbors = tiny_neighbors(&mut rng, 3, &cfg);
        let out = model.compute_embedding(&memory, None, &neighbors);
        assert_eq!(out.embedding.len(), cfg.embedding_dim);
        assert!(out.embedding.iter().all(|x| x.is_finite()));
        assert_eq!(out.attention_logits.len(), 3);
        assert_eq!(out.used_neighbors.len(), 3);
    }

    #[test]
    fn embedding_without_neighbors_still_works() {
        let mut rng = TensorRng::new(2);
        let cfg = ModelConfig::tiny(0, 4);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let out = model.compute_embedding(&memory, None, &[]);
        assert_eq!(out.embedding.len(), cfg.embedding_dim);
        assert!(out.used_neighbors.is_empty());
    }

    #[test]
    fn node_features_are_required_when_configured() {
        let mut rng = TensorRng::new(3);
        let cfg = ModelConfig::tiny(5, 0);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let feat = rng.uniform_vec(5, -1.0, 1.0);
        let out = model.compute_embedding(&memory, Some(&feat), &[]);
        assert_eq!(out.embedding.len(), cfg.embedding_dim);
    }

    #[test]
    #[should_panic(expected = "expects node features")]
    fn missing_node_features_panic() {
        let mut rng = TensorRng::new(4);
        let cfg = ModelConfig::tiny(5, 0);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = vec![0.0; cfg.memory_dim];
        let _ = model.compute_embedding(&memory, None, &[]);
    }

    #[test]
    fn pruning_budget_limits_used_neighbors() {
        let mut rng = TensorRng::new(5);
        let cfg = ModelConfig::tiny(0, 4).with_variant(OptimizationVariant::NpSmall);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let neighbors = tiny_neighbors(&mut rng, 4, &cfg);
        let out = model.compute_embedding(&memory, None, &neighbors);
        assert_eq!(
            out.used_neighbors.len(),
            2,
            "NP(S) must aggregate exactly 2 neighbors"
        );
        assert_eq!(out.attention_logits.len(), 4);
    }

    #[test]
    fn lut_calibration_changes_the_time_path_only_moderately() {
        let mut rng = TensorRng::new(6);
        let cfg = ModelConfig::tiny(0, 4).with_variant(OptimizationVariant::SatLut);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        assert!(!model.uses_lut());
        let samples: Vec<Float> = (0..2000).map(|_| rng.pareto(1.0, 1.3).min(1e5)).collect();
        model.calibrate_lut(&samples);
        assert!(model.uses_lut());

        // The LUT encoder approximates the cos encoder, so embeddings should
        // stay close for in-distribution Δt.
        let memory = rng.uniform_vec(cfg.memory_dim, -0.5, 0.5);
        let neighbors: Vec<NeighborContext> = (0..3)
            .map(|i| NeighborContext {
                memory: rng.uniform_vec(cfg.memory_dim, -0.5, 0.5),
                edge_feature: rng.uniform_vec(cfg.edge_feature_dim, -0.5, 0.5),
                delta_t: 2.0 + i as Float,
            })
            .collect();
        let with_lut = model.compute_embedding(&memory, None, &neighbors);
        let mut cos_model = model.clone();
        cos_model.config.time_encoder = TimeEncoderKind::Cos;
        let with_cos = cos_model.compute_embedding(&memory, None, &neighbors);
        let dist: Float = with_lut
            .embedding
            .iter()
            .zip(&with_cos.embedding)
            .map(|(&a, &b)| (a - b).abs())
            .sum::<Float>()
            / cfg.embedding_dim as Float;
        assert!(dist < 0.5, "LUT and cos paths diverge too much: {dist}");
    }

    #[test]
    fn memory_update_respects_gru_interpolation_bound() {
        let mut rng = TensorRng::new(7);
        let cfg = ModelConfig::tiny(0, 4);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let messages = rng.uniform_matrix(3, cfg.message_dim(), -1.0, 1.0);
        let memories = rng.uniform_matrix(3, cfg.memory_dim, -0.5, 0.5);
        let updated = model.update_memory(&messages, &memories);
        assert_eq!(updated.shape(), (3, cfg.memory_dim));
        assert!(updated.max_abs() <= 1.0 + 1e-5);
    }

    #[test]
    fn backward_embedding_accumulates_gradients_and_matches_fd_for_memory() {
        let mut rng = TensorRng::new(8);
        let cfg = ModelConfig::tiny(0, 4);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let neighbors = tiny_neighbors(&mut rng, 3, &cfg);

        let (out, cache) = model.compute_embedding_cached(&memory, None, &neighbors);
        let loss = out.embedding.iter().sum::<Float>();
        let grad = vec![1.0; cfg.embedding_dim];
        let grad_memory = model.backward_embedding(&cache, &grad);

        // FTM gradients were accumulated.
        assert!(model.output.weight().grad.max_abs() > 0.0);
        // Finite-difference check of d loss / d memory for a few coordinates.
        let eps = 1e-2;
        for idx in [0usize, cfg.memory_dim / 2, cfg.memory_dim - 1] {
            let mut plus = memory.clone();
            plus[idx] += eps;
            let mut minus = memory.clone();
            minus[idx] -= eps;
            let lp = model
                .compute_embedding(&plus, None, &neighbors)
                .embedding
                .iter()
                .sum::<Float>();
            let lm = model
                .compute_embedding(&minus, None, &neighbors)
                .embedding
                .iter()
                .sum::<Float>();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                approx_eq(grad_memory[idx], numeric, 5e-2),
                "idx {idx}: analytic {} vs numeric {numeric} (loss {loss})",
                grad_memory[idx]
            );
        }
    }

    #[test]
    fn batched_embeddings_are_bitwise_identical_to_per_vertex() {
        let mut rng = TensorRng::new(21);
        for variant in OptimizationVariant::ladder() {
            let cfg = ModelConfig::tiny(0, 4).with_variant(variant);
            let mut model = TgnModel::new(cfg.clone(), &mut rng);
            if cfg.time_encoder == TimeEncoderKind::Lut {
                let samples: Vec<Float> = (0..500).map(|_| rng.pareto(1.0, 1.3).min(1e4)).collect();
                model.calibrate_lut(&samples);
            }
            // A mixed batch: varying neighbor counts including zero.
            let batch: Vec<(Vec<Float>, Vec<NeighborContext>)> = (0..7)
                .map(|i| {
                    let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
                    let neighbors = tiny_neighbors(&mut rng, i % (cfg.sampled_neighbors + 1), &cfg);
                    (memory, neighbors)
                })
                .collect();

            let reference: Vec<EmbeddingOutput> = batch
                .iter()
                .map(|(m, nbrs)| model.compute_embedding(m, None, nbrs))
                .collect();

            let nbr_refs: Vec<Vec<NeighborRef<'_>>> = batch
                .iter()
                .map(|(_, nbrs)| {
                    nbrs.iter()
                        .map(|c| NeighborRef {
                            memory: &c.memory,
                            edge_feature: &c.edge_feature,
                            delta_t: c.delta_t,
                        })
                        .collect()
                })
                .collect();
            let jobs: Vec<EmbeddingJob<'_>> = batch
                .iter()
                .zip(&nbr_refs)
                .map(|((m, _), refs)| EmbeddingJob {
                    memory: m,
                    node_feature: None,
                    neighbors: refs,
                })
                .collect();
            let mut ws = Workspace::new();
            let batched = model.compute_embeddings_batch(&jobs, &mut ws);

            assert_eq!(batched.len(), reference.len());
            for (i, (b, r)) in batched.iter().zip(&reference).enumerate() {
                assert_eq!(b.embedding, r.embedding, "{variant:?} vertex {i} embedding");
                assert_eq!(
                    b.attention_logits, r.attention_logits,
                    "{variant:?} vertex {i} logits"
                );
                assert_eq!(
                    b.used_neighbors, r.used_neighbors,
                    "{variant:?} vertex {i} selection"
                );
            }

            // Steady state: the weights were packed by the call above and
            // are never packed again.
            let packs = tgnn_tensor::gemm::panel_packs_on_this_thread();
            for _ in 0..50 {
                let again = model.compute_embeddings_batch(&jobs, &mut ws);
                assert_eq!(again[0].embedding, reference[0].embedding);
            }
            assert_eq!(
                tgnn_tensor::gemm::panel_packs_on_this_thread(),
                packs,
                "{variant:?}: steady-state batches must not re-pack weights"
            );
        }
    }

    /// Jobs over owned neighbor contexts (the batched test's construction).
    fn with_jobs<R>(
        batch: &[(Vec<Float>, Vec<NeighborContext>)],
        f: impl FnOnce(&[EmbeddingJob<'_>]) -> R,
    ) -> R {
        fn refs(nbrs: &[NeighborContext]) -> Vec<NeighborRef<'_>> {
            let as_ref = |c| {
                let c: &NeighborContext = c;
                NeighborRef {
                    memory: &c.memory,
                    edge_feature: &c.edge_feature,
                    delta_t: c.delta_t,
                }
            };
            nbrs.iter().map(as_ref).collect()
        }
        let nbr_refs: Vec<Vec<NeighborRef<'_>>> = batch.iter().map(|(_, n)| refs(n)).collect();
        let jobs: Vec<EmbeddingJob<'_>> = batch
            .iter()
            .zip(&nbr_refs)
            .map(|((memory, _), neighbors)| EmbeddingJob {
                memory,
                node_feature: None,
                neighbors,
            })
            .collect();
        f(&jobs)
    }

    #[test]
    fn a_model_without_time_tails_serves_the_bits_it_always_has() {
        // What `Baseline` serves (kept = all, no fold, no time tail) must not
        // move unnoticed: three embeddings pinned when the GNN body began
        // aggregating before it projects; a change that moves them re-pins
        // them and says why.  The bits of the per-neighbor order before
        // that are the reference of `tests/parent_bits.rs`, which holds the
        // served ones within rounding of them.
        const PARENT: [[u32; 8]; 3] = [
            [
                0x3ec39886, 0x3e78a23c, 0x3f141e49, 0xbd135934, 0xbe276b22, 0x3fcb6b90, 0xbee96a0e,
                0x3eb6e538,
            ],
            [
                0x3f64cfb8, 0xbcc3fbb1, 0xbf3e4122, 0x3f3d0a26, 0x3d3fd4eb, 0xbed74413, 0x3e90583d,
                0x3e3e6c27,
            ],
            [
                0x3e43c3dc, 0x3fc76da7, 0xbfcef383, 0xbd7e6767, 0xbf4f7dd6, 0x3f0fbbb4, 0x3da20dea,
                0x3f74dc3f,
            ],
        ];
        let cfg = ModelConfig::tiny(0, 4);
        let mut rng = TensorRng::new(2024);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        assert!(model.gru.w_i.split().is_none());
        let batch: Vec<(Vec<Float>, Vec<NeighborContext>)> = (0..3)
            .map(|i| {
                let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
                (memory, tiny_neighbors(&mut rng, i + 2, &cfg))
            })
            .collect();
        let served = with_jobs(&batch, |jobs| {
            model.compute_embeddings_batch(jobs, &mut Workspace::new())
        });
        for (out, parent) in served.iter().zip(PARENT) {
            let bits: Vec<u32> = out.embedding.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, parent);
        }
    }

    #[test]
    fn a_second_identical_batch_takes_nothing_new_from_the_heap() {
        let mut rng = TensorRng::new(23);
        let vanilla_lut = ModelConfig {
            time_encoder: TimeEncoderKind::Lut,
            ..ModelConfig::tiny(0, 4)
        };
        let configs = OptimizationVariant::ladder()
            .map(|v| ModelConfig::tiny(0, 4).with_variant(v))
            .into_iter()
            .chain([vanilla_lut]);
        for cfg in configs {
            let mut model = TgnModel::new(cfg.clone(), &mut rng);
            let samples: Vec<Float> = (0..500).map(|_| rng.pareto(1.0, 1.3).min(1e4)).collect();
            model.calibrate_lut(&samples);
            let batch: Vec<(Vec<Float>, Vec<NeighborContext>)> = (0..9)
                .map(|i| {
                    let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
                    (
                        memory,
                        tiny_neighbors(&mut rng, i % (cfg.sampled_neighbors + 1), &cfg),
                    )
                })
                .collect();
            with_jobs(&batch, |jobs| {
                // Selected as the sampling stage selects; the kept rows held.
                let mut sel = Selection::default();
                let mut kept = Vec::new();
                for job in jobs {
                    let dts: Vec<Float> = job.neighbors.iter().map(|n| n.delta_t).collect();
                    model.select(&dts, &mut sel);
                    let kept_of = sel.kept_of(sel.ranges.len() - 1);
                    kept.extend(kept_of.iter().map(|&j| job.neighbors[j as usize]));
                }
                let kept_jobs: Vec<EmbeddingJob<'_>> = jobs
                    .iter()
                    .zip(&sel.ranges)
                    .map(|(job, &(start, len))| EmbeddingJob {
                        neighbors: &kept[start..start + len],
                        ..*job
                    })
                    .collect();
                let mut ws = Workspace::new();
                let first = model.embeddings_selected(&kept_jobs, (&sel, 0), &mut ws, None);
                let warm = ws.heap_allocs();
                ws.recycle_matrix(first);
                let second = model.embeddings_selected(&kept_jobs, (&sel, 0), &mut ws, None);
                assert_eq!(
                    ws.heap_allocs(),
                    warm,
                    "{:?}/{:?}: the second batch allocated",
                    cfg.attention,
                    cfg.time_encoder
                );
                ws.recycle_matrix(second);
            });
        }
    }

    #[test]
    fn a_stale_fold_cannot_be_served() {
        use crate::memory::{Message, NodeMemory};
        use crate::stages::run_memory_stage;
        use tgnn_nn::linear::fused_tables_built_on_this_thread;
        use tgnn_nn::optim::Sgd;

        let cfg = ModelConfig::tiny(0, 4).with_variant(OptimizationVariant::NpSmall);
        let mut rng = TensorRng::new(31);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let samples = |rng: &mut TensorRng| -> Vec<Float> {
            (0..500).map(|_| rng.pareto(1.0, 1.3).min(1e4)).collect()
        };
        model.calibrate_lut(&samples(&mut rng));
        assert!(model.uses_lut() && model.gru.w_i.split().is_some());

        // What is served: a GNN batch and a memory-stage batch, fixed inputs.
        let batch: Vec<(Vec<Float>, Vec<NeighborContext>)> = (0..6)
            .map(|i| {
                let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
                (memory, tiny_neighbors(&mut rng, i % 5, &cfg))
            })
            .collect();
        let events = (0..5).map(|e| tgnn_graph::InteractionEvent::new(0, 1, e, e as f64));
        let graph = tgnn_graph::TemporalGraph::new(
            "messages",
            2,
            Matrix::zeros(2, 0),
            rng.uniform_matrix(5, cfg.edge_feature_dim, -1.0, 1.0),
            events.collect(),
        );
        let messages: Vec<(u32, Message)> = (0..5)
            .map(|v| {
                let message = Message {
                    self_memory: rng.uniform_vec(cfg.memory_dim, -1.0, 1.0),
                    other_memory: rng.uniform_vec(cfg.memory_dim, -1.0, 1.0),
                    edge_id: 4 - v,
                    event_time: 40.0 * (v + 1) as f64,
                };
                (v, message)
            })
            .collect();
        let memories = rng.uniform_matrix(5, cfg.memory_dim, -1.0, 1.0);
        let serve = |model: &TgnModel, ws: &mut Workspace| -> Vec<Vec<Float>> {
            let mut rows: Vec<Vec<Float>> = with_jobs(&batch, |jobs| {
                let outputs = model.compute_embeddings_batch(jobs, ws);
                outputs.into_iter().map(|o| o.embedding).collect()
            });
            let mut table = NodeMemory::new(messages.len(), cfg.memory_dim);
            for (v, message) in &messages {
                table.set_memory(*v, memories.row(*v as usize), 0.0);
                table.store_message(*v, message.clone());
            }
            let touched: Vec<u32> = messages.iter().map(|(v, _)| *v).collect();
            let times = vec![0.0; touched.len()];
            let updated = run_memory_stage(model, &graph, &mut table, &touched, &times, ws);
            rows.extend(updated.iter().map(|(_, row)| row.to_vec()));
            updated.recycle(ws);
            rows
        };
        // A freshly built model holding `model`'s values: another seed's
        // weights overwritten by name, the encoder copied, nothing served.
        let freshly_built = |model: &TgnModel| {
            let mut fresh = TgnModel::new(model.config.clone(), &mut TensorRng::new(77));
            fresh.lut_encoder = model.lut_encoder.clone();
            for dst in fresh.params_mut() {
                let src = model.params().into_iter().find(|p| p.name == dst.name);
                dst.value = src.expect("same architecture").value.clone();
            }
            fresh
        };
        let ws = &mut Workspace::new();
        let last = &mut serve(&model, ws); // builds every table and pack
        let check = |model: &TgnModel, what: &str, ws: &mut Workspace, last: &mut Vec<_>| {
            let served = serve(model, ws);
            let fresh = serve(&freshly_built(model), &mut Workspace::new());
            assert_eq!(served, fresh, "stale after {what}");
            assert_ne!(&served, last, "{what} changed nothing that is served");
            *last = served;
        };

        // Optimizer steps on the two folded layers.
        let step = |layer: &mut Linear| {
            let grad = TensorRng::new(8).uniform_matrix(layer.out_dim(), layer.in_dim(), -1.0, 1.0);
            layer.weight_mut().grad = grad;
            Sgd::new(0.1).step(&mut layer.params_mut());
        };
        step(&mut model.gru.w_i);
        check(&model, "an optimizer step on gru.w_i", ws, last);
        step(&mut model.simplified.as_mut().unwrap().w_v);
        check(&model, "an optimizer step on sat.w_v", ws, last);

        // The encoder changes under unchanged layers.
        let table = model.lut_encoder.as_mut().unwrap().table_mut();
        table
            .value
            .as_mut_slice()
            .iter_mut()
            .for_each(|v| *v *= 0.5);
        check(&model, "table_mut", ws, last);
        model.calibrate_lut(&samples(&mut rng));
        check(&model, "a second calibrate_lut", ws, last);

        // Whole modules replaced: by a teacher's (a model without tails)…
        let teacher = TgnModel::new(ModelConfig::tiny(0, 4), &mut TensorRng::new(5));
        model.init_from_teacher(&teacher);
        assert!(
            model.gru.w_i.split().is_some(),
            "the student keeps its split"
        );
        check(&model, "init_from_teacher", ws, last);
        // …and by a layer rebuilt from its tensors.
        let w_i = &model.gru.w_i;
        let mut weight = w_i.weight().value.clone();
        weight.as_mut_slice().iter_mut().for_each(|v| *v *= 0.9);
        model.gru.w_i = Linear::from_parts("gru.w_i", weight, w_i.bias.value.row(0).to_vec())
            .with_time_tail(Some(cfg.time_dim));
        check(&model, "a layer rebuilt from parts", ws, last);

        // Parameters written by name, what a checkpoint load does.
        let donor = TgnModel::new(cfg.clone(), &mut TensorRng::new(99));
        for dst in model.params_mut() {
            if let Some(src) = donor.params().into_iter().find(|p| p.name == dst.name) {
                dst.value = src.value.clone();
            }
        }
        check(&model, "a load by name", ws, last);

        // A clone serves what its source does, and diverges alone.
        let mut copy = model.clone();
        assert_eq!(serve(&copy, ws), serve(&model, ws));
        step(&mut copy.gru.w_i);
        check(&copy, "a step on a clone", ws, last);
        assert_ne!(serve(&copy, ws), serve(&model, ws));

        // Steady state: no table built, no panel packed.
        let (tables, packs) = (
            fused_tables_built_on_this_thread(),
            tgnn_tensor::gemm::panel_packs_on_this_thread(),
        );
        for _ in 0..50 {
            let _ = serve(&model, ws);
        }
        assert_eq!(fused_tables_built_on_this_thread(), tables);
        assert_eq!(tgnn_tensor::gemm::panel_packs_on_this_thread(), packs);
    }

    #[test]
    fn batched_embeddings_with_node_features_match() {
        let mut rng = TensorRng::new(22);
        let cfg = ModelConfig::tiny(5, 0);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
        let feat = rng.uniform_vec(5, -1.0, 1.0);
        let neighbors = tiny_neighbors(&mut rng, 3, &cfg);
        let reference = model.compute_embedding(&memory, Some(&feat), &neighbors);
        let refs: Vec<NeighborRef<'_>> = neighbors
            .iter()
            .map(|c| NeighborRef {
                memory: &c.memory,
                edge_feature: &c.edge_feature,
                delta_t: c.delta_t,
            })
            .collect();
        let jobs = [EmbeddingJob {
            memory: &memory,
            node_feature: Some(&feat),
            neighbors: &refs,
        }];
        let mut ws = Workspace::new();
        let batched = model.compute_embeddings_batch(&jobs, &mut ws);
        assert_eq!(batched[0].embedding, reference.embedding);
    }

    #[test]
    fn the_parameter_set_round_trips_by_name() {
        // What a checkpoint holds is `params()`: (name, tensor) pairs.
        // Written into a differently-seeded model by name, they must
        // reproduce the original on the served path.
        let cfg = ModelConfig::tiny(5, 4);
        let model = TgnModel::new(cfg.clone(), &mut TensorRng::new(12));
        let mut loaded = TgnModel::new(cfg.clone(), &mut TensorRng::new(13));
        let names: Vec<&str> = model.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            &names[..4],
            [
                "gru.w_i.weight",
                "gru.w_i.bias",
                "gru.w_h.weight",
                "gru.w_h.bias"
            ]
        );
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "parameter names must be unique");

        let mut rng = TensorRng::new(14);
        let mut ws = Workspace::new();
        let messages = rng.uniform_matrix(6, cfg.message_dim(), -1.0, 1.0);
        let memories = rng.uniform_matrix(6, cfg.memory_dim, -1.0, 1.0);
        // Serve first, so `loaded` holds packs of the weights it is about to lose.
        let own = loaded.update_memory_ws(&messages, &memories, &mut ws);
        for dst in loaded.params_mut() {
            let src = model.params().into_iter().find(|p| p.name == dst.name);
            dst.value = src.expect("same architecture, same names").value.clone();
        }
        let served = loaded.update_memory_ws(&messages, &memories, &mut ws);
        assert_ne!(served.as_slice(), own.as_slice());
        assert_eq!(
            served.as_slice(),
            model.update_memory(&messages, &memories).as_slice()
        );
    }

    #[test]
    fn init_from_teacher_copies_shared_modules() {
        let mut rng = TensorRng::new(9);
        let cfg_teacher = ModelConfig::tiny(0, 4);
        let teacher = TgnModel::new(cfg_teacher.clone(), &mut rng);
        let cfg_student = cfg_teacher.with_variant(OptimizationVariant::Sat);
        let mut student = TgnModel::new(cfg_student.clone(), &mut rng);
        // Serve once on the student's own weights so their packs exist; the
        // transfer must not leave any of them behind.
        let mut ws = Workspace::new();
        let messages = rng.uniform_matrix(5, cfg_student.message_dim(), -1.0, 1.0);
        let memories = rng.uniform_matrix(5, cfg_student.memory_dim, -1.0, 1.0);
        let own = student.update_memory_ws(&messages, &memories, &mut ws);
        student.init_from_teacher(&teacher);
        let served = student.update_memory_ws(&messages, &memories, &mut ws);
        assert_ne!(served.as_slice(), own.as_slice());
        assert_eq!(
            served.as_slice(),
            teacher.update_memory(&messages, &memories).as_slice(),
            "served GRU after init_from_teacher is the teacher's, bit for bit"
        );
        assert_eq!(
            student.gru.w_i.weight().value.as_slice(),
            teacher.gru.w_i.weight().value.as_slice()
        );
        assert_eq!(
            student.output.weight().value.as_slice(),
            teacher.output.weight().value.as_slice()
        );
    }
}
