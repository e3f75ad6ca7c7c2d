//! The TGN-attn neural model: GRU memory updater, attention aggregator
//! (vanilla or simplified), time encoder (cos or LUT), and output feature
//! transformation.
//!
//! The model is *stateless with respect to the graph*: it owns only learnable
//! parameters.  The persistent vertex state (memory, mailbox, neighbor table)
//! lives in [`crate::memory::NodeMemory`] and `tgnn_graph`, and the
//! [`crate::inference::InferenceEngine`] wires everything together following
//! Algorithm 1.

use crate::config::{AttentionKind, ModelConfig, TimeEncoderKind};
use crate::quantized::{layers, QuantizedTgn};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tgnn_nn::attention::{SimplifiedCache, VanillaCache};
use tgnn_nn::{
    CosTimeEncoder, GruCell, Linear, LutTimeEncoder, Param, SimplifiedAttention, VanillaAttention,
};
use tgnn_quant::ActivationObserver;
use tgnn_tensor::ops::{softmax, top_k_indices};
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
    f_prime: Matrix,
    node_feature: Option<Matrix>,
    query_input: Matrix,
    concat_input: Matrix,
    vanilla: Option<VanillaCache>,
    simplified: Option<SimplifiedCache>,
}

/// Accumulates `Σ_j weights[j] · m.row(first_row + j)` into `out`,
/// replicating `tgnn_tensor::ops::weighted_row_sum`'s accumulation order
/// (including its zero-weight skip) over a contiguous row range so batched
/// and per-vertex aggregation are bit-identical.  Shared with the quantized
/// batch path in [`crate::quantized`].
pub(crate) fn weighted_rows_into(
    m: &Matrix,
    first_row: usize,
    weights: &[Float],
    out: &mut [Float],
) {
    out.fill(0.0);
    for (j, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        for (a, &x) in out.iter_mut().zip(m.row(first_row + j)) {
            *a += w * x;
        }
    }
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
    /// Attached int8 weight set.  When present, the *batched* entry points
    /// ([`Self::compute_embeddings_batch`], [`Self::update_memory_ws`]) run
    /// on the quantized kernels — which is how both `ExecMode::Quantized`
    /// and the `tgnn-serve` pipeline execute the int8 path without any
    /// caller changes.  The per-vertex reference paths always stay f32.
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
        let gru = GruCell::new("gru", config.message_dim(), config.memory_dim, rng);
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
            vanilla,
            simplified,
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

    /// Encodes a batch of time deltas with the configured encoder.
    pub fn encode_time(&self, delta_t: &[Float]) -> Matrix {
        if self.uses_lut() {
            self.lut_encoder.as_ref().unwrap().forward(delta_t)
        } else {
            self.cos_encoder.forward(delta_t)
        }
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

    /// Builds the neighbor-side input matrix `[s_j || e_ij || Φ(Δt_j)]`.
    fn neighbor_inputs(&self, neighbors: &[NeighborContext]) -> (Matrix, Vec<Float>) {
        let n = neighbors.len();
        let dts: Vec<Float> = neighbors.iter().map(|c| c.delta_t).collect();
        if n == 0 {
            return (Matrix::zeros(0, self.config.neighbor_input_dim()), dts);
        }
        let encodings = self.encode_time(&dts);
        let mut input = Matrix::zeros(n, self.config.neighbor_input_dim());
        for (j, ctx) in neighbors.iter().enumerate() {
            assert_eq!(
                ctx.memory.len(),
                self.config.memory_dim,
                "neighbor memory dim mismatch"
            );
            assert_eq!(
                ctx.edge_feature.len(),
                self.config.edge_feature_dim,
                "neighbor edge feature dim mismatch"
            );
            let row = input.row_mut(j);
            let m = self.config.memory_dim;
            let e = self.config.edge_feature_dim;
            row[..m].copy_from_slice(&ctx.memory);
            row[m..m + e].copy_from_slice(&ctx.edge_feature);
            row[m + e..].copy_from_slice(encodings.row(j));
        }
        (input, dts)
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

        let (agg, logits, used, vanilla_cache, simplified_cache) = match self.config.attention {
            AttentionKind::Vanilla => {
                let att = self.vanilla.as_ref().expect("vanilla attention missing");
                let zero_enc = self.encode_time(&[0.0]);
                let query_input = f_prime.hconcat(&zero_enc);
                let (out, cache) = att.forward_cached(&query_input, &neighbor_input);
                (
                    out.output,
                    out.logits,
                    out.selected,
                    Some((query_input, cache)),
                    None,
                )
            }
            AttentionKind::Simplified => {
                let att = self
                    .simplified
                    .as_ref()
                    .expect("simplified attention missing");
                let budget = self.config.neighbor_budget;
                let (out, cache) = att.forward_cached(&dts, &neighbor_input, budget);
                (out.output, out.logits, out.selected, None, Some(cache))
            }
        };

        // FTM: embedding = W_out [agg || f'_i] + b_out.
        let agg_row = Matrix::row_vector(&agg);
        let concat_input = agg_row.hconcat(&f_prime);
        let embedding = self.output.forward(&concat_input).row_to_vec(0);

        let (query_input, vanilla_cache) = match vanilla_cache {
            Some((qi, c)) => (qi, Some(c)),
            None => (Matrix::zeros(1, self.config.query_input_dim()), None),
        };

        let output = EmbeddingOutput {
            embedding,
            attention_logits: logits,
            used_neighbors: used,
        };
        let cache = EmbeddingCache {
            f_prime,
            node_feature: node_feature_matrix,
            query_input,
            concat_input,
            vanilla: vanilla_cache,
            simplified: simplified_cache,
        };
        (output, cache)
    }

    /// Encodes a batch of time deltas into a pre-sized output matrix
    /// (allocation-free [`Self::encode_time`]).
    pub fn encode_time_into(&self, delta_t: &[Float], out: &mut Matrix) {
        if self.uses_lut() {
            self.lut_encoder
                .as_ref()
                .unwrap()
                .forward_into(delta_t, out);
        } else {
            self.cos_encoder.forward_into(delta_t, out);
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
        if let Some(qgru) = self.quantized.as_ref().and_then(|q| q.gru()) {
            return qgru.forward_ws(messages, memories, ws);
        }
        self.gru.forward_ws(messages, memories, ws)
    }

    /// Computes the embeddings of a whole batch of vertices at once — the
    /// GNN-stage hot path.
    ///
    /// Where the per-vertex [`Self::compute_embedding`] issues one small GEMM
    /// per projection per vertex, this batches all vertices' query / key /
    /// value projections and the output feature transformation into **one
    /// GEMM per weight matrix per batch** on the packed kernel, with every
    /// temporary taken from the workspace.  Per-row arithmetic is identical
    /// to the per-vertex path, so results are bit-for-bit the same — the
    /// engine's mode-equivalence tests rely on this.
    ///
    /// **Implementation note:** the attention math here deliberately inlines
    /// (rather than calls) the aggregators' per-vertex forward passes —
    /// batching all vertices into shared GEMMs is the whole point.  The
    /// arithmetic therefore lives in three places: `tgnn_nn::attention`'s
    /// `forward`/`forward_cached` (reference + training), its `forward_ws`
    /// (allocation-free single-vertex serving), and this batch path.  If you
    /// change any of it (scale factor, logit formula, top-k tie-breaking,
    /// weighted-sum skip), change all three; the attention `forward_ws`
    /// bitwise tests, the `batched_embeddings_are_bitwise_identical_to_per_vertex`
    /// test, and the engine's mode-equivalence test pin them together and
    /// will fail on any divergence.
    ///
    /// # Panics
    /// Panics on dimension mismatches or when a job exceeds
    /// `config.sampled_neighbors`.
    pub fn compute_embeddings_batch(
        &self,
        jobs: &[EmbeddingJob<'_>],
        ws: &mut Workspace,
    ) -> Vec<EmbeddingOutput> {
        if let Some(q) = &self.quantized {
            return q.compute_embeddings_batch(self, jobs, ws);
        }
        self.compute_embeddings_batch_obs(jobs, ws, None)
    }

    /// The f32 batched GNN stage with an optional activation observer — the
    /// calibration pass of [`crate::quantized`] attaches a recorder here to
    /// capture the input range of every projection that will be quantized.
    /// With `obs = None` this *is* [`Self::compute_embeddings_batch`]'s f32
    /// body (the quantized dispatch never reaches it).
    pub fn compute_embeddings_batch_obs(
        &self,
        jobs: &[EmbeddingJob<'_>],
        ws: &mut Workspace,
        mut obs: Option<&mut dyn ActivationObserver>,
    ) -> Vec<EmbeddingOutput> {
        let t = jobs.len();
        if t == 0 {
            return Vec::new();
        }
        let cfg = &self.config;
        let mem_dim = cfg.memory_dim;
        let nbr_in = cfg.neighbor_input_dim();

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
        if let Some(proj) = &self.node_proj {
            let mut features = ws.take_matrix(t, cfg.node_feature_dim);
            for (i, job) in jobs.iter().enumerate() {
                let feat = job
                    .node_feature
                    .expect("model expects node features but none were supplied");
                features.row_mut(i).copy_from_slice(feat);
            }
            if let Some(o) = obs.as_deref_mut() {
                o.record(layers::NODE_PROJ_INPUT, features.as_slice());
            }
            let projected = proj.forward_ws(&features, ws);
            for (a, &b) in f_prime.as_mut_slice().iter_mut().zip(projected.as_slice()) {
                *a += b;
            }
            ws.recycle_matrix(projected);
            ws.recycle_matrix(features);
        }

        // --- Stacked neighbor inputs `[s_j || e_ij || Φ(Δt_j)]` for all
        // targets, each target's rows contiguous.
        let total_n: usize = jobs.iter().map(|j| j.neighbors.len()).sum();
        let mut offsets = Vec::with_capacity(t);
        let mut nbr_input = ws.take_matrix(total_n, nbr_in);
        let mut dts_all = ws.take(total_n);
        {
            let mut row = 0;
            for job in jobs {
                offsets.push(row);
                for ctx in job.neighbors {
                    assert_eq!(ctx.memory.len(), mem_dim, "neighbor memory dim mismatch");
                    assert_eq!(
                        ctx.edge_feature.len(),
                        cfg.edge_feature_dim,
                        "neighbor edge feature dim mismatch"
                    );
                    let dst = nbr_input.row_mut(row);
                    dst[..mem_dim].copy_from_slice(ctx.memory);
                    dst[mem_dim..mem_dim + cfg.edge_feature_dim].copy_from_slice(ctx.edge_feature);
                    dts_all[row] = ctx.delta_t;
                    row += 1;
                }
            }
        }
        if total_n > 0 {
            let mut enc = ws.take_matrix(total_n, cfg.time_dim);
            self.encode_time_into(&dts_all, &mut enc);
            for row in 0..total_n {
                nbr_input.row_mut(row)[mem_dim + cfg.edge_feature_dim..]
                    .copy_from_slice(enc.row(row));
            }
            ws.recycle_matrix(enc);
        }
        if let Some(o) = obs.as_deref_mut() {
            o.record(layers::ATTN_NEIGHBOR, nbr_input.as_slice());
        }

        // --- Aggregate per attention kind into `agg` (T×mem).
        let mut agg = ws.take_matrix(t, mem_dim);
        let mut logits_out: Vec<Vec<Float>> = Vec::with_capacity(t);
        let mut selected_out: Vec<Vec<usize>> = Vec::with_capacity(t);
        match cfg.attention {
            AttentionKind::Vanilla => {
                let att = self.vanilla.as_ref().expect("vanilla attention missing");
                // Query inputs `[f'_i || Φ(0)]`, one W_q GEMM for the batch.
                let mut zero_enc = ws.take_matrix(1, cfg.time_dim);
                self.encode_time_into(&[0.0], &mut zero_enc);
                let mut query_input = ws.take_matrix(t, cfg.query_input_dim());
                for i in 0..t {
                    let dst = query_input.row_mut(i);
                    dst[..mem_dim].copy_from_slice(f_prime.row(i));
                    dst[mem_dim..].copy_from_slice(zero_enc.row(0));
                }
                if let Some(o) = obs.as_deref_mut() {
                    o.record(layers::ATTN_QUERY, query_input.as_slice());
                }
                let q_all = att.w_q.forward_ws(&query_input, ws);
                // One W_k / W_v GEMM over all targets' neighbors.
                let k_all = att.w_k.forward_ws(&nbr_input, ws);
                let v_all = att.w_v.forward_ws(&nbr_input, ws);
                for (i, job) in jobs.iter().enumerate() {
                    let n = job.neighbors.len();
                    if n == 0 {
                        logits_out.push(Vec::new());
                        selected_out.push(Vec::new());
                        continue;
                    }
                    let off = offsets[i];
                    let scale = 1.0 / (n as Float).sqrt();
                    let logits: Vec<Float> = (0..n)
                        .map(|j| tgnn_tensor::gemm::dot(q_all.row(i), k_all.row(off + j)) * scale)
                        .collect();
                    let weights = softmax(&logits);
                    weighted_rows_into(&v_all, off, &weights, agg.row_mut(i));
                    logits_out.push(logits);
                    selected_out.push((0..n).collect());
                }
                ws.recycle_matrix(v_all);
                ws.recycle_matrix(k_all);
                ws.recycle_matrix(q_all);
                ws.recycle_matrix(query_input);
                ws.recycle_matrix(zero_enc);
            }
            AttentionKind::Simplified => {
                let att = self
                    .simplified
                    .as_ref()
                    .expect("simplified attention missing");
                let budget = cfg.neighbor_budget;
                let slots = att.slots();
                // Per-vertex logits and top-k selection (tiny `slots×slots`
                // work), then one stacked W_v GEMM over all selected rows.
                let mut scaled = ws.take(slots);
                let mut offsets_buf = ws.take(slots);
                let mut weights_out: Vec<Vec<Float>> = Vec::with_capacity(t);
                let mut total_selected = 0usize;
                for job in jobs {
                    let n = job.neighbors.len();
                    scaled.iter_mut().for_each(|x| *x = 0.0);
                    for (slot, ctx) in scaled.iter_mut().zip(job.neighbors) {
                        *slot = ctx.delta_t / att.time_scale();
                    }
                    tgnn_tensor::gemm::matvec_into(&att.w_t.value, &scaled, &mut offsets_buf);
                    let logits: Vec<Float> = (0..n)
                        .map(|j| att.a.value[(0, j)] + offsets_buf[j])
                        .collect();
                    let selected = top_k_indices(&logits, budget.min(n));
                    let selected_logits: Vec<Float> = selected.iter().map(|&j| logits[j]).collect();
                    let weights = softmax(&selected_logits);
                    total_selected += selected.len();
                    logits_out.push(logits);
                    selected_out.push(selected);
                    weights_out.push(weights);
                }
                ws.recycle(offsets_buf);
                ws.recycle(scaled);

                let mut sel_input = ws.take_matrix(total_selected, nbr_in);
                {
                    let mut row = 0;
                    for (i, selected) in selected_out.iter().enumerate() {
                        for &j in selected {
                            sel_input
                                .row_mut(row)
                                .copy_from_slice(nbr_input.row(offsets[i] + j));
                            row += 1;
                        }
                    }
                }
                let v_sel = att.w_v.forward_ws(&sel_input, ws);
                let mut row = 0;
                for (i, weights) in weights_out.iter().enumerate() {
                    weighted_rows_into(&v_sel, row, weights, agg.row_mut(i));
                    row += weights.len();
                }
                ws.recycle_matrix(v_sel);
                ws.recycle_matrix(sel_input);
            }
        }

        // --- FTM: one GEMM over `[h_agg || f'_i]` for the whole batch.
        let mut concat = ws.take_matrix(t, 2 * mem_dim);
        for i in 0..t {
            let dst = concat.row_mut(i);
            dst[..mem_dim].copy_from_slice(agg.row(i));
            dst[mem_dim..].copy_from_slice(f_prime.row(i));
        }
        if let Some(o) = obs {
            o.record(layers::FTM_INPUT, concat.as_slice());
        }
        let out_mat = self.output.forward_ws(&concat, ws);

        let mut outputs = Vec::with_capacity(t);
        for (i, (logits, selected)) in logits_out.into_iter().zip(selected_out).enumerate() {
            outputs.push(EmbeddingOutput {
                embedding: out_mat.row_to_vec(i),
                attention_logits: logits,
                used_neighbors: selected,
            });
        }

        ws.recycle_matrix(out_mat);
        ws.recycle_matrix(concat);
        ws.recycle_matrix(agg);
        ws.recycle(dts_all);
        ws.recycle_matrix(nbr_input);
        ws.recycle_matrix(f_prime);
        outputs
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
        let _ = &cache.f_prime;
        let _ = &cache.query_input;
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
        self.gru = teacher.gru.clone();
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
