//! The int8 quantized execution path — calibration driver, quantized model
//! weights, and the batched GNN/memory stages on the packed int8 GEMM.
//!
//! The paper's accelerator runs a fixed-point datapath; this module is its
//! CPU counterpart.  The flow mirrors post-training quantization on real
//! hardware:
//!
//! 1. **Calibrate** — [`calibrate_activations`] replays a sample stream
//!    through the f32 engine ([`ExecMode::Batched`](crate::ExecMode)) with a
//!    `tgnn_quant::ActivationRecorder` attached to the batched forward
//!    paths, recording the input range of every projection that will be
//!    quantized.
//! 2. **Quantize** — [`QuantizedTgn::from_model`] snapshots per-row int8
//!    copies of the GRU / attention / node-projection / FTM weights
//!    (pre-packed into the `maddubs` panel layout) together with the
//!    calibrated static activation scales.
//! 3. **Serve** — attach the result with
//!    [`TgnModel::attach_quantized`](crate::TgnModel::attach_quantized) (or
//!    [`InferenceEngine::with_quantized`](crate::InferenceEngine::with_quantized)):
//!    every *batched* entry point — `compute_embeddings_batch`,
//!    `update_memory_ws`, and therefore the whole `tgnn-serve` streaming
//!    pipeline — transparently runs the int8 kernels.  `ExecMode::Serial`
//!    always stays f32 and remains the accuracy reference.
//!
//! Everything outside the large projections (softmax, top-k pruning, GRU
//! gate nonlinearities, time encodings, per-neighbor logit arithmetic) stays
//! in f32, matching the co-design's split between MAC arrays and the scalar
//! epilogue logic.
//!
//! The whole calibrate → quantize → serve workflow, end to end:
//!
//! ```
//! use std::sync::Arc;
//! use tgnn_core::{quantize_model, ExecMode, InferenceEngine, ModelConfig, TgnModel};
//! use tgnn_quant::QuantConfig;
//! use tgnn_tensor::stats::cosine_agreement;
//! # let graph = tgnn_data::generate(&tgnn_data::tiny(9));
//! # let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
//! # let model = TgnModel::new(cfg, &mut tgnn_tensor::TensorRng::new(9));
//! // 1 + 2. Calibrate activation ranges by replaying a sample stream
//! //        through the f32 engine, then snapshot the int8 weight set.
//! let calibration = &graph.events()[..128.min(graph.num_events())];
//! let q = Arc::new(quantize_model(
//!     &model, &graph, &[], calibration, 64, QuantConfig::default(),
//! ));
//! // 3. Serve int8: attach the weights; every batched entry point (and the
//! //    tgnn-serve pipeline, unchanged) picks the packed int8 kernels up.
//! let mut engine = InferenceEngine::new(model.clone(), graph.num_nodes())
//!     .with_quantized(q);
//! assert_eq!(engine.mode(), ExecMode::Quantized);
//! // Accuracy is measured, never assumed: compare against the f32 serial
//! // reference on the same batches (CI gates this at cosine ≥ 0.999 on the
//! // calibrated harness config — see the quant_gate binary).
//! let mut reference = InferenceEngine::new(model.clone(), graph.num_nodes())
//!     .with_mode(ExecMode::Serial);
//! let batch = tgnn_graph::EventBatch::new(graph.events()[..64].to_vec());
//! let int8 = engine.process_batch(&batch, &graph);
//! let f32_out = reference.process_batch(&batch, &graph);
//! for ((v, a), (_, b)) in int8.embeddings.iter().zip(&f32_out.embeddings) {
//!     assert!(cosine_agreement(a, b) > 0.9, "vertex {v} strayed");
//! }
//! ```

use crate::config::AttentionKind;
use crate::inference::{ExecMode, InferenceEngine};
use crate::model::{weighted_rows_into, EmbeddingJob, EmbeddingOutput, TgnModel};
use tgnn_graph::{InteractionEvent, TemporalGraph};
use tgnn_quant::{ActivationRanges, ActivationRecorder, QuantConfig, QuantizedLinear};
use tgnn_tensor::ops::{softmax, top_k_indices};
use tgnn_tensor::vmath::gru_gates_into;
use tgnn_tensor::{Float, Matrix, Workspace};

/// Observer / calibration keys of every quantized layer input.  The names
/// tie the recorder hooks in the f32 batched paths to the scales
/// [`QuantizedTgn::from_model`] looks up.
pub mod layers {
    /// GRU message input (input of the stacked input-side projection).
    pub const GRU_INPUT: &str = "gru.input";
    /// GRU hidden-state input (input of the stacked hidden-side projection).
    pub const GRU_HIDDEN: &str = "gru.hidden";
    /// Stacked neighbor inputs `[s_j || e_ij || Φ(Δt_j)]` — input of the
    /// attention key/value projections.
    pub const ATTN_NEIGHBOR: &str = "attn.neighbor";
    /// Query inputs `[f'_i || Φ(0)]` — input of the vanilla query projection.
    pub const ATTN_QUERY: &str = "attn.query";
    /// FTM input `[h_agg || f'_i]`.
    pub const FTM_INPUT: &str = "ftm.input";
    /// Static node features — input of the node projection.
    pub const NODE_PROJ_INPUT: &str = "node_proj.input";
}

/// Int8 GRU: the two stacked gate projections quantized, the gate pass in
/// f32 — `GruCell::forward_ws` exactly, apart from the GEMM numeric.  Weight
/// scales are per output row, so each stacked product equals the three
/// per-gate products it replaces, and each activation is quantized once.
#[derive(Clone, Debug)]
pub struct QuantizedGru {
    w_i: QuantizedLinear,
    w_h: QuantizedLinear,
}

impl QuantizedGru {
    fn from_model(model: &TgnModel, ranges: &ActivationRanges) -> Self {
        Self {
            w_i: QuantizedLinear::from_linear(&model.gru.w_i, ranges.scale(layers::GRU_INPUT)),
            w_h: QuantizedLinear::from_linear(&model.gru.w_h, ranges.scale(layers::GRU_HIDDEN)),
        }
    }

    /// The GRU forward pass with quantized gate projections (the returned
    /// matrix comes from the workspace).
    pub fn forward_ws(&self, input: &Matrix, hidden: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(input.rows(), hidden.rows(), "QuantizedGru: batch mismatch");
        let gi = self.w_i.forward_ws(input, ws);
        let gh = self.w_h.forward_ws(hidden, ws);
        let mut out = ws.take_matrix(hidden.rows(), hidden.cols());
        gru_gates_into(&gi, &gh, hidden, &mut out);
        ws.recycle_matrix(gh);
        ws.recycle_matrix(gi);
        out
    }
}

/// The quantized weight set of a [`TgnModel`]: every large projection as a
/// [`QuantizedLinear`] (per-row int8 weights, pre-packed panels, calibrated
/// activation scales).  Attach to a model with
/// [`TgnModel::attach_quantized`](crate::TgnModel::attach_quantized).
#[derive(Clone, Debug)]
pub struct QuantizedTgn {
    /// The quantization configuration the weights were built with.
    pub quant_config: QuantConfig,
    /// The calibrated activation ranges (kept for reporting).
    pub ranges: ActivationRanges,
    gru: Option<QuantizedGru>,
    node_proj: Option<QuantizedLinear>,
    /// Vanilla attention projections (query, key) — `None` for simplified.
    w_q: Option<QuantizedLinear>,
    w_k: Option<QuantizedLinear>,
    /// Value projection (vanilla or simplified).
    w_v: QuantizedLinear,
    output: QuantizedLinear,
}

impl QuantizedTgn {
    /// Quantizes a model's weights given calibrated activation ranges.
    ///
    /// # Panics
    /// Panics if a required layer has no calibration data (the sample stream
    /// never exercised it).
    pub fn from_model(model: &TgnModel, ranges: &ActivationRanges, config: QuantConfig) -> Self {
        let nbr_scale = ranges.scale(layers::ATTN_NEIGHBOR);
        let (w_q, w_k, w_v) = match model.config.attention {
            AttentionKind::Vanilla => {
                let att = model.vanilla.as_ref().expect("vanilla attention missing");
                let q_scale = ranges.scale(layers::ATTN_QUERY);
                (
                    Some(QuantizedLinear::from_linear(&att.w_q, q_scale)),
                    Some(QuantizedLinear::from_linear(&att.w_k, nbr_scale)),
                    QuantizedLinear::from_linear(&att.w_v, nbr_scale),
                )
            }
            AttentionKind::Simplified => {
                let att = model
                    .simplified
                    .as_ref()
                    .expect("simplified attention missing");
                (
                    None,
                    None,
                    QuantizedLinear::from_linear(&att.w_v, nbr_scale),
                )
            }
        };
        Self {
            quant_config: config,
            gru: config
                .quantize_gru
                .then(|| QuantizedGru::from_model(model, ranges)),
            node_proj: model.node_proj.as_ref().map(|proj| {
                QuantizedLinear::from_linear(proj, ranges.scale(layers::NODE_PROJ_INPUT))
            }),
            w_q,
            w_k,
            w_v,
            output: QuantizedLinear::from_linear(&model.output, ranges.scale(layers::FTM_INPUT)),
            ranges: ranges.clone(),
        }
    }

    /// The quantized GRU, when the configuration quantizes the memory path.
    pub fn gru(&self) -> Option<&QuantizedGru> {
        self.gru.as_ref()
    }

    /// The batched GNN stage on the int8 kernels — the structural mirror of
    /// `TgnModel::compute_embeddings_batch` with every large projection
    /// replaced by its [`QuantizedLinear`].  Batch assembly, logits, softmax,
    /// pruning, and aggregation stay f32.
    ///
    /// # Panics
    /// Panics on dimension mismatches or when a job exceeds
    /// `config.sampled_neighbors`.
    pub fn compute_embeddings_batch(
        &self,
        model: &TgnModel,
        jobs: &[EmbeddingJob<'_>],
        ws: &mut Workspace,
    ) -> Vec<EmbeddingOutput> {
        let t = jobs.len();
        if t == 0 {
            return Vec::new();
        }
        let cfg = &model.config;
        let mem_dim = cfg.memory_dim;
        let nbr_in = cfg.neighbor_input_dim();

        // --- f'_i = s_i (+ W_s f_i + b_s), node projection quantized.
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
            let projected = proj.forward_ws(&features, ws);
            for (a, &b) in f_prime.as_mut_slice().iter_mut().zip(projected.as_slice()) {
                *a += b;
            }
            ws.recycle_matrix(projected);
            ws.recycle_matrix(features);
        }

        // --- Stacked neighbor inputs, identical assembly to the f32 path.
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
            model.encode_time_into(&dts_all, &mut enc);
            for row in 0..total_n {
                nbr_input.row_mut(row)[mem_dim + cfg.edge_feature_dim..]
                    .copy_from_slice(enc.row(row));
            }
            ws.recycle_matrix(enc);
        }

        // --- Aggregate per attention kind, projections on int8.
        let mut agg = ws.take_matrix(t, mem_dim);
        let mut logits_out: Vec<Vec<Float>> = Vec::with_capacity(t);
        let mut selected_out: Vec<Vec<usize>> = Vec::with_capacity(t);
        match cfg.attention {
            AttentionKind::Vanilla => {
                let w_q = self.w_q.as_ref().expect("quantized w_q missing");
                let w_k = self.w_k.as_ref().expect("quantized w_k missing");
                let mut zero_enc = ws.take_matrix(1, cfg.time_dim);
                model.encode_time_into(&[0.0], &mut zero_enc);
                let mut query_input = ws.take_matrix(t, cfg.query_input_dim());
                for i in 0..t {
                    let dst = query_input.row_mut(i);
                    dst[..mem_dim].copy_from_slice(f_prime.row(i));
                    dst[mem_dim..].copy_from_slice(zero_enc.row(0));
                }
                let q_all = w_q.forward_ws(&query_input, ws);
                let k_all = w_k.forward_ws(&nbr_input, ws);
                let v_all = self.w_v.forward_ws(&nbr_input, ws);
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
                let att = model
                    .simplified
                    .as_ref()
                    .expect("simplified attention missing");
                let budget = cfg.neighbor_budget;
                let slots = att.slots();
                // The slots×slots logit arithmetic is tiny — it stays f32 so
                // the top-k pruning decisions match the f32 path as closely
                // as possible.
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
                let v_sel = self.w_v.forward_ws(&sel_input, ws);
                let mut row = 0;
                for (i, weights) in weights_out.iter().enumerate() {
                    weighted_rows_into(&v_sel, row, weights, agg.row_mut(i));
                    row += weights.len();
                }
                ws.recycle_matrix(v_sel);
                ws.recycle_matrix(sel_input);
            }
        }

        // --- FTM on int8 over `[h_agg || f'_i]`.
        let mut concat = ws.take_matrix(t, 2 * mem_dim);
        for i in 0..t {
            let dst = concat.row_mut(i);
            dst[..mem_dim].copy_from_slice(agg.row(i));
            dst[mem_dim..].copy_from_slice(f_prime.row(i));
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
}

/// Runs the calibration pass: replays `warm_up` through the vertex state and
/// then streams `sample` through the f32 engine in [`ExecMode::Batched`]
/// with an activation recorder attached, returning the recorded ranges.
///
/// The engine replica used here starts from fresh vertex state, exactly like
/// the serving engine will, so the recorded ranges cover the cold-start
/// transient as well as the steady state.
pub fn calibrate_activations(
    model: &TgnModel,
    graph: &TemporalGraph,
    warm_up: &[InteractionEvent],
    sample: &[InteractionEvent],
    batch_size: usize,
) -> ActivationRecorder {
    let mut f32_model = model.clone();
    f32_model.detach_quantized();
    let mut engine =
        InferenceEngine::new(f32_model, graph.num_nodes()).with_mode(ExecMode::Batched);
    engine.set_observer(Box::new(ActivationRecorder::new()));
    engine.warm_up(warm_up, graph);
    let _ = engine.run_stream(sample, graph, batch_size);
    *engine.take_observer().expect("observer attached above")
}

/// Calibrate + quantize in one step: the post-training-quantization
/// entry point used by the benches and the serve path.
pub fn quantize_model(
    model: &TgnModel,
    graph: &TemporalGraph,
    warm_up: &[InteractionEvent],
    sample: &[InteractionEvent],
    batch_size: usize,
    config: QuantConfig,
) -> QuantizedTgn {
    let recorder = calibrate_activations(model, graph, warm_up, sample, batch_size);
    let ranges = recorder.finish(&config);
    QuantizedTgn::from_model(model, &ranges, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, OptimizationVariant, TimeEncoderKind};
    use std::sync::Arc;
    use tgnn_data::{generate, tiny};
    use tgnn_graph::EventBatch;
    use tgnn_tensor::stats::{cosine_agreement, max_abs_diff};
    use tgnn_tensor::TensorRng;

    fn setup(variant: OptimizationVariant) -> (TgnModel, TemporalGraph) {
        let graph = generate(&tiny(31));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(variant);
        let mut rng = TensorRng::new(5);
        let mut model = TgnModel::new(cfg, &mut rng);
        if model.config.time_encoder == TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        (model, graph)
    }

    #[test]
    fn calibration_records_every_quantized_layer() {
        for variant in [OptimizationVariant::Baseline, OptimizationVariant::NpMedium] {
            let (model, graph) = setup(variant);
            let events = graph.events();
            let rec = calibrate_activations(&model, &graph, &events[..100], &events[100..400], 40);
            let ranges = rec.finish(&QuantConfig::default());
            for layer in [
                layers::GRU_INPUT,
                layers::GRU_HIDDEN,
                layers::ATTN_NEIGHBOR,
                layers::FTM_INPUT,
            ] {
                assert!(ranges.contains(layer), "{variant:?}: missing {layer}");
                assert!(ranges.scale(layer) > 0.0);
            }
            if variant == OptimizationVariant::Baseline {
                assert!(ranges.contains(layers::ATTN_QUERY));
            }
        }
    }

    #[test]
    fn quantized_stream_tracks_f32_embeddings_closely() {
        for variant in [OptimizationVariant::Baseline, OptimizationVariant::NpMedium] {
            let (model, graph) = setup(variant);
            let events = graph.events();
            let (warm, sample) = (&events[..150], &events[150..500]);
            let q = Arc::new(quantize_model(
                &model,
                &graph,
                warm,
                sample,
                50,
                QuantConfig::default(),
            ));

            // f32 reference.
            let mut f32_engine =
                InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
            f32_engine.warm_up(warm, &graph);
            // Quantized run over the same stream.
            let mut q_engine =
                InferenceEngine::new(model.clone(), graph.num_nodes()).with_quantized(q);
            assert_eq!(q_engine.mode(), ExecMode::Quantized);
            q_engine.warm_up(warm, &graph);

            let mut worst_cos: Float = 1.0;
            let mut worst_err: Float = 0.0;
            let mut cos_sum = 0.0f64;
            let mut count = 0usize;
            for chunk in sample.chunks(50) {
                let batch = EventBatch::new(chunk.to_vec());
                let reference = f32_engine.process_batch(&batch, &graph);
                let quantized = q_engine.process_batch(&batch, &graph);
                assert_eq!(reference.embeddings.len(), quantized.embeddings.len());
                for ((v_a, e_a), (v_b, e_b)) in
                    reference.embeddings.iter().zip(&quantized.embeddings)
                {
                    assert_eq!(v_a, v_b, "{variant:?}: vertex order diverged");
                    let cos = cosine_agreement(e_a, e_b);
                    worst_cos = worst_cos.min(cos);
                    cos_sum += cos as f64;
                    count += 1;
                    worst_err = worst_err.max(max_abs_diff(e_a, e_b));
                }
            }
            // The softmax makes vanilla attention more sensitive to int8
            // logit error than the pruned simplified path, so the worst-case
            // bar differs per variant; the mean must be tight for both.
            let worst_bar = match variant {
                OptimizationVariant::Baseline => 0.995,
                _ => 0.999,
            };
            assert!(
                worst_cos >= worst_bar,
                "{variant:?}: worst embedding cosine {worst_cos} < {worst_bar} (max abs err {worst_err})"
            );
            let mean_cos = cos_sum / count as f64;
            assert!(
                mean_cos >= 0.9995,
                "{variant:?}: mean embedding cosine {mean_cos}"
            );
            assert!(q_engine.commit_log().is_clean());
        }
    }

    #[test]
    fn stacked_quantized_gru_equals_the_six_matrix_product_bit_for_bit() {
        use tgnn_nn::Linear;
        use tgnn_tensor::ops::{add, hadamard, sigmoid_matrix, tanh_matrix};

        let (model, graph) = setup(OptimizationVariant::NpMedium);
        let events = graph.events();
        let q = quantize_model(
            &model,
            &graph,
            &events[..100],
            &events[100..400],
            50,
            QuantConfig::default(),
        );
        let qgru = q.gru().expect("default config quantizes the GRU");
        let (s_in, s_hid) = (
            q.ranges.scale(layers::GRU_INPUT),
            q.ranges.scale(layers::GRU_HIDDEN),
        );
        // Gate block `k` of a stacked layer as its own int8 layer.
        let h = model.config.memory_dim;
        let block = |layer: &Linear, k: usize, scale: Float| {
            let rows: Vec<usize> = (k * h..(k + 1) * h).collect();
            let gate = Linear::from_parts(
                "gate",
                layer.weight().value.gather_rows(&rows),
                layer.bias.value.row(0)[k * h..(k + 1) * h].to_vec(),
            );
            QuantizedLinear::from_linear(&gate, scale)
        };

        // Inputs spanning the calibrated clip and a little beyond it.
        let mut rng = TensorRng::new(41);
        let mut ws = Workspace::new();
        let (clip_in, clip_hid) = (140.0 * s_in, 140.0 * s_hid);
        let m = rng.uniform_matrix(37, model.config.message_dim(), -clip_in, clip_in);
        let s = rng.uniform_matrix(37, h, -clip_hid, clip_hid);
        let mut lin = |layer: &Linear, k: usize, scale: Float, x: &Matrix| {
            block(layer, k, scale).forward_ws(x, &mut ws)
        };
        let (w_i, w_h) = (&model.gru.w_i, &model.gru.w_h);
        let r = sigmoid_matrix(&add(&lin(w_i, 0, s_in, &m), &lin(w_h, 0, s_hid, &s)));
        let z = sigmoid_matrix(&add(&lin(w_i, 1, s_in, &m), &lin(w_h, 1, s_hid, &s)));
        let hn = lin(w_h, 2, s_hid, &s);
        let n = tanh_matrix(&add(&lin(w_i, 2, s_in, &m), &hadamard(&r, &hn)));
        let six = Matrix::from_fn(37, h, |i, j| {
            (1.0 - z[(i, j)]) * n[(i, j)] + z[(i, j)] * s[(i, j)]
        });

        let two = qgru.forward_ws(&m, &s, &mut Workspace::new());
        assert_eq!(two.as_slice(), six.as_slice());
    }

    #[test]
    fn quantized_path_is_deterministic() {
        let (model, graph) = setup(OptimizationVariant::NpMedium);
        let events = graph.events();
        let q = Arc::new(quantize_model(
            &model,
            &graph,
            &events[..100],
            &events[100..300],
            50,
            QuantConfig::default(),
        ));
        let run = |q: Arc<QuantizedTgn>| {
            let mut engine =
                InferenceEngine::new(model.clone(), graph.num_nodes()).with_quantized(q);
            engine.warm_up(&events[..100], &graph);
            let mut all = Vec::new();
            for chunk in events[100..400].chunks(40) {
                all.extend(
                    engine
                        .process_batch(&EventBatch::new(chunk.to_vec()), &graph)
                        .embeddings,
                );
            }
            all
        };
        assert_eq!(
            run(q.clone()),
            run(q),
            "quantized path must be deterministic"
        );
    }

    #[test]
    fn f32_gru_config_keeps_memory_path_in_f32() {
        let (model, graph) = setup(OptimizationVariant::NpMedium);
        let events = graph.events();
        let cfg = QuantConfig {
            quantize_gru: false,
            ..QuantConfig::default()
        };
        let q = quantize_model(&model, &graph, &events[..100], &events[100..300], 50, cfg);
        assert!(q.gru().is_none());

        // With the GRU in f32, the memory trajectories of the quantized and
        // f32 engines are bit-identical (only the GNN stage differs).
        let mut f32_engine =
            InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
        let mut q_engine =
            InferenceEngine::new(model.clone(), graph.num_nodes()).with_quantized(Arc::new(q));
        f32_engine.warm_up(&events[..300], &graph);
        q_engine.warm_up(&events[..300], &graph);
        for v in 0..graph.num_nodes() as u32 {
            assert_eq!(
                f32_engine.memory().memory_of(v),
                q_engine.memory().memory_of(v),
                "memory of vertex {v} diverged with an f32 GRU"
            );
        }
    }
}
