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
use crate::model::{GnnLayers, Projection, TgnModel};
use tgnn_graph::{InteractionEvent, TemporalGraph};
use tgnn_nn::{Linear, LutTimeEncoder};
use tgnn_quant::{ActivationRanges, ActivationRecorder, QuantConfig, QuantizedLinear};
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
            w_i: quantize(model, &model.gru.w_i, ranges.scale(layers::GRU_INPUT)),
            w_h: QuantizedLinear::from_linear(&model.gru.w_h, ranges.scale(layers::GRU_HIDDEN)),
        }
    }

    /// The GRU forward pass with quantized gate projections (the returned
    /// matrix comes from the workspace).  With `fold`, `input` holds the
    /// message columns before the time encoding, which is the LUT's of the
    /// given Δt's and comes out of the input projection's folded table.
    pub fn forward_ws(
        &self,
        input: &Matrix,
        hidden: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        ws: &mut Workspace,
    ) -> Matrix {
        assert_eq!(input.rows(), hidden.rows(), "QuantizedGru: batch mismatch");
        let gi = match fold {
            Some((lut, dts)) => self.w_i.forward_folded_ws(input, lut, dts, ws),
            None => self.w_i.forward_ws(input, ws),
        };
        let gh = self.w_h.forward_ws(hidden, ws);
        let mut out = ws.take_matrix(hidden.rows(), hidden.cols());
        gru_gates_into(&gi, &gh, hidden, &mut out);
        ws.recycle_matrix(gh);
        ws.recycle_matrix(gi);
        out
    }
}

/// The int8 snapshot of `layer`: folded over the model's LUT exactly when
/// the f32 path folds the layer ([`TgnModel::fold_over`]), so both datapaths
/// take the same inputs.
fn quantize(model: &TgnModel, layer: &Linear, act_scale: Float) -> QuantizedLinear {
    match model.fold_over(layer) {
        Some(lut) => QuantizedLinear::from_linear_folded(layer, act_scale, lut),
        None => QuantizedLinear::from_linear(layer, act_scale),
    }
}

/// The quantized weight set of a [`TgnModel`]: every large projection as a
/// [`QuantizedLinear`] (per-row int8 weights, pre-packed panels, calibrated
/// activation scales).  Attach to a model with
/// [`TgnModel::attach_quantized`](crate::TgnModel::attach_quantized).
///
/// An immutable snapshot: of the weights, and — for a model that serves from
/// a LUT — of the time encoder too, whose table is folded into every layer
/// with a time tail here, once.
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
    /// The LUT the attention layers were folded over, if they were.
    lut: Option<LutTimeEncoder>,
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
                    Some(quantize(model, &att.w_q, q_scale)),
                    Some(quantize(model, &att.w_k, nbr_scale)),
                    &att.w_v,
                )
            }
            AttentionKind::Simplified => {
                let att = model.simplified.as_ref();
                (None, None, &att.expect("simplified attention missing").w_v)
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
            lut: model.fold_over(w_v).cloned(),
            w_v: quantize(model, w_v, nbr_scale),
            output: QuantizedLinear::from_linear(&model.output, ranges.scale(layers::FTM_INPUT)),
            ranges: ranges.clone(),
        }
    }

    /// The quantized GRU, when the configuration quantizes the memory path.
    pub fn gru(&self) -> Option<&QuantizedGru> {
        self.gru.as_ref()
    }

    /// The int8 layers the batched GNN stage runs on
    /// ([`TgnModel::embeddings_selected`]): every large projection replaced
    /// by its [`QuantizedLinear`]; batch assembly, logits, softmax, pruning
    /// and aggregation stay f32.
    pub(crate) fn gnn_layers(&self) -> GnnLayers<'_> {
        GnnLayers {
            node_proj: self.node_proj.as_ref().map(Projection::Int8),
            w_q: self.w_q.as_ref().map(Projection::Int8),
            w_k: self.w_k.as_ref().map(Projection::Int8),
            w_v: Projection::Int8(&self.w_v),
            output: Projection::Int8(&self.output),
            lut: self.lut.as_ref(),
        }
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
        use tgnn_tensor::ops::{add, hadamard, sigmoid_matrix, tanh_matrix};

        // NP(M) serves from the LUT, so the input projection is folded: the
        // identity is checked on the path that is served.
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
        let lut = model.fold_over(&model.gru.w_i).expect("NP(M) folds");
        // Gate block `k` of a stacked layer as its own int8 layer.
        let h = model.config.memory_dim;
        let block = |layer: &Linear, k: usize, scale: Float| {
            let rows: Vec<usize> = (k * h..(k + 1) * h).collect();
            let gate = Linear::from_parts(
                "gate",
                layer.weight().value.gather_rows(&rows),
                layer.bias.value.row(0)[k * h..(k + 1) * h].to_vec(),
            );
            match layer.split() {
                Some(split) => QuantizedLinear::from_linear_folded(
                    &gate.with_time_tail(Some(layer.in_dim() - split)),
                    scale,
                    lut,
                ),
                None => QuantizedLinear::from_linear(&gate, scale),
            }
        };

        // Inputs spanning the calibrated clip and a little beyond it.
        let mut rng = TensorRng::new(41);
        let mut ws = Workspace::new();
        let (clip_in, clip_hid) = (140.0 * s_in, 140.0 * s_hid);
        let head_dim = model.gru.w_i.split().expect("a time tail");
        let m = rng.uniform_matrix(37, head_dim, -clip_in, clip_in);
        let dts = rng.uniform_vec(37, 0.0, 1e5);
        let s = rng.uniform_matrix(37, h, -clip_hid, clip_hid);
        let mut lin_i =
            |k: usize| block(&model.gru.w_i, k, s_in).forward_folded_ws(&m, lut, &dts, &mut ws);
        let (gi_r, gi_z, gi_n) = (lin_i(0), lin_i(1), lin_i(2));
        let mut lin_h = |k: usize| block(&model.gru.w_h, k, s_hid).forward_ws(&s, &mut ws);
        let r = sigmoid_matrix(&add(&gi_r, &lin_h(0)));
        let z = sigmoid_matrix(&add(&gi_z, &lin_h(1)));
        let hn = lin_h(2);
        let n = tanh_matrix(&add(&gi_n, &hadamard(&r, &hn)));
        let six = Matrix::from_fn(37, h, |i, j| {
            (1.0 - z[(i, j)]) * n[(i, j)] + z[(i, j)] * s[(i, j)]
        });

        let two = qgru.forward_ws(&m, &s, Some((lut, &dts)), &mut Workspace::new());
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

    /// `model` with a small calibrated int8 set attached.
    fn attached(mut model: TgnModel, graph: &TemporalGraph) -> TgnModel {
        let events = graph.events();
        let q = quantize_model(
            &model,
            graph,
            &events[..50],
            &events[50..150],
            50,
            QuantConfig::default(),
        );
        model.attach_quantized(Arc::new(q));
        model
    }

    /// An attached set runs int8 on every batched path, so an engine built
    /// on such a model says so.
    #[test]
    fn an_attached_model_defaults_to_the_quantized_mode() {
        let (model, graph) = setup(OptimizationVariant::NpMedium);
        let mut model = attached(model, &graph);
        let engine = InferenceEngine::new(model.clone(), graph.num_nodes());
        assert_eq!(engine.mode(), ExecMode::Quantized);
        model.detach_quantized();
        let engine = InferenceEngine::new(model, graph.num_nodes());
        assert_eq!(engine.mode(), ExecMode::default());
    }

    /// `Batched` names the f32 kernels: on an attached model it would run
    /// int8 under an f32 label.
    #[test]
    #[should_panic(expected = "detach_quantized")]
    fn an_f32_mode_refuses_an_attached_model() {
        let (model, graph) = setup(OptimizationVariant::NpMedium);
        let model = attached(model, &graph);
        let _ = InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Batched);
    }
}
