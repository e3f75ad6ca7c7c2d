//! The int8 accuracy gate — CI fails this binary when quantization costs
//! more accuracy than the documented budget.
//!
//! On a fixed seed the gate trains a small TGN bundle (self-supervised, the
//! paper's protocol at harness scale), calibrates + quantizes it, and
//! compares the int8 path against f32 on two axes — once per gated model:
//! the co-designed +NP(M) (simplified attention, folded LUT) and the vanilla
//! Baseline (whose int8 key side runs `W_kᵀ` on the queries):
//!
//! 1. **Embedding fidelity** — streaming the test split through
//!    `ExecMode::Batched` and `ExecMode::Quantized`, the worst per-vertex
//!    embedding cosine must stay ≥ [`COSINE_FLOOR`].
//! 2. **Task accuracy** — temporal link-prediction Average Precision with
//!    the same decoder and the same negative samples: the int8 AP may drop
//!    at most [`AP_DELTA_MAX`] below f32.
//!
//! Both thresholds are the documented accuracy budget of the int8 backend
//! (see README "Numerics & quantization").  Both passes run before either
//! verdict, so a failing log still shows both.  Unless `--smoke`, the
//! measured numbers are merged into `BENCH_baseline.json` under
//! `"quant_gate"` (+NP(M)) and `"quant_gate_baseline"`.
//!
//! Run with:
//! `cargo run --release -p tgnn-bench --bin quant_gate -- --scale 0.02 --seed 7 --epochs 2`

use std::sync::Arc;
use tgnn_bench::{harness_model_config, merge_baseline_row, Dataset, HarnessArgs};
use tgnn_core::link_prediction::evaluate_link_prediction;
use tgnn_core::quantized::quantize_model;
use tgnn_core::training::{TrainConfig, Trainer};
use tgnn_core::{ExecMode, InferenceEngine, OptimizationVariant, TimeEncoderKind};
use tgnn_graph::EventBatch;
use tgnn_graph::TemporalGraph;
use tgnn_quant::QuantConfig;
use tgnn_tensor::stats::{cosine_agreement, max_abs_diff};
use tgnn_tensor::TensorRng;

/// Worst-pair embedding cosine the int8 path must maintain vs f32.
const COSINE_FLOOR: f32 = 0.999;
/// Maximum tolerated link-prediction AP drop (absolute) vs f32.
const AP_DELTA_MAX: f32 = 0.02;

/// The gated models, one pass each, and the baseline row each merges.
const PASSES: [(OptimizationVariant, &str); 2] = [
    (OptimizationVariant::NpMedium, "quant_gate"),
    (OptimizationVariant::Baseline, "quant_gate_baseline"),
];

/// What one pass measured.
struct Gate {
    ap_f32: f32,
    ap_int8: f32,
    cos_min: f32,
    cos_mean: f64,
    max_err: f32,
}

impl Gate {
    /// How far int8 AP fell below f32's.
    fn ap_delta(&self) -> f32 {
        self.ap_f32 - self.ap_int8
    }
}

/// Binary-specific flags, enumerated for `--help`.
const GATE_FLAGS: &[tgnn_bench::FlagHelp] = &[
    (
        "--out",
        "<path>",
        "baseline JSON to merge the quant_gate row into (default BENCH_baseline.json)",
    ),
    ("--smoke", "", "tiny fixed configuration, 1 epoch"),
];

fn main() {
    let mut args = HarnessArgs::parse_or_help(
        "quant_gate",
        "int8 accuracy gate: train a fixed-seed bundle, calibrate + quantize, fail the \
         build if embedding cosine or link-prediction AP regress past the budget.",
        GATE_FLAGS,
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        args.scale = 0.005;
        args.epochs = 1;
    }
    let out_path = {
        let argv: Vec<String> = std::env::args().collect();
        argv.windows(2)
            .find(|w| w[0] == "--out")
            .map(|w| w[1].clone())
            .unwrap_or_else(|| "BENCH_baseline.json".to_string())
    };

    let graph = Dataset::Wikipedia.graph(args.scale, args.seed);
    let gates: Vec<Gate> = PASSES
        .iter()
        .map(|&(variant, _)| gate(variant, &graph, &args, smoke))
        .collect();

    for (&(variant, _), g) in PASSES.iter().zip(&gates) {
        let what = variant.label();
        assert!(
            g.cos_min >= COSINE_FLOOR,
            "ACCURACY GATE FAILED ({what}): embedding cosine {} below the {COSINE_FLOOR} floor",
            g.cos_min
        );
        assert!(
            g.ap_delta() <= AP_DELTA_MAX,
            "ACCURACY GATE FAILED ({what}): int8 AP dropped {:.4} (> {AP_DELTA_MAX}) below f32",
            g.ap_delta()
        );
    }
    println!("accuracy gate passed");

    if smoke {
        println!("smoke mode: skipping {out_path} update");
        return;
    }
    for (&(_, key), g) in PASSES.iter().zip(&gates) {
        let row = format!(
            "{{\n    \"ap_f32\": {:.5},\n    \"ap_int8\": {:.5},\n    \"ap_delta\": {:.5},\n    \"ap_delta_budget\": {AP_DELTA_MAX},\n    \"embedding_cosine_min\": {:.6},\n    \"embedding_cosine_floor\": {COSINE_FLOOR},\n    \"embedding_cosine_mean\": {:.6},\n    \"embedding_max_abs_err\": {:.6},\n    \"train_epochs\": {}\n  }}",
            g.ap_f32,
            g.ap_int8,
            g.ap_delta(),
            g.cos_min,
            g.cos_mean,
            g.max_err,
            args.epochs,
        );
        merge_baseline_row(&out_path, key, &row);
        println!("wrote {key} row to {out_path}");
    }
}

/// One pass: train `variant`, quantize it, and measure int8 against f32.
fn gate(
    variant: OptimizationVariant,
    graph: &TemporalGraph,
    args: &HarnessArgs,
    smoke: bool,
) -> Gate {
    let cfg = harness_model_config(graph, variant);
    println!(
        "quant gate: Wikipedia-like @ scale {} seed {} — {} events, variant {}, {} epochs{}",
        args.scale,
        args.seed,
        graph.num_events(),
        variant.label(),
        args.epochs,
        if smoke { " (smoke)" } else { "" }
    );

    // --- Train the f32 bundle (model + decoder) and mirror deployment by
    // calibrating the LUT time encoder afterwards.
    let train_cfg = TrainConfig {
        epochs: args.epochs,
        batch_size: 100,
        learning_rate: 1e-3,
        decoder_hidden: 32,
        seed: args.seed,
    };
    let trainer = Trainer::new(train_cfg.clone());
    let mut bundle = trainer.train(&cfg, graph);
    if bundle.model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        bundle.model.calibrate_lut(&deltas);
    }

    // --- f32 reference AP (the trainer's own protocol: warm on train+val,
    // evaluate the test split).
    let f32_eval = trainer.evaluate(&bundle, graph, 200);

    // --- Calibrate + quantize on the train split, then evaluate the int8
    // path with the *same* decoder and the *same* negative-sample RNG.
    let q = Arc::new(quantize_model(
        &bundle.model,
        graph,
        &[],
        graph.train_events(),
        200,
        QuantConfig::default(),
    ));
    let mut rng = TensorRng::new(train_cfg.seed ^ 0xea1);
    let mut q_engine =
        InferenceEngine::new(bundle.model.clone(), graph.num_nodes()).with_quantized(q.clone());
    q_engine.warm_up(graph.train_events(), graph);
    q_engine.warm_up(graph.val_events(), graph);
    let int8_eval = evaluate_link_prediction(
        &mut q_engine,
        &bundle.decoder,
        graph.test_events(),
        graph,
        200,
        &mut rng,
    );
    assert_eq!(
        f32_eval.num_positives, int8_eval.num_positives,
        "evaluation protocols diverged"
    );

    // --- Embedding fidelity over the test split: Batched (f32) vs Quantized
    // engines on identical batch boundaries.
    let mut f32_engine =
        InferenceEngine::new(bundle.model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
    let mut q_engine =
        InferenceEngine::new(bundle.model.clone(), graph.num_nodes()).with_quantized(q);
    for engine in [&mut f32_engine, &mut q_engine] {
        engine.warm_up(graph.train_events(), graph);
        engine.warm_up(graph.val_events(), graph);
    }
    let mut cos_min: f32 = 1.0;
    let mut cos_sum = 0.0f64;
    let mut count = 0usize;
    let mut max_err: f32 = 0.0;
    for chunk in graph.test_events().chunks(200) {
        let batch = EventBatch::new(chunk.to_vec());
        let reference = f32_engine.process_batch(&batch, graph);
        let quantized = q_engine.process_batch(&batch, graph);
        for ((v_a, e_a), (v_b, e_b)) in reference.embeddings.iter().zip(&quantized.embeddings) {
            assert_eq!(v_a, v_b, "vertex order diverged between f32 and int8");
            let cos = cosine_agreement(e_a, e_b);
            cos_min = cos_min.min(cos);
            cos_sum += cos as f64;
            count += 1;
            max_err = max_err.max(max_abs_diff(e_a, e_b));
        }
    }
    let g = Gate {
        ap_f32: f32_eval.average_precision,
        ap_int8: int8_eval.average_precision,
        cos_min,
        cos_mean: cos_sum / count.max(1) as f64,
        max_err,
    };
    println!(
        "link prediction AP: f32 {:.4} vs int8 {:.4} (delta {:+.4}, budget {AP_DELTA_MAX})",
        g.ap_f32,
        g.ap_int8,
        -g.ap_delta()
    );
    println!(
        "embedding fidelity: cosine min {:.6} (floor {COSINE_FLOOR}), mean {:.6}, max abs err {:.5} over {count} embeddings",
        g.cos_min, g.cos_mean, g.max_err
    );
    g
}
