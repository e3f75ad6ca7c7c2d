//! Accuracy guard for load-adaptive micro-batches.
//!
//! The serving pipeline seals a batch as soon as its state worker is idle,
//! so the batch size a deployment sees ranges from one event (light load) to
//! `max_batch` (saturation).  Inside a batch every vertex reads the memory
//! as of the batch's start, so a smaller batch means *fresher* memory for
//! every later event — the claim this test pins: link-prediction AP at batch
//! 8 and at batch 1 is no worse than at batch 200, within the same absolute
//! tolerance `quant_gate` grants the int8 path.
//!
//! The protocol must not itself depend on the batch size, which rules out
//! `evaluate_link_prediction` (it draws negatives from the *batch's*
//! embeddings; at batch 1 there are none to draw).  Here every test event
//! is scored against a pre-drawn vertex the stream has already shown,
//! using the latest embedding the engine has produced for that vertex —
//! what a deployed predictor would hold.

use tgnn::nn::loss::average_precision;
use tgnn::prelude::*;
use tgnn_core::training::{TrainConfig, TrainedModel, Trainer};

/// `quant_gate`'s `AP_DELTA_MAX`.
const AP_DELTA_MAX: f32 = 0.02;

fn ap_at(bundle: &TrainedModel, graph: &TemporalGraph, batch_size: usize) -> f32 {
    let mut engine = InferenceEngine::new(bundle.model.clone(), graph.num_nodes());
    engine.warm_up(graph.train_events(), graph);
    // Validation and test are streamed at the batch size under test; only
    // test events are scored, validation fills `latest` and `seen`.
    let stream = &graph.events()[graph.train_end()..];
    let first_scored = graph.val_end() - graph.train_end();
    // One draw per event, made before streaming: identical for every batch
    // size.
    let mut rng = TensorRng::new(0xba7c);
    let draws: Vec<usize> = stream.iter().map(|_| rng.index(usize::MAX)).collect();
    // The latest embedding the engine produced for each vertex, and the
    // distinct vertices in order of first appearance.
    let mut latest: Vec<Option<Vec<f32>>> = vec![None; graph.num_nodes()];
    let mut seen: Vec<u32> = Vec::new();
    let (mut scores, mut labels) = (Vec::new(), Vec::new());
    for (b, chunk) in stream.chunks(batch_size).enumerate() {
        let out = engine.process_batch(&EventBatch::new(chunk.to_vec()), graph);
        for (v, emb) in &out.embeddings {
            latest[*v as usize] = Some(emb.clone());
        }
        for (j, e) in chunk.iter().enumerate() {
            let i = b * batch_size + j;
            // A negative is a vertex the stream has already shown, other
            // than the true destination (the trainer's protocol — any other
            // vertex — restricted to those that have an embedding).
            if i >= first_scored {
                let others: Vec<u32> = seen.iter().copied().filter(|&v| v != e.dst).collect();
                let neg = others[draws[i] % others.len()];
                let embedding = |v: u32| {
                    latest[v as usize]
                        .as_deref()
                        .expect("every streamed vertex has an embedding")
                };
                let h_src = embedding(e.src);
                scores.push(bundle.decoder.score(h_src, embedding(e.dst)));
                labels.push(1.0);
                scores.push(bundle.decoder.score(h_src, embedding(neg)));
                labels.push(0.0);
            }
            for v in [e.src, e.dst] {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
    }
    assert_eq!(scores.len(), 2 * graph.test_events().len());
    average_precision(&scores, &labels)
}

#[test]
fn smaller_batches_do_not_cost_link_prediction_accuracy() {
    let graph = generate(&tgnn_data::tiny(202));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let trainer = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 50,
        learning_rate: 5e-3,
        decoder_hidden: 16,
        seed: 11,
    });
    let mut bundle = trainer.train(&cfg, &graph);
    if bundle.model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        bundle.model.calibrate_lut(&deltas);
    }
    let [ap200, ap8, ap1] = [200, 8, 1].map(|b| ap_at(&bundle, &graph, b));
    println!("link-prediction AP at batch 200 / 8 / 1: {ap200:.4} / {ap8:.4} / {ap1:.4}");
    assert!(ap200 > 0.5, "AP(200) = {ap200}: the model must beat chance");
    for (batch, ap) in [(8, ap8), (1, ap1)] {
        assert!(
            ap >= ap200 - AP_DELTA_MAX,
            "AP at batch {batch} = {ap:.4} is more than {AP_DELTA_MAX} below AP(200) = {ap200:.4}"
        );
    }
}
