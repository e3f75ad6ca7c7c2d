//! Chronology-equivalence property tests: randomized event streams driven
//! through the pipelined [`StreamServer`], with varying shard counts and
//! micro-batch sizes, must produce embeddings **bit-identical** to
//! `ExecMode::Serial` replaying exactly the micro-batch sequence the server
//! used.  This is the correctness contract of the whole sharded multi-queue
//! design: the epoch-barrier protocol may reorder *work*, never *semantics*.

use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{
    ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, TgnModel, TimeEncoderKind,
};
use tgnn_data::{generate, tiny};
use tgnn_graph::{EventBatch, TemporalGraph};
use tgnn_serve::{SealReason, ServeConfig, ServedBatch, StreamServer};
use tgnn_tensor::TensorRng;

fn setup(seed: u64, variant: OptimizationVariant) -> (TgnModel, TemporalGraph) {
    let graph = generate(&tiny(seed));
    let cfg =
        ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim()).with_variant(variant);
    let mut rng = TensorRng::new(seed ^ 0x5eed);
    let mut model = TgnModel::new(cfg, &mut rng);
    if model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    (model, graph)
}

/// Streams `events` through a server, drains, and returns the served batches
/// in epoch order.
fn serve_stream(
    model: TgnModel,
    graph: &Arc<TemporalGraph>,
    events: &[tgnn_graph::InteractionEvent],
    warm: &[tgnn_graph::InteractionEvent],
    num_shards: usize,
    max_batch: usize,
) -> (Vec<ServedBatch>, tgnn_serve::ServeReport) {
    let config = ServeConfig {
        max_batch,
        // A batch is whatever was pending when the state worker pulled, up
        // to the cap, so the boundaries vary from run to run — the replay
        // comparison follows whatever was served.
        num_shards,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    if !warm.is_empty() {
        server.warm_up(warm);
    }
    let mut served = Vec::new();
    for &e in events {
        server.submit(e).expect("chronological submit");
        // Interleave polling with submission, as a live client would.
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    assert!(server.neighbor_table().check_invariants().is_ok());
    (served, report)
}

/// Replays the server's exact micro-batch boundaries through the serial
/// reference engine and asserts bitwise-equal embeddings.
fn assert_matches_serial(
    model: TgnModel,
    graph: &TemporalGraph,
    warm: &[tgnn_graph::InteractionEvent],
    served: &[ServedBatch],
    label: &str,
) {
    let mut engine = InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Serial);
    if !warm.is_empty() {
        engine.warm_up(warm, graph);
    }
    for batch in served {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), graph);
        assert_eq!(
            reference.embeddings.len(),
            batch.embeddings.len(),
            "{label}: embedding count diverged in epoch {}",
            batch.epoch
        );
        for ((v_ref, emb_ref), (v_srv, emb_srv)) in
            reference.embeddings.iter().zip(&batch.embeddings)
        {
            assert_eq!(v_ref, v_srv, "{label}: vertex order diverged");
            assert_eq!(
                emb_ref, emb_srv,
                "{label}: embedding of vertex {v_ref} diverged in epoch {}",
                batch.epoch
            );
        }
    }
    assert_eq!(engine.backward_commits(), 0, "{label}");
}

#[test]
fn pipelined_output_is_bit_identical_across_shards_and_batch_sizes() {
    for seed in [3u64, 11, 29] {
        let (model, graph) = setup(seed, OptimizationVariant::NpMedium);
        let graph = Arc::new(graph);
        let events = &graph.events()[..240.min(graph.num_events())];
        for num_shards in [1usize, 2, 4, 7] {
            for max_batch in [17usize, 64] {
                let label = format!("seed={seed} shards={num_shards} batch={max_batch}");
                let (served, report) =
                    serve_stream(model.clone(), &graph, events, &[], num_shards, max_batch);
                let total: usize = served.iter().map(|b| b.events.len()).sum();
                assert_eq!(total, events.len(), "{label}: events lost or duplicated");
                assert!(report.commit_log_clean, "{label}");
                assert_eq!(report.num_batches, served.len(), "{label}");
                assert_eq!(report.num_shards, num_shards, "{label}");
                // Epochs arrive in order.
                assert!(
                    served.windows(2).all(|w| w[0].epoch < w[1].epoch),
                    "{label}: epochs out of order"
                );
                assert_matches_serial(model.clone(), &graph, &[], &served, &label);
            }
        }
    }
}

/// The int8 serve path: with a quantized weight set attached, the pipeline
/// runs the packed int8 kernels — and because every quantized stage is
/// row-independent exact integer math, the served embeddings must still be
/// **bit-identical** to `ExecMode::Quantized` replaying the same batches,
/// across shard counts.  Accuracy against the f32
/// serial reference is bounded separately (cosine agreement), mirroring the
/// accuracy-gated deployment contract.
#[test]
fn quantized_pipeline_is_bit_identical_to_quantized_engine() {
    use tgnn_core::quantized::quantize_model;
    use tgnn_quant::QuantConfig;
    use tgnn_tensor::stats::cosine_agreement;

    let (mut model, graph) = setup(17, OptimizationVariant::NpMedium);
    let graph = Arc::new(graph);
    let events = &graph.events()[..240.min(graph.num_events())];
    let calibration = &graph.events()[..400.min(graph.num_events())];
    let q = Arc::new(quantize_model(
        &model,
        &graph,
        &[],
        calibration,
        64,
        QuantConfig::default(),
    ));
    model.attach_quantized(q);

    for num_shards in [1usize, 4] {
        let label = format!("quantized shards={num_shards}");
        let (served, report) = serve_stream(model.clone(), &graph, events, &[], num_shards, 32);
        assert!(report.commit_log_clean, "{label}");
        let total: usize = served.iter().map(|b| b.events.len()).sum();
        assert_eq!(total, events.len(), "{label}: events lost or duplicated");

        // Bitwise identity vs the quantized engine on the same batches.
        let mut engine =
            InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Quantized);
        // f32 serial reference for the accuracy bound.
        let mut f32_model = model.clone();
        f32_model.detach_quantized();
        let mut serial =
            InferenceEngine::new(f32_model, graph.num_nodes()).with_mode(ExecMode::Serial);
        for batch in &served {
            let events = EventBatch::new(batch.events.clone());
            let reference = engine.process_batch(&events, &graph);
            assert_eq!(
                reference.embeddings, batch.embeddings,
                "{label}: served embeddings diverged bitwise from the quantized engine in epoch {}",
                batch.epoch
            );
            let f32_out = serial.process_batch(&events, &graph);
            for ((v_a, e_a), (v_b, e_b)) in f32_out.embeddings.iter().zip(&batch.embeddings) {
                assert_eq!(v_a, v_b, "{label}: vertex order diverged");
                // Sanity bound only — the tiny random test model has
                // far coarser activations than the calibrated harness
                // config the accuracy gate (quant_gate) measures.
                let cos = cosine_agreement(e_a, e_b);
                assert!(
                    cos >= 0.98,
                    "{label}: served int8 embedding of vertex {v_a} strayed from f32 (cosine {cos})"
                );
            }
        }
    }
}

#[test]
fn warmed_up_server_matches_warmed_up_serial_engine() {
    let (model, graph) = setup(7, OptimizationVariant::Sat);
    let graph = Arc::new(graph);
    let warm = graph.train_events().to_vec();
    let measure: Vec<_> = graph.events()[graph.train_end()..].to_vec();
    let (served, report) = serve_stream(model.clone(), &graph, &measure, &warm, 4, 50);
    assert!(report.commit_log_clean);
    assert!(report.num_embeddings > 0);
    assert_matches_serial(model, &graph, &warm, &served, "warmed");
}

#[test]
fn single_event_batches_preserve_chronology() {
    let (model, graph) = setup(13, OptimizationVariant::Baseline);
    let graph = Arc::new(graph);
    let events = &graph.events()[..60];
    // Workers exceed batch vertices: every batch degenerates to one sub-job.
    let (served, report) = serve_stream(model.clone(), &graph, events, &[], 3, 1);
    assert_eq!(served.len(), 60, "one micro-batch per event");
    assert!(report.commit_log_clean);
    assert_matches_serial(model.clone(), &graph, &[], &served, "batch=1");
}

#[test]
fn partial_batches_are_served_without_reaching_the_cap() {
    let (model, graph) = setup(5, OptimizationVariant::Sat);
    let graph = Arc::new(graph);
    let config = ServeConfig {
        max_batch: 1000, // never reached
        num_shards: 2,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for &e in &graph.events()[..25] {
        server.submit(e).unwrap();
    }
    // No further arrival, no drain: the idle state worker (or, behind a busy
    // one, the deadline) must get these events served — never the size cap.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut got = 0;
    while got < 25 && std::time::Instant::now() < deadline {
        if let Some(b) = server.poll() {
            got += b.events.len();
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(got, 25, "partial batches never arrived");
    assert_eq!(server.metrics().seals[SealReason::Full.code()], 0);
    let report = server.drain();
    assert!(report.commit_log_clean);
}

#[test]
fn worker_panic_propagates_through_drain_instead_of_hanging() {
    let (model, graph) = setup(2, OptimizationVariant::Baseline);
    let graph = Arc::new(graph);
    let config = ServeConfig {
        max_batch: 4,
        num_shards: 2,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    // An event referencing a non-existent edge-feature row makes the state
    // worker panic mid-step; its dropped channel ends must unwind every
    // other worker so drain() propagates the panic instead of hanging.
    let mut bad = graph.events()[0];
    bad.edge_id = u32::MAX;
    server.submit(bad).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.drain()));
    assert!(result.is_err(), "drain must propagate the worker panic");
}

#[test]
fn out_of_order_submission_is_rejected() {
    let (model, graph) = setup(1, OptimizationVariant::Baseline);
    let graph = Arc::new(graph);
    let mut server = StreamServer::new(model, graph.clone(), ServeConfig::default());
    let e0 = graph.events()[5];
    let e1 = graph.events()[0];
    server.submit(e0).unwrap();
    let err = server.submit(e1).unwrap_err();
    assert!(matches!(err, tgnn_serve::SubmitError::OutOfOrder { .. }));
    let report = server.drain();
    assert!(report.commit_log_clean);
    assert!(
        server.submit(e0).is_err(),
        "submission after drain must fail"
    );
}
