//! Fraud-detection-style deployment: the motivating scenario from the
//! paper's introduction — "a fraud detection application would like to
//! frequently examine all users involved in newly appearing transactions."
//!
//! A transaction stream arrives in 15-minute windows; for every window we
//! produce fresh embeddings of the involved accounts, score each transaction
//! with a link decoder, and flag the lowest-scoring (most anomalous) ones.
//!
//! Run with: `cargo run --release --example fraud_detection`

use tgnn::prelude::*;
use tgnn_core::LinkDecoder;
use tgnn_graph::batching::time_window_batches;

fn main() {
    // A Reddit-like bipartite interaction graph stands in for an
    // account ↔ merchant transaction stream.
    let graph = generate(&reddit_like(0.004, 99));
    println!(
        "transaction stream: {} accounts+merchants, {} transactions",
        graph.num_nodes(),
        graph.num_events()
    );

    let config = ModelConfig {
        memory_dim: 32,
        time_dim: 32,
        embedding_dim: 32,
        ..ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim())
    }
    .with_variant(OptimizationVariant::NpSmall);
    let mut rng = TensorRng::new(11);
    let model = TgnModel::new(config.clone(), &mut rng);
    let decoder = LinkDecoder::new(config.embedding_dim, 32, &mut rng);

    let mut engine = InferenceEngine::new(model, graph.num_nodes());

    // Warm up on the historical portion of the stream.
    engine.warm_up(graph.train_events(), &graph);

    // Real-time portion: one inference pass per 15-minute window.
    let windows = time_window_batches(graph.test_events(), 15.0 * 60.0);
    println!("monitoring {} fifteen-minute windows...\n", windows.len());

    let mut flagged = 0usize;
    for (i, window) in windows.iter().enumerate() {
        if window.is_empty() {
            continue;
        }
        let out = engine.process_batch(window, &graph);

        // Score every transaction in the window; low scores = the model
        // finds the interaction unlikely = candidate fraud.
        let mut scores: Vec<(f32, u32, u32)> = window
            .events()
            .iter()
            .filter_map(|e| {
                let src = out.embedding_of(e.src)?;
                let dst = out.embedding_of(e.dst)?;
                Some((decoder.score(src, dst), e.src, e.dst))
            })
            .collect();
        scores.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let suspicious = scores.len().div_ceil(20); // bottom 5%
        flagged += suspicious;

        if i < 5 {
            println!(
                "window {i:>3}: {:>4} transactions, latency {:.2} ms, {} flagged for review",
                window.len(),
                out.latency.as_secs_f64() * 1e3,
                suspicious
            );
        }
    }

    println!(
        "\ntotal flagged transactions: {flagged} (out of {})",
        graph.test_events().len()
    );
    println!(
        "all vertex updates stayed chronological: {}",
        engine.backward_commits() == 0
    );
}
