//! Quickstart: generate a small temporal graph, build a TGN-attn model with
//! the paper's NP(M) optimizations, stream batches of edges through the
//! inference engine, and print the throughput/latency/complexity summary.
//!
//! Run with: `cargo run --release --example quickstart`

use tgnn::prelude::*;
use tgnn_data::delta_t::memory_delta_t;

fn main() {
    // 1. A synthetic Wikipedia-like interaction graph (1% of the paper's
    //    scale so the example runs in a couple of seconds).
    let graph = generate(&wikipedia_like(0.01, 42));
    println!(
        "dataset: {} — {} nodes, {} temporal edges, {}-dim edge features",
        graph.name(),
        graph.num_nodes(),
        graph.num_events(),
        graph.edge_feature_dim()
    );

    // 2. A TGN-attn model with the paper's optimizations applied: simplified
    //    attention + LUT time encoder + pruning to 4 neighbors (NP(M)).
    let config = ModelConfig {
        memory_dim: 32,
        time_dim: 32,
        embedding_dim: 32,
        ..ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim())
    }
    .with_variant(OptimizationVariant::NpMedium);
    let mut rng = TensorRng::new(7);
    let mut model = TgnModel::new(config, &mut rng);
    model.calibrate_lut(&memory_delta_t(graph.events(), graph.num_nodes()));
    println!(
        "model: {} parameters, variant NP(M)",
        model.num_parameters()
    );

    // 3. Stream the edges through the inference engine in batches of 200,
    //    exactly as a deployed system would (Algorithm 1 of the paper).
    let mut engine = InferenceEngine::new(model, graph.num_nodes());
    let report = engine.run_stream(graph.events(), &graph, 200);

    println!(
        "\nprocessed {} edges in {} batches",
        report.num_events, report.num_batches
    );
    println!(
        "generated {} dynamic node embeddings",
        report.num_embeddings
    );
    println!("throughput: {:.1} kE/s", report.throughput_eps() / 1e3);
    println!(
        "mean batch latency: {:.3} ms",
        report.mean_latency().as_secs_f64() * 1e3
    );
    println!(
        "per-embedding cost: {} kMAC, {} kMEM",
        report.ops_per_embedding().macs / 1000,
        report.ops_per_embedding().mems / 1000
    );
    println!(
        "chronological commits verified: {} commits, {} violations",
        engine.commits(),
        engine.backward_commits()
    );
}
