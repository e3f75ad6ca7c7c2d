//! Streaming serving: feed a continuous chronological event stream into the
//! pipelined `StreamServer`, poll embeddings as they complete, and print the
//! backpressure-aware serve report (throughput, queue depths, tail latency).
//!
//! Unlike `quickstart`, which drives the engine one synchronous batch at a
//! time, the server overlaps the pipeline stages: while batch *k* is in the
//! GNN compute stage, batch *k+1* is already sampling against the sharded
//! neighbor table — the software rendition of the paper's hardware pipeline.
//!
//! Run with: `cargo run --release --example streaming_serve`

use std::sync::Arc;
use tgnn::prelude::*;
use tgnn_data::delta_t::memory_delta_t;

fn main() {
    // 1. A synthetic Wikipedia-like interaction stream.
    let graph = Arc::new(generate(&wikipedia_like(0.01, 42)));
    println!(
        "dataset: {} — {} nodes, {} temporal edges",
        graph.name(),
        graph.num_nodes(),
        graph.num_events()
    );

    // 2. The NP(M)-optimized TGN-attn model.
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

    // 3. A streaming server: 4 vertex shards; each micro-batch is whatever
    //    was pending when the state worker finished the previous one,
    //    capped at 200 events.  Two workers (state, GNN) over two queues;
    //    the one GNN worker computes batches in epoch order, bit-identical
    //    to the serial engine.
    let serve_config = ServeConfig {
        max_batch: 200,
        num_shards: 4,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), serve_config);

    // 4. Warm the vertex state on the train split (as the paper does before
    //    measuring), then stream the remaining events as they would arrive
    //    in production, polling completed batches as we go.
    server.warm_up(graph.train_events());
    let mut embeddings = 0usize;
    for &event in &graph.events()[graph.train_end()..] {
        server.submit(event).expect("chronological stream");
        while let Some(batch) = server.poll() {
            embeddings += batch.embeddings.len();
        }
    }

    // 5. Drain the pipeline and print the serve report.
    let report = server.drain();
    while let Some(batch) = server.poll() {
        embeddings += batch.embeddings.len();
    }
    println!(
        "served {} events in {} micro-batches → {} embeddings",
        report.num_events, report.num_batches, embeddings
    );
    println!(
        "throughput: {:.0} edges/sec — latency mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        report.throughput_eps,
        report.latency.mean_ms,
        report.latency.p50_ms,
        report.latency.p95_ms,
        report.latency.p99_ms
    );
    println!(
        "chronological commits: {} (clean: {})",
        report.commits, report.commit_log_clean
    );
    println!("queue occupancy (backpressure picture):");
    for q in &report.queues {
        println!(
            "  {:>16}: cap {:>4}, max depth {:>4}, mean depth {:>6.2}, blocked sends {}",
            q.name, q.capacity, q.max_depth, q.mean_depth, q.blocked_sends
        );
    }
}
