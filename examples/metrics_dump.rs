//! Observability tour: serve a stream with live metrics on, then dump the
//! three views the `tgnn_serve::metrics` hub exports — the human-readable
//! snapshot table, the Prometheus text exposition, and the flight-recorder
//! timeline of the last epochs (the post-mortem view that stays readable
//! even after a worker panic poisons the pipeline).
//!
//! A JSONL sampler thread also appends one snapshot line per 50 ms to a
//! temp file while the stream runs — the feed for offline dashboards.  The
//! Prometheus text and the JSONL line are two renderings of one metric
//! catalogue (ARCHITECTURE.md §9), so they carry the same family names.
//!
//! Run with: `cargo run --release --example metrics_dump`

use std::sync::Arc;
use std::time::Duration;
use tgnn::prelude::*;
use tgnn_serve::render_flight_timeline;

fn main() {
    // 1. A small synthetic stream and the NP(M)-optimized model.
    let graph = Arc::new(generate(&wikipedia_like(0.005, 42)));
    let config = ModelConfig {
        memory_dim: 32,
        time_dim: 32,
        embedding_dim: 32,
        ..ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim())
    }
    .with_variant(OptimizationVariant::NpMedium);
    let model = TgnModel::new(config, &mut TensorRng::new(7));

    // 2. A pipelined server with metrics on (the default): every worker
    //    records stage spans into the bounded flight ring, and the hub
    //    aggregates counters, queue depths, and latency histograms.
    let serve_config = ServeConfig {
        max_batch: 64,
        num_shards: 4,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), serve_config);
    server.warm_up(graph.train_events());

    // 3. Sample the live snapshot to JSONL while the stream runs.
    let jsonl = std::env::temp_dir().join("tgnn-metrics-dump.jsonl");
    let logger = server
        .metrics_hub()
        .spawn_jsonl_sampler(&jsonl, Duration::from_millis(50))
        .expect("spawn sampler");

    for &event in &graph.events()[graph.train_end()..] {
        server.submit(event).expect("chronological stream");
        while server.poll().is_some() {}
    }
    let report = server.drain();
    while server.poll().is_some() {}
    logger.stop();

    // 4. The typed snapshot, rendered as a table...
    let snapshot = server.metrics();
    println!("{}", snapshot.render_table());

    // 5. ...and as Prometheus text exposition (excerpt).
    let prom = snapshot.to_prometheus();
    println!(
        "--- prometheus exposition ({} lines, excerpt) ---",
        prom.lines().count()
    );
    // The stage busy counters, the batcher adapting to load (why each
    // batch was sealed and how large load let it grow), and what the
    // paper's U200 accelerator would have taken per batch.
    for line in prom.lines().filter(|l| {
        [
            "tgnn_stage_busy_seconds",
            "tgnn_seals_total",
            "tgnn_batch_events",
            "tgnn_backend_modeled_latency_ms",
        ]
        .iter()
        .any(|p| l.contains(p))
    }) {
        println!("{line}");
    }

    // 6. The flight recorder: per-epoch stage timelines of the last epochs.
    //    After a panic this dump is exactly how you see where the poisoned
    //    epoch died (open spans render as `→…`).
    let records = server.metrics_hub().flight_dump();
    let timeline = render_flight_timeline(&records);
    let tail: Vec<&str> = timeline.lines().rev().take(8).collect();
    println!(
        "--- flight timeline (last {} of {} lines) ---",
        tail.len(),
        timeline.lines().count()
    );
    for line in tail.iter().rev() {
        println!("{line}");
    }

    println!(
        "\nserved {} events in {} micro-batches; JSONL samples in {}",
        report.num_events,
        report.num_batches,
        jsonl.display()
    );
}
