//! Thread and queue census: the server owns exactly the workers and queues
//! its stage graph (state → GNN) names — two workers over two queues for
//! any backend mix and any fsync policy, plus, with durability on, at most
//! one short-lived `tgnn-serve-snap` interval-snapshot writer.  A
//! re-introduced stage thread or inter-stage queue fails here, and so does
//! a thread that outlives `drain`.
//!
//! One `#[test]` only: the census reads this process's thread list, so the
//! cases must run one after another in a process of their own.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_core::quantized::quantize_model;
use tgnn_core::{BackendKind, ModelConfig, TgnModel};
use tgnn_data::{generate, tiny};
use tgnn_graph::TemporalGraph;
use tgnn_quant::QuantConfig;
use tgnn_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, StreamServer, TenantId, TenantSpec};
use tgnn_tensor::TensorRng;

fn setup() -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(5));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
    let mut model = TgnModel::new(cfg, &mut TensorRng::new(5));
    // An attached int8 weight set lets the mixed-backend case route to it.
    let quantized = quantize_model(
        &model,
        &graph,
        &[],
        &graph.events()[..64],
        16,
        QuantConfig {
            quantize_gru: false,
            ..QuantConfig::default()
        },
    );
    model.attach_quantized(Arc::new(quantized));
    (model, Arc::new(graph))
}

/// Names (`comm`, truncated by the kernel to 15 bytes) of this process's
/// live `tgnn-serve-*` threads.
fn serve_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|n| n.trim_end().to_string())
        .filter(|n| n.starts_with("tgnn-serve-"))
        .collect();
    names.sort();
    names
}

/// A spawned thread names itself as its first act, so the census settles a
/// moment after `StreamServer::new` returns: wait for the expected count,
/// then give any thread that should *not* exist the time to show up.
fn settled_threads(expected: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while serve_threads().len() < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    serve_threads()
}

/// Re-reads the census until `holds` accepts it or about 2 s pass, and
/// returns the last read.  A thread that has been joined — a worker by
/// `drain`, the snapshot writer by the state worker — can linger in the
/// task list for a moment after the join returns, so one read may still
/// list it; a thread nobody joined does not leave, and fails at the
/// deadline.
fn census_until(holds: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = serve_threads();
        if holds(&threads) || Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn server_owns_exactly_the_stage_graphs_threads_and_queues() {
    let (model, graph) = setup();
    let durable = |policy: FsyncPolicy, label: &str| {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "tgnn-census-{}-{}-{label}",
            std::process::id(),
            policy.label()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ServeConfig {
            durability: Some(DurabilityConfig::new(dir).with_fsync(policy)),
            ..ServeConfig::default()
        }
    };
    // An interval snapshot every 4 absorbed events: 64 events spawn the
    // transient snapshot writer at least 8 times.
    let mut snapshotting = durable(FsyncPolicy::OnSeal, "snap");
    snapshotting.max_batch = 4;
    if let Some(d) = snapshotting.durability.take() {
        snapshotting.durability = Some(d.with_snapshot_every(1));
    }

    // Whatever the backend mix and fsync policy: one worker per stage, one
    // queue per hop.
    let pipeline = ["tgnn-serve-gnn", "tgnn-serve-stat"];
    let queues = ["state→gnn", "gnn→results"];
    let cases = [
        ("default", ServeConfig::default()),
        (
            "f32 + int8",
            ServeConfig {
                tenants: vec![
                    TenantSpec::new("a").with_backend(BackendKind::F32),
                    TenantSpec::new("b").with_backend(BackendKind::Int8),
                ],
                ..ServeConfig::default()
            },
        ),
        ("durable (OnSeal)", durable(FsyncPolicy::OnSeal, "")),
        ("durable (Always)", durable(FsyncPolicy::Always, "")),
        ("durable (Never)", durable(FsyncPolicy::Never, "")),
        ("durable (OnSeal, snapshot every batch)", snapshotting),
    ];

    for (label, config) in cases {
        let left = census_until(|t| t.is_empty());
        assert!(
            left.is_empty(),
            "{label}: a previous server's workers outlived its drain: {left:?}"
        );
        let tenants = config.tenants.len().max(1) as u32;
        let dir = config.durability.as_ref().map(|d| d.dir.clone());
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        let threads = settled_threads(pipeline.len());
        assert_eq!(threads, pipeline, "{label}: `tgnn-serve-*` threads");
        let names: Vec<&str> = server.report().queues.iter().map(|q| q.name).collect();
        assert_eq!(names, queues, "{label}");

        // The census holds under load too — the snapshot writer comes and
        // goes, one at a time — and drain joins every thread.
        for (i, &e) in graph.events()[..64].iter().enumerate() {
            server.submit_for(TenantId(i as u32 % tenants), e).unwrap();
            // Beside the two workers, at most the snapshot writer — which
            // reads as `tgnn-serve-stat`, the thread that spawned it, until
            // it names itself.
            let known = |t: &String| pipeline.contains(&t.as_str()) || t == "tgnn-serve-snap";
            let census = |threads: &[String]| {
                pipeline.iter().all(|p| threads.iter().any(|t| t == p))
                    && threads.len() <= pipeline.len() + 1
                    && threads.iter().all(known)
            };
            let threads = census_until(census);
            assert!(
                census(&threads),
                "{label}: `tgnn-serve-*` threads under load: {threads:?}"
            );
        }
        let report = server.drain();
        assert_eq!(report.num_events, 64, "{label}");
        if label.contains("snapshot every batch") {
            let snapshots = report.durability.map_or(0, |d| d.snapshots);
            assert!(snapshots >= 3, "{label}: {snapshots} snapshots");
        }
        if tenants > 1 {
            let served = report.backends.iter().filter(|b| b.served_batches > 0);
            assert_eq!(served.count(), 2, "{label}: every backend served");
        }
        drop(server);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    // The last case has no successor to check it.
    let left = census_until(|t| t.is_empty());
    assert!(
        left.is_empty(),
        "the last server's threads outlived its drain: {left:?}"
    );
}
