//! Thread and queue census: the server owns exactly the workers and queues
//! its stage graph (ingest → state → GNN pool → reorder) names.  A
//! re-introduced stage thread or inter-stage queue fails here.
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
use tgnn_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, StreamServer, TenantSpec};
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

fn count(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

#[test]
fn server_owns_exactly_the_stage_graphs_threads_and_queues() {
    let (model, graph) = setup();
    let wal_dir: PathBuf = std::env::temp_dir().join(format!("tgnn-census-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    struct Case {
        label: &'static str,
        config: ServeConfig,
        gnn_threads: usize,
        wal_sync: usize,
        queues: Vec<&'static str>,
    }
    let single_backend = vec![
        "ingest→state",
        "state→reorder",
        "state→gnn",
        "gnn→reorder",
        "reorder→results",
    ];
    let cases = [
        Case {
            label: "default",
            config: ServeConfig::default(),
            gnn_threads: 1,
            wal_sync: 0,
            queues: single_backend.clone(),
        },
        Case {
            label: "gnn_workers=3",
            config: ServeConfig {
                gnn_workers: 3,
                ..ServeConfig::default()
            },
            gnn_threads: 3,
            wal_sync: 0,
            queues: single_backend.clone(),
        },
        Case {
            label: "two backends × 2 workers",
            config: ServeConfig {
                gnn_workers: 2,
                tenants: vec![
                    TenantSpec::new("a").with_backend(BackendKind::F32),
                    TenantSpec::new("b").with_backend(BackendKind::Int8),
                ],
                ..ServeConfig::default()
            },
            gnn_threads: 4,
            wal_sync: 0,
            queues: vec![
                "ingest→state",
                "state→reorder",
                "state→gnn[f32]",
                "state→gnn[int8]",
                "gnn→reorder",
                "reorder→results",
            ],
        },
        Case {
            label: "durable (OnSeal)",
            config: ServeConfig {
                durability: Some(DurabilityConfig::new(&wal_dir).with_fsync(FsyncPolicy::OnSeal)),
                ..ServeConfig::default()
            },
            gnn_threads: 1,
            wal_sync: 1,
            queues: single_backend.clone(),
        },
    ];

    for case in cases {
        let label = case.label;
        assert!(
            serve_threads().is_empty(),
            "{label}: a previous server's workers outlived its drain"
        );
        let mut server = StreamServer::new(model.clone(), graph.clone(), case.config);
        let threads = settled_threads(3 + case.gnn_threads + case.wal_sync);
        for (prefix, expected) in [
            ("tgnn-serve-inge", 1),
            ("tgnn-serve-stat", 1),
            ("tgnn-serve-gnn-", case.gnn_threads),
            ("tgnn-serve-reor", 1),
            ("tgnn-serve-wal-", case.wal_sync),
        ] {
            assert_eq!(
                count(&threads, prefix),
                expected,
                "{label}: `{prefix}*` threads in {threads:?}"
            );
        }
        assert_eq!(
            threads.len(),
            3 + case.gnn_threads + case.wal_sync,
            "{label}: unexpected worker in {threads:?}"
        );
        let queues: Vec<&str> = server.report().queues.iter().map(|q| q.name).collect();
        assert_eq!(queues, case.queues, "{label}");

        // The census holds under load too, and drain joins every worker.
        for &e in &graph.events()[..64] {
            server.submit_for(tgnn_serve::TenantId(0), e).unwrap();
        }
        let report = server.drain();
        assert_eq!(report.num_events, 64, "{label}");
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}
