//! Thread and queue census: the server owns exactly the workers and queues
//! its stage graph (state → GNN) names — two workers over two queues for
//! any backend mix, plus the WAL syncer under `OnSeal`.  A re-introduced
//! stage thread or inter-stage queue fails here.
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

#[test]
fn server_owns_exactly_the_stage_graphs_threads_and_queues() {
    let (model, graph) = setup();
    let wal_dir: PathBuf = std::env::temp_dir().join(format!("tgnn-census-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Whatever the backend mix: one worker per stage, one queue per hop.
    let pipeline = ["tgnn-serve-gnn", "tgnn-serve-stat"];
    let queues = ["state→gnn", "gnn→results"];
    let cases = [
        ("default", ServeConfig::default(), &pipeline[..]),
        (
            "f32 + int8 + hwsim",
            ServeConfig {
                tenants: vec![
                    TenantSpec::new("a").with_backend(BackendKind::F32),
                    TenantSpec::new("b").with_backend(BackendKind::Int8),
                    TenantSpec::new("c").with_backend(BackendKind::HwSim),
                ],
                ..ServeConfig::default()
            },
            &pipeline[..],
        ),
        (
            "durable (OnSeal)",
            ServeConfig {
                durability: Some(DurabilityConfig::new(&wal_dir).with_fsync(FsyncPolicy::OnSeal)),
                ..ServeConfig::default()
            },
            &["tgnn-serve-gnn", "tgnn-serve-stat", "tgnn-serve-wal-"][..],
        ),
    ];

    for (label, config, expected) in cases {
        assert!(
            serve_threads().is_empty(),
            "{label}: a previous server's workers outlived its drain: {:?}",
            serve_threads()
        );
        let tenants = config.tenants.len().max(1) as u32;
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        let threads = settled_threads(expected.len());
        assert_eq!(threads, expected, "{label}: `tgnn-serve-*` threads");
        let names: Vec<&str> = server.report().queues.iter().map(|q| q.name).collect();
        assert_eq!(names, queues, "{label}");

        // The census holds under load too, and drain joins every worker.
        for (i, &e) in graph.events()[..64].iter().enumerate() {
            server.submit_for(TenantId(i as u32 % tenants), e).unwrap();
        }
        let report = server.drain();
        assert_eq!(report.num_events, 64, "{label}");
        if tenants > 1 {
            let served = report.backends.iter().filter(|b| b.served_batches > 0);
            assert_eq!(served.count(), 3, "{label}: every backend served");
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}
