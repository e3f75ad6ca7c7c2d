//! Causal-trace conservation: every traced epoch's additive segments —
//! ingress wait, seal wait, sample, memory, GNN, reorder barrier, WAL-sync
//! wait, deliver — must tile the measured admit→deliver latency.  The
//! property is checked across seeds × shards, with and without durability
//! (the durability run must surface a non-zero WAL-sync wait segment — the
//! GNN worker's seal fsync — somewhere), plus the per-epoch GNN wait/compute pair, the tail/head
//! exemplar retention and the SLO engine's end-to-end wiring.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{ModelConfig, OptimizationVariant, TgnModel};
use tgnn_data::{generate, tiny};
use tgnn_durable::{DurabilityConfig, FsyncPolicy};
use tgnn_graph::TemporalGraph;
use tgnn_serve::{
    BurnState, CriticalPath, SegmentId, ServeConfig, SloConfig, StreamServer, TraceView,
};
use tgnn_tensor::TensorRng;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::Baseline);
    let model = TgnModel::new(cfg, &mut TensorRng::new(seed));
    (model, Arc::new(graph))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let p = std::env::temp_dir().join(format!("tgnn-trace-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create temp dir");
        Self(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sum of the additive segments of one decoded trace.
fn additive_sum(v: &TraceView) -> Duration {
    v.total_where(|c| SegmentId::from_code(c).is_some_and(|s| s.is_additive()))
}

/// The recorded `Total` reference segment, if the trace is complete.
fn total_of(v: &TraceView) -> Option<Duration> {
    let t = v.total_where(|c| c == SegmentId::Total.code());
    (t > Duration::ZERO).then_some(t)
}

/// Asserts Σ(additive) ≈ Total for every *complete* trace in the dump and
/// returns how many were checked.  Traces whose epoch was still in flight
/// at drain (no `Total` yet) are skipped; evicted slots never decode.
fn assert_conserved(traces: &[TraceView], label: &str) -> usize {
    let mut checked = 0;
    for v in traces {
        let Some(total) = total_of(v) else { continue };
        let sum = additive_sum(v);
        let diff = sum.abs_diff(total);
        // 5 % relative, plus a small absolute slack for sub-millisecond
        // epochs where scheduler jitter between the two `Instant::now()`
        // reads at a stage boundary dominates the ratio.
        let budget =
            Duration::from_secs_f64(total.as_secs_f64() * 0.05) + Duration::from_micros(500);
        assert!(
            diff <= budget,
            "{label}: epoch {} additive sum {:?} vs total {:?} (diff {:?} > budget {:?})",
            v.epoch,
            sum,
            total,
            diff,
            budget,
        );
        checked += 1;
    }
    checked
}

/// Runs the full feed through a server and returns (dump, polled batches).
fn run(config: ServeConfig, seed: u64) -> (Vec<TraceView>, usize) {
    let (model, graph) = setup(seed);
    let mut server = StreamServer::new(model, graph.clone(), config);
    let hub = server.metrics_hub();
    let mut polled = 0usize;
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {
            polled += 1;
        }
    }
    server.drain();
    while server.poll().is_some() {
        polled += 1;
    }
    (hub.trace_dump(), polled)
}

/// The informational GNN pair of every complete trace: exactly one queue
/// wait and one compute segment, which split the additive `Gnn` segment to
/// the nanosecond (all three are differences of the same three instants).
fn assert_gnn_pair_splits_gnn(traces: &[TraceView], label: &str) {
    for v in traces.iter().filter(|v| total_of(v).is_some()) {
        let count = |id: SegmentId| v.segments.iter().filter(|s| s.code == id.code()).count();
        let sum = |id: SegmentId| v.total_where(|c| c == id.code());
        for id in [SegmentId::Gnn, SegmentId::GnnWait, SegmentId::GnnCompute] {
            assert_eq!(count(id), 1, "{label}: epoch {} {}", v.epoch, id.label());
        }
        assert_eq!(
            sum(SegmentId::GnnWait) + sum(SegmentId::GnnCompute),
            sum(SegmentId::Gnn),
            "{label}: epoch {}",
            v.epoch
        );
    }
}

#[test]
fn additive_segments_tile_the_measured_latency_across_topologies() {
    for &(seed, shards) in &[(3u64, 1usize), (5, 2), (7, 4)] {
        let config = ServeConfig {
            max_batch: 8,
            num_shards: shards,
            ..ServeConfig::default()
        };
        let label = format!("seed={seed} shards={shards}");
        let (traces, polled) = run(config, seed);
        assert!(polled > 0, "{label}: nothing served");
        let checked = assert_conserved(&traces, &label);
        assert!(checked > 0, "{label}: no complete traces to check");
        assert_gnn_pair_splits_gnn(&traces, &label);
    }
}

#[test]
fn durability_run_conserves_and_surfaces_wal_sync_wait() {
    // Lockstep feed: submit a batch's worth of events (one epoch, or two
    // when the idle state worker is handed the first event alone), then
    // spin-poll until an epoch delivers.  The GNN worker times each seal
    // fsync it waits for as the epoch's WAL-sync wait, so any real fsync
    // reads above zero.
    let dir = TempDir::new("conserve");
    let config = ServeConfig {
        max_batch: 2,
        num_shards: 2,
        durability: Some(DurabilityConfig::new(dir.path()).with_fsync(FsyncPolicy::OnSeal)),
        ..ServeConfig::default()
    };
    let (model, graph) = setup(9);
    let mut server = StreamServer::new(model, graph.clone(), config);
    let hub = server.metrics_hub();
    let mut polled = 0usize;
    for pair in graph.events().chunks(2).take(40) {
        for &e in pair {
            server.submit(e).unwrap();
        }
        if pair.len() < 2 {
            break;
        }
        let t0 = std::time::Instant::now();
        while server.poll().is_none() {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "epoch never delivered"
            );
            std::hint::spin_loop();
        }
        polled += 1;
    }
    server.drain();
    while server.poll().is_some() {
        polled += 1;
    }
    let traces = hub.trace_dump();
    assert!(polled > 0);
    let checked = assert_conserved(&traces, "durability");
    assert!(checked > 0, "no complete traces to check");
    let wal_waited = traces
        .iter()
        .any(|v| v.total_where(|c| c == SegmentId::WalSyncWait.code()) > Duration::ZERO);
    assert!(
        wal_waited,
        "OnSeal fsync should produce a non-zero WAL-sync wait segment"
    );
}

#[test]
fn critical_path_blames_the_dominant_segment() {
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        ..ServeConfig::default()
    };
    let (traces, _) = run(config, 13);
    let mut cp = CriticalPath::new();
    let mut complete = 0usize;
    for v in &traces {
        if total_of(v).is_some() {
            // The analyzer ranks whatever it is fed; blame wants only the
            // additive decomposition, not the informational GNN pair or
            // the reference segment.
            let additive: Vec<_> = v
                .segments
                .iter()
                .filter(|s| SegmentId::from_code(s.code).is_some_and(|id| id.is_additive()))
                .copied()
                .collect();
            cp.observe(&additive);
            complete += 1;
        }
    }
    assert!(complete > 0);
    let blame = cp.blame();
    assert!(!blame.is_empty());
    // Every blamed code decodes, fractions sum to ~1 over additive codes,
    // and the dominant-epoch counts account for every observed trace.
    let mut frac = 0.0;
    let mut dominant = 0usize;
    for b in &blame {
        let seg = SegmentId::from_code(b.code).expect("blame code decodes");
        assert!(seg.is_additive(), "blame only ranks additive segments");
        frac += b.fraction;
        dominant += b.dominant_in;
    }
    assert!((frac - 1.0).abs() < 1e-9, "fractions sum to 1, got {frac}");
    assert_eq!(
        dominant, complete,
        "each trace has exactly one dominant segment"
    );
}

#[test]
fn tail_and_head_exemplars_are_retained_in_the_snapshot() {
    let (model, graph) = setup(17);
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        // Head-sample every delivered epoch so the ring cannot be empty.
        metrics_sampling: 1,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}
    let m = server.metrics();
    assert!(m.trace.begun > 0, "traces must have begun");
    assert!(
        !m.trace.exemplars.is_empty(),
        "the first delivery always lands in the current p99 bucket"
    );
    assert!(!m.trace.head_samples.is_empty());
    assert!(m.trace.delivery_p99_ms > 0.0);
    for ex in m.trace.exemplars.iter().chain(&m.trace.head_samples) {
        assert!(ex.epoch > 0, "epoch 0 is the untraced sentinel");
        assert!(
            total_of(&ex.view).is_some(),
            "exemplars are complete traces"
        );
    }
}

#[test]
fn slo_engine_reports_latency_and_drop_lanes_from_live_traffic() {
    let (model, graph) = setup(19);
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        slo: Some(SloConfig {
            // Generous objective: healthy traffic must not fire.
            latency_objective: Duration::from_secs(5),
            ..SloConfig::default()
        }),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}
    let m = server.metrics();
    assert_eq!(m.slo.len(), 2, "latency + drops objectives");
    let latency = m.slo.iter().find(|s| s.name == "latency").unwrap();
    let drops = m.slo.iter().find(|s| s.name == "drops").unwrap();
    // Traffic flowed within the objective on both lanes: the fast window
    // has data and nothing fires.
    assert!(latency.fast_burn.is_some(), "latency lane saw traffic");
    assert_eq!(latency.state, BurnState::Ok);
    assert!(drops.fast_burn.is_some(), "drop lane saw traffic");
    assert_eq!(drops.state, BurnState::Ok);
    // And the renderers cover the new sections.
    assert!(m.render_table().contains("slo"));
    assert!(m.to_prometheus().contains("tgnn_slo_burn_rate"));
    assert!(m.to_json_line().contains("\"tgnn_slo_burn_rate\":{"));
    assert!(m.to_json_line().contains("\"tgnn_traces_begun_total\":"));
}

#[test]
fn metrics_off_disables_tracing_entirely() {
    let config = ServeConfig {
        max_batch: 8,
        metrics: false,
        ..ServeConfig::default()
    };
    let (model, graph) = setup(23);
    let mut server = StreamServer::new(model, graph.clone(), config);
    let hub = server.metrics_hub();
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}
    assert!(hub.trace_dump().is_empty(), "metrics off ⇒ no traces");
    let m = server.metrics();
    assert_eq!(m.trace.begun, 0);
    assert!(m.trace.exemplars.is_empty());
}
