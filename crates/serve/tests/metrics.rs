//! Observability tests for the serve pipeline: the live metrics snapshot
//! (under load, after a drain, with durability on), the three renderers,
//! the JSONL sampler, the metrics-off no-op path, and the flight-recorder
//! drill — after an injected GNN panic the dump must still contain the
//! poisoned epoch's partial timeline.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{ModelConfig, OptimizationVariant, TgnModel};
use tgnn_data::{generate, tiny};
use tgnn_durable::{DurabilityConfig, FsyncPolicy};
use tgnn_graph::TemporalGraph;
use tgnn_serve::{
    render_flight_timeline, SealReason, ServeConfig, SpanKind, StageId, StreamServer,
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
        let p = std::env::temp_dir().join(format!("tgnn-metrics-{}-{label}", std::process::id()));
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

#[test]
fn metrics_snapshot_live_under_load_and_after_drain() {
    let (model, graph) = setup(11);
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(1),
        num_shards: 2,
        gnn_workers: 2,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);

    let mut polled = 0usize;
    let mut live_seen = false;
    for (i, &e) in graph.events().iter().enumerate() {
        server.submit(e).unwrap();
        while server.poll().is_some() {
            polled += 1;
        }
        if i == graph.num_events() / 2 {
            // Live snapshot mid-stream: epochs are flowing and the queue
            // list is fully registered from spawn.  The pipeline threads
            // run behind the submitter, so wait for the first seal rather
            // than assert an instantaneous race.
            let t0 = std::time::Instant::now();
            let mut m = server.metrics();
            while m.epochs == 0 && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
                m = server.metrics();
            }
            assert!(m.enabled);
            assert!(m.epochs > 0, "epochs must be sealed mid-stream");
            assert_eq!(m.queues.len(), 5);
            assert_eq!(m.queues[0].name, "ingest→state");
            live_seen = true;
        }
    }
    assert!(live_seen);
    let report = server.drain();
    while server.poll().is_some() {
        polled += 1;
    }

    let m = server.metrics();
    assert_eq!(m.batches_served as usize, report.num_batches);
    assert_eq!(m.events_served as usize, graph.num_events());
    assert_eq!(m.embeddings as usize, report.num_embeddings);
    assert!(polled > 0, "batches must have been delivered");

    // Every worker stage saw work; the GNN pool reports both workers.
    for stage in [
        StageId::Scheduler,
        StageId::Batcher,
        StageId::Sampler,
        StageId::Memory,
        StageId::Gnn,
        StageId::Update,
        StageId::Reorder,
    ] {
        let s = m
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .expect("stage present");
        assert!(s.batches > 0, "{} recorded no spans", stage.label());
        assert!(!s.busy.is_zero(), "{} recorded no busy time", stage.label());
    }
    let gnn = m.stages.iter().find(|s| s.stage == StageId::Gnn).unwrap();
    assert_eq!(gnn.workers, 2);

    // Satellite (b): the Table-I-shaped breakdown both in the snapshot and
    // in the drain report, fed from the same span counters.
    assert!(!report.stage_timings.total().is_zero());
    assert_eq!(report.stage_timings, m.stage_timings);
    for stage in tgnn_core::profiling::Stage::all() {
        assert!(
            !report.stage_timings.get(stage).is_zero(),
            "stage {} has no busy time in the report",
            stage.label()
        );
    }

    // One seal→embeddings histogram feeds both views: same sample count,
    // same percentiles.
    assert!(m.batch_latency.p50_ms > 0.0);
    assert_eq!(m.batch_latency, report.latency);
    assert_eq!(m.batches_served as usize, report.num_batches);

    // Per-tenant served counters flow through.
    assert_eq!(m.tenants.len(), 1);
    assert_eq!(m.tenants[0].served as usize, graph.num_events());
    assert_eq!(m.admission.admitted as usize, graph.num_events());

    // Flight recorder saw roughly 2 events per stage per epoch plus
    // delivery marks.
    assert!(m.flight.recorded > 0);
    let dump = server.metrics_hub().flight_dump();
    assert!(!dump.is_empty());
    assert!(dump
        .iter()
        .any(|r| r.stage == StageId::Deliver && r.kind == SpanKind::Mark));
    let timeline = render_flight_timeline(&dump);
    assert!(timeline.contains("epoch"));
    assert!(timeline.contains("gnn["));

    // The renderers include their key markers.
    let table = m.render_table();
    assert!(table.contains("ingest→state"));
    assert!(table.contains("batch latency"));
    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE tgnn_queue_depth gauge"));
    assert!(prom.contains("tgnn_stage_busy_seconds_total{stage=\"gnn\"}"));
    assert!(prom.contains("tgnn_batch_latency_ms{quantile=\"0.99\"}"));
    let json = m.to_json_line();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"stages\":["));
}

/// The batcher's adaptation is observable: why each batch was sealed and how
/// large load let it grow, under names dashboards can rely on.
#[test]
fn seal_reasons_and_batch_sizes_are_exported_under_pinned_names() {
    const EVENTS: usize = 20;
    let (model, graph) = setup(41);
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    // Lockstep: one event in flight.  Whenever it is sealed the state
    // worker has nothing else to do, so every batch is an idle seal of one.
    for &e in &graph.events()[..EVENTS] {
        server.submit(e).unwrap();
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while server.poll().is_none() {
            assert!(std::time::Instant::now() < give_up, "event never delivered");
            std::thread::yield_now();
        }
    }
    server.drain();
    let m = server.metrics();
    let seals = |r: SealReason| m.seals[r.code()];
    assert_eq!(seals(SealReason::Idle), EVENTS as u64);
    assert_eq!(
        seals(SealReason::Full) + seals(SealReason::Deadline) + seals(SealReason::Close),
        0
    );
    assert_eq!(m.batch_events.count(), EVENTS as u64);
    assert_eq!(m.batch_events.max(), 1);

    let prom = m.to_prometheus();
    for line in [
        "# TYPE tgnn_seals_total counter",
        "tgnn_seals_total{reason=\"full\"} 0",
        "tgnn_seals_total{reason=\"idle\"} 20",
        "tgnn_seals_total{reason=\"deadline\"} 0",
        "tgnn_seals_total{reason=\"close\"} 0",
        "# TYPE tgnn_batch_events summary",
        "tgnn_batch_events{quantile=\"0.5\"} 1",
        "tgnn_batch_events{quantile=\"0.99\"} 1",
        "tgnn_batch_events_sum 20",
        "tgnn_batch_events_count 20",
    ] {
        assert!(
            prom.lines().any(|l| l == line),
            "missing `{line}` in:\n{prom}"
        );
    }
    assert!(m
        .render_table()
        .contains("sealed full 0 / idle 20 / deadline 0 / close 0"));
    assert!(m
        .to_json_line()
        .contains("\"seals\":{\"full\":0,\"idle\":20,\"deadline\":0,\"close\":0}"));
}

#[test]
fn durable_session_reports_fsync_latency_and_snapshot_lag() {
    let (model, graph) = setup(29);
    let td = TempDir::new("durable");
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(1),
        num_shards: 2,
        durability: Some(
            DurabilityConfig::new(td.path())
                .with_fsync(FsyncPolicy::OnSeal)
                .with_snapshot_every(4),
        ),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for &e in &graph.events()[..96] {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}

    let m = server.metrics();
    let d = m.durability.expect("durable session exposes durability");
    assert!(d.stats.wal_fsyncs > 0);
    assert!(
        d.fsync_p99_us >= d.fsync_p50_us,
        "p99 {} < p50 {}",
        d.fsync_p99_us,
        d.fsync_p50_us
    );
    assert!(d.stats.snapshots > 0, "interval snapshots must have run");
    // Post-drain a final snapshot covers every sealed epoch.
    assert_eq!(d.snapshot_lag_epochs, 0);
    // The WAL syncer and snapshot writer left spans in the flight recorder.
    let dump = server.metrics_hub().flight_dump();
    assert!(dump.iter().any(|r| r.stage == StageId::WalSync));
    assert!(dump.iter().any(|r| r.stage == StageId::SnapWriter));
    let prom = m.to_prometheus();
    assert!(prom.contains("tgnn_wal_fsyncs_total"));
    assert!(prom.contains("tgnn_snapshot_lag_epochs"));
}

#[test]
fn jsonl_sampler_appends_parseable_lines() {
    let (model, graph) = setup(41);
    let td = TempDir::new("jsonl");
    let path = td.path().join("metrics.jsonl");
    let mut server = StreamServer::new(
        model,
        graph.clone(),
        ServeConfig {
            max_batch: 8,
            batch_deadline: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let logger = server
        .metrics_hub()
        .spawn_jsonl_sampler(&path, Duration::from_millis(5))
        .expect("sampler starts");
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}
    logger.stop();

    let text = std::fs::read_to_string(&path).expect("sampler wrote the file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "sampler wrote no lines");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad JSONL: {line}"
        );
        assert!(line.contains("\"epochs\":"));
        assert!(line.contains("\"queues\":["));
    }
    // The final (stop-time) line reflects the drained totals.
    assert!(lines
        .last()
        .unwrap()
        .contains(&format!("\"events\":{}", graph.num_events())));
}

#[test]
fn metrics_off_disables_spans_histograms_and_flight_recorder() {
    let (model, graph) = setup(53);
    let mut server = StreamServer::new(
        model,
        graph.clone(),
        ServeConfig {
            max_batch: 8,
            batch_deadline: Duration::from_millis(1),
            metrics: false,
            ..ServeConfig::default()
        },
    );
    for &e in graph.events() {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    let report = server.drain();
    while server.poll().is_some() {}

    let m = server.metrics();
    assert!(!m.enabled);
    // Queue stats and tenant counters are structural — they stay live.
    assert_eq!(m.queues.len(), 5);
    assert_eq!(m.tenants[0].served as usize, graph.num_events());
    // Everything the recording path feeds stays empty.
    assert_eq!(m.flight.recorded, 0);
    assert!(server.metrics_hub().flight_dump().is_empty());
    for s in &m.stages {
        assert_eq!(
            s.batches,
            0,
            "{} recorded with metrics off",
            s.stage.label()
        );
        assert!(s.busy.is_zero());
    }
    assert!(report.stage_timings.total().is_zero());
    // The batch latency is the report's histogram: structural, like the
    // counters above.
    assert_eq!(m.batch_latency, report.latency);
    assert!(m.batch_latency.p50_ms > 0.0);
    // The report itself is unaffected.
    assert_eq!(report.num_events, graph.num_events());
    assert!(report.commit_log_clean);
}

/// The flight-recorder drill: inject a GNN worker panic, let the pipeline
/// unwind, and assert the dump still yields the faulted epoch's partial
/// timeline — an `Enter` on the GNN stage with no matching `Exit`.
#[test]
fn flight_recorder_dump_survives_gnn_panic() {
    let (model, graph) = setup(17);
    let fired = Arc::new(AtomicBool::new(false));
    let hook = {
        let fired = fired.clone();
        Arc::new(move |epoch: u64, _part: usize| epoch >= 2 && !fired.swap(true, Ordering::SeqCst))
    };
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(1),
        num_shards: 2,
        gnn_workers: 2,
        gnn_fault: Some(hook),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    // Keep the hub alive across the drain panic — exactly how a harness
    // would hold it for a post-mortem.
    let hub = server.metrics_hub();

    let last = *graph.events().last().unwrap();
    let mut stream = graph
        .events()
        .iter()
        .copied()
        .chain(std::iter::repeat(last));
    loop {
        if server.submit(stream.next().unwrap()).is_err() {
            break;
        }
        while server.poll().is_some() {}
    }
    while server.poll().is_some() {}
    let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.drain()));
    assert!(drained.is_err(), "drain must propagate the worker panic");

    // The dump works after the panic, and some GNN worker entered an epoch
    // it never exited — the poisoned epoch's partial timeline.
    let dump = hub.flight_dump();
    assert!(!dump.is_empty(), "flight dump empty after panic");
    let poisoned = (0u16..2).any(|w| {
        let enters = dump
            .iter()
            .filter(|r| r.stage == StageId::Gnn && r.worker == w && r.kind == SpanKind::Enter)
            .count();
        let exits = dump
            .iter()
            .filter(|r| r.stage == StageId::Gnn && r.worker == w && r.kind == SpanKind::Exit)
            .count();
        enters > exits
    });
    assert!(poisoned, "no GNN worker shows an Enter without an Exit");
    // The rendered timeline marks the dangling span as open.
    let timeline = render_flight_timeline(&dump);
    assert!(
        timeline.contains("→…"),
        "timeline must show the open segment:\n{timeline}"
    );
    // The snapshot is also still answerable from the poisoned pipeline.
    let m = hub.snapshot();
    assert!(m.epochs >= 2);
}

/// Satellite: `metrics_sampling: 1` must record *every* scheduler burst in
/// the flight ring — the sampled-span count equals the stage's burst
/// counter, which accumulates regardless of sampling.
#[test]
fn sampling_rate_one_records_every_scheduler_span() {
    let (model, graph) = setup(61);
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(1),
        metrics_sampling: 1,
        // Large enough that nothing is evicted: the full-rate scheduler
        // traffic plus the per-epoch stage spans must all survive.
        flight_capacity: 1 << 17,
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
    assert_eq!(m.flight.dropped, 0, "ring must not have wrapped");
    let sched = m
        .stages
        .iter()
        .find(|s| s.stage == StageId::Scheduler)
        .unwrap();
    let dump = server.metrics_hub().flight_dump();
    let enters = dump
        .iter()
        .filter(|r| r.stage == StageId::Scheduler && r.kind == SpanKind::Enter)
        .count() as u64;
    assert!(sched.batches > 0);
    assert_eq!(
        enters, sched.batches,
        "rate 1 must put every burst in the ring"
    );
}

/// Satellite: the timeline renderer prints duration-so-far on open spans
/// and breaks `at` ties by sequence number — checked on a synthetic,
/// unbalanced ring rather than a live pipeline.
#[test]
fn timeline_renders_open_spans_and_sorts_ties_by_seq() {
    let ms = Duration::from_millis;
    let rec = |seq: u64, at: Duration, stage: StageId, kind: SpanKind| tgnn_serve::SpanRecord {
        seq,
        at,
        stage,
        worker: 0,
        epoch: 7,
        kind,
    };
    // Deliberately shuffled: two records share `at` (the exit must close
    // the enter, not precede it), and the sampler span never exits.
    let records = vec![
        rec(3, ms(5), StageId::Batcher, SpanKind::Exit),
        rec(2, ms(5), StageId::Batcher, SpanKind::Enter),
        rec(4, ms(6), StageId::Sampler, SpanKind::Enter),
        rec(5, ms(9), StageId::Deliver, SpanKind::Mark),
    ];
    let timeline = render_flight_timeline(&records);
    assert!(timeline.contains("epoch     7"), "timeline:\n{timeline}");
    // The tied enter/exit pair renders closed (5.000→5.000), not half-open.
    assert!(
        timeline.contains("batcher 5.000→5.000"),
        "tie must sort by seq:\n{timeline}"
    );
    // The open sampler span reports duration-so-far against the horizon
    // (the last tick in the dump, the 9 ms mark).
    assert!(
        timeline.contains("sampler 6.000→… 3.000ms so far"),
        "open span must show elapsed time:\n{timeline}"
    );
    assert!(timeline.contains("deliver @9.000"));
}

/// Satellite: a durable session exposes a wall-clock snapshot-writer lag
/// gauge alongside the epoch-based one.
#[test]
fn snapshot_lag_seconds_tracks_the_last_completed_snapshot() {
    let (model, graph) = setup(67);
    let td = TempDir::new("lag-seconds");
    let config = ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(1),
        durability: Some(
            DurabilityConfig::new(td.path())
                .with_fsync(FsyncPolicy::OnSeal)
                .with_snapshot_every(4),
        ),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for &e in &graph.events()[..64] {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}

    let m = server.metrics();
    let d = m.durability.expect("durable session exposes durability");
    assert!(d.stats.snapshots > 0);
    // The drain-time snapshot just completed: the lag is fresh wall-clock,
    // not the session age.
    assert!(d.snapshot_lag_seconds >= 0.0);
    assert!(
        d.snapshot_lag_seconds < 5.0,
        "lag {}s after a drain-time snapshot",
        d.snapshot_lag_seconds
    );
    // And it keeps growing while no snapshot runs.
    std::thread::sleep(Duration::from_millis(20));
    let again = server.metrics().durability.unwrap().snapshot_lag_seconds;
    assert!(
        again > d.snapshot_lag_seconds,
        "lag must advance with wall time: {again} vs {}",
        d.snapshot_lag_seconds
    );
    assert!(m.to_prometheus().contains("tgnn_snapshot_lag_seconds"));
}
