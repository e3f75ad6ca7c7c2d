//! Observability tests for the serve pipeline: the live metrics snapshot
//! (under load, after a drain, with durability on), the three renderers,
//! the JSONL sampler, the metrics-off no-op path, and the flight-recorder
//! drill — after an injected GNN panic the dump must still contain the
//! poisoned epoch's partial timeline — and the golden counters: every
//! count a lockstep session and a recovered life make deterministic,
//! pinned to literal values.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{
    BackendKind, ModelConfig, OptimizationVariant, OverloadPolicy, TenantId, TgnModel,
};
use tgnn_data::{generate, tiny};
use tgnn_durable::{list_snapshots, DurabilityConfig, FsyncPolicy};
use tgnn_graph::TemporalGraph;
use tgnn_serve::{
    render_flight_timeline, SealReason, ServeConfig, SloConfig, SpanKind, StageId, StreamServer,
    TenantSpec,
};
use tgnn_tensor::TensorRng;

mod common;

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
        num_shards: 2,
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
            let queues: Vec<&str> = m.queues.iter().map(|q| q.name).collect();
            assert_eq!(queues, ["state→gnn", "gnn→results"]);
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

    // Every worker stage saw work.
    for stage in [
        StageId::Scheduler,
        StageId::Batcher,
        StageId::Sampler,
        StageId::Memory,
        StageId::Gnn,
        StageId::Update,
    ] {
        let s = m
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .expect("stage present");
        assert!(s.batches > 0, "{} recorded no spans", stage.label());
        assert!(!s.busy.is_zero(), "{} recorded no busy time", stage.label());
    }

    // Satellite (b): the Table-I-shaped breakdown in the drain report is
    // the snapshot's stage rows under the engine's stage names.
    assert!(!report.stage_timings.total().is_zero());
    let busy = |id: StageId| m.stages.iter().find(|s| s.stage == id).unwrap().busy;
    use tgnn_core::profiling::Stage;
    for (stage, id) in [
        (Stage::Sample, StageId::Sampler),
        (Stage::Memory, StageId::Memory),
        (Stage::Gnn, StageId::Gnn),
        (Stage::Update, StageId::Update),
    ] {
        assert_eq!(report.stage_timings.get(stage), busy(id));
    }
    for stage in Stage::all() {
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
    assert!(timeline.contains("| gnn "));

    // The renderers include their key markers.
    let table = m.render_table();
    assert!(table.contains("state→gnn"));
    assert!(table.contains("batch latency"));
    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE tgnn_queue_depth gauge"));
    assert!(prom.contains("tgnn_stage_busy_seconds_total{stage=\"gnn\"}"));
    assert!(prom.contains("tgnn_batch_latency_ms{quantile=\"0.99\"}"));
    let json = m.to_json_line();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"tgnn_stage_busy_seconds_total\":{"));
}

/// The batcher's adaptation is observable: why each batch was sealed and how
/// large load let it grow, under names dashboards can rely on.
#[test]
fn seal_reasons_and_batch_sizes_are_exported_under_pinned_names() {
    const EVENTS: usize = 20;
    let (model, graph) = setup(41);
    let config = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    // Lockstep: one event in flight.  Whenever the state worker pulls it,
    // nothing else is pending, so every batch is an idle seal of one.
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
    assert_eq!(seals(SealReason::Full) + seals(SealReason::Close), 0);
    assert_eq!(m.batch_events.count(), EVENTS as u64);
    assert_eq!(m.batch_events.max(), 1);

    let prom = m.to_prometheus();
    for line in [
        "# TYPE tgnn_seals_total counter",
        "tgnn_seals_total{reason=\"full\"} 0",
        "tgnn_seals_total{reason=\"idle\"} 20",
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
        .contains("sealed full 0 / idle 20 / close 0"));
    assert!(m
        .to_json_line()
        .contains("\"tgnn_seals_total\":{\"full\":0,\"idle\":20,\"close\":0}"));
}

#[test]
fn kernel_info_names_the_dispatched_kernels() {
    let (model, graph) = setup(42);
    let mut server = StreamServer::new(model, graph, ServeConfig::default());
    server.drain();
    let m = server.metrics();
    let (f32_kernel, int8_kernel) = tgnn_tensor::dispatched_kernels();
    assert_eq!(m.gemm_kernels, (f32_kernel, int8_kernel));
    let info = format!("tgnn_kernel_info{{f32=\"{f32_kernel}\",int8=\"{int8_kernel}\"}} 1");
    let prom = m.to_prometheus();
    assert!(
        prom.lines().any(|l| l == info),
        "missing `{info}` in:\n{prom}"
    );
    let table = m.render_table();
    let line = format!("kernels  f32 {f32_kernel}  int8 {int8_kernel}");
    assert!(
        table.lines().any(|l| l == line),
        "missing `{line}` in:\n{table}"
    );
}

#[test]
fn durable_session_reports_fsync_latency_and_snapshot_lag() {
    let (model, graph) = setup(29);
    let td = TempDir::new("durable");
    let config = ServeConfig {
        max_batch: 8,
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
    assert!(d.wal_fsyncs > 0);
    assert!(
        d.fsync_p99_us >= d.fsync_p50_us,
        "p99 {} < p50 {}",
        d.fsync_p99_us,
        d.fsync_p50_us
    );
    assert!(d.snapshots > 0, "interval snapshots must have run");
    // Post-drain a final snapshot covers every sealed epoch.
    assert_eq!(d.snapshot_lag_epochs, 0);
    // The GNN worker's seal fsyncs and the snapshot writer left spans in
    // the flight recorder.
    let dump = server.metrics_hub().flight_dump();
    assert!(dump.iter().any(|r| r.stage == StageId::WalSync));
    assert!(dump.iter().any(|r| r.stage == StageId::SnapWriter));
    let prom = m.to_prometheus();
    assert!(prom.contains("tgnn_wal_fsyncs_total"));
    assert!(prom.contains("tgnn_snapshot_lag_epochs"));
    // The drain snapshot's size: the two shards' images and the manifest.
    let written: u64 = list_snapshots(td.path())
        .unwrap()
        .last()
        .map(|s| files_bytes(&s.dir))
        .unwrap();
    assert_eq!(d.last_snapshot_bytes, written);
    assert!(prom.contains(&format!("tgnn_snapshot_last_bytes {written}")));
}

/// Total size of the files in `dir`.
fn files_bytes(dir: &Path) -> u64 {
    let files = std::fs::read_dir(dir).unwrap().flatten();
    files.map(|f| f.metadata().unwrap().len()).sum()
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
        parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.contains("\"tgnn_epochs_total\":"));
        assert!(line.contains("\"tgnn_queue_depth\":{"));
    }
    // The final (stop-time) line reflects the drained totals.
    assert!(lines.last().unwrap().contains(&format!(
        "\"tgnn_events_served_total\":{}",
        graph.num_events()
    )));
}

#[test]
fn metrics_off_disables_spans_histograms_and_flight_recorder() {
    let (model, graph) = setup(53);
    let mut server = StreamServer::new(
        model,
        graph.clone(),
        ServeConfig {
            max_batch: 8,
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
    assert_eq!(m.queues.len(), 2);
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
        Arc::new(move |epoch: u64| epoch >= 2 && !fired.swap(true, Ordering::SeqCst))
    };
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
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

    // The dump works after the panic, and the GNN worker entered an epoch
    // it never exited — the poisoned epoch's partial timeline.
    let dump = hub.flight_dump();
    assert!(!dump.is_empty(), "flight dump empty after panic");
    let gnn_spans = |kind| {
        let gnn = dump.iter().filter(|r| r.stage == StageId::Gnn);
        gnn.filter(|r| r.kind == kind).count()
    };
    assert!(
        gnn_spans(SpanKind::Enter) > gnn_spans(SpanKind::Exit),
        "the GNN worker shows no Enter without an Exit"
    );
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
    assert!(d.snapshots > 0);
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

// ---------------------------------------------------------------------------
// The export schema: one vocabulary, pinned.
// ---------------------------------------------------------------------------

/// A model with an attached int8 weight set (memory path f32), so a tenant
/// can be routed to the int8 backend.
fn quantized_setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let (mut model, graph) = setup(seed);
    let q = tgnn_core::quantized::quantize_model(
        &model,
        &graph,
        &[],
        &graph.events()[..200],
        64,
        tgnn_quant::QuantConfig {
            quantize_gru: false,
            ..Default::default()
        },
    );
    model.attach_quantized(Arc::new(q));
    (model, graph)
}

/// Serves a session with every optional section on — four tenants over the
/// f32 and int8 backends, the cache (one `ServeStale` tenant), durability
/// and SLOs — and drains it.  The int8 tenant (index 3) receives no
/// traffic: an idle prepared backend.
fn full_session(names: [&str; 4], label: &str) -> (StreamServer, TempDir) {
    let (model, graph) = quantized_setup(73);
    let td = TempDir::new(label);
    let [a, b, c, d] = names;
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        tenants: vec![
            TenantSpec::new(a).with_backend(BackendKind::F32),
            TenantSpec::new(b)
                .with_backend(BackendKind::F32)
                .with_policy(OverloadPolicy::ServeStale),
            TenantSpec::new(c).with_backend(BackendKind::F32),
            TenantSpec::new(d).with_backend(BackendKind::Int8),
        ],
        durability: Some(
            DurabilityConfig::new(td.path())
                .with_fsync(FsyncPolicy::OnSeal)
                .with_snapshot_every(4),
        ),
        slo: Some(SloConfig::default()),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    for (i, &e) in graph.events()[..120].iter().enumerate() {
        server.submit_for(TenantId((i % 3) as u32), e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}
    (server, td)
}

/// One family of a parsed Prometheus text exposition.
#[derive(Debug)]
struct Family {
    name: String,
    kind: String,
    /// The label sets of its samples (keys and unescaped values), in order.
    samples: Vec<Vec<(String, String)>>,
}

impl Family {
    fn label_keys(&self) -> BTreeSet<String> {
        self.samples
            .iter()
            .flat_map(|labels| labels.iter().map(|(k, _)| k.clone()))
            .collect()
    }
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses `k="v",…` with the exposition format's three escapes; anything
/// else after a backslash, or a raw `"` inside a value, is an error.
fn parse_labels(mut s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    while !s.is_empty() {
        let eq = s.find("=\"").ok_or(format!("label without =\": {s}"))?;
        let key = &s[..eq];
        if !is_metric_name(key) || key.contains(':') {
            return Err(format!("bad label name {key:?}"));
        }
        let mut value = String::new();
        let mut chars = s[eq + 2..].char_indices();
        let end = loop {
            match chars.next().ok_or(format!("unterminated value of {key}"))? {
                (i, '"') => break eq + 2 + i + 1,
                (_, '\\') => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {key}")),
                },
                (_, c) => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        s = &s[end..];
        if !s.is_empty() {
            s = s
                .strip_prefix(',')
                .ok_or(format!("expected `,` before {s}"))?;
        }
    }
    Ok(labels)
}

/// Checks every line against the exposition grammar — `# TYPE name kind` or
/// `name{k="v",…} number` — with one `# TYPE` per family, before its
/// samples, and returns the families in order.
fn parse_exposition(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    for line in text.lines() {
        let err = |what: &str| format!("{what}: {line:?}");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or(err("TYPE without a kind"))?;
            if !is_metric_name(name) || !["counter", "gauge", "summary"].contains(&kind) {
                return Err(err("bad TYPE line"));
            }
            if families.iter().any(|f| f.name == name) {
                return Err(err("second TYPE line for a family"));
            }
            families.push(Family {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        let (series, value) = line.rsplit_once(' ').ok_or(err("sample without a value"))?;
        value
            .parse::<f64>()
            .map_err(|_| err("value is not a number"))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (
                name,
                parse_labels(rest.strip_suffix('}').ok_or(err("unclosed label set"))?)
                    .map_err(|e| err(&e))?,
            ),
            None => (series, Vec::new()),
        };
        if !is_metric_name(name) {
            return Err(err("bad metric name"));
        }
        let family = families.last_mut().ok_or(err("sample before any TYPE"))?;
        let in_family = name == family.name
            || (family.kind == "summary"
                && [
                    format!("{}_sum", family.name),
                    format!("{}_count", family.name),
                ]
                .contains(&name.to_string()));
        if !in_family {
            return Err(err("sample outside its family's block"));
        }
        family.samples.push(labels);
    }
    Ok(families)
}

/// The metric catalogue of ARCHITECTURE.md §9 — the table between the
/// `metric-catalogue` markers — one `family TYPE label,keys` line per row.
fn documented_catalogue() -> BTreeSet<String> {
    let doc = include_str!("../../../ARCHITECTURE.md");
    let begin = doc.find("<!-- metric-catalogue:begin -->").expect("marker");
    let end = doc.find("<!-- metric-catalogue:end -->").expect("marker");
    doc[begin..end]
        .lines()
        .filter(|l| l.starts_with("| `tgnn_"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let keys: BTreeSet<&str> = cells[3]
                .split(',')
                .map(|k| k.trim().trim_matches('`'))
                .filter(|k| !k.is_empty() && *k != "—")
                .collect();
            let keys: Vec<&str> = keys.into_iter().collect();
            format!(
                "{} {} {}",
                cells[1].trim_matches('`'),
                cells[2],
                keys.join(",")
            )
        })
        .collect()
}

/// ROADMAP 5c: the export schema is the documented catalogue, exactly.
/// Renaming, retyping or relabelling a family — or adding one without
/// documenting it — fails here.
#[test]
fn prometheus_schema_is_the_documented_catalogue() {
    let (server, _td) = full_session(["a", "b", "c", "d"], "schema");
    let prom = server.metrics().to_prometheus();
    let exported: BTreeSet<String> = parse_exposition(&prom)
        .unwrap_or_else(|e| panic!("{e}\n{prom}"))
        .iter()
        .map(|f| {
            let keys: Vec<String> = f.label_keys().into_iter().collect();
            format!("{} {} {}", f.name, f.kind, keys.join(","))
        })
        .collect();
    let documented = documented_catalogue();
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let missing: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && missing.is_empty(),
        "exported but not in ARCHITECTURE.md §9: {undocumented:#?}\nin §9 but not exported: {missing:#?}"
    );
}

/// A parsed JSON value — just enough structure to walk an exported line.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Number(f64),
    Object(Vec<(String, Json)>),
}

/// Parses one JSON document of the subset the exporter emits (objects,
/// numbers, `null`), rejecting anything trailing it.
fn parse_json(text: &str) -> Result<Json, String> {
    fn string(s: &[u8], at: &mut usize) -> Result<String, String> {
        let mut out = Vec::new();
        *at += 1;
        loop {
            match *s.get(*at).ok_or("unterminated string")? {
                b'"' => break,
                b'\\' => {
                    *at += 1;
                    match *s.get(*at).ok_or("dangling escape")? {
                        b'u' => {
                            let hex = s.get(*at + 1..*at + 5).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(code).ok_or("bad \\u escape")?;
                            out.extend(c.to_string().bytes());
                            *at += 4;
                        }
                        b'n' => out.push(b'\n'),
                        c @ (b'"' | b'\\') => out.push(c),
                        c => return Err(format!("bad escape \\{}", c as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control character in a string".into()),
                c => out.push(c),
            }
            *at += 1;
        }
        *at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
    fn value(s: &[u8], at: &mut usize) -> Result<Json, String> {
        match *s.get(*at).ok_or("unexpected end")? {
            b'{' => {
                let mut entries = Vec::new();
                *at += 1;
                if s.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Json::Object(entries));
                }
                loop {
                    if s.get(*at) != Some(&b'"') {
                        return Err(format!("expected a key at byte {at}"));
                    }
                    let key = string(s, at)?;
                    if s.get(*at) != Some(&b':') {
                        return Err(format!("expected `:` at byte {at}"));
                    }
                    *at += 1;
                    entries.push((key, value(s, at)?));
                    *at += 1;
                    match s.get(*at - 1) {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Object(entries)),
                        _ => return Err(format!("expected `,` or `}}` at byte {}", *at - 1)),
                    }
                }
            }
            b'n' if s[*at..].starts_with(b"null") => {
                *at += 4;
                Ok(Json::Null)
            }
            _ => {
                let end = s[*at..]
                    .iter()
                    .position(|c| !matches!(c, b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'))
                    .map_or(s.len(), |n| *at + n);
                let number = std::str::from_utf8(&s[*at..end]).map_err(|e| e.to_string())?;
                let parsed = number
                    .parse::<f64>()
                    .map_err(|_| format!("bad number {number:?} at byte {at}"))?;
                *at = end;
                Ok(Json::Number(parsed))
            }
        }
    }
    let mut at = 0;
    let parsed = value(text.as_bytes(), &mut at)?;
    if at != text.len() {
        return Err(format!("trailing bytes after the document at {at}"));
    }
    Ok(parsed)
}

/// Satellite: a tenant name is operator input; whatever it contains, the
/// exposition must stay parseable (the parent interpolated it raw).
#[test]
fn prometheus_label_values_are_escaped() {
    let hostile = "a\"b\\c\nd";
    let (server, _td) = full_session([hostile, "plain", "c", "d"], "escape");
    let m = server.metrics();
    let prom = m.to_prometheus();
    let families = parse_exposition(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
    // The name round-trips through the escaping.
    let served = families
        .iter()
        .find(|f| f.name == "tgnn_tenant_served_total")
        .expect("tenant family");
    let names: Vec<&str> = served
        .samples
        .iter()
        .map(|labels| labels[0].1.as_str())
        .collect();
    assert_eq!(names, [hostile, "plain", "c", "d"]);
    // And through the JSON keys.
    let Json::Object(root) = parse_json(&m.to_json_line()).expect("valid JSON") else {
        panic!("the JSONL line is one object");
    };
    let (_, Json::Object(tenants)) = root
        .iter()
        .find(|(k, _)| k == "tgnn_tenant_served_total")
        .expect("tenant family")
    else {
        panic!("a labelled family is an object");
    };
    assert_eq!(tenants[0].0, hostile);
}

/// Counts the numeric leaves of a JSON value (`null` stands in for a
/// non-finite float).
fn leaves(j: &Json) -> usize {
    match j {
        Json::Object(entries) => entries.iter().map(|(_, v)| leaves(v)).sum(),
        Json::Number(_) | Json::Null => 1,
    }
}

/// One vocabulary: every family of the Prometheus exposition is a key of
/// the JSONL object and vice versa, in the same order, with as many values.
#[test]
fn prometheus_and_jsonl_export_the_same_families() {
    let (server, _td) = full_session(["a", "b", "c", "d"], "vocabulary");
    let m = server.metrics();
    let families = parse_exposition(&m.to_prometheus()).expect("valid exposition");
    let Json::Object(root) = parse_json(&m.to_json_line()).expect("valid JSON") else {
        panic!("the JSONL line is one object");
    };
    let prom: Vec<(&str, usize)> = families
        .iter()
        .map(|f| (f.name.as_str(), f.samples.len()))
        .collect();
    let json: Vec<(&str, usize)> = root.iter().map(|(k, v)| (k.as_str(), leaves(v))).collect();
    assert_eq!(prom, json);
    assert!(
        prom.len() > 50,
        "a full session exports the whole catalogue"
    );
}

/// Satellite: `ServeReport` is a view of `MetricsSnapshot` — same rows, same
/// values — including the row of a prepared backend that served nothing
/// (the parent's snapshot listed only backends with traffic).
#[test]
fn report_and_snapshot_agree_row_for_row() {
    let (server, _td) = full_session(["a", "b", "c", "d"], "agree");
    let (report, m) = (server.report(), server.metrics());

    assert_eq!(report.tenants.len(), 4);
    assert_eq!(m.tenants.len(), 4);
    for (r, s) in report.tenants.iter().zip(&m.tenants) {
        assert_eq!(
            (&r.name, r.weight, r.policy, r.backend, r.counters),
            (&s.name, s.weight, s.policy, s.backend, s.counters)
        );
        assert_eq!(
            (r.served, r.late, r.served_stale, r.latency),
            (s.served, s.late, s.served_stale, s.latency)
        );
    }
    let submitted: u64 = report.tenants.iter().map(|t| t.counters.submitted).sum();
    assert_eq!(m.admission.submitted, submitted);
    assert_eq!(submitted, 120);
    common::assert_conserved(&m);

    let kinds = |rows: &[tgnn_serve::BackendStats]| -> Vec<(BackendKind, u64, u64)> {
        rows.iter()
            .map(|b| (b.kind, b.served_batches, b.served_events))
            .collect()
    };
    assert_eq!(kinds(&report.backends), kinds(&m.backends));
    let listed: Vec<BackendKind> = m.backends.iter().map(|b| b.kind).collect();
    assert_eq!(
        listed,
        [BackendKind::F32, BackendKind::Int8],
        "every prepared backend has a row"
    );
    assert_eq!(m.backends[1].served_batches, 0, "the int8 backend is idle");
    for (r, s) in report.backends.iter().zip(&m.backends) {
        assert_eq!(r.modeled_latency, s.modeled_latency);
    }
    assert!(
        m.backends[0].modeled_latency.is_some(),
        "every batch is timed"
    );
    assert!(
        m.backends[1].modeled_latency.is_none(),
        "an idle backend has no sample"
    );

    assert_eq!(report.latency, m.batch_latency);
    assert_eq!(report.total_time, m.total_time);
    assert_eq!(report.cache, m.cache);
    assert!(report.cache.is_some());
    // Durability: the counters agree; the wall-clock lag is the one field
    // that moves between two reads.
    let (r, s) = (report.durability.unwrap(), m.durability.unwrap());
    assert!(s.snapshot_lag_seconds >= r.snapshot_lag_seconds);
    assert_eq!(
        tgnn_serve::DurabilityStats {
            snapshot_lag_seconds: 0.0,
            ..r
        },
        tgnn_serve::DurabilityStats {
            snapshot_lag_seconds: 0.0,
            ..s
        }
    );
}

// ---------------------------------------------------------------------------
// Golden counters: every count a lockstep feed makes deterministic, pinned.
// ---------------------------------------------------------------------------

/// Catalogue families the golden-counter tests leave unpinned, by line
/// prefix.  Timings vary run to run: the uptime, the stage busy time and
/// share, the batch-latency quantiles (its `_count` stays pinned), the
/// snapshot lag in seconds, the delivery p99 and the tail exemplars it
/// selects.  The fsync counts and latencies depend on how the disk and the
/// WAL writer meet, not on the feed.  The queue mean depth is not a count,
/// and the kernel info names the host's CPU.
const UNPINNED: [&str; 11] = [
    "tgnn_uptime_seconds",
    "tgnn_stage_busy_seconds_total",
    "tgnn_stage_busy_fraction",
    "tgnn_batch_latency_ms{",
    "tgnn_queue_mean_depth",
    "tgnn_wal_fsync",
    "tgnn_snapshot_lag_seconds",
    "tgnn_trace_delivery_p99_ms",
    "tgnn_trace_exemplars",
    "tgnn_kernel_info",
    "# TYPE",
];

/// The pinned lines of a snapshot's Prometheus exposition.
fn pinned_lines(m: &tgnn_serve::MetricsSnapshot) -> Vec<String> {
    m.to_prometheus()
        .lines()
        .filter(|l| !UNPINNED.iter().any(|p| l.starts_with(p)))
        .map(str::to_string)
        .collect()
}

/// Compares the pinned exposition lines with `golden`, listing every
/// difference at once.
fn assert_golden(label: &str, m: &tgnn_serve::MetricsSnapshot, golden: &[&str]) {
    let got = pinned_lines(m);
    let missing: Vec<_> = golden
        .iter()
        .filter(|l| !got.iter().any(|g| g == *l))
        .collect();
    let extra: Vec<_> = got
        .iter()
        .filter(|g| !golden.contains(&g.as_str()))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{label}: golden lines missing: {missing:#?}\nexported instead: {extra:#?}"
    );
}

/// Two tenants — `f32` (Block) and `int8`, a `ServeStale` tenant behind a
/// token bucket that holds four tokens and refills one per 1000 s, so its
/// fifth and later submits are answered from the cache or dropped — over a
/// durable (`Never`) server whose snapshot interval is 8 absorbed events.
fn golden_config(dir: &Path, results_capacity: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        num_shards: 2,
        results_capacity,
        tenants: vec![
            TenantSpec::new("f32").with_backend(BackendKind::F32),
            TenantSpec::new("int8")
                .with_backend(BackendKind::Int8)
                .with_policy(OverloadPolicy::ServeStale)
                .with_rate_eps(1e-3)
                .with_rate_burst(4.0),
        ],
        durability: Some(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every(2),
        ),
        ..ServeConfig::default()
    }
}

/// Waits until the pipeline has served all `admitted` events and the
/// state worker has committed the last sealed epoch (the cache watermark
/// has reached it), so the next submit's cache lookup sees a settled cache.
fn settle(server: &StreamServer, admitted: u64) {
    let give_up = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.metrics();
        let served: u64 = m.backends.iter().map(|b| b.served_events).sum();
        let watermark = m
            .cache
            .as_ref()
            .expect("a ServeStale tenant")
            .committed_epoch;
        if served == admitted && watermark == m.epochs {
            return;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "never settled: served {served} of {admitted}, watermark {watermark} of {}",
            m.epochs
        );
        std::thread::yield_now();
    }
}

/// Feeds `events` in lockstep, alternating the two tenants: one submit,
/// then — when `poll` is set — polling until its answer is delivered
/// (nothing is, for a drop), then settling.  Returns the admitted count.
fn feed_lockstep(
    server: &mut StreamServer,
    events: &[tgnn_graph::InteractionEvent],
    mut admitted: u64,
    poll: bool,
) -> u64 {
    use tgnn_serve::SubmitOutcome;
    for (i, &e) in events.iter().enumerate() {
        let outcome = server.submit_for(TenantId(i as u32 % 2), e).unwrap();
        admitted += u64::from(outcome == SubmitOutcome::Admitted);
        if poll && outcome != SubmitOutcome::Dropped {
            let give_up = std::time::Instant::now() + Duration::from_secs(30);
            let b = loop {
                if let Some(b) = server.poll() {
                    break b;
                }
                assert!(std::time::Instant::now() < give_up, "event never delivered");
                std::thread::yield_now();
            };
            assert_eq!(b.events, [e]);
        }
        settle(server, admitted);
    }
    admitted
}

/// The count fields of a serve report: events, batches, embeddings,
/// commits, whether the commit log is clean, shards and backpressure
/// blocks.
fn report_counts(r: &tgnn_serve::ServeReport) -> (usize, usize, usize, usize, bool, usize, u64) {
    (
        r.num_events,
        r.num_batches,
        r.num_embeddings,
        r.commits,
        r.commit_log_clean,
        r.num_shards,
        r.backpressure_blocks,
    )
}

/// The counters of one lockstep session — warm-up, a fed stream with stale
/// answers and throttle drops, interval snapshots, drain — pinned to
/// literal values.  A lockstep feed cuts every batch at one event, so every
/// count below is a function of the feed alone, and so is the U200
/// latency model's answer for each batch: the `tgnn_backend_modeled_latency_ms`
/// lines pin it on both backends, run to run.  The int8 tenant's stale
/// answers are served by the cache, not a backend, and add no modelled
/// sample.
#[test]
fn golden_counters_of_a_lockstep_session() {
    let (model, graph) = quantized_setup(79);
    let td = TempDir::new("golden");
    let mut server = StreamServer::new(model, graph.clone(), golden_config(td.path(), 256));
    server.warm_up(&graph.events()[..200]);
    feed_lockstep(&mut server, &graph.events()[200..240], 0, true);
    let report = server.drain();
    assert!(server.poll().is_none(), "lockstep leaves nothing behind");
    let m = server.metrics();
    common::assert_conserved(&m);
    assert_eq!(report_counts(&report), (27, 27, 54, 48, true, 2, 0));
    assert_golden("lockstep session", &m, &GOLDEN_SESSION);
    assert_one_modeled_sample_per_computed_batch(&m);
}

/// The counters of a life recovered from one that drained without polling:
/// its sealed epochs come back as re-serves — counted as served, on their
/// backends, with a modelled latency but no measured one — ahead of a
/// short fresh feed.
#[test]
fn golden_counters_of_a_recovered_life() {
    let (model, graph) = quantized_setup(79);
    let td = TempDir::new("golden-recovered");
    let first = &graph.events()[200..224];
    // Room for every first-life batch: that client never polls.
    let config = golden_config(td.path(), first.len());
    {
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        server.warm_up(&graph.events()[..200]);
        feed_lockstep(&mut server, first, 0, false);
        server.drain();
    }
    let (mut server, recovery) = StreamServer::recover(model, graph.clone(), config).unwrap();
    assert_eq!(
        (
            recovery.snapshot_epoch,
            recovery.acked,
            recovery.sealed_epochs,
            recovery.replayed_epochs,
            recovery.re_served_epochs,
            recovery.replayed_events,
            recovery.readmitted_events,
            recovery.resume_from.clone(),
            recovery.served_stale.clone(),
        ),
        (1, 0, 16, 16, 16, 16, 0, vec![12, 12], vec![0, 0])
    );
    let re_served = std::iter::from_fn(|| server.poll()).count();
    assert_eq!(re_served, recovery.re_served_epochs);
    let admitted = recovery.re_served_epochs as u64;
    feed_lockstep(&mut server, &graph.events()[224..240], admitted, true);
    let report = server.drain();
    assert!(server.poll().is_none(), "lockstep leaves nothing behind");
    let m = server.metrics();
    assert_eq!(report_counts(&report), (29, 29, 58, 56, true, 2, 0));
    assert_golden("recovered life", &m, &GOLDEN_RECOVERED);
    assert_one_modeled_sample_per_computed_batch(&m);
}

/// One modelled-latency sample per batch a backend computed: each backend
/// row's `_count` is its served batches, and the stale answers its tenant
/// got from the cache add none (lockstep: a batch is one event).
fn assert_one_modeled_sample_per_computed_batch(m: &tgnn_serve::MetricsSnapshot) {
    for b in &m.backends {
        assert_eq!(b.modeled_samples, b.served_batches, "{}", b.kind);
        let tenants = m.tenants.iter().filter(|t| t.backend == b.kind);
        let computed: u64 = tenants.map(|t| t.served - t.served_stale).sum();
        assert_eq!(
            b.modeled_samples, computed,
            "{}: stale answers add none",
            b.kind
        );
    }
}

/// The pinned exposition of `golden_counters_of_a_lockstep_session`.
const GOLDEN_SESSION: [&str; 94] = [
    "tgnn_metrics_enabled 1",
    "tgnn_epochs_total 25",
    "tgnn_batches_served_total 27",
    "tgnn_events_served_total 27",
    "tgnn_embeddings_total 54",
    "tgnn_seals_total{reason=\"full\"} 0",
    "tgnn_seals_total{reason=\"idle\"} 24",
    "tgnn_seals_total{reason=\"close\"} 0",
    "tgnn_gru_blocks_offered_total 0",
    "tgnn_gru_blocks_helped_total 0",
    "tgnn_batch_events{quantile=\"0.5\"} 1",
    "tgnn_batch_events{quantile=\"0.95\"} 1",
    "tgnn_batch_events{quantile=\"0.99\"} 1",
    "tgnn_batch_events{quantile=\"1\"} 1",
    "tgnn_batch_events_sum 24",
    "tgnn_batch_events_count 24",
    "tgnn_queue_depth{queue=\"state→gnn\"} 0",
    "tgnn_queue_depth{queue=\"gnn→results\"} 0",
    "tgnn_queue_max_depth{queue=\"state→gnn\"} 1",
    "tgnn_queue_max_depth{queue=\"gnn→results\"} 1",
    "tgnn_queue_pushes_total{queue=\"state→gnn\"} 24",
    "tgnn_queue_pushes_total{queue=\"gnn→results\"} 24",
    "tgnn_queue_blocked_sends_total{queue=\"state→gnn\"} 0",
    "tgnn_queue_blocked_sends_total{queue=\"gnn→results\"} 0",
    "tgnn_stage_spans_total{stage=\"scheduler\"} 24",
    "tgnn_stage_spans_total{stage=\"batcher\"} 24",
    "tgnn_stage_spans_total{stage=\"sampler\"} 24",
    "tgnn_stage_spans_total{stage=\"memory\"} 24",
    "tgnn_stage_spans_total{stage=\"gnn\"} 24",
    "tgnn_stage_spans_total{stage=\"update\"} 24",
    "tgnn_stage_spans_total{stage=\"wal-sync\"} 0",
    "tgnn_stage_spans_total{stage=\"snap-writer\"} 5",
    "tgnn_batch_latency_ms_count 27",
    "tgnn_admission_dropped_total{policy=\"newest\"} 0",
    "tgnn_admission_dropped_total{policy=\"oldest\"} 0",
    "tgnn_admission_dropped_total{policy=\"throttled\"} 13",
    "tgnn_admission_submitted_total 40",
    "tgnn_admission_admitted_total 24",
    "tgnn_admission_blocked_submits_total 0",
    "tgnn_admission_throttled_total 0",
    "tgnn_admission_served_stale_total 3",
    "tgnn_tenant_submitted_total{tenant=\"f32\"} 20",
    "tgnn_tenant_submitted_total{tenant=\"int8\"} 20",
    "tgnn_tenant_admitted_total{tenant=\"f32\"} 20",
    "tgnn_tenant_admitted_total{tenant=\"int8\"} 4",
    "tgnn_tenant_dropped_total{tenant=\"f32\"} 0",
    "tgnn_tenant_dropped_total{tenant=\"int8\"} 13",
    "tgnn_tenant_served_total{tenant=\"f32\"} 20",
    "tgnn_tenant_served_total{tenant=\"int8\"} 7",
    "tgnn_tenant_served_stale_total{tenant=\"f32\"} 0",
    "tgnn_tenant_served_stale_total{tenant=\"int8\"} 3",
    "tgnn_tenant_late_total{tenant=\"f32\"} 0",
    "tgnn_tenant_late_total{tenant=\"int8\"} 0",
    "tgnn_backend_served_batches_total{backend=\"f32\"} 20",
    "tgnn_backend_served_batches_total{backend=\"int8\"} 4",
    "tgnn_backend_served_events_total{backend=\"f32\"} 20",
    "tgnn_backend_served_events_total{backend=\"int8\"} 4",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.5\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.95\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.99\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"1\"} 0.002047",
    "tgnn_backend_modeled_latency_ms_sum{backend=\"f32\"} 0.039030",
    "tgnn_backend_modeled_latency_ms_count{backend=\"f32\"} 20",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.5\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.95\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.99\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"1\"} 0.002047",
    "tgnn_backend_modeled_latency_ms_sum{backend=\"int8\"} 0.007550",
    "tgnn_backend_modeled_latency_ms_count{backend=\"int8\"} 4",
    "tgnn_cache_hits_total 7",
    "tgnn_cache_misses_total 13",
    "tgnn_cache_insertions_total 48",
    "tgnn_cache_evictions_total 0",
    "tgnn_cache_expired_total 0",
    "tgnn_cache_served_stale_total 3",
    "tgnn_cache_entries 27",
    "tgnn_cache_staleness_bound_epochs 64",
    "tgnn_cache_stale_age_epochs{quantile=\"0.5\"} 9",
    "tgnn_cache_stale_age_epochs{quantile=\"0.95\"} 17",
    "tgnn_cache_stale_age_epochs{quantile=\"0.99\"} 17",
    "tgnn_cache_stale_age_epochs{quantile=\"1\"} 17",
    "tgnn_cache_stale_age_epochs_count 3",
    "tgnn_wal_records_total 93",
    "tgnn_wal_bytes_total 2933",
    "tgnn_snapshots_total 5",
    "tgnn_snapshot_lag_epochs 0",
    "tgnn_snapshot_last_bytes 10529",
    "tgnn_traces_begun_total 24",
    "tgnn_trace_conflicts_total 0",
    "tgnn_trace_overflows_total 0",
    "tgnn_trace_head_samples 0",
    "tgnn_flight_capacity 4096",
    "tgnn_flight_recorded_total 279",
    "tgnn_flight_dropped_total 0",
];

/// The pinned exposition of `golden_counters_of_a_recovered_life`.
const GOLDEN_RECOVERED: [&str; 94] = [
    "tgnn_metrics_enabled 1",
    "tgnn_epochs_total 29",
    "tgnn_batches_served_total 29",
    "tgnn_events_served_total 29",
    "tgnn_embeddings_total 58",
    "tgnn_seals_total{reason=\"full\"} 0",
    "tgnn_seals_total{reason=\"idle\"} 12",
    "tgnn_seals_total{reason=\"close\"} 0",
    "tgnn_gru_blocks_offered_total 0",
    "tgnn_gru_blocks_helped_total 0",
    "tgnn_batch_events{quantile=\"0.5\"} 1",
    "tgnn_batch_events{quantile=\"0.95\"} 1",
    "tgnn_batch_events{quantile=\"0.99\"} 1",
    "tgnn_batch_events{quantile=\"1\"} 1",
    "tgnn_batch_events_sum 28",
    "tgnn_batch_events_count 28",
    "tgnn_queue_depth{queue=\"state→gnn\"} 0",
    "tgnn_queue_depth{queue=\"gnn→results\"} 0",
    "tgnn_queue_max_depth{queue=\"state→gnn\"} 1",
    "tgnn_queue_max_depth{queue=\"gnn→results\"} 1",
    "tgnn_queue_pushes_total{queue=\"state→gnn\"} 12",
    "tgnn_queue_pushes_total{queue=\"gnn→results\"} 12",
    "tgnn_queue_blocked_sends_total{queue=\"state→gnn\"} 0",
    "tgnn_queue_blocked_sends_total{queue=\"gnn→results\"} 0",
    "tgnn_stage_spans_total{stage=\"scheduler\"} 12",
    "tgnn_stage_spans_total{stage=\"batcher\"} 12",
    "tgnn_stage_spans_total{stage=\"sampler\"} 12",
    "tgnn_stage_spans_total{stage=\"memory\"} 12",
    "tgnn_stage_spans_total{stage=\"gnn\"} 12",
    "tgnn_stage_spans_total{stage=\"update\"} 12",
    "tgnn_stage_spans_total{stage=\"wal-sync\"} 0",
    "tgnn_stage_spans_total{stage=\"snap-writer\"} 3",
    "tgnn_batch_latency_ms_count 29",
    "tgnn_admission_dropped_total{policy=\"newest\"} 0",
    "tgnn_admission_dropped_total{policy=\"oldest\"} 0",
    "tgnn_admission_dropped_total{policy=\"throttled\"} 3",
    "tgnn_admission_submitted_total 16",
    "tgnn_admission_admitted_total 12",
    "tgnn_admission_blocked_submits_total 0",
    "tgnn_admission_throttled_total 0",
    "tgnn_admission_served_stale_total 1",
    "tgnn_tenant_submitted_total{tenant=\"f32\"} 8",
    "tgnn_tenant_submitted_total{tenant=\"int8\"} 8",
    "tgnn_tenant_admitted_total{tenant=\"f32\"} 8",
    "tgnn_tenant_admitted_total{tenant=\"int8\"} 4",
    "tgnn_tenant_dropped_total{tenant=\"f32\"} 0",
    "tgnn_tenant_dropped_total{tenant=\"int8\"} 3",
    "tgnn_tenant_served_total{tenant=\"f32\"} 20",
    "tgnn_tenant_served_total{tenant=\"int8\"} 9",
    "tgnn_tenant_served_stale_total{tenant=\"f32\"} 0",
    "tgnn_tenant_served_stale_total{tenant=\"int8\"} 1",
    "tgnn_tenant_late_total{tenant=\"f32\"} 0",
    "tgnn_tenant_late_total{tenant=\"int8\"} 0",
    "tgnn_backend_served_batches_total{backend=\"f32\"} 20",
    "tgnn_backend_served_batches_total{backend=\"int8\"} 8",
    "tgnn_backend_served_events_total{backend=\"f32\"} 20",
    "tgnn_backend_served_events_total{backend=\"int8\"} 8",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.5\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.95\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"0.99\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"f32\",quantile=\"1\"} 0.002047",
    "tgnn_backend_modeled_latency_ms_sum{backend=\"f32\"} 0.039030",
    "tgnn_backend_modeled_latency_ms_count{backend=\"f32\"} 20",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.5\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.95\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"0.99\"} 0.002047",
    "tgnn_backend_modeled_latency_ms{backend=\"int8\",quantile=\"1\"} 0.002047",
    "tgnn_backend_modeled_latency_ms_sum{backend=\"int8\"} 0.015484",
    "tgnn_backend_modeled_latency_ms_count{backend=\"int8\"} 8",
    "tgnn_cache_hits_total 2",
    "tgnn_cache_misses_total 3",
    "tgnn_cache_insertions_total 56",
    "tgnn_cache_evictions_total 0",
    "tgnn_cache_expired_total 0",
    "tgnn_cache_served_stale_total 1",
    "tgnn_cache_entries 28",
    "tgnn_cache_staleness_bound_epochs 64",
    "tgnn_cache_stale_age_epochs{quantile=\"0.5\"} 13",
    "tgnn_cache_stale_age_epochs{quantile=\"0.95\"} 13",
    "tgnn_cache_stale_age_epochs{quantile=\"0.99\"} 13",
    "tgnn_cache_stale_age_epochs{quantile=\"1\"} 13",
    "tgnn_cache_stale_age_epochs_count 1",
    "tgnn_wal_records_total 59",
    "tgnn_wal_bytes_total 1611",
    "tgnn_snapshots_total 3",
    "tgnn_snapshot_lag_epochs 0",
    "tgnn_snapshot_last_bytes 10545",
    "tgnn_traces_begun_total 12",
    "tgnn_trace_conflicts_total 0",
    "tgnn_trace_overflows_total 0",
    "tgnn_trace_head_samples 0",
    "tgnn_flight_capacity 4096",
    "tgnn_flight_recorded_total 157",
    "tgnn_flight_dropped_total 0",
];
