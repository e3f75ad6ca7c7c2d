//! Cache-correctness property tests for the `ServeStale` degraded mode: a
//! stale answer must be **bit-identical** to the embedding the pipeline
//! originally served at the epoch the cache recorded (`cache_epochs`), its
//! age may never exceed the configured staleness bound, and the exactly-once
//! accounting of the admission layer must still balance — across seeds,
//! shard counts and staleness bounds, with tiny queue
//! bounds so every run executes at ≥ 2× overload.  Plus the durability
//! drill: a crashed-and-recovered server cold-starts the cache at the
//! recovered epoch floor, so a pre-crash entry can never be served beyond
//! the bound against the recovered timeline.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{
    Disposition, ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, OverloadPolicy,
    TenantId, TgnModel,
};
use tgnn_data::{generate, tiny};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
use tgnn_serve::{
    CacheConfig, DurabilityConfig, FsyncPolicy, ServeConfig, ServedBatch, SloConfig, StreamServer,
    SubmitError, SubmitOutcome, TenantSpec,
};
use tgnn_tensor::{Float, TensorRng};

mod common;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let model = TgnModel::new(cfg, &mut TensorRng::new(seed ^ 0xcac4e));
    (model, Arc::new(graph))
}

/// Stable identity of an event for exactly-once accounting.
fn key(e: &InteractionEvent) -> (u32, u32, u32, u64) {
    (e.src, e.dst, e.edge_id, e.timestamp.to_bits())
}

fn multiset<'a>(events: impl Iterator<Item = &'a InteractionEvent>) -> Vec<(u32, u32, u32, u64)> {
    let mut v: Vec<_> = events.map(key).collect();
    v.sort_unstable();
    v
}

/// A tiny-bounds ServeStale config: submission immediately outruns the
/// drain, so the ingress queue is full for most of the run and the stale
/// path actually executes.
fn overload_config(bound: u64, num_shards: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        stage_capacity: 1,
        results_capacity: 2,
        num_shards,
        cache: Some(CacheConfig {
            capacity: 1024,
            staleness_bound_epochs: bound,
        }),
        tenants: vec![TenantSpec::new("stale-tenant")
            .with_capacity(4)
            .with_policy(OverloadPolicy::ServeStale)],
        ..ServeConfig::default()
    }
}

/// Per-outcome submission record: every `submit_for` call lands one entry in
/// exactly one bucket, so outcome counts always match delivery counts even
/// when the same event is retried (a retried event that was first answered
/// stale appears once in `stale` *and* once in `admitted` — matching its two
/// deliveries).
#[derive(Default)]
struct Outcomes {
    admitted: Vec<InteractionEvent>,
    stale: Vec<InteractionEvent>,
    dropped: Vec<InteractionEvent>,
}

impl Outcomes {
    fn total(&self) -> usize {
        self.admitted.len() + self.stale.len() + self.dropped.len()
    }
}

/// Submits one lap of `base`, polling after every event and **retrying each
/// event until it is admitted** — on a loaded machine even a polling
/// producer can momentarily outrun the scheduler, and the warm lap's job is
/// to push every vertex through the pipeline so the cache covers the whole
/// feed.  Retries that were answered stale or dropped are recorded in their
/// buckets (each produces its own delivery or non-delivery).
fn warm_lap(
    server: &mut StreamServer,
    base: &[InteractionEvent],
    lap: u64,
    span: f64,
    out: &mut Outcomes,
    served: &mut Vec<ServedBatch>,
) {
    for &e in base {
        let mut e = e;
        e.timestamp += lap as f64 * span;
        let mut tries = 0;
        loop {
            match server.submit_for(TenantId::DEFAULT, e).unwrap() {
                SubmitOutcome::Admitted => {
                    out.admitted.push(e);
                    break;
                }
                SubmitOutcome::ServedStale => out.stale.push(e),
                SubmitOutcome::Dropped => out.dropped.push(e),
            }
            tries += 1;
            assert!(tries < 10_000, "warm lap could not admit an event");
            while let Some(b) = server.poll() {
                served.push(b);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
}

/// The core contract: every stale batch (epoch 0) must be bit-identical to
/// the pipeline-served history at its recorded `cache_epochs`, carry a
/// `Disposition::Stale` age within `bound`, and own zero pipeline latency.
/// Returns the number of stale *embedding entries* verified against history.
fn verify_stale_batches(served: &[ServedBatch], bound: u64, label: &str) -> usize {
    // Epoch → vertex → embedding, from the pipeline-served batches.  A stale
    // answer can be polled before the pipeline batch it was copied from
    // (the GNN worker inserts into the cache before pushing to the
    // results queue), so history is built over the whole run first.
    let mut history: HashMap<u64, HashMap<u32, &[Float]>> = HashMap::new();
    for b in served.iter().filter(|b| b.epoch > 0) {
        let entry = history.entry(b.epoch).or_default();
        for (v, emb) in &b.embeddings {
            entry.insert(*v, emb.as_slice());
        }
    }
    let mut checked = 0usize;
    for b in served.iter().filter(|b| b.epoch == 0) {
        assert_eq!(
            b.latency,
            Duration::ZERO,
            "{label}: stale batch has pipeline latency"
        );
        assert_eq!(
            b.cache_epochs.len(),
            b.embeddings.len(),
            "{label}: cache_epochs not aligned with embeddings"
        );
        assert_eq!(b.events.len(), 1, "{label}: stale batches answer one event");
        assert_eq!(b.metas.len(), 1, "{label}");
        let age = match b.metas[0].disposition {
            Disposition::Stale { age_epochs } => age_epochs,
            other => panic!("{label}: stale batch carries disposition {other:?}"),
        };
        assert!(
            age <= bound,
            "{label}: stale answer aged {age} epochs exceeds the bound {bound}"
        );
        for ((v, emb), &epoch) in b.embeddings.iter().zip(&b.cache_epochs) {
            let original = history
                .get(&epoch)
                .and_then(|m| m.get(v))
                .unwrap_or_else(|| {
                    panic!(
                        "{label}: stale answer cites epoch {epoch} vertex {v}, \
                         which the pipeline never served"
                    )
                });
            assert_eq!(
                *original,
                emb.as_slice(),
                "{label}: stale embedding of vertex {v} diverged bitwise from \
                 the embedding served at epoch {epoch}"
            );
            checked += 1;
        }
    }
    checked
}

/// The cache and the shedding policy must not perturb what *is* computed:
/// the pipeline-served batches (epoch > 0; stale answers never entered the
/// pipeline) replay bit-identically through `ExecMode::Serial`.
fn assert_fresh_matches_serial(
    model: &TgnModel,
    graph: &TemporalGraph,
    served: &[ServedBatch],
    label: &str,
) {
    let mut engine =
        InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Serial);
    for b in served.iter().filter(|b| b.epoch > 0) {
        let reference = engine.process_batch(&EventBatch::new(b.events.clone()), graph);
        assert_eq!(
            reference.embeddings, b.embeddings,
            "{label}: fresh embeddings diverged from the serial engine in epoch {}",
            b.epoch
        );
    }
}

/// Submits one lap of `base` (timestamps shifted by `lap`) **without ever
/// polling**: the stages and results queue back up within a few epochs, the
/// ingress queue fills, and every later submission exercises the ServeStale
/// decision — deterministically, regardless of how fast the pipeline drains
/// relative to the submitting thread.
#[allow(clippy::type_complexity)]
fn burst_lap(
    server: &mut StreamServer,
    base: &[InteractionEvent],
    lap: u64,
    span: f64,
) -> (
    Vec<InteractionEvent>,
    Vec<InteractionEvent>,
    Vec<InteractionEvent>,
) {
    let mut admitted = Vec::new();
    let mut stale = Vec::new();
    let mut dropped = Vec::new();
    for &e in base {
        let mut e = e;
        e.timestamp += lap as f64 * span;
        match server.submit_for(TenantId::DEFAULT, e).unwrap() {
            SubmitOutcome::Admitted => admitted.push(e),
            SubmitOutcome::ServedStale => stale.push(e),
            SubmitOutcome::Dropped => dropped.push(e),
        }
    }
    (admitted, stale, dropped)
}

#[test]
fn stale_answers_are_bit_identical_to_served_history_under_overload() {
    for seed in [3u64, 23] {
        let (model, graph) = setup(seed);
        let base = &graph.events()[..200.min(graph.num_events())];
        let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
        for num_shards in [1usize, 3] {
            let label = format!("seed={seed} shards={num_shards}");
            // Bound 32 > the ~25 epochs one lap seals, so everything the
            // warm lap serves is still fresh during the burst.
            let config = overload_config(32, num_shards);
            let mut server = StreamServer::new(model.clone(), graph.clone(), config);

            // Warm lap: every event eventually admitted, populating the
            // cache with every vertex the feed touches.
            let mut served = Vec::new();
            let mut out = Outcomes::default();
            warm_lap(&mut server, base, 0, span, &mut out, &mut served);
            let warm_submissions = out.total();
            // Burst lap: no polling, so the pipeline backs up and the
            // ingress queue is full for most of the lap — ≥ 2× the load
            // the run can drain.
            let (admitted2, stale2, dropped2) = burst_lap(&mut server, base, 1, span);
            let burst_dropped = dropped2.len();
            out.admitted.extend(admitted2);
            out.stale.extend(stale2);
            out.dropped.extend(dropped2);
            server.drain();
            while let Some(b) = server.poll() {
                served.push(b);
            }

            // Client-side and report-side accounting must agree, and
            // every submission lands in exactly one bucket.
            assert_eq!(out.total(), warm_submissions + base.len(), "{label}");
            let report = server.report();
            let t = &report.tenants[0];
            assert_eq!(t.counters.admitted as usize, out.admitted.len(), "{label}");
            assert_eq!(t.served_stale as usize, out.stale.len(), "{label}");
            assert_eq!(t.dropped() as usize, out.dropped.len(), "{label}");
            assert_eq!(
                t.served as usize,
                out.admitted.len() + out.stale.len(),
                "{label}: served must count pipeline results plus stale answers"
            );
            common::assert_conserved(&server.metrics());

            // The run must actually exercise the degraded mode — a
            // vacuous pass here would hide a dead cache.
            assert!(
                !out.stale.is_empty(),
                "{label}: overload never produced a stale serve"
            );

            // Pipeline deliveries are exactly the admitted events; stale
            // answers are exactly the ServedStale events; the two never
            // overlap in delivery.
            let pipeline_events = multiset(
                served
                    .iter()
                    .filter(|b| b.epoch > 0)
                    .flat_map(|b| b.events.iter()),
            );
            assert_eq!(pipeline_events, multiset(out.admitted.iter()), "{label}");
            let stale_events = multiset(
                served
                    .iter()
                    .filter(|b| b.epoch == 0)
                    .flat_map(|b| b.events.iter()),
            );
            assert_eq!(stale_events, multiset(out.stale.iter()), "{label}");

            // Bit-identity + bound on every stale entry.
            let checked = verify_stale_batches(&served, 32, &label);
            assert!(checked > 0, "{label}: no stale embeddings verified");

            // The report's cache slice agrees.
            let cache = report
                .cache
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: ServeStale run must report cache stats"));
            assert_eq!(cache.staleness_bound, 32, "{label}");
            assert_eq!(cache.stale_age.count as usize, out.stale.len(), "{label}");
            assert!(cache.stale_age.max <= 32, "{label}");
            assert!(cache.hits >= out.stale.len() as u64, "{label}");
            assert!(cache.hit_rate() > 0.0, "{label}");

            assert_fresh_matches_serial(&model, &graph, &served, &label);

            // Served quality: on the identical feed DropNewest sheds
            // strictly more, because every cache hit above is an answer
            // it throws away.
            let mut config = overload_config(32, num_shards);
            config.tenants[0] = config.tenants[0]
                .clone()
                .with_policy(OverloadPolicy::DropNewest);
            let mut server = StreamServer::new(model.clone(), graph.clone(), config);
            warm_lap(
                &mut server,
                base,
                0,
                span,
                &mut Outcomes::default(),
                &mut Vec::new(),
            );
            let (_, stale_dn, dropped_dn) = burst_lap(&mut server, base, 1, span);
            server.drain();
            assert!(
                stale_dn.is_empty(),
                "{label}: DropNewest never serves stale"
            );
            assert!(
                burst_dropped < dropped_dn.len(),
                "{label}: ServeStale dropped {burst_dropped} of the burst, DropNewest {}",
                dropped_dn.len()
            );
        }
    }
}

/// The SLO burn-rate gate, live: once an objective fires, a `ServeStale`
/// tenant answers cache hits stale **while its ingress queue still has
/// space** (`preempt_stale` only counts submits that found headroom).  The
/// incident is made of drops, which the test controls: a `DropNewest`
/// background tenant warms the cache, then floods an unpolled pipeline until
/// 10 000 submits were shed — a hundred times the drop objective's 1 % budget,
/// however long the gate's cached verdict takes to refresh.
/// Stale answers count toward the events, batches and embeddings served,
/// but they never ran the pipeline, so they add no sample to the
/// seal→embeddings latency: with more stale answers than pipeline batches,
/// a zero sample per answer would pull the median to zero.
#[test]
fn stale_answers_leave_the_pipeline_latency_alone() {
    let (model, graph) = setup(7);
    let base = &graph.events()[..200.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let mut server = StreamServer::new(model, graph.clone(), overload_config(64, 2));
    let mut served = Vec::new();
    let mut out = Outcomes::default();
    warm_lap(&mut server, base, 0, span, &mut out, &mut served);
    let (_, stale, _) = burst_lap(&mut server, base, 1, span);
    out.stale.extend(stale);
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    let pipeline: Vec<&ServedBatch> = served.iter().filter(|b| b.epoch > 0).collect();
    assert!(
        out.stale.len() > pipeline.len(),
        "the run must answer more events stale ({}) than it serves batches ({})",
        out.stale.len(),
        pipeline.len()
    );
    assert!(pipeline.iter().all(|b| b.latency > Duration::ZERO));
    let report = server.report();
    assert_eq!(report.num_batches, pipeline.len() + out.stale.len());
    assert!(
        report.latency.p50_ms > 0.0,
        "stale answers reached the pipeline latency: {:?}",
        report.latency
    );
    assert_eq!(server.metrics().batch_latency, report.latency);
}

#[test]
fn burn_gate_preempts_stale_serving_while_the_queue_has_space() {
    let (model, graph) = setup(13);
    let base = &graph.events()[..200.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let subject = TenantId(1);
    let mut config = overload_config(32, 2);
    config.tenants = vec![
        TenantSpec::new("background")
            .with_capacity(4)
            .with_policy(OverloadPolicy::DropNewest),
        // Roomy and polled after every submit: this queue never fills, so
        // any stale answer it gets is a pre-emption.
        TenantSpec::new("subject")
            .with_capacity(64)
            .with_policy(OverloadPolicy::ServeStale),
    ];
    config.slo = Some(SloConfig {
        preempt_stale: true,
        // Only the drop objective may fire.
        latency_objective: Duration::from_secs(3600),
        ..SloConfig::default()
    });
    let mut server = StreamServer::new(model.clone(), graph.clone(), config);
    let mut served = Vec::new();

    // Warm (the laps' tenant is `TenantId::DEFAULT`, the background one):
    // every vertex of the feed served once, polled.
    warm_lap(
        &mut server,
        base,
        0,
        span,
        &mut Outcomes::default(),
        &mut served,
    );
    // Incident: unpolled, the bounded pipeline wedges and the rest is shed.
    let (mut lap, mut shed) = (0u64, 0);
    while shed < 10_000 {
        lap += 1;
        shed += burst_lap(&mut server, base, lap, span).2.len();
    }
    // Serve normally again until the gate's next verdict reaches admission.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut admitted = 0u64;
    'serve: loop {
        lap += 1;
        for &e in base {
            let mut e = e;
            e.timestamp += lap as f64 * span;
            let outcome = server.submit_for(subject, e).unwrap();
            while let Some(b) = server.poll() {
                served.push(b);
            }
            match outcome {
                SubmitOutcome::Admitted => admitted += 1,
                SubmitOutcome::ServedStale => break 'serve,
                SubmitOutcome::Dropped => panic!("a queue with space never sheds"),
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a fired drop objective never pre-empted the ServeStale tenant"
        );
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }

    let t = &report.tenants[subject.index()];
    assert_eq!(
        t.counters.preempt_stale, 1,
        "the stale answer found headroom"
    );
    assert_eq!(t.dropped(), 0);
    assert_eq!(t.served_stale, 1);
    assert_eq!(t.served, admitted + 1, "admitted + the stale answer");
    common::assert_conserved(&server.metrics());
    assert!(verify_stale_batches(&served, 32, "burn gate") > 0);
    assert_fresh_matches_serial(&model, &graph, &served, "burn gate");
    assert!(
        !server.metrics().trace.exemplars.is_empty(),
        "the first traced delivery always qualifies as a tail exemplar"
    );
}

#[test]
fn tight_staleness_bound_is_enforced_and_expires_entries() {
    // Bound of 2 epochs: most cache content is expired most of the time, so
    // this run exercises the refuse-at-get path and the epoch-barrier sweep
    // — and still, any stale answer that does get out respects the bound.
    let (model, graph) = setup(7);
    let base = &graph.events()[..200.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let config = overload_config(2, 2);
    let mut server = StreamServer::new(model.clone(), graph.clone(), config);
    // Warm lap (~25 sealed epochs ≫ the 2-epoch bound, so early entries age
    // out and the commit-barrier sweep runs for real), then a burst lap in
    // which almost every cached vertex is already beyond the bound.
    let mut served = Vec::new();
    let mut out = Outcomes::default();
    warm_lap(&mut server, base, 0, span, &mut out, &mut served);
    let (admitted2, stale2, dropped2) = burst_lap(&mut server, base, 1, span);
    out.admitted.extend(admitted2);
    out.stale.extend(stale2);
    out.dropped.extend(dropped2);
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    let report = server.report();
    let cache = report.cache.as_ref().unwrap();
    verify_stale_batches(&served, 2, "bound=2");
    assert!(cache.stale_age.max <= 2, "age beyond the bound escaped");
    // The tight bound must actually bite: entries age out (visible as
    // expiry sweeps or refused gets), and misses shed like DropNewest.
    assert!(
        cache.expired > 0,
        "a 2-epoch bound over a {}-epoch run must expire entries (stats {:?})",
        report.num_batches,
        cache
    );
    assert!(
        !out.dropped.is_empty(),
        "cache misses under overload must shed"
    );
    // served = pipeline + stale still balances.
    let t = &report.tenants[0];
    assert_eq!(t.served_stale as usize, out.stale.len());
    assert_eq!(t.served, t.counters.admitted + t.served_stale);
    common::assert_conserved(&server.metrics());
}

/// Self-cleaning scratch directory (the workspace is dependency-free, so no
/// tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let p = std::env::temp_dir().join(format!("tgnn-cache-{}-{label}", std::process::id()));
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
fn recovery_cold_starts_the_cache_without_violating_the_bound() {
    // First life: a durable ServeStale server crashes on a GNN fault.
    // Second life: recover, then immediately push the recovered server back
    // into overload.  Every stale answer served after recovery must cite an
    // epoch the *second life* delivered (the cache cold-starts at the
    // recovered epoch floor — pre-crash entries are gone, so no answer can
    // be older against the recovered timeline than the bound allows), and
    // must still be bit-identical to that delivery.
    let (model, graph) = setup(11);
    let base = &graph.events()[..160.min(graph.num_events())];
    let td = TempDir::new("recovery");
    // Bound 32 > the ~25 epochs one lap seals: the re-warmed cache stays
    // fresh through the whole burst lap.
    let bound = 32u64;
    let mut config = overload_config(bound, 2);
    // Durable, snapshot-eager, crash at epoch 6.
    config.durability = Some(
        DurabilityConfig::new(td.path())
            .with_snapshot_every(4)
            .with_fsync(FsyncPolicy::Always),
    );
    config.gnn_fault = Some(Arc::new(|epoch| epoch == 6));

    // First life: submit until the crash closes admission.
    let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let mut first_life_stale = 0usize;
    'feed: for lap in 0..2u64 {
        for &e in base {
            let mut e = e;
            e.timestamp += lap as f64 * span;
            match server.submit_for(TenantId::DEFAULT, e) {
                Ok(SubmitOutcome::ServedStale) => first_life_stale += 1,
                Ok(_) => {}
                Err(SubmitError::Closed) => break 'feed,
                Err(other) => panic!("unexpected submit error: {other}"),
            }
            while server.poll().is_some() {}
        }
    }
    let crashed = catch_unwind(AssertUnwindSafe(move || server.drain())).is_err();
    assert!(
        crashed,
        "the injected GNN fault must surface as a drain panic"
    );

    // Second life.
    config.gnn_fault = None;
    let (mut server, report) =
        StreamServer::recover(model.clone(), graph.clone(), config).expect("recover");
    assert_eq!(
        report.served_stale[0] as usize, first_life_stale,
        "recovery must account the first life's stale serves from the WAL"
    );
    let mut served = Vec::new();
    while let Some(b) = server.poll() {
        served.push(b); // re-served epochs — these seed the recovered cache
    }
    // Resume the feed past everything the first life admitted: lap 2 served
    // normally (re-warming the cold cache), lap 3 as an unpolled burst so
    // the recovered server deterministically re-enters overload.
    let mut out = Outcomes::default();
    warm_lap(&mut server, base, 2, span, &mut out, &mut served);
    let (_, stale3, _) = burst_lap(&mut server, base, 3, span);
    let stale = out.stale.len() + stale3.len();
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }

    // Stale answers in the second life verify against second-life history
    // only — verify_stale_batches panics if any answer cites an epoch the
    // recovered server never delivered (i.e. a pre-crash cache survivor).
    let checked = verify_stale_batches(&served, bound, "recovery");
    assert!(
        stale > 0,
        "the recovered server must re-enter degraded mode"
    );
    assert!(checked > 0, "no post-recovery stale embeddings verified");
    let final_report = server.report();
    let cache = final_report.cache.as_ref().unwrap();
    assert!(cache.stale_age.max <= bound);
}
