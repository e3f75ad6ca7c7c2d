//! Backend-equivalence property suite for heterogeneous per-tenant routing:
//! a tenant declared on a compute backend must be served **bit-identically**
//! to the standalone engine running that backend's `ExecMode`
//! (`Batched` for f32, `Quantized` for int8).  The suite also pins the
//! routing contract itself: every result's disposition backend matches its
//! tenant's declared backend, every backend's batches are timed on the U200
//! latency model, per-tenant accounting conserves events under overload,
//! and per-tenant staleness bounds tighten the shared cache's global bound.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::quantized::quantize_model;
use tgnn_core::{
    BackendKind, Disposition, ExecMode, InferenceEngine, ModelConfig, OptimizationVariant,
    OverloadPolicy, TenantId, TgnModel, TimeEncoderKind,
};
use tgnn_data::{generate, tiny};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
use tgnn_quant::QuantConfig;
use tgnn_serve::{
    CacheConfig, ServeConfig, ServeReport, ServedBatch, StreamServer, SubmitOutcome, TenantSpec,
};
use tgnn_tensor::{Float, TensorRng};

mod common;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let mut rng = TensorRng::new(seed ^ 0xbac4e27d);
    let mut model = TgnModel::new(cfg, &mut rng);
    if model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    (model, Arc::new(graph))
}

/// A model with an attached int8 weight set whose **memory path stays f32**
/// (`quantize_gru: false`): heterogeneous servers run the shared memory
/// stage on the detached f32 clone, so the standalone `Quantized` reference
/// engine must walk the identical f32 state trajectory for the per-batch
/// comparison to be bitwise.
fn quantized_setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let (mut model, graph) = setup(seed);
    let calibration = &graph.events()[..400.min(graph.num_events())];
    let q = Arc::new(quantize_model(
        &model,
        &graph,
        &[],
        calibration,
        64,
        QuantConfig {
            quantize_gru: false,
            ..QuantConfig::default()
        },
    ));
    model.attach_quantized(q);
    (model, graph)
}

/// A batch is whatever was pending when the state worker pulled, up to the
/// cap, so the replay comparisons follow the served boundaries.
fn routed_config(tenants: Vec<TenantSpec>, num_shards: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        num_shards,
        tenants,
        ..ServeConfig::default()
    }
}

/// Streams `events` through a server, assigning event *i* to tenant
/// `assign(i)`, polling as a live client would; returns the served batches
/// in poll order plus the drain report.  `check_table` asserts the neighbor
/// table's per-vertex FIFO chronology afterwards — valid for single-tenant
/// feeds, but a multi-tenant heterogeneous feed legitimately violates it:
/// per-backend partition sealing (like the weighted-fair interleave it
/// extends) orders *batches*, not global timestamps, so a vertex shared
/// across tenants can see a cross-epoch regression.
fn serve_routed(
    model: TgnModel,
    graph: &Arc<TemporalGraph>,
    events: &[InteractionEvent],
    assign: impl Fn(usize) -> TenantId,
    config: ServeConfig,
    check_table: bool,
) -> (Vec<ServedBatch>, ServeReport) {
    let mut server = StreamServer::new(model, graph.clone(), config);
    let mut served = Vec::new();
    for (i, &e) in events.iter().enumerate() {
        let outcome = server
            .submit_for(assign(i), e)
            .expect("chronological submit");
        assert_eq!(outcome, SubmitOutcome::Admitted, "Block tenants never shed");
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    if check_table {
        assert!(server.neighbor_table().check_invariants().is_ok());
    }
    (served, report)
}

/// Asserts the routing stamp on every served batch: the batch-level backend,
/// every meta's backend (tenant-resolved), and tenant membership.
fn assert_routing(served: &[ServedBatch], declared: &[BackendKind], label: &str) {
    for b in served {
        for m in &b.metas {
            let expect = declared[m.tenant.index()];
            assert_eq!(
                m.backend,
                expect,
                "{label}: epoch {} result for tenant {} stamped {} but the tenant declared {}",
                b.epoch,
                m.tenant.index(),
                m.backend,
                expect
            );
            assert_eq!(
                m.backend, b.backend,
                "{label}: epoch {} mixes backends inside one sealed batch",
                b.epoch
            );
        }
    }
}

/// Replays the served batch sequence through a standalone engine in epoch
/// order and bit-compares the embeddings of every batch the predicate
/// selects.  The engine replays **every** batch (selected or not) so its
/// memory trajectory stays in lockstep with the server's shared state.
fn assert_matches_engine(
    mut engine: InferenceEngine,
    graph: &TemporalGraph,
    served: &[ServedBatch],
    select: impl Fn(&ServedBatch) -> bool,
    label: &str,
) -> usize {
    let mut compared = 0;
    for batch in served.iter().filter(|b| b.epoch > 0) {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), graph);
        if !select(batch) {
            continue;
        }
        assert_eq!(
            reference.embeddings, batch.embeddings,
            "{label}: embeddings diverged bitwise in epoch {}",
            batch.epoch
        );
        compared += 1;
    }
    compared
}

/// The f32 backend row of a report, with basic shape checks.
fn backend_row<'a>(
    report: &'a ServeReport,
    kind: BackendKind,
    label: &str,
) -> &'a tgnn_serve::BackendStats {
    report
        .backends
        .iter()
        .find(|b| b.kind == kind)
        .unwrap_or_else(|| panic!("{label}: report has no {kind} backend row"))
}

#[test]
fn f32_routed_tenant_is_bit_identical_to_batched_engine() {
    for seed in [3u64, 11] {
        let (model, graph) = setup(seed);
        let events = &graph.events()[..200.min(graph.num_events())];
        for num_shards in [1usize, 4] {
            let label = format!("f32 seed={seed} shards={num_shards}");
            let tenants = vec![TenantSpec::new("f32").with_backend(BackendKind::F32)];
            let (served, report) = serve_routed(
                model.clone(),
                &graph,
                events,
                |_| TenantId::DEFAULT,
                routed_config(tenants, num_shards),
                true,
            );
            let total: usize = served.iter().map(|b| b.events.len()).sum();
            assert_eq!(total, events.len(), "{label}: events lost or duplicated");
            assert!(report.commit_log_clean, "{label}");
            assert_routing(&served, &[BackendKind::F32], &label);
            assert_eq!(report.tenants[0].backend, BackendKind::F32, "{label}");
            let row = backend_row(&report, BackendKind::F32, &label);
            assert_eq!(report.backends.len(), 1, "{label}: one active backend");
            assert_eq!(row.served_events as usize, events.len(), "{label}");
            assert_eq!(row.served_batches as usize, served.len(), "{label}");
            assert!(
                row.modeled_latency.is_some(),
                "{label}: every batch is timed"
            );
            let engine =
                InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
            let compared = assert_matches_engine(engine, &graph, &served, |_| true, &label);
            assert_eq!(compared, served.len(), "{label}: batches skipped");
        }
    }
}

#[test]
fn int8_routed_tenant_is_bit_identical_to_quantized_engine() {
    for seed in [3u64, 11] {
        let (model, graph) = quantized_setup(seed);
        let events = &graph.events()[..200.min(graph.num_events())];
        for num_shards in [1usize, 4] {
            let label = format!("int8 seed={seed} shards={num_shards}");
            let tenants = vec![TenantSpec::new("int8").with_backend(BackendKind::Int8)];
            let (served, report) = serve_routed(
                model.clone(),
                &graph,
                events,
                |_| TenantId::DEFAULT,
                routed_config(tenants, num_shards),
                true,
            );
            let total: usize = served.iter().map(|b| b.events.len()).sum();
            assert_eq!(total, events.len(), "{label}: events lost or duplicated");
            assert_routing(&served, &[BackendKind::Int8], &label);
            assert_eq!(report.tenants[0].backend, BackendKind::Int8, "{label}");
            let row = backend_row(&report, BackendKind::Int8, &label);
            assert_eq!(report.backends.len(), 1, "{label}: one active backend");
            assert_eq!(row.served_events as usize, events.len(), "{label}");
            assert!(
                row.modeled_latency.is_some(),
                "{label}: every batch is timed"
            );
            let engine = InferenceEngine::new(model.clone(), graph.num_nodes())
                .with_mode(ExecMode::Quantized);
            let compared = assert_matches_engine(engine, &graph, &served, |_| true, &label);
            assert_eq!(compared, served.len(), "{label}: batches skipped");
        }
    }
}

/// The heterogeneous flagship: two tenants declared on the two backends
/// share one feed (event *i* → tenant *i* mod 2) and one temporal
/// state, and **each** tenant's batches must be bit-identical to the
/// standalone engine of its backend replaying the server's exact batch
/// sequence.  Both reference engines replay *every* batch — the shared f32
/// memory trajectory advances identically in both (the int8 weight set
/// leaves the GRU in f32) — and the comparison selects per batch which
/// engine is authoritative.  `commit_log_clean` is deliberately *not*
/// asserted: per-backend partition sealing orders batches by backend code
/// within an admission round, so cross-batch timestamp regressions between
/// tenants are expected (exactly as with weighted-fair multi-tenant
/// interleave).
#[test]
fn mixed_backend_tenants_match_their_per_backend_engine_replays() {
    let declared = [BackendKind::F32, BackendKind::Int8];
    for seed in [5u64, 19] {
        let (model, graph) = quantized_setup(seed);
        let events = &graph.events()[..240.min(graph.num_events())];
        for num_shards in [1usize, 3] {
            let label = format!("mixed seed={seed} shards={num_shards}");
            let tenants = vec![
                TenantSpec::new("prod-f32").with_backend(BackendKind::F32),
                TenantSpec::new("batch-int8").with_backend(BackendKind::Int8),
            ];
            let (served, report) = serve_routed(
                model.clone(),
                &graph,
                events,
                |i| TenantId(i as u32 % 2),
                routed_config(tenants, num_shards),
                false,
            );
            let total: usize = served.iter().map(|b| b.events.len()).sum();
            assert_eq!(total, events.len(), "{label}: events lost or duplicated");
            assert!(
                served.windows(2).all(|w| w[0].epoch < w[1].epoch),
                "{label}: epochs out of order"
            );
            assert_routing(&served, &declared, &label);

            // Per-tenant engine replays.
            let mut f32_model = model.clone();
            f32_model.detach_quantized();
            let f32_engine =
                InferenceEngine::new(f32_model, graph.num_nodes()).with_mode(ExecMode::Batched);
            let f32_compared = assert_matches_engine(
                f32_engine,
                &graph,
                &served,
                |b| b.backend != BackendKind::Int8,
                &label,
            );
            let int8_engine = InferenceEngine::new(model.clone(), graph.num_nodes())
                .with_mode(ExecMode::Quantized);
            let int8_compared = assert_matches_engine(
                int8_engine,
                &graph,
                &served,
                |b| b.backend == BackendKind::Int8,
                &label,
            );
            assert_eq!(f32_compared + int8_compared, served.len(), "{label}");
            assert!(int8_compared > 0, "{label}: int8 tenant never served");

            // Report: two active backends, both exercised, and each row
            // carries the modelled latency of its batches.
            assert_eq!(report.backends.len(), 2, "{label}");
            let mut events_by_backend = 0usize;
            for &kind in &declared {
                let row = backend_row(&report, kind, &label);
                assert!(
                    row.served_batches > 0 && row.served_events > 0,
                    "{label}: declared backend {kind} never served"
                );
                assert!(
                    row.modeled_latency.is_some(),
                    "{label}: {kind} batches were not timed"
                );
                events_by_backend += row.served_events as usize;
            }
            assert_eq!(events_by_backend, events.len(), "{label}");
            for (i, &kind) in declared.iter().enumerate() {
                assert_eq!(report.tenants[i].backend, kind, "{label}");
                assert_eq!(
                    report.tenants[i].served as usize,
                    events.len() / 2 + usize::from(i < events.len() % 2),
                    "{label}: tenant {i} served count"
                );
            }
        }
    }
}

/// Routing conservation under real overload: three drop-policy tenants on
/// both backends, tiny queue bounds, submission bursts that outrun the
/// drain.  Per tenant, `submitted == served + dropped()` must balance
/// (stale answers count as served), and every delivered result — pipeline
/// or cache — must still carry its tenant's declared backend.
#[test]
fn overloaded_heterogeneous_routing_conserves_events_per_tenant() {
    let declared = [BackendKind::F32, BackendKind::Int8, BackendKind::F32];
    let (model, graph) = quantized_setup(13);
    let base = &graph.events()[..240.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let config = ServeConfig {
        max_batch: 8,
        stage_capacity: 1,
        results_capacity: 2,
        num_shards: 2,
        cache: Some(CacheConfig {
            capacity: 1024,
            staleness_bound_epochs: 64,
        }),
        tenants: vec![
            TenantSpec::new("f32-dropnew")
                .with_backend(BackendKind::F32)
                .with_capacity(4)
                .with_policy(OverloadPolicy::DropNewest),
            TenantSpec::new("int8-dropold")
                .with_backend(BackendKind::Int8)
                .with_capacity(4)
                .with_policy(OverloadPolicy::DropOldest),
            TenantSpec::new("f32-stale")
                .with_backend(BackendKind::F32)
                .with_capacity(4)
                .with_policy(OverloadPolicy::ServeStale),
        ],
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let mut served = Vec::new();
    // Lap 0 polls (populating pipeline history and the cache); lap 1 never
    // polls, so the stages back up and every policy path executes.
    for lap in 0..2u64 {
        for (i, &e) in base.iter().enumerate() {
            let mut e = e;
            e.timestamp += lap as f64 * span;
            server
                .submit_for(TenantId(i as u32 % 3), e)
                .expect("drop-policy submits never error");
            if lap == 0 {
                while let Some(b) = server.poll() {
                    served.push(b);
                }
            }
        }
    }
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }

    assert_routing(&served, &declared, "overload");
    common::assert_conserved(&server.metrics());
    let report = server.report();
    let mut dropped_total = 0;
    for (i, t) in report.tenants.iter().enumerate() {
        assert_eq!(t.backend, declared[i], "tenant {i} backend");
        // `admitted` counts events that *entered* the queue — DropOldest
        // evicts already-admitted events, so the decomposition only holds
        // for policies that never evict.
        if t.policy != OverloadPolicy::DropOldest {
            assert_eq!(
                t.served,
                t.counters.admitted + t.served_stale,
                "tenant {i} served must be pipeline results plus stale answers"
            );
        }
        dropped_total += t.dropped();
    }
    assert!(
        dropped_total > 0,
        "the burst lap must actually shed load, or this test is vacuous"
    );
    // Delivered events per tenant match the report's accounting.
    let mut delivered = [0u64; 3];
    for b in &served {
        for m in &b.metas {
            delivered[m.tenant.index()] += 1;
        }
    }
    for (i, t) in report.tenants.iter().enumerate() {
        assert_eq!(delivered[i], t.served, "tenant {i} delivery count");
    }
}

/// Per-tenant staleness bounds over one shared cache: the tight tenant's
/// stale answers never age past its own bound even though the cache keeps
/// (and serves the loose tenant) entries up to the global bound.
#[test]
fn per_tenant_staleness_bounds_tighten_the_shared_cache() {
    let global_bound = 32u64;
    let tight_bound = 2u64;
    let (model, graph) = setup(23);
    let base = &graph.events()[..200.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let config = ServeConfig {
        max_batch: 8,
        stage_capacity: 1,
        results_capacity: 2,
        num_shards: 2,
        cache: Some(CacheConfig {
            capacity: 1024,
            staleness_bound_epochs: global_bound,
        }),
        tenants: vec![
            TenantSpec::new("tight")
                .with_capacity(4)
                .with_policy(OverloadPolicy::ServeStale)
                .with_staleness_bound(tight_bound),
            TenantSpec::new("loose")
                .with_capacity(4)
                .with_policy(OverloadPolicy::ServeStale),
        ],
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let mut served = Vec::new();
    // Warm lap: retry every event until it is *admitted* (polling between
    // tries), so the pipeline serves the whole feed and the cache covers
    // every vertex across ~25 sealed epochs — most entries age beyond the
    // tight bound but stay inside the global one.
    for (i, &e) in base.iter().enumerate() {
        let mut tries = 0;
        while server.submit_for(TenantId(i as u32 % 2), e).unwrap() != SubmitOutcome::Admitted {
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
    // Burst lap: no polling, so the stages back up and later submissions
    // deterministically exercise each tenant's stale path.
    for (i, &e) in base.iter().enumerate() {
        let mut e = e;
        e.timestamp += span;
        server.submit_for(TenantId(i as u32 % 2), e).unwrap();
    }
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }

    // Served history: epoch → vertex → embedding, for stale bit-identity.
    let mut history: HashMap<u64, HashMap<u32, &[Float]>> = HashMap::new();
    for b in served.iter().filter(|b| b.epoch > 0) {
        let entry = history.entry(b.epoch).or_default();
        for (v, emb) in &b.embeddings {
            entry.insert(*v, emb.as_slice());
        }
    }
    let bounds = [tight_bound, global_bound];
    let mut max_age = [0u64; 2];
    let mut stale_counts = [0usize; 2];
    for b in served.iter().filter(|b| b.epoch == 0) {
        assert_eq!(b.events.len(), 1, "stale batches answer one event");
        let tenant = b.metas[0].tenant.index();
        let age = match b.metas[0].disposition {
            Disposition::Stale { age_epochs } => age_epochs,
            other => panic!("stale batch carries disposition {other:?}"),
        };
        assert!(
            age <= bounds[tenant],
            "tenant {tenant} got a stale answer aged {age} epochs past its bound {}",
            bounds[tenant]
        );
        max_age[tenant] = max_age[tenant].max(age);
        stale_counts[tenant] += 1;
        for ((v, emb), &epoch) in b.embeddings.iter().zip(&b.cache_epochs) {
            let original = history
                .get(&epoch)
                .and_then(|m| m.get(v))
                .unwrap_or_else(|| panic!("stale answer cites unserved epoch {epoch}"));
            assert_eq!(*original, emb.as_slice(), "stale embedding diverged");
        }
    }
    assert!(
        stale_counts[1] > 0,
        "the loose tenant never exercised the stale path"
    );
    // The bounds must actually differ in effect: the loose tenant (global
    // bound) serves ages the tight tenant's own bound forbids — over a
    // ~25-epoch warm history, some of its hits are bound to be older.
    assert!(
        max_age[1] > tight_bound,
        "loose tenant max stale age {} never exceeded the tight bound {tight_bound} — \
         the per-tenant override was not observable",
        max_age[1]
    );
    let report = server.report();
    let cache = report.cache.as_ref().expect("ServeStale run reports cache");
    assert_eq!(cache.staleness_bound, global_bound);
    assert!(cache.stale_age.max <= global_bound);
}
