//! Adversarial tests of the multi-tenant admission layer: weighted-fair
//! scheduling under sustained overload, overload-policy behaviour at tiny
//! queue bounds, drain semantics with in-flight drops, and the disposition
//! metadata contract (a deadline's `Late` disposition flags, never alters,
//! results).
//!
//! The style follows the PR-3 concurrency suite: tiny bounds everywhere so
//! submission immediately outruns the pipeline and every run executes under
//! the conditions the policies exist for.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tgnn_core::{
    Disposition, ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, OverloadPolicy,
    TenantId, TgnModel,
};
use tgnn_data::{generate, tiny};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
use tgnn_serve::{ServeConfig, ServedBatch, StreamServer, SubmitError, TenantSpec};
use tgnn_tensor::TensorRng;

mod common;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let model = TgnModel::new(cfg, &mut TensorRng::new(seed ^ 0xad3));
    (model, Arc::new(graph))
}

/// Stable identity of an event for accounting across submit and serve.
fn key(e: &InteractionEvent) -> (u32, u32, u32, u64) {
    (e.src, e.dst, e.edge_id, e.timestamp.to_bits())
}

/// Submits `events` round-robin across the server's `n` tenants as fast as
/// possible, polling opportunistically, then drains.  Returns the served
/// batches and the report, plus the per-event tenant assignment and which
/// events were admitted vs dropped at submit time.
#[allow(clippy::type_complexity)]
fn run_multi_tenant(
    model: TgnModel,
    graph: &Arc<TemporalGraph>,
    events: &[InteractionEvent],
    config: ServeConfig,
    n: u32,
) -> (
    Vec<ServedBatch>,
    tgnn_serve::ServeReport,
    HashMap<(u32, u32, u32, u64), TenantId>,
    Vec<InteractionEvent>,
    Vec<InteractionEvent>,
) {
    let mut server = StreamServer::new(model, graph.clone(), config);
    let mut assignment = HashMap::new();
    let mut admitted = Vec::new();
    let mut dropped = Vec::new();
    let mut served = Vec::new();
    for (i, &e) in events.iter().enumerate() {
        let tenant = TenantId(i as u32 % n);
        assignment.insert(key(&e), tenant);
        let outcome = server
            .submit_for(tenant, e)
            .unwrap_or_else(|err| panic!("submit_for({tenant}) failed: {err}"));
        if outcome.is_admitted() {
            admitted.push(e);
        } else {
            dropped.push(e);
        }
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    common::assert_conserved(&server.metrics());
    (served, report, assignment, admitted, dropped)
}

/// Bitwise replay: the serial engine, fed exactly the scheduler's merged
/// micro-batch sequence, must reproduce every served embedding — what was
/// shed at admission never entered the semantics.
fn assert_matches_serial(
    model: TgnModel,
    graph: &TemporalGraph,
    served: &[ServedBatch],
    label: &str,
) {
    let mut engine = InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Serial);
    for batch in served {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), graph);
        assert_eq!(
            reference.embeddings, batch.embeddings,
            "{label}: multi-tenant pipeline diverged bitwise from the serial engine in epoch {}",
            batch.epoch
        );
    }
}

/// Sorted multiset of event identities.
fn multiset(events: impl Iterator<Item = InteractionEvent>) -> Vec<(u32, u32, u32, u64)> {
    let mut v: Vec<_> = events.map(|e| key(&e)).collect();
    v.sort_unstable();
    v
}

#[test]
fn drop_policies_never_drop_admitted_events() {
    // The no-loss property of the drop policies: every event is either
    // admitted (and then served exactly once, even those still queued at
    // drain time) or dropped at submit (and never served) — across
    // policies and seeds, with tiny bounds so drops and backpressure
    // actually happen.
    for seed in [3u64, 23] {
        let (model, graph) = setup(seed);
        let events = &graph.events()[..220.min(graph.num_events())];
        for policy in [OverloadPolicy::DropNewest, OverloadPolicy::DropOldest] {
            let label = format!("seed={seed} policy={}", policy.label());
            let tenants: Vec<TenantSpec> = (0..3)
                .map(|i| {
                    TenantSpec::new(format!("t{i}"))
                        .with_weight(1 + i as u32)
                        .with_capacity(4)
                        .with_policy(policy)
                })
                .collect();
            let config = ServeConfig {
                max_batch: 5,
                stage_capacity: 1,
                results_capacity: 2,
                num_shards: 2,
                tenants,
                ..ServeConfig::default()
            };
            let (served, report, assignment, admitted, dropped) =
                run_multi_tenant(model.clone(), &graph, events, config, 3);

            // Exactly-once accounting.  The two policies differ in
            // *where* the loss is visible: DropNewest rejects at submit
            // (outcome `Dropped`, admitted events untouchable), while
            // DropOldest always admits the incoming event but may evict
            // an earlier admitted-but-not-yet-scheduled one (visible
            // only in the report's eviction counter).  In both cases an
            // event the scheduler has sealed into a batch is never lost.
            assert_eq!(admitted.len() + dropped.len(), events.len(), "{label}");
            let served_events = multiset(served.iter().flat_map(|b| b.events.iter().copied()));
            let admitted_keys = multiset(admitted.iter().copied());
            let total_evicted: u64 = report
                .tenants
                .iter()
                .map(|t| t.counters.dropped_oldest)
                .sum();
            match policy {
                OverloadPolicy::DropNewest => {
                    assert_eq!(
                        served_events, admitted_keys,
                        "{label}: every admitted event is served exactly once"
                    );
                    assert_eq!(total_evicted, 0, "{label}");
                }
                OverloadPolicy::DropOldest => {
                    assert!(dropped.is_empty(), "{label}: DropOldest always admits");
                    assert!(
                        served_events
                            .iter()
                            .all(|k| admitted_keys.binary_search(k).is_ok()),
                        "{label}: served events must all have been admitted"
                    );
                    assert_eq!(
                        served_events.len() + total_evicted as usize,
                        admitted_keys.len(),
                        "{label}: admitted = served + evicted, nothing else"
                    );
                }
                _ => unreachable!(),
            }
            for k in multiset(dropped.iter().copied()).iter() {
                assert!(
                    served_events.binary_search(k).is_err(),
                    "{label}: a dropped event was served"
                );
            }

            // Report-side accounting agrees with the client's view.
            let total_dropped: u64 = report.tenants.iter().map(|t| t.dropped()).sum();
            let total_served: u64 = report.tenants.iter().map(|t| t.served).sum();
            assert_eq!(
                total_dropped as usize,
                dropped.len() + total_evicted as usize,
                "{label}"
            );
            assert_eq!(total_served as usize, served_events.len(), "{label}");
            for t in &report.tenants {
                assert!(
                    t.counters.max_depth <= 4,
                    "{label}: ingress depth {} exceeded the bound",
                    t.counters.max_depth
                );
                match policy {
                    OverloadPolicy::DropNewest => {
                        assert_eq!(t.counters.dropped_oldest, 0, "{label}")
                    }
                    OverloadPolicy::DropOldest => {
                        assert_eq!(t.counters.dropped_newest, 0, "{label}")
                    }
                    _ => unreachable!(),
                }
            }
            assert!(
                total_dropped > 0,
                "{label}: overload at capacity 4 must cause drops"
            );

            assert_matches_serial(model.clone(), &graph, &served, &label);

            // Tenant attribution on every result matches the submitter.
            for b in &served {
                assert_eq!(b.metas.len(), b.events.len(), "{label}");
                for (e, m) in b.events.iter().zip(&b.metas) {
                    assert_eq!(assignment[&key(e)], m.tenant, "{label}");
                    assert_eq!(m.disposition, Disposition::OnTime, "{label}");
                }
            }
        }
    }
}

/// Four DropNewest tenants with skewed `weights`, all offered the same load
/// (round-robin from one feed, 40 laps of 200 events `pace` apart, and on
/// until at least `min_served` events were delivered).  Asserts that the run
/// was heavily overloaded, that every tenant shed load and that the heaviest
/// tenant out-served the lightest; returns each tenant's `(served, fair)` —
/// its whole-run service and its weight/Σweights cut of the total.
fn overloaded_shares(
    weights: [u32; 4],
    ingress_capacity: Option<usize>,
    config: ServeConfig,
    pace: Duration,
    min_served: u64,
) -> Vec<(f64, f64)> {
    let (model, graph) = setup(11);
    let tenants: Vec<TenantSpec> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let spec = TenantSpec::new(format!("t{i}"))
                .with_weight(w)
                .with_policy(OverloadPolicy::DropNewest);
            match ingress_capacity {
                Some(n) => spec.with_capacity(n),
                None => spec,
            }
        })
        .collect();
    let config = ServeConfig { tenants, ..config };
    let mut server = StreamServer::new(model, graph.clone(), config);
    // Recycle the event feed with strictly advancing timestamps so the
    // overload phase lasts long enough for many scheduler rounds.
    let base = &graph.events()[..200.min(graph.num_events())];
    let span = 1.0 + base.last().unwrap().timestamp - base[0].timestamp;
    let mut submitted = 0u64;
    let mut dropped = 0u64;
    let mut polled = 0u64;
    let mut lap = 0u64;
    while lap < 40 || polled < min_served {
        for (i, &e) in base.iter().enumerate() {
            let mut e = e;
            e.timestamp += lap as f64 * span;
            let tenant = TenantId(i as u32 % 4);
            if !server.submit_for(tenant, e).unwrap().is_admitted() {
                dropped += 1;
            }
            submitted += 1;
            while let Some(b) = server.poll() {
                polled += b.events.len() as u64;
            }
        }
        // Yield the core so the state and GNN workers interleave with
        // submission — sustained overload, not a burst-then-drain.
        std::thread::sleep(pace);
        lap += 1;
    }
    let report = server.drain();
    while server.poll().is_some() {}
    common::assert_conserved(&server.metrics());

    assert!(
        dropped > submitted / 10,
        "the run must be heavily overloaded (dropped {dropped} of {submitted})"
    );
    for (i, t) in report.tenants.iter().enumerate() {
        assert!(t.drop_rate() > 0.0, "tenant {i} must shed load");
    }
    // The heaviest tenant must clearly out-serve the lightest.
    assert!(
        report.tenants[0].served > report.tenants[3].served,
        "weight-{} tenant ({}) must out-serve weight-{} tenant ({})",
        weights[0],
        report.tenants[0].served,
        weights[3],
        report.tenants[3].served
    );
    let total_served: u64 = report.tenants.iter().map(|t| t.served).sum();
    let total_weight: u32 = weights.iter().sum();
    report
        .tenants
        .iter()
        .zip(weights)
        .map(|(t, w)| {
            let fair = total_served as f64 * w as f64 / total_weight as f64;
            (t.served as f64, fair)
        })
        .collect()
}

#[test]
fn weighted_fair_draining_bounds_every_tenants_share_under_overload() {
    // Four tenants with skewed weights 4:2:1:1 all offered the same load
    // (round-robin from one feed), tiny ingress AND downstream bounds so
    // the pipeline's slowness backs up into the tenant queues, and
    // DropNewest so the excess is shed rather than throttled.  Submission
    // is paced just enough for the state and GNN workers to run
    // concurrently (this is a 1-vCPU-friendly rendition of sustained
    // overload): every tenant stays backlogged, so its *service* share must
    // track weight/Σweights.  The bound asserted is the acceptance
    // criterion: every tenant — including the 1-weight one — within 2× of
    // its fair share either way.
    let tiny_bounds = ServeConfig {
        max_batch: 8,
        stage_capacity: 1,
        results_capacity: 2,
        num_shards: 2,
        ..ServeConfig::default()
    };
    let pace = Duration::from_micros(500);
    let shares = overloaded_shares([4, 2, 1, 1], Some(8), tiny_bounds, pace, 0);
    for (i, &(served, fair)) in shares.iter().enumerate() {
        assert!(
            served >= fair / 2.0 && served <= fair * 2.0,
            "tenant {i}: served {served} vs fair share {fair:.1} — outside 2× ({shares:?})"
        );
    }

    // Nothing hand-sized: default queues everywhere, weights 8:4:2:1, and a
    // submitter that never yields.  The state worker pulls straight from
    // the tenant queues, so service must come out as 53/27/13/7 % within
    // ±5 points — over the whole run, the arrival-order start and the
    // equal-depth drain tail (≤ 1024 events per tenant) included, hence the
    // long run.  A backlog on every host needs a pipeline slower than any
    // submitter: the hook never fires, it holds each GNN job for 2 ms
    // (≤ 100 k events/s; the default pipeline otherwise keeps up with this
    // loop in a release build).
    let config = ServeConfig {
        gnn_fault: Some(Arc::new(|_| {
            std::thread::sleep(Duration::from_millis(2));
            false
        })),
        ..ServeConfig::default()
    };
    let shares = overloaded_shares([8, 4, 2, 1], None, config, Duration::ZERO, 100_000);
    let total: f64 = shares.iter().map(|s| s.0).sum();
    for (i, &(served, fair)) in shares.iter().enumerate() {
        let off = 100.0 * (served - fair) / total;
        assert!(
            off.abs() <= 5.0,
            "tenant {i}: {off:+.1} points off its fair share ({shares:?})"
        );
    }
}

#[test]
fn deadline_flags_misses_without_altering_results() {
    // Two runs of a `Block` tenant differing only in the deadline:
    // an unmissable one (1 hour) and an unmeetable one (zero).  Batch
    // boundaries are a function of load (the state worker takes whatever is
    // pending when it pulls), so two live servers need not cut the stream
    // alike; what the disposition must not do is change *values*.  So each
    // run is graded against the serial engine on the boundaries it actually
    // served, and the runs are compared on what the deadline does decide —
    // the per-event disposition.
    let (model, graph) = setup(7);
    let events = &graph.events()[..160.min(graph.num_events())];
    let run = |deadline: Duration| -> Vec<ServedBatch> {
        let config = ServeConfig {
            max_batch: 13,
            num_shards: 2,
            tenants: vec![TenantSpec::new("late-tenant")
                .with_capacity(64)
                .with_deadline(deadline)],
            ..ServeConfig::default()
        };
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        let mut served = Vec::new();
        for &e in events {
            server.submit_for(TenantId::DEFAULT, e).unwrap();
            while let Some(b) = server.poll() {
                served.push(b);
            }
        }
        server.drain();
        while let Some(b) = server.poll() {
            served.push(b);
        }
        served
    };
    for (deadline, want, label) in [
        (Duration::from_secs(3600), Disposition::OnTime, "on-time"),
        (Duration::ZERO, Disposition::Late, "late"),
    ] {
        let served = run(deadline);
        let stream: Vec<InteractionEvent> = served.iter().flat_map(|b| b.events.clone()).collect();
        assert_eq!(stream, events, "{label}: every event served once, in order");
        assert!(
            served.iter().all(|b| b.events.len() <= 13),
            "{label}: max_batch is the cap"
        );
        assert_matches_serial(model.clone(), &graph, &served, label);
        for m in served.iter().flat_map(|b| &b.metas) {
            assert_eq!(m.disposition, want, "{label}");
        }
    }
}

#[test]
fn multi_tenant_block_policy_serves_everything_bit_identically() {
    // Block policy on every tenant: nothing may be dropped even with tiny
    // bounds (pure backpressure), and replaying the served micro-batch
    // sequence through the serial engine must reproduce the embeddings
    // bitwise — the weighted-fair merge reorders *scheduling*, never
    // *semantics*.
    let (model, graph) = setup(19);
    let events = &graph.events()[..200.min(graph.num_events())];
    let tenants: Vec<TenantSpec> = (0..2)
        .map(|i| {
            TenantSpec::new(format!("t{i}"))
                .with_weight(1 + i as u32 * 3)
                .with_capacity(4)
                .with_policy(OverloadPolicy::Block)
        })
        .collect();
    let config = ServeConfig {
        max_batch: 7,
        stage_capacity: 1,
        results_capacity: 2,
        num_shards: 3,
        tenants,
        ..ServeConfig::default()
    };
    let (served, report, _, admitted, dropped) =
        run_multi_tenant(model.clone(), &graph, events, config, 2);
    assert!(dropped.is_empty(), "Block must never drop");
    assert_eq!(admitted.len(), events.len());
    let total: usize = served.iter().map(|b| b.events.len()).sum();
    assert_eq!(total, events.len(), "everything submitted is served");
    assert!(
        report.backpressure_blocks > 0,
        "tiny bounds must produce client-visible backpressure"
    );

    assert_matches_serial(model, &graph, &served, "block");
}

#[test]
fn unknown_tenant_and_drained_server_are_rejected() {
    let (model, graph) = setup(2);
    let config = ServeConfig {
        tenants: vec![TenantSpec::new("a"), TenantSpec::new("b")],
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let e = graph.events()[0];
    assert!(matches!(
        server.submit_for(TenantId(2), e),
        Err(SubmitError::UnknownTenant(TenantId(2)))
    ));
    server.submit_for(TenantId(1), e).unwrap();
    // Per-tenant chronology: tenant 1 cannot go backwards, tenant 0 can
    // still start anywhere.
    let mut old = e;
    old.timestamp = e.timestamp - 1.0;
    assert!(matches!(
        server.submit_for(TenantId(1), old),
        Err(SubmitError::OutOfOrder { .. })
    ));
    server.submit_for(TenantId(0), old).unwrap();
    let report = server.drain();
    assert_eq!(report.num_events, 2);
    assert!(matches!(
        server.submit_for(TenantId(0), e),
        Err(SubmitError::Closed)
    ));
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.tenants[0].name, "a");
    assert_eq!(report.tenants[1].served, 1);
}

/// Tenants are ordered independently, so it is the memory write-back that
/// sees one tenant commit a vertex earlier than another tenant already did.
/// Lockstep (every batch one event): tenant `b` committing vertex 0 at
/// t = 5 after tenant `a` committed it at t = 10 is one backwards commit,
/// and the report says so; the same session on disjoint vertices is clean.
#[test]
fn a_tenant_committing_a_vertex_behind_another_tenant_is_reported() {
    let (model, graph) = setup(7);
    let session = |b_vertex: u32| {
        let config = ServeConfig {
            tenants: vec![TenantSpec::new("a"), TenantSpec::new("b")],
            ..ServeConfig::default()
        };
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        // A vertex commits once it has a pending message: the first event
        // of each tenant leaves one, the second commits.
        let feed = [
            (0, 0, 1, 1.0),
            (1, b_vertex, 2, 2.0),
            (0, 0, 1, 10.0),
            (1, b_vertex, 2, 5.0),
        ];
        for (tenant, src, dst, t) in feed {
            let e = InteractionEvent::new(src, dst, 0, t);
            server.submit_for(TenantId(tenant), e).unwrap();
            let give_up = std::time::Instant::now() + Duration::from_secs(30);
            while server.poll().is_none() {
                assert!(std::time::Instant::now() < give_up, "event never served");
                std::thread::yield_now();
            }
        }
        let report = server.drain();
        (report.commits, report.commit_log_clean)
    };
    // Shared: 0 at t = 2 (b), 0 and 1 at 10 (a), 0 and 2 at 5 (b) — 0 back.
    assert_eq!(session(0), (5, false));
    // Disjoint: 0 and 1 at 10 (a), 3 and 2 at 5 (b).
    assert_eq!(session(3), (4, true));
}

#[test]
fn single_tenant_default_reports_one_block_policy_tenant() {
    // The implicit single-tenant configuration must look like one
    // Block-policy tenant in the report, preserving the legacy contract.
    let (model, graph) = setup(5);
    let mut server = StreamServer::new(model, graph.clone(), ServeConfig::default());
    for &e in &graph.events()[..50] {
        server.submit(e).unwrap();
    }
    let report = server.drain();
    assert_eq!(report.tenants.len(), 1);
    let t = &report.tenants[0];
    assert_eq!(t.name, "default");
    assert_eq!(t.policy, OverloadPolicy::Block);
    assert_eq!(t.weight, 1);
    assert_eq!(t.counters.submitted, 50);
    assert_eq!(t.served, 50);
    assert_eq!(t.dropped(), 0);
    assert_eq!(t.late, 0);
    assert!(report.commit_log_clean);
}

/// Builds a server from `config` and returns the message it panicked with,
/// or `None` if it was built.
fn construction_panic(
    model: &TgnModel,
    graph: &Arc<TemporalGraph>,
    config: ServeConfig,
) -> Option<String> {
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        StreamServer::new(model.clone(), graph.clone(), config)
    }));
    match built {
        Ok(server) => {
            drop(server);
            None
        }
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

#[test]
fn unusable_numbers_fail_construction_not_the_stream() {
    // A struct literal bypasses `TenantSpec::with_rate_eps`'s assert, and
    // nothing else checked `max_batch`: a zero rate used to panic inside the
    // admission lock on a `Block` tenant's second submit, poisoning it for
    // every later submit, and a zero cap killed the state worker on its
    // first pull.  Both must be refused when the server is built.
    let (model, graph) = setup(21);
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let config = ServeConfig {
            tenants: vec![TenantSpec {
                rate_eps: Some(rate),
                ..TenantSpec::new("t")
            }],
            ..ServeConfig::default()
        };
        let msg = construction_panic(&model, &graph, config)
            .unwrap_or_else(|| panic!("rate_eps {rate} built a server"));
        assert!(
            msg.contains("rate_eps must be finite and positive"),
            "rate_eps {rate}: {msg}"
        );
    }
    let config = ServeConfig {
        max_batch: 0,
        ..ServeConfig::default()
    };
    let msg = construction_panic(&model, &graph, config)
        .unwrap_or_else(|| panic!("max_batch 0 built a server"));
    assert!(msg.contains("max_batch must be >= 1"), "max_batch 0: {msg}");
}
