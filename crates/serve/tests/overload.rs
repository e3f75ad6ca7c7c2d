//! Overload property test: submit events faster than the pipeline can drain
//! them, with tiny queue bounds, and assert the backpressure design holds —
//! bounded queue memory, no deadlock, and eventual completion with every
//! event served exactly once — across seeds × shard counts.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_core::{ModelConfig, OptimizationVariant, TgnModel};
use tgnn_data::{generate, tiny};
use tgnn_graph::TemporalGraph;
use tgnn_serve::{SealReason, ServeConfig, StreamServer, TenantSpec};
use tgnn_tensor::TensorRng;

mod common;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let model = TgnModel::new(cfg, &mut TensorRng::new(seed ^ 0xbeef));
    (model, Arc::new(graph))
}

#[test]
fn sustained_overload_stays_bounded_and_completes() {
    let deadline = Instant::now() + Duration::from_secs(120);
    for seed in [5u64, 19] {
        let (model, graph) = setup(seed);
        let events = &graph.events()[..200.min(graph.num_events())];
        for num_shards in [1usize, 3] {
            let label = format!("seed={seed} shards={num_shards}");
            // Tiny bounds everywhere: the ingress queue holds 2
            // events, every stage holds 1 batch, and results hold 2 —
            // submission immediately outruns the drain, so the whole
            // run executes under backpressure.
            let config = ServeConfig {
                max_batch: 3,
                tenants: vec![TenantSpec::new("default").with_capacity(2)],
                stage_capacity: 1,
                results_capacity: 2,
                num_shards,
                ..ServeConfig::default()
            };
            let mut server = StreamServer::new(model.clone(), graph.clone(), config);
            let mut served_events = 0usize;
            for &e in events {
                server
                    .submit(e)
                    .unwrap_or_else(|err| panic!("{label}: submit failed under overload: {err}"));
                // Poll without waiting — the producer never yields to
                // the pipeline voluntarily.
                while let Some(b) = server.poll() {
                    served_events += b.events.len();
                }
                assert!(
                    Instant::now() < deadline,
                    "{label}: overload run deadlocked"
                );
            }
            let report = server.drain();
            while let Some(b) = server.poll() {
                served_events += b.events.len();
            }
            // Eventual completion: nothing lost, nothing duplicated.
            assert_eq!(served_events, events.len(), "{label}");
            assert_eq!(report.num_events, events.len(), "{label}");
            common::assert_conserved(&server.metrics());
            assert!(report.commit_log_clean, "{label}");
            // Queue-accounting sanity: recorded depths respect the
            // configured capacities.  (This cannot fail while `send`
            // itself enforces the bound — the falsifiable boundedness
            // evidence is the blocked-send count below: if a regression
            // made any queue grow without blocking, an overloaded run
            // with these tiny bounds would record zero blocks.)
            for q in &report.queues {
                assert!(
                    q.max_depth <= q.capacity,
                    "{label}: queue {} overflowed its bound ({} > {})",
                    q.name,
                    q.max_depth,
                    q.capacity
                );
            }
            assert!(
                report.backpressure_blocks > 0,
                "{label}: overload never hit backpressure — either the \
                 pipeline outran a saturating producer on tiny bounds or \
                 a queue grew unboundedly instead of blocking"
            );
            assert!(
                server.neighbor_table().check_invariants().is_ok(),
                "{label}"
            );
        }
    }
}

/// Load-adaptive batching at its other end: a saturated pipeline fills
/// every batch to `min(max_batch, Σ ingress capacities)`.  The state worker
/// takes what is pending each time it finishes a batch; under backpressure
/// the submitter refills its ingress queue faster than a batch is stepped,
/// so every pull finds the queue full — and a queue smaller than the cap
/// bounds the batch, because nothing is held across pulls.
#[test]
fn saturated_pipeline_fills_every_batch_to_the_smaller_of_cap_and_queue() {
    const CAP: usize = 8;
    const RAMP: usize = 16;
    let (model, graph) = setup(11);
    for (capacity, full_size) in [(2 * CAP, CAP), (CAP / 2, CAP / 2)] {
        let label = format!("ingress capacity {capacity}, max_batch {CAP}");
        let config = ServeConfig {
            max_batch: CAP,
            tenants: vec![TenantSpec::new("default").with_capacity(capacity)],
            // The hook never fires; it holds every GNN job for 2 ms, which
            // makes the pipeline slower than any submitter on any host.
            gnn_fault: Some(Arc::new(|_| {
                std::thread::sleep(Duration::from_millis(2));
                false
            })),
            ..ServeConfig::default()
        };
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        let mut sizes = Vec::new();
        for &e in graph.events() {
            server.submit(e).unwrap();
            while let Some(b) = server.poll() {
                sizes.push(b.events.len());
            }
        }
        server.drain();
        while let Some(b) = server.poll() {
            sizes.push(b.events.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), graph.num_events(), "{label}");
        assert!(
            sizes.iter().all(|&n| n <= full_size),
            "{label}: a batch outgrew min(max_batch, capacity): {sizes:?}"
        );
        // After the ramp (the queue between the state worker and the held
        // GNN stage filling up) and before the remainder sealed at close.
        let steady = &sizes[RAMP..sizes.len() - 1];
        let full = steady.iter().filter(|&&n| n == full_size).count();
        assert!(
            full * 100 >= steady.len() * 95,
            "{label}: {full} of {} steady-state batches held {full_size}: {sizes:?}",
            steady.len()
        );
        let seals = server.metrics().seals;
        let cap_seals = seals[SealReason::Full.code()];
        if full_size == CAP {
            assert!(
                cap_seals >= full as u64,
                "{label}: full batches are sealed by the cap: {seals:?}"
            );
        } else {
            assert_eq!(cap_seals, 0, "{label}: the cap is never reached");
        }
    }
}
