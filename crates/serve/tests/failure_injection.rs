//! Failure-injection tests for the GNN stage: a panicking GNN worker
//! (injected via the test-only [`GnnFaultHook`]) must unwind the pipeline
//! through its dropped channel ends — `submit` fails `Closed`, `poll`
//! terminates, `drain` propagates the panic — never hang it, whichever
//! backend the faulted epoch was routed to.  (The state worker's death is
//! drilled by the recovery suite's injected WAL fault.)  Plus the
//! stalled-disk drill: a group-commit fsync that outlasts the results queue
//! must not deadlock a one-thread client.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tgnn_core::quantized::quantize_model;
use tgnn_core::{BackendKind, ModelConfig, OptimizationVariant, TgnModel};
use tgnn_data::{generate, tiny};
use tgnn_graph::{InteractionEvent, TemporalGraph};
use tgnn_quant::QuantConfig;
use tgnn_serve::{
    DurabilityConfig, GnnFaultHook, ServeConfig, StreamServer, SubmitError, TenantId, TenantSpec,
    WalFaultPoint,
};
use tgnn_tensor::TensorRng;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::Baseline);
    let model = TgnModel::new(cfg, &mut TensorRng::new(seed));
    (model, Arc::new(graph))
}

/// A hook that fires exactly once, on the first epoch >= 2.
fn panic_once_at_epoch_2() -> GnnFaultHook {
    let fired = AtomicBool::new(false);
    Arc::new(move |epoch| epoch >= 2 && !fired.swap(true, Ordering::SeqCst))
}

/// Feeds `server` until its dead pipeline surfaces as `Closed`, then checks
/// that `poll` terminates and `drain` propagates the worker panic.  The
/// ingress queue is deep, so a hang in the submit loop would mean the
/// closed queues never rippled back through the stages.  Repeating the last
/// event keeps each tenant's stream chronological (equal timestamps are
/// legal) while driving batches through the dying pipeline.
fn assert_dead_worker_unwinds(
    mut server: StreamServer,
    feed: &[(TenantId, InteractionEvent)],
    label: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let last = *feed.last().unwrap();
    let mut stream = feed.iter().copied().chain(std::iter::repeat(last));
    // The only way out of this loop is observing Closed (the deadline
    // assert below fails the test if the pipeline hangs instead).
    loop {
        let (tenant, e) = stream.next().unwrap();
        match server.submit_for(tenant, e) {
            Ok(_) => {}
            Err(SubmitError::Closed) => break,
            Err(other) => panic!("{label}: unexpected submit error: {other}"),
        }
        while server.poll().is_some() {}
        assert!(
            Instant::now() < deadline,
            "{label}: submit never observed the dead pipeline"
        );
    }

    // poll must not hang either: the results queue is closed.
    while server.poll().is_some() {}

    // drain must propagate the injected panic rather than hang.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.drain()));
    assert!(
        result.is_err(),
        "{label}: drain must propagate the worker panic"
    );
}

#[test]
fn panicking_gnn_worker_fails_submit_poll_drain() {
    // One backend.
    let (model, graph) = setup(17);
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        gnn_fault: Some(panic_once_at_epoch_2()),
        ..ServeConfig::default()
    };
    let server = StreamServer::new(model.clone(), graph.clone(), config);
    let feed: Vec<_> = graph.events()[..64.min(graph.num_events())]
        .iter()
        .map(|&e| (TenantId::DEFAULT, e))
        .collect();
    assert_dead_worker_unwinds(server, &feed, "one backend");

    // Two backends behind the one GNN worker, the fault on an int8-routed
    // epoch.  Event i goes to tenant i mod 2 (f32, int8); fed in lockstep,
    // every epoch is one event, so epochs 1 and 3 are f32, 2 and 4 int8.
    let mut model = model;
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
    const FAULT_EPOCH: u64 = 4;
    let config = ServeConfig {
        max_batch: 8,
        num_shards: 2,
        tenants: vec![
            TenantSpec::new("f32").with_backend(BackendKind::F32),
            TenantSpec::new("int8").with_backend(BackendKind::Int8),
        ],
        gnn_fault: Some(Arc::new(|epoch| epoch == FAULT_EPOCH)),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let feed: Vec<_> = graph.events()[..64]
        .iter()
        .enumerate()
        .map(|(i, &e)| (TenantId(i as u32 % 2), e))
        .collect();
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut backends = Vec::new();
    for &(tenant, e) in &feed[..FAULT_EPOCH as usize - 1] {
        server.submit_for(tenant, e).unwrap();
        let b = loop {
            if let Some(b) = server.poll() {
                break b;
            }
            assert!(Instant::now() < give_up, "event never delivered");
            std::thread::yield_now();
        };
        assert_eq!(b.events, [e], "lockstep epochs hold one event");
        backends.push(b.backend);
    }
    assert_eq!(
        backends,
        [BackendKind::F32, BackendKind::Int8, BackendKind::F32],
        "the one GNN worker serves both backends"
    );
    // The faulted epoch is sealed alone before anything else is fed.
    let (tenant, e) = feed[FAULT_EPOCH as usize - 1];
    assert_eq!(tenant, TenantId(1), "the int8 tenant");
    server.submit_for(tenant, e).unwrap();
    while server.metrics().epochs < FAULT_EPOCH {
        assert!(
            Instant::now() < give_up,
            "the faulted epoch was never sealed"
        );
        std::thread::yield_now();
    }
    assert_dead_worker_unwinds(server, &feed[FAULT_EPOCH as usize..], "f32 + int8");
}

#[test]
fn fault_on_late_epoch_still_unwinds_after_successful_batches() {
    // The pipeline serves a few batches correctly, then a worker dies; the
    // already-served batches stay available and the shutdown still unwinds.
    let (model, graph) = setup(23);
    let config = ServeConfig {
        max_batch: 4,
        num_shards: 3,
        gnn_fault: Some(Arc::new(|epoch| epoch == 5)),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let mut served_events = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    for &e in &graph.events()[..64] {
        if server.submit(e).is_err() {
            break;
        }
        while let Some(b) = server.poll() {
            served_events += b.events.len();
        }
        assert!(
            Instant::now() < deadline,
            "pipeline hung after injected fault"
        );
    }
    while let Some(b) = server.poll() {
        served_events += b.events.len();
    }
    // Epochs 1..=4 (at most 4 events each) complete before the epoch-5
    // fault; the exact number polled depends on timing, but none may come
    // from past the faulted epoch.
    assert!(served_events <= 16, "served past the faulted epoch");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.drain()));
    assert!(result.is_err(), "drain must propagate the worker panic");
}

/// ROADMAP 1b′: under durability `poll` holds a batch back until its `Seal`
/// is fsynced.  If it also left every later batch in the bounded `results`
/// queue, an fsync stall longer than `results_capacity` batches would fill
/// that queue, back the pipeline up to admission, and block the only thread
/// that polls inside `submit` — for good, even after the disk recovers.
/// Here the syncer's first fsync stalls until the whole feed (24 or more
/// batches against a results queue of 2) has been submitted; the submit-then-poll
/// `Block` client must get through it on its own.
#[test]
fn fsync_stall_longer_than_the_results_queue_does_not_deadlock_a_block_client() {
    let (model, graph) = setup(31);
    let dir = std::env::temp_dir().join(format!("tgnn-fsync-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The stall: the syncer blocks on this channel at its first fsync and
    // runs freely once the sender is gone.  The client drops it after its
    // last submit; the watchdog below drops it if the client never gets
    // there, so a failure shows the deadlock outliving the stall.
    let (release, stalled) = mpsc::channel::<()>();
    let stalled = Mutex::new(stalled);
    let release = Arc::new(Mutex::new(Some(release)));
    let config = ServeConfig {
        max_batch: 4,
        stage_capacity: 1,
        results_capacity: 2,
        tenants: vec![TenantSpec::new("block").with_capacity(8)],
        durability: Some(
            DurabilityConfig::new(&dir).with_wal_fault(Arc::new(move |point| {
                if let WalFaultPoint::Sync(_) = point {
                    let _ = stalled.lock().unwrap().recv();
                }
                false
            })),
        ),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let events: Vec<_> = graph.events()[..96].to_vec();
    let total = events.len();

    let (done_tx, done_rx) = mpsc::channel();
    let end_stall = release.clone();
    let client = std::thread::spawn(move || {
        let mut delivered = 0usize;
        for e in events {
            server.submit(e).unwrap();
            while let Some(b) = server.poll() {
                delivered += b.events.len();
            }
        }
        assert_eq!(delivered, 0, "no delivery before its seal is durable");
        end_stall.lock().unwrap().take();
        server.drain();
        while let Some(b) = server.poll() {
            delivered += b.events.len();
        }
        done_tx.send(delivered).unwrap();
    });
    let delivered = done_rx
        .recv_timeout(Duration::from_secs(20))
        .or_else(|_| {
            release.lock().unwrap().take();
            done_rx.recv_timeout(Duration::from_secs(2))
        })
        .expect("Block client stuck inside submit, even after the fsync stall ended");
    client.join().unwrap();
    assert_eq!(delivered, total, "every event is delivered exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}
