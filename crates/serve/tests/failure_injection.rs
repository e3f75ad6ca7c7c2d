//! Failure-injection tests for the GNN stage: a panicking GNN worker
//! (injected via the test-only [`GnnFaultHook`]) must unwind the pipeline
//! through its dropped channel ends — `submit` fails `Closed`, `poll`
//! terminates, `drain` propagates the panic — never hang it, whichever
//! backend the faulted epoch was routed to.  (The state worker's death is
//! drilled by the recovery suite's injected WAL fault.)  Plus the disk's
//! two failure modes under durability: a failed seal fsync kills the GNN
//! worker the same way and delivers nothing from its epoch on, and a
//! stalled one back-pressures `submit` until the disk recovers.

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
/// that `poll` terminates and `drain` propagates the worker panic; returns
/// the epochs `poll` delivered on the way.  The
/// ingress queue is deep, so a hang in the submit loop would mean the
/// closed queues never rippled back through the stages.  Repeating the last
/// event keeps each tenant's stream chronological (equal timestamps are
/// legal) while driving batches through the dying pipeline.
fn assert_dead_worker_unwinds(
    mut server: StreamServer,
    feed: &[(TenantId, InteractionEvent)],
    label: &str,
) -> Vec<u64> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut delivered = Vec::new();
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
        while let Some(b) = server.poll() {
            delivered.push(b.epoch);
        }
        assert!(
            Instant::now() < deadline,
            "{label}: submit never observed the dead pipeline"
        );
    }

    // poll must not hang either: the results queue is closed.
    while let Some(b) = server.poll() {
        delivered.push(b.epoch);
    }

    // drain must propagate the injected panic rather than hang.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.drain()));
    assert!(
        result.is_err(),
        "{label}: drain must propagate the worker panic"
    );
    delivered
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

/// Submits `e` and spins until `poll` delivers it as a batch of its own.
fn deliver_alone(server: &mut StreamServer, e: InteractionEvent) -> u64 {
    server.submit(e).unwrap();
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(b) = server.poll() {
            assert_eq!(b.events, [e], "lockstep epochs hold one event");
            return b.epoch;
        }
        assert!(Instant::now() < give_up, "event never delivered");
        std::thread::yield_now();
    }
}

/// A failed seal fsync is a dead GNN worker: the epoch whose sync failed
/// and every later one stay undelivered — never served with a seal that
/// did not reach the disk — and `submit`, `poll` and `drain` unwind.
#[test]
fn failed_seal_fsync_delivers_nothing_from_its_epoch_on() {
    const FAIL_AT: u64 = 3;
    let (model, graph) = setup(37);
    let dir = std::env::temp_dir().join(format!("tgnn-fsync-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        max_batch: 4,
        num_shards: 2,
        durability: Some(DurabilityConfig::new(&dir).with_wal_fault(Arc::new(
            |point| matches!(point, WalFaultPoint::Sync(epoch) if epoch == FAIL_AT),
        ))),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(model, graph.clone(), config);
    let events = &graph.events()[..64];
    for (i, &e) in events[..FAIL_AT as usize - 1].iter().enumerate() {
        assert_eq!(deliver_alone(&mut server, e), i as u64 + 1);
    }
    let delivered = assert_dead_worker_unwinds(
        server,
        &events[FAIL_AT as usize - 1..]
            .iter()
            .map(|&e| (TenantId::DEFAULT, e))
            .collect::<Vec<_>>(),
        "failed fsync",
    );
    assert!(
        delivered.iter().all(|&epoch| epoch < FAIL_AT),
        "delivered past the failed sync: {delivered:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled seal fsync holds the GNN worker, so the pipeline backs up to
/// admission and a `Block` client waits inside `submit` — the disk
/// back-pressures ingress like any other slow stage — and no batch is
/// delivered before its seal is durable.  The client cannot end the stall
/// (it is blocked); a timer thread does, once it sees the client blocked.
/// Afterwards every event is delivered exactly once.
#[test]
fn fsync_stall_longer_than_the_results_queue_does_not_deadlock_a_block_client() {
    let (model, graph) = setup(31);
    let dir = std::env::temp_dir().join(format!("tgnn-fsync-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The stall: the first seal sync blocks on this channel, and every sync
    // runs freely once the sender is gone.
    let (release, stalled) = mpsc::channel::<()>();
    let stalled = Mutex::new(stalled);
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
    let hub = server.metrics_hub();
    let events: Vec<_> = graph.events()[..96].to_vec();
    let released = Arc::new(AtomicBool::new(false));

    let timer = {
        let released = released.clone();
        std::thread::spawn(move || {
            let give_up = Instant::now() + Duration::from_secs(20);
            while hub.snapshot().admission.blocked_submits == 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            released.store(true, Ordering::SeqCst);
            drop(release);
        })
    };
    let (done_tx, done_rx) = mpsc::channel();
    let client = {
        let (events, released) = (events.clone(), released.clone());
        std::thread::spawn(move || {
            let mut delivered = Vec::new();
            let mut take = |b: tgnn_serve::ServedBatch| {
                assert!(
                    released.load(Ordering::SeqCst),
                    "epoch {} delivered before its seal was durable",
                    b.epoch
                );
                delivered.extend(b.events);
            };
            for e in events {
                server.submit(e).unwrap();
                while let Some(b) = server.poll() {
                    take(b);
                }
            }
            let report = server.drain();
            while let Some(b) = server.poll() {
                take(b);
            }
            done_tx.send((delivered, report)).unwrap();
        })
    };
    let (delivered, report) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the client never finished: the pipeline did not recover from the stall");
    client.join().unwrap();
    timer.join().unwrap();
    assert!(
        report.tenants[0].counters.blocked_submits > 0,
        "the stalled disk must back-pressure submit"
    );
    assert_eq!(delivered, events, "every event is delivered exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}
