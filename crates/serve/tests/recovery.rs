//! Crash-recovery property tests for the durability subsystem: a durable
//! server killed at an arbitrary stage boundary (WAL fault in the batcher,
//! GNN-worker panic) and rebuilt with [`StreamServer::recover`] must resume
//! **bit-identically** — every admitted event served exactly once, never
//! twice, never lost, and every served embedding equal to what an
//! uninterrupted `ExecMode::Serial` replay of the same micro-batch sequence
//! produces — across seeds and shard counts.  Plus the
//! torn-tail contract: a WAL truncated at *every* byte offset of its final
//! record recovers cleanly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tgnn_core::{
    ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, TgnModel, TimeEncoderKind,
};
use tgnn_data::{generate, tiny};
use tgnn_durable::{
    encode_memory_shard, encode_neighbor_shard, list_snapshots, load_snapshot, plan_recovery,
    read_wal, repair_torn_tail, segment_name, write_snapshot, AdmitDisposition, Wal, WalRecord,
};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
use tgnn_serve::{
    wal_fault_hook, DurabilityConfig, FsyncPolicy, OverloadPolicy, ServeConfig, ServedBatch,
    StreamServer, SubmitError, TenantId, TenantSpec,
};
use tgnn_tensor::TensorRng;

mod common;

fn setup(seed: u64) -> (TgnModel, Arc<TemporalGraph>) {
    let graph = generate(&tiny(seed));
    let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
        .with_variant(OptimizationVariant::NpMedium);
    let mut rng = TensorRng::new(seed ^ 0xd0_0d);
    let mut model = TgnModel::new(cfg, &mut rng);
    if model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    (model, Arc::new(graph))
}

/// Self-cleaning scratch directory (the workspace is dependency-free, so no
/// tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let p = std::env::temp_dir().join(format!("tgnn-recovery-{}-{label}", std::process::id()));
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

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
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

/// Replays the exact served micro-batch sequence through the serial
/// reference engine and asserts bitwise-equal embeddings — the recovered
/// stream must be indistinguishable from an uninterrupted run.
fn assert_matches_serial(
    model: TgnModel,
    graph: &TemporalGraph,
    warm: &[InteractionEvent],
    served: &[ServedBatch],
    label: &str,
) {
    let mut engine = InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Serial);
    if !warm.is_empty() {
        engine.warm_up(warm, graph);
    }
    for batch in served {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), graph);
        assert_eq!(
            reference.embeddings, batch.embeddings,
            "{label}: embeddings diverged from the serial reference in epoch {}",
            batch.epoch
        );
    }
    assert_eq!(engine.backward_commits(), 0, "{label}");
}

fn base_config(dir: &Path, fsync: FsyncPolicy) -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        // Where the state worker cuts the stream depends on timing (a batch
        // is whatever was pending when it pulled), so every check below
        // replays the boundaries that were served.
        tenants: vec![TenantSpec::new("default").with_capacity(32)],
        stage_capacity: 2,
        results_capacity: 4,
        durability: Some(
            DurabilityConfig::new(dir)
                .with_snapshot_every(4)
                .with_fsync(fsync),
        ),
        ..ServeConfig::default()
    }
}

enum Fault {
    /// Batcher freezes the WAL and panics before sealing this epoch.
    Wal(u64),
    /// The GNN worker panics on this epoch's job.
    Gnn(u64),
}

impl Fault {
    fn label(&self) -> String {
        match self {
            Fault::Wal(e) => format!("wal@{e}"),
            Fault::Gnn(e) => format!("gnn@{e}"),
        }
    }
}

/// First life: stream events into a durable server until the injected crash
/// closes admission (or the feed ends), then let `drain` propagate the
/// worker panic.  Returns the batches the client actually received and how
/// many events it submitted successfully.
///
/// A real crash takes the client's deliveries down with the log: nothing is
/// delivered past the point the WAL stops recording `Ack`s.  In-process the
/// client outlives the frozen WAL, so the WAL fault hook raises `frozen`
/// and the client checks it before each `poll` — under one lock, so a poll
/// (and its `Ack` append) is either wholly before the freeze, hence durable,
/// or does not happen.
fn run_first_life(
    model: TgnModel,
    graph: &Arc<TemporalGraph>,
    events: &[InteractionEvent],
    warm: &[InteractionEvent],
    mut config: ServeConfig,
    fault: &Fault,
) -> (Vec<ServedBatch>, usize) {
    let frozen = Arc::new(Mutex::new(false));
    match fault {
        Fault::Wal(epoch) => {
            let at = *epoch;
            let dcfg = config.durability.take().unwrap();
            let frozen = frozen.clone();
            // The pipeline freezes the WAL right after the hook says so.
            config.durability = Some(dcfg.with_wal_fault(wal_fault_hook(move |e| {
                if e == at {
                    *frozen.lock().unwrap() = true;
                }
                e == at
            })));
        }
        Fault::Gnn(epoch) => {
            let at = *epoch;
            config.gnn_fault = Some(Arc::new(move |e| e == at));
        }
    }
    let mut server = StreamServer::new(model, graph.clone(), config);
    if !warm.is_empty() {
        server.warm_up(warm);
    }
    let mut served = Vec::new();
    let mut poll_all = |server: &mut StreamServer| {
        let frozen = frozen.lock().unwrap();
        if !*frozen {
            served.extend(std::iter::from_fn(|| server.poll()));
        }
    };
    let mut submitted = 0usize;
    for &e in events {
        match server.submit(e) {
            Ok(()) => submitted += 1,
            Err(SubmitError::Closed) => break,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        poll_all(&mut server);
    }
    poll_all(&mut server);
    // drain flushes the WAL tail before propagating the worker panic — that
    // is what keeps a poisoned pipeline recoverable.
    let crashed = catch_unwind(AssertUnwindSafe(move || server.drain())).is_err();
    assert!(crashed, "the injected fault must surface as a drain panic");
    (served, submitted)
}

#[test]
fn crash_recovery_is_bit_identical_across_faults_and_shards() {
    for seed in [3u64, 11] {
        let (model, graph) = setup(seed);
        let all = &graph.events()[..240.min(graph.num_events())];
        // Seed 11 exercises the warm-up floor snapshot as the recovery base.
        let warm_len = if seed == 11 { 48 } else { 0 };
        let (warm, events) = all.split_at(warm_len);
        for num_shards in [2usize, 3] {
            for fault in [Fault::Wal(4), Fault::Gnn(3)] {
                let label = format!("seed={seed} shards={num_shards} fault={}", fault.label());
                let td = TempDir::new(&label.replace([' ', '='], "-"));
                let mut config = base_config(td.path(), FsyncPolicy::Always);
                config.num_shards = num_shards;

                let (mut served, submitted) =
                    run_first_life(model.clone(), &graph, events, warm, config.clone(), &fault);

                // Second life: recover, collect the re-served epochs,
                // resume the feed from the durable submit index, drain.
                let (mut server, report) =
                    StreamServer::recover(model.clone(), graph.clone(), config)
                        .unwrap_or_else(|e| panic!("{label}: recover failed: {e}"));
                let resume = report.resume_from[0] as usize;
                match fault {
                    // The WAL froze at the crash point: submits that
                    // returned Ok afterwards are not durable, and the
                    // client re-sends them from the resume index.
                    Fault::Wal(_) => assert!(
                        resume <= submitted,
                        "{label}: resume index past the submit count"
                    ),
                    // The WAL outlived the fault: with fsync=always
                    // every Ok submit is durable.
                    Fault::Gnn(_) => assert_eq!(
                        resume, submitted,
                        "{label}: every Ok submit must be durable"
                    ),
                }
                let polled_epochs: Vec<u64> = served.iter().map(|b| b.epoch).collect();
                let mut re_served = 0usize;
                while let Some(b) = server.poll() {
                    assert!(
                        !polled_epochs.contains(&b.epoch),
                        "{label}: epoch {} served twice",
                        b.epoch
                    );
                    // Recovery stamps what it re-serves with trace id 0;
                    // an epoch the live pipeline sealed from the replayed
                    // ingress meanwhile is a first serve, not a re-serve.
                    re_served += usize::from(b.metas.iter().all(|m| m.trace_id == 0));
                    served.push(b);
                }
                assert_eq!(re_served, report.re_served_epochs, "{label}");
                for &e in &events[resume..] {
                    server
                        .submit(e)
                        .unwrap_or_else(|err| panic!("{label}: resumed submit failed: {err}"));
                    while let Some(b) = server.poll() {
                        served.push(b);
                    }
                }
                let report2 = server.drain();
                while let Some(b) = server.poll() {
                    served.push(b);
                }
                assert!(
                    server.neighbor_table().check_invariants().is_ok(),
                    "{label}"
                );
                assert!(report2.commit_log_clean, "{label}");
                assert!(report2.durability.is_some(), "{label}");

                // Exactly once: the union of both lives' deliveries is
                // the whole feed, nothing duplicated, nothing lost.
                assert_eq!(
                    multiset(served.iter().flat_map(|b| b.events.iter())),
                    multiset(events.iter()),
                    "{label}: served multiset != submitted multiset"
                );
                // Epoch order: contiguous across the crash.
                served.sort_by_key(|b| b.epoch);
                for (i, b) in served.iter().enumerate() {
                    assert_eq!(
                        b.epoch,
                        served[0].epoch + i as u64,
                        "{label}: epoch sequence has a gap or duplicate"
                    );
                }
                // Bit-identity: the recovered stream replays serially.
                assert_matches_serial(model.clone(), &graph, warm, &served, &label);
            }
        }
    }
}

#[test]
fn paced_feed_snapshots_by_absorbed_events_and_recovers_bit_identically() {
    // Once with the default 8 MiB segments, once with 4 KiB ones, which the
    // first life's ~15 KiB of log rotates through: a recovered stream reads
    // across segments that rotation synced.
    let default_segment = DurabilityConfig::new("").segment_bytes;
    for segment_bytes in [default_segment, 4096] {
        paced_feed_recovers(segment_bytes);
    }
}

fn paced_feed_recovers(segment_bytes: u64) {
    // One event in flight at a time, so every epoch holds one event — 16
    // epochs where a saturated server has one.  The snapshot cadence must
    // not notice: `snapshot_every` (4) × `max_batch` (16) = an image per 64
    // absorbed events, exactly as with full batches, not one per 4 events.
    const INTERVAL: u64 = 4 * 16;
    const FAULT_EPOCH: u64 = 150;
    let (model, graph) = setup(17);
    let events = &graph.events()[..240.min(graph.num_events())];
    let td = TempDir::new(&format!("paced-cadence-{segment_bytes}"));
    let mut config = base_config(td.path(), FsyncPolicy::Always);
    config.durability.as_mut().unwrap().segment_bytes = segment_bytes;

    let mut first = config.clone();
    first.gnn_fault = Some(Arc::new(|epoch| epoch == FAULT_EPOCH));
    let mut server = StreamServer::new(model.clone(), graph.clone(), first);
    let mut served: Vec<ServedBatch> = Vec::new();
    for &e in &events[..FAULT_EPOCH as usize] {
        server.submit(e).unwrap();
        if served.len() as u64 + 1 == FAULT_EPOCH {
            break; // the GNN worker dies on this epoch; nothing more is delivered
        }
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        let batch = loop {
            if let Some(b) = server.poll() {
                break b;
            }
            assert!(std::time::Instant::now() < give_up, "event never delivered");
            std::thread::yield_now();
        };
        assert_eq!(batch.events.len(), 1, "lockstep epochs hold one event");
        served.push(batch);
    }
    let absorbed = FAULT_EPOCH - 1;
    // Interval snapshots are written in the background; wait for the count
    // the cadence predicts, then make sure it stays there.
    let snapshots = |s: &StreamServer| s.report().durability.unwrap().snapshots;
    let give_up = std::time::Instant::now() + Duration::from_secs(30);
    while snapshots(&server) < absorbed / INTERVAL {
        assert!(
            std::time::Instant::now() < give_up,
            "interval snapshot never landed"
        );
        std::thread::yield_now();
    }
    assert_eq!(
        snapshots(&server),
        absorbed / INTERVAL,
        "{absorbed} absorbed events in one-event epochs"
    );
    let rotations = server.report().durability.unwrap().wal_rotations;
    assert_eq!(
        rotations > 0,
        segment_bytes == 4096,
        "{rotations} rotations of {segment_bytes}-byte segments"
    );
    let crashed = catch_unwind(AssertUnwindSafe(move || server.drain())).is_err();
    assert!(crashed, "the injected fault must surface as a drain panic");

    // Second life: the newest image is the one taken at 128 *events*.
    let (mut server, report) = StreamServer::recover(model.clone(), graph.clone(), config)
        .unwrap_or_else(|e| panic!("recover failed: {e}"));
    assert_eq!(report.snapshot_epoch, (absorbed / INTERVAL) * INTERVAL);
    assert_eq!(report.acked, absorbed);
    assert_eq!(report.re_served_epochs, 1, "the faulted epoch comes back");
    let resume = report.resume_from[0] as usize;
    assert_eq!(
        resume, FAULT_EPOCH as usize,
        "fsync=always: every Ok submit"
    );
    while let Some(b) = server.poll() {
        served.push(b);
    }
    for &e in &events[resume..] {
        server.submit(e).unwrap();
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    let report2 = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    assert!(report2.commit_log_clean);
    let delivered: Vec<InteractionEvent> = served.iter().flat_map(|b| b.events.clone()).collect();
    assert_eq!(delivered, events, "the feed, exactly once, in order");
    for (i, b) in served.iter().enumerate() {
        assert_eq!(
            b.epoch,
            1 + i as u64,
            "epoch sequence has a gap or duplicate"
        );
    }
    assert_matches_serial(model, &graph, &[], &served, "paced");
}

#[test]
fn torn_wal_tail_is_recoverable_at_every_byte_offset() {
    // WAL layer, exhaustively: a log whose final record is cut at every
    // possible byte offset must scan as a torn tail (records before it
    // intact), repair by truncation, and accept a new writer afterwards.
    let ev = |t: f64| InteractionEvent::new(1, 2, 3, t);
    let records: Vec<WalRecord> = vec![
        WalRecord::Admit {
            tenant: 0,
            event: ev(1.0),
            disposition: AdmitDisposition::Admitted,
        },
        WalRecord::Admit {
            tenant: 0,
            event: ev(2.0),
            disposition: AdmitDisposition::Admitted,
        },
        WalRecord::Seal {
            epoch: 1,
            events: vec![(0, ev(1.0)), (0, ev(2.0))],
        },
        WalRecord::Ack { epoch: 1 },
        WalRecord::Admit {
            tenant: 0,
            event: ev(3.0),
            disposition: AdmitDisposition::Admitted,
        },
    ];
    let td = TempDir::new("torn-wal-layer");
    let seg = td.path().join(segment_name(1));
    let wal = Wal::open(td.path(), 0, 1 << 20, FsyncPolicy::Always).unwrap();
    for r in &records[..records.len() - 1] {
        wal.append(r).unwrap();
    }
    wal.flush(true).unwrap();
    let boundary = std::fs::metadata(&seg).unwrap().len();
    wal.append(records.last().unwrap()).unwrap();
    wal.flush(true).unwrap();
    drop(wal);
    let full_len = std::fs::metadata(&seg).unwrap().len();
    assert!(
        full_len > boundary + 8,
        "final frame must span several bytes"
    );

    for cut in boundary..full_len {
        let case = TempDir::new(&format!("torn-wal-cut-{cut}"));
        let seg2 = case.path().join(segment_name(1));
        std::fs::copy(&seg, &seg2).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg2)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let scan = read_wal(case.path()).unwrap();
        assert_eq!(
            scan.records.len(),
            records.len() - 1,
            "cut={cut}: every record before the torn one survives"
        );
        if cut == boundary {
            assert!(scan.torn.is_none(), "cut={cut}: clean truncation");
        } else {
            let torn = scan
                .torn
                .as_ref()
                .unwrap_or_else(|| panic!("cut={cut}: mid-record cut must scan as torn"));
            assert_eq!(torn.valid_len, boundary, "cut={cut}");
            assert_eq!(torn.lost_bytes, cut - boundary, "cut={cut}");
            repair_torn_tail(torn).unwrap();
            let again = read_wal(case.path()).unwrap();
            assert!(again.torn.is_none(), "cut={cut}: repaired scan is clean");
            assert_eq!(again.records.len(), records.len() - 1, "cut={cut}");
        }
        // A recovering writer opens past the (possibly repaired) tail and
        // its appends land in a fresh segment.
        let wal2 = Wal::open(case.path(), scan.last_seq, 1 << 20, FsyncPolicy::Always).unwrap();
        wal2.append(&WalRecord::Ack { epoch: 7 }).unwrap();
        wal2.flush(true).unwrap();
        drop(wal2);
        let rescan = read_wal(case.path()).unwrap();
        assert!(rescan.torn.is_none(), "cut={cut}");
        assert_eq!(rescan.records.len(), records.len(), "cut={cut}");
        assert!(matches!(
            rescan.records.last(),
            Some(WalRecord::Ack { epoch: 7 })
        ));
    }
}

#[test]
fn server_recovers_from_torn_final_record_at_every_offset() {
    // End to end: a drained durable session whose log is then truncated at
    // every byte offset of the final record must still recover — the lost
    // record is the last `Ack`, so the affected epochs come back re-served.
    let (model, graph) = setup(7);
    let events = &graph.events()[..96.min(graph.num_events())];
    let td = TempDir::new("torn-serve-src");
    {
        let mut server = StreamServer::new(
            model.clone(),
            graph.clone(),
            base_config(td.path(), FsyncPolicy::Always),
        );
        // The last event's batch must be delivered after `drain` (whose
        // snapshot appends a `SnapshotMark`), so that the log ends in an
        // `Ack`: no polling once it is submitted — an idle pipeline would
        // otherwise seal, serve and hand it over within the same loop turn.
        let (last, head) = events.split_last().unwrap();
        for &e in head {
            server.submit(e).unwrap();
            while server.poll().is_some() {}
        }
        server.submit(*last).unwrap();
        server.drain();
        while server.poll().is_some() {}
    }
    let scan = read_wal(td.path()).unwrap();
    assert!(scan.torn.is_none());
    let n_records = scan.records.len();
    assert!(matches!(scan.records.last(), Some(WalRecord::Ack { .. })));
    let seg = td.path().join(segment_name(scan.last_seq));
    let full_len = std::fs::metadata(&seg).unwrap().len();

    // Find the final frame's start: the largest truncation that still scans
    // clean with one fewer record.
    let probe = TempDir::new("torn-serve-probe");
    let probe_seg = probe.path().join(segment_name(scan.last_seq));
    let boundary = (0..full_len)
        .rev()
        .find(|&cut| {
            std::fs::copy(&seg, &probe_seg).unwrap();
            std::fs::OpenOptions::new()
                .write(true)
                .open(&probe_seg)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let s = read_wal(probe.path()).unwrap();
            s.torn.is_none() && s.records.len() == n_records - 1
        })
        .expect("final frame boundary");

    for cut in boundary..full_len {
        let case = TempDir::new(&format!("torn-serve-cut-{cut}"));
        copy_dir(td.path(), case.path());
        std::fs::OpenOptions::new()
            .write(true)
            .open(case.path().join(segment_name(scan.last_seq)))
            .unwrap()
            .set_len(cut)
            .unwrap();

        let (mut server, report) = StreamServer::recover(
            model.clone(),
            graph.clone(),
            base_config(case.path(), FsyncPolicy::Always),
        )
        .unwrap_or_else(|e| panic!("cut={cut}: recover failed: {e}"));
        assert_eq!(report.torn_tail_repaired, cut > boundary, "cut={cut}");
        assert_eq!(report.readmitted_events, 0, "cut={cut}: everything sealed");
        // The truncated final Ack makes its epoch unacked again: it must be
        // re-served (never lost), and nothing else may be.
        let mut re_served = Vec::new();
        while let Some(b) = server.poll() {
            re_served.push(b);
        }
        assert_eq!(re_served.len(), report.re_served_epochs, "cut={cut}");
        assert_eq!(re_served.len(), 1, "cut={cut}: exactly the unacked epoch");
        server.drain();
        assert!(
            server.neighbor_table().check_invariants().is_ok(),
            "cut={cut}"
        );
    }
}

#[test]
fn poisoned_pipeline_under_onseal_leaves_wal_recoverable() {
    // Satellite (b): with the default OnSeal policy, seals and admits since
    // the last fsync sit in a user-space buffer — the drain path must flush
    // them *before* propagating a worker panic, so a poisoned pipeline still
    // recovers with nothing lost.
    let (model, graph) = setup(29);
    let events = &graph.events()[..160.min(graph.num_events())];
    let td = TempDir::new("poisoned-onseal");
    let config = base_config(td.path(), FsyncPolicy::OnSeal);
    let (served1, submitted) = run_first_life(
        model.clone(),
        &graph,
        events,
        &[],
        config.clone(),
        &Fault::Gnn(4),
    );
    assert!(submitted > 0, "the crash must happen mid-stream");

    let (mut server, report) = StreamServer::recover(model.clone(), graph.clone(), config)
        .expect("poisoned pipeline must leave a recoverable WAL");
    assert!(report.sealed_epochs > 0, "drain flushed the sealed tail");
    let mut served = served1;
    while let Some(b) = server.poll() {
        served.push(b);
    }
    // OnSeal may lose admits buffered after the last flush point — but drain
    // ran, so the flush covered everything: resume from the durable index.
    let resume = report.resume_from[0] as usize;
    assert_eq!(resume, submitted, "drain made every admit durable");
    for &e in &events[resume..] {
        server.submit(e).unwrap();
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    assert_eq!(
        multiset(served.iter().flat_map(|b| b.events.iter())),
        multiset(events.iter()),
        "no event lost or duplicated across the poisoned restart"
    );
    served.sort_by_key(|b| b.epoch);
    assert_matches_serial(model, &graph, &[], &served, "poisoned-onseal");
}

#[test]
fn drain_writes_floor_snapshot_making_recovery_replay_free() {
    // Satellite (b): an orderly drain + full poll leaves a clean final
    // snapshot; recovering from it replays nothing and re-serves nothing.
    let (model, graph) = setup(13);
    let events = &graph.events()[..128.min(graph.num_events())];
    let td = TempDir::new("drain-floor");
    let config = base_config(td.path(), FsyncPolicy::OnSeal);
    {
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        for &e in events {
            server.submit(e).unwrap();
            while server.poll().is_some() {}
        }
        let report = server.drain();
        while server.poll().is_some() {}
        let d = report.durability.expect("durable session reports stats");
        assert!(d.snapshots > 0, "drain must write a final snapshot");
        assert!(d.wal_fsyncs > 0, "drain must fsync the tail");
    }
    let (mut server, report) = StreamServer::recover(model.clone(), graph.clone(), config)
        .expect("recover after clean drain");
    assert_eq!(report.replayed_epochs, 0, "the drain snapshot is current");
    assert_eq!(report.re_served_epochs, 0);
    assert_eq!(report.readmitted_events, 0);
    assert!(report.snapshot_epoch > 0);
    assert!(server.poll().is_none(), "nothing owed to the client");
    // The recovered server keeps serving: the chronology floor carries over.
    let mut next = *events.last().unwrap();
    next.timestamp += 1.0;
    server.submit(next).unwrap();
    let report2 = server.drain();
    assert_eq!(report2.num_events, 1);
    assert!(report2.commit_log_clean);
}

/// The shard files of a snapshot directory, by name (the manifest, whose
/// `acked` races delivery, left out).
fn shard_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = (std::fs::read_dir(dir).unwrap().flatten())
        .map(|f| (f.file_name().to_string_lossy().into_owned(), f.path()))
        .filter(|(name, _)| name.starts_with("shard-"))
        .map(|(name, path)| (name, std::fs::read(path).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn an_image_naming_an_edge_beyond_the_graph_falls_back_to_the_older_one() {
    // A snapshot whose checksums all hold but whose mailbox names an edge
    // the graph does not have — the newest image, forged and re-checksummed
    // by `write_snapshot` — fails verification like a bad checksum:
    // recovery falls back to the next older eligible image and replays the
    // WAL from there to the same state.
    let (model, graph) = setup(19);
    let (events, next) = (&graph.events()[..160], graph.events()[160]);
    let forged = TempDir::new("edge-forged");
    {
        let config = base_config(forged.path(), FsyncPolicy::OnSeal);
        let mut server = StreamServer::new(model.clone(), graph.clone(), config);
        for &e in events {
            server.submit(e).unwrap();
            while server.poll().is_some() {}
        }
        server.drain();
        while server.poll().is_some() {}
    }
    let clean = TempDir::new("edge-clean");
    copy_dir(forged.path(), clean.path());

    let edges = graph.num_events();
    let snapshots = list_snapshots(forged.path()).unwrap();
    assert!(snapshots.len() >= 2, "{} snapshots", snapshots.len());
    let newest = snapshots.last().unwrap();
    let image = load_snapshot(newest, edges).unwrap();
    let mut memory = image.memory;
    let (shard, v) = (0..memory.len())
        .flat_map(|s| (0..memory[s].num_nodes() as u32).map(move |v| (s, v)))
        .find(|&(s, v)| memory[s].cached_message(v).is_some())
        .expect("a pending message");
    let mut message = memory[shard].cached_message(v).unwrap().clone();
    message.edge_id = edges as u32;
    memory[shard].store_message(v, message);
    let encode = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        f(&mut buf);
        buf
    };
    let mem: Vec<_> = (memory.iter())
        .map(|m| encode(&|b| encode_memory_shard(m, b)))
        .collect();
    let nbr: Vec<_> = (image.tables.iter())
        .map(|t| encode(&|b| encode_neighbor_shard(t, b)))
        .collect();
    write_snapshot(forged.path(), &newest.meta, &mem, &nbr).unwrap();
    let rewritten = list_snapshots(forged.path()).unwrap().pop().unwrap();
    assert_eq!(rewritten.meta, newest.meta);
    assert!(
        load_snapshot(&rewritten, usize::MAX).is_ok(),
        "checksums hold"
    );
    assert!(load_snapshot(&rewritten, edges).is_err());

    // Both lives take one more event and drain: their last images agree.
    let mut lives = Vec::new();
    for dir in [clean.path(), forged.path()] {
        let config = base_config(dir, FsyncPolicy::OnSeal);
        let (mut server, report) = StreamServer::recover(model.clone(), graph.clone(), config)
            .expect("recovery falls back to an older image");
        server.submit(next).unwrap();
        while server.poll().is_some() {}
        server.drain();
        while server.poll().is_some() {}
        let last = list_snapshots(dir).unwrap().pop().unwrap();
        lives.push((report, last.meta.epoch, shard_files(&last.dir)));
    }
    let [(clean_report, clean_epoch, clean_files), (forged_report, forged_epoch, forged_files)] =
        <[_; 2]>::try_from(lives).ok().unwrap();
    assert_eq!(clean_report.snapshot_epoch, newest.meta.epoch);
    assert_eq!(clean_report.replayed_epochs, 0);
    assert!(forged_report.snapshot_epoch < newest.meta.epoch);
    assert!(forged_report.replayed_epochs > 0);
    assert_eq!(
        (clean_epoch, forged_epoch),
        (newest.meta.epoch + 1, newest.meta.epoch + 1)
    );
    assert_eq!(clean_files.len(), 2 * 4, "two files per shard");
    assert!(
        clean_files == forged_files,
        "the fallback replays to the same image"
    );
}

#[test]
fn every_interval_manifest_counts_the_events_of_its_own_epoch() {
    // The state worker captures epoch k's shards while the stream keeps
    // moving; the manifest beside them must still count exactly what was
    // absorbed through k — warm-up plus the sealed epochs up to k — or a
    // recovered server seeds its snapshot cadence from a later count and
    // replay adds those events a second time.
    let (model, graph) = setup(5);
    let (warm, stream) = graph.events()[..700].split_at(200);
    let td = TempDir::new("manifest-epoch");
    let mut config = base_config(td.path(), FsyncPolicy::OnSeal);
    config.durability = config.durability.map(|d| d.with_snapshot_every(1));
    config.results_capacity = stream.len();
    let mut server = StreamServer::new(model, graph.clone(), config);
    server.warm_up(warm);
    for &e in stream {
        server.submit(e).unwrap();
        while server.poll().is_some() {}
    }
    server.drain();
    while server.poll().is_some() {}

    let plan = plan_recovery(&read_wal(td.path()).unwrap(), 1).unwrap();
    let snapshots = list_snapshots(td.path()).unwrap();
    assert!(snapshots.len() > 10, "{} snapshots", snapshots.len());
    for snapshot in snapshots {
        let epoch = snapshot.meta.epoch;
        let sealed = plan.sealed.iter().take_while(|s| s.epoch <= epoch);
        let absorbed = warm.len() + sealed.map(|s| s.events.len()).sum::<usize>();
        assert_eq!(
            snapshot.meta.events_total, absorbed as u64,
            "manifest of epoch {epoch}"
        );
    }
}

#[test]
fn a_vertex_two_tenants_share_recovers_with_its_interleaved_fifo() {
    // Chronology is per tenant, so tenant 1's older event may commit after
    // tenant 0's newer one on a vertex both touch: its neighbor FIFO then
    // goes back in time.  The clean-drain snapshot holds it as it is, and
    // recovery must load it.
    let (model, graph) = setup(19);
    let td = TempDir::new("shared-vertex");
    let mut config = base_config(td.path(), FsyncPolicy::OnSeal);
    config.tenants = vec![TenantSpec::new("t0"), TenantSpec::new("t1")];
    let first = graph.events()[0];
    let shared = first.src;
    let newer = InteractionEvent {
        timestamp: first.timestamp + 10.0,
        ..first
    };
    let older = InteractionEvent {
        src: first.dst,
        dst: shared,
        edge_id: graph.events()[1].edge_id,
        timestamp: first.timestamp,
    };
    let fifo = |server: &StreamServer| {
        let mut out = Vec::new();
        let table = server.neighbor_table();
        table.sample_into(shared, f64::INFINITY, usize::MAX, &mut out);
        out
    };
    let before = {
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        server.submit_for(TenantId(0), newer).unwrap();
        // Lockstep: the newer event commits in an epoch of its own first.
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while server.poll().is_none() {
            assert!(std::time::Instant::now() < give_up, "epoch never delivered");
            std::thread::yield_now();
        }
        server.submit_for(TenantId(1), older).unwrap();
        server.drain();
        while server.poll().is_some() {}
        assert!(
            server.neighbor_table().check_invariants().is_err(),
            "the shared vertex's FIFO goes back in time"
        );
        fifo(&server)
    };
    assert_eq!(before.len(), 2);
    let (server, report) = StreamServer::recover(model, graph, config)
        .expect("a snapshot holding an interleaved FIFO recovers");
    assert_eq!(report.replayed_epochs, 0, "the drain snapshot is current");
    assert_eq!(fifo(&server), before);
}

#[test]
fn ingress_drops_are_durable_and_never_resurrected() {
    // Drop-policy outcomes are part of the durable contract: after a
    // restart, `resume_from` counts drops as consumed feed positions, and a
    // dropped event never reappears in any life's output.
    let (model, graph) = setup(17);
    let events = &graph.events()[..200.min(graph.num_events())];
    let td = TempDir::new("durable-drops");
    let mut config = base_config(td.path(), FsyncPolicy::Always);
    config.stage_capacity = 1;
    config.results_capacity = 2;
    config.max_batch = 5;
    config.tenants = (0..2)
        .map(|i| {
            TenantSpec::new(format!("t{i}"))
                .with_capacity(4)
                .with_policy(OverloadPolicy::DropNewest)
        })
        .collect();
    let mut dropped = Vec::new();
    let mut served = Vec::new();
    {
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        // No polling during submission: the tiny results/stage queues back
        // the pipeline up into the ingress bound so DropNewest actually
        // fires (DropNewest never blocks the submitter).
        for (i, &e) in events.iter().enumerate() {
            let outcome = server.submit_for(TenantId(i as u32 % 2), e).unwrap();
            if !outcome.is_admitted() {
                dropped.push(e);
            }
        }
        while let Some(b) = server.poll() {
            served.push(b);
        }
        server.drain();
        while let Some(b) = server.poll() {
            served.push(b);
        }
        common::assert_conserved(&server.metrics());
    }
    assert!(!dropped.is_empty(), "capacity 4 under burst must drop");

    let (mut server, report) = StreamServer::recover(model.clone(), graph.clone(), config)
        .expect("recover after drained drop-policy session");
    let resumed: u64 = report.resume_from.iter().sum();
    assert_eq!(
        resumed as usize,
        events.len(),
        "resume_from counts drops as consumed submissions"
    );
    assert_eq!(report.readmitted_events, 0);
    while let Some(b) = server.poll() {
        served.push(b);
    }
    server.drain();
    let served_keys = multiset(served.iter().flat_map(|b| b.events.iter()));
    for d in &dropped {
        assert!(
            served_keys.binary_search(&key(d)).is_err(),
            "a dropped event was resurrected by recovery"
        );
    }
    let mut expected = multiset(events.iter());
    let drop_keys = multiset(dropped.iter());
    expected.retain(|k| drop_keys.binary_search(k).is_err());
    assert_eq!(served_keys, expected, "admitted events served exactly once");
}

#[test]
fn fresh_server_refuses_a_directory_with_an_existing_wal() {
    let (model, graph) = setup(5);
    let td = TempDir::new("refuse-existing");
    let config = base_config(td.path(), FsyncPolicy::OnSeal);
    {
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        server.submit(graph.events()[0]).unwrap();
        server.drain();
    }
    let result = catch_unwind(AssertUnwindSafe(move || {
        StreamServer::new(model, graph, config)
    }));
    assert!(
        result.is_err(),
        "StreamServer::new must refuse to append to an existing WAL"
    );
}

#[test]
fn re_served_epochs_are_counted_without_latency_samples() {
    // A re-served epoch never ran this session's pipeline: it counts as
    // served, but adds no zero to the seal→embeddings or the tenant's
    // admit→completion latency.
    let (model, graph) = setup(5);
    let events = &graph.events()[..50];
    let (first, fresh) = events.split_at(48);
    let td = TempDir::new("re-serve-latency");
    let config = ServeConfig {
        // Room for every first-life batch: that client never polls.
        results_capacity: first.len(),
        ..base_config(td.path(), FsyncPolicy::Always)
    };
    {
        // First life: everything sealed and computed, nothing delivered —
        // the client went away before it polled.
        let mut server = StreamServer::new(model.clone(), graph.clone(), config.clone());
        for &e in first {
            server.submit(e).unwrap();
        }
        server.drain();
    }
    let (mut server, report) = StreamServer::recover(model, graph.clone(), config).unwrap();
    assert!(report.re_served_epochs >= 3, "{report:?}");
    assert_eq!(report.readmitted_events, 0, "a drained life leaves no tail");
    let re_served = std::iter::from_fn(|| server.poll()).count();
    assert_eq!(re_served, report.re_served_epochs);
    // Two freshly served one-event batches.
    for &e in fresh {
        server.submit(e).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let b = loop {
            if let Some(b) = server.poll() {
                break b;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fresh batch never served"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(multiset(b.events.iter()), multiset([e].iter()));
    }
    let r = server.drain();
    assert_eq!(r.num_batches, re_served + 2);
    assert_eq!(r.num_events, events.len());
    assert!(r.latency.p50_ms > 0.0, "batch latency {:?}", r.latency);
    let t = &r.tenants[0];
    assert_eq!(t.served, events.len() as u64);
    assert!(t.latency.p50_ms > 0.0, "tenant latency {:?}", t.latency);
}
