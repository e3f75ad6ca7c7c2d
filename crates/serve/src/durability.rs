//! Serve-side durability: the shared WAL/snapshot handle the pipeline
//! workers thread through, and the report types recovery produces.
//!
//! The handle is deliberately thin — all formats and invariants live in
//! `tgnn-durable` — but it owns the *policy* decisions that tie the log to
//! the pipeline's lifecycle:
//!
//! * **Admits** are appended by the admission layer under its state lock
//!   (see `AdmissionControl::with_wal`), so an event's `Admit` always
//!   precedes any `Seal` containing it.
//! * **Seals** are appended by the state worker when it seals the batch
//!   (`Durability::append_seal`) and made durable by the GNN worker
//!   before it hands the computed batch on (`Durability::sync_seal`):
//!   the embedding cache and the `gnn→results` queue only ever hold epochs
//!   whose seal is durable, so a batch can only be *delivered* with a
//!   durable seal.  One fsync covers every seal appended before it, so
//!   seals still share fsyncs while the state worker runs ahead, and a slow
//!   disk back-pressures admission like any other slow stage.
//! * **Acks** are appended when `poll` hands a batch to the client; under
//!   `OnSeal`/`Never` the record is written (OS-buffered) without an fsync
//!   so post-drain polls still reach the log.
//! * **Snapshots** are captured at epoch barriers via the
//!   `commit_epoch_with` observers and written *after* a full WAL
//!   flush+fsync, so a snapshot never runs ahead of the durable log.  The
//!   cadence is counted in absorbed **events** (`snapshot_every ×
//!   max_batch`), not epochs: an epoch holds whatever arrived while the
//!   state worker was busy — two events at partial load — and an image per
//!   `snapshot_every` *epochs* would then cost a hundred times the I/O for
//!   the same replay bound.

use crate::metrics::DurabilityObs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tgnn_core::ShardedMemory;
use tgnn_durable::{
    encode_memory_shard, encode_neighbor_shard, write_snapshot, DurabilityConfig, FsyncPolicy,
    SnapshotMeta, Wal, WalFaultHook, WalFaultPoint, WalRecord,
};
use tgnn_graph::{InteractionEvent, ShardedNeighborTable};

/// Durability-side counters surfaced in the serve report and the metrics
/// snapshot when `ServeConfig::durability` is set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DurabilityStats {
    /// WAL records appended this session.
    pub wal_records: u64,
    /// WAL frame bytes appended this session.
    pub wal_bytes: u64,
    /// `fsync` calls issued by the WAL writer.
    pub wal_fsyncs: u64,
    /// WAL segment rotations.
    pub wal_rotations: u64,
    /// Snapshots written this session.
    pub snapshots: u64,
    /// Cumulative wall-clock time spent writing snapshots, in milliseconds.
    pub snapshot_ms_total: f64,
    /// Epoch of the most recent snapshot (0 = none yet).
    pub last_snapshot_epoch: u64,
    /// Highest epoch whose results were delivered to the client.
    pub acked_epoch: u64,
    /// Epochs sealed since the last completed snapshot — how much WAL
    /// replay a crash right now would cost.
    pub snapshot_lag_epochs: u64,
    /// Wall-clock seconds since the last completed snapshot (since the
    /// durability handle was opened when none has completed yet) — makes a
    /// stalled snapshot writer visible even when epochs stop advancing.
    pub snapshot_lag_seconds: f64,
    /// Median seal fsync latency, µs (0 with metrics off).
    pub fsync_p50_us: u64,
    /// p99 seal fsync latency, µs.
    pub fsync_p99_us: u64,
    /// Mean seal fsync latency, µs.
    pub fsync_mean_us: f64,
}

/// What `StreamServer::recover` found in the durability directory and how it
/// resumed.  The recovered server serves the same stream the crashed one
/// would have: epochs sealed but not yet delivered are *re-served* (they
/// come back through `poll` first, with `Disposition::OnTime` and zero
/// latency), and admitted-but-unsealed events are back in their tenants'
/// ingress queues.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Epoch of the snapshot the state was restored from (0 = recovered
    /// from an empty initial state).
    pub snapshot_epoch: u64,
    /// Highest delivered epoch per the WAL — replay re-serves everything
    /// after it.
    pub acked: u64,
    /// Durable sealed epochs found in the WAL.
    pub sealed_epochs: usize,
    /// Sealed epochs replayed through the pipeline stages (those after the
    /// snapshot).
    pub replayed_epochs: usize,
    /// Replayed epochs re-served to the client (sealed but unacked).
    pub re_served_epochs: usize,
    /// Events contained in the replayed epochs.
    pub replayed_events: usize,
    /// Admitted-but-unsealed events put back into tenant ingress queues.
    pub readmitted_events: usize,
    /// Per-tenant durable submit-outcome count (admits *and* drops) — the
    /// event index from which each client should resume submission.
    pub resume_from: Vec<u64>,
    /// Per-tenant events the crashed session answered from the embedding
    /// cache (`ServeStale`) — already delivered, so never replayed; the
    /// recovered cache cold-starts and cannot resurrect them.
    pub served_stale: Vec<u64>,
    /// Whether a torn final WAL record was found and truncated away.
    pub torn_tail_repaired: bool,
    /// Wall-clock time of the whole recovery pass, in milliseconds.
    pub recovery_ms: f64,
}

/// The shared durability handle: one per durable `StreamServer`, threaded
/// into the admission layer, the state and GNN workers, and the server's
/// `poll`/`drain` paths.
pub(crate) struct Durability {
    pub wal: Arc<Wal>,
    wal_fault: Option<WalFaultHook>,
    /// Absorbed events between interval snapshots: `snapshot_every ×
    /// max_batch` (0 = none) — the same cut as "every `snapshot_every`
    /// epochs" whenever batches are full.
    snapshot_interval_events: u64,
    /// `events_total` at which the state worker captures the next interval
    /// snapshot; moved on by every capture, quiesced ones included.
    next_snapshot_at: AtomicU64,
    dir: PathBuf,
    /// Highest epoch delivered to the client (the ack watermark).
    acked: AtomicU64,
    /// Events absorbed into the sharded state (warm-up + committed epochs).
    events_total: AtomicU64,
    /// Largest absorbed event timestamp.
    max_timestamp: Mutex<f64>,
    /// End timestamp of warm-up (`NEG_INFINITY` when the server never
    /// warmed up) — persisted in every manifest; see `SnapshotMeta`.
    warm_timestamp: Mutex<f64>,
    snapshots: AtomicU64,
    snapshot_ms_total: Mutex<f64>,
    last_snapshot_epoch: AtomicU64,
    /// When this handle was opened — the reference point of the wall-clock
    /// snapshot-lag gauge before the first snapshot completes.
    opened: Instant,
    /// Nanoseconds after `opened` at which the last snapshot completed
    /// (0 = none yet).  Time-based lag catches a stalled snapshot writer
    /// even when epochs stop advancing (the epoch-based lag stays flat
    /// then).
    last_snapshot_ns: AtomicU64,
    /// Highest epoch whose `Seal` the state worker has appended: stored
    /// (`Release`) after the append, loaded (`Acquire`) by
    /// [`Self::sync_seal`] before its flush, so that flush sees every seal up
    /// to the loaded epoch.
    sealed: AtomicU64,
    /// Highest epoch whose `Seal` a [`Self::sync_seal`] flush covered; only
    /// the GNN worker touches it.
    synced: AtomicU64,
    /// The in-flight background snapshot write, if any (see
    /// [`Self::spawn_snapshot_write`]).  At most one at a time.
    pending_snapshot: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Span/latency recording handles of the seal sync and the snapshot
    /// writer, attached by the server after the hub exists (the durability
    /// handle is constructed first) and before any worker runs.
    obs: OnceLock<DurabilityObs>,
}

impl Durability {
    /// Opens the WAL (continuing after segment `last_seq`; `0` for a fresh
    /// log) and an idle snapshot writer over the configured directory.
    /// `max_batch` is the server's batch cap — the event count one
    /// `snapshot_every` unit stands for.
    pub fn open(cfg: &DurabilityConfig, last_seq: u64, max_batch: usize) -> std::io::Result<Self> {
        let wal = Arc::new(Wal::open(&cfg.dir, last_seq, cfg.segment_bytes, cfg.fsync)?);
        let snapshot_interval_events = cfg.snapshot_every.saturating_mul(max_batch as u64);
        Ok(Self {
            wal,
            wal_fault: cfg.wal_fault.clone(),
            snapshot_interval_events,
            next_snapshot_at: AtomicU64::new(snapshot_interval_events),
            dir: cfg.dir.clone(),
            acked: AtomicU64::new(0),
            events_total: AtomicU64::new(0),
            max_timestamp: Mutex::new(f64::NEG_INFINITY),
            warm_timestamp: Mutex::new(f64::NEG_INFINITY),
            snapshots: AtomicU64::new(0),
            snapshot_ms_total: Mutex::new(0.0),
            last_snapshot_epoch: AtomicU64::new(0),
            opened: Instant::now(),
            last_snapshot_ns: AtomicU64::new(0),
            sealed: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            pending_snapshot: Mutex::new(None),
            obs: OnceLock::new(),
        })
    }

    /// Attaches the observability handles (idempotent; later calls lose).
    /// Called by `StreamServer::build` between hub construction and worker
    /// spawn; without it the durability workers simply record nothing.
    pub fn set_obs(&self, obs: DurabilityObs) {
        let _ = self.obs.set(obs);
    }

    /// Appends epoch `epoch`'s `Seal` record — the state worker, before it
    /// steps the batch.  The record becomes durable at the GNN worker's
    /// [`Self::sync_seal`] for the epoch.
    pub fn append_seal(&self, epoch: u64, events: Vec<(u32, InteractionEvent)>) {
        if let Some(hook) = &self.wal_fault {
            if hook(WalFaultPoint::Seal(epoch)) {
                // Crash injection: freeze the WAL first so records still in
                // its user-space buffer are lost exactly as a real process
                // death would lose them, then die.
                self.wal.freeze();
                panic!("injected WAL fault at epoch {epoch}");
            }
        }
        self.wal
            .append(&WalRecord::Seal { epoch, events })
            .expect("state: WAL seal append failed");
        self.sealed.store(epoch, Ordering::Release);
    }

    /// Makes epoch `epoch`'s seal durable per the fsync policy — the GNN
    /// worker, after computing the batch and before caching or delivering
    /// it.  `OnSeal` fsyncs, `Never` hands the buffered frames to the OS,
    /// `Always` has nothing to do (the append synced).  A flush covers every
    /// seal appended before it, so an epoch an earlier flush covered costs
    /// nothing.  Under `OnSeal` the fsync is timed as a `wal-sync` span and
    /// into the fsync histogram.
    ///
    /// # Panics
    /// On a failed flush, and when the fault hook fails the sync point
    /// ([`WalFaultPoint::Sync`]): the GNN worker dies with the epoch
    /// undelivered and the pipeline unwinds.
    pub fn sync_seal(&self, epoch: u64) {
        let policy = self.wal.policy();
        if policy == FsyncPolicy::Always || self.synced.load(Ordering::Relaxed) >= epoch {
            return;
        }
        // Every seal appended so far precedes the flush below.
        let covered = self.sealed.load(Ordering::Acquire);
        if let Some(hook) = &self.wal_fault {
            assert!(
                !hook(WalFaultPoint::Sync(epoch)),
                "injected WAL sync failure at epoch {epoch}"
            );
        }
        let fsync = policy == FsyncPolicy::OnSeal;
        let span = self
            .obs
            .get()
            .filter(|_| fsync)
            .map(|o| (o, o.sync.enter(epoch)));
        if let Err(e) = self.wal.flush(fsync) {
            panic!("gnn: WAL seal flush failed at epoch {epoch}: {e}");
        }
        if let Some((o, span)) = span {
            if let Some(t0) = span {
                o.fsync_us.record(t0.elapsed().as_micros() as u64);
            }
            o.sync.exit(epoch, span);
        }
        self.synced.store(covered, Ordering::Relaxed);
    }

    /// Records a committed batch's events for snapshot metadata.  Batches
    /// are chronological, so the last event carries the max timestamp.
    pub fn note_absorbed(&self, events: &[InteractionEvent]) {
        self.events_total
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        if let Some(last) = events.last() {
            let mut mt = self.max_timestamp.lock().unwrap();
            if last.timestamp > *mt {
                *mt = last.timestamp;
            }
        }
    }

    /// Records the warm-up floor for persistence in snapshot manifests.
    pub fn set_warm_timestamp(&self, t: f64) {
        *self.warm_timestamp.lock().unwrap() = t;
    }

    /// Whether the state worker should capture an interval snapshot at the
    /// epoch it is committing: true once `snapshot_every × max_batch` events
    /// have been absorbed since the last capture, and then not again until
    /// as many more have been (a `true` is the caller's commitment to
    /// capture).  Call after [`Self::note_absorbed`] for the epoch.
    pub fn snapshot_due(&self) -> bool {
        if self.snapshot_interval_events == 0
            || self.events_total.load(Ordering::Relaxed)
                < self.next_snapshot_at.load(Ordering::Relaxed)
        {
            return false;
        }
        self.mark_snapshot_captured();
        true
    }

    /// Restarts the interval count from the current absorbed total.  Only
    /// the thread that owns the state (the state worker, or the server while
    /// the pipeline is quiesced) calls this, so a plain store suffices.
    fn mark_snapshot_captured(&self) {
        self.next_snapshot_at.store(
            self.events_total
                .load(Ordering::Relaxed)
                .saturating_add(self.snapshot_interval_events),
            Ordering::Relaxed,
        );
    }

    /// Records delivery of an epoch's results to the client: appends the
    /// `Ack` and raises the watermark.  `drained`: the pipeline is gone.
    pub fn ack(&self, epoch: u64, drained: bool) {
        self.wal
            .append(&WalRecord::Ack { epoch })
            .expect("durability: WAL ack append failed");
        if self.wal.policy() != FsyncPolicy::Always && drained {
            // While the pipeline is live, acks ride the next seal flush; a
            // lost ack tail only re-serves those epochs after a crash (the
            // documented at-least-once contract).  Post-drain there is no
            // later seal, so hand the record to the OS here — that keeps
            // post-drain polls in the log.
            self.wal.flush(false).expect("durability: WAL flush failed");
        }
        self.acked.fetch_max(epoch, Ordering::SeqCst);
    }

    /// The current ack watermark.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Seeds the ack watermark (recovery).
    pub fn set_acked(&self, epoch: u64) {
        self.acked.store(epoch, Ordering::SeqCst);
    }

    /// Seeds the metadata counters from a restored snapshot (recovery).
    pub fn seed_from_snapshot(&self, meta: &SnapshotMeta) {
        self.events_total
            .store(meta.events_total, Ordering::Relaxed);
        *self.max_timestamp.lock().unwrap() = meta.max_timestamp;
        *self.warm_timestamp.lock().unwrap() = meta.warm_timestamp;
        self.mark_snapshot_captured();
    }

    /// Writes a snapshot from pre-captured shard payloads.  The WAL is
    /// flushed and fsynced *first*: a snapshot must never describe state the
    /// durable log cannot account for.  (With a frozen WAL — crash
    /// injection — the flush is a silent no-op; such a snapshot is exactly
    /// one whose epoch exceeds the durable ack watermark, which recovery
    /// refuses to use unless it is a `floor` snapshot, and floor snapshots
    /// are only written on paths that cannot race a freeze.)
    pub fn write_snapshot_payloads(
        &self,
        epoch: u64,
        floor: bool,
        mem: Vec<Vec<u8>>,
        nbr: Vec<Vec<u8>>,
    ) {
        let t0 = Instant::now();
        let span = self.obs.get().map(|o| (o, o.snap.enter(epoch)));
        self.wal
            .flush(true)
            .expect("durability: WAL flush before snapshot failed");
        let meta = SnapshotMeta {
            epoch,
            acked: self.acked(),
            floor,
            num_shards: mem.len() as u32,
            events_total: self.events_total.load(Ordering::Relaxed),
            max_timestamp: *self.max_timestamp.lock().unwrap(),
            warm_timestamp: *self.warm_timestamp.lock().unwrap(),
        };
        write_snapshot(&self.dir, &meta, &mem, &nbr).expect("durability: snapshot write failed");
        self.wal
            .append(&WalRecord::SnapshotMark { epoch })
            .expect("durability: WAL snapshot mark failed");
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.last_snapshot_epoch.store(epoch, Ordering::Relaxed);
        self.last_snapshot_ns
            .store(self.opened.elapsed().as_nanos() as u64, Ordering::Relaxed);
        *self.snapshot_ms_total.lock().unwrap() += t0.elapsed().as_secs_f64() * 1e3;
        if let Some((o, span)) = span {
            o.snap.exit(epoch, span);
        }
    }

    /// Writes an interval snapshot on a background thread.  The *capture* —
    /// encoding every shard at the epoch barrier — already happened in the
    /// state worker's `commit_epoch_with` observers; the file writes and
    /// their fsyncs carry no ordering constraint with pipeline compute, so
    /// they overlap it instead of stalling the single committer for the
    /// duration of the disk I/O.  At most one write is in flight: a new
    /// interval joins the previous one first (snapshot intervals dwarf write
    /// times, so this wait is normally zero), propagating its panic into the
    /// state worker — which unwinds the pipeline — if it failed.
    pub fn spawn_snapshot_write(
        self: &Arc<Self>,
        epoch: u64,
        mem: Vec<Vec<u8>>,
        nbr: Vec<Vec<u8>>,
    ) {
        self.finish_snapshot_write();
        let d = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("tgnn-serve-snap".into())
            .spawn(move || d.write_snapshot_payloads(epoch, false, mem, nbr))
            .expect("durability: failed to spawn snapshot writer");
        *self.pending_snapshot.lock().unwrap() = Some(handle);
    }

    /// Joins the in-flight background snapshot write, if any, propagating
    /// its panic.  Called before quiesced snapshots (warm-up / drain) so
    /// snapshot writes never interleave.
    pub fn finish_snapshot_write(&self) {
        let prev = self.pending_snapshot.lock().unwrap().take();
        if let Some(h) = prev {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Captures and writes a snapshot of quiesced sharded state (no pipeline
    /// activity in flight): warm-up end and clean drain.  `epoch` must be
    /// the structures' current epoch watermark; re-committing it with no
    /// writes runs the capture observers without changing state.
    pub fn snapshot_quiesced(
        &self,
        epoch: u64,
        floor: bool,
        memory: &ShardedMemory,
        table: &ShardedNeighborTable,
    ) {
        self.finish_snapshot_write();
        self.mark_snapshot_captured();
        let n = memory.num_shards();
        let mut mem = vec![Vec::new(); n];
        memory.commit_epoch_with(epoch, &[], |s, m| encode_memory_shard(m, &mut mem[s]));
        let mut nbr = vec![Vec::new(); n];
        table.commit_epoch_with(epoch, &[], |s, t| encode_neighbor_shard(t, &mut nbr[s]));
        self.write_snapshot_payloads(epoch, floor, mem, nbr);
    }

    /// Point-in-time counters; `epochs` is the highest epoch assigned so
    /// far, the reference of the epoch-based snapshot lag.
    pub fn stats(&self, epochs: u64) -> DurabilityStats {
        let w = self.wal.stats();
        let last_snapshot_epoch = self.last_snapshot_epoch.load(Ordering::Relaxed);
        let since_open = self.opened.elapsed().as_nanos() as u64;
        let since_snapshot =
            since_open.saturating_sub(self.last_snapshot_ns.load(Ordering::Relaxed));
        // Empty until the server attaches the workers' handles.
        let fsync = self
            .obs
            .get()
            .map(|o| o.fsync_us.snapshot())
            .unwrap_or_default();
        DurabilityStats {
            wal_records: w.records.load(Ordering::Relaxed),
            wal_bytes: w.bytes.load(Ordering::Relaxed),
            wal_fsyncs: w.fsyncs.load(Ordering::Relaxed),
            wal_rotations: w.rotations.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_ms_total: *self.snapshot_ms_total.lock().unwrap(),
            last_snapshot_epoch,
            acked_epoch: self.acked(),
            snapshot_lag_epochs: epochs.saturating_sub(last_snapshot_epoch),
            snapshot_lag_seconds: since_snapshot as f64 / 1e9,
            fsync_p50_us: fsync.percentile(0.50),
            fsync_p99_us: fsync.percentile(0.99),
            fsync_mean_us: fsync.mean(),
        }
    }
}
