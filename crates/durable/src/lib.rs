//! # tgnn-durable — checksummed snapshots + write-ahead log for tgnn-serve
//!
//! The serving stack keeps all temporal-graph state — node memory, mailbox,
//! neighbor tables, tenant ingress queues — in RAM; this crate makes that
//! state survive a crash or restart **bit-identically**.  Two mechanisms:
//!
//! * **Snapshots** ([`snapshot`]): per-shard, CRC-checked images of
//!   `ShardedMemory` and `ShardedNeighborTable`, captured at epoch barriers
//!   by the state's single writer right after its commit (program order on
//!   that thread is the consistency point, so no global pause is needed)
//!   and committed by a manifest written last.
//!
//! * **A write-ahead log** ([`wal`]): length-prefixed, CRC-framed records of
//!   every admission outcome, eviction, sealed micro-batch, and delivered
//!   epoch, in rotating segments, synced before a sealed batch's results
//!   leave the pipeline.  Replaying
//!   the tail over the latest valid snapshot reproduces the exact pipeline
//!   state — including drops-at-ingress semantics — at the crash point.
//!
//! [`recovery`] derives the restart plan (ack watermark, sealed epochs to
//! replay, per-tenant ingress tails to readmit) from a WAL scan; the serve
//! crate drives the actual replay through its normal stage entry points.
//!
//! The crate is deliberately storage-only: it knows byte formats and
//! invariants, not pipeline scheduling.  Everything is hand-rolled
//! little-endian codec + CRC-32 because the workspace is dependency-free.

#![warn(missing_docs)]

pub(crate) mod codec;
pub mod crc;
pub mod recovery;
pub mod snapshot;
pub mod wal;

use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use crc::crc32;
pub use recovery::{plan_recovery, RecoveryPlan, SealedEpoch};
pub use snapshot::{
    decode_memory_shard, decode_neighbor_shard, encode_memory_shard, encode_neighbor_shard,
    list_snapshots, load_snapshot, write_snapshot, LoadedSnapshot, SnapshotEntry, SnapshotMeta,
};
pub use wal::{
    read_wal, repair_torn_tail, segment_name, AdmitDisposition, TornTail, Wal, WalFaultHook,
    WalFaultPoint, WalRecord, WalScan, WalStats,
};

/// When the WAL writer calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush + fsync after every record: no acknowledged write is ever lost,
    /// at a per-event syscall cost.  What the recovery property tests use so
    /// a simulated crash loses nothing that was admitted.
    Always,
    /// Buffer in user space; flush + fsync at each batch seal (and at
    /// snapshots and drain).  The default: a crash can lose events admitted
    /// after the last seal — exactly the events the client would learn to
    /// resubmit from the recovered resume index.
    OnSeal,
    /// Flush (`write`) at seal without an fsync: the OS decides when a
    /// seal's bytes reach the disk.  Survives process death, not power
    /// loss.  Rotation still syncs each segment it retires and the WAL
    /// directory, and snapshots and drain still sync the whole log.
    Never,
}

impl FsyncPolicy {
    /// Stable CLI/config label.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnSeal => "onseal",
            FsyncPolicy::Never => "never",
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(FsyncPolicy::Always),
            "onseal" | "on-seal" | "seal" => Ok(FsyncPolicy::OnSeal),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected always|onseal|never)"
            )),
        }
    }
}

/// Opt-in durability settings, carried in `ServeConfig::durability`.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Root directory: WAL segments live directly in it, snapshots in
    /// `snap-{epoch:08}/` subdirectories.
    pub dir: PathBuf,
    /// Snapshot interval, in units of **full batches of events**: the server
    /// captures an image every `snapshot_every × max_batch` absorbed events
    /// (plus the warm-up floor snapshot and the final drain snapshot).  `0`
    /// disables interval snapshots.  Events, not epochs, because an epoch
    /// holds whatever arrived while the state worker was busy — `max_batch`
    /// events at saturation (where this *is* "every `n` epochs"), one or two
    /// at partial load, where counting epochs would write a hundred times
    /// the images for the same replay bound.  The default (256) trades
    /// recovery time for serving throughput: a snapshot encodes and fsyncs
    /// the entire sharded state, so it should be rare next to WAL appends,
    /// and the WAL tail it leaves for replay (≤ 256 × `max_batch` events)
    /// recovers in well under a second.
    pub snapshot_every: u64,
    /// When the WAL fsyncs.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Test-only fault injection, consulted at every [`WalFaultPoint`]:
    /// before a `Seal` append, `true` crashes the state worker (freezing the
    /// WAL, so buffered records are lost as in a real crash); before a seal
    /// flush it can stall the GNN worker, and `true` fails the sync point —
    /// the GNN worker panics and nothing from that epoch on is delivered.
    pub wal_fault: Option<WalFaultHook>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with default interval/policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 256,
            fsync: FsyncPolicy::OnSeal,
            segment_bytes: 8 << 20,
            wal_fault: None,
        }
    }

    /// Sets the snapshot interval (full batches of events; see the field).
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Installs a WAL fault-injection hook (tests only).
    pub fn with_wal_fault(mut self, hook: WalFaultHook) -> Self {
        self.wal_fault = Some(hook);
        self
    }
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("dir", &self.dir)
            .field("snapshot_every", &self.snapshot_every)
            .field("fsync", &self.fsync)
            .field("segment_bytes", &self.segment_bytes)
            .field("wal_fault", &self.wal_fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// Errors surfaced by scans, loads, and recovery planning.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// Bytes on disk violate a format or causal invariant.
    Corrupt(String),
}

impl DurableError {
    /// Convenience constructor for [`DurableError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        DurableError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Corrupt(msg) => write!(f, "durable state corrupt: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// `fsync`s a directory, persisting the entries of the files created in it:
/// POSIX makes no promise that a new file's name survives a power loss until
/// its directory is synced, however often the file itself is.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Convenience: wraps a crash-injection closure — called with the epoch at
/// every [`WalFaultPoint::Seal`], `true` = crash — as a [`WalFaultHook`].
pub fn wal_fault_hook(f: impl Fn(u64) -> bool + Send + Sync + 'static) -> WalFaultHook {
    Arc::new(move |point| matches!(point, WalFaultPoint::Seal(epoch) if f(epoch)))
}
