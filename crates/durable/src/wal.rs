//! The write-ahead log: length-prefixed, CRC-framed records in rotating
//! segment files.
//!
//! ## Frame format
//!
//! Every record is one frame, all integers little-endian:
//!
//! ```text
//! [len: u32] [crc32(payload): u32] [payload: len bytes]
//! ```
//!
//! The payload starts with a one-byte tag followed by the record body (see
//! [`WalRecord`]).  A reader walks frames front to back and stops at the
//! first frame that does not validate — a short header, an implausible
//! length, a short payload, or a CRC mismatch.  In the **last** segment that
//! prefix-stop is the normal torn-tail case after a crash (the record was
//! being written when the process died) and the scan reports it as
//! [`TornTail`]; in any earlier segment it is corruption and the scan fails,
//! because a healthy log only ever tears at its very end.
//!
//! ## Segments
//!
//! Records append to `wal-{seq:08}.seg`; when the current segment would
//! exceed the configured byte budget the writer flushes and rotates to
//! `seq + 1`.  Segments are never pruned automatically: the ingress tail of
//! a tenant can contain arbitrarily old admitted-but-unsealed events, and
//! recovery reconstructs those tails by replaying the full admit/evict/seal
//! history (see `recovery`).
//!
//! ## Durability model
//!
//! The writer buffers frames in user space; `flush` moves them to the OS
//! (`write`), and `sync` additionally `fsync`s the file.  The configured
//! [`FsyncPolicy`] decides what each append does; a crash loses exactly the
//! user-space buffered suffix (that is also how the crash-injection tests
//! simulate process death in-process: a [`WalFaultHook`] freezes the writer
//! so buffered bytes are never flushed, then panics the hosting worker).

use crate::crc::crc32;
use crate::{DurableError, FsyncPolicy};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tgnn_graph::InteractionEvent;

/// Largest frame payload the reader accepts; a length above this is treated
/// as an invalid frame (torn tail / corruption), not an allocation request.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Where a [`WalFaultHook`] is consulted, with the epoch concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFaultPoint {
    /// The state worker is about to append this epoch's `Seal` record.
    /// Returning `true` freezes the WAL (buffered, unflushed records are
    /// lost — simulating process death) and makes the caller panic so the
    /// pipeline unwinds as it does on a real worker death.
    Seal(u64),
    /// The serve layer is about to flush this epoch's `Seal` (and every
    /// record appended before it) to make it durable.  The hook may block
    /// to model a stalled disk; returning `true` fails the sync point, as a
    /// failed `fsync` would: the caller panics with the epoch undelivered.
    Sync(u64),
}

/// Test-only fault hook, consulted at every [`WalFaultPoint`].
pub type WalFaultHook = Arc<dyn Fn(WalFaultPoint) -> bool + Send + Sync>;

/// What admission did with a submitted event — the disposition recorded in
/// its [`WalRecord::Admit`] entry so drops-at-ingress survive a restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitDisposition {
    /// Entered the tenant's ingress queue (will be served unless evicted).
    Admitted,
    /// Rejected at the bound by `DropNewest`.
    DroppedNewest,
    /// Rejected by the tenant's token-bucket rate limit (drop policies only;
    /// blocking policies wait for tokens instead).
    DroppedThrottled,
    /// Answered from the embedding cache at the bound (`ServeStale` policy).
    /// Drop-like for recovery: the event never entered an ingress queue, so
    /// it contributes no tail entry — but it *was* a durable submit outcome,
    /// so it counts toward the tenant's resume index.
    ServedStale,
}

impl AdmitDisposition {
    fn to_byte(self) -> u8 {
        match self {
            AdmitDisposition::Admitted => 0,
            AdmitDisposition::DroppedNewest => 1,
            AdmitDisposition::DroppedThrottled => 2,
            AdmitDisposition::ServedStale => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, DurableError> {
        match b {
            0 => Ok(AdmitDisposition::Admitted),
            1 => Ok(AdmitDisposition::DroppedNewest),
            2 => Ok(AdmitDisposition::DroppedThrottled),
            3 => Ok(AdmitDisposition::ServedStale),
            other => Err(DurableError::corrupt(format!(
                "unknown admit disposition byte {other}"
            ))),
        }
    }
}

/// One durable event of the serving session.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A `submit_for` outcome, written under the admission lock *before* the
    /// event becomes visible to the scheduler, so an event can never be
    /// sealed (or served) without a durable admit preceding it in the log.
    Admit {
        /// Tenant-table index of the submitting tenant.
        tenant: u32,
        /// The submitted event.
        event: InteractionEvent,
        /// Whether the event entered the queue or was dropped at ingress.
        disposition: AdmitDisposition,
    },
    /// A `DropOldest` eviction: `event` (the queue head at the time) was
    /// discarded to admit a newer one.  Carries the full event identity
    /// because the evicted head is not necessarily the oldest *admitted*
    /// event — earlier admits may already sit in the scheduler/batcher.
    Evict {
        /// Tenant-table index.
        tenant: u32,
        /// The evicted event.
        event: InteractionEvent,
    },
    /// A sealed micro-batch: the authoritative content and order of pipeline
    /// epoch `epoch`.  Appended *before* the batch is stepped and made
    /// durable before its results leave the pipeline, so every served batch
    /// has a durable seal.  Events carry their tenant because the
    /// weighted-fair scheduler interleaves tenants nondeterministically —
    /// admit order alone cannot reproduce a batch.
    Seal {
        /// 1-based pipeline epoch of the batch.
        epoch: u64,
        /// `(tenant, event)` in batch order.
        events: Vec<(u32, InteractionEvent)>,
    },
    /// Epoch `epoch`'s results were delivered to the client (`poll`).
    /// Recovery re-serves every sealed epoch above the acked watermark.
    Ack {
        /// The delivered epoch.
        epoch: u64,
    },
    /// A snapshot at `epoch` was written and its manifest committed
    /// (informational; recovery trusts snapshot manifests, not marks).
    SnapshotMark {
        /// The snapshot's epoch barrier.
        epoch: u64,
    },
}

const TAG_ADMIT: u8 = 1;
const TAG_EVICT: u8 = 2;
const TAG_SEAL: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_SNAPSHOT_MARK: u8 = 5;

fn put_event(buf: &mut Vec<u8>, e: &InteractionEvent) {
    buf.extend_from_slice(&e.src.to_le_bytes());
    buf.extend_from_slice(&e.dst.to_le_bytes());
    buf.extend_from_slice(&e.edge_id.to_le_bytes());
    buf.extend_from_slice(&e.timestamp.to_le_bytes());
}

use crate::codec::Cursor;

impl WalRecord {
    /// Encodes the record's payload (tag + body, without the frame header).
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Admit {
                tenant,
                event,
                disposition,
            } => {
                buf.push(TAG_ADMIT);
                buf.extend_from_slice(&tenant.to_le_bytes());
                put_event(buf, event);
                buf.push(disposition.to_byte());
            }
            WalRecord::Evict { tenant, event } => {
                buf.push(TAG_EVICT);
                buf.extend_from_slice(&tenant.to_le_bytes());
                put_event(buf, event);
            }
            WalRecord::Seal { epoch, events } => {
                buf.push(TAG_SEAL);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for (tenant, e) in events {
                    buf.extend_from_slice(&tenant.to_le_bytes());
                    put_event(buf, e);
                }
            }
            WalRecord::Ack { epoch } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            WalRecord::SnapshotMark { epoch } => {
                buf.push(TAG_SNAPSHOT_MARK);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    /// Decodes one payload produced by [`Self::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<Self, DurableError> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_ADMIT => WalRecord::Admit {
                tenant: c.u32()?,
                event: c.event()?,
                disposition: AdmitDisposition::from_byte(c.u8()?)?,
            },
            TAG_EVICT => WalRecord::Evict {
                tenant: c.u32()?,
                event: c.event()?,
            },
            TAG_SEAL => {
                let epoch = c.u64()?;
                let n = c.u32()? as usize;
                if n > MAX_PAYLOAD as usize / 24 {
                    return Err(DurableError::corrupt("seal event count implausible"));
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    let tenant = c.u32()?;
                    events.push((tenant, c.event()?));
                }
                WalRecord::Seal { epoch, events }
            }
            TAG_ACK => WalRecord::Ack { epoch: c.u64()? },
            TAG_SNAPSHOT_MARK => WalRecord::SnapshotMark { epoch: c.u64()? },
            tag => return Err(DurableError::corrupt(format!("unknown record tag {tag}"))),
        };
        c.done()?;
        Ok(rec)
    }
}

/// Running totals of the WAL writer, readable without the writer lock.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: AtomicU64,
    /// Frame bytes appended (headers + payloads).
    pub bytes: AtomicU64,
    /// `fsync` calls issued.
    pub fsyncs: AtomicU64,
    /// Segment rotations performed.
    pub rotations: AtomicU64,
}

struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    seq: u64,
    file: Arc<File>,
    /// Bytes already `write`n into the current segment.
    file_bytes: u64,
    /// User-space buffered frames not yet handed to the OS.
    buf: Vec<u8>,
    /// Set by the crash-injection hook: every subsequent append/flush is a
    /// silent no-op, so buffered records are lost exactly as they would be
    /// if the process had died.
    frozen: bool,
    /// Segments retired by rotation whose tails were `write`n but not yet
    /// `fsync`ed — always the segments just below `seq`, oldest first.  The
    /// next sync point drains this list along with the current segment —
    /// without it, a rotation would strand the old segment's tail in the
    /// page cache forever while every later fsync targets only the new
    /// file, and a sync point could vouch for seals that a power loss
    /// would erase.
    pending_sync: Vec<Arc<File>>,
}

/// What one sync point must `fsync`, taken under the writer lock.
struct SyncBatch {
    /// Segments retired since the previous sync point, oldest first: the
    /// ones numbered `seq - retired.len()` up to `seq - 1`.
    retired: Vec<Arc<File>>,
    current: Arc<File>,
    /// The current segment's number.  Every segment below it holds frames
    /// appended before this sync point, so the sync point is complete only
    /// once all of them are synced — the ones another sync point took
    /// included.
    seq: u64,
}

/// Segment file name for a sequence number.
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

impl WalWriter {
    fn open_segment(dir: &Path, seq: u64) -> std::io::Result<Arc<File>> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(segment_name(seq)))
            .map(Arc::new)
    }

    /// Pushes buffered frames to the OS and hands back the segment handle so
    /// the caller can `fsync` it **after releasing the writer lock** — the
    /// disk wait must never stall concurrent appenders (the admission path
    /// logs admits under its own lock while the GNN worker syncs seals;
    /// holding the writer lock across the fsync would serialize ingress with
    /// the disk and cost half the pipeline's throughput).  Syncing a handle
    /// outside the lock is sound: the bytes this flush made visible to the
    /// OS are written before the lock is released, and `sync_data` persists
    /// at least those — concurrent writes landing in the same segment are
    /// synced early, which is harmless.
    fn flush_os(&mut self) -> std::io::Result<Option<Arc<File>>> {
        if self.frozen {
            return Ok(None);
        }
        if !self.buf.is_empty() {
            (&*self.file).write_all(&self.buf)?;
            self.file_bytes += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(Some(Arc::clone(&self.file)))
    }

    /// Flushes and collects *every* handle the caller must fsync to make all
    /// flushed frames durable: segments retired since the last sync point
    /// (their tails were written at rotation but not yet synced), then the
    /// current segment.  `None` when frozen.
    fn flush_for_sync(&mut self) -> std::io::Result<Option<SyncBatch>> {
        Ok(self.flush_os()?.map(|current| SyncBatch {
            retired: std::mem::take(&mut self.pending_sync),
            current,
            seq: self.seq,
        }))
    }
}

/// A shared handle to the write-ahead log: thread-safe appends with the
/// configured [`FsyncPolicy`] applied at the caller's chosen flush points.
pub struct Wal {
    inner: Mutex<WalWriter>,
    policy: FsyncPolicy,
    stats: WalStats,
    /// Retired segments known synced, shared by concurrent sync points.
    retired: Mutex<RetiredSync>,
    /// Signalled when [`RetiredSync::synced_below`] rises or a sync fails.
    retired_cv: Condvar,
}

/// How far the retired segments are synced.  A sync point that took no
/// retired handle may still have to wait here: another sync point can have
/// taken a segment holding an earlier frame and be inside its `fsync`.
struct RetiredSync {
    /// Every segment numbered below this one is synced (or predates this
    /// writer).
    synced_below: u64,
    /// A sync point failed: the watermark will not rise again.
    failed: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Wal {
    /// Opens the log for writing, continuing after segment `last_seq`
    /// (`0` for a fresh log → the first segment is `wal-00000001.seg`).
    /// A recovering server never appends to an existing segment — the old
    /// tail may have been repaired — it always starts `last_seq + 1`.
    pub fn open(
        dir: &Path,
        last_seq: u64,
        segment_bytes: u64,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let seq = last_seq + 1;
        let file = WalWriter::open_segment(dir, seq)?;
        Ok(Self {
            inner: Mutex::new(WalWriter {
                dir: dir.to_path_buf(),
                segment_bytes: segment_bytes.max(4096),
                seq,
                file,
                file_bytes: 0,
                buf: Vec::with_capacity(64 << 10),
                frozen: false,
                pending_sync: Vec::new(),
            }),
            policy,
            stats: WalStats::default(),
            retired: Mutex::new(RetiredSync {
                synced_below: seq,
                failed: false,
            }),
            retired_cv: Condvar::new(),
        })
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Running writer statistics.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Appends one record (buffered).  Under [`FsyncPolicy::Always`] the
    /// record is flushed and fsynced before returning; under the other
    /// policies it becomes durable at the next [`Self::flush`] point.
    pub fn append(&self, rec: &WalRecord) -> std::io::Result<()> {
        self.append_unsynced(rec)?;
        if self.policy == FsyncPolicy::Always {
            self.flush(true)?;
        }
        Ok(())
    }

    /// [`Self::append`] without the [`FsyncPolicy::Always`] fsync: the
    /// record becomes durable at the next [`Self::flush`] point, which a
    /// caller that must not hold its own lock across the disk wait issues
    /// after releasing it.  Any `flush(true)` that starts after this returns
    /// — another appender's included — returns only once this record is
    /// synced, even when a rotation retired its segment and a concurrent
    /// sync point took that segment's handle.
    pub fn append_unsynced(&self, rec: &WalRecord) -> std::io::Result<()> {
        let mut w = self.inner.lock().unwrap();
        if w.frozen {
            return Ok(());
        }
        // Encode straight into the writer buffer — a placeholder header
        // patched after the payload lands — so the hot append path (one per
        // submitted event) allocates nothing.
        let start = w.buf.len();
        w.buf.extend_from_slice(&[0u8; 8]);
        rec.encode_payload(&mut w.buf);
        let len = (w.buf.len() - start - 8) as u32;
        let crc = crc32(&w.buf[start + 8..]);
        w.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        w.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let frame_bytes = (w.buf.len() - start) as u64;
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(frame_bytes, Ordering::Relaxed);
        // Rotate once the segment (including what is buffered for it) would
        // exceed its budget.  The whole buffer still lands in the *current*
        // segment — frames never split across files.  The retiring
        // segment's handle joins the pending-sync list: its just-written
        // tail is only in the page cache, and the next sync point must fsync
        // it too, or it would vouch for bytes a power loss could erase.
        if w.file_bytes + w.buf.len() as u64 >= w.segment_bytes {
            if let Some(retired) = w.flush_os()? {
                w.pending_sync.push(retired);
            }
            w.seq += 1;
            w.file = WalWriter::open_segment(&w.dir, w.seq)?;
            w.file_bytes = 0;
            self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Flushes buffered frames to the OS; with `sync` also fsyncs.  The
    /// caller picks the flush points (batch seal, snapshot, drain) and maps
    /// the configured policy to the `sync` argument.  The fsync itself runs
    /// outside the writer lock (see `WalWriter::flush_os`), so appenders
    /// on other threads proceed while this call waits on the disk.  With
    /// `sync`, it returns once every frame appended before it is synced.
    pub fn flush(&self, sync: bool) -> std::io::Result<()> {
        if sync {
            let batch = self.inner.lock().unwrap().flush_for_sync()?;
            if let Some(batch) = batch {
                self.sync_batch(batch)?;
            }
        } else {
            self.inner.lock().unwrap().flush_os()?;
        }
        Ok(())
    }

    /// `fsync`s a batch collected by `flush_for_sync` (outside the writer
    /// lock): its retired segments, then the current one.  Then it waits
    /// until every segment below its own retired ones is synced — those
    /// went to earlier sync points, which may still be inside their
    /// `fsync` — and raises the retired watermark past its own.  Sync
    /// points take retired segments in order, so the watermark rises
    /// without gaps.
    fn sync_batch(&self, batch: SyncBatch) -> std::io::Result<()> {
        let first = batch.seq - batch.retired.len() as u64;
        let synced = batch
            .retired
            .iter()
            .chain([&batch.current])
            .try_for_each(|f| {
                f.sync_data()?;
                self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        let mut r = self.retired.lock().unwrap();
        if let Err(e) = synced {
            r.failed = true;
            self.retired_cv.notify_all();
            return Err(e);
        }
        while r.synced_below < first {
            if r.failed {
                return Err(std::io::Error::other(
                    "an earlier WAL segment failed to sync",
                ));
            }
            r = self.retired_cv.wait(r).unwrap();
        }
        if r.synced_below < batch.seq {
            r.synced_below = batch.seq;
            self.retired_cv.notify_all();
        }
        Ok(())
    }

    /// Flush at a batch-seal boundary, applying the configured policy:
    /// `Always`/`OnSeal` flush + fsync, `Never` flushes without fsync (the
    /// OS decides when bytes hit the disk; a *process* crash still loses
    /// nothing that was flushed).
    pub fn flush_seal(&self) -> std::io::Result<()> {
        self.flush(self.policy != FsyncPolicy::Never)
    }

    /// Test-only: freezes the writer — every subsequent append/flush becomes
    /// a no-op, so user-space buffered records are lost exactly as in a
    /// process crash.  Irreversible.
    pub fn freeze(&self) {
        self.inner.lock().unwrap().frozen = true;
    }
}

/// A torn (partially written) frame at the end of the final segment.
#[derive(Clone, Debug)]
pub struct TornTail {
    /// The segment holding the torn frame.
    pub path: PathBuf,
    /// Length of the valid frame prefix; bytes past this are garbage.
    pub valid_len: u64,
    /// Bytes past the valid prefix.
    pub lost_bytes: u64,
}

/// Everything a full scan of the log recovered.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every valid record, in append order across all segments.
    pub records: Vec<WalRecord>,
    /// Number of segment files read.
    pub segments: usize,
    /// Highest segment sequence number present (0 when the log is empty);
    /// a recovering writer continues at `last_seq + 1`.
    pub last_seq: u64,
    /// Total valid frame bytes.
    pub valid_bytes: u64,
    /// The torn tail of the final segment, if any.
    pub torn: Option<TornTail>,
}

/// Reads every `wal-*.seg` under `dir` in sequence order and decodes the
/// records.  An invalid frame in the final segment is reported as a torn
/// tail (the crash case); an invalid frame in any earlier segment fails the
/// scan — a healthy log only tears at its end.
pub fn read_wal(dir: &Path) -> Result<WalScan, DurableError> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry.map_err(DurableError::Io)?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(seq) = name
                    .strip_prefix("wal-")
                    .and_then(|s| s.strip_suffix(".seg"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    segs.push((seq, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(DurableError::Io(e)),
    }
    segs.sort();
    let mut scan = WalScan {
        segments: segs.len(),
        last_seq: segs.last().map(|(s, _)| *s).unwrap_or(0),
        ..WalScan::default()
    };
    let last_idx = segs.len().wrapping_sub(1);
    for (i, (_, path)) in segs.iter().enumerate() {
        let data = std::fs::read(path).map_err(DurableError::Io)?;
        let mut pos = 0usize;
        loop {
            if pos == data.len() {
                break;
            }
            let valid = (|| -> Option<(WalRecord, usize)> {
                let header = data.get(pos..pos + 8)?;
                let len = u32::from_le_bytes(header[..4].try_into().unwrap());
                let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
                if len == 0 || len > MAX_PAYLOAD {
                    return None;
                }
                let payload = data.get(pos + 8..pos + 8 + len as usize)?;
                if crc32(payload) != crc {
                    return None;
                }
                let rec = WalRecord::decode_payload(payload).ok()?;
                Some((rec, pos + 8 + len as usize))
            })();
            match valid {
                Some((rec, next)) => {
                    scan.records.push(rec);
                    scan.valid_bytes += (next - pos) as u64;
                    pos = next;
                }
                None if i == last_idx => {
                    scan.torn = Some(TornTail {
                        path: path.clone(),
                        valid_len: pos as u64,
                        lost_bytes: (data.len() - pos) as u64,
                    });
                    break;
                }
                None => {
                    return Err(DurableError::corrupt(format!(
                        "invalid frame at byte {pos} of non-final segment {}",
                        path.display()
                    )))
                }
            }
        }
    }
    Ok(scan)
}

/// Truncates a torn tail off its segment, restoring the "frames only" file
/// invariant so future scans (which only tolerate tears in the final
/// segment) stay sound after the recovered server rotates onward.
pub fn repair_torn_tail(torn: &TornTail) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(&torn.path)?;
    f.set_len(torn.valid_len)?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> InteractionEvent {
        InteractionEvent::new(1, 2, 3, t)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Admit {
                tenant: 0,
                event: ev(1.0),
                disposition: AdmitDisposition::Admitted,
            },
            WalRecord::Admit {
                tenant: 1,
                event: ev(1.5),
                disposition: AdmitDisposition::DroppedNewest,
            },
            WalRecord::Admit {
                tenant: 0,
                event: ev(1.75),
                disposition: AdmitDisposition::ServedStale,
            },
            WalRecord::Evict {
                tenant: 1,
                event: ev(0.5),
            },
            WalRecord::Seal {
                epoch: 7,
                events: vec![(0, ev(1.0)), (1, ev(1.25))],
            },
            WalRecord::Ack { epoch: 7 },
            WalRecord::SnapshotMark { epoch: 7 },
        ]
    }

    #[test]
    fn payload_roundtrip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode_payload(&mut buf);
            assert_eq!(WalRecord::decode_payload(&buf).unwrap(), rec);
        }
        assert!(WalRecord::decode_payload(&[99]).is_err());
        assert!(WalRecord::decode_payload(&[]).is_err());
    }

    #[test]
    fn write_read_roundtrip_with_rotation() {
        let dir = std::env::temp_dir().join(format!("tgnn-wal-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, 0, 4096, FsyncPolicy::OnSeal).unwrap();
        let mut want = Vec::new();
        for i in 0..400u64 {
            let rec = WalRecord::Seal {
                epoch: i,
                events: vec![(0, ev(i as f64)); 4],
            };
            wal.append(&rec).unwrap();
            want.push(rec);
        }
        wal.flush_seal().unwrap();
        assert!(
            wal.stats().rotations.load(Ordering::Relaxed) > 1,
            "4 KiB segments must rotate"
        );
        let scan = read_wal(&dir).unwrap();
        assert!(scan.torn.is_none());
        assert!(scan.segments > 2);
        assert_eq!(scan.records, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repairable() {
        let dir = std::env::temp_dir().join(format!("tgnn-wal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, 0, 1 << 20, FsyncPolicy::Never).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.flush(false).unwrap();
        drop(wal);
        // Append garbage: a torn half-written frame.
        let seg = dir.join(segment_name(1));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.records, sample_records());
        let torn = scan.torn.clone().expect("torn tail detected");
        assert_eq!(torn.lost_bytes, 3);
        repair_torn_tail(&torn).unwrap();
        let rescanned = read_wal(&dir).unwrap();
        assert!(rescanned.torn.is_none());
        assert_eq!(rescanned.records, sample_records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_retired_segments_are_fsynced_at_the_next_sync_point() {
        // Regression: rotation used to discard the retiring segment's handle
        // after write(), so its tail was never fsynced — later syncs hit only
        // the new segment and a sync point could vouch for seals whose bytes
        // sat in a retired segment's page cache.  Every
        // sync point must drain the retired handles too: after R rotations
        // with no intervening sync, one flush(true) issues exactly R+1
        // fsyncs (each retired segment, then the current one).
        let dir = std::env::temp_dir().join(format!("tgnn-wal-rotsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, 0, 4096, FsyncPolicy::OnSeal).unwrap();
        for i in 0..400u64 {
            wal.append(&WalRecord::Seal {
                epoch: i,
                events: vec![(0, ev(i as f64)); 4],
            })
            .unwrap();
        }
        let rotations = wal.stats().rotations.load(Ordering::Relaxed);
        assert!(rotations > 1, "4 KiB segments must rotate");
        assert_eq!(
            wal.stats().fsyncs.load(Ordering::Relaxed),
            0,
            "OnSeal appends must not fsync on their own"
        );
        wal.flush(true).unwrap();
        assert_eq!(
            wal.stats().fsyncs.load(Ordering::Relaxed),
            rotations + 1,
            "one sync point must fsync every retired segment plus the current one"
        );
        // The pending list is drained, not re-synced: another sync touches
        // only the current segment.
        wal.flush(true).unwrap();
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), rotations + 2);

        // Under Always, the rotating append itself syncs both files.
        let dir2 = std::env::temp_dir().join(format!("tgnn-wal-rotsync-a-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let wal2 = Wal::open(&dir2, 0, 4096, FsyncPolicy::Always).unwrap();
        let mut appends = 0u64;
        while wal2.stats().rotations.load(Ordering::Relaxed) == 0 {
            wal2.append(&WalRecord::Seal {
                epoch: appends,
                events: vec![(0, ev(appends as f64)); 4],
            })
            .unwrap();
            appends += 1;
        }
        assert_eq!(
            wal2.stats().fsyncs.load(Ordering::Relaxed),
            appends + 1,
            "the rotating append must fsync the retired segment and the new one"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn a_sync_point_waits_for_a_retired_segment_another_one_is_syncing() {
        // Thread A's append rotates, so its frame sits in the retired
        // segment R; a concurrent sync point S takes R's handle and is
        // inside its fsync.  A later sync point that finds the pending list
        // empty must not return — vouching for the frames before it — until
        // S has synced R.
        let dir = std::env::temp_dir().join(format!("tgnn-wal-retired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, 0, 4096, FsyncPolicy::OnSeal).unwrap();
        let mut epoch = 0u64;
        while wal.stats().rotations.load(Ordering::Relaxed) == 0 {
            wal.append_unsynced(&WalRecord::Ack { epoch }).unwrap();
            epoch += 1;
        }
        let taken = wal.inner.lock().unwrap().flush_for_sync().unwrap().unwrap();
        assert_eq!(taken.retired.len(), 1, "S holds the retired segment");
        std::thread::scope(|s| {
            let later = s.spawn(|| wal.flush(true));
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                !later.is_finished(),
                "a sync point returned while an earlier frame's segment was unsynced"
            );
            wal.sync_batch(taken).unwrap();
            later.join().unwrap().unwrap();
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frozen_writer_loses_buffered_records() {
        let dir = std::env::temp_dir().join(format!("tgnn-wal-freeze-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, 0, 1 << 20, FsyncPolicy::OnSeal).unwrap();
        wal.append(&WalRecord::Ack { epoch: 1 }).unwrap();
        wal.flush(false).unwrap();
        wal.append(&WalRecord::Ack { epoch: 2 }).unwrap();
        wal.freeze();
        wal.flush(true).unwrap(); // no-op: the buffered Ack{2} is gone
        wal.append(&WalRecord::Ack { epoch: 3 }).unwrap();
        drop(wal);
        let scan = read_wal(&dir).unwrap();
        assert_eq!(scan.records, vec![WalRecord::Ack { epoch: 1 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log of every record kind over two segments (the second holds only
    /// the final frame), with each bit of each byte flipped in turn: the
    /// scan never panics and never returns anything but a prefix of what
    /// was written.  A flip in the first segment is mid-log corruption
    /// (`Err`); one in the last frame is an `Err` or a torn tail.
    #[test]
    fn every_bit_flip_fails_the_scan_or_tears_the_tail() {
        let dir = std::env::temp_dir().join(format!("tgnn-wal-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut written = sample_records();
        let wal = Wal::open(&dir, 0, 1 << 20, FsyncPolicy::Never).unwrap();
        for rec in &written {
            wal.append(rec).unwrap();
        }
        wal.flush(false).unwrap();
        let last = WalRecord::Ack { epoch: 8 };
        let wal = Wal::open(&dir, 1, 1 << 20, FsyncPolicy::Never).unwrap();
        wal.append(&last).unwrap();
        wal.flush(false).unwrap();
        drop(wal);
        written.push(last);
        assert_eq!(read_wal(&dir).unwrap().records, written);

        for seq in [1, 2] {
            let path = dir.join(segment_name(seq));
            let good = std::fs::read(&path).unwrap();
            for i in 0..good.len() {
                for bit in 0..8 {
                    let mut bad = good.clone();
                    bad[i] ^= 1 << bit;
                    std::fs::write(&path, &bad).unwrap();
                    let at = format!("segment {seq}, byte {i}, bit {bit}");
                    match read_wal(&dir) {
                        Ok(scan) => {
                            assert_eq!(seq, 2, "{at}: mid-log corruption scanned clean");
                            let torn = scan.torn.expect("a flipped last frame tears");
                            assert_eq!(scan.records, written[..written.len() - 1], "{at}");
                            assert_eq!(torn.valid_len, 0, "{at}");
                        }
                        Err(e) => assert!(matches!(e, DurableError::Corrupt(_)), "{at}: {e}"),
                    }
                }
            }
            std::fs::write(&path, &good).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_scans_clean() {
        let dir = std::env::temp_dir().join(format!("tgnn-wal-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scan = read_wal(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.last_seq, 0);
    }
}
