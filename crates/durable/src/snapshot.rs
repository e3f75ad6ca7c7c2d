//! Checksummed, versioned snapshots of the sharded serving state.
//!
//! A snapshot is a directory `snap-{epoch:08}/` under the durability root:
//!
//! ```text
//! snap-00000040/
//!   shard-0000.mem    NodeMemory of shard 0   (magic "TGNM")
//!   shard-0000.nbr    NeighborTable of shard 0 (magic "TGNN")
//!   ...
//!   MANIFEST          written + fsynced last   (magic "TGNS")
//! ```
//!
//! Every shard file is `[magic 4][version u32][epoch u64][shard u32]
//! [payload_len u64][crc32(payload) u32][payload]`; the manifest repeats the
//! per-shard CRC/length pairs and is itself CRC-framed.  **The manifest is
//! the commit point**: a crash mid-snapshot leaves a directory without a
//! valid manifest, which [`list_snapshots`] silently skips and a later
//! snapshot at the same epoch overwrites.
//!
//! ## Format v2
//!
//! A memory payload is `[n u32][dim u32]`, the `n` memory rows, the `n`
//! clocks (`f64`), then one mailbox entry per vertex: a `0` tag for an
//! empty slot, or a `1` tag and a fixed-width message — `s_v ‖ s_u`
//! (`2·dim` floats), the edge id (`u32`), the event time (`f64`).  A
//! message names its edge: the feature is static and the graph holds it,
//! so the image does not (version 1 stored each message's edge feature and
//! length-prefixed every vector).  A neighbor payload is `[n u32]
//! [capacity u32]`, then per vertex its degree and `(neighbor u32, edge
//! u32, timestamp f64)` entries, oldest first.  Both encoders reserve the
//! payload's exact size once, and [`write_snapshot`] computes each
//! payload's CRC once, for the file header and the manifest alike, on the
//! folded CRC kernel ([`crate::crc`]).  [`load_snapshot`] verifies the
//! checksums and that every edge id an image names is an edge of the graph
//! it is loaded for.
//!
//! ## Consistency
//!
//! Shard payloads are captured by the state worker right after it commits
//! the snapshot's epoch, each shard read under its lock
//! (`ShardedMemory::read_shard` / `ShardedNeighborTable::read_shard`), or
//! by the server on quiesced state (warm-up end, drain).  That worker is
//! the state's only writer and commits epoch *k* before it touches epoch
//! *k+1*, so every captured shard is exactly the post-batch state of the
//! snapshot's epoch — program order on one thread is the consistency
//! point, with no global pause.  The codec reads only pending mailbox
//! messages: a consumed slot encodes as an empty one, whatever buffers it
//! keeps for the next message.
//!
//! ## The `floor` flag
//!
//! Recovery normally requires `snapshot.epoch <= acked(WAL)` so that every
//! sealed-but-unacked epoch can be *re-served* from the snapshot forward.
//! Two snapshots are exempt and marked `floor = true`: the warm-up snapshot
//! (warm events are not in the WAL, so no earlier state is reconstructible)
//! and the drain snapshot when everything sealed was already delivered.

use crate::codec::{put_floats, Cursor};
use crate::crc::crc32;
use crate::DurableError;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use tgnn_core::{Message, NodeMemory};
use tgnn_graph::{NeighborEntry, NeighborTable};

/// Format version of shard files and manifests.  Version 2 encodes a
/// mailbox message as its two memory rows, its edge id and its time, at a
/// fixed width; version 1 (per-vector length prefixes and the edge feature
/// itself) is not read.
pub const SNAPSHOT_VERSION: u32 = 2;

const MAGIC_MEM: &[u8; 4] = b"TGNM";
const MAGIC_NBR: &[u8; 4] = b"TGNN";
const MAGIC_MANIFEST: &[u8; 4] = b"TGNS";
/// Encoded size of one shard's [`ShardSums`] in the manifest.
const SHARD_SUMS_LEN: usize = 4 + 8 + 4 + 8;
/// Encoded size of a shard file's header: magic, version, epoch, shard,
/// payload length, payload CRC.
const SHARD_HEADER_LEN: usize = 4 + 4 + 8 + 4 + 8 + 4;

/// Snapshot-wide metadata recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// The epoch barrier the state corresponds to (0 = post-warm-up,
    /// pre-stream).
    pub epoch: u64,
    /// The ack watermark at capture time (results delivered to the client).
    pub acked: u64,
    /// `true` for snapshots that are valid recovery floors even when
    /// `epoch > acked` of the recovered WAL (warm-up / clean drain).
    pub floor: bool,
    /// Number of shards (files) in the snapshot.
    pub num_shards: u32,
    /// Events absorbed into the state so far (warm-up + sealed), for
    /// reporting.
    pub events_total: u64,
    /// Largest event timestamp absorbed (the chronology floor on restart).
    pub max_timestamp: f64,
    /// End timestamp of the warm-up stream (`f64::NEG_INFINITY` when the
    /// server never warmed up).  Warm events are not in the WAL, so this is
    /// the only durable record of the global chronology floor every tenant
    /// starts from.
    pub warm_timestamp: f64,
}

struct ShardSums {
    mem_crc: u32,
    mem_len: u64,
    nbr_crc: u32,
    nbr_len: u64,
}

/// A discovered snapshot: its directory plus the decoded manifest.
pub struct SnapshotEntry {
    /// The `snap-{epoch:08}` directory.
    pub dir: PathBuf,
    /// Decoded manifest metadata.
    pub meta: SnapshotMeta,
    sums: Vec<ShardSums>,
}

impl std::fmt::Debug for SnapshotEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotEntry")
            .field("dir", &self.dir)
            .field("meta", &self.meta)
            .finish()
    }
}

/// A fully loaded, verified snapshot: every checksum matched, and every
/// edge id it names is an edge of the graph it was loaded for.
pub struct LoadedSnapshot {
    /// Manifest metadata.
    pub meta: SnapshotMeta,
    /// Per-shard node memory, index = shard.
    pub memory: Vec<NodeMemory>,
    /// Per-shard neighbor tables, index = shard.
    pub tables: Vec<NeighborTable>,
}

// ---------------------------------------------------------------------------
// Shard payload codecs
// ---------------------------------------------------------------------------

/// Appends one shard's [`NodeMemory`] (rows, clocks, mailbox) to `buf`,
/// reserving the payload's exact size once.
pub fn encode_memory_shard(mem: &NodeMemory, buf: &mut Vec<u8>) {
    let n = mem.num_nodes();
    let dim = mem.memory_dim();
    // Per vertex its row, clock and mailbox tag; per pending message both
    // memory rows, the edge id and the event time.
    let message = 2 * dim * 4 + 4 + 8;
    let len = 8 + n * (dim * 4 + 8 + 1) + mem.pending_messages() * message;
    buf.reserve_exact(len);
    let start = buf.len();
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    buf.extend_from_slice(&(dim as u32).to_le_bytes());
    for v in 0..n {
        put_floats(buf, mem.memory_of(v as u32));
    }
    for v in 0..n {
        buf.extend_from_slice(&mem.last_update(v as u32).to_le_bytes());
    }
    for v in 0..n {
        match mem.cached_message(v as u32) {
            None => buf.push(0),
            Some(m) => {
                buf.push(1);
                put_floats(buf, &m.self_memory);
                put_floats(buf, &m.other_memory);
                buf.extend_from_slice(&m.edge_id.to_le_bytes());
                buf.extend_from_slice(&m.event_time.to_le_bytes());
            }
        }
    }
    debug_assert_eq!(buf.len() - start, len, "memory shard size");
}

/// Decodes a payload produced by [`encode_memory_shard`].
pub fn decode_memory_shard(payload: &[u8]) -> Result<NodeMemory, DurableError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()? as usize;
    let dim = c.u32()? as usize;
    // Every vertex costs at least its row, its clock and its mailbox tag.
    if n.saturating_mul(dim.saturating_mul(4).saturating_add(9)) > payload.len() {
        return Err(DurableError::corrupt("memory shard dimensions implausible"));
    }
    let mut mem = NodeMemory::new(n, dim);
    let rows: Vec<Vec<f32>> = (0..n).map(|_| c.floats(dim)).collect::<Result<_, _>>()?;
    for (v, row) in rows.iter().enumerate() {
        let t = c.f64()?;
        mem.set_memory(v as u32, row, t);
    }
    for v in 0..n {
        match c.u8()? {
            0 => {}
            1 => {
                let message = Message {
                    self_memory: c.floats(dim)?,
                    other_memory: c.floats(dim)?,
                    edge_id: c.u32()?,
                    event_time: c.f64()?,
                };
                mem.store_message(v as u32, message);
            }
            _ => return Err(DurableError::corrupt("unknown mailbox tag")),
        }
    }
    c.done()?;
    Ok(mem)
}

/// Appends one shard's [`NeighborTable`] (per-vertex FIFOs, oldest first)
/// to `buf`, reserving the payload's exact size once.
pub fn encode_neighbor_shard(table: &NeighborTable, buf: &mut Vec<u8>) {
    let n = table.num_nodes();
    let entries_total: usize = (0..n as u32).map(|v| table.degree(v)).sum();
    let len = 8 + 4 * n + 16 * entries_total;
    buf.reserve_exact(len);
    let start = buf.len();
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    buf.extend_from_slice(&(table.capacity() as u32).to_le_bytes());
    let mut entries = Vec::new();
    for v in 0..n {
        entries.clear();
        table.neighbors_into(v as u32, &mut entries);
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in &entries {
            buf.extend_from_slice(&e.neighbor.to_le_bytes());
            buf.extend_from_slice(&e.edge_id.to_le_bytes());
            buf.extend_from_slice(&e.timestamp.to_le_bytes());
        }
    }
    debug_assert_eq!(buf.len() - start, len, "neighbor shard size");
}

/// Decodes a payload produced by [`encode_neighbor_shard`].
pub fn decode_neighbor_shard(payload: &[u8]) -> Result<NeighborTable, DurableError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()? as usize;
    let capacity = c.u32()? as usize;
    if n > payload.len() / 4 + 1 {
        return Err(DurableError::corrupt(
            "neighbor shard node count implausible",
        ));
    }
    // Storage grows with the entries actually read, never with a count the
    // payload has not backed with bytes yet.
    let mut fifos = Vec::with_capacity(n);
    for _ in 0..n {
        let degree = c.u32()? as usize;
        let mut fifo = VecDeque::new();
        for _ in 0..degree {
            fifo.push_back(NeighborEntry {
                neighbor: c.u32()?,
                edge_id: c.u32()?,
                timestamp: c.f64()?,
            });
        }
        fifos.push(fifo);
    }
    c.done()?;
    NeighborTable::from_fifos(capacity, fifos)
        .map_err(|e| DurableError::corrupt(format!("neighbor shard: {e}")))
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

fn shard_header(magic: &[u8; 4], epoch: u64, shard: u32, len: u64, crc: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(SHARD_HEADER_LEN);
    h.extend_from_slice(magic);
    h.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    h.extend_from_slice(&epoch.to_le_bytes());
    h.extend_from_slice(&shard.to_le_bytes());
    h.extend_from_slice(&len.to_le_bytes());
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

fn write_file_synced(path: &Path, parts: &[&[u8]]) -> std::io::Result<u64> {
    let mut f = File::create(path)?;
    let mut total = 0u64;
    for p in parts {
        f.write_all(p)?;
        total += p.len() as u64;
    }
    f.sync_data()?;
    Ok(total)
}

/// Reads and verifies one shard file; its payload is the returned bytes
/// after [`SHARD_HEADER_LEN`].
fn read_shard_file(
    path: &Path,
    magic: &[u8; 4],
    epoch: u64,
    shard: u32,
    want_crc: u32,
    want_len: u64,
) -> Result<Vec<u8>, DurableError> {
    let data = std::fs::read(path).map_err(DurableError::Io)?;
    let mut c = Cursor::new(&data);
    if c.take(4)? != magic {
        return Err(DurableError::corrupt(format!(
            "{}: bad magic",
            path.display()
        )));
    }
    let version = c.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(DurableError::corrupt(format!(
            "{}: unsupported version {version}",
            path.display()
        )));
    }
    if c.u64()? != epoch || c.u32()? != shard {
        return Err(DurableError::corrupt(format!(
            "{}: epoch/shard header mismatch",
            path.display()
        )));
    }
    let len = c.u64()?;
    let crc = c.u32()?;
    if len != want_len || crc != want_crc {
        return Err(DurableError::corrupt(format!(
            "{}: header disagrees with manifest",
            path.display()
        )));
    }
    let payload = c.take(len as usize)?;
    c.done()?;
    if crc32(payload) != crc {
        return Err(DurableError::corrupt(format!(
            "{}: payload checksum mismatch",
            path.display()
        )));
    }
    Ok(data)
}

/// Name of the snapshot directory for an epoch.
pub fn snapshot_dir_name(epoch: u64) -> String {
    format!("snap-{epoch:08}")
}

fn mem_name(shard: usize) -> String {
    format!("shard-{shard:04}.mem")
}

fn nbr_name(shard: usize) -> String {
    format!("shard-{shard:04}.nbr")
}

fn encode_manifest(meta: &SnapshotMeta, sums: &[ShardSums]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&meta.epoch.to_le_bytes());
    p.extend_from_slice(&meta.num_shards.to_le_bytes());
    p.extend_from_slice(&meta.acked.to_le_bytes());
    p.push(meta.floor as u8);
    p.extend_from_slice(&meta.events_total.to_le_bytes());
    p.extend_from_slice(&meta.max_timestamp.to_le_bytes());
    p.extend_from_slice(&meta.warm_timestamp.to_le_bytes());
    for s in sums {
        p.extend_from_slice(&s.mem_crc.to_le_bytes());
        p.extend_from_slice(&s.mem_len.to_le_bytes());
        p.extend_from_slice(&s.nbr_crc.to_le_bytes());
        p.extend_from_slice(&s.nbr_len.to_le_bytes());
    }
    p
}

fn decode_manifest(data: &[u8]) -> Result<(SnapshotMeta, Vec<ShardSums>), DurableError> {
    let mut c = Cursor::new(data);
    if c.take(4)? != MAGIC_MANIFEST {
        return Err(DurableError::corrupt("manifest: bad magic"));
    }
    let version = c.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(DurableError::corrupt(format!(
            "manifest: unsupported version {version}"
        )));
    }
    let len = c.u32()? as usize;
    let crc = c.u32()?;
    let payload = c.take(len)?;
    c.done()?;
    if crc32(payload) != crc {
        return Err(DurableError::corrupt("manifest: checksum mismatch"));
    }
    let mut c = Cursor::new(payload);
    let epoch = c.u64()?;
    let num_shards = c.u32()?;
    let acked = c.u64()?;
    let floor = c.u8()? != 0;
    let events_total = c.u64()?;
    let max_timestamp = c.f64()?;
    let warm_timestamp = c.f64()?;
    // The CRC only proves the bytes are what a writer framed, not that the
    // count is backed by them: reserve nothing the payload does not hold.
    if (num_shards as usize).saturating_mul(SHARD_SUMS_LEN) > payload.len() - c.pos {
        return Err(DurableError::corrupt("manifest: shard count implausible"));
    }
    let mut sums = Vec::with_capacity(num_shards as usize);
    for _ in 0..num_shards {
        sums.push(ShardSums {
            mem_crc: c.u32()?,
            mem_len: c.u64()?,
            nbr_crc: c.u32()?,
            nbr_len: c.u64()?,
        });
    }
    c.done()?;
    Ok((
        SnapshotMeta {
            epoch,
            acked,
            floor,
            num_shards,
            events_total,
            max_timestamp,
            warm_timestamp,
        },
        sums,
    ))
}

/// Writes a snapshot from pre-captured shard payloads (`mem[i]` / `nbr[i]`
/// produced by the encode functions under shard `i`'s lock).  Each payload
/// is checksummed once, for its file header and the manifest alike.  Every
/// shard file is fsynced before the manifest — the commit point — is
/// written and fsynced.  Returns the directory and total bytes written.
///
/// A pre-existing directory for the same epoch (a crashed earlier attempt)
/// is removed first.
pub fn write_snapshot(
    base: &Path,
    meta: &SnapshotMeta,
    mem: &[Vec<u8>],
    nbr: &[Vec<u8>],
) -> std::io::Result<(PathBuf, u64)> {
    assert_eq!(mem.len(), meta.num_shards as usize);
    assert_eq!(nbr.len(), meta.num_shards as usize);
    let dir = base.join(snapshot_dir_name(meta.epoch));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let mut bytes = 0u64;
    let mut sums = Vec::with_capacity(mem.len());
    for (i, (m, t)) in mem.iter().zip(nbr).enumerate() {
        let s = ShardSums {
            mem_crc: crc32(m),
            mem_len: m.len() as u64,
            nbr_crc: crc32(t),
            nbr_len: t.len() as u64,
        };
        let mh = shard_header(MAGIC_MEM, meta.epoch, i as u32, s.mem_len, s.mem_crc);
        bytes += write_file_synced(&dir.join(mem_name(i)), &[&mh, m])?;
        let th = shard_header(MAGIC_NBR, meta.epoch, i as u32, s.nbr_len, s.nbr_crc);
        bytes += write_file_synced(&dir.join(nbr_name(i)), &[&th, t])?;
        sums.push(s);
    }
    let payload = encode_manifest(meta, &sums);
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(MAGIC_MANIFEST);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    header.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes += write_file_synced(&dir.join("MANIFEST"), &[&header, &payload])?;
    // Persist the directory entries themselves (best-effort: directory
    // fsync is not supported everywhere).
    let _ = crate::sync_dir(&dir);
    let _ = crate::sync_dir(base);
    Ok((dir, bytes))
}

/// Scans the durability root for snapshot directories with a valid manifest,
/// sorted by ascending epoch.  Directories without one (crashed mid-write)
/// are skipped, not errors.
pub fn list_snapshots(base: &Path) -> Result<Vec<SnapshotEntry>, DurableError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(base) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(DurableError::Io(e)),
    };
    for entry in entries {
        let entry = entry.map_err(DurableError::Io)?;
        let name = entry.file_name();
        if !name.to_string_lossy().starts_with("snap-") {
            continue;
        }
        let dir = entry.path();
        let Ok(data) = std::fs::read(dir.join("MANIFEST")) else {
            continue; // no committed manifest — crashed attempt
        };
        let Ok((meta, sums)) = decode_manifest(&data) else {
            continue; // torn manifest — crashed attempt
        };
        out.push(SnapshotEntry { dir, meta, sums });
    }
    out.sort_by_key(|e| e.meta.epoch);
    Ok(out)
}

/// Loads and verifies every shard of a snapshot taken over a graph of
/// `num_edges` edges: each payload's checksum, and each edge id a mailbox
/// message or a neighbor entry names — an id the graph does not have would
/// pass every checksum and fail only when a stage reads its feature.
pub fn load_snapshot(
    entry: &SnapshotEntry,
    num_edges: usize,
) -> Result<LoadedSnapshot, DurableError> {
    let edge_in_range = |edge: u32, what: &str, i: usize| {
        if (edge as usize) < num_edges {
            Ok(())
        } else {
            Err(DurableError::corrupt(format!(
                "{}: shard {i} {what} names edge {edge} of {num_edges}",
                entry.dir.display()
            )))
        }
    };
    let mut memory = Vec::with_capacity(entry.sums.len());
    let mut tables = Vec::with_capacity(entry.sums.len());
    for (i, sums) in entry.sums.iter().enumerate() {
        let m = read_shard_file(
            &entry.dir.join(mem_name(i)),
            MAGIC_MEM,
            entry.meta.epoch,
            i as u32,
            sums.mem_crc,
            sums.mem_len,
        )?;
        let shard = decode_memory_shard(&m[SHARD_HEADER_LEN..])?;
        for v in 0..shard.num_nodes() as u32 {
            if let Some(message) = shard.cached_message(v) {
                edge_in_range(message.edge_id, "mailbox", i)?;
            }
        }
        memory.push(shard);
        let t = read_shard_file(
            &entry.dir.join(nbr_name(i)),
            MAGIC_NBR,
            entry.meta.epoch,
            i as u32,
            sums.nbr_crc,
            sums.nbr_len,
        )?;
        let table = decode_neighbor_shard(&t[SHARD_HEADER_LEN..])?;
        for v in 0..table.num_nodes() as u32 {
            for e in table.iter_recent(v) {
                edge_in_range(e.edge_id, "neighbor table", i)?;
            }
        }
        tables.push(table);
    }
    Ok(LoadedSnapshot {
        meta: entry.meta,
        memory,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_core::{MemoryTable, ShardedMemory};
    use tgnn_graph::sharded::{local_index, shard_len};
    use tgnn_tensor::{Float, TensorRng};

    fn sample_memory() -> NodeMemory {
        let mut mem = NodeMemory::new(3, 2);
        mem.set_memory(0, &[1.5, -2.25], 3.0);
        mem.set_memory(2, &[0.125, 7.0], 9.5);
        mem.store_message(
            1,
            Message {
                self_memory: vec![1.0, 2.0],
                other_memory: vec![3.0, 4.0],
                edge_id: 7,
                event_time: 8.25,
            },
        );
        mem
    }

    fn sample_table() -> NeighborTable {
        let mut t = NeighborTable::new(3, 2);
        t.push(
            0,
            NeighborEntry {
                neighbor: 2,
                edge_id: 5,
                timestamp: 1.0,
            },
        );
        t.push(
            0,
            NeighborEntry {
                neighbor: 1,
                edge_id: 6,
                timestamp: 2.0,
            },
        );
        t.push(
            2,
            NeighborEntry {
                neighbor: 0,
                edge_id: 5,
                timestamp: 1.0,
            },
        );
        t
    }

    fn assert_memory_eq(a: &NodeMemory, b: &NodeMemory) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.memory_dim(), b.memory_dim());
        for v in 0..a.num_nodes() as u32 {
            assert_eq!(a.memory_of(v), b.memory_of(v), "row {v}");
            assert_eq!(a.last_update(v), b.last_update(v), "clock {v}");
            assert_eq!(a.cached_message(v), b.cached_message(v), "mailbox {v}");
        }
    }

    fn assert_table_eq(a: &NeighborTable, b: &NeighborTable) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.capacity(), b.capacity());
        for v in 0..a.num_nodes() as u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn memory_shard_roundtrip() {
        let mem = sample_memory();
        let mut buf = Vec::new();
        encode_memory_shard(&mem, &mut buf);
        assert_eq!(buf.capacity(), buf.len(), "one exact reservation");
        assert_memory_eq(&decode_memory_shard(&buf).unwrap(), &mem);
        assert!(decode_memory_shard(&buf[..buf.len() - 1]).is_err());
    }

    /// A restore is not a commit: shards rebuilt by `decode_memory_shard`
    /// (through `set_memory`) leave the table's commit counts at zero, and
    /// the restored update times are what the next commit is checked
    /// against.
    #[test]
    fn decoded_shards_count_no_commits_and_carry_the_update_times() {
        let source = ShardedMemory::new(6, 2, 2);
        let writes: Vec<_> = (0..6u32).map(|v| (v, vec![v as Float; 2], 10.0)).collect();
        source.commit_epoch(1, &writes);
        assert_eq!((source.commits(), source.backward_commits()), (6, 0));

        let restored = ShardedMemory::new(6, 2, 2);
        for s in 0..2 {
            let payload = source.read_shard(s, encoded);
            restored.restore_shard(s, decode_memory_shard(&payload).unwrap());
        }
        assert_eq!((restored.commits(), restored.backward_commits()), (0, 0));
        restored.commit_epoch(2, &[(4, vec![0.0; 2], 10.0), (3, vec![0.0; 2], 5.0)]);
        assert_eq!((restored.commits(), restored.backward_commits()), (2, 1));
    }

    const DIM: usize = 4;
    /// Edges of the graph the samples are taken over.
    const EDGES: usize = 8;

    /// The mailbox as it behaved before slots were reused in place: every
    /// message a fresh allocation, a consumed one dropped.
    struct FreshMailbox {
        rows: Vec<(Vec<Float>, f64)>,
        mailbox: Vec<Option<Message>>,
    }

    impl FreshMailbox {
        fn new(n: usize) -> Self {
            Self {
                rows: vec![(vec![0.0; DIM], 0.0); n],
                mailbox: vec![None; n],
            }
        }

        fn interact(&mut self, src: usize, dst: usize, edge_id: u32, t: f64) {
            let (s, d) = (self.rows[src].0.clone(), self.rows[dst].0.clone());
            for (v, own, other) in [(src, &s, &d), (dst, &d, &s)] {
                self.mailbox[v] = Some(Message {
                    self_memory: own.clone(),
                    other_memory: other.clone(),
                    edge_id,
                    event_time: t,
                });
            }
        }

        /// A `NodeMemory` built fresh with shard `shard` of this state
        /// (vertices `v % shards == shard`, at local index `v / shards`).
        fn build(&self, shards: usize, shard: usize) -> NodeMemory {
            let n = self.rows.len();
            let mut mem = NodeMemory::new(shard_len(n, shards, shard), DIM);
            for v in (shard..n).step_by(shards) {
                let local = local_index(v as u32, shards) as u32;
                mem.set_memory(local, &self.rows[v].0, self.rows[v].1);
                if let Some(m) = &self.mailbox[v] {
                    mem.store_message(local, m.clone());
                }
            }
            mem
        }
    }

    fn encoded(mem: &NodeMemory) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_memory_shard(mem, &mut buf);
        buf
    }

    /// A random stream of interactions (message writes into empty, pending
    /// and consumed slots), consumptions and memory write-backs, applied to
    /// a `NodeMemory`, a `ShardedMemory` and the fresh-allocation reference:
    /// every read agrees, and every snapshot encodes byte for byte as a
    /// `NodeMemory` built fresh — a consumed slot is a `0` tag, nothing of
    /// its old message survives.
    #[test]
    fn in_place_mailbox_reads_and_encodes_as_a_fresh_one() {
        const NODES: usize = 7;
        for (seed, shards) in [(1, 1), (2, 3), (3, 2)] {
            let mut rng = TensorRng::new(seed);
            let mut plain = NodeMemory::new(NODES, DIM);
            let sharded = ShardedMemory::new(NODES, DIM, shards);
            let mut fresh = FreshMailbox::new(NODES);
            let mut epoch = 0;
            let mut head = [0.0; 2 * DIM];
            for step in 0..600 {
                let t = step as f64;
                let v = rng.index(NODES);
                match rng.index(4) {
                    0 | 1 => {
                        let u = rng.index(NODES);
                        let edge = rng.index(EDGES) as u32;
                        plain.cache_interaction_messages(v as u32, u as u32, edge, t);
                        sharded.cache_interaction_messages(v as u32, u as u32, edge, t);
                        fresh.interact(v, u, edge, t);
                    }
                    2 => {
                        let want = fresh.mailbox[v].take();
                        if step % 2 == 0 {
                            assert_eq!(plain.take_message(v as u32), want.as_ref());
                            assert_eq!(sharded.take_message(v as u32), want);
                        } else {
                            // The memory stage's path: the rows read in place.
                            let want = want.map(|m| {
                                let mut h = head;
                                m.write_memories(&mut h);
                                (h, m.edge_id, m.event_time)
                            });
                            let got = plain.take_message_into(v as u32, &mut head);
                            assert_eq!(got.map(|(e, t)| (head, e, t)), want);
                            let got = (&sharded).take_message_into(v as u32, &mut head);
                            assert_eq!(got.map(|(e, t)| (head, e, t)), want);
                        }
                        assert!(plain.cached_message(v as u32).is_none());
                    }
                    _ => {
                        let row: Vec<Float> = (0..DIM).map(|_| rng.normal()).collect();
                        plain.set_memory(v as u32, &row, t);
                        epoch += 1;
                        sharded.commit_epoch(epoch, &[(v as u32, row.clone(), t)]);
                        fresh.rows[v] = (row, t);
                    }
                }
                let pending = fresh.mailbox.iter().flatten().count();
                assert_eq!(plain.pending_messages(), pending);
                assert_eq!(sharded.pending_messages(), pending);
                for v in 0..NODES {
                    assert_eq!(plain.cached_message(v as u32), fresh.mailbox[v].as_ref());
                }
                assert_eq!(encoded(&plain), encoded(&fresh.build(1, 0)), "step {step}");
                for s in 0..shards {
                    sharded.read_shard(s, |m| {
                        assert_eq!(encoded(m), encoded(&fresh.build(shards, s)), "step {step}");
                    });
                }
            }
        }
    }

    /// Every truncated prefix of a payload holding pending and consumed
    /// slots, and every flip of a header byte or mailbox tag, decodes to an
    /// error or to a `NodeMemory` — never a panic.  Pending messages are
    /// fixed width: tag, two memory rows, edge id, time.
    #[test]
    fn memory_shard_decoder_survives_truncation_and_flipped_tags() {
        let mut mem = NodeMemory::new(4, 2);
        mem.set_memory(1, &[0.5, -1.0], 2.0);
        mem.cache_interaction_messages(0, 1, 5, 3.0);
        mem.cache_interaction_messages(2, 3, 6, 4.0);
        let _ = mem.take_message(1);
        let _ = mem.take_message(3);
        let buf = encoded(&mem);
        assert_memory_eq(&decode_memory_shard(&buf).unwrap(), &mem);

        for len in 0..buf.len() {
            assert!(decode_memory_shard(&buf[..len]).is_err(), "prefix {len}");
        }
        // The header (node count, width) and the four mailbox tags.
        let mut positions: Vec<usize> = (0..8).collect();
        let mut at = 8 + 4 * (2 * 4 + 8);
        for v in 0..4u32 {
            positions.push(at);
            at += 1;
            if mem.cached_message(v).is_some() {
                at += 2 * 2 * 4 + 4 + 8;
            }
        }
        assert_eq!(at, buf.len(), "tag positions follow the encoding");
        for &i in &positions {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                if let Ok(m) = decode_memory_shard(&bad) {
                    let _ = encoded(&m);
                }
            }
        }
    }

    #[test]
    fn neighbor_shard_roundtrip() {
        let t = sample_table();
        let mut buf = Vec::new();
        encode_neighbor_shard(&t, &mut buf);
        assert_eq!(buf.capacity(), buf.len(), "one exact reservation");
        assert_table_eq(&decode_neighbor_shard(&buf).unwrap(), &t);
        assert!(decode_neighbor_shard(&buf[..buf.len() - 1]).is_err());
        // Appending reserves the appended payload's size, no more.
        let len = buf.len();
        encode_neighbor_shard(&t, &mut buf);
        assert_eq!((buf.len(), buf.capacity()), (2 * len, 2 * len));
    }

    /// A FIFO whose timestamps go back in time — two tenants sharing vertex
    /// 0, the newer event of one committed before the older event of the
    /// other — encodes and decodes as it is.
    #[test]
    fn neighbor_shard_roundtrips_an_interleaved_fifo() {
        let mut t = sample_table();
        t.push(
            0,
            NeighborEntry {
                neighbor: 2,
                edge_id: 7,
                timestamp: 0.5,
            },
        );
        assert!(t.check_invariants().is_err(), "the FIFO goes back in time");
        let mut buf = Vec::new();
        encode_neighbor_shard(&t, &mut buf);
        assert_table_eq(&decode_neighbor_shard(&buf).unwrap(), &t);
    }

    /// Every truncated prefix of a neighbor payload, and every flip of a
    /// header byte (node count, capacity) or a degree byte, decodes to an
    /// error or to a table within its capacity — never a panic, and never
    /// an allocation the payload does not account for.
    #[test]
    fn neighbor_shard_decoder_survives_truncation_and_flipped_counts() {
        let t = sample_table();
        let mut buf = Vec::new();
        encode_neighbor_shard(&t, &mut buf);
        for len in 0..buf.len() {
            assert!(decode_neighbor_shard(&buf[..len]).is_err(), "prefix {len}");
        }
        let mut positions: Vec<usize> = (0..8).collect();
        let mut at = 8;
        for v in 0..t.num_nodes() as u32 {
            positions.extend(at..at + 4);
            at += 4 + 16 * t.degree(v);
        }
        assert_eq!(at, buf.len(), "count positions follow the encoding");
        for &i in &positions {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                if let Ok(table) = decode_neighbor_shard(&bad) {
                    for v in 0..table.num_nodes() as u32 {
                        assert!(
                            table.degree(v) <= table.capacity(),
                            "byte {i} ^ {mask:#04x}: vertex {v} exceeds capacity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_write_list_load_roundtrip() {
        let base = std::env::temp_dir().join(format!("tgnn-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mem = sample_memory();
        let table = sample_table();
        let mut mbuf = Vec::new();
        encode_memory_shard(&mem, &mut mbuf);
        let mut tbuf = Vec::new();
        encode_neighbor_shard(&table, &mut tbuf);
        let meta = SnapshotMeta {
            epoch: 40,
            acked: 38,
            floor: false,
            num_shards: 1,
            events_total: 123,
            max_timestamp: 55.5,
            warm_timestamp: 12.0,
        };
        let (dir, bytes) = write_snapshot(&base, &meta, &[mbuf], &[tbuf]).unwrap();
        assert!(bytes > 0);
        assert!(dir.ends_with("snap-00000040"));

        let listed = list_snapshots(&base).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].meta, meta);
        let loaded = load_snapshot(&listed[0], EDGES).unwrap();
        assert_memory_eq(&loaded.memory[0], &mem);
        assert_table_eq(&loaded.tables[0], &table);
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// An image whose every checksum holds but which names an edge the
    /// graph does not have — in a mailbox message or a neighbor entry —
    /// fails to load, like a checksum mismatch.
    #[test]
    fn load_rejects_an_edge_id_beyond_the_graph() {
        let base = std::env::temp_dir().join(format!("tgnn-snap-edges-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut within_table = sample_memory(); // mailbox edge 0, table edges 5 and 6
        within_table.store_message(
            1,
            Message {
                self_memory: vec![0.0; 2],
                other_memory: vec![0.0; 2],
                edge_id: 0,
                event_time: 1.0,
            },
        );
        for (epoch, mem, edges) in [(1, sample_memory(), 7), (2, within_table, 6)] {
            let mut mbuf = Vec::new();
            encode_memory_shard(&mem, &mut mbuf);
            let mut tbuf = Vec::new();
            encode_neighbor_shard(&sample_table(), &mut tbuf);
            let meta = SnapshotMeta {
                epoch,
                acked: epoch,
                floor: false,
                num_shards: 1,
                events_total: 3,
                max_timestamp: 9.5,
                warm_timestamp: f64::NEG_INFINITY,
            };
            write_snapshot(&base, &meta, &[mbuf], &[tbuf]).unwrap();
            let listed = list_snapshots(&base).unwrap();
            let entry = listed.iter().find(|e| e.meta.epoch == epoch).unwrap();
            assert!(load_snapshot(entry, EDGES).is_ok(), "epoch {epoch}");
            let err = load_snapshot(entry, edges)
                .err()
                .expect("an edge beyond the graph");
            let what = if epoch == 1 {
                "mailbox"
            } else {
                "neighbor table"
            };
            assert!(err.to_string().contains(what), "epoch {epoch}: {err}");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn corrupt_shard_fails_load_and_missing_manifest_is_skipped() {
        let base = std::env::temp_dir().join(format!("tgnn-snap-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut mbuf = Vec::new();
        encode_memory_shard(&sample_memory(), &mut mbuf);
        let mut tbuf = Vec::new();
        encode_neighbor_shard(&sample_table(), &mut tbuf);
        let meta = SnapshotMeta {
            epoch: 7,
            acked: 7,
            floor: true,
            num_shards: 1,
            events_total: 9,
            max_timestamp: 1.0,
            warm_timestamp: f64::NEG_INFINITY,
        };
        let (dir, _) = write_snapshot(&base, &meta, &[mbuf], &[tbuf]).unwrap();

        // Flip one payload byte in the memory shard: load must fail loudly.
        let mem_path = dir.join("shard-0000.mem");
        let mut data = std::fs::read(&mem_path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&mem_path, &data).unwrap();
        let listed = list_snapshots(&base).unwrap();
        assert!(load_snapshot(&listed[0], EDGES).is_err());

        // A directory without a manifest (crashed mid-write) is skipped.
        std::fs::remove_file(dir.join("MANIFEST")).unwrap();
        assert!(list_snapshots(&base).unwrap().is_empty());
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// Every strict prefix and every single-byte flip of a real manifest
    /// fails to decode, and so does one re-framed with a valid CRC around a
    /// shard count of `u32::MAX` — without reserving room for the sums it
    /// claims — so `list_snapshots` skips its directory.
    #[test]
    fn manifest_decoder_rejects_truncation_flips_and_an_unbacked_shard_count() {
        let base = std::env::temp_dir().join(format!("tgnn-snap-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut mbuf = Vec::new();
        encode_memory_shard(&sample_memory(), &mut mbuf);
        let mut tbuf = Vec::new();
        encode_neighbor_shard(&sample_table(), &mut tbuf);
        let meta = SnapshotMeta {
            epoch: 12,
            acked: 11,
            floor: false,
            num_shards: 2,
            events_total: 40,
            max_timestamp: 9.5,
            warm_timestamp: 1.0,
        };
        let shards = [mbuf.clone(), mbuf];
        let (dir, _) = write_snapshot(&base, &meta, &shards, &[tbuf.clone(), tbuf]).unwrap();
        let manifest = dir.join("MANIFEST");
        let data = std::fs::read(&manifest).unwrap();
        assert_eq!(decode_manifest(&data).unwrap().0, meta);

        for len in 0..data.len() {
            assert!(decode_manifest(&data[..len]).is_err(), "prefix {len}");
        }
        for i in 0..data.len() {
            for mask in 1..=255u8 {
                let mut bad = data.clone();
                bad[i] ^= mask;
                assert!(decode_manifest(&bad).is_err(), "byte {i} ^ {mask:#04x}");
            }
        }

        // The payload follows the 16-byte frame; the shard count follows
        // the epoch.
        let mut payload = data[16..].to_vec();
        payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC_MANIFEST);
        forged.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        forged.extend_from_slice(&crc32(&payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        assert!(decode_manifest(&forged).is_err());
        std::fs::write(&manifest, &forged).unwrap();
        assert!(list_snapshots(&base).unwrap().is_empty());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
