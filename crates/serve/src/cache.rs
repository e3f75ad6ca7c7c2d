//! Bounded-staleness hot-vertex embedding cache — the quality axis of the
//! overload-policy spectrum.
//!
//! Production temporal-graph traffic is power-law: a small hot set of
//! vertices absorbs most reads.  Every other overload policy answers a full
//! ingress queue by delaying (`Block`) or discarding
//! (`DropNewest`/`DropOldest`) work; [`OverloadPolicy::ServeStale`] instead
//! answers from this cache — the last embedding *actually served* for each
//! touched vertex, labelled with its age in epoch barriers.
//!
//! ## Placement and contracts
//!
//! * **Population** — the GNN worker (the pipeline's commit point for
//!   results) inserts every `(vertex, embedding)` pair of a [`ServedBatch`]
//!   under the batch's epoch, so a cache entry is by construction exactly
//!   the embedding a client saw at that epoch.  Nothing else writes
//!   embeddings into the cache; a hit is therefore bit-identical to the
//!   originally-served value (property-tested in `tests/cache.rs`).
//! * **Invalidation** — the state worker's epoch-barrier commit is the only
//!   place vertex state changes.  Once per epoch, *before* it writes the
//!   epoch's rows, it calls `EmbeddingCache::expire`: the global
//!   committed-epoch watermark moves to the epoch and every stripe sweeps
//!   its expired entries.  Entry age is `committed_epoch − entry.epoch`;
//!   [`EmbeddingCache::get`] re-checks the bound at lookup time, so even an
//!   entry the sweep has not reached yet can never be answered beyond the
//!   bound.  Because the watermark moves before the writes, it never trails
//!   the state; while the epoch commits it runs one epoch ahead — that
//!   direction only *over*-ages entries, which is conservative: the bound
//!   cannot be violated, an answer can only be refused early.
//! * **Bounded memory** — per-shard FIFO insertion logs cap the entry count
//!   at the configured capacity; overflowing evicts oldest-inserted first.
//!
//! Recovery interplay: a recovered server cold-starts the cache (or seeds
//! it from the bit-exact re-served epochs) and raises the watermark to the
//! recovered epoch before serving, so a post-crash stale answer can never
//! reference pre-crash state beyond the bound.
//!
//! [`ServedBatch`]: crate::pipeline::ServedBatch
//! [`OverloadPolicy::ServeStale`]: tgnn_core::tenancy::OverloadPolicy::ServeStale

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tgnn_graph::sharded::shard_of;
use tgnn_graph::NodeId;
use tgnn_obs::{Histogram, HistogramSnapshot};
use tgnn_tensor::Float;

/// Configuration of the embedding cache (see [`ServeConfig::cache`]).
///
/// [`ServeConfig::cache`]: crate::server::ServeConfig::cache
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry budget across all shards (vertices).  Overflow evicts the
    /// oldest-inserted entries first.
    pub capacity: usize,
    /// Maximum age, in committed epoch barriers, at which a cached
    /// embedding may still be served.  A hit's `age_epochs` never exceeds
    /// this; entries older than the bound are invisible to [`EmbeddingCache::get`]
    /// and swept at the next epoch barrier.
    ///
    /// An epoch is one served micro-batch, and a micro-batch is as large as
    /// load made it: `max_batch` events under the overload this cache
    /// exists for, as few as one or two on a lightly loaded server.  So the
    /// bound is at most `staleness_bound_epochs × max_batch` events of
    /// history and can be far less (64 epochs ≈ 130 events at two-event
    /// batches) — it only ever errs towards fresher answers, never staler.
    pub staleness_bound_epochs: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            staleness_bound_epochs: 64,
        }
    }
}

struct CacheEntry {
    epoch: u64,
    embedding: Vec<Float>,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<NodeId, CacheEntry>,
    /// Insertion order, `(vertex, epoch)`.  Epochs are non-decreasing front
    /// to back (inserters run in epoch order per shard), so expiry pops from
    /// the front.  A vertex re-inserted at a newer epoch leaves its old log
    /// entry behind; the sweep skips log entries whose epoch no longer
    /// matches the map.
    log: VecDeque<(NodeId, u64)>,
}

/// Nearest-rank percentiles over the ages (in epoch barriers) of the
/// session's cache-served stale answers.  Ages up to 31 epochs are exact;
/// older ones read as their histogram bucket's upper bound (≤ 6.25 % high).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaleAgeSummary {
    /// Number of stale answers the distribution covers.
    pub count: u64,
    /// Median age.
    pub p50: u64,
    /// 95th-percentile age.
    pub p95: u64,
    /// 99th-percentile age.
    pub p99: u64,
    /// Oldest answer served — exact, not bucket-rounded.  Never exceeds the
    /// configured staleness bound (property-tested in `tests/cache.rs`).
    pub max: u64,
}

impl StaleAgeSummary {
    fn from_histogram(h: &HistogramSnapshot, max: u64) -> Self {
        // A bucket's upper bound can overshoot the oldest age by one
        // bucket width; the exact maximum caps every percentile.
        Self {
            count: h.count(),
            p50: h.percentile(0.50).min(max),
            p95: h.percentile(0.95).min(max),
            p99: h.percentile(0.99).min(max),
            max,
        }
    }
}

/// Point-in-time counters of the cache (see [`EmbeddingCache::stats`]) —
/// the one cache row of both the serve report and the metrics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered within the staleness bound.
    pub hits: u64,
    /// Lookups that found nothing fresh enough (absent or beyond the bound).
    pub misses: u64,
    /// Entries written by the GNN worker (including recovery seeding).
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries removed by the epoch-barrier expiry sweep.
    pub expired: u64,
    /// Overload events answered stale (each may cover several vertex hits).
    pub served_stale: u64,
    /// Current entry count across all shards.
    pub entries: usize,
    /// The epoch-barrier watermark invalidation has advanced to.
    pub committed_epoch: u64,
    /// The configured staleness bound, in epochs.
    pub staleness_bound: u64,
    /// Age distribution of the stale answers actually served.
    pub stale_age: StaleAgeSummary,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A whole-event cache hit: the `(vertex, embedding, source_epoch)` rows in
/// order of first appearance, plus the answer's age (max across vertices).
pub(crate) type CachedEventHit = (Vec<(NodeId, Vec<Float>, u64)>, u64);

/// The sharded, bounded, epoch-aware embedding cache.  One instance per
/// [`StreamServer`](crate::StreamServer); shared by the GNN worker
/// (population), the state worker (expiry at the epoch barrier), and
/// the admission layer (`ServeStale` lookups).  Cache shards are leaf locks:
/// nothing is acquired while one is held.
pub struct EmbeddingCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard_capacity: usize,
    staleness_bound: u64,
    /// Highest epoch the state worker has expired the cache at.
    committed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
    /// Age (epochs) of the stale-served answers: constant space, however
    /// long the overload lasts.
    stale_age_hist: Histogram,
    /// The oldest of them, exact — the staleness contract's witness.
    stale_age_max: AtomicU64,
}

impl EmbeddingCache {
    /// Builds an empty cache striped over `num_shards` shards (the
    /// pipeline's vertex-shard count).
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or `config.capacity == 0`.
    pub fn new(config: CacheConfig, num_shards: usize) -> Self {
        assert!(num_shards > 0, "cache: need at least one shard");
        assert!(config.capacity > 0, "cache: capacity must be >= 1");
        Self {
            shards: (0..num_shards).map(|_| Mutex::default()).collect(),
            per_shard_capacity: config.capacity.div_ceil(num_shards).max(1),
            staleness_bound: config.staleness_bound_epochs,
            committed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            stale_age_hist: Histogram::new(),
            stale_age_max: AtomicU64::new(0),
        }
    }

    /// The epoch-barrier watermark invalidation has advanced to.
    pub fn committed_epoch(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Epoch-barrier invalidation, called by the state worker once per
    /// epoch before it commits the epoch's writes: advances the global
    /// watermark to `epoch` and sweeps every stripe's now-expired entries.
    pub(crate) fn expire(&self, epoch: u64) {
        self.committed.fetch_max(epoch, Ordering::AcqRel);
        let watermark = self.committed.load(Ordering::Acquire);
        let mut expired = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            while let Some(&(v, e)) = s.log.front() {
                if e + self.staleness_bound >= watermark {
                    break;
                }
                s.log.pop_front();
                // Only remove if the vertex was not re-inserted at a newer
                // epoch (the newer log entry still guards the newer map entry).
                if s.map.get(&v).is_some_and(|entry| entry.epoch == e) {
                    s.map.remove(&v);
                    expired += 1;
                }
            }
        }
        if expired > 0 {
            self.expired.fetch_add(expired, Ordering::Relaxed);
        }
    }

    /// Recovery: raises the watermark to the recovered epoch so post-crash
    /// lookups age entries against the recovered timeline, never a stale
    /// pre-crash one.
    pub(crate) fn set_committed_floor(&self, epoch: u64) {
        self.committed.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Records the embedding served for `v` at `epoch` (the GNN worker's
    /// population path, and recovery's bit-exact re-served seeding).
    pub(crate) fn insert(&self, v: NodeId, epoch: u64, embedding: &[Float]) {
        let mut s = self.shards[shard_of(v, self.shards.len())].lock().unwrap();
        s.map.insert(
            v,
            CacheEntry {
                epoch,
                embedding: embedding.to_vec(),
            },
        );
        s.log.push_back((v, epoch));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while s.log.len() > self.per_shard_capacity {
            let (old_v, old_e) = s.log.pop_front().expect("log is non-empty");
            if s.map.get(&old_v).is_some_and(|entry| entry.epoch == old_e) {
                s.map.remove(&old_v);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up `v`: `Some((embedding, epoch, age_epochs))` when an entry
    /// exists whose age — watermark minus entry epoch — is within the
    /// staleness bound, `None` otherwise.  The embedding is byte-for-byte
    /// the one inserted (i.e. the one served) at `epoch`.
    pub fn get(&self, v: NodeId) -> Option<(Vec<Float>, u64, u64)> {
        self.get_bounded(v, None)
    }

    /// [`Self::get`] under a per-lookup staleness override.  The effective
    /// bound is `min(bound, global)`: the barrier sweep removes entries past
    /// the global bound regardless, so an override can only demand *fresher*
    /// answers, never extend visibility (this is what makes per-tenant
    /// bounds safe on one shared cache).
    pub fn get_bounded(&self, v: NodeId, bound: Option<u64>) -> Option<(Vec<Float>, u64, u64)> {
        let effective = bound.map_or(self.staleness_bound, |b| b.min(self.staleness_bound));
        let watermark = self.committed.load(Ordering::Acquire);
        let s = self.shards[shard_of(v, self.shards.len())].lock().unwrap();
        match s.map.get(&v) {
            Some(entry) => {
                let age = watermark.saturating_sub(entry.epoch);
                if age > effective {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some((entry.embedding.clone(), entry.epoch, age))
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up every vertex an event touches (`src`, and `dst` when
    /// distinct).  All must hit for a stale answer to be possible; returns
    /// the `(vertex, embedding, epoch)` list in order of first appearance
    /// plus the answer's age — the *maximum* age across the vertices.
    #[cfg(test)]
    pub(crate) fn get_event(&self, src: NodeId, dst: NodeId) -> Option<CachedEventHit> {
        self.get_event_bounded(src, dst, None)
    }

    /// Event lookup under a per-lookup staleness override (the per-tenant
    /// `ServeStale` bound; see [`Self::get_bounded`] for the
    /// `min(bound, global)` contract).  `None` applies the global bound
    /// alone.
    pub(crate) fn get_event_bounded(
        &self,
        src: NodeId,
        dst: NodeId,
        bound: Option<u64>,
    ) -> Option<CachedEventHit> {
        let (emb_src, epoch_src, age_src) = self.get_bounded(src, bound)?;
        let mut out = vec![(src, emb_src, epoch_src)];
        let mut age = age_src;
        if dst != src {
            let (emb_dst, epoch_dst, age_dst) = self.get_bounded(dst, bound)?;
            out.push((dst, emb_dst, epoch_dst));
            age = age.max(age_dst);
        }
        Some((out, age))
    }

    /// Counts one overload event answered stale, at `age_epochs`.
    pub(crate) fn record_stale_serve(&self, age_epochs: u64) {
        self.stale_age_hist.record(age_epochs);
        self.stale_age_max.fetch_max(age_epochs, Ordering::Relaxed);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let ages = self.stale_age_hist.snapshot();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            served_stale: ages.count(),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().map.len())
                .sum(),
            committed_epoch: self.committed_epoch(),
            staleness_bound: self.staleness_bound,
            stale_age: StaleAgeSummary::from_histogram(
                &ages,
                self.stale_age_max.load(Ordering::Relaxed),
            ),
        }
    }
}

impl std::fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("staleness_bound", &self.staleness_bound)
            .field("committed_epoch", &self.committed_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, bound: u64, shards: usize) -> EmbeddingCache {
        EmbeddingCache::new(
            CacheConfig {
                capacity,
                staleness_bound_epochs: bound,
            },
            shards,
        )
    }

    #[test]
    fn hit_returns_the_inserted_embedding_bit_for_bit() {
        let c = cache(16, 4, 2);
        let emb = vec![0.125f32, -3.5, 1e-7, f32::MIN_POSITIVE];
        c.insert(7, 3, &emb);
        c.expire(5);
        let (got, epoch, age) = c.get(7).expect("within bound");
        assert_eq!(got, emb, "hit must be bit-identical to the insert");
        assert_eq!(epoch, 3);
        assert_eq!(age, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn entries_beyond_the_staleness_bound_are_never_served() {
        let c = cache(16, 2, 1);
        c.insert(1, 1, &[1.0]);
        c.expire(3);
        assert!(c.get(1).is_some(), "age 2 == bound: still servable");
        c.expire(4);
        assert!(c.get(1).is_none(), "age 3 > bound: refused");
        let s = c.stats();
        assert_eq!(s.misses, 1);
        // The barrier sweep removed it too (epoch 1 + bound 2 < watermark 4).
        assert_eq!(s.expired, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn reinsertion_refreshes_age_and_survives_the_sweep() {
        let c = cache(16, 2, 1);
        c.insert(1, 1, &[1.0]);
        c.insert(1, 5, &[5.0]);
        // Sweeping at watermark 6 pops the stale (1, epoch 1) log entry but
        // must keep the fresher map entry.
        c.expire(6);
        let (emb, epoch, age) = c.get(1).expect("fresh entry survives");
        assert_eq!((emb, epoch, age), (vec![5.0], 5, 1));
        assert_eq!(c.stats().expired, 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest_inserted_first() {
        let c = cache(4, 100, 1);
        for v in 0..6u32 {
            c.insert(v, v as u64 + 1, &[v as Float]);
        }
        let s = c.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 2);
        assert!(c.get(0).is_none() && c.get(1).is_none());
        assert!(c.get(5).is_some());
    }

    #[test]
    fn get_event_needs_every_touched_vertex_and_reports_max_age() {
        let c = cache(16, 10, 2);
        c.insert(1, 2, &[1.0]);
        c.insert(2, 6, &[2.0]);
        c.expire(8);
        let (pairs, age) = c.get_event(1, 2).expect("both cached");
        assert_eq!(pairs.len(), 2);
        assert_eq!(age, 6, "age is the max across touched vertices");
        // Self-loop touches one vertex once.
        let (pairs, _) = c.get_event(2, 2).expect("self-loop");
        assert_eq!(pairs.len(), 1);
        // A missing endpoint refuses the whole answer.
        assert!(c.get_event(1, 3).is_none());
    }

    #[test]
    fn bounded_lookup_tightens_but_never_extends_the_global_bound() {
        let c = cache(16, 4, 1);
        c.insert(1, 1, &[1.0]);
        c.expire(4); // age 3, global bound 4
        assert!(c.get_bounded(1, None).is_some(), "within global bound");
        assert!(
            c.get_bounded(1, Some(2)).is_none(),
            "tenant bound 2 refuses an age-3 entry"
        );
        assert!(
            c.get_bounded(1, Some(100)).is_some(),
            "a looser override still answers (clamped to the global bound)"
        );
        c.expire(6); // age 5 > global 4: swept/refused for all
        assert!(
            c.get_bounded(1, Some(100)).is_none(),
            "override must not see past the global bound"
        );
        // get_event_bounded applies the same override to every endpoint.
        c.insert(2, 6, &[2.0]);
        c.insert(3, 4, &[3.0]);
        assert!(c.get_event_bounded(2, 3, Some(2)).is_some(), "ages 0 and 2");
        c.expire(7);
        assert!(
            c.get_event_bounded(2, 3, Some(2)).is_none(),
            "one endpoint past the tenant bound refuses the whole answer"
        );
    }

    #[test]
    fn stats_track_stale_serves_and_hit_rate() {
        let c = cache(16, 4, 1);
        c.insert(1, 1, &[1.0]);
        c.expire(2);
        assert!(c.get(1).is_some());
        assert!(c.get(9).is_none());
        c.record_stale_serve(1);
        c.record_stale_serve(3);
        let s = c.stats();
        assert_eq!(s.served_stale, 2);
        assert_eq!((s.stale_age.count, s.stale_age.max), (2, 3));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_age_summary_nearest_rank() {
        let c = cache(16, 200, 1);
        assert_eq!(c.stats().stale_age, StaleAgeSummary::default());
        c.record_stale_serve(3);
        let s = c.stats().stale_age;
        assert_eq!((s.count, s.p50, s.p99, s.max), (1, 3, 3, 3));
        let c = cache(16, 200, 1);
        (1..=100).for_each(|age| c.record_stale_serve(age));
        let s = c.stats().stale_age;
        // Ages below 32 are exact; above, a percentile is its bucket's upper
        // bound (50 → 51, 95 → 95, 99 → 99).  The maximum is always exact.
        assert_eq!(
            (s.count, s.p50, s.p95, s.p99, s.max),
            (100, 51, 95, 99, 100)
        );
        let c = cache(16, 200, 1);
        (1..=31).for_each(|age| c.record_stale_serve(age));
        let s = c.stats().stale_age;
        assert_eq!((s.p50, s.p95, s.p99, s.max), (16, 30, 31, 31));
    }
}
