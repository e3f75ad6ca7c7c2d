//! Live observability of the serve pipeline: stage spans, queue depths,
//! latency histograms, and the flight recorder.
//!
//! Everything here is *continuous* — unlike [`ServeReport`](crate::server::ServeReport),
//! which is a drain-time artifact, [`StreamServer::metrics`](crate::StreamServer::metrics)
//! can be called at any moment (under load, after a graceful drain, or while
//! the pipeline is unwinding from a worker panic) and assembles a typed
//! [`MetricsSnapshot`] from lock-free counters.  The recording side is built
//! on `tgnn-obs`: every worker gets a `StageObs` handle at spawn, and each
//! epoch's pass through a stage costs two `Instant` reads, two relaxed
//! counter adds, and two flight-recorder ring writes — budgeted at ≤ 2 % of
//! throughput (`benchmark/`'s `serve.metrics_overhead_pct` row measures
//! it), and a handful of branch-predicted no-ops with
//! [`ServeConfig::metrics`](crate::server::ServeConfig::metrics) off.
//!
//! The **flight recorder** is the post-mortem half: a bounded seqlock ring
//! shared by `Arc`, so it survives a worker panic and the unwind that
//! follows.  After a GNN worker dies mid-epoch, [`MetricsHub::flight_dump`]
//! still returns the faulted epoch's partial timeline — the `Enter` with no
//! matching `Exit` pinpoints the stage that was holding the epoch.

use crate::admission::AdmissionControl;
use crate::cache::{CacheStats, EmbeddingCache};
use crate::durability::Durability;
use crate::pipeline::{Collector, SealReason};
use crate::queue::QueueStats;
use crate::server::{BackendStats, LatencySummary, NS_PER_MS};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tgnn_core::profiling::{Stage, StageTimings};
use tgnn_core::BackendKind;
use tgnn_obs::{
    bucket_index, BurnState, Counter, FlightRecorder, Histogram, HistogramSnapshot, SloEngine,
    SloSpec, SloStatus, SpanKind, TraceSlab, TraceView,
};

pub use crate::admission::AdmissionCounters;

/// The pipeline stages visible to the flight recorder and the stage table.
///
/// These are *logical* stages, each recording its own spans: the ingest
/// worker executes `Scheduler` and `Batcher`, the state worker `Sampler`,
/// `Memory` and `Update`, and `Gnn` covers the whole data-parallel pool
/// (records carry the worker index).  `Deliver` is a point event (the `poll`
/// handoff to the caller), not a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Weighted-fair pull from the tenant ingress queues (pre-epoch: spans
    /// carry epoch 0).
    Scheduler,
    /// Micro-batcher (seals epochs; spans cover sort + WAL append + send).
    Batcher,
    /// Neighbor sampler.
    Sampler,
    /// Memory/GRU stage (also gathers and dispatches the GNN sub-jobs).
    Memory,
    /// Data-parallel GNN pool worker.
    Gnn,
    /// State write-back / epoch committer.
    Update,
    /// Part merge + epoch reorder.
    Reorder,
    /// WAL group-commit fsync worker.
    WalSync,
    /// Background snapshot writer.
    SnapWriter,
    /// Result handed to the caller by `poll` (a `Mark`, not a span).
    Deliver,
}

/// Number of [`StageId`] variants (flight-recorder stage codes are indices).
pub const NUM_STAGES: usize = 10;

/// The worker stages (everything but `Deliver`), in pipeline order.
pub(crate) const WORKER_STAGES: [StageId; 9] = [
    StageId::Scheduler,
    StageId::Batcher,
    StageId::Sampler,
    StageId::Memory,
    StageId::Gnn,
    StageId::Update,
    StageId::Reorder,
    StageId::WalSync,
    StageId::SnapWriter,
];

impl StageId {
    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            StageId::Scheduler => "scheduler",
            StageId::Batcher => "batcher",
            StageId::Sampler => "sampler",
            StageId::Memory => "memory",
            StageId::Gnn => "gnn",
            StageId::Update => "update",
            StageId::Reorder => "reorder",
            StageId::WalSync => "wal-sync",
            StageId::SnapWriter => "snap-writer",
            StageId::Deliver => "deliver",
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            StageId::Scheduler => 0,
            StageId::Batcher => 1,
            StageId::Sampler => 2,
            StageId::Memory => 3,
            StageId::Gnn => 4,
            StageId::Update => 5,
            StageId::Reorder => 6,
            StageId::WalSync => 7,
            StageId::SnapWriter => 8,
            StageId::Deliver => 9,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<StageId> {
        Some(match c {
            0 => StageId::Scheduler,
            1 => StageId::Batcher,
            2 => StageId::Sampler,
            3 => StageId::Memory,
            4 => StageId::Gnn,
            5 => StageId::Update,
            6 => StageId::Reorder,
            7 => StageId::WalSync,
            8 => StageId::SnapWriter,
            9 => StageId::Deliver,
            _ => return None,
        })
    }
}

/// Epochs the causal-trace slab keeps live (ring-evicted beyond this).
/// Tail exemplars are copied out of the slab at delivery, so eviction only
/// bounds how far back [`MetricsHub::trace_dump`] can see — in epochs, so in
/// *events* the window follows the batch size load chose: ~200 k events at
/// saturation, a couple of thousand (≈ 0.1 s at 20 k events/s) on a lightly
/// loaded server sealing two-event batches.
pub(crate) const TRACE_CAPACITY: usize = 1024;

/// How many tail exemplars / head samples the hub retains.
const EXEMPLAR_RING: usize = 8;

/// How many of an epoch's GNN sub-jobs record their informational
/// `GnnSubWait`/`GnnSubCompute` trace segments.  Wide pools would otherwise
/// exhaust the per-trace segment cap
/// ([`MAX_TRACE_SEGMENTS`](tgnn_obs::MAX_TRACE_SEGMENTS)) and evict the
/// additive delivery-side segments the conservation check depends on.
pub(crate) const GNN_SUB_TRACE_PARTS: usize = 8;

/// SLO lane index of the admit→deliver latency objective.
pub(crate) const SLO_LANE_LATENCY: usize = 0;
/// SLO lane index of the drop-rate objective.
pub(crate) const SLO_LANE_DROPS: usize = 1;

/// The serve pipeline's causal-trace segment taxonomy.
///
/// The **additive** segments tile a traced epoch's admit→deliver wall time
/// without gaps or overlap, so their sum reconciles with the measured
/// [`Total`](SegmentId::Total) (asserted within epsilon by the serve
/// crate's trace-conservation tests).  The two `GnnSub*` codes are
/// *informational*: one pair per data-parallel sub-job, overlapping the
/// epoch-level [`Gnn`](SegmentId::Gnn) wall-time segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SegmentId {
    /// First admit of the epoch → pulled by the ingest worker (ingress
    /// queue wait).
    IngressWait,
    /// Pulled → epoch sealed (size/deadline wait, chronological sort, WAL
    /// `Seal` append).
    SealWait,
    /// Sealed → sampled: the `ingest→state` queue wait, the previous epoch's
    /// commit, and the neighbor sampling itself.
    Sample,
    /// Memory/GRU stage, including the gather and GNN sub-job dispatch.
    Memory,
    /// GNN pool wall time: dispatch → the *last* sub-part finished (the
    /// parts run in parallel; this is the epoch-level envelope).
    Gnn,
    /// Last part finished → epoch merged back into order by the reorder
    /// worker (barrier wait on earlier epochs plus the merge itself).
    ReorderBarrier,
    /// Time delivery was observed blocked on the WAL group-commit
    /// watermark (zero without durability or when the fsync won the race).
    WalSyncWait,
    /// Reorder completion → `poll` handoff, minus the WAL-sync wait.
    Deliver,
    /// One GNN sub-job's dispatch→start wait (informational, not additive).
    GnnSubWait,
    /// One GNN sub-job's compute time (informational, not additive).
    GnnSubCompute,
    /// The measured admit→deliver latency the additive segments reconcile
    /// against (recorded once, at delivery).
    Total,
}

impl SegmentId {
    /// Every segment code, in code order.
    pub const ALL: [SegmentId; 11] = [
        SegmentId::IngressWait,
        SegmentId::SealWait,
        SegmentId::Sample,
        SegmentId::Memory,
        SegmentId::Gnn,
        SegmentId::ReorderBarrier,
        SegmentId::WalSyncWait,
        SegmentId::Deliver,
        SegmentId::GnnSubWait,
        SegmentId::GnnSubCompute,
        SegmentId::Total,
    ];

    /// The stable wire code stored in trace segments.
    pub fn code(self) -> u8 {
        match self {
            SegmentId::IngressWait => 0,
            SegmentId::SealWait => 1,
            SegmentId::Sample => 2,
            SegmentId::Memory => 3,
            SegmentId::Gnn => 4,
            SegmentId::ReorderBarrier => 5,
            SegmentId::WalSyncWait => 6,
            SegmentId::Deliver => 7,
            SegmentId::GnnSubWait => 8,
            SegmentId::GnnSubCompute => 9,
            SegmentId::Total => 10,
        }
    }

    /// Decodes a trace-segment code.
    pub fn from_code(c: u8) -> Option<SegmentId> {
        SegmentId::ALL.get(c as usize).copied()
    }

    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SegmentId::IngressWait => "ingress-wait",
            SegmentId::SealWait => "seal-wait",
            SegmentId::Sample => "sample",
            SegmentId::Memory => "memory",
            SegmentId::Gnn => "gnn",
            SegmentId::ReorderBarrier => "reorder-barrier",
            SegmentId::WalSyncWait => "wal-sync-wait",
            SegmentId::Deliver => "deliver",
            SegmentId::GnnSubWait => "gnn-sub-wait",
            SegmentId::GnnSubCompute => "gnn-sub-compute",
            SegmentId::Total => "total",
        }
    }

    /// Whether this segment is part of the additive admit→deliver
    /// decomposition (the conservation sum includes exactly these).
    pub fn is_additive(self) -> bool {
        self.code() <= SegmentId::Deliver.code()
    }
}

/// Declared service-level objectives (`ServeConfig::slo`).
///
/// Two objectives are evaluated over fast (5 s) / slow (60 s) burn-rate
/// windows (see [`tgnn_obs::SloEngine`]): **latency** — the fraction of
/// delivered batches whose admit→deliver latency exceeds
/// `latency_objective` must stay within `latency_budget` — and **drops** —
/// the fraction of submit outcomes lost to drop policies must stay within
/// `drop_budget`.  Their evaluated [`SloStatus`] rides every
/// [`MetricsSnapshot`]; with `preempt_stale` set, a fired objective
/// additionally flips `ServeStale` tenants into cache serving *before*
/// their ingress queue is hard-full.
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// Admit→deliver latency threshold: a delivered batch slower than this
    /// is "bad" for the latency objective.
    pub latency_objective: Duration,
    /// Error budget of the latency objective (allowed bad fraction).
    pub latency_budget: f64,
    /// Error budget of the drop-rate objective (allowed dropped fraction).
    pub drop_budget: f64,
    /// Burn rate at or above which an objective fires (both windows).
    pub fire_burn_rate: f64,
    /// Let a fired objective pre-emptively serve `ServeStale` tenants from
    /// the cache while their queues still have space (counted in
    /// [`AdmissionCounters::preempt_stale`]).
    pub preempt_stale: bool,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_objective: Duration::from_millis(50),
            latency_budget: 0.01,
            drop_budget: 0.01,
            fire_burn_rate: 1.0,
            preempt_stale: false,
        }
    }
}

/// Builds the burn-rate engine for a declared [`SloConfig`]: lane
/// [`SLO_LANE_LATENCY`] grades delivered batches, lane [`SLO_LANE_DROPS`]
/// grades submit outcomes.
pub(crate) fn new_slo_engine(c: &SloConfig) -> Arc<SloEngine> {
    Arc::new(SloEngine::new(vec![
        SloSpec::new("latency", c.latency_budget, c.fire_burn_rate),
        SloSpec::new("drops", c.drop_budget, c.fire_burn_rate),
    ]))
}

/// Cloneable recording handle onto the SLO engine; a no-op `Default` when
/// no objectives are configured, so callers never branch on configuration.
#[derive(Clone, Default)]
pub(crate) struct SloHandle {
    engine: Option<Arc<SloEngine>>,
    latency_objective: Duration,
}

impl SloHandle {
    pub fn new(engine: Option<Arc<SloEngine>>, cfg: Option<&SloConfig>) -> Self {
        SloHandle {
            engine,
            latency_objective: cfg.map(|c| c.latency_objective).unwrap_or_default(),
        }
    }

    /// Grades one delivered batch of `events` against the latency objective.
    #[inline]
    pub fn record_batch_latency(&self, latency: Duration, events: u64) {
        if let Some(e) = &self.engine {
            if latency <= self.latency_objective {
                e.record_many(SLO_LANE_LATENCY, events, 0);
            } else {
                e.record_many(SLO_LANE_LATENCY, 0, events);
            }
        }
    }

    /// Feeds one submit outcome into the drop-rate objective.
    #[inline]
    pub fn record_submit(&self, dropped: bool) {
        if let Some(e) = &self.engine {
            e.record(SLO_LANE_DROPS, !dropped);
        }
    }

    /// Whether any objective currently fires (cached per 100 ms tick).
    #[inline]
    pub fn fired(&self) -> bool {
        self.engine.as_ref().is_some_and(|e| e.fired())
    }
}

/// Per-worker recording handle, registered once at pipeline spawn.  With
/// metrics off every method is a branch-predicted no-op; with metrics on,
/// an `enter`/`exit` pair costs two ring writes plus two relaxed adds.
#[derive(Clone)]
pub(crate) struct StageObs {
    enabled: bool,
    stage: StageId,
    worker: u16,
    recorder: Arc<FlightRecorder>,
    busy_ns: Counter,
    batches: Counter,
    /// The shared causal-trace slab; `None` with metrics off.
    trace: Option<Arc<TraceSlab>>,
}

impl StageObs {
    /// Marks the start of this worker's work on `epoch` (0 = pre-epoch).
    #[inline]
    pub fn enter(&self, epoch: u64) -> Option<Instant> {
        self.enter_sampled(epoch, true)
    }

    /// Marks the end of the span opened by [`Self::enter`] — including the
    /// downstream handoff, so busy time counts backpressure blocking (idle
    /// is strictly "waiting for input").
    #[inline]
    pub fn exit(&self, epoch: u64, span: Option<Instant>) {
        self.exit_sampled(epoch, span, true);
    }

    /// [`Self::enter`] with the flight-ring write gated on `record`.  Busy
    /// time and batch counts still accumulate on every call — only the
    /// timeline event is skipped.  For stages whose unit of work is one
    /// *event* rather than one epoch (the `scheduler` stage pulling a
    /// trickling feed one event at a time), recording every span would both
    /// dominate the stage's own cost and flood the bounded ring, evicting
    /// the per-epoch timeline the recorder exists to keep.
    #[inline]
    pub fn enter_sampled(&self, epoch: u64, record: bool) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        if record {
            self.recorder
                .record(self.stage.code(), self.worker, epoch, SpanKind::Enter);
        }
        Some(Instant::now())
    }

    /// [`Self::exit`] with the flight-ring write gated on `record` (pair it
    /// with the same `record` the matching [`Self::enter_sampled`] used, or
    /// the dump shows unbalanced spans).
    #[inline]
    pub fn exit_sampled(&self, epoch: u64, span: Option<Instant>, record: bool) {
        let Some(t0) = span else { return };
        self.busy_ns.add(t0.elapsed().as_nanos() as u64);
        self.batches.inc();
        if record {
            self.recorder
                .record(self.stage.code(), self.worker, epoch, SpanKind::Exit);
        }
    }

    /// Claims the trace slot for `epoch` (the batcher calls this once, at
    /// seal time, before any stage records segments).
    #[inline]
    pub fn trace_begin(&self, epoch: u64) {
        if let Some(t) = &self.trace {
            t.begin(epoch);
        }
    }

    /// Appends one causal-trace segment to `epoch`'s trace.
    #[inline]
    pub fn trace_record(&self, epoch: u64, seg: SegmentId, duration: Duration) {
        if let Some(t) = &self.trace {
            t.record(epoch, seg.code(), duration);
        }
    }
}

/// The durability workers' observability bundle, attached to the shared
/// [`Durability`] handle after construction (it is created before the hub).
pub(crate) struct DurabilityObs {
    /// Span handle of the `tgnn-serve-wal-sync` worker.
    pub syncer: StageObs,
    /// Span handle of the `tgnn-serve-snap` writer.
    pub snap: StageObs,
    /// Latency of each group-commit `fsync`, in microseconds.
    pub fsync_us: Histogram,
}

/// Construction parameters of [`MetricsHub`] (internal).
pub(crate) struct HubConfig {
    pub enabled: bool,
    pub flight_capacity: usize,
    pub queues: Vec<Box<dyn Fn() -> QueueStats + Send + Sync>>,
    pub collector: Arc<Collector>,
    pub admission: Arc<AdmissionControl>,
    pub durability: Option<Arc<Durability>>,
    pub cache: Option<Arc<EmbeddingCache>>,
    pub next_epoch: Arc<AtomicU64>,
    pub gnn_workers: usize,
    /// `ServeConfig::metrics_sampling`: 1-in-N flight-ring sampling for
    /// per-event stages, shared with trace head-sample retention.
    pub metrics_sampling: u64,
    /// The burn-rate engine (from [`new_slo_engine`]) — built by the server
    /// before the hub so admission control shares the same lanes.
    pub slo_engine: Option<Arc<SloEngine>>,
}

struct HubInner {
    enabled: bool,
    started: Instant,
    recorder: Arc<FlightRecorder>,
    /// Busy-nanoseconds and completed-batch counters, indexed by
    /// `StageId::code()`; the GNN pool's workers share one pair.
    stage_busy_ns: Vec<Counter>,
    stage_batches: Vec<Counter>,
    stage_workers: Vec<u16>,
    /// Group-commit fsync latency, recorded by the WAL syncer (µs).
    wal_fsync_us: Histogram,
    queues: Vec<Box<dyn Fn() -> QueueStats + Send + Sync>>,
    collector: Arc<Collector>,
    admission: Arc<AdmissionControl>,
    durability: Option<Arc<Durability>>,
    cache: Option<Arc<EmbeddingCache>>,
    next_epoch: Arc<AtomicU64>,
    /// The per-epoch causal-trace slab (allocated even with metrics off —
    /// the worker handles just never write to it then).
    trace: Arc<TraceSlab>,
    /// The burn-rate engine, when objectives are declared.
    slo: Option<Arc<SloEngine>>,
    /// Admit→deliver latency of traced deliveries (µs) — the tail-exemplar
    /// reference distribution, distinct from the seal-to-embeddings
    /// `Collector::latency_ns`.
    delivery_latency_us: Histogram,
    /// Tail exemplars: full traces of deliveries that landed in the top
    /// (p99) bucket of `delivery_latency_us`.
    exemplars: Mutex<VecDeque<TraceExemplar>>,
    /// Head samples: every `metrics_sampling`-th delivered epoch's trace.
    head_samples: Mutex<VecDeque<TraceExemplar>>,
    metrics_sampling: u64,
}

/// Cloneable, `Send + Sync` handle to a server's live metrics.  Obtained
/// from [`StreamServer::metrics_hub`](crate::StreamServer::metrics_hub); it
/// does not borrow the server, so a sampler thread (or a panic handler) can
/// keep snapshotting while the owning thread is busy — or gone.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Arc<HubInner>,
}

impl MetricsHub {
    pub(crate) fn new(cfg: HubConfig) -> Self {
        let mut stage_workers = vec![1u16; NUM_STAGES];
        stage_workers[StageId::Gnn.code() as usize] = cfg.gnn_workers as u16;
        let slo = cfg.slo_engine;
        MetricsHub {
            inner: Arc::new(HubInner {
                enabled: cfg.enabled,
                started: Instant::now(),
                recorder: Arc::new(FlightRecorder::new(cfg.flight_capacity)),
                stage_busy_ns: (0..NUM_STAGES).map(|_| Counter::new()).collect(),
                stage_batches: (0..NUM_STAGES).map(|_| Counter::new()).collect(),
                stage_workers,
                wal_fsync_us: Histogram::new(),
                queues: cfg.queues,
                collector: cfg.collector,
                admission: cfg.admission,
                durability: cfg.durability,
                cache: cfg.cache,
                next_epoch: cfg.next_epoch,
                trace: Arc::new(TraceSlab::new(TRACE_CAPACITY)),
                slo,
                delivery_latency_us: Histogram::new(),
                exemplars: Mutex::new(VecDeque::new()),
                head_samples: Mutex::new(VecDeque::new()),
                metrics_sampling: cfg.metrics_sampling.max(1),
            }),
        }
    }

    /// The recording handle a worker loop carries.
    pub(crate) fn stage_obs(&self, stage: StageId, worker: u16) -> StageObs {
        let code = stage.code() as usize;
        StageObs {
            enabled: self.inner.enabled,
            stage,
            worker,
            recorder: self.inner.recorder.clone(),
            busy_ns: self.inner.stage_busy_ns[code].clone(),
            batches: self.inner.stage_batches[code].clone(),
            trace: self.inner.enabled.then(|| self.inner.trace.clone()),
        }
    }

    /// The observability bundle for the durability workers.
    pub(crate) fn durability_obs(&self) -> DurabilityObs {
        DurabilityObs {
            syncer: self.stage_obs(StageId::WalSync, 0),
            snap: self.stage_obs(StageId::SnapWriter, 0),
            fsync_us: self.inner.wal_fsync_us.clone(),
        }
    }

    /// Records delivery of an epoch's results to the caller (`poll`) and —
    /// for traced epochs — finalizes the epoch's causal trace with its
    /// delivery-side segments:
    ///
    /// * `total` — the measured admit→deliver latency ([`SegmentId::Total`],
    ///   the reconciliation reference);
    /// * `wal_wait` — time delivery was observed blocked on the WAL
    ///   group-commit watermark ([`SegmentId::WalSyncWait`]);
    /// * `since_reorder` — reorder completion → this handoff; minus
    ///   `wal_wait` it becomes [`SegmentId::Deliver`].
    ///
    /// `traced` is false for results that never ran the pipeline in this
    /// session (stale cache answers, recovery re-serves) — their epochs own
    /// no trace slot, and writing would only inflate the conflict counter.
    ///
    /// A traced delivery whose `total` lands in the top (p99) bucket of the
    /// admit→deliver histogram has its full trace retained as a **tail
    /// exemplar**; every `metrics_sampling`-th epoch is retained as a
    /// **head sample**.  Both rings ride the [`MetricsSnapshot`].
    pub(crate) fn record_delivery(
        &self,
        epoch: u64,
        traced: bool,
        total: Duration,
        wal_wait: Duration,
        since_reorder: Duration,
    ) {
        let inner = &self.inner;
        if !inner.enabled {
            return;
        }
        inner
            .recorder
            .record(StageId::Deliver.code(), 0, epoch, SpanKind::Mark);
        if !traced {
            return;
        }
        inner
            .trace
            .record(epoch, SegmentId::WalSyncWait.code(), wal_wait);
        inner.trace.record(
            epoch,
            SegmentId::Deliver.code(),
            since_reorder.saturating_sub(wal_wait),
        );
        inner.trace.record(epoch, SegmentId::Total.code(), total);
        let us = total.as_micros() as u64;
        inner.delivery_latency_us.record(us);
        // Tail test: the sample was just recorded, so on the very first
        // delivery p99 is the sample's own bucket — at least one exemplar
        // is always captured.
        let tail = bucket_index(us) >= bucket_index(inner.delivery_latency_us.percentile(0.99));
        let head = epoch.is_multiple_of(inner.metrics_sampling);
        if !tail && !head {
            return;
        }
        let Some(view) = inner.trace.snapshot(epoch) else {
            return;
        };
        let push = |ring: &Mutex<VecDeque<TraceExemplar>>, ex: TraceExemplar| {
            let mut ring = ring.lock().unwrap();
            if ring.len() >= EXEMPLAR_RING {
                ring.pop_front();
            }
            ring.push_back(ex);
        };
        let ex = TraceExemplar { epoch, total, view };
        if tail {
            push(&inner.exemplars, ex.clone());
        }
        if head {
            push(&inner.head_samples, ex);
        }
    }

    /// Decodes every trace still live in the slab (the most recent
    /// [`TRACE_CAPACITY`](crate::metrics) epochs), sorted by epoch — the
    /// post-drain feed of the bench's blame table and `--trace-out` dump.
    pub fn trace_dump(&self) -> Vec<TraceView> {
        self.inner.trace.dump()
    }

    /// Live per-queue statistics, ingest→state first.
    pub(crate) fn queue_stats(&self) -> Vec<QueueStats> {
        self.inner.queues.iter().map(|q| q()).collect()
    }

    /// Table-I-shaped busy-time breakdown from the worker span counters:
    /// sampler → `sample`, memory → `memory`, GNN pool (summed) → `gnn`,
    /// update → `update`.  The serve-path mirror of what
    /// `InferenceEngine` reports through `core::profiling`.
    pub(crate) fn stage_timings(&self) -> StageTimings {
        let busy =
            |s: StageId| Duration::from_nanos(self.inner.stage_busy_ns[s.code() as usize].get());
        let mut t = StageTimings::default();
        t.add(Stage::Sample, busy(StageId::Sampler));
        t.add(Stage::Memory, busy(StageId::Memory));
        t.add(Stage::Gnn, busy(StageId::Gnn));
        t.add(Stage::Update, busy(StageId::Update));
        t
    }

    /// Whether this session records metrics (`ServeConfig::metrics`).
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Assembles a point-in-time [`MetricsSnapshot`].  Lock-free on the hot
    /// counters; the queue depths and tenant counters take their short
    /// registration locks.  Callable at any moment — including while the
    /// pipeline is poisoned.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let uptime = inner.started.elapsed();
        let stages = WORKER_STAGES
            .iter()
            .map(|&s| {
                let code = s.code() as usize;
                let busy = Duration::from_nanos(inner.stage_busy_ns[code].get());
                let workers = inner.stage_workers[code];
                StageSnapshot {
                    stage: s,
                    workers,
                    busy,
                    batches: inner.stage_batches[code].get(),
                    busy_frac: if uptime.is_zero() {
                        0.0
                    } else {
                        busy.as_secs_f64() / (uptime.as_secs_f64() * workers as f64)
                    },
                }
            })
            .collect();
        // The same histogram `ServeReport::latency` reads.
        let batch_latency =
            LatencySummary::from_histogram(&inner.collector.latency_ns.snapshot(), NS_PER_MS);
        let mut admission = AdmissionTotals::default();
        let mut tenants = Vec::with_capacity(inner.admission.num_tenants());
        for i in 0..inner.admission.num_tenants() {
            let (spec, counters) = inner.admission.tenant_snapshot(i);
            admission.submitted += counters.submitted;
            admission.admitted += counters.admitted;
            admission.dropped_newest += counters.dropped_newest;
            admission.dropped_oldest += counters.dropped_oldest;
            admission.dropped_throttled += counters.dropped_throttled;
            admission.blocked_submits += counters.blocked_submits;
            admission.throttled += counters.throttled;
            admission.served_stale += counters.served_stale;
            let tc = &inner.collector.tenants[i];
            tenants.push(TenantMetrics {
                name: spec.name,
                counters,
                served: tc.served.load(Ordering::Relaxed),
                served_stale: tc.served_stale.load(Ordering::Relaxed),
                late: tc.late.load(Ordering::Relaxed),
            });
        }
        let backends: Vec<BackendStats> = BackendKind::ALL
            .into_iter()
            .map(|k| inner.collector.backends[k.code()].stats(k))
            .filter(|b| b.served_batches > 0)
            .collect();
        let epochs = inner.next_epoch.load(Ordering::SeqCst);
        let durability = inner.durability.as_ref().map(|d| {
            let stats = d.stats();
            let f = inner.wal_fsync_us.snapshot();
            DurabilityMetrics {
                snapshot_lag_epochs: epochs.saturating_sub(stats.last_snapshot_epoch),
                snapshot_lag_seconds: d.snapshot_lag_seconds(),
                fsync_p50_us: f.percentile(0.50),
                fsync_p99_us: f.percentile(0.99),
                fsync_mean_us: f.mean(),
                stats,
            }
        });
        let dl = inner.delivery_latency_us.snapshot();
        let trace = TraceStats {
            capacity: inner.trace.capacity(),
            begun: inner.trace.begun(),
            conflicts: inner.trace.conflicts(),
            overflows: inner.trace.overflows(),
            delivery_p99_ms: dl.percentile(0.99) as f64 / 1e3,
            exemplars: inner.exemplars.lock().unwrap().iter().cloned().collect(),
            head_samples: inner.head_samples.lock().unwrap().iter().cloned().collect(),
        };
        let slo = inner.slo.as_ref().map(|e| e.status()).unwrap_or_default();
        MetricsSnapshot {
            enabled: inner.enabled,
            uptime,
            epochs,
            batches_served: inner.collector.batches.load(Ordering::Relaxed) as u64,
            events_served: inner.collector.events.load(Ordering::Relaxed) as u64,
            embeddings: inner.collector.embeddings.load(Ordering::Relaxed) as u64,
            seals: std::array::from_fn(|i| inner.collector.seals[i].load(Ordering::Relaxed)),
            batch_events: inner.collector.batch_events.snapshot(),
            queues: self.queue_stats(),
            stages,
            stage_timings: self.stage_timings(),
            batch_latency,
            admission,
            tenants,
            backends,
            durability,
            cache: inner.cache.as_ref().map(|c| c.stats()),
            flight: FlightStats {
                capacity: inner.recorder.capacity(),
                recorded: inner.recorder.recorded(),
                dropped: inner.recorder.dropped(),
            },
            slo,
            trace,
        }
    }

    /// Dumps the flight recorder: the last N enter/exit/mark events across
    /// every worker, in recording order.  Works concurrently with the
    /// pipeline and after a panic/poison — the ring is shared by `Arc` and
    /// written with seqlock stores, so no dying worker can corrupt or lock
    /// it.  A poisoned epoch shows up as an `Enter` without a matching
    /// `Exit` on the stage that was holding it.
    pub fn flight_dump(&self) -> Vec<SpanRecord> {
        self.inner
            .recorder
            .dump()
            .into_iter()
            .filter_map(|r| {
                Some(SpanRecord {
                    seq: r.seq,
                    at: Duration::from_nanos(r.tick_ns),
                    stage: StageId::from_code(r.stage)?,
                    worker: r.worker,
                    epoch: r.epoch,
                    kind: r.kind,
                })
            })
            .collect()
    }

    /// Spawns a sampler thread that appends one [`MetricsSnapshot`] JSON
    /// line to `path` every `interval` (plus a final line at stop), for
    /// offline timeline analysis.  The file is created (truncated) up
    /// front so configuration errors surface here, not in the thread.
    /// Dropping the returned [`MetricsLogger`] stops the thread and joins
    /// it.
    pub fn spawn_jsonl_sampler(
        &self,
        path: &Path,
        interval: Duration,
    ) -> std::io::Result<MetricsLogger> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let stop = Arc::new(AtomicBool::new(false));
        let hub = self.clone();
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("tgnn-metrics-sampler".into())
            .spawn(move || loop {
                let line = hub.snapshot().to_json_line();
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
                if flag.load(Ordering::Acquire) {
                    return;
                }
                // Sleep in short slices so stop() returns promptly even with
                // a long sampling interval.
                let t0 = Instant::now();
                while t0.elapsed() < interval {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25).min(interval));
                }
            })
            .expect("metrics: failed to spawn sampler thread");
        Ok(MetricsLogger {
            stop,
            handle: Some(handle),
        })
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("enabled", &self.inner.enabled)
            .field("flight_capacity", &self.inner.recorder.capacity())
            .finish()
    }
}

/// Stops the JSONL sampler thread when dropped (writing one final line).
#[derive(Debug)]
pub struct MetricsLogger {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsLogger {
    /// Stops the sampler and waits for its final line to be flushed.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsLogger {
    fn drop(&mut self) {
        self.finish();
    }
}

/// One decoded flight-recorder event, with the stage resolved to a
/// [`StageId`] and the tick converted to a [`Duration`] since pipeline
/// spawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global sequence number (gaps mean ring overwrite).
    pub seq: u64,
    /// Time since the pipeline was spawned.
    pub at: Duration,
    /// Which stage recorded the event.
    pub stage: StageId,
    /// Worker index within the stage (GNN pool workers are 0..N-1).
    pub worker: u16,
    /// The epoch the event belongs to (0 = pre-epoch scheduler work).
    pub epoch: u64,
    /// Enter, exit, or mark.
    pub kind: SpanKind,
}

/// Per-stage slice of a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: StageId,
    /// Number of workers the stage runs (1 except the GNN pool).
    pub workers: u16,
    /// Cumulative busy time across the stage's workers (includes downstream
    /// backpressure blocking; excludes waiting for input).
    pub busy: Duration,
    /// Spans completed (≈ epochs processed; sub-jobs for the GNN pool).
    pub batches: u64,
    /// `busy / (uptime × workers)` — the stage's utilization; idle is
    /// `1 - busy_frac`.
    pub busy_frac: f64,
}

/// Admission counters summed over every tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionTotals {
    /// `submit_for` calls that returned `Ok`.
    pub submitted: u64,
    /// Events that entered an ingress queue.
    pub admitted: u64,
    /// Drops by [`OverloadPolicy::DropNewest`](tgnn_core::tenancy::OverloadPolicy).
    pub dropped_newest: u64,
    /// Evictions by [`OverloadPolicy::DropOldest`](tgnn_core::tenancy::OverloadPolicy).
    pub dropped_oldest: u64,
    /// Rate-limit drops (empty token bucket, drop policies).
    pub dropped_throttled: u64,
    /// Blocked `submit_for` calls (Block/Late backpressure).
    pub blocked_submits: u64,
    /// Rate-limited `submit_for` waits (Block/Late policies).
    pub throttled: u64,
    /// Events answered from the embedding cache
    /// ([`OverloadPolicy::ServeStale`](tgnn_core::tenancy::OverloadPolicy)).
    pub served_stale: u64,
}

/// Per-tenant slice of a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct TenantMetrics {
    /// Display name from the tenant's spec.
    pub name: String,
    /// Admission-side counters (see [`AdmissionCounters`]).
    pub counters: AdmissionCounters,
    /// Events whose results were delivered (including stale cache answers).
    pub served: u64,
    /// Events answered from the embedding cache under overload (subset of
    /// `served`; excluded from the latency distribution).
    pub served_stale: u64,
    /// Served events graded late.
    pub late: u64,
}

/// Durability slice of a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityMetrics {
    /// WAL/snapshot lifetime counters (same shape as the serve report's).
    pub stats: crate::durability::DurabilityStats,
    /// Epochs sealed since the last completed snapshot — how much WAL
    /// replay a crash right now would cost.
    pub snapshot_lag_epochs: u64,
    /// Wall-clock seconds since the last completed snapshot (since the
    /// durability handle was opened when none has completed yet) — makes a
    /// stalled snapshot writer visible even when epochs stop advancing.
    pub snapshot_lag_seconds: f64,
    /// Median group-commit fsync latency, µs.
    pub fsync_p50_us: u64,
    /// p99 group-commit fsync latency, µs.
    pub fsync_p99_us: u64,
    /// Mean group-commit fsync latency, µs.
    pub fsync_mean_us: f64,
}

/// Flight-recorder occupancy.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightStats {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Events recorded over the session (including overwritten).
    pub recorded: u64,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
}

/// One retained trace: a delivered epoch's full causal decomposition plus
/// its measured admit→deliver latency.
#[derive(Clone, Debug)]
pub struct TraceExemplar {
    /// The traced epoch.
    pub epoch: u64,
    /// Measured admit→deliver latency (anchored at the epoch's first
    /// admitted event).
    pub total: Duration,
    /// The decoded trace; segment codes map to [`SegmentId`].
    pub view: TraceView,
}

/// Causal-tracing slice of a [`MetricsSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Trace-slab ring capacity (epochs kept live).
    pub capacity: usize,
    /// Traces begun (one per sealed epoch with metrics on).
    pub begun: u64,
    /// Segment writes dropped because their epoch's slot was ring-evicted.
    pub conflicts: u64,
    /// Segment writes dropped by the per-trace segment cap.
    pub overflows: u64,
    /// p99 of the admit→deliver latency distribution backing tail-exemplar
    /// selection, in milliseconds.
    pub delivery_p99_ms: f64,
    /// Tail exemplars: traces whose admit→deliver latency landed in the top
    /// (p99) histogram bucket, most recent last.
    pub exemplars: Vec<TraceExemplar>,
    /// Head samples: every `metrics_sampling`-th delivered epoch's trace,
    /// most recent last.
    pub head_samples: Vec<TraceExemplar>,
}

/// A typed point-in-time view of the serve pipeline, assembled by
/// [`StreamServer::metrics`](crate::StreamServer::metrics) /
/// [`MetricsHub::snapshot`].  Renderable as a human table
/// ([`Self::render_table`]), Prometheus-style text ([`Self::to_prometheus`]),
/// or a JSONL line ([`Self::to_json_line`]).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Whether the session records metrics (`false` ⇒ counters are zeros).
    pub enabled: bool,
    /// Time since the pipeline was spawned.
    pub uptime: Duration,
    /// Highest epoch assigned so far (warm-up chunks + sealed batches).
    pub epochs: u64,
    /// Micro-batches that completed the pipeline.
    pub batches_served: u64,
    /// Events in those batches.
    pub events_served: u64,
    /// Embeddings produced.
    pub embeddings: u64,
    /// Micro-batches sealed, by [`SealReason::code`]: how the batcher is
    /// adapting — mostly `idle` at partial load, mostly `full` at
    /// saturation; a growing `deadline` count means stragglers are waiting
    /// out `batch_deadline` behind slow batches.
    pub seals: [u64; SealReason::ALL.len()],
    /// Events per pipeline-served micro-batch (stale cache answers
    /// excluded) — the batch size load chose, capped by `max_batch`.  One
    /// sample per batch counted in `backends`; sizes up to 31 are exact,
    /// larger ones read as their log-linear bucket's upper bound (≤ 6.25 %
    /// high: a 200-event batch reads 207).
    pub batch_events: HistogramSnapshot,
    /// Live per-queue statistics (depth is the instantaneous occupancy).
    pub queues: Vec<QueueStats>,
    /// Per-stage busy/idle and span counts, pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// The Table-I-shaped sample/memory/GNN/update busy breakdown — the
    /// serve-path counterpart of the engine's `core::profiling` report.
    pub stage_timings: StageTimings,
    /// Seal-to-embeddings latency percentiles from the log-linear histogram
    /// (≤ 6.25 % relative error; `max_ms` is the top non-empty bucket) — the
    /// histogram [`ServeReport::latency`](crate::ServeReport::latency) reads,
    /// so the two always agree; recorded with metrics on or off.
    pub batch_latency: LatencySummary,
    /// Admission counters summed over tenants (drops broken out by policy).
    pub admission: AdmissionTotals,
    /// Per-tenant admission + completion counters.
    pub tenants: Vec<TenantMetrics>,
    /// Per-backend serving counters, [`BackendKind::code`] order; empty
    /// until a backend serves its first batch.
    pub backends: Vec<BackendStats>,
    /// WAL fsync count/latency and snapshot-writer lag; `None` without
    /// durability.
    pub durability: Option<DurabilityMetrics>,
    /// Embedding-cache counters (hits, misses, stale serves, occupancy);
    /// `None` when no cache is configured.
    pub cache: Option<CacheStats>,
    /// Flight-recorder occupancy.
    pub flight: FlightStats,
    /// Evaluated SLO burn-rate verdicts (empty without `ServeConfig::slo`).
    pub slo: Vec<SloStatus>,
    /// Causal-trace slab counters plus retained tail/head exemplars.
    pub trace: TraceStats,
}

impl MetricsSnapshot {
    /// Exact `(events, batches)` behind `batch_events`, from the backend
    /// counters that are bumped alongside it.
    fn pipeline_served(&self) -> (u64, u64) {
        self.backends.iter().fold((0, 0), |(e, b), s| {
            (e + s.served_events, b + s.served_batches)
        })
    }

    /// Exact mean of `batch_events` (0 before the first batch).
    fn mean_batch_events(&self) -> f64 {
        let (events, batches) = self.pipeline_served();
        events as f64 / batches.max(1) as f64
    }

    /// Renders the snapshot as a human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "uptime {:8.2}s   epochs {}   batches {}   events {}   embeddings {}{}",
                self.uptime.as_secs_f64(),
                self.epochs,
                self.batches_served,
                self.events_served,
                self.embeddings,
                if self.enabled { "" } else { "   [metrics off]" }
            ),
        );
        push(
            &mut out,
            format!(
                "batch latency  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   max {:.3} ms",
                self.batch_latency.p50_ms,
                self.batch_latency.p95_ms,
                self.batch_latency.p99_ms,
                self.batch_latency.max_ms
            ),
        );
        push(
            &mut out,
            format!(
                "batch events   mean {:.1}   p50 {}   p99 {}   max {}   sealed {}",
                self.mean_batch_events(),
                self.batch_events.percentile(0.50),
                self.batch_events.percentile(0.99),
                self.batch_events.max(),
                SealReason::ALL
                    .map(|r| format!("{} {}", r.label(), self.seals[r.code()]))
                    .join(" / ")
            ),
        );
        push(
            &mut out,
            format!(
                "{:<22} {:>5} {:>5} {:>9} {:>10} {:>8}",
                "queue", "depth", "max", "mean", "pushes", "blocked"
            ),
        );
        for q in &self.queues {
            push(
                &mut out,
                format!(
                    "{:<22} {:>5} {:>5} {:>9.2} {:>10} {:>8}",
                    q.name, q.depth, q.max_depth, q.mean_depth, q.pushes, q.blocked_sends
                ),
            );
        }
        push(
            &mut out,
            format!(
                "{:<22} {:>7} {:>12} {:>7} {:>10}",
                "stage", "workers", "busy", "busy%", "spans"
            ),
        );
        for s in &self.stages {
            if s.batches == 0 && s.busy.is_zero() {
                continue;
            }
            push(
                &mut out,
                format!(
                    "{:<22} {:>7} {:>10.3}ms {:>6.1}% {:>10}",
                    s.stage.label(),
                    s.workers,
                    s.busy.as_secs_f64() * 1e3,
                    s.busy_frac * 100.0,
                    s.batches
                ),
            );
        }
        for t in &self.tenants {
            push(
                &mut out,
                format!(
                    "tenant {:<15} submitted {:>8}  admitted {:>8}  dropped {:>6}  served {:>8}  stale {:>6}  late {:>6}",
                    t.name,
                    t.counters.submitted,
                    t.counters.admitted,
                    t.counters.dropped(),
                    t.served,
                    t.served_stale,
                    t.late
                ),
            );
        }
        for b in &self.backends {
            let modeled = match &b.modeled_latency {
                Some(m) => format!(
                    "  modeled p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
                    m.p50_ms, m.p99_ms, m.max_ms
                ),
                None => String::new(),
            };
            push(
                &mut out,
                format!(
                    "backend {:<6} batches {:>8}  events {:>8}{}",
                    b.kind.label(),
                    b.served_batches,
                    b.served_events,
                    modeled
                ),
            );
        }
        if let Some(c) = &self.cache {
            push(
                &mut out,
                format!(
                    "cache  hits {}  misses {}  hit-rate {:.1}%  served-stale {}  entries {}  evictions {}  expired {}  bound {} epochs",
                    c.hits,
                    c.misses,
                    c.hit_rate() * 100.0,
                    c.served_stale,
                    c.entries,
                    c.evictions,
                    c.expired,
                    c.staleness_bound
                ),
            );
        }
        if let Some(d) = &self.durability {
            push(
                &mut out,
                format!(
                    "wal  records {}  fsyncs {}  fsync p50/p99 {}/{} µs   snapshots {}  lag {} epochs / {:.1}s",
                    d.stats.wal_records,
                    d.stats.wal_fsyncs,
                    d.fsync_p50_us,
                    d.fsync_p99_us,
                    d.stats.snapshots,
                    d.snapshot_lag_epochs,
                    d.snapshot_lag_seconds
                ),
            );
        }
        let burn = |b: Option<f64>| match b {
            Some(v) => format!("{v:.2}"),
            None => "-".to_string(),
        };
        for s in &self.slo {
            push(
                &mut out,
                format!(
                    "slo {:<10} budget {:.3}  burn fast {} / slow {}  [{}]",
                    s.name,
                    s.error_budget,
                    burn(s.fast_burn),
                    burn(s.slow_burn),
                    burn_state_label(s.state)
                ),
            );
        }
        if self.trace.begun > 0 {
            push(
                &mut out,
                format!(
                    "traces  begun {}  conflicts {}  overflows {}  deliver p99 {:.3} ms  tail exemplars {}  head samples {}",
                    self.trace.begun,
                    self.trace.conflicts,
                    self.trace.overflows,
                    self.trace.delivery_p99_ms,
                    self.trace.exemplars.len(),
                    self.trace.head_samples.len()
                ),
            );
        }
        push(
            &mut out,
            format!(
                "flight recorder  {} / {} events ({} overwritten)",
                self.flight.recorded.min(self.flight.capacity as u64),
                self.flight.capacity,
                self.flight.dropped
            ),
        );
        out
    }

    /// Renders the snapshot as Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut scalar = |name: &str, kind: &str, v: String| {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        };
        scalar(
            "tgnn_uptime_seconds",
            "gauge",
            format!("{:.3}", self.uptime.as_secs_f64()),
        );
        scalar("tgnn_epochs_total", "counter", self.epochs.to_string());
        scalar(
            "tgnn_batches_served_total",
            "counter",
            self.batches_served.to_string(),
        );
        scalar(
            "tgnn_events_served_total",
            "counter",
            self.events_served.to_string(),
        );
        scalar(
            "tgnn_embeddings_total",
            "counter",
            self.embeddings.to_string(),
        );
        out.push_str("# TYPE tgnn_seals_total counter\n");
        for r in SealReason::ALL {
            out.push_str(&format!(
                "tgnn_seals_total{{reason=\"{}\"}} {}\n",
                r.label(),
                self.seals[r.code()]
            ));
        }
        out.push_str("# TYPE tgnn_batch_events summary\n");
        for q in [0.5, 0.95, 0.99] {
            out.push_str(&format!(
                "tgnn_batch_events{{quantile=\"{q}\"}} {}\n",
                self.batch_events.percentile(q)
            ));
        }
        let (events, batches) = self.pipeline_served();
        out.push_str(&format!(
            "tgnn_batch_events_sum {events}\ntgnn_batch_events_count {batches}\n"
        ));
        out.push_str("# TYPE tgnn_queue_depth gauge\n");
        for q in &self.queues {
            out.push_str(&format!(
                "tgnn_queue_depth{{queue=\"{}\"}} {}\n",
                q.name, q.depth
            ));
        }
        out.push_str("# TYPE tgnn_queue_pushes_total counter\n");
        for q in &self.queues {
            out.push_str(&format!(
                "tgnn_queue_pushes_total{{queue=\"{}\"}} {}\n",
                q.name, q.pushes
            ));
        }
        out.push_str("# TYPE tgnn_queue_blocked_sends_total counter\n");
        for q in &self.queues {
            out.push_str(&format!(
                "tgnn_queue_blocked_sends_total{{queue=\"{}\"}} {}\n",
                q.name, q.blocked_sends
            ));
        }
        out.push_str("# TYPE tgnn_stage_busy_seconds_total counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "tgnn_stage_busy_seconds_total{{stage=\"{}\"}} {:.6}\n",
                s.stage.label(),
                s.busy.as_secs_f64()
            ));
        }
        out.push_str("# TYPE tgnn_stage_spans_total counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "tgnn_stage_spans_total{{stage=\"{}\"}} {}\n",
                s.stage.label(),
                s.batches
            ));
        }
        out.push_str("# TYPE tgnn_batch_latency_ms summary\n");
        for (q, v) in [
            (0.5, self.batch_latency.p50_ms),
            (0.95, self.batch_latency.p95_ms),
            (0.99, self.batch_latency.p99_ms),
        ] {
            out.push_str(&format!(
                "tgnn_batch_latency_ms{{quantile=\"{q}\"}} {v:.3}\n"
            ));
        }
        out.push_str(&format!(
            "tgnn_batch_latency_ms_count {}\n",
            self.batches_served
        ));
        out.push_str("# TYPE tgnn_admission_dropped_total counter\n");
        for (policy, v) in [
            ("newest", self.admission.dropped_newest),
            ("oldest", self.admission.dropped_oldest),
            ("throttled", self.admission.dropped_throttled),
        ] {
            out.push_str(&format!(
                "tgnn_admission_dropped_total{{policy=\"{policy}\"}} {v}\n"
            ));
        }
        let mut scalar = |name: &str, kind: &str, v: String| {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        };
        scalar(
            "tgnn_admission_submitted_total",
            "counter",
            self.admission.submitted.to_string(),
        );
        scalar(
            "tgnn_admission_blocked_submits_total",
            "counter",
            self.admission.blocked_submits.to_string(),
        );
        out.push_str("# TYPE tgnn_tenant_served_total counter\n");
        for t in &self.tenants {
            out.push_str(&format!(
                "tgnn_tenant_served_total{{tenant=\"{}\"}} {}\n",
                t.name, t.served
            ));
        }
        out.push_str("# TYPE tgnn_tenant_served_stale_total counter\n");
        for t in &self.tenants {
            out.push_str(&format!(
                "tgnn_tenant_served_stale_total{{tenant=\"{}\"}} {}\n",
                t.name, t.served_stale
            ));
        }
        out.push_str("# TYPE tgnn_tenant_late_total counter\n");
        for t in &self.tenants {
            out.push_str(&format!(
                "tgnn_tenant_late_total{{tenant=\"{}\"}} {}\n",
                t.name, t.late
            ));
        }
        if !self.backends.is_empty() {
            out.push_str("# TYPE tgnn_backend_served_batches_total counter\n");
            for b in &self.backends {
                out.push_str(&format!(
                    "tgnn_backend_served_batches_total{{backend=\"{}\"}} {}\n",
                    b.kind.label(),
                    b.served_batches
                ));
            }
            out.push_str("# TYPE tgnn_backend_served_events_total counter\n");
            for b in &self.backends {
                out.push_str(&format!(
                    "tgnn_backend_served_events_total{{backend=\"{}\"}} {}\n",
                    b.kind.label(),
                    b.served_events
                ));
            }
            if self.backends.iter().any(|b| b.modeled_latency.is_some()) {
                out.push_str("# TYPE tgnn_backend_modeled_latency_ms summary\n");
                for b in &self.backends {
                    let Some(m) = &b.modeled_latency else {
                        continue;
                    };
                    for (q, v) in [(0.5, m.p50_ms), (0.95, m.p95_ms), (0.99, m.p99_ms)] {
                        out.push_str(&format!(
                            "tgnn_backend_modeled_latency_ms{{backend=\"{}\",quantile=\"{q}\"}} {v:.6}\n",
                            b.kind.label()
                        ));
                    }
                }
            }
        }
        if let Some(c) = &self.cache {
            let mut scalar = |name: &str, kind: &str, v: String| {
                out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
            };
            scalar("tgnn_cache_hits_total", "counter", c.hits.to_string());
            scalar("tgnn_cache_misses_total", "counter", c.misses.to_string());
            scalar(
                "tgnn_cache_insertions_total",
                "counter",
                c.insertions.to_string(),
            );
            scalar(
                "tgnn_cache_evictions_total",
                "counter",
                c.evictions.to_string(),
            );
            scalar("tgnn_cache_expired_total", "counter", c.expired.to_string());
            scalar(
                "tgnn_cache_served_stale_total",
                "counter",
                c.served_stale.to_string(),
            );
            scalar("tgnn_cache_entries", "gauge", c.entries.to_string());
            scalar(
                "tgnn_cache_staleness_bound_epochs",
                "gauge",
                c.staleness_bound.to_string(),
            );
        }
        if let Some(d) = &self.durability {
            let mut scalar = |name: &str, kind: &str, v: String| {
                out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
            };
            scalar(
                "tgnn_wal_fsyncs_total",
                "counter",
                d.stats.wal_fsyncs.to_string(),
            );
            scalar(
                "tgnn_wal_records_total",
                "counter",
                d.stats.wal_records.to_string(),
            );
            scalar("tgnn_wal_fsync_p99_us", "gauge", d.fsync_p99_us.to_string());
            scalar(
                "tgnn_snapshot_lag_epochs",
                "gauge",
                d.snapshot_lag_epochs.to_string(),
            );
            scalar(
                "tgnn_snapshot_lag_seconds",
                "gauge",
                format!("{:.3}", d.snapshot_lag_seconds),
            );
        }
        if !self.slo.is_empty() {
            out.push_str("# TYPE tgnn_slo_burn_rate gauge\n");
            for s in &self.slo {
                for (window, v) in [("fast", s.fast_burn), ("slow", s.slow_burn)] {
                    if let Some(v) = v {
                        out.push_str(&format!(
                            "tgnn_slo_burn_rate{{slo=\"{}\",window=\"{window}\"}} {v:.4}\n",
                            s.name
                        ));
                    }
                }
            }
            out.push_str("# TYPE tgnn_slo_fired gauge\n");
            for s in &self.slo {
                out.push_str(&format!(
                    "tgnn_slo_fired{{slo=\"{}\"}} {}\n",
                    s.name,
                    u8::from(s.state == BurnState::Fired)
                ));
            }
        }
        let mut scalar = |name: &str, kind: &str, v: String| {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        };
        scalar(
            "tgnn_traces_begun_total",
            "counter",
            self.trace.begun.to_string(),
        );
        scalar(
            "tgnn_trace_conflicts_total",
            "counter",
            self.trace.conflicts.to_string(),
        );
        scalar(
            "tgnn_trace_delivery_p99_ms",
            "gauge",
            format!("{:.3}", self.trace.delivery_p99_ms),
        );
        out
    }

    /// Renders the snapshot as one JSON line (the JSONL sampler format).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!(
            "\"uptime_s\":{:.3},\"enabled\":{},\"epochs\":{},\"batches\":{},\"events\":{},\"embeddings\":{}",
            self.uptime.as_secs_f64(),
            self.enabled,
            self.epochs,
            self.batches_served,
            self.events_served,
            self.embeddings
        ));
        s.push_str(&format!(
            ",\"latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3},\"max\":{:.3}}}",
            self.batch_latency.p50_ms,
            self.batch_latency.p95_ms,
            self.batch_latency.p99_ms,
            self.batch_latency.max_ms
        ));
        s.push_str(&format!(
            ",\"seals\":{{{}}},\"batch_events\":{{\"mean\":{:.2},\"p50\":{},\"p99\":{},\"max\":{}}}",
            SealReason::ALL
                .map(|r| format!("\"{}\":{}", r.label(), self.seals[r.code()]))
                .join(","),
            self.mean_batch_events(),
            self.batch_events.percentile(0.50),
            self.batch_events.percentile(0.99),
            self.batch_events.max()
        ));
        s.push_str(",\"queues\":[");
        for (i, q) in self.queues.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"depth\":{},\"max\":{},\"mean\":{:.3},\"pushes\":{},\"blocked\":{}}}",
                q.name, q.depth, q.max_depth, q.mean_depth, q.pushes, q.blocked_sends
            ));
        }
        s.push_str("],\"stages\":[");
        let mut first = true;
        for st in &self.stages {
            if st.batches == 0 && st.busy.is_zero() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"stage\":\"{}\",\"busy_ms\":{:.3},\"busy_frac\":{:.4},\"spans\":{}}}",
                st.stage.label(),
                st.busy.as_secs_f64() * 1e3,
                st.busy_frac,
                st.batches
            ));
        }
        s.push_str("],\"admission\":{");
        s.push_str(&format!(
            "\"submitted\":{},\"admitted\":{},\"dropped_newest\":{},\"dropped_oldest\":{},\"dropped_throttled\":{},\"blocked\":{}}}",
            self.admission.submitted,
            self.admission.admitted,
            self.admission.dropped_newest,
            self.admission.dropped_oldest,
            self.admission.dropped_throttled,
            self.admission.blocked_submits
        ));
        s.push_str(",\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"served\":{},\"served_stale\":{},\"late\":{},\"dropped\":{}}}",
                json_escape(&t.name),
                t.served,
                t.served_stale,
                t.late,
                t.counters.dropped()
            ));
        }
        s.push(']');
        if !self.backends.is_empty() {
            s.push_str(",\"backends\":[");
            for (i, b) in self.backends.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"backend\":\"{}\",\"batches\":{},\"events\":{}",
                    b.kind.label(),
                    b.served_batches,
                    b.served_events
                ));
                if let Some(m) = &b.modeled_latency {
                    s.push_str(&format!(
                        ",\"modeled_ms\":{{\"p50\":{:.6},\"p99\":{:.6},\"max\":{:.6}}}",
                        m.p50_ms, m.p99_ms, m.max_ms
                    ));
                }
                s.push('}');
            }
            s.push(']');
        }
        if let Some(c) = &self.cache {
            s.push_str(&format!(
                ",\"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4},\"insertions\":{},\"evictions\":{},\"expired\":{},\"served_stale\":{},\"entries\":{},\"staleness_bound\":{}}}",
                c.hits,
                c.misses,
                c.hit_rate(),
                c.insertions,
                c.evictions,
                c.expired,
                c.served_stale,
                c.entries,
                c.staleness_bound
            ));
        }
        if let Some(d) = &self.durability {
            s.push_str(&format!(
                ",\"durability\":{{\"wal_records\":{},\"wal_fsyncs\":{},\"fsync_p50_us\":{},\"fsync_p99_us\":{},\"snapshots\":{},\"snapshot_lag_epochs\":{},\"snapshot_lag_seconds\":{:.3}}}",
                d.stats.wal_records,
                d.stats.wal_fsyncs,
                d.fsync_p50_us,
                d.fsync_p99_us,
                d.stats.snapshots,
                d.snapshot_lag_epochs,
                d.snapshot_lag_seconds
            ));
        }
        if !self.slo.is_empty() {
            s.push_str(",\"slo\":[");
            let json_burn = |b: Option<f64>| match b {
                Some(v) => format!("{v:.4}"),
                None => "null".to_string(),
            };
            for (i, o) in self.slo.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"name\":\"{}\",\"budget\":{},\"fast_burn\":{},\"slow_burn\":{},\"state\":\"{}\"}}",
                    json_escape(&o.name),
                    o.error_budget,
                    json_burn(o.fast_burn),
                    json_burn(o.slow_burn),
                    burn_state_label(o.state)
                ));
            }
            s.push(']');
        }
        s.push_str(&format!(
            ",\"trace\":{{\"begun\":{},\"conflicts\":{},\"overflows\":{},\"delivery_p99_ms\":{:.3},\"exemplars\":{},\"head_samples\":{}}}",
            self.trace.begun,
            self.trace.conflicts,
            self.trace.overflows,
            self.trace.delivery_p99_ms,
            self.trace.exemplars.len(),
            self.trace.head_samples.len()
        ));
        s.push_str(&format!(
            ",\"flight\":{{\"recorded\":{},\"dropped\":{}}}",
            self.flight.recorded, self.flight.dropped
        ));
        s.push('}');
        s
    }
}

/// Stable lower-case label of a [`BurnState`] (reports and JSON).
fn burn_state_label(b: BurnState) -> &'static str {
    match b {
        BurnState::NoData => "no-data",
        BurnState::Ok => "ok",
        BurnState::Fired => "fired",
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders a flight-recorder dump as a per-epoch, per-stage timeline — the
/// post-mortem view: each line is one epoch, each segment one stage span
/// (`enter→exit` in ms since pipeline spawn).  An open segment (`→…`) means
/// the stage entered the epoch and never exited — after a panic, that is
/// the poisoned stage; its duration-so-far (up to the dump's last tick) is
/// printed so the reader can see how long the epoch has been held.
///
/// Records are sorted by `(tick, seq)` before pairing, so same-tick
/// enter/exit races (coarse clocks, cross-worker ties) pair
/// deterministically in recording order rather than ring order.
pub fn render_flight_timeline(records: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut records: Vec<SpanRecord> = records.to_vec();
    records.sort_by_key(|r| (r.at, r.seq));
    // The dump's horizon: open spans report duration-so-far against the
    // last tick any worker recorded.
    let now = records.last().map(|r| r.at).unwrap_or_default();
    // epoch → (stage, worker) → (enter, exit) / marks, keeping stage order
    // of first appearance within the epoch.
    type Segment = ((StageId, u16), Option<Duration>, Option<Duration>);
    #[derive(Default)]
    struct EpochLine {
        segments: Vec<Segment>,
        marks: Vec<(StageId, Duration)>,
    }
    let mut epochs: BTreeMap<u64, EpochLine> = BTreeMap::new();
    for r in &records {
        let line = epochs.entry(r.epoch).or_default();
        match r.kind {
            SpanKind::Mark => line.marks.push((r.stage, r.at)),
            SpanKind::Enter => line.segments.push(((r.stage, r.worker), Some(r.at), None)),
            SpanKind::Exit => {
                // Close the open segment of this (stage, worker); an exit
                // whose enter was overwritten by the ring starts a
                // half-open segment.
                match line
                    .segments
                    .iter_mut()
                    .rev()
                    .find(|(k, _, exit)| *k == (r.stage, r.worker) && exit.is_none())
                {
                    Some(seg) => seg.2 = Some(r.at),
                    None => line.segments.push(((r.stage, r.worker), None, Some(r.at))),
                }
            }
        }
    }
    let mut out = String::new();
    for (epoch, line) in &epochs {
        if *epoch == 0 {
            out.push_str("pre-epoch   ");
        } else {
            out.push_str(&format!("epoch {epoch:>5} "));
        }
        for ((stage, worker), enter, exit) in &line.segments {
            let name = if *stage == StageId::Gnn {
                format!("{}[{}]", stage.label(), worker)
            } else {
                stage.label().to_string()
            };
            match (enter, exit) {
                (Some(a), Some(b)) => {
                    out.push_str(&format!("| {} {:.3}→{:.3} ", name, ms(*a), ms(*b)))
                }
                (Some(a), None) => out.push_str(&format!(
                    "| {} {:.3}→… {:.3}ms so far ",
                    name,
                    ms(*a),
                    ms(now.saturating_sub(*a))
                )),
                (None, Some(b)) => out.push_str(&format!("| {} …→{:.3} ", name, ms(*b))),
                (None, None) => {}
            }
        }
        for (stage, at) in &line.marks {
            out.push_str(&format!("| {} @{:.3} ", stage.label(), ms(*at)));
        }
        out.push('\n');
    }
    out
}
