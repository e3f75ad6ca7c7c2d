//! Live observability of the serve pipeline: stage spans, queue depths,
//! latency histograms, and the flight recorder.
//!
//! There is one write path and one read path.  The server builds its
//! `Sinks` first — the served counts, the seal and latency histograms, the
//! stage span counters, the trace slab, the flight recorder, the delivery
//! and fsync histograms — and hands every writer a `StageObs` handle onto
//! them when it constructs it: the two workers, the durability handle and
//! admission's stale path.  [`MetricsHub::snapshot`] is the only code that
//! reads the sinks, the admission counters and the WAL and cache counters,
//! and assembles a typed [`MetricsSnapshot`];
//! [`ServeReport`](crate::server::ServeReport) is a view of that snapshot
//! plus the commit log.  The snapshot names what it exports once, in its
//! metric catalogue, and both machine formats
//! ([`MetricsSnapshot::to_prometheus`], [`MetricsSnapshot::to_json_line`])
//! are walks over that list.  [`StreamServer::metrics`](crate::StreamServer::metrics)
//! can be called at any moment (under load, after a graceful drain, or while
//! the pipeline is unwinding from a worker panic).  The recording side is
//! built on `tgnn-obs`, and each epoch's pass through a stage costs two
//! `Instant` reads, two relaxed counter adds, and two flight-recorder ring
//! writes — budgeted at ≤ 2 % of
//! throughput (`benchmark/`'s `serve.metrics_overhead_pct` row measures
//! it), and a handful of branch-predicted no-ops with
//! [`ServeConfig::metrics`](crate::server::ServeConfig::metrics) off.
//!
//! The **flight recorder** is the post-mortem half: a bounded seqlock ring
//! in the `Arc`'d sinks, so it survives a worker panic and the unwind that
//! follows.  After a GNN worker dies mid-epoch, [`MetricsHub::flight_dump`]
//! still returns the faulted epoch's partial timeline — the `Enter` with no
//! matching `Exit` pinpoints the stage that was holding the epoch.

use crate::admission::{AdmissionControl, AdmissionCounters};
use crate::cache::{CacheStats, EmbeddingCache};
use crate::durability::{Durability, DurabilityStats};
use crate::pipeline::SealReason;
use crate::queue::{QueueMonitor, QueueStats};
use crate::server::{BackendStats, LatencySummary, ServeConfig, TenantStats, NS_PER_MS};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tgnn_core::tenancy::TenantId;
use tgnn_core::{BackendKind, NUM_BACKEND_KINDS};
use tgnn_obs::{
    bucket_index, FlightRecorder, Histogram, HistogramSnapshot, SloEngine, SloSpec, SloStatus,
    SpanKind, TraceSlab, TraceView,
};

/// The pipeline stages visible to the flight recorder and the stage table.
///
/// These are *logical* stages, each recording its own spans: the state
/// worker executes `Scheduler`, `Batcher`, `Sampler`, `Memory` and `Update`,
/// and the GNN worker `Gnn` and `WalSync`.  `Deliver` is a point event (the
/// `poll` handoff to the caller), not a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Weighted-fair pull from the tenant ingress queues (pre-epoch: spans
    /// carry epoch 0).
    Scheduler,
    /// Micro-batcher (seals epochs; spans cover sort + WAL append).
    Batcher,
    /// Neighbor sampler.
    Sampler,
    /// Memory/GRU stage (also gathers and dispatches the GNN job).
    Memory,
    /// GNN worker: compute on the batch's backend, the seal sync, then the
    /// cache insert, dispositions and counters that commit the batch
    /// downstream.
    Gnn,
    /// State write-back / epoch committer.
    Update,
    /// The GNN worker's seal fsync (`FsyncPolicy::OnSeal`), nested in its
    /// `Gnn` span.
    WalSync,
    /// Background snapshot writer.
    SnapWriter,
    /// Result handed to the caller by `poll` (a `Mark`, not a span).
    Deliver,
}

impl StageId {
    /// Every stage, in flight-recorder code order: the worker stages in
    /// pipeline order, then `Deliver`.
    pub const ALL: [StageId; 9] = [
        StageId::Scheduler,
        StageId::Batcher,
        StageId::Sampler,
        StageId::Memory,
        StageId::Gnn,
        StageId::Update,
        StageId::WalSync,
        StageId::SnapWriter,
        StageId::Deliver,
    ];

    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            StageId::Scheduler => "scheduler",
            StageId::Batcher => "batcher",
            StageId::Sampler => "sampler",
            StageId::Memory => "memory",
            StageId::Gnn => "gnn",
            StageId::Update => "update",
            StageId::WalSync => "wal-sync",
            StageId::SnapWriter => "snap-writer",
            StageId::Deliver => "deliver",
        }
    }

    /// The flight-recorder stage code: the index into [`Self::ALL`] (the
    /// variants are declared in that order).
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_code(c: u8) -> Option<StageId> {
        StageId::ALL.get(c as usize).copied()
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

/// SLO lane index of the admit→deliver latency objective.
pub(crate) const SLO_LANE_LATENCY: usize = 0;
/// SLO lane index of the drop-rate objective.
pub(crate) const SLO_LANE_DROPS: usize = 1;

/// The serve pipeline's causal-trace segment taxonomy.
///
/// The **additive** segments tile a traced epoch's admit→deliver wall time
/// without gaps or overlap, so their sum reconciles with the measured
/// [`Total`](SegmentId::Total) (asserted within epsilon by the serve
/// crate's trace-conservation tests).  [`GnnWait`](SegmentId::GnnWait) and
/// [`GnnCompute`](SegmentId::GnnCompute) are *informational*: one pair per
/// epoch that splits the additive [`Gnn`](SegmentId::Gnn) segment into its
/// queue wait and its compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SegmentId {
    /// First admit of the epoch → pulled by the state worker (ingress
    /// queue wait, including the previous batch's step).
    IngressWait,
    /// Pulled → epoch sealed (chronological sort, WAL `Seal` append; for the
    /// later batches of a mixed-backend pull, the earlier ones' steps).
    SealWait,
    /// Sealed → sampled: the neighbor sampling.
    Sample,
    /// Memory/GRU stage, including the gather and the GNN job dispatch.
    Memory,
    /// GNN job dispatched → computed: the `state→gnn` queue wait plus the
    /// backend's compute.
    Gnn,
    /// Seal synced → handed to `gnn→results`: the GNN worker's cache
    /// insert, dispositions and counters.  The name stays because
    /// `benchmark/` reads this segment as `serve.seg.reorder_barrier.share`.
    ReorderBarrier,
    /// Computed → seal synced: the GNN worker making the epoch's `Seal`
    /// durable before it hands the batch on (zero without durability, or
    /// when an earlier flush already covered the epoch).
    WalSyncWait,
    /// Handed to `gnn→results` → `poll` handoff.
    Deliver,
    /// The GNN job's dispatch → start wait (informational, not additive).
    GnnWait,
    /// The GNN job's compute time (informational, not additive).
    GnnCompute,
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
        SegmentId::GnnWait,
        SegmentId::GnnCompute,
        SegmentId::Total,
    ];

    /// The stable wire code stored in trace segments: the index into
    /// [`Self::ALL`] (the variants are declared in that order).
    pub fn code(self) -> u8 {
        self as u8
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
            SegmentId::GnnWait => "gnn-wait",
            SegmentId::GnnCompute => "gnn-compute",
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

/// A recording handle onto the server's [`Sinks`] for one [`StageId`],
/// handed to each writer when it is constructed: the pipeline workers, the
/// durability handle (its `wal-sync` and `snap-writer` spans) and
/// admission's stale path.  The span methods are branch-predicted no-ops
/// with metrics off; with metrics on, an `enter`/`exit` pair costs two ring
/// writes plus two relaxed adds.  The served-side counts go through
/// `sinks` and are kept either way.
#[derive(Clone)]
pub(crate) struct StageObs {
    stage: StageId,
    pub sinks: Arc<Sinks>,
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
        if !self.sinks.enabled {
            return None;
        }
        if record {
            self.sinks
                .recorder
                .record(self.stage.code(), 0, epoch, SpanKind::Enter);
        }
        Some(Instant::now())
    }

    /// [`Self::exit`] with the flight-ring write gated on `record` (pair it
    /// with the same `record` the matching [`Self::enter_sampled`] used, or
    /// the dump shows unbalanced spans).
    #[inline]
    pub fn exit_sampled(&self, epoch: u64, span: Option<Instant>, record: bool) {
        let Some(t0) = span else { return };
        let code = self.stage.code() as usize;
        let s = &self.sinks;
        s.stage_busy_ns[code].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        s.stage_batches[code].fetch_add(1, Ordering::Relaxed);
        if record {
            s.recorder
                .record(self.stage.code(), 0, epoch, SpanKind::Exit);
        }
    }

    /// Claims the trace slot for `epoch` (the batcher calls this once, at
    /// seal time, before any stage records segments).
    #[inline]
    pub fn trace_begin(&self, epoch: u64) {
        if self.sinks.enabled {
            self.sinks.trace.begin(epoch);
        }
    }

    /// Appends one causal-trace segment to `epoch`'s trace.
    #[inline]
    pub fn trace_record(&self, epoch: u64, seg: SegmentId, duration: Duration) {
        if self.sinks.enabled {
            self.sinks.trace.record(epoch, seg.code(), duration);
        }
    }
}

/// One tenant's completion-side counts: pipeline-served and late events
/// and the admission-to-completion latency distribution (the
/// client-visible queueing + compute delay the overload policies bound).
/// Stale cache answers never reach it: the admission layer counts them
/// (`AdmissionCounters::served_stale`).
#[derive(Debug, Default)]
pub(crate) struct TenantCounts {
    pub served: AtomicU64,
    pub late: AtomicU64,
    pub latency_ns: Histogram,
}

/// One compute backend's counts: the batches and events it served — the
/// pipeline's share of every served total — and the distribution of the
/// service latencies the U200 model predicts for them.
#[derive(Debug, Default)]
pub(crate) struct BackendCounts {
    pub served_batches: AtomicU64,
    pub served_events: AtomicU64,
    /// Modelled per-batch service latencies, one sample per served batch.
    pub modeled_latency_ns: Histogram,
}

impl BackendCounts {
    /// This backend's row of the metrics snapshot; `modeled_latency` is
    /// `None` until the backend has served a batch.
    pub fn stats(&self, kind: BackendKind) -> BackendStats {
        let h = self.modeled_latency_ns.snapshot();
        BackendStats {
            kind,
            served_batches: self.served_batches.load(Ordering::Relaxed),
            served_events: self.served_events.load(Ordering::Relaxed),
            modeled_latency: (h.count() > 0).then(|| LatencySummary::from_histogram(&h, NS_PER_MS)),
            modeled_samples: h.count(),
        }
    }
}

/// The server's recording sinks — the one place every number it reports is
/// written.  Built first, before the WAL, the cache and admission, so each
/// writer gets its [`StageObs`] handle at construction; the one reader is
/// [`MetricsHub::snapshot`].
///
/// Each count is written once.  The served totals are not counted at all:
/// the snapshot derives them as the backends' served batches and events
/// plus the tenants' stale answers (one batch of one event each).  The
/// stage spans, traces, flight recorder, delivery and fsync histograms
/// record only with metrics on; the served-side counts, the seals and the
/// latency histograms are kept either way.
pub(crate) struct Sinks {
    enabled: bool,
    started: Instant,
    /// `ServeConfig::metrics_sampling`, at least 1: 1-in-N flight-ring
    /// sampling for per-event stages, shared with trace head-sample
    /// retention.
    pub metrics_sampling: u64,
    recorder: FlightRecorder,
    /// Busy-nanoseconds and completed-span counters, indexed by
    /// `StageId::code()`.
    stage_busy_ns: [AtomicU64; StageId::ALL.len()],
    stage_batches: [AtomicU64; StageId::ALL.len()],
    /// The per-epoch causal-trace slab (allocated even with metrics off —
    /// the handles just never write to it then).
    trace: TraceSlab,
    /// Admit→deliver latency of traced deliveries (µs) — the tail-exemplar
    /// reference distribution, distinct from the seal-to-embeddings
    /// `latency_ns`.
    delivery_latency_us: Histogram,
    /// Tail exemplars: full traces of deliveries that landed in the top
    /// (p99) bucket of `delivery_latency_us`.
    exemplars: Mutex<VecDeque<TraceExemplar>>,
    /// Head samples: every `metrics_sampling`-th delivered epoch's trace.
    head_samples: Mutex<VecDeque<TraceExemplar>>,
    /// Latency of each seal `fsync` (`FsyncPolicy::OnSeal`), µs.
    pub fsync_us: Histogram,
    /// The burn-rate engine, when objectives are declared; admission and
    /// `poll` feed it through their [`SloHandle`]s.
    pub slo: Option<Arc<SloEngine>>,
    /// Seal-to-embeddings latency, one sample per pipeline-served batch.
    pub latency_ns: Histogram,
    embeddings: AtomicU64,
    /// Nanoseconds after `started` of the first submit and of the last
    /// served batch (0 = none yet): the serving time every throughput
    /// figure divides by.
    first_submit_ns: AtomicU64,
    last_complete_ns: AtomicU64,
    pub tenants: Vec<TenantCounts>,
    /// Indexed by [`BackendKind::code`].
    pub backends: [BackendCounts; NUM_BACKEND_KINDS],
    /// Sealed batches by [`SealReason::code`].
    seals: [AtomicU64; SealReason::ALL.len()],
    /// Events per pipeline-served batch.
    batch_events: Histogram,
    /// GRU blocks the state worker offered, and those of them the GNN
    /// worker computed.
    pub gru_offered: AtomicU64,
    pub gru_helped: AtomicU64,
}

impl Sinks {
    pub fn new(config: &ServeConfig, num_tenants: usize) -> Self {
        Self {
            enabled: config.metrics,
            started: Instant::now(),
            metrics_sampling: config.metrics_sampling.max(1),
            recorder: FlightRecorder::new(config.flight_capacity),
            stage_busy_ns: Default::default(),
            stage_batches: Default::default(),
            trace: TraceSlab::new(TRACE_CAPACITY),
            delivery_latency_us: Histogram::new(),
            exemplars: Mutex::new(VecDeque::new()),
            head_samples: Mutex::new(VecDeque::new()),
            fsync_us: Histogram::new(),
            // Lane `SLO_LANE_LATENCY` grades delivered batches, lane
            // `SLO_LANE_DROPS` submit outcomes.
            slo: config.slo.as_ref().map(|c| {
                Arc::new(SloEngine::new(vec![
                    SloSpec::new("latency", c.latency_budget, c.fire_burn_rate),
                    SloSpec::new("drops", c.drop_budget, c.fire_burn_rate),
                ]))
            }),
            latency_ns: Histogram::new(),
            embeddings: AtomicU64::new(0),
            first_submit_ns: AtomicU64::new(0),
            last_complete_ns: AtomicU64::new(0),
            tenants: (0..num_tenants).map(|_| TenantCounts::default()).collect(),
            backends: Default::default(),
            seals: Default::default(),
            gru_offered: AtomicU64::new(0),
            gru_helped: AtomicU64::new(0),
            batch_events: Histogram::new(),
        }
    }

    /// The recording handle a writer carries for `stage`.
    pub fn stage_obs(self: &Arc<Self>, stage: StageId) -> StageObs {
        StageObs {
            stage,
            sinks: self.clone(),
        }
    }

    /// Nanoseconds since the sinks were built, at least 1 (0 means "none").
    fn now_ns(&self) -> u64 {
        (self.started.elapsed().as_nanos() as u64).max(1)
    }

    /// Starts the serving clock: the first submit of this life.
    pub fn start_clock(&self) {
        self.first_submit_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Counts one sealed batch.
    pub fn seal(&self, reason: SealReason) {
        self.seals[reason.code()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the blocks of a GRU the state worker offered.
    pub fn gru_offered(&self, blocks: usize) {
        self.gru_offered.fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Counts the offered GRU blocks the GNN worker computed.
    pub fn gru_helped(&self, blocks: usize) {
        self.gru_helped.fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Counts one batch the pipeline served — or recovery re-served, with
    /// no seal→embeddings `latency`: a re-serve never ran this session's
    /// pipeline — on `backend`, with the latency the U200 model predicts
    /// for its job.
    pub fn served_batch(
        &self,
        backend: BackendKind,
        events: usize,
        embeddings: usize,
        latency: Option<Duration>,
        modeled: Duration,
    ) {
        if let Some(l) = latency {
            self.latency_ns.record(l.as_nanos() as u64);
        }
        self.batch_events.record(events as u64);
        let b = &self.backends[backend.code()];
        b.served_batches.fetch_add(1, Ordering::Relaxed);
        b.served_events.fetch_add(events as u64, Ordering::Relaxed);
        b.modeled_latency_ns.record(modeled.as_nanos() as u64);
        self.count_embeddings(embeddings);
    }

    /// Counts one served event for its tenant.  `graded` is its deadline
    /// verdict and admission-to-completion latency — `None` for a recovery
    /// re-serve.
    pub fn served_event(&self, tenant: TenantId, graded: Option<(bool, Duration)>) {
        let t = &self.tenants[tenant.index()];
        t.served.fetch_add(1, Ordering::Relaxed);
        if let Some((late, latency)) = graded {
            if late {
                t.late.fetch_add(1, Ordering::Relaxed);
            }
            t.latency_ns.record(latency.as_nanos() as u64);
        }
    }

    /// Counts `embeddings` served and stamps the completion time — for a
    /// pipeline batch through [`Self::served_batch`], for a stale cache
    /// answer directly (the answer itself is admission's
    /// `AdmissionCounters::served_stale`).
    pub fn count_embeddings(&self, embeddings: usize) {
        self.embeddings
            .fetch_add(embeddings as u64, Ordering::Relaxed);
        self.last_complete_ns
            .fetch_max(self.now_ns(), Ordering::Relaxed);
    }

    /// Records delivery of an epoch's results to the caller (`poll`) and —
    /// for traced epochs — finalizes the epoch's causal trace with its
    /// delivery-side segments:
    ///
    /// * `total` — the measured admit→deliver latency ([`SegmentId::Total`],
    ///   the reconciliation reference);
    /// * `since_completed` — handed to `gnn→results` → this handoff
    ///   ([`SegmentId::Deliver`]).
    ///
    /// `traced` is false for results that never ran the pipeline in this
    /// session (stale cache answers, recovery re-serves) — their epochs own
    /// no trace slot, and writing would only inflate the conflict counter.
    ///
    /// A traced delivery whose `total` lands in the top (p99) bucket of the
    /// admit→deliver histogram has its full trace retained as a **tail
    /// exemplar**; every `metrics_sampling`-th epoch is retained as a
    /// **head sample**.  Both rings ride the [`MetricsSnapshot`].
    pub fn record_delivery(
        &self,
        epoch: u64,
        traced: bool,
        total: Duration,
        since_completed: Duration,
    ) {
        if !self.enabled {
            return;
        }
        self.recorder
            .record(StageId::Deliver.code(), 0, epoch, SpanKind::Mark);
        if !traced {
            return;
        }
        self.trace
            .record(epoch, SegmentId::Deliver.code(), since_completed);
        self.trace.record(epoch, SegmentId::Total.code(), total);
        let us = total.as_micros() as u64;
        self.delivery_latency_us.record(us);
        // Tail test: the sample was just recorded, so on the very first
        // delivery p99 is the sample's own bucket — at least one exemplar
        // is always captured.
        let tail = bucket_index(us) >= bucket_index(self.delivery_latency_us.percentile(0.99));
        let head = epoch.is_multiple_of(self.metrics_sampling);
        if !tail && !head {
            return;
        }
        let Some(view) = self.trace.snapshot(epoch) else {
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
            push(&self.exemplars, ex.clone());
        }
        if head {
            push(&self.head_samples, ex);
        }
    }
}

/// `n` per second of `over`; 0 over an empty interval.
pub(crate) fn per_second(n: u64, over: Duration) -> f64 {
    if over.is_zero() {
        0.0
    } else {
        n as f64 / over.as_secs_f64()
    }
}

/// Cloneable, `Send + Sync` handle to a server's live metrics: its
/// `Sinks` plus what the snapshot reads but the sinks do not own —
/// admission's counters, the durability and cache counters, the queue
/// monitors and the epoch counter.  Obtained from
/// [`StreamServer::metrics_hub`](crate::StreamServer::metrics_hub); it
/// does not borrow the server, so a sampler thread (or a panic handler) can
/// keep snapshotting while the owning thread is busy — or gone.
#[derive(Clone)]
pub struct MetricsHub {
    pub(crate) sinks: Arc<Sinks>,
    admission: Arc<AdmissionControl>,
    durability: Option<Arc<Durability>>,
    cache: Option<Arc<EmbeddingCache>>,
    queues: Vec<QueueMonitor>,
    next_epoch: Arc<AtomicU64>,
}

impl MetricsHub {
    pub(crate) fn new(
        sinks: Arc<Sinks>,
        admission: Arc<AdmissionControl>,
        durability: Option<Arc<Durability>>,
        cache: Option<Arc<EmbeddingCache>>,
        queues: Vec<QueueMonitor>,
        next_epoch: Arc<AtomicU64>,
    ) -> Self {
        MetricsHub {
            sinks,
            admission,
            durability,
            cache,
            queues,
            next_epoch,
        }
    }

    /// Decodes every trace still live in the slab (the most recent
    /// [`TRACE_CAPACITY`](crate::metrics) epochs), sorted by epoch — the
    /// post-drain feed of the bench's blame table and `--trace-out` dump.
    pub fn trace_dump(&self) -> Vec<TraceView> {
        self.sinks.trace.dump()
    }

    /// Assembles a point-in-time [`MetricsSnapshot`] — the one function that
    /// reads the sinks and the admission, WAL, cache and queue counters;
    /// every report is a view of its result.  Lock-free on the hot
    /// counters and the queue counters (depths included); the tenant
    /// counters take their short registration lock.  Callable at any
    /// moment — including while the pipeline is poisoned.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = &self.sinks;
        let uptime = s.started.elapsed();
        let stages = StageId::ALL
            .into_iter()
            .filter(|&st| st != StageId::Deliver)
            .map(|st| {
                let code = st.code() as usize;
                let busy = Duration::from_nanos(s.stage_busy_ns[code].load(Ordering::Relaxed));
                StageSnapshot {
                    stage: st,
                    busy,
                    batches: s.stage_batches[code].load(Ordering::Relaxed),
                    busy_frac: if uptime.is_zero() {
                        0.0
                    } else {
                        busy.as_secs_f64() / uptime.as_secs_f64()
                    },
                }
            })
            .collect();
        let first = s.first_submit_ns.load(Ordering::Relaxed);
        let last = s.last_complete_ns.load(Ordering::Relaxed);
        let total_time = if first == 0 || last == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(last.saturating_sub(first))
        };
        let mut admission = AdmissionCounters::default();
        let tenants: Vec<TenantStats> = (0..self.admission.num_tenants())
            .map(|i| {
                let (spec, counters) = self.admission.tenant_snapshot(i);
                admission += counters;
                let tc = &s.tenants[i];
                let served = tc.served.load(Ordering::Relaxed) + counters.served_stale;
                TenantStats {
                    name: spec.name,
                    weight: spec.weight,
                    policy: spec.policy,
                    backend: spec.backend.unwrap_or_default(),
                    counters,
                    served,
                    late: tc.late.load(Ordering::Relaxed),
                    served_stale: counters.served_stale,
                    latency: LatencySummary::from_histogram(&tc.latency_ns.snapshot(), NS_PER_MS),
                    throughput_eps: per_second(served, total_time),
                }
            })
            .collect();
        // The served totals: every pipeline batch is one backend's, and
        // every stale answer is a batch of one event.
        let all = BackendKind::ALL.map(|k| s.backends[k.code()].stats(k));
        let batches_served =
            all.iter().map(|b| b.served_batches).sum::<u64>() + admission.served_stale;
        let events_served =
            all.iter().map(|b| b.served_events).sum::<u64>() + admission.served_stale;
        // One row per *prepared* backend — every kind some tenant routes to
        // — whether or not it has served yet: an idle pool is information.
        let backends = all
            .into_iter()
            .filter(|b| tenants.iter().any(|t| t.backend == b.kind))
            .collect();
        let epochs = self.next_epoch.load(Ordering::SeqCst);
        let dl = s.delivery_latency_us.snapshot();
        let trace = TraceStats {
            capacity: s.trace.capacity(),
            begun: s.trace.begun(),
            conflicts: s.trace.conflicts(),
            overflows: s.trace.overflows(),
            delivery_p99_ms: dl.percentile(0.99) as f64 / 1e3,
            exemplars: s.exemplars.lock().unwrap().iter().cloned().collect(),
            head_samples: s.head_samples.lock().unwrap().iter().cloned().collect(),
        };
        MetricsSnapshot {
            enabled: s.enabled,
            uptime,
            total_time,
            epochs,
            batches_served,
            events_served,
            embeddings: s.embeddings.load(Ordering::Relaxed),
            seals: std::array::from_fn(|i| s.seals[i].load(Ordering::Relaxed)),
            gru_blocks_offered: s.gru_offered.load(Ordering::Relaxed),
            gru_blocks_helped: s.gru_helped.load(Ordering::Relaxed),
            batch_events: s.batch_events.snapshot(),
            queues: self.queues.iter().map(QueueMonitor::stats).collect(),
            stages,
            batch_latency: LatencySummary::from_histogram(&s.latency_ns.snapshot(), NS_PER_MS),
            admission,
            tenants,
            backends,
            durability: self.durability.as_ref().map(|d| {
                let fsync = s.fsync_us.snapshot();
                DurabilityStats {
                    fsync_p50_us: fsync.percentile(0.50),
                    fsync_p99_us: fsync.percentile(0.99),
                    fsync_mean_us: fsync.mean(),
                    ..d.stats(epochs)
                }
            }),
            cache: self.cache.as_ref().map(|cache| cache.stats()),
            flight: FlightStats {
                capacity: s.recorder.capacity(),
                recorded: s.recorder.recorded(),
                dropped: s.recorder.dropped(),
            },
            slo: s.slo.as_ref().map(|e| e.status()).unwrap_or_default(),
            trace,
            gemm_kernels: tgnn_tensor::dispatched_kernels(),
        }
    }

    /// Dumps the flight recorder: the last N enter/exit/mark events across
    /// every worker, in recording order.  Works concurrently with the
    /// pipeline and after a panic/poison — the ring is shared by `Arc` and
    /// written with seqlock stores, so no dying worker can corrupt or lock
    /// it.  A poisoned epoch shows up as an `Enter` without a matching
    /// `Exit` on the stage that was holding it.
    pub fn flight_dump(&self) -> Vec<SpanRecord> {
        self.sinks
            .recorder
            .dump()
            .into_iter()
            .filter_map(|r| {
                Some(SpanRecord {
                    seq: r.seq,
                    at: Duration::from_nanos(r.tick_ns),
                    stage: StageId::from_code(r.stage)?,
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
                // Read the flag before the snapshot, so the last line is
                // taken after `stop` — a snapshot already under way when
                // the flag is set can predate the caller's final counts.
                let stopping = flag.load(Ordering::Acquire);
                let line = hub.snapshot().to_json_line();
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
                if stopping {
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
            .field("enabled", &self.sinks.enabled)
            .field("flight_capacity", &self.sinks.recorder.capacity())
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
    /// Which stage recorded the event (each stage is one worker thread).
    pub stage: StageId,
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
    /// Cumulative busy time of the stage (includes downstream backpressure
    /// blocking; excludes waiting for input).
    pub busy: Duration,
    /// Spans completed (≈ epochs processed).
    pub batches: u64,
    /// `busy / uptime` — the stage's utilization; idle is `1 - busy_frac`.
    pub busy_frac: f64,
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
/// ([`Self::render_table`]) and — both walks over one metric catalogue, so
/// they export the same families under the same names — as Prometheus-style
/// text ([`Self::to_prometheus`]) or a JSONL line ([`Self::to_json_line`]).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Whether the session records metrics (`false` ⇒ counters are zeros).
    pub enabled: bool,
    /// Time since the pipeline was spawned.
    pub uptime: Duration,
    /// First submit → last completed batch: the serving time every
    /// throughput figure (the report's, each tenant's) divides by.
    pub total_time: Duration,
    /// Highest epoch assigned so far (warm-up chunks + sealed batches).
    pub epochs: u64,
    /// Micro-batches served: those that completed the pipeline plus the
    /// one-event batches of stale cache answers.
    pub batches_served: u64,
    /// Events in those batches.
    pub events_served: u64,
    /// Embeddings produced.
    pub embeddings: u64,
    /// Micro-batches sealed, by [`SealReason::code`]: how the batcher is
    /// adapting — mostly `idle` at partial load, mostly `full` at
    /// saturation.
    pub seals: [u64; SealReason::ALL.len()],
    /// GRU row blocks the state worker offered the GNN worker: the blocks
    /// of every batch whose GRU fills more than one, while `state→gnn` has
    /// room.
    pub gru_blocks_offered: u64,
    /// Of those, the blocks the GNN worker computed between its jobs —
    /// `gru_blocks_helped / gru_blocks_offered` is the GRU's share it took.
    pub gru_blocks_helped: u64,
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
    /// Seal-to-embeddings latency percentiles from the log-linear histogram
    /// (≤ 6.25 % relative error; `max_ms` is the top non-empty bucket) — the
    /// histogram [`ServeReport::latency`](crate::ServeReport::latency) reads,
    /// so the two always agree; recorded with metrics on or off.
    pub batch_latency: LatencySummary,
    /// Admission counters summed over tenants (drops broken out by policy;
    /// `max_depth` is the deepest tenant queue).
    pub admission: AdmissionCounters,
    /// Per-tenant admission + completion statistics, indexed by
    /// [`TenantId::index`](tgnn_core::tenancy::TenantId::index) — the rows
    /// [`ServeReport::tenants`](crate::ServeReport::tenants) carries.
    pub tenants: Vec<TenantStats>,
    /// Per-backend serving counters, one row per prepared compute backend
    /// ([`BackendKind::code`] order), idle ones included.
    pub backends: Vec<BackendStats>,
    /// WAL counters, fsync latency and snapshot-writer lag; `None` without
    /// durability.
    pub durability: Option<DurabilityStats>,
    /// Embedding-cache counters (hits, misses, stale serves and their age
    /// distribution, occupancy); `None` when no cache is configured.
    pub cache: Option<CacheStats>,
    /// Flight-recorder occupancy.
    pub flight: FlightStats,
    /// Evaluated SLO burn-rate verdicts (empty without `ServeConfig::slo`).
    pub slo: Vec<SloStatus>,
    /// Causal-trace slab counters plus retained tail/head exemplars.
    pub trace: TraceStats,
    /// The GEMM kernels this process dispatches, `(f32, int8)`, by the CPU
    /// feature each is built for ([`tgnn_tensor::dispatched_kernels`]) —
    /// the server's own answer to "which code served", for comparing hosts.
    pub gemm_kernels: (&'static str, &'static str),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `code()` is `self as u8`, which is the index into `ALL` only while
    /// the variants are declared in `ALL`'s order.
    #[test]
    fn stage_and_segment_codes_index_their_all_arrays() {
        for (i, s) in StageId::ALL.into_iter().enumerate() {
            assert_eq!(s.code() as usize, i);
            assert_eq!(StageId::from_code(i as u8), Some(s));
        }
        assert_eq!(StageId::from_code(StageId::ALL.len() as u8), None);
        for (i, s) in SegmentId::ALL.into_iter().enumerate() {
            assert_eq!(s.code() as usize, i);
            assert_eq!(SegmentId::from_code(i as u8), Some(s));
        }
        assert_eq!(SegmentId::from_code(SegmentId::ALL.len() as u8), None);
    }
}
