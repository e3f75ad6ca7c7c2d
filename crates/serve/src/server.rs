//! The streaming inference server: admission, worker lifecycle, and the
//! backpressure-aware serve report.
//!
//! A server owns two pipeline workers over two queues, whatever its
//! backend mix and durability policy — the tenant ingress queues →
//! `tgnn-serve-state` → `state→gnn` → `tgnn-serve-gnn` → `gnn→results` →
//! `poll`.

use crate::admission::{
    AdmissionControl, AdmissionCounters, StaleServing, SubmitOutcome, TenantSpec,
};
use crate::cache::{CacheConfig, CacheStats, EmbeddingCache};
use crate::durability::{Durability, DurabilityStats, RecoveryReport};
use crate::metrics::{per_second, MetricsHub, MetricsSnapshot, Sinks, StageId};
use crate::pipeline::{
    gnn_loop, state_loop, Batcher, GnnCompute, GnnFaultHook, ServedBatch, StateObs, StateStage,
    ToGnn, STATE_ONLY,
};
use crate::queue::{channel, QueueStats, Receiver};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tgnn_core::profiling::{Stage, StageTimings};
use tgnn_core::stages::GnnJobBatch;
use tgnn_core::tenancy::{Disposition, OverloadPolicy, ResultMeta, TenantId};
use tgnn_core::{BackendKind, ShardedMemory, TgnModel};
use tgnn_durable::{
    list_snapshots, load_snapshot, plan_recovery, read_wal, repair_torn_tail, DurabilityConfig,
    DurableError,
};
use tgnn_graph::{EventBatch, InteractionEvent, ShardedNeighborTable, TemporalGraph, Timestamp};
use tgnn_obs::HistogramSnapshot;
use tgnn_tensor::Workspace;

/// Tuning knobs of the streaming pipeline.
#[derive(Clone)]
pub struct ServeConfig {
    /// The **cap** on a micro-batch, in events.  Batch size is not set, it
    /// follows load: each time the state worker finishes a batch it takes
    /// everything pending, up to this cap, as the next one — so a lightly
    /// loaded server serves batches of one or two events and only a
    /// saturated one fills them.  A batch can only hold what is queued at
    /// that moment, so at saturation it is `min(max_batch, Σ ingress
    /// capacities)` events ([`TenantSpec::ingress_capacity`]).  It bounds
    /// the work per epoch (and the GEMM row count), not the latency.  Also
    /// the unit [`DurabilityConfig::snapshot_every`] is denominated in.
    /// Must be at least 1.
    pub max_batch: usize,
    /// Capacity of the inter-stage `state→gnn` queue (micro-batches in
    /// flight between the state and GNN workers).
    pub stage_capacity: usize,
    /// Capacity of the results queue (completed batches awaiting `poll`).
    pub results_capacity: usize,
    /// Number of vertex shards for the neighbor table and the memory table.
    pub num_shards: usize,
    /// Tenant table of the admission layer.  Empty (the default) means a
    /// single implicit [`TenantId::DEFAULT`] tenant —
    /// `TenantSpec::new("default")`: `Block` policy, 1024-event ingress
    /// queue — so served results are bit-identical to the
    /// pre-admission-layer server and `submit` blocks rather than drop.
    /// Backpressure starts at that queue: the state worker pulls from it
    /// only as fast as it steps batches.  With more than one entry,
    /// `submit_for` routes each event to its tenant's bounded ingress queue
    /// and the state worker drains them weighted-fair into micro-batches;
    /// see [`TenantSpec`] and [`OverloadPolicy`].
    pub tenants: Vec<TenantSpec>,
    /// Bounded-staleness embedding cache keyed on `(vertex, epoch)`,
    /// populated with every served embedding and invalidated at the epoch
    /// barrier — the backing store of
    /// [`OverloadPolicy::ServeStale`](tgnn_core::tenancy::OverloadPolicy).
    /// `None` (the default) builds no cache *unless* some tenant runs
    /// `ServeStale`, in which case [`CacheConfig::default`] is used; set it
    /// explicitly to size the capacity/staleness bound, or to enable the
    /// cache (and its hit/miss metrics) without the policy.
    pub cache: Option<CacheConfig>,
    /// Test-only fault-injection hook passed to the GNN worker; `None` in
    /// production.  See [`GnnFaultHook`].
    pub gnn_fault: Option<GnnFaultHook>,
    /// Opt-in durability: write-ahead log of admission outcomes plus
    /// checksummed snapshots at epoch barriers, enabling
    /// [`StreamServer::recover`] to resume bit-identically after a crash.
    /// `None` (the default) performs no logging, no snapshots, and no I/O
    /// on any hot path, and single-tenant served results are bit-for-bit
    /// the pre-durability server's.  One behaviour is shared by both
    /// settings: the state worker restores chronological order *inside* each
    /// multi-tenant sealed batch (stable sort, so per-tenant order is
    /// preserved), because the engine consumes every batch as a
    /// chronological stream — the weighted-fair cross-tenant interleave
    /// alone does not guarantee that, durable or not.
    pub durability: Option<DurabilityConfig>,
    /// Whether the pipeline records live metrics and flight-recorder spans
    /// (`true` by default — the recording cost is a couple of relaxed
    /// atomics per stage per batch, budgeted at ≤ 2 % of throughput; a
    /// traced `benchmark/` run measures it as `serve.metrics_overhead_pct`).
    /// With `false`, [`StreamServer::metrics`] still answers (queue depths,
    /// tenant counters and the batch-latency histogram are maintained
    /// regardless) but stage spans, the fsync and delivery histograms, causal
    /// traces, and the flight recorder stay empty.
    pub metrics: bool,
    /// Capacity of the flight recorder ring, in span events.  Each epoch
    /// generates about 11 of them — an enter and an exit for each of its
    /// five stage spans (batcher, sampler, memory, GNN, update) plus the
    /// delivery mark — so the default 4096 keeps a few hundred epochs of
    /// timeline for post-mortems — a few hundred *micro-batches*, whatever
    /// size load made them: tens of
    /// thousands of stream events at saturation, a few hundred on a lightly
    /// loaded server (there the last few hundred epochs are also the last
    /// tens of milliseconds, which is what a post-mortem wants).
    pub flight_capacity: usize,
    /// 1-in-N sampling for per-event observability: the `scheduler`
    /// stage's flight-ring spans (its unit of work is one pull from the
    /// ingress queues — a single event on a trickling feed — not one epoch)
    /// and the causal-trace head-sample retention both keep every N-th
    /// item.  `1` records everything; clamped to at least 1.  The default
    /// 64 keeps the scheduler's ring traffic from evicting the per-epoch
    /// timeline.
    pub metrics_sampling: u64,
    /// Declared service-level objectives evaluated over burn-rate windows
    /// ([`SloConfig`](crate::SloConfig)); their status rides every
    /// [`MetricsSnapshot`].  `None` (the default)
    /// runs no SLO engine.  SLO accounting is independent of `metrics` —
    /// the engine is a handful of relaxed atomics per submit/delivery.
    pub slo: Option<crate::metrics::SloConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 200,
            stage_capacity: 4,
            results_capacity: 256,
            num_shards: 4,
            tenants: Vec::new(),
            cache: None,
            gnn_fault: None,
            durability: None,
            metrics: true,
            flight_capacity: 4096,
            metrics_sampling: 64,
            slo: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_batch", &self.max_batch)
            .field("stage_capacity", &self.stage_capacity)
            .field("results_capacity", &self.results_capacity)
            .field("num_shards", &self.num_shards)
            .field("tenants", &self.tenants)
            .field("cache", &self.cache)
            .field("gnn_fault", &self.gnn_fault.as_ref().map(|_| "<hook>"))
            .field("durability", &self.durability)
            .field("metrics", &self.metrics)
            .field("flight_capacity", &self.flight_capacity)
            .field("metrics_sampling", &self.metrics_sampling)
            .field("slo", &self.slo)
            .finish()
    }
}

/// Latency percentiles over a set of measurements (micro-batch
/// seal-to-embeddings, or per-tenant admission-to-completion), in
/// milliseconds.  Percentiles use nearest-rank over a log-linear histogram
/// (each value is reported as its bucket's upper bound, ≤ 6.25 % high).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// 50th percentile (median).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Largest observed value.
    pub max_ms: f64,
}

/// Histogram units per millisecond for the sinks' nanosecond samples.
pub(crate) const NS_PER_MS: f64 = 1e6;

impl LatencySummary {
    /// Summarizes a log-linear histogram whose samples were recorded in
    /// units of `1 / per_ms` milliseconds (`1e6` for nanoseconds).  Each
    /// percentile is the upper bound of the bucket holding its nearest-rank
    /// sample — at most 6.25 % above the exact value; the mean uses bucket
    /// midpoints and `max_ms` is the top non-empty bucket's upper bound.
    pub(crate) fn from_histogram(h: &HistogramSnapshot, per_ms: f64) -> Self {
        Self {
            mean_ms: h.mean() / per_ms,
            p50_ms: h.percentile(0.50) as f64 / per_ms,
            p95_ms: h.percentile(0.95) as f64 / per_ms,
            p99_ms: h.percentile(0.99) as f64 / per_ms,
            max_ms: h.max() as f64 / per_ms,
        }
    }
}

/// Per-tenant slice of the serve report: admission counters, completion
/// counters, and the admission-to-completion latency distribution — the
/// client-visible delay the tenant's overload policy bounds.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Display name from the tenant's [`TenantSpec`].
    pub name: String,
    /// Weighted-fair share the scheduler honoured.
    pub weight: u32,
    /// Overload policy the tenant ran with.
    pub policy: OverloadPolicy,
    /// Compute backend the tenant's batches were routed to — the resolved
    /// value of [`TenantSpec::backend`] (every spec is resolved at build
    /// time, so undeclared tenants show the server's passthrough kind).
    pub backend: BackendKind,
    /// Admission-side counters (submitted / admitted / drops by kind /
    /// blocked submits / max ingress depth), snapshotted whole from the
    /// admission layer — see [`AdmissionCounters`] for each field's
    /// contract.
    pub counters: AdmissionCounters,
    /// Events whose results were delivered: pipeline-served events plus
    /// `counters.served_stale`, the cache-served stale answers.
    pub served: u64,
    /// Served events graded [`Disposition::Late`](tgnn_core::tenancy::Disposition).
    pub late: u64,
    /// Served events answered from the embedding cache
    /// ([`Disposition::Stale`](tgnn_core::tenancy::Disposition)) — a subset
    /// of `served`, excluded from `latency` (they bypass the pipeline).
    /// Reads `counters.served_stale`.
    pub served_stale: u64,
    /// Admission-to-completion latency distribution of the pipeline-served
    /// events (stale answers excluded).
    pub latency: LatencySummary,
    /// Served events per second over the session's `total_time`.
    pub throughput_eps: f64,
}

impl TenantStats {
    /// Total events this tenant lost to its drop policy.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped()
    }

    /// Fraction of submitted events that were dropped (0 when nothing was
    /// submitted).
    pub fn drop_rate(&self) -> f64 {
        if self.counters.submitted == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.counters.submitted as f64
        }
    }
}

/// Per-backend slice of the serve report and of the
/// [`MetricsSnapshot`]: how many pipeline-served batches
/// each prepared compute backend answered and the distribution of the
/// service latencies the paper's U200 pipeline model predicts for them.
/// Stale cache answers are served by the cache, not a backend, and are
/// excluded.
#[derive(Clone, Debug)]
pub struct BackendStats {
    /// Which datapath this row describes.
    pub kind: BackendKind,
    /// Pipeline-served micro-batches this backend computed.
    pub served_batches: u64,
    /// Events inside those batches.
    pub served_events: u64,
    /// Modelled U200 service-latency distribution, one sample per served
    /// batch (recovery re-serves included); `None` until the backend has
    /// served one.
    pub modeled_latency: Option<LatencySummary>,
    /// Samples in that distribution: one per batch this backend served.
    pub modeled_samples: u64,
}

/// Aggregate report of a serve session — throughput, tail latency, queue
/// occupancy (the backpressure picture), per-tenant admission statistics,
/// and state-consistency counters.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Events pushed through the pipeline.
    pub num_events: usize,
    /// Micro-batches served.
    pub num_batches: usize,
    /// Dynamic node embeddings produced.
    pub num_embeddings: usize,
    /// First submit → last completed batch.
    pub total_time: Duration,
    /// Events per second over `total_time`.
    pub throughput_eps: f64,
    /// Seal-to-embeddings latency distribution.
    pub latency: LatencySummary,
    /// Per-queue occupancy statistics: `state→gnn`, then `gnn→results`.
    pub queues: Vec<QueueStats>,
    /// Blocked `send`s on the inter-stage queues plus blocked `submit_for`
    /// calls on full tenant ingress queues — the client-visible
    /// backpressure count.
    pub backpressure_blocks: u64,
    /// Per-tenant admission/completion statistics, indexed by
    /// [`TenantId::index`].  Single-tenant sessions have one "default" row.
    pub tenants: Vec<TenantStats>,
    /// Per-backend serving statistics, one row per prepared compute backend
    /// (in [`BackendKind::code`] order).  A passthrough session has exactly
    /// one row.
    pub backends: Vec<BackendStats>,
    /// Vertex-memory rows committed ([`ShardedMemory::commits`]).
    pub commits: usize,
    /// True when no commit was earlier than its vertex's stored update time
    /// ([`ShardedMemory::backward_commits`] is zero) — the pipeline
    /// analogue of `InferenceEngine::backward_commits() == 0`.
    pub commit_log_clean: bool,
    /// Shard count the session ran with.
    pub num_shards: usize,
    /// WAL/snapshot counters when the session ran with
    /// [`ServeConfig::durability`]; `None` on the legacy path.
    pub durability: Option<DurabilityStats>,
    /// Embedding-cache counters (hit rate, staleness bound and stale-age
    /// distribution included) when the session ran with a cache
    /// ([`ServeConfig::cache`] or any `ServeStale` tenant); `None` otherwise.
    pub cache: Option<CacheStats>,
    /// Per-stage busy-time breakdown (sample / memory / GNN / update) from
    /// the worker span counters — the serve-path counterpart of the batch
    /// engine's Table-I-shaped `core::profiling` report.  All zeros when
    /// [`ServeConfig::metrics`] is off.
    pub stage_timings: StageTimings,
}

/// Why a `submit` was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitError {
    /// The event's timestamp precedes an already submitted event of the
    /// same tenant (each tenant's stream must be chronological; different
    /// tenants' streams are ordered independently).
    OutOfOrder {
        /// Latest timestamp the tenant has already submitted.
        previous: Timestamp,
        /// The offending event's timestamp.
        submitted: Timestamp,
    },
    /// The tenant id is not in the server's tenant table.
    UnknownTenant(TenantId),
    /// The server has been drained (or a worker died).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::OutOfOrder {
                previous,
                submitted,
            } => write!(
                f,
                "event at t={submitted} submitted after t={previous}: each tenant's stream must be chronological"
            ),
            SubmitError::UnknownTenant(t) => {
                write!(f, "{t} is not in the server's tenant table")
            }
            SubmitError::Closed => write!(f, "server is drained or its pipeline has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A continuously running, pipelined TGN inference server.
///
/// Feed chronological [`InteractionEvent`]s with [`Self::submit`] (or
/// [`Self::submit_for`] on a multi-tenant configuration); the admission
/// layer queues them per tenant, the state worker drains tenants
/// weighted-fair into micro-batches and advances the temporal state batch
/// by batch (sample → memory → gather → commit), and the GNN worker
/// computes each batch's embeddings meanwhile.  Completed batches
/// come back via [`Self::poll`]; [`Self::drain`] flushes everything and
/// returns the [`ServeReport`].
pub struct StreamServer {
    admission: Arc<AdmissionControl>,
    results_rx: Receiver<ServedBatch>,
    /// Batches `poll` serves ahead of the results queue: recovery's
    /// re-served epochs, and what `drain` emptied the queue into.
    completed: VecDeque<ServedBatch>,
    workers: Vec<JoinHandle<()>>,
    /// The bounded-staleness embedding cache, when configured (explicitly
    /// or via a `ServeStale` tenant).
    cache: Option<Arc<EmbeddingCache>>,
    /// Stale batches the admission layer synthesized from the cache,
    /// drained by `poll` ahead of pipeline results.
    stale_out: Option<Arc<Mutex<VecDeque<ServedBatch>>>>,
    memory: Arc<ShardedMemory>,
    table: Arc<ShardedNeighborTable>,
    /// The shared stage model: sampling/memory/update run on it, and it is
    /// the single state trajectory every backend serves from.  Passthrough
    /// sessions keep the base model as-is (including an attached int8
    /// weight set); heterogeneous sessions pin it to f32.
    model: Arc<TgnModel>,
    /// The prepared compute backends and the U200 latency model.  Recovery
    /// replays sealed epochs through these — the same per-tenant routing
    /// the live pipeline runs.
    compute: Arc<GnnCompute>,
    /// Resolved backend kind per tenant index — what `build` wrote back
    /// into the tenant specs before admission started.
    tenant_backends: Vec<BackendKind>,
    graph: Arc<TemporalGraph>,
    next_epoch: Arc<AtomicU64>,
    hub: MetricsHub,
    /// Latest timestamp absorbed by `warm_up` — the floor every tenant's
    /// stream starts from.
    warm_timestamp: Timestamp,
    submitted: usize,
    num_shards: usize,
    durability: Option<Arc<Durability>>,
    /// SLO recording handle: `poll` grades every pipeline delivery against
    /// the latency objective (a no-op without `ServeConfig::slo`).
    slo: crate::metrics::SloHandle,
}

impl StreamServer {
    /// Builds the sharded state and spawns the pipeline workers: state and
    /// GNN.
    ///
    /// # Panics
    /// Panics if `config.max_batch` is 0, if a configured tenant has a zero
    /// weight or ingress capacity or a `rate_eps` that is not finite and
    /// positive, or if `config.durability` points at a directory that
    /// already contains WAL segments — a prior durable session ended there,
    /// and silently appending to its log would corrupt the seal sequence;
    /// call [`Self::recover`] instead.
    pub fn new(model: TgnModel, graph: Arc<TemporalGraph>, config: ServeConfig) -> Self {
        if let Some(dcfg) = &config.durability {
            assert!(
                !has_wal_segments(&dcfg.dir),
                "StreamServer::new: durability dir {} holds an existing WAL — \
                 use StreamServer::recover to resume it",
                dcfg.dir.display()
            );
        }
        Self::build(model, graph, config, 0)
    }

    /// [`Self::new`] with the WAL continuation point chosen by the caller
    /// (`wal_last_seq = 0` for a fresh log; recovery passes the scanned
    /// last segment so the new log never appends to a possibly-repaired
    /// tail).
    fn build(
        model: TgnModel,
        graph: Arc<TemporalGraph>,
        config: ServeConfig,
        wal_last_seq: u64,
    ) -> Self {
        // A zero cap makes every pull empty, which kills the state worker
        // mid-stream; rejected here, before anything is opened or spawned.
        assert!(config.max_batch >= 1, "ServeConfig: max_batch must be >= 1");
        let num_nodes = graph.num_nodes();
        let num_shards = config.num_shards;
        let mut tenants = if config.tenants.is_empty() {
            vec![TenantSpec::new("default")]
        } else {
            config.tenants.clone()
        };
        // Resolve every tenant's compute backend up front.  With no
        // declarations the server is a single-backend passthrough — the
        // base model serves as-is (on its int8 weight set when one is
        // attached), bit-identical to the pre-backend pipeline.  Once any
        // tenant declares a backend the GNN stage goes heterogeneous, and
        // undeclared tenants resolve to the same passthrough kind they
        // would have had alone.
        let heterogeneous = tenants.iter().any(|t| t.backend.is_some());
        let passthrough_kind = if model.is_quantized() {
            BackendKind::Int8
        } else {
            BackendKind::F32
        };
        for t in &mut tenants {
            if t.backend.is_none() {
                t.backend = Some(passthrough_kind);
            }
        }
        let tenant_backends: Vec<BackendKind> =
            tenants.iter().map(|t| t.backend.unwrap()).collect();
        // The recording sinks come first: every writer built below — the
        // WAL, admission's stale path, the workers — gets its handle onto
        // them at construction.
        let sinks = Arc::new(Sinks::new(&config, tenants.len()));
        let durability = config.durability.as_ref().map(|dcfg| {
            Arc::new(
                Durability::open(
                    dcfg,
                    wal_last_seq,
                    config.max_batch,
                    sinks.stage_obs(StageId::WalSync),
                    sinks.stage_obs(StageId::SnapWriter),
                )
                .expect("StreamServer: opening the WAL failed"),
            )
        });
        // The cache exists when configured explicitly or when any tenant
        // needs it for its overload policy.
        let cache_config = config.cache.or_else(|| {
            tenants
                .iter()
                .any(|t| t.policy == OverloadPolicy::ServeStale)
                .then(CacheConfig::default)
        });
        let cache = cache_config.map(|c| Arc::new(EmbeddingCache::new(c, num_shards)));
        let stale_out = cache
            .is_some()
            .then(|| Arc::new(Mutex::new(VecDeque::new())));
        // The SLO engine is one of the sinks: admission feeds the drop
        // objective (and consults the burn gate when `preempt_stale` is
        // on), `poll` feeds the latency objective, and the hub snapshots
        // the verdicts.
        let slo_handle = crate::metrics::SloHandle::new(sinks.slo.clone(), config.slo.as_ref());
        let burn_gate: Option<crate::admission::BurnGate> =
            config.slo.as_ref().filter(|c| c.preempt_stale).map(|_| {
                let h = slo_handle.clone();
                Arc::new(move || h.fired()) as crate::admission::BurnGate
            });
        let admission = Arc::new(
            AdmissionControl::new(tenants)
                .with_wal(durability.as_ref().map(|d| d.wal.clone()))
                .with_stale(cache.as_ref().zip(stale_out.as_ref()).map(|(cache, out)| {
                    StaleServing {
                        cache: cache.clone(),
                        out: out.clone(),
                        obs: sinks.stage_obs(StageId::Deliver),
                    }
                }))
                .with_slo(slo_handle.clone())
                .with_burn_gate(burn_gate),
        );
        let model = Arc::new(model);
        // One prepared backend per kind any tenant routes to, and the
        // latency model that times every batch they compute.
        let compute = Arc::new(GnnCompute::new(&model, &tenant_backends));
        // The sampling/memory/update stages run once on one shared model —
        // a single temporal-state trajectory regardless of who computes
        // embeddings.  A heterogeneous session pins that model to f32
        // (quantized weights detached) so the trajectory is
        // backend-independent; a passthrough session keeps the base model
        // as-is, preserving the fully-quantized serve path bit for bit.
        let stage_model = if heterogeneous {
            let mut m = (*model).clone();
            m.detach_quantized();
            Arc::new(m)
        } else {
            model.clone()
        };
        let memory = Arc::new(ShardedMemory::for_config(
            num_nodes,
            &model.config,
            num_shards,
        ));
        let table = Arc::new(ShardedNeighborTable::new(
            num_nodes,
            model.config.sampled_neighbors,
            num_shards,
        ));
        let next_epoch = Arc::new(AtomicU64::new(0));

        let (gnn_tx, gnn_rx) = channel::<ToGnn>("state→gnn", config.stage_capacity);
        let (results_tx, results_rx) =
            channel::<ServedBatch>("gnn→results", config.results_capacity);
        let queues = vec![gnn_tx.monitor(), results_tx.monitor()];

        let mut workers = Vec::with_capacity(2);
        {
            let batcher = Batcher {
                admission: admission.clone(),
                max_batch: config.max_batch,
                next_epoch: next_epoch.clone(),
                durability: durability.clone(),
                pull_obs: sinks.stage_obs(StageId::Scheduler),
                seal_obs: sinks.stage_obs(StageId::Batcher),
            };
            // The live stage carries what the quiesced replay paths
            // (`warm_up`, `recover`) leave off: commit hooks and stage spans.
            let mut stage = StateStage::new(
                memory.clone(),
                table.clone(),
                stage_model.clone(),
                graph.clone(),
            );
            stage.durability = durability.clone();
            stage.cache = cache.clone();
            stage.obs = Some(StateObs {
                sampler: sinks.stage_obs(StageId::Sampler),
                memory: sinks.stage_obs(StageId::Memory),
                update: sinks.stage_obs(StageId::Update),
            });
            workers.push(spawn("tgnn-serve-state", move || {
                state_loop(batcher, gnn_tx, stage)
            }));
        }
        {
            let compute = compute.clone();
            let cache = cache.clone();
            let durability = durability.clone();
            let fault = config.gnn_fault.clone();
            let obs = sinks.stage_obs(StageId::Gnn);
            workers.push(spawn("tgnn-serve-gnn", move || {
                gnn_loop(gnn_rx, results_tx, compute, cache, durability, fault, obs)
            }));
        }
        let hub = MetricsHub::new(
            sinks,
            admission.clone(),
            durability.clone(),
            cache.clone(),
            queues,
            next_epoch.clone(),
        );

        Self {
            admission,
            results_rx,
            completed: VecDeque::new(),
            workers,
            cache,
            stale_out,
            memory,
            table,
            model: stage_model,
            compute,
            tenant_backends,
            graph,
            next_epoch,
            hub,
            warm_timestamp: Timestamp::NEG_INFINITY,
            submitted: 0,
            num_shards,
            durability,
            slo: slo_handle,
        }
    }

    /// Rebuilds a durable server from its durability directory: loads the
    /// latest valid snapshot, replays the durable WAL tail through the
    /// normal stage entry points, and resumes exactly where the crashed
    /// session's durable prefix ended:
    ///
    /// * epochs sealed but **not delivered** are recomputed and re-served —
    ///   they come back through [`Self::poll`] first, in epoch order, with
    ///   `Disposition::OnTime` and zero latency, and their embeddings are
    ///   bit-identical to what the crashed server would have produced;
    /// * epochs sealed **and delivered** (acked) are replayed for state
    ///   only, never served twice;
    /// * events admitted but never sealed are back in their tenants'
    ///   ingress queues, ahead of any new submission;
    /// * per-tenant chronology floors (warm-up plus each tenant's last
    ///   durable submission) are re-imposed.
    ///
    /// A torn final WAL record — a crash mid-append — is truncated away and
    /// flagged in the [`RecoveryReport`].  Anything else that fails
    /// validation (a mid-log checksum error, a causal-order violation, an
    /// eligible snapshot that fails verification) is an error: recovery
    /// never serves from state it cannot prove consistent.
    ///
    /// `config` must describe the same model/graph/shard/tenant layout the
    /// crashed session ran with.
    pub fn recover(
        model: TgnModel,
        graph: Arc<TemporalGraph>,
        config: ServeConfig,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let t0 = Instant::now();
        let dcfg = config
            .durability
            .clone()
            .expect("StreamServer::recover requires ServeConfig::durability");
        let mut scan = read_wal(&dcfg.dir)?;
        let torn = scan.torn.take();
        if let Some(t) = &torn {
            repair_torn_tail(t)?;
        }
        let num_tenants = config.tenants.len().max(1);
        let plan = plan_recovery(&scan, num_tenants)?;

        // Latest eligible snapshot: `floor` snapshots (warm-up / clean
        // drain) are always usable; interval snapshots only when everything
        // sealed past them was already delivered (`epoch <= acked`) —
        // otherwise the undelivered epochs behind them could not be
        // re-served.  An eligible snapshot that fails verification — a
        // checksum, or an edge id this graph does not have — falls back to
        // the next older one; if none survives, that is corruption, not a
        // silent cold start.
        let entries = list_snapshots(&dcfg.dir)?;
        let mut loaded = None;
        let mut eligible = 0usize;
        for entry in entries.iter().rev() {
            if !(entry.meta.floor || entry.meta.epoch <= plan.acked) {
                continue;
            }
            eligible += 1;
            if let Ok(s) = load_snapshot(entry, graph.edge_features().rows()) {
                loaded = Some(s);
                break;
            }
        }
        if loaded.is_none() && eligible > 0 {
            return Err(DurableError::corrupt(
                "no eligible snapshot passed verification",
            ));
        }

        let mut server = Self::build(model, graph, config, scan.last_seq);
        let d = server
            .durability
            .clone()
            .expect("build keeps the durability handle");
        d.set_acked(plan.acked);

        let snapshot_epoch = loaded.as_ref().map_or(0, |s| s.meta.epoch);
        if let Some(s) = loaded {
            if s.meta.num_shards as usize != server.num_shards {
                return Err(DurableError::corrupt(format!(
                    "snapshot has {} shards, server configured with {}",
                    s.meta.num_shards, server.num_shards
                )));
            }
            server.warm_timestamp = s.meta.warm_timestamp;
            server.admission.set_timestamp_floor(s.meta.warm_timestamp);
            d.seed_from_snapshot(&s.meta);
            for (i, mem) in s.memory.into_iter().enumerate() {
                server.memory.restore_shard(i, mem);
            }
            for (i, table) in s.tables.into_iter().enumerate() {
                server.table.restore_shard(i, table);
            }
        }
        server
            .next_epoch
            .store(snapshot_epoch.max(plan.max_sealed), Ordering::SeqCst);
        // Cold-start the cache at the recovered epoch: raising the watermark
        // first means any entry seeded below cannot be served beyond the
        // staleness bound measured against the *recovered* timeline — a
        // post-crash stale answer never references over-aged pre-crash state.
        if let Some(c) = &server.cache {
            c.set_committed_floor(snapshot_epoch.max(plan.max_sealed));
        }

        // Replay sealed epochs newer than the snapshot through the same
        // state step the pipeline runs — sampling the restored neighbor
        // table, the shared memory stage, the same write-back — which is
        // what makes the recovered state bit-identical to an uninterrupted
        // run.
        let mut stage = server.replay_stage();
        let mut ws = Workspace::new();
        let mut replayed_epochs = 0usize;
        let mut re_served_epochs = 0usize;
        let mut replayed_events = 0usize;
        let mut expected = snapshot_epoch;
        for sealed in &plan.sealed {
            if sealed.epoch <= snapshot_epoch {
                continue;
            }
            expected += 1;
            if sealed.epoch != expected {
                return Err(DurableError::corrupt(format!(
                    "sealed epoch {} does not follow the snapshot (epoch {}) contiguously",
                    sealed.epoch, snapshot_epoch
                )));
            }
            let events: Vec<InteractionEvent> = sealed.events.iter().map(|(_, e)| *e).collect();
            replayed_events += events.len();
            replayed_epochs += 1;
            d.note_absorbed(&events);
            if sealed.epoch <= plan.acked {
                // Sealed and delivered: replay for state only.
                stage.step(sealed.epoch, EventBatch::new(events), STATE_ONLY);
                continue;
            }
            // Sealed but never delivered: recompute the embeddings and queue
            // the batch for `poll`, ahead of anything new.  The job replays
            // on the same backend that would have served it live — sealed
            // batches are backend-homogeneous by construction, so the first
            // event's tenant decides.
            let kind = sealed
                .events
                .first()
                .and_then(|(t, _)| server.tenant_backends.get(*t as usize))
                .copied()
                .unwrap_or_default();
            let compute = &server.compute;
            let mut out = None;
            stage.step(
                sealed.epoch,
                EventBatch::new(events.clone()),
                Some(|job: GnnJobBatch, _| out = Some(compute.run(kind, &job, &mut ws))),
            );
            let (embeddings, modeled) = out.expect("step dispatches the gathered job");
            // Seed the cache from the re-served epochs — these are
            // bit-identical to what the crashed server computed, and the
            // pre-raised watermark ages them correctly (entries already
            // beyond the bound are simply never answered).
            if let Some(c) = &server.cache {
                for (v, emb) in &embeddings {
                    c.insert(*v, sealed.epoch, emb);
                }
            }
            let metas: Vec<ResultMeta> = sealed
                .events
                .iter()
                .map(|(t, _)| ResultMeta {
                    tenant: TenantId(*t),
                    disposition: Disposition::OnTime,
                    backend: kind,
                    // Re-served epochs never ran this session's
                    // pipeline: no trace.
                    trace_id: 0,
                })
                .collect();
            // Counted as served, with its modelled latency but no measured
            // one: a re-serve never ran this session's pipeline.
            let sinks = &server.hub.sinks;
            sinks.served_batch(kind, events.len(), embeddings.len(), None, modeled);
            for (t, _) in &sealed.events {
                sinks.served_event(TenantId(*t), None);
            }
            let now = Instant::now();
            server.completed.push_back(ServedBatch {
                epoch: sealed.epoch,
                events,
                metas,
                embeddings,
                backend: kind,
                cache_epochs: Vec::new(),
                latency: Duration::ZERO,
                admitted_at: now,
                completed_at: now,
            });
            re_served_epochs += 1;
        }

        // Admitted-but-unsealed events go back into their ingress queues,
        // bypassing overload/rate policies (they already passed them) and
        // without re-logging (their admits are already durable); each
        // tenant's chronology floor is raised to its last durable
        // submission.
        let mut readmitted_events = 0usize;
        for (t, tail) in plan.tails.iter().enumerate() {
            if tail.is_empty() && plan.max_timestamp[t] == f64::NEG_INFINITY {
                continue;
            }
            server
                .admission
                .restore(TenantId(t as u32), tail, plan.max_timestamp[t]);
            readmitted_events += tail.len();
        }
        server.submitted = plan.admits.iter().sum::<u64>() as usize;
        if server.submitted > 0 {
            // The per-life clock starts at recovery; `submit_for` only
            // stamps it on the very first submission ever.
            server.hub.sinks.start_clock();
        }

        let report = RecoveryReport {
            snapshot_epoch,
            acked: plan.acked,
            sealed_epochs: plan.sealed.len(),
            replayed_epochs,
            re_served_epochs,
            replayed_events,
            readmitted_events,
            resume_from: plan.admits.clone(),
            served_stale: plan.served_stale.clone(),
            torn_tail_repaired: torn.is_some(),
            recovery_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        Ok((server, report))
    }

    /// Replays a chronological event prefix through the sharded state
    /// (memory via the GRU, mailbox, neighbor table) without computing
    /// embeddings — the pipeline analogue of `InferenceEngine::warm_up`,
    /// bit-identical to it.
    ///
    /// # Panics
    /// Panics if events have already been submitted.
    pub fn warm_up(&mut self, events: &[InteractionEvent]) {
        assert_eq!(self.submitted, 0, "warm_up must run before any submissions");
        let mut stage = self.replay_stage();
        for chunk in events.chunks(256) {
            let epoch = self.next_epoch.fetch_add(1, Ordering::SeqCst) + 1;
            stage.step(epoch, EventBatch::new(chunk.to_vec()), STATE_ONLY);
        }
        if let Some(last) = events.last() {
            self.warm_timestamp = last.timestamp;
        }
        self.admission.set_timestamp_floor(self.warm_timestamp);
        if let Some(d) = &self.durability {
            // Warm events are not in the WAL (nothing was admitted), so the
            // post-warm state must be snapshotted or recovery could never
            // reconstruct it: a `floor` snapshot, exempt from the
            // `epoch <= acked` eligibility rule.
            d.set_warm_timestamp(self.warm_timestamp);
            d.note_absorbed(events);
            if !events.is_empty() {
                let epoch = self.next_epoch.load(Ordering::SeqCst);
                d.snapshot_quiesced(epoch, true, &self.memory, &self.table);
            }
        }
    }

    /// Feeds one event into the default tenant's ingress queue (the
    /// single-tenant path).  Blocks while the pipeline is backpressured
    /// (ingress queue full under the default `Block` policy); the block
    /// count is visible in the report's tenant statistics.
    pub fn submit(&mut self, event: InteractionEvent) -> Result<(), SubmitError> {
        self.submit_for(TenantId::DEFAULT, event).map(|_| ())
    }

    /// Feeds one event into `tenant`'s ingress queue, applying the tenant's
    /// [`OverloadPolicy`] if the queue is full: `Block` blocks the caller
    /// (backpressure), `DropNewest` returns [`SubmitOutcome::Dropped`],
    /// `DropOldest` evicts the queue head and admits this event, and
    /// `ServeStale` answers from the embedding cache
    /// ([`SubmitOutcome::ServedStale`]) or drops on a miss.  Each tenant's stream must be chronological;
    /// different tenants are ordered independently.
    pub fn submit_for(
        &mut self,
        tenant: TenantId,
        event: InteractionEvent,
    ) -> Result<SubmitOutcome, SubmitError> {
        if self.submitted == 0 {
            self.hub.sinks.start_clock();
        }
        let outcome = self.admission.submit(tenant, event)?;
        self.submitted += 1;
        Ok(outcome)
    }

    /// Pops the next completed micro-batch, if any (non-blocking).  Batches
    /// come back in submission (epoch) order.
    ///
    /// With durability on, every batch here already has a durable `Seal`:
    /// the GNN worker syncs it before handing the batch on, so a slow disk
    /// shows up as backpressure on `submit`, never as a held-back batch.
    /// Delivering a batch appends its `Ack` to the WAL (fsynced under
    /// `FsyncPolicy::Always`): after a crash, acked epochs are replayed for
    /// state only, never re-served — and an `Ack` can never outrun its
    /// `Seal` in any durable prefix.
    pub fn poll(&mut self) -> Option<ServedBatch> {
        let b = self.poll_inner()?;
        // `trace_id == 0` marks results that never ran the pipeline this
        // session (stale cache answers, recovery re-serves): they carry no
        // trace and are excluded from the latency objective.
        let traced = b.metas.first().is_some_and(|m| m.trace_id != 0);
        let now = Instant::now();
        let total = now.saturating_duration_since(b.admitted_at);
        if traced {
            self.slo.record_batch_latency(total, b.events.len() as u64);
        }
        self.hub.sinks.record_delivery(
            b.epoch,
            traced,
            total,
            now.saturating_duration_since(b.completed_at),
        );
        Some(b)
    }

    fn poll_inner(&mut self) -> Option<ServedBatch> {
        // Stale answers first: they were synthesized at submit time from
        // already-served history, so they owe no ack — holding them behind
        // pipeline output would only age them further.
        if let Some(stale) = &self.stale_out {
            if let Some(b) = stale.lock().unwrap().pop_front() {
                return Some(b);
            }
        }
        let b = self
            .completed
            .pop_front()
            .or_else(|| self.results_rx.try_recv())?;
        if let Some(d) = &self.durability {
            d.ack(b.epoch, self.workers.is_empty());
        }
        Some(b)
    }

    /// Closes admission, flushes every in-flight event through the pipeline
    /// — including everything still queued in tenant ingress queues (drain
    /// never drops an admitted event) — joins the workers, and returns the
    /// aggregate report.  Completed batches (including those that finish
    /// during the flush) remain available via [`Self::poll`].
    ///
    /// With durability on, drain additionally flushes and fsyncs the WAL
    /// tail — *before* propagating a worker panic, so even a poisoned
    /// pipeline leaves the log recoverable — and, on an orderly shutdown,
    /// writes a final clean snapshot of the drained state.
    ///
    /// # Panics
    /// Propagates a worker panic (e.g. an epoch-order violation).
    pub fn drain(&mut self) -> ServeReport {
        // Close admission: the state worker drains the remaining tenant
        // queues and exits, and the shutdown ripples down the stages.
        self.admission.close();
        while let Some(b) = self.results_rx.recv() {
            self.completed.push_back(b);
        }
        // The GNN worker's sender is closed; join every worker before the
        // flush so no append can follow it.
        let exits: Vec<_> = self.workers.drain(..).map(JoinHandle::join).collect();
        if let Some(d) = &self.durability {
            // The pipeline workers are done appending: make the whole tail
            // durable before any panic can propagate.  (A frozen WAL — crash
            // injection — no-ops this, as a real death would.)
            d.wal.flush(true).expect("drain: WAL flush failed");
        }
        for exit in exits {
            if let Err(panic) = exit {
                std::panic::resume_unwind(panic);
            }
        }
        if let Some(d) = &self.durability {
            // Orderly shutdown: snapshot the fully drained state.  Sealed
            // epochs not yet polled keep the snapshot `epoch > acked`, so it
            // only becomes the recovery floor once they are delivered (the
            // post-drain `poll` acks make it eligible); `floor` is stamped
            // for the already-fully-delivered case.
            let epoch = self.next_epoch.load(Ordering::SeqCst);
            let floor = d.acked() >= epoch;
            d.snapshot_quiesced(epoch, floor, &self.memory, &self.table);
        }
        self.report()
    }

    /// The aggregate report so far (cheap; callable live or after `drain`):
    /// a view of [`Self::metrics`] — every count and latency in it is the
    /// snapshot's — plus what only the server holds, the memory table's
    /// commit counts and the shard count.
    pub fn report(&self) -> ServeReport {
        let m = self.hub.snapshot();
        let mut stage_timings = StageTimings::default();
        for (stage, id) in [
            (Stage::Sample, StageId::Sampler),
            (Stage::Memory, StageId::Memory),
            (Stage::Gnn, StageId::Gnn),
            (Stage::Update, StageId::Update),
        ] {
            let busy = m.stages.iter().find(|s| s.stage == id).map(|s| s.busy);
            stage_timings.add(stage, busy.unwrap_or_default());
        }
        ServeReport {
            num_events: m.events_served as usize,
            num_batches: m.batches_served as usize,
            num_embeddings: m.embeddings as usize,
            total_time: m.total_time,
            throughput_eps: per_second(m.events_served, m.total_time),
            latency: m.batch_latency,
            backpressure_blocks: m.queues.iter().map(|q| q.blocked_sends).sum::<u64>()
                + m.admission.blocked_submits,
            queues: m.queues,
            tenants: m.tenants,
            backends: m.backends,
            commits: self.memory.commits() as usize,
            commit_log_clean: self.memory.backward_commits() == 0,
            num_shards: self.num_shards,
            durability: m.durability,
            cache: m.cache,
            stage_timings,
        }
    }

    /// A typed point-in-time metrics snapshot — callable at any moment:
    /// live under load, after a drain, or while the pipeline is unwinding
    /// from a worker panic.  See [`MetricsSnapshot`] for the renderers
    /// (human table, Prometheus text, JSONL).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.hub.snapshot()
    }

    /// The cloneable [`MetricsHub`] handle behind [`Self::metrics`]: hand it
    /// to a sampler thread ([`MetricsHub::spawn_jsonl_sampler`]) or keep it
    /// across a `catch_unwind` to dump the flight recorder
    /// ([`MetricsHub::flight_dump`]) after a panic.
    pub fn metrics_hub(&self) -> MetricsHub {
        self.hub.clone()
    }

    /// The state step over this server's tables with no commit hooks and no
    /// spans — what the quiesced replay paths (`warm_up`, `recover`) run.
    fn replay_stage(&self) -> StateStage {
        StateStage::new(
            self.memory.clone(),
            self.table.clone(),
            self.model.clone(),
            self.graph.clone(),
        )
    }

    /// Read access to the sharded memory (diagnostics, tests).
    pub fn memory(&self) -> &ShardedMemory {
        &self.memory
    }

    /// Read access to the sharded neighbor table (diagnostics, tests).
    pub fn neighbor_table(&self) -> &ShardedNeighborTable {
        &self.table
    }

    /// Number of events submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.admission.close();
        // Detach rather than join: receivers close as queue senders drop, so
        // the workers exit on their own; joining here could block a panicking
        // caller.  `drain` is the orderly shutdown path.
        self.workers.clear();
        if let Some(d) = &self.durability {
            // Best-effort: push any buffered tail (e.g. post-drain acks) to
            // disk.  Workers may still be appending, which is fine — flush
            // is atomic under the writer lock and they flush their own work.
            let _ = d.wal.flush(true);
        }
    }
}

/// Whether a durability directory already contains WAL segments.
fn has_wal_segments(dir: &std::path::Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|e| {
        let name = e.file_name();
        let name = name.to_string_lossy();
        name.starts_with("wal-") && name.ends_with(".seg")
    })
}

fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("failed to spawn pipeline worker")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_reads_histogram_percentiles_in_ms() {
        let h = tgnn_obs::Histogram::new();
        assert_eq!(
            LatencySummary::from_histogram(&h.snapshot(), NS_PER_MS),
            LatencySummary::default()
        );
        for ms in 1..=100u64 {
            h.record(ms * 1_000_000);
        }
        let s = LatencySummary::from_histogram(&h.snapshot(), NS_PER_MS);
        // Nearest-rank samples are 50 / 95 / 99 / 100 ms; each is reported
        // as its bucket's upper bound, at most 6.25 % high and never low.
        for (got, exact) in [
            (s.p50_ms, 50.0),
            (s.p95_ms, 95.0),
            (s.p99_ms, 99.0),
            (s.max_ms, 100.0),
        ] {
            assert!(
                got >= exact && got <= exact * 1.0625,
                "{got} vs exact {exact}"
            );
        }
        assert!((s.mean_ms - 50.5).abs() <= 50.5 * 0.0625);
    }
}
