//! The pipeline worker loops and the job types flowing between them.
//!
//! ```text
//!       per-tenant bounded ingress queues (OverloadPolicy at the bound)
//!                         │  weighted round-robin pull of what is pending,
//!                         │  ≤ `max_batch` — see `admission`
//!                    [state worker]   seal → sample → memory → gather →
//!                         │            commit, in program order on one thread
//!                         │  GnnJob (memory rows copied, features by id,
//!                         │          epoch order)
//!                     [gnn worker]    every prepared backend, the U200
//!                         │            latency model; seal sync, cache
//!                         │            insert, dispositions, counters
//!                         │  ServedBatch (its seal durable)
//!                         ▼
//!                      results
//! ```
//!
//! Batch size is a function of load, not a setting: each time the state
//! worker finishes a batch it pulls everything pending, up to `max_batch`,
//! as the next one, and sleeps in the pull only when nothing is.  A lightly
//! loaded server therefore serves batches of one or two events at compute
//! latency, and a saturated one fills every batch to
//! `min(max_batch, Σ ingress capacities)` — `max_batch` with the default
//! queues.  Nothing is ever held back, so nothing has to be woken.  Why a
//! small batch is safe: served embeddings are defined on the *served* batch
//! boundaries (every identity check replays those), a `Seal` record carries
//! its events so recovery re-serves the same boundaries, and a smaller
//! batch only means the memory a later event reads is fresher.
//!
//! A thread exists only where work can overlap.  The state stages cannot:
//! sample(k+1) reads what commit(k) wrote, commit(k) needs memory(k)'s
//! rows, and memory(k+1) needs sample(k+1) — so one worker runs them back
//! to back (`StateStage::step`), and the same body replays warm-up and
//! recovery.  The GNN stage can: its input is a gathered job that owns a
//! copy of every memory row it reads (static features it reads from the
//! immutable graph by id), so the state worker dispatches batch *k*'s job
//! *before* committing batch *k* and GNN(k) — the dominant cost per the
//! paper's co-design analysis — runs concurrently with commit(k) and
//! state(k+1).  That is the paper's two compute stages (memory updater,
//! embedding unit) behind a prefetching front end, and the only overlap the
//! dependencies allow.
//!
//! One GNN worker holds every prepared backend and computes each job on the
//! backend its batch was sealed for, as the paper's single embedding unit
//! takes the memory updater's output in chronological order.  Beside each
//! job it records the latency the paper's U200 pipeline model predicts for
//! it (`GnnCompute`) — the modelled accelerator next to the measured one.
//!
//! Ordering argument (epochs are 1-based batch numbers):
//! * **state(k)** runs after state(k-1) on the same thread, so sampling and
//!   the memory stage read exactly the epoch `k-1` tables, and every memory
//!   row the GNN needs is copied into the job *before* the commit
//!   overwrites this epoch's rows.
//! * **gnn(k)** is pure compute over the job and the immutable graph.  The
//!   state worker sends jobs in epoch order onto a FIFO queue with one
//!   consumer, so results leave in epoch order for any backend mix.
//! * **durable before delivered**: with durability on, the state worker
//!   appends batch *k*'s `Seal` before it steps the batch, and the GNN
//!   worker makes it durable after gnn(k) and before it caches or sends the
//!   batch — so the cache and `gnn→results` only ever hold durably sealed
//!   epochs, and a slow disk back-pressures admission through the queues.
//!
//! A dying worker unwinds the pipeline through its channels: every loop
//! returns when its input closes or its output is gone, and the state
//! worker closes admission on the way out.

use crate::admission::{AdmissionControl, AdmittedEvent, EventMeta, Ingress};
use crate::cache::EmbeddingCache;
use crate::durability::Durability;
use crate::metrics::{SegmentId, StageObs};
use crate::queue::{Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_core::stages::{run_memory_stage, GnnJobBatch, SampledBatch, UpdatedRows};
use tgnn_core::tenancy::{Disposition, ResultMeta};
use tgnn_core::{
    BackendKind, ComputeBackend, F32Backend, Int8Backend, ShardedMemory, TgnModel,
    NUM_BACKEND_KINDS,
};
use tgnn_graph::{EventBatch, InteractionEvent, NodeId, ShardedNeighborTable, TemporalGraph};
use tgnn_hwsim::HwSimBackend;
use tgnn_tensor::{Float, Workspace};

/// A micro-batch the state worker sealed and is about to step.  `metas` is
/// aligned with the batch's events and carries each event's tenant/deadline
/// stamp.  Every event in a sealed batch shares one `backend` — a mixed
/// pull is partitioned per backend at seal time, so a batch is the unit of
/// backend routing.
#[derive(Debug)]
struct SealedBatch {
    epoch: u64,
    batch: EventBatch,
    metas: Vec<EventMeta>,
    backend: BackendKind,
    sealed_at: Instant,
}

/// Why the state worker sealed a micro-batch — the counters an operator
/// reads to see the batcher adapt to load
/// ([`MetricsSnapshot::seals`](crate::MetricsSnapshot::seals)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealReason {
    /// `max_batch` events were pending: the cap, the steady state at
    /// saturation.
    Full,
    /// Fewer than `max_batch` events were pending when the state worker
    /// pulled — what arrived while it stepped the previous batch: the
    /// steady state at partial load.
    Idle,
    /// Admission closed (drain): the remainder.
    Close,
}

impl SealReason {
    /// Every reason, in [`Self::code`] order.
    pub const ALL: [SealReason; 3] = [SealReason::Full, SealReason::Idle, SealReason::Close];

    /// Dense index into per-reason arrays.
    pub fn code(self) -> usize {
        self as usize
    }

    /// Stable lower-case label (metric label value).
    pub fn label(self) -> &'static str {
        match self {
            SealReason::Full => "full",
            SealReason::Idle => "idle",
            SealReason::Close => "close",
        }
    }
}

/// One batch's GNN work, sent by the state worker in epoch order: the
/// gathered job plus what the GNN worker needs to turn its output into a
/// [`ServedBatch`].
#[derive(Debug)]
pub(crate) struct GnnJob {
    pub epoch: u64,
    pub job: GnnJobBatch,
    pub events: Vec<InteractionEvent>,
    pub metas: Vec<EventMeta>,
    /// The backend the batch was sealed for; it computes the job and is
    /// stamped onto every result's `ResultMeta`.
    pub backend: BackendKind,
    pub sealed_at: Instant,
    /// When the state worker finished the gather and sent the job — the
    /// anchor the GNN trace segments start from.
    pub dispatched_at: Instant,
}

/// Test-only fault-injection hook: the GNN worker calls it with the epoch
/// before computing a batch and panics when it returns `true`.  The
/// concurrency hardening tests use this to verify that a dying worker
/// unwinds `submit`/`poll`/`drain` instead of hanging the pipeline.
pub type GnnFaultHook = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// One completed micro-batch, as returned by `StreamServer::poll`.
#[derive(Clone, Debug)]
pub struct ServedBatch {
    /// 1-based batch sequence number (the pipeline epoch) — or **0** for a
    /// cache-served stale answer
    /// ([`tgnn_core::tenancy::OverloadPolicy::ServeStale`]): stale batches never enter the
    /// pipeline, carry `Disposition::Stale` metas, and fill `cache_epochs`.
    pub epoch: u64,
    /// The events the batch contained, in admission order.
    pub events: Vec<InteractionEvent>,
    /// Per-event result metadata aligned with `events`: the tenant each
    /// event belongs to and whether its result met the tenant's deadline.
    /// Dispositions never change the embedding values — a `Late` result is
    /// bitwise-identical to the on-time result of the same batch sequence,
    /// and a `Stale` result is bitwise-identical to the embedding served at
    /// its `cache_epochs` entry.
    pub metas: Vec<ResultMeta>,
    /// Embeddings of every touched vertex, in order of first appearance —
    /// bit-identical to `ExecMode::Serial` on the same batch sequence.
    pub embeddings: Vec<(NodeId, Vec<Float>)>,
    /// For a stale batch (`epoch == 0`): the pipeline epoch each entry of
    /// `embeddings` was originally served at, aligned index-for-index —
    /// what lets a client (or the bench's identity check) verify a stale
    /// answer against served history.  Empty for pipeline-served batches.
    pub cache_epochs: Vec<u64>,
    /// The compute backend that served this batch (every event of a sealed
    /// batch shares one backend; a stale cache answer carries the declared
    /// backend of the tenant it answers for).  Redundant with each
    /// `metas[i].backend` — hoisted here so clients need not inspect metas
    /// to route on it.
    pub backend: BackendKind,
    /// Seal-to-embeddings pipeline latency, the seal's sync included with
    /// durability on (zero for stale batches).
    pub latency: Duration,
    /// Admission time of the batch's causal-trace anchor event (the first
    /// event in sealed order) — what `poll` measures the admit→deliver
    /// [`SegmentId::Total`](crate::SegmentId) against.  For batches that
    /// never ran the pipeline this session (stale cache answers, recovery
    /// re-serves) it is the batch's construction time.
    pub admitted_at: Instant,
    /// When the GNN worker handed the batch to the results queue — the
    /// anchor the delivery-side trace segments start from.
    pub completed_at: Instant,
}

/// Closes admission when the state worker exits — by return *or* panic.
/// The state worker is the only drain of the tenant queues: once it is
/// gone, a `Block` submitter parked on a full queue would wait
/// forever, so its exit must fail them with `Closed` instead.
struct CloseAdmissionOnExit(Arc<AdmissionControl>);

impl Drop for CloseAdmissionOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The state worker's front end: where it pulls its batches from and what
/// sealing one takes.
pub(crate) struct Batcher {
    pub admission: Arc<AdmissionControl>,
    /// The cap on a batch ([`ServeConfig::max_batch`](crate::ServeConfig)).
    pub max_batch: usize,
    pub next_epoch: Arc<AtomicU64>,
    pub durability: Option<Arc<Durability>>,
    /// `scheduler` spans, one per pull (pre-epoch, so epoch 0; flight-ring
    /// writes sampled 1-in-`ServeConfig::metrics_sampling`).
    pub pull_obs: StageObs,
    /// `batcher` spans and the seal counts, one per seal.
    pub seal_obs: StageObs,
}

impl Batcher {
    /// Seals `items` (all on `backend`) as the next epoch and leaves the
    /// buffer empty for reuse.
    ///
    /// With durability on, the batch's `Seal` record is appended *before*
    /// the batch is stepped; the GNN worker makes it durable before the
    /// batch leaves it.  A batch can therefore only ever be *delivered* with
    /// a durable seal, which is what lets recovery re-serve
    /// sealed-but-unacked epochs bit-identically — while the state worker
    /// itself never waits on the disk.
    fn seal(
        &self,
        items: &mut Vec<AdmittedEvent>,
        backend: BackendKind,
        reason: SealReason,
    ) -> SealedBatch {
        let obs = &self.seal_obs;
        let epoch = self.next_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        obs.sinks.seal(reason);
        // The batcher span covers the seal work (sort + WAL append), not
        // the pull — idle time is "waiting for admitted events".
        let span = obs.enter(epoch);
        // The weighted-fair merge is only per-tenant chronological, but the
        // engine consumes each batch as a chronological stream (Algorithm 1),
        // so restore global order inside the sealed batch.  The sort is
        // stable, so each tenant's own order survives, and the single-tenant
        // feed — already sorted — is untouched.
        if items
            .windows(2)
            .any(|w| w[0].event.timestamp > w[1].event.timestamp)
        {
            items.sort_by(|a, b| a.event.timestamp.total_cmp(&b.event.timestamp));
        }
        // Claim the epoch's causal-trace slot and record the admission-side
        // segments, anchored on the first event in sealed order (the same
        // anchor `poll` measures `Total` against).  This runs after the
        // chronological sort so the anchor is stable from here on.
        obs.trace_begin(epoch);
        let anchor = items[0].meta;
        obs.trace_record(
            epoch,
            SegmentId::IngressWait,
            anchor
                .picked_up_at
                .saturating_duration_since(anchor.admitted_at),
        );
        if let Some(d) = &self.durability {
            d.append_seal(
                epoch,
                items.iter().map(|a| (a.meta.tenant.0, a.event)).collect(),
            );
        }
        let sealed_at = Instant::now();
        obs.trace_record(
            epoch,
            SegmentId::SealWait,
            sealed_at.saturating_duration_since(anchor.picked_up_at),
        );
        let (events, metas) = items.drain(..).map(|a| (a.event, a.meta)).unzip();
        obs.exit(epoch, span);
        SealedBatch {
            epoch,
            batch: EventBatch::new(events),
            metas,
            backend,
            sealed_at,
        }
    }
}

/// Span handles of the three logical stages the state worker executes.
pub(crate) struct StateObs {
    pub sampler: StageObs,
    pub memory: StageObs,
    pub update: StageObs,
}

/// Runs `f` inside a stage span (no span when `obs` is `None`).  A panic in
/// `f` leaves the `Enter` without an `Exit` — the dangling span the
/// flight-recorder post-mortem pinpoints.
fn in_span<R>(obs: Option<&StageObs>, epoch: u64, f: impl FnOnce() -> R) -> R {
    let span = obs.and_then(|o| o.enter(epoch));
    let out = f();
    if let Some(o) = obs {
        o.exit(epoch, span);
    }
    out
}

/// [`StateStage::step`]'s `dispatch` argument for a state-only step: no GNN
/// job is gathered.
pub(crate) const STATE_ONLY: Option<fn(GnnJobBatch, Instant)> = None;

/// The temporal state and the one body that advances it by a batch.  The
/// state worker, `StreamServer::warm_up` and `StreamServer::recover` all
/// call [`Self::step`], which is what keeps served, warmed and recovered
/// state bit-identical by construction.
pub(crate) struct StateStage {
    pub memory: Arc<ShardedMemory>,
    pub table: Arc<ShardedNeighborTable>,
    /// The shared stage model — always the same one regardless of which
    /// backend computes embeddings: the temporal state is a single
    /// trajectory, and only GNN compute is backend-specific.
    pub model: Arc<TgnModel>,
    pub graph: Arc<TemporalGraph>,
    /// What the live commit also does (`None` on the replay paths, which
    /// run quiesced and snapshot/seed explicitly): absorbed-event
    /// bookkeeping plus snapshot capture at interval epochs…
    pub durability: Option<Arc<Durability>>,
    /// …and the embedding cache's expiry.
    pub cache: Option<Arc<EmbeddingCache>>,
    /// Stage spans (`None` on the replay paths).
    pub obs: Option<StateObs>,
    pub ws: Workspace,
}

impl StateStage {
    /// A stage over the given tables with no commit hooks and no spans.
    pub fn new(
        memory: Arc<ShardedMemory>,
        table: Arc<ShardedNeighborTable>,
        model: Arc<TgnModel>,
        graph: Arc<TemporalGraph>,
    ) -> Self {
        Self {
            memory,
            table,
            model,
            graph,
            durability: None,
            cache: None,
            obs: None,
            ws: Workspace::new(),
        }
    }

    /// Advances the state by one batch, in program order: **sample** the
    /// neighbor table, run the **memory** stage (consume mailbox messages,
    /// GRU, cache the batch's new raw messages), **gather** the GNN
    /// job and hand it to `dispatch` with the instant sampling finished,
    /// then **commit** memory rows and neighbor-table appends as `epoch`.
    ///
    /// `dispatch` is the only parameter: `Some` gathers a GNN job (the
    /// batch's embeddings will be computed), `None` ([`STATE_ONLY`]) advances
    /// the state only and skips the neighbor sampling nothing would read.  The job is
    /// gathered *before* the commit overwrites this epoch's rows and
    /// dispatched before it runs, so GNN(k) overlaps commit(k).
    ///
    /// The commit is, in order: one embedding-cache expiry at `epoch` (run
    /// before the writes, so the cache's watermark never trails the state),
    /// the memory rows (each checked against its vertex's stored update
    /// time and counted by [`ShardedMemory::commit_epoch`]), the
    /// neighbor-table appends, and — with durability on, on the epoch that
    /// completes a snapshot interval (`Durability::snapshot_due`, counted in
    /// absorbed events) — the capture of every shard's payload.  This thread is the state's only
    /// writer, so the capture is the exact post-commit image of `epoch`; the
    /// files are then written by a background thread instead of stalling
    /// the committer on disk I/O.
    pub fn step(
        &mut self,
        epoch: u64,
        batch: EventBatch,
        dispatch: Option<impl FnOnce(GnnJobBatch, Instant)>,
    ) {
        let obs = self.obs.as_ref();
        let (memory, table) = (&*self.memory, &*self.table);
        let k = match dispatch {
            Some(_) => self.model.config.sampled_neighbors,
            None => 0,
        };
        let sampled = in_span(obs.map(|o| &o.sampler), epoch, || {
            SampledBatch::assemble(batch, k, &self.model, |v, t, k, out| {
                table.sample_into(v, t, k, out)
            })
        });
        let sampled_at = Instant::now();
        let updated = in_span(obs.map(|o| &o.memory), epoch, || {
            let updated =
                run_sharded_memory_stage(&sampled, memory, &self.model, &self.graph, &mut self.ws);
            if let Some(dispatch) = dispatch {
                let job = GnnJobBatch::gather(
                    &sampled,
                    &updated,
                    &self.graph,
                    &self.model.config,
                    |v, dst| memory.copy_memory_into(v, dst),
                );
                dispatch(job, sampled_at);
            }
            updated
        });
        in_span(obs.map(|o| &o.update), epoch, || {
            let events = sampled.batch.events();
            if let Some(d) = &self.durability {
                d.note_absorbed(events);
            }
            if let Some(c) = &self.cache {
                c.expire(epoch);
            }
            memory.commit_epoch(epoch, &updated);
            table.commit_epoch(epoch, events);
            if let Some(d) = self.durability.as_ref().filter(|d| d.snapshot_due()) {
                // Capture here, on the only writer; write in the background.
                let (mem, nbr) = Durability::capture(memory, table);
                d.spawn_snapshot_write(epoch, mem, nbr);
            }
        });
        updated.recycle(&mut self.ws);
    }
}

/// The memory-stage computation: consume the touched vertices' mailbox
/// messages in place, run the GRU on them, and write the batch's new raw
/// messages (Eq. 4–5) into their mailbox slots in event order from the
/// pre-write-back snapshots — the same information-leak-safe ordering as the
/// serial engine.  The new rows stay in a matrix of `ws` until the commit.
fn run_sharded_memory_stage(
    sampled: &SampledBatch,
    memory: &ShardedMemory,
    model: &TgnModel,
    graph: &TemporalGraph,
    ws: &mut Workspace,
) -> UpdatedRows {
    let updated = run_memory_stage(
        model,
        &mut &*memory,
        &sampled.touched,
        &sampled.query_times,
        ws,
    );
    for e in sampled.batch.events() {
        memory.cache_interaction_messages(e.src, e.dst, graph.edge_feature(e.edge_id), e.timestamp);
    }
    updated
}

/// State worker: the only drain of the tenant ingress queues and the only
/// reader *and* writer of the sharded temporal state.  Each time it
/// finishes a batch it pulls a weighted-fair round of everything pending,
/// up to `max_batch` — or sleeps in the pull until an event arrives — seals
/// it ([`SealReason`]: **full** at the cap, **close** once admission has
/// closed, **idle** otherwise) and runs [`StateStage::step`] on it, sending
/// the gathered job to the GNN worker between the memory stage and the
/// commit, in epoch order.
///
/// Once an event is pulled it is guaranteed to be served — the overload
/// drop policies act strictly upstream, in the tenant ingress queues, and
/// keep acting while this worker steps a batch or waits on the downstream
/// queue (it holds no admission lock then).
pub(crate) fn state_loop(batcher: Batcher, tx: Sender<GnnJob>, mut stage: StateStage) {
    let _close_on_exit = CloseAdmissionOnExit(batcher.admission.clone());
    let trace = stage.obs.as_ref().map(|o| o.memory.clone());
    let (max_batch, sampling) = (batcher.max_batch, batcher.pull_obs.sinks.metrics_sampling);
    // Buffers for the worker's lifetime: a seal copies out exactly the
    // events it holds, so a two-event batch costs no `max_batch`-sized
    // allocation.
    let mut pending: Vec<AdmittedEvent> = Vec::with_capacity(max_batch);
    let mut part: Vec<AdmittedEvent> = Vec::new();
    let mut pulls = 0u64;
    loop {
        // An unpaced feed degenerates to one-event pulls, so the timeline
        // write is sampled (`ServeConfig::metrics_sampling`) — busy time
        // still counts every pull.
        let record = pulls.is_multiple_of(sampling);
        let Ingress::Ready {
            picked_up_at,
            closed,
        } = batcher.admission.pull(&mut pending, max_batch)
        else {
            return;
        };
        // The span starts where the wait ended: busy time is the drain.
        let span = batcher
            .pull_obs
            .enter_sampled(0, record)
            .map(|_| picked_up_at);
        batcher.pull_obs.exit_sampled(0, span, record);
        pulls += 1;
        let reason = if pending.len() >= max_batch {
            SealReason::Full
        } else if closed {
            SealReason::Close
        } else {
            SealReason::Idle
        };
        let mut run = |items: &mut Vec<AdmittedEvent>, kind| {
            let sealed = batcher.seal(items, kind, reason);
            step_sealed(&mut stage, &tx, trace.as_ref(), sealed)
        };
        // A homogeneous pull (every event on the same backend — always the
        // case on a single-backend server) seals as one batch.  A mixed one
        // seals one batch per backend kind, in `code()` order
        // (deterministic), arrival order preserved within each kind — the
        // sealed batch is the unit of backend routing, so it must be
        // single-backend.  The split reorders events only *across* tenants
        // (tenants are single-backend), which the weighted-fair merge
        // already permits.
        let first = pending[0].meta.backend;
        let alive = if pending.iter().all(|a| a.meta.backend == first) {
            run(&mut pending, first)
        } else {
            let alive = BackendKind::ALL.into_iter().all(|kind| {
                part.extend(pending.iter().filter(|a| a.meta.backend == kind));
                part.is_empty() || run(&mut part, kind)
            });
            pending.clear();
            alive
        };
        // The GNN worker is gone — it died; unwind.
        if !alive {
            return;
        }
    }
}

/// Steps one sealed batch and sends its GNN job downstream between the
/// memory stage and the commit.  `false` once the GNN worker is gone.
fn step_sealed(
    stage: &mut StateStage,
    tx: &Sender<GnnJob>,
    trace: Option<&StageObs>,
    sealed: SealedBatch,
) -> bool {
    let SealedBatch {
        epoch,
        batch,
        metas,
        backend,
        sealed_at,
    } = sealed;
    let trace_record = |seg, d| {
        if let Some(t) = trace {
            t.trace_record(epoch, seg, d);
        }
    };
    let events = batch.events().to_vec();
    let mut downstream_alive = true;
    stage.step(
        epoch,
        batch,
        Some(|job: GnnJobBatch, sampled_at: Instant| {
            // The additive trace segments tile wall time, no gaps: `Sample`
            // spans seal → sampled (the sampling itself: a batch is sealed
            // right before it is stepped), `Memory` spans sampled →
            // dispatch (GRU + gather).
            let dispatched_at = Instant::now();
            trace_record(
                SegmentId::Sample,
                sampled_at.saturating_duration_since(sealed_at),
            );
            trace_record(
                SegmentId::Memory,
                dispatched_at.saturating_duration_since(sampled_at),
            );
            downstream_alive = tx
                .send(GnnJob {
                    epoch,
                    job,
                    events,
                    metas,
                    backend,
                    sealed_at,
                    dispatched_at,
                })
                .is_ok();
        }),
    );
    downstream_alive
}

/// The GNN stage's compute, shared by the GNN worker and recovery: one
/// prepared backend per kind some tenant routes to, and the latency model
/// of the paper's Alveo U200 design (fp32 datapath, 77 GB/s DDR) that
/// times every job either backend computes.
pub(crate) struct GnnCompute {
    /// Indexed by [`BackendKind::code`]; `None` for kinds no tenant routes
    /// to.
    backends: [Option<Arc<dyn ComputeBackend>>; NUM_BACKEND_KINDS],
    latency_model: HwSimBackend,
}

impl GnnCompute {
    /// Prepares one backend per kind in `kinds` from `model`:
    /// `F32Backend` pins a detached-f32 weight set, `Int8Backend` requires
    /// (and keeps) the attached int8 set.
    pub fn new(model: &TgnModel, kinds: &[BackendKind]) -> Self {
        let mut backends: [Option<Arc<dyn ComputeBackend>>; NUM_BACKEND_KINDS] = Default::default();
        for &kind in kinds {
            backends[kind.code()].get_or_insert_with(|| match kind {
                BackendKind::F32 => Arc::new(F32Backend::new(model)),
                BackendKind::Int8 => Arc::new(Int8Backend::new(model)),
            });
        }
        Self {
            backends,
            latency_model: HwSimBackend::u200(model),
        }
    }

    /// Computes `job` on the prepared `kind` backend: its embeddings, and
    /// the service latency the U200 model predicts for the job.
    ///
    /// # Panics
    /// Panics if no tenant routes to `kind` (its backend was not prepared).
    pub fn run(
        &self,
        kind: BackendKind,
        job: &GnnJobBatch,
        ws: &mut Workspace,
    ) -> (Vec<(NodeId, Vec<Float>)>, Duration) {
        let embeddings = self.backends[kind.code()]
            .as_ref()
            .expect("gnn: sealed batch routed to a backend that was not prepared")
            .run_gnn(job, ws);
        let modeled = Duration::from_secs_f64(self.latency_model.modeled_latency(job));
        (embeddings, modeled)
    }
}

/// GNN worker: the pipeline's embedding unit and its commit point.  It
/// computes each job on the prepared backend its batch was sealed for —
/// f32 or int8 kernels — on one persistent workspace, and times it on the
/// U200 latency model ([`GnnCompute::run`]).  Jobs arrive in epoch order
/// and leave in it.  Per batch it then makes the batch's seal durable
/// ([`Durability::sync_seal`]), populates the embedding cache, counts the
/// batch and its modelled latency and grades each event's deadline through
/// `obs`, and emits the [`ServedBatch`].
pub(crate) fn gnn_loop(
    rx: Receiver<GnnJob>,
    tx: Sender<ServedBatch>,
    compute: Arc<GnnCompute>,
    cache: Option<Arc<EmbeddingCache>>,
    durability: Option<Arc<Durability>>,
    fault: Option<GnnFaultHook>,
    obs: StageObs,
) {
    let mut ws = Workspace::new();
    while let Some(GnnJob {
        epoch,
        job,
        events,
        metas,
        backend,
        sealed_at,
        dispatched_at,
    }) = rx.recv()
    {
        // Enter before the fault hook: an injected panic must leave this
        // epoch's `Enter` without an `Exit` in the flight recorder — that
        // dangling span is exactly what the post-mortem dump pinpoints.
        let span = obs.enter(epoch);
        if let Some(hook) = &fault {
            assert!(!hook(epoch), "injected GNN worker fault at epoch {epoch}");
        }
        let started = Instant::now();
        let (embeddings, modeled) = compute.run(backend, &job, &mut ws);
        let computed = Instant::now();
        // The commit point: nothing of this epoch leaves the worker before
        // its seal is durable.
        let synced = match &durability {
            Some(d) => {
                d.sync_seal(epoch);
                Instant::now()
            }
            None => computed,
        };
        // Populate the embedding cache at the delivery commit point: a
        // cache entry is by construction exactly the embedding served for
        // this (vertex, epoch), which is what makes `ServeStale` hits
        // bit-identical to served history.
        if let Some(c) = &cache {
            for (v, emb) in &embeddings {
                c.insert(*v, epoch, emb);
            }
        }
        let latency = sealed_at.elapsed();
        obs.sinks.served_batch(
            backend,
            events.len(),
            embeddings.len(),
            Some(latency),
            modeled,
        );
        // Grade each event's deadline disposition at the completion point:
        // the admission-to-completion delay (queueing + batching + compute)
        // is what the tenant's deadline budgets.  The disposition is pure
        // metadata — it never feeds back into the computation.
        let admitted_at = metas.first().map(|m| m.admitted_at);
        let metas: Vec<ResultMeta> = metas
            .into_iter()
            .map(|m| {
                let admit_latency = m.admitted_at.elapsed();
                let late = m.deadline.is_some_and(|d| admit_latency > d);
                obs.sinks
                    .served_event(m.tenant, Some((late, admit_latency)));
                ResultMeta {
                    tenant: m.tenant,
                    disposition: if late {
                        Disposition::Late
                    } else {
                        Disposition::OnTime
                    },
                    backend,
                    trace_id: epoch,
                }
            })
            .collect();
        let completed_at = Instant::now();
        for (seg, from, to) in [
            (SegmentId::GnnWait, dispatched_at, started),
            (SegmentId::GnnCompute, started, computed),
            (SegmentId::Gnn, dispatched_at, computed),
            (SegmentId::WalSyncWait, computed, synced),
            (SegmentId::ReorderBarrier, synced, completed_at),
        ] {
            obs.trace_record(epoch, seg, to.saturating_duration_since(from));
        }
        let ok = tx
            .send(ServedBatch {
                epoch,
                events,
                metas,
                embeddings,
                cache_epochs: Vec::new(),
                backend,
                latency,
                admitted_at: admitted_at.unwrap_or(completed_at),
                completed_at,
            })
            .is_ok();
        obs.exit(epoch, span);
        if !ok {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Heap allocations made by the current thread (const-initialized,
        /// so reading it never allocates).
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator plus a per-thread allocation count — lets a
    /// test assert that a code path allocates nothing, undisturbed by the
    /// other tests running on their own threads.
    struct CountingAllocator;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only addition is a
    // thread-local counter bump that neither allocates nor unwinds
    // (`try_with` tolerates a thread that is tearing down).
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: `layout` is the caller's, forwarded unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: same block, same layout, caller-checked `new_size`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    use crate::admission::TenantSpec;
    use crate::metrics::{MetricsHub, Sinks, StageId};
    use crate::queue::{channel, QueueMonitor};
    use crate::server::{LatencySummary, ServeConfig, NS_PER_MS};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread::{self, JoinHandle};
    use tgnn_core::tenancy::TenantId;

    /// A state stage over a small generated graph and a +NP(M) model — the
    /// co-designed variant the server defaults to.
    fn tiny_stage() -> StateStage {
        use tgnn_core::{ModelConfig, OptimizationVariant, TimeEncoderKind};
        use tgnn_tensor::TensorRng;

        let graph = Arc::new(tgnn_data::generate(&tgnn_data::tiny(11)));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(OptimizationVariant::NpMedium);
        let mut model = TgnModel::new(cfg, &mut TensorRng::new(11));
        if model.config.time_encoder == TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        let nodes = graph.num_nodes();
        StateStage::new(
            Arc::new(ShardedMemory::for_config(nodes, &model.config, 2)),
            Arc::new(ShardedNeighborTable::new(
                nodes,
                model.config.sampled_neighbors,
                2,
            )),
            Arc::new(model),
            graph,
        )
    }

    /// Spins until `done` holds, failing the test after 10 s instead of
    /// hanging it.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting: {what}");
            thread::yield_now();
        }
    }

    /// A state worker between a real `AdmissionControl` and a `state→gnn`
    /// queue of one slot whose `Receiver` the test itself drives: while the
    /// test leaves a job in that slot, the worker's next send blocks — it is
    /// busy exactly as long as the test says.
    struct StateRig {
        admission: Arc<AdmissionControl>,
        /// `None` only while dropping: the worker's pending send fails once
        /// it is gone.
        rx: Option<Receiver<GnnJob>>,
        jobs: QueueMonitor,
        hub: MetricsHub,
        graph: Arc<TemporalGraph>,
        submitted: AtomicUsize,
        worker: Option<JoinHandle<()>>,
    }

    impl StateRig {
        fn new(max_batch: usize) -> Self {
            let stage = tiny_stage();
            let graph = stage.graph.clone();
            let admission = Arc::new(AdmissionControl::new(vec![TenantSpec::new("t")]));
            let (tx, rx) = channel::<GnnJob>("state→gnn", 1);
            let jobs = rx.monitor();
            let config = ServeConfig {
                metrics: false,
                flight_capacity: 16,
                metrics_sampling: 1,
                ..ServeConfig::default()
            };
            let sinks = Arc::new(Sinks::new(&config, 1));
            let next_epoch = Arc::new(AtomicU64::new(0));
            let batcher = Batcher {
                admission: admission.clone(),
                max_batch,
                next_epoch: next_epoch.clone(),
                durability: None,
                pull_obs: sinks.stage_obs(StageId::Scheduler),
                seal_obs: sinks.stage_obs(StageId::Batcher),
            };
            let hub = MetricsHub::new(sinks, admission.clone(), None, None, Vec::new(), next_epoch);
            let worker = thread::spawn(move || state_loop(batcher, tx, stage));
            Self {
                admission,
                rx: Some(rx),
                jobs,
                hub,
                graph,
                submitted: AtomicUsize::new(0),
                worker: Some(worker),
            }
        }

        /// Submits the feed's next `n` events.
        fn submit(&self, n: usize) {
            for _ in 0..n {
                let i = self.submitted.fetch_add(1, Ordering::Relaxed);
                self.admission
                    .submit(TenantId::DEFAULT, self.graph.events()[i])
                    .unwrap();
            }
        }

        /// Leaves the worker busy as two one-event batches: the first job
        /// in the queue's one slot, the second stuck in the worker's send
        /// behind it.  Everything submitted afterwards waits in admission
        /// until the test receives.
        fn occupy(&self) {
            self.submit(1);
            wait_until("the first job fills the slot", || self.jobs.depth() == 1);
            self.submit(1);
            wait_until("the second job blocks in send", || {
                self.jobs.stats().blocked_sends == 1
            });
        }

        /// Pops the next job, blocking on a helper thread so that a worker
        /// that never sends fails the test on a timeout instead of hanging
        /// it.  `None` once the worker has exited.
        fn recv(&self) -> Option<GnnJob> {
            let rx = self.rx.as_ref().unwrap();
            thread::scope(|s| {
                let (out, got) = mpsc::channel();
                s.spawn(move || {
                    // Fails only if the test already gave up on it.
                    let _ = out.send(rx.recv());
                });
                let got = got.recv_timeout(Duration::from_secs(10));
                if got.is_err() {
                    // Release the helper (a close seals the remainder and
                    // ends the worker) so the scope can end and the failure
                    // below is reported.
                    self.admission.close();
                }
                got.expect("the worker never sent a job")
            })
        }

        /// The sizes of the next `n` batches.
        fn recv_sizes(&self, n: usize) -> Vec<usize> {
            (0..n)
                .map(|_| self.recv().expect("worker exited").events.len())
                .collect()
        }

        fn seals(&self, reason: SealReason) -> u64 {
            self.hub.snapshot().seals[reason.code()]
        }
    }

    impl Drop for StateRig {
        fn drop(&mut self) {
            self.admission.close();
            drop(self.rx.take());
            if let Some(w) = self.worker.take() {
                // A failed assertion is already unwinding; don't mask it.
                if w.join().is_err() && !thread::panicking() {
                    panic!("state worker panicked");
                }
            }
        }
    }

    /// The state step allocates per batch, never per event: mailbox slots
    /// are rewritten in place, the memory stage's new rows live in the
    /// stage's workspace, and the GNN job holds edge ids instead of copied
    /// features.  Once warm, a 200-event step may allocate only a constant
    /// more than a 50-event one (amortised growth of the batch's own
    /// vectors), where a per-event allocation would add hundreds.
    #[test]
    fn state_step_allocations_scale_with_batches_not_events() {
        let mut stage = tiny_stage();
        let graph = stage.graph.clone();
        let mut events = graph.events().iter().cloned();
        let mut epoch = 0;
        let mut step = |stage: &mut StateStage, n: usize| {
            let batch = EventBatch::new(events.by_ref().take(n).collect());
            assert_eq!(batch.len(), n, "the stream ran out");
            epoch += 1;
            let before = ALLOCATIONS.with(Cell::get);
            stage.step(epoch, batch, Some(|job: GnnJobBatch, _| drop(job)));
            ALLOCATIONS.with(Cell::get) - before
        };
        for n in [50, 200, 50, 200] {
            step(&mut stage, n);
        }
        let small = step(&mut stage, 50);
        let large = step(&mut stage, 200);
        assert!(
            large <= small + 24,
            "a 200-event step made {large} allocations, a 50-event step {small}"
        );
    }

    #[test]
    fn state_worker_serves_one_event_on_an_idle_server_as_a_batch_of_one() {
        let rig = StateRig::new(8);
        wait_until("the worker parks in pull", || rig.admission.puller_parked());
        rig.submit(1);
        // No later arrival: the one event alone is the batch.
        let job = rig.recv().expect("worker exited");
        assert_eq!((job.epoch, job.events.len()), (1, 1));
        assert_eq!(rig.seals(SealReason::Idle), 1);
    }

    #[test]
    fn state_worker_takes_what_arrived_during_a_step_together_up_to_max_batch() {
        const CAP: usize = 8;
        let rig = StateRig::new(CAP);
        rig.occupy();
        // Arrivals while the worker is busy wait in admission; the next pull
        // takes them as one batch, cut at the cap.
        rig.submit(CAP + 3);
        assert_eq!(rig.recv_sizes(4), [1, 1, CAP, 3]);
        assert_eq!(rig.seals(SealReason::Full), 1);
        assert_eq!(rig.seals(SealReason::Idle), 3);
    }

    #[test]
    fn state_worker_seals_the_remainder_on_close_and_exits() {
        let rig = StateRig::new(8);
        rig.occupy();
        rig.submit(3);
        rig.admission.close();
        assert_eq!(rig.recv_sizes(3), [1, 1, 3]);
        assert_eq!(rig.seals(SealReason::Close), 1);
        assert!(rig.recv().is_none(), "the worker exits once drained");
    }

    #[test]
    fn latency_accounting_is_constant_space_and_within_bucket_error() {
        const EVENTS: usize = 200_000;
        const BATCH: usize = 200;
        let sinks = Sinks::new(&ServeConfig::default(), 2);
        // A deterministic, heavy-tailed latency stream (xorshift): 50 µs to
        // ~130 ms, the range the serve path actually produces.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut exact: Vec<u64> = Vec::with_capacity(EVENTS);
        for _ in 0..EVENTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            exact.push(50_000 + (x % 1_000_000) * (1 + (x >> 60) * 8));
        }
        let before = ALLOCATIONS.with(Cell::get);
        for (i, &ns) in exact.iter().enumerate() {
            let latency = Duration::from_nanos(ns);
            sinks.served_event(TenantId((i % 2) as u32), Some((false, latency)));
            if i % BATCH == 0 {
                sinks.served_batch(BackendKind::Int8, BATCH, BATCH, Some(latency), latency);
            }
        }
        assert_eq!(
            ALLOCATIONS.with(Cell::get),
            before,
            "recording {EVENTS} served events must not allocate"
        );

        // Both tenants together saw every sample: their merged histogram
        // must answer within the documented 6.25 % of exact nearest-rank.
        let mut merged = sinks.tenants[0].latency_ns.snapshot();
        merged.merge(&sinks.tenants[1].latency_ns.snapshot());
        assert_eq!(merged.count(), EVENTS as u64);
        let summary = LatencySummary::from_histogram(&merged, NS_PER_MS);
        exact.sort_unstable();
        let rank = |q: f64| exact[((q * EVENTS as f64).ceil() as usize).max(1) - 1] as f64 / 1e6;
        for (label, got, want) in [
            ("p50", summary.p50_ms, rank(0.50)),
            ("p95", summary.p95_ms, rank(0.95)),
            ("p99", summary.p99_ms, rank(0.99)),
            ("max", summary.max_ms, rank(1.0)),
        ] {
            assert!(
                got >= want && got <= want * 1.0625,
                "{label}: histogram {got} ms vs exact {want} ms"
            );
        }
        assert_eq!(sinks.latency_ns.count(), (EVENTS / BATCH) as u64);
        assert!(sinks.backends[BackendKind::Int8.code()]
            .stats(BackendKind::Int8)
            .modeled_latency
            .is_some());
    }
}
