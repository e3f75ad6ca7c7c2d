//! Multi-tenant admission control: bounded per-tenant ingress queues, a
//! weighted-fair drain, and per-tenant overload policies.
//!
//! A single unbounded FIFO with one implicit tenant stops working the moment
//! offered load exceeds pipeline capacity: either memory grows without bound
//! or one aggressive producer starves everyone else.  This module is the
//! front end that fixes both, sitting *before* the micro-batcher so the
//! sample/memory/GNN/update stages are completely unchanged:
//!
//! ```text
//!   submit_for(tenant, event)
//!        │  per-tenant chronology check + OverloadPolicy at the bound
//!        ▼
//!   [tenant 0: bounded VecDeque]──┐
//!   [tenant 1: bounded VecDeque]──┤   weighted round-robin
//!   [tenant …: bounded VecDeque]──┼──► [state worker] ──► sealed batches
//!   [tenant N: bounded VecDeque]──┘    (pulls ≤ weight events
//!                                       per tenant per visit)
//! ```
//!
//! * **Bounded ingress** — each tenant owns a FIFO of at most
//!   `ingress_capacity` pending events.  What happens at the bound is the
//!   tenant's [`OverloadPolicy`]: `Block` exerts backpressure on the
//!   submitter, `DropNewest` rejects the incoming event, `DropOldest`
//!   evicts the queue head, and `ServeStale` answers from the serving
//!   layer's bounded-staleness embedding cache (see [`crate::cache`]) —
//!   the result comes back through `poll` flagged
//!   [`Disposition`]`::Stale` with its
//!   age in epochs, and a cache miss degrades to a `DropNewest`-style
//!   shed.  A tenant's token bucket is checked first, with the same
//!   split: `Block` waits for a token, the others shed the event.
//!   Drops can happen **only** here — an event the
//!   state worker has pulled is sealed and will be served.
//! * **One decision per submit** — `admit` works out the outcome as the
//!   WAL names it, an [`AdmitDisposition`] (plus the queue head a
//!   `DropOldest` admit evicts), and one function records it: the
//!   tenant's counters, the one drop-objective sample and the WAL
//!   records.  The empty bucket and the full queue share one shed path,
//!   and it and the burn-gate preemption share one cache attempt.
//! * **Weighted-fair draining** — the state worker pulls straight from the
//!   tenant queues (`AdmissionControl::pull`), each time it finishes a
//!   batch, everything pending up to `max_batch`: it visits non-empty
//!   tenants round-robin and takes up to `weight` events per visit
//!   (deficit round robin with unit event cost), so under sustained
//!   overload each backlogged tenant's service rate converges to
//!   `weight / Σ weights` of pipeline capacity regardless of how skewed
//!   the offered load is.  An idle tenant costs nothing; its unused share
//!   is redistributed to the backlogged ones by construction.
//! * **Per-tenant chronology** — each tenant's stream must be
//!   chronological; *across* tenants the fair drain may interleave freely
//!   (that is what fairness means), so the merged stream is only
//!   per-tenant ordered.  The shared temporal state observes cross-tenant
//!   reordering at the memory write-back, which counts every commit
//!   earlier than its vertex's stored update time
//!   (`ServeReport::commit_log_clean`) and stays clean when tenants touch
//!   disjoint vertex sets — the
//!   natural deployment shape, one sub-graph per tenant.  See
//!   `ARCHITECTURE.md` for the full ordering contract.
//!
//! The submit path and the state worker communicate through one mutex +
//! two condvars (`space` for blocked submitters, `ready` for the idle
//! worker); the worker holds the lock only inside `pull`, never while it
//! steps a batch, so drop policies keep making progress even when the
//! pipeline is saturated.  Each side notifies only when the other is
//! actually parked (`puller_parked` / `space_waiters`, kept under the same
//! mutex — the discipline `queue.rs` documents): at one or two events per
//! micro-batch an unconditional `notify` per submit and per pull is a
//! kernel entry per event.
//!
//! With durability on, every submit outcome is appended to the WAL under
//! the lock — so log order is visibility order — and, under
//! `FsyncPolicy::Always`, fsynced after the lock is released, before
//! `submit` returns (see `AdmissionControl::submit`).
//!
//! Configuring two tenants with different weights and policies:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tgnn_serve::{OverloadPolicy, ServeConfig, StreamServer, TenantId, TenantSpec};
//! # let graph = Arc::new(tgnn_data::generate(&tgnn_data::tiny(3)));
//! # let cfg = tgnn_core::ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
//! # let model = tgnn_core::TgnModel::new(cfg, &mut tgnn_tensor::TensorRng::new(3));
//! let config = ServeConfig {
//!     tenants: vec![
//!         // A paying tenant: 4× the fair share, backpressure on overload.
//!         TenantSpec::new("premium").with_weight(4).with_capacity(512),
//!         // A best-effort feed: shed the newest events when its queue fills,
//!         // and flag anything slower than 50 ms as late.
//!         TenantSpec::new("best-effort")
//!             .with_capacity(64)
//!             .with_policy(OverloadPolicy::DropNewest)
//!             .with_deadline(Duration::from_millis(50)),
//!     ],
//!     ..ServeConfig::default()
//! };
//! let mut server = StreamServer::new(model, graph.clone(), config);
//! for (i, &event) in graph.events().iter().enumerate() {
//!     let tenant = TenantId(i as u32 % 2);
//!     let outcome = server.submit_for(tenant, event).unwrap();
//!     // DropNewest may reject best-effort events under overload:
//!     let _admitted = outcome.is_admitted();
//!     while let Some(batch) = server.poll() {
//!         for (event, meta) in batch.events.iter().zip(&batch.metas) {
//!             // meta.tenant says who submitted it; meta.disposition
//!             // whether it met its deadline.
//!             let _ = (event, meta.tenant, meta.disposition.is_late());
//!         }
//!     }
//! }
//! let report = server.drain();
//! assert_eq!(report.tenants.len(), 2);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tgnn_core::tenancy::{Disposition, OverloadPolicy, ResultMeta, TenantId};
use tgnn_core::BackendKind;
use tgnn_durable::{AdmitDisposition, FsyncPolicy, Wal, WalRecord};
use tgnn_graph::{InteractionEvent, Timestamp};

use crate::cache::EmbeddingCache;
use crate::metrics::{SloHandle, StageObs};
use crate::pipeline::ServedBatch;
use crate::server::SubmitError;

/// Burn-rate gate consulted by the submit path: returns `true` while an SLO
/// objective fires, flipping `ServeStale` tenants into cache serving before
/// their queue is hard-full.  Injectable so tests can force it.
pub(crate) type BurnGate = Arc<dyn Fn() -> bool + Send + Sync>;

/// Configuration of one tenant's admission behaviour.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name used in reports and the bench JSON.
    pub name: String,
    /// Weighted-fair share: the fair drain takes up to `weight` events from
    /// this tenant per round-robin visit, so a backlogged tenant's service
    /// rate is proportional to its weight.  Must be ≥ 1.
    pub weight: u32,
    /// Bound of this tenant's ingress queue (events).  The overload policy
    /// decides what happens when it is full.  Must be ≥ 1.  A batch holds
    /// only what is queued when the state worker pulls, so at saturation a
    /// batch is `min(max_batch, Σ ingress capacities)` events: keep the
    /// sum at or above [`ServeConfig::max_batch`](crate::ServeConfig) for
    /// full batches (the default 1024 is five times the default cap).
    pub ingress_capacity: usize,
    /// Behaviour at the ingress bound; see [`OverloadPolicy`].
    pub policy: OverloadPolicy,
    /// Admission-to-completion latency budget: every pipeline-served result
    /// that exceeds it is flagged [`Disposition::Late`], whatever the
    /// policy (a `Block` tenant with a deadline admits everything and
    /// flags the stragglers).  `None` means no deadline (nothing is ever
    /// flagged).
    pub deadline: Option<Duration>,
    /// Token-bucket rate limit in events per second, applied at `submit_for`
    /// *before* the queue-bound policy.  `None` means unlimited.  Unlike the
    /// WRR `weight` — which divides pipeline capacity *proportionally* under
    /// contention — a rate cap bounds a tenant *absolutely*, so capping the
    /// best-effort tenants is how a premium tenant buys a throughput floor.
    /// When the bucket is empty, `Block` tenants wait for a token
    /// (counted in [`AdmissionCounters::throttled`]); drop-policy tenants
    /// lose the event ([`AdmissionCounters::dropped_throttled`]).
    pub rate_eps: Option<f64>,
    /// Token-bucket capacity (maximum burst, events).  `None` defaults to
    /// one second's worth of tokens (`max(rate_eps, 1)`).  Clamped to at
    /// least 1 — admission spends a whole token per event, so a smaller
    /// bucket could never admit anything.
    pub rate_burst: Option<f64>,
    /// Which compute backend serves this tenant's sealed batches.  `None`
    /// means the server default: the one backend a homogeneous server runs
    /// (f32, or int8 when the model carries an attached quantized weight
    /// set).  Declaring a backend on *any* tenant switches the server into
    /// heterogeneous routing — the one GNN worker computes each batch on its
    /// backend, over one shared temporal-state trajectory.  The server
    /// resolves `None` to the concrete default at build time, so every
    /// admitted event is stamped with a concrete kind.
    pub backend: Option<BackendKind>,
    /// Per-tenant staleness bound (epochs) for
    /// [`OverloadPolicy::ServeStale`] answers, overriding the shared
    /// cache's global bound for this tenant's lookups.  The effective bound
    /// is `min(tenant, global)` — the cache sweeps entries past the global
    /// bound, so a tenant cannot see *older* answers than the cache keeps;
    /// it can only demand fresher ones.  `None` means the global bound.
    /// Epochs are served micro-batches of whatever size load produced; see
    /// [`CacheConfig::staleness_bound_epochs`](crate::CacheConfig).
    pub staleness_bound_epochs: Option<u64>,
}

impl TenantSpec {
    /// A weight-1, `Block`-policy tenant with a 1024-event ingress bound and
    /// no deadline — the same semantics the single-tenant server always had.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
            ingress_capacity: 1024,
            policy: OverloadPolicy::Block,
            deadline: None,
            rate_eps: None,
            rate_burst: None,
            backend: None,
            staleness_bound_epochs: None,
        }
    }

    /// Sets the weighted-fair share (builder style).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the ingress queue bound (builder style).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.ingress_capacity = capacity;
        self
    }

    /// Sets the overload policy (builder style).
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the admission-to-completion deadline results are graded
    /// against (builder style); see the `deadline` field.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the token-bucket rate limit in events/second (builder style).
    ///
    /// # Panics
    /// Panics if `rate_eps` is not finite and positive.
    pub fn with_rate_eps(mut self, rate_eps: f64) -> Self {
        assert_rate_eps(rate_eps);
        self.rate_eps = Some(rate_eps);
        self
    }

    /// Sets the token-bucket burst capacity in events (builder style).
    ///
    /// # Panics
    /// Panics if `burst` is not finite or is below 1.0: admission spends a
    /// whole token per event, and `refill_tokens` caps the bucket at the
    /// burst — a capacity under one token could never be spent, so the
    /// tenant would block (or drop) forever.
    pub fn with_rate_burst(mut self, burst: f64) -> Self {
        assert!(
            burst.is_finite() && burst >= 1.0,
            "TenantSpec: rate_burst must be finite and >= 1 (admission needs a whole token per event)"
        );
        self.rate_burst = Some(burst);
        self
    }

    /// Declares the compute backend this tenant is served on (builder
    /// style); see the `backend` field for the routing contract.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the per-tenant `ServeStale` staleness bound in epochs (builder
    /// style); see the `staleness_bound_epochs` field.
    pub fn with_staleness_bound(mut self, epochs: u64) -> Self {
        self.staleness_bound_epochs = Some(epochs);
        self
    }

    /// Effective bucket capacity: the explicit burst, or one second's worth
    /// of tokens — clamped to at least 1 either way, because a bucket that
    /// can never hold a whole token can never admit anything (the clamp
    /// covers a `rate_burst` field written directly, bypassing the
    /// builder's assert).
    pub(crate) fn effective_burst(&self) -> f64 {
        self.rate_burst
            .unwrap_or_else(|| self.rate_eps.unwrap_or(1.0))
            .max(1.0)
    }
}

/// Panics unless `rate_eps` is a rate a token bucket can refill at: a zero
/// rate makes a `Block` submitter's wait for a token infinite (a panic
/// inside the admission lock), a negative or NaN one never earns a token,
/// and an infinite one turns the bucket's arithmetic into NaN.
fn assert_rate_eps(rate_eps: f64) {
    assert!(
        rate_eps.is_finite() && rate_eps > 0.0,
        "TenantSpec: rate_eps must be finite and positive"
    );
}

/// What `submit_for` did with the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The event is queued and will be served exactly once.
    Admitted,
    /// The tenant's queue was full under [`OverloadPolicy::DropNewest`]:
    /// the event was rejected and will never produce a result.
    Dropped,
    /// The tenant ran [`OverloadPolicy::ServeStale`] at a full queue (or an
    /// empty token bucket) and every touched vertex was in the embedding
    /// cache within its staleness bound: the event did **not** enter the
    /// pipeline, but a result flagged
    /// [`Disposition::Stale`](tgnn_core::tenancy::Disposition) is already
    /// queued and will come back through `poll`.
    ServedStale,
}

impl SubmitOutcome {
    /// True when the event entered the pipeline (`ServedStale` answers
    /// without entering it, so it is *not* "admitted" — but unlike
    /// `Dropped` it does produce a result).
    pub fn is_admitted(self) -> bool {
        matches!(self, SubmitOutcome::Admitted)
    }
}

/// An event the admission layer accepted, stamped with everything the
/// pipeline needs to attribute and grade its result.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdmittedEvent {
    pub event: InteractionEvent,
    pub meta: EventMeta,
}

/// Per-event metadata carried through the pipeline alongside the event
/// itself (the stages never look at it; the GNN worker turns it into the
/// served batch's `ResultMeta`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventMeta {
    pub tenant: TenantId,
    pub admitted_at: Instant,
    /// When the state worker pulled the event out of its ingress queue —
    /// initialized to `admitted_at` and re-stamped per pull, so the causal
    /// trace's ingress-wait segment measures real queue residency.
    pub picked_up_at: Instant,
    pub deadline: Option<Duration>,
    /// The concrete backend this event's tenant is routed to — stamped at
    /// admission (from the resolved `TenantSpec::backend`) so the batcher
    /// can seal per-backend batches without consulting the tenant table.
    pub backend: BackendKind,
}

/// Outcome of [`AdmissionControl::pull`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ingress {
    /// Events were appended to the caller's batch.
    Ready {
        /// When the wait for them ended (their pickup time), so the caller
        /// can time the pull without the wait.
        picked_up_at: Instant,
        /// Admission had already closed: these events are the remainder.
        closed: bool,
    },
    /// The layer is closed and every queue is drained.
    Closed,
}

/// Monotonic counters of one tenant's admission activity, snapshotted into
/// the serve report's `TenantStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// `submit_for` calls that returned `Ok` (admitted, dropped or answered
    /// stale); calls failing with an error are not part of the accounting.
    /// After a drain, `submitted == served + dropped()` holds for every
    /// policy.
    pub submitted: u64,
    /// Events that entered the ingress queue.
    pub admitted: u64,
    /// Incoming events rejected by [`OverloadPolicy::DropNewest`].
    pub dropped_newest: u64,
    /// Queued events evicted by [`OverloadPolicy::DropOldest`].
    pub dropped_oldest: u64,
    /// Incoming events rejected by an empty token bucket (every policy but
    /// `Block`, which waits; for `ServeStale`, a cache miss).
    pub dropped_throttled: u64,
    /// Events answered from the embedding cache by
    /// [`OverloadPolicy::ServeStale`] — overflow that produced a (stale)
    /// result instead of a drop.  Counted toward `served`, not `dropped()`:
    /// after a drain `submitted == served + dropped()` still holds.
    pub served_stale: u64,
    /// `submit_for` calls that had to block on a full queue
    /// (`Block` backpressure).
    pub blocked_submits: u64,
    /// `submit_for` calls that had to wait for a rate-limit token
    /// (`Block` policy).
    pub throttled: u64,
    /// [`OverloadPolicy::ServeStale`] answers triggered by the SLO
    /// burn-rate gate while the queue still had space (a subset of
    /// `served_stale`) — overload pre-empted before the hard bound.
    pub preempt_stale: u64,
    /// Highest ingress queue depth observed.
    pub max_depth: usize,
}

impl AdmissionCounters {
    /// Total events this tenant lost to its drop policy or rate limit.
    pub fn dropped(&self) -> u64 {
        self.dropped_newest + self.dropped_oldest + self.dropped_throttled
    }
}

/// Totals over tenants: the monotonic counters add, `max_depth` keeps the
/// deepest queue.
impl std::ops::AddAssign for AdmissionCounters {
    fn add_assign(&mut self, t: Self) {
        self.submitted += t.submitted;
        self.admitted += t.admitted;
        self.dropped_newest += t.dropped_newest;
        self.dropped_oldest += t.dropped_oldest;
        self.dropped_throttled += t.dropped_throttled;
        self.served_stale += t.served_stale;
        self.blocked_submits += t.blocked_submits;
        self.throttled += t.throttled;
        self.preempt_stale += t.preempt_stale;
        self.max_depth = self.max_depth.max(t.max_depth);
    }
}

struct TenantIngress {
    spec: TenantSpec,
    queue: VecDeque<AdmittedEvent>,
    /// Deficit-round-robin credit (unit event cost).  Non-zero between
    /// pulls only when a full batch cut this tenant's visit short: the
    /// next pull resumes the visit instead of granting a fresh quantum.
    deficit: u64,
    counters: AdmissionCounters,
    last_timestamp: Timestamp,
    /// Token-bucket state (only meaningful when `spec.rate_eps` is set).
    tokens: f64,
    last_refill: Instant,
}

impl TenantIngress {
    /// Refills the bucket from elapsed wall time and returns whether a token
    /// is available (always true for unlimited tenants).
    fn refill_tokens(&mut self, now: Instant) -> bool {
        let Some(rate) = self.spec.rate_eps else {
            return true;
        };
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * rate).min(self.spec.effective_burst());
        self.tokens >= 1.0
    }
}

struct AdmissionState {
    tenants: Vec<TenantIngress>,
    /// Round-robin cursor: index of the next tenant the fair drain visits.
    cursor: usize,
    closed: bool,
    /// Whether the state worker is asleep in [`AdmissionControl::pull`]:
    /// set by the worker before it waits, reset by whoever wakes it, so a
    /// submit costs a futex call only when the worker is really asleep.
    puller_parked: bool,
    /// Submitters inside `space.wait` (full queue or dry token bucket).
    space_waiters: usize,
}

/// Everything the submit path needs to answer an overload event from the
/// embedding cache instead of shedding it ([`OverloadPolicy::ServeStale`]).
/// The stale output queue is drained by `StreamServer::poll` *ahead of*
/// pipeline results — stale batches never pass through the pipeline (and
/// answer from embeddings whose seal was already durable when cached).
pub(crate) struct StaleServing {
    /// The shared embedding cache (population and invalidation happen in
    /// the pipeline; admission only reads).
    pub cache: Arc<EmbeddingCache>,
    /// Synthesized stale batches awaiting `poll`.
    pub out: Arc<Mutex<VecDeque<ServedBatch>>>,
    /// The server's recording handle for the answers' embeddings and
    /// completion time (`deliver`: a stale answer is a delivery that
    /// bypasses the pipeline).
    pub obs: StageObs,
}

/// The shared admission front end: per-tenant bounded queues plus the
/// weighted-fair drain the state worker runs.  One instance per
/// `StreamServer`, shared between the submitting thread and that worker.
pub(crate) struct AdmissionControl {
    state: Mutex<AdmissionState>,
    /// Signalled when a queue gains space (wakes `Block` submitters).
    space: Condvar,
    /// Signalled when work arrives or the layer closes (wakes the state
    /// worker).
    ready: Condvar,
    /// Durability: every submit outcome (admit/drop/evict) is appended here
    /// under the admission lock, *before* the event becomes visible to the
    /// state worker — so no event's `Seal` can precede its `Admit` in the
    /// log.  Lock order: admission lock, then the WAL's internal mutex (the
    /// batcher and poll take only the latter).
    wal: Option<Arc<Wal>>,
    /// `ServeStale` support; `None` when no tenant runs that policy.  The
    /// cache shard locks and the stale output lock are leaf locks taken
    /// under the admission lock (nothing is acquired while they are held).
    stale: Option<StaleServing>,
    /// SLO recording handle: every submit outcome feeds the drop-rate
    /// objective (a no-op `Default` without configured objectives).
    slo: SloHandle,
    /// Burn-rate preemption gate (`ServeConfig::slo.preempt_stale`): while
    /// it returns `true`, `ServeStale` tenants answer from the cache even
    /// with queue space left.  Lock-free atomics only — it is consulted
    /// under the admission lock.
    burn_gate: Option<BurnGate>,
    /// Deterministic test clock: when set, `now()` returns this instant
    /// instead of wall time, so the token-bucket and deadline tests advance
    /// time explicitly rather than sleeping (no flaky timing asserts).
    #[cfg(test)]
    test_now: Mutex<Option<Instant>>,
}

impl AdmissionControl {
    /// Builds the queues from the tenant table.
    ///
    /// # Panics
    /// Panics if the table is empty, any spec has a zero weight or
    /// capacity, or a `rate_eps` that is not finite and positive (the field
    /// is public, so a struct literal can bypass
    /// [`TenantSpec::with_rate_eps`]).
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        assert!(!specs.is_empty(), "admission: need at least one tenant");
        let tenants = specs
            .into_iter()
            .map(|spec| {
                assert!(spec.weight >= 1, "admission: tenant weight must be >= 1");
                assert!(
                    spec.ingress_capacity >= 1,
                    "admission: tenant ingress capacity must be >= 1"
                );
                if let Some(rate_eps) = spec.rate_eps {
                    assert_rate_eps(rate_eps);
                }
                let tokens = spec.effective_burst();
                TenantIngress {
                    queue: VecDeque::with_capacity(spec.ingress_capacity),
                    spec,
                    deficit: 0,
                    counters: AdmissionCounters::default(),
                    last_timestamp: Timestamp::NEG_INFINITY,
                    tokens,
                    last_refill: Instant::now(),
                }
            })
            .collect();
        Self {
            state: Mutex::new(AdmissionState {
                tenants,
                cursor: 0,
                closed: false,
                puller_parked: false,
                space_waiters: 0,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            wal: None,
            stale: None,
            slo: SloHandle::default(),
            burn_gate: None,
            #[cfg(test)]
            test_now: Mutex::new(None),
        }
    }

    /// Attaches the write-ahead log (builder style, before sharing).
    pub fn with_wal(mut self, wal: Option<Arc<Wal>>) -> Self {
        self.wal = wal;
        self
    }

    /// Attaches the `ServeStale` machinery (builder style, before sharing).
    pub fn with_stale(mut self, stale: Option<StaleServing>) -> Self {
        self.stale = stale;
        self
    }

    /// Attaches the SLO recording handle (builder style, before sharing).
    pub fn with_slo(mut self, slo: SloHandle) -> Self {
        self.slo = slo;
        self
    }

    /// Attaches the burn-rate preemption gate (builder style, before
    /// sharing).
    pub fn with_burn_gate(mut self, gate: Option<BurnGate>) -> Self {
        self.burn_gate = gate;
        self
    }

    /// The admission clock: wall time in production, the frozen test clock
    /// when a test installed one.  Every time read on the submit path —
    /// token-bucket refills and the `admitted_at` deadline stamp — goes
    /// through here so tests can advance time deterministically.
    fn now(&self) -> Instant {
        #[cfg(test)]
        if let Some(t) = *self.test_now.lock().unwrap() {
            return t;
        }
        Instant::now()
    }

    /// Freezes the admission clock at the current instant (tests only).
    #[cfg(test)]
    fn freeze_clock(&self) -> Instant {
        let now = Instant::now();
        *self.test_now.lock().unwrap() = Some(now);
        now
    }

    /// Advances the frozen clock and wakes throttled waiters so they
    /// re-check the bucket against the new time (tests only).
    #[cfg(test)]
    fn advance_clock(&self, by: Duration) {
        let mut clock = self.test_now.lock().unwrap();
        let t = clock.expect("advance_clock requires freeze_clock first");
        *clock = Some(t + by);
        drop(clock);
        self.space.notify_all();
    }

    /// Whether the state worker is asleep in [`Self::pull`] with every
    /// queue empty — i.e. it has pulled, and stepped, everything submitted
    /// so far (tests only: the synchronisation point that replaces a sleep).
    #[cfg(test)]
    pub(crate) fn puller_parked(&self) -> bool {
        self.state.lock().unwrap().puller_parked
    }

    /// Number of configured tenants.
    pub fn num_tenants(&self) -> usize {
        self.state.lock().unwrap().tenants.len()
    }

    /// Answers an overload event from the embedding cache
    /// ([`OverloadPolicy::ServeStale`]).  On a hit — every touched vertex
    /// cached within the staleness bound — a [`ServedBatch`] flagged
    /// [`Disposition::Stale`] is queued for `poll` and `true` returned; on a
    /// miss nothing happens.  The batch's embeddings are exactly the cached
    /// (i.e. originally served) values; `cache_epochs` records the serving
    /// epoch of each so clients and the bench can verify bit-identity
    /// against history.
    ///
    /// The lookup honours the tenant's staleness override
    /// ([`TenantSpec::staleness_bound_epochs`]), and the answer carries the
    /// tenant's declared backend.
    fn serve_stale(&self, spec: &TenantSpec, tenant: TenantId, event: InteractionEvent) -> bool {
        let Some(stale) = self.stale.as_ref() else {
            return false;
        };
        let bound = spec.staleness_bound_epochs;
        let Some((entries, age)) = stale.cache.get_event_bounded(event.src, event.dst, bound)
        else {
            return false;
        };
        let backend = spec.backend.unwrap_or_default();
        stale.cache.record_stale_serve(age);
        let mut embeddings = Vec::with_capacity(entries.len());
        let mut cache_epochs = Vec::with_capacity(entries.len());
        for (v, emb, epoch) in entries {
            embeddings.push((v, emb));
            cache_epochs.push(epoch);
        }
        // A stale answer is delivered, so its embeddings count as served,
        // but it bypasses the pipeline: it adds no seal→embeddings latency
        // sample.  The answer itself is counted once, as the tenant's
        // `AdmissionCounters::served_stale`, which the served totals sum.
        stale.obs.sinks.count_embeddings(embeddings.len());
        let now = Instant::now();
        stale.out.lock().unwrap().push_back(ServedBatch {
            epoch: 0,
            events: vec![event],
            metas: vec![ResultMeta {
                tenant,
                disposition: Disposition::Stale { age_epochs: age },
                backend,
                trace_id: 0,
            }],
            embeddings,
            cache_epochs,
            backend,
            latency: Duration::ZERO,
            admitted_at: now,
            completed_at: now,
        });
        true
    }

    /// The one cache attempt of the submit path: whether a `ServeStale`
    /// tenant answered `event` stale (any other policy never does).
    fn answered_stale(&self, t: &TenantIngress, tenant: TenantId, event: InteractionEvent) -> bool {
        t.spec.policy == OverloadPolicy::ServeStale && self.serve_stale(&t.spec, tenant, event)
    }

    /// The shed path, shared by the two places that cannot queue the
    /// event — an empty token bucket and a full queue: a `ServeStale` hit
    /// is `ServedStale`; a miss, or any other policy, is the caller's
    /// `miss` disposition (the cache never answers beyond its bound).
    fn shed(
        &self,
        t: &TenantIngress,
        tenant: TenantId,
        event: InteractionEvent,
        miss: AdmitDisposition,
    ) -> AdmitDisposition {
        if self.answered_stale(t, tenant, event) {
            AdmitDisposition::ServedStale
        } else {
            miss
        }
    }

    /// Submits one event for a tenant, applying its overload policy at the
    /// queue bound.  Blocks only under `Block` backpressure.
    ///
    /// Counter invariant: `submitted` is bumped only on the `Ok` paths, so
    /// after a drain `submitted == served + dropped()` holds exactly for
    /// every policy — calls that fail with an error are not part of the
    /// accounting.
    ///
    /// Durability: the outcome's WAL record (`Admit`, after an `Evict` for a
    /// `DropOldest` eviction) is appended under the admission lock, so log
    /// order is visibility order and every `Seal` follows its events'
    /// `Admit`s.  Under `FsyncPolicy::Always` the fsync runs after the lock
    /// is released — holding the lock across the disk wait starved the
    /// state worker's `pull` — and before this returns, so a returned
    /// submit is still durable.  Should the state worker seal the event
    /// first, the seal's own fsync covers the `Admit` that precedes it.
    pub fn submit(
        &self,
        tenant: TenantId,
        event: InteractionEvent,
    ) -> Result<SubmitOutcome, SubmitError> {
        let outcome = self.admit(tenant, event);
        // Only the `Ok` paths append a record.
        if outcome.is_ok() {
            if let Some(wal) = self
                .wal
                .as_ref()
                .filter(|w| w.policy() == FsyncPolicy::Always)
            {
                wal.flush(true).expect("admission WAL fsync failed");
            }
        }
        outcome
    }

    /// [`Self::submit`] up to the fsync, under one lock acquisition that is
    /// released on return: decides the submit's [`AdmitDisposition`] (plus
    /// the queue head a `DropOldest` admit evicts), [records](Self::record)
    /// it, and queues an admitted event.
    fn admit(
        &self,
        tenant: TenantId,
        event: InteractionEvent,
    ) -> Result<SubmitOutcome, SubmitError> {
        let idx = tenant.index();
        let mut state = self.state.lock().unwrap();
        if idx >= state.tenants.len() {
            return Err(SubmitError::UnknownTenant(tenant));
        }
        if state.closed {
            return Err(SubmitError::Closed);
        }
        let t = &mut state.tenants[idx];
        if event.timestamp < t.last_timestamp {
            return Err(SubmitError::OutOfOrder {
                previous: t.last_timestamp,
                submitted: event.timestamp,
            });
        }
        t.last_timestamp = event.timestamp;
        let mut evicted = None;
        let disposition = 'decide: {
            // Token bucket, before the queue-bound policy: `Block` waits for
            // a token, every other policy sheds the event.  The token is
            // spent before the preemption check and the bound policy.
            if t.spec.rate_eps.is_some() {
                if !t.refill_tokens(self.now()) {
                    if t.spec.policy != OverloadPolicy::Block {
                        break 'decide self.shed(
                            t,
                            tenant,
                            event,
                            AdmitDisposition::DroppedThrottled,
                        );
                    }
                    t.counters.throttled += 1;
                    loop {
                        if state.closed {
                            return Err(SubmitError::Closed);
                        }
                        let t = &mut state.tenants[idx];
                        if t.refill_tokens(self.now()) {
                            break;
                        }
                        let rate = t.spec.rate_eps.expect("throttled without a rate limit");
                        let wait = Duration::from_secs_f64(((1.0 - t.tokens) / rate).max(1e-4));
                        state.space_waiters += 1;
                        state = self.space.wait_timeout(state, wait).unwrap().0;
                        state.space_waiters -= 1;
                    }
                }
                state.tenants[idx].tokens -= 1.0;
            }
            let t = &mut state.tenants[idx];
            let full = t.queue.len() >= t.spec.ingress_capacity;
            // SLO burn-rate preemption: while an objective fires, a
            // `ServeStale` tenant answers from the cache even though its
            // queue still has space — shedding load *before* the hard bound
            // turns drops into stale answers.  A miss falls through to
            // normal admission, so preemption never sheds an event the
            // queue would have served.
            if !full
                && t.spec.policy == OverloadPolicy::ServeStale
                && self.burn_gate.as_ref().is_some_and(|g| g())
                && self.answered_stale(t, tenant, event)
            {
                t.counters.preempt_stale += 1;
                break 'decide AdmitDisposition::ServedStale;
            }
            if full {
                match t.spec.policy {
                    OverloadPolicy::Block => {
                        t.counters.blocked_submits += 1;
                        // The wait releases the state lock, so the tenant
                        // borrow is re-taken on every wakeup.
                        while state.tenants[idx].queue.len()
                            >= state.tenants[idx].spec.ingress_capacity
                        {
                            if state.closed {
                                return Err(SubmitError::Closed);
                            }
                            state.space_waiters += 1;
                            state = self.space.wait(state).unwrap();
                            state.space_waiters -= 1;
                        }
                        // Space freed *and* closed can be observed together
                        // (e.g. the state worker pulled a batch and then
                        // died): admitting now would strand the event in a
                        // layer nothing will ever drain again.
                        if state.closed {
                            return Err(SubmitError::Closed);
                        }
                    }
                    OverloadPolicy::DropOldest => evicted = t.queue.pop_front().map(|e| e.event),
                    OverloadPolicy::DropNewest | OverloadPolicy::ServeStale => {
                        break 'decide self.shed(t, tenant, event, AdmitDisposition::DroppedNewest);
                    }
                }
            }
            AdmitDisposition::Admitted
        };
        let t = &mut state.tenants[idx];
        self.record(t, tenant, event, disposition, evicted);
        match disposition {
            AdmitDisposition::Admitted => {}
            AdmitDisposition::ServedStale => return Ok(SubmitOutcome::ServedStale),
            AdmitDisposition::DroppedNewest | AdmitDisposition::DroppedThrottled => {
                return Ok(SubmitOutcome::Dropped)
            }
        }
        // `admitted_at` is stamped *here* — after any `Block` backpressure
        // or token wait — because the deadline contract budgets
        // admission-to-completion latency: time an event spends parked in
        // `submit_for` before admission is backpressure on the caller, not
        // pipeline delay, and must not count toward `Disposition::Late`
        // (pinned by `late_deadline_window_starts_at_admission_not_submit`).
        let admitted_at = self.now();
        t.queue.push_back(AdmittedEvent {
            event,
            meta: EventMeta {
                tenant,
                admitted_at,
                picked_up_at: admitted_at,
                deadline: t.spec.deadline,
                backend: t.spec.backend.unwrap_or_default(),
            },
        });
        t.counters.max_depth = t.counters.max_depth.max(t.queue.len());
        self.wake_puller(state);
        Ok(SubmitOutcome::Admitted)
    }

    /// Applies one submit's decision, the one place each outcome is
    /// recorded: `submitted` and the counter `disposition` names, the one
    /// drop-objective sample (an admit that cost an eviction counts as a
    /// drop), and the WAL records — the eviction's `Evict`, then the
    /// `Admit` — appended without an fsync (`submit` syncs after releasing
    /// the lock), before the event becomes visible to the state worker, so
    /// a durable seal always has a durable admit before it.  A WAL that
    /// cannot accept writes voids the durability contract, so failure is
    /// fatal.
    fn record(
        &self,
        t: &mut TenantIngress,
        tenant: TenantId,
        event: InteractionEvent,
        disposition: AdmitDisposition,
        evicted: Option<InteractionEvent>,
    ) {
        t.counters.submitted += 1;
        *match disposition {
            AdmitDisposition::Admitted => &mut t.counters.admitted,
            AdmitDisposition::DroppedNewest => &mut t.counters.dropped_newest,
            AdmitDisposition::DroppedThrottled => &mut t.counters.dropped_throttled,
            AdmitDisposition::ServedStale => &mut t.counters.served_stale,
        } += 1;
        t.counters.dropped_oldest += u64::from(evicted.is_some());
        let lost = !matches!(
            disposition,
            AdmitDisposition::Admitted | AdmitDisposition::ServedStale
        );
        self.slo.record_submit(lost || evicted.is_some());
        if let Some(wal) = &self.wal {
            let append = |rec: &WalRecord| {
                wal.append_unsynced(rec)
                    .expect("admission WAL append failed")
            };
            if let Some(head) = evicted {
                append(&WalRecord::Evict {
                    tenant: tenant.0,
                    event: head,
                });
            }
            append(&WalRecord::Admit {
                tenant: tenant.0,
                event,
                disposition,
            });
        }
    }

    /// Releases the state lock and wakes the state worker if — and only if
    /// — it is parked in [`Self::pull`].
    fn wake_puller(&self, mut state: std::sync::MutexGuard<'_, AdmissionState>) {
        let parked = std::mem::take(&mut state.puller_parked);
        drop(state);
        if parked {
            self.ready.notify_one();
        }
    }

    /// Recovery: puts a reconstructed ingress tail back into a tenant's
    /// queue and reimposes the tenant's durable chronology floor.  Bypasses
    /// the overload policy, rate limit, and chronology check — these events
    /// were already admitted (durably) in a previous life, and for the same
    /// reason they are *not* WAL-logged again.
    pub fn restore(&self, tenant: TenantId, events: &[InteractionEvent], floor: Timestamp) {
        let mut state = self.state.lock().unwrap();
        let t = &mut state.tenants[tenant.index()];
        if t.last_timestamp < floor {
            t.last_timestamp = floor;
        }
        for &event in events {
            let now = Instant::now();
            t.queue.push_back(AdmittedEvent {
                event,
                meta: EventMeta {
                    tenant,
                    admitted_at: now,
                    picked_up_at: now,
                    deadline: t.spec.deadline,
                    backend: t.spec.backend.unwrap_or_default(),
                },
            });
            t.counters.submitted += 1;
            t.counters.admitted += 1;
        }
        t.counters.max_depth = t.counters.max_depth.max(t.queue.len());
        self.wake_puller(state);
    }

    /// The state worker's side.  Blocks until some tenant queue holds an
    /// event, then — still under that one lock acquisition — appends
    /// weighted-fair round-robin visits to `out` (up to `weight` events per
    /// non-empty tenant per visit) until `out` holds `max` events or every
    /// queue is empty, stamps each event's pickup time and returns `Ready`.
    ///
    /// Returns `Closed` once the layer is closed *and* every queue is
    /// drained (the no-drop drain guarantee: close never discards admitted
    /// events).  The lock is released before this returns: the caller steps
    /// the batch afterwards, so submitters (and their drop policies) keep
    /// running while the pipeline is saturated.
    pub fn pull(&self, out: &mut Vec<AdmittedEvent>, max: usize) -> Ingress {
        let mut state = self.state.lock().unwrap();
        while state.tenants.iter().all(|t| t.queue.is_empty()) {
            if state.closed {
                return Ingress::Closed;
            }
            state.puller_parked = true;
            state = self.ready.wait(state).unwrap();
            // A spurious wakeup leaves it set.
            state.puller_parked = false;
        }
        let closed = state.closed;
        let picked_up_at = Instant::now();
        let from = out.len();
        let n = state.tenants.len();
        // A full pass with nothing taken means every queue is empty.
        let mut idle = 0;
        while out.len() < max && idle < n {
            let i = state.cursor;
            let t = &mut state.tenants[i];
            if t.queue.is_empty() {
                // An idle tenant accumulates no credit: its share is
                // redistributed, and it cannot burst later on stale credit.
                t.deficit = 0;
                idle += 1;
            } else {
                idle = 0;
                if t.deficit == 0 {
                    t.deficit = u64::from(t.spec.weight);
                }
                let take = (t.deficit as usize).min(t.queue.len()).min(max - out.len());
                out.extend(t.queue.drain(..take));
                t.deficit -= take as u64;
                if t.queue.is_empty() {
                    t.deficit = 0;
                }
                if t.deficit > 0 {
                    // `out` is full mid-visit: the next pull resumes here.
                    break;
                }
            }
            state.cursor = (i + 1) % n;
        }
        let blocked_submitters = state.space_waiters > 0;
        drop(state);
        for e in &mut out[from..] {
            e.meta.picked_up_at = picked_up_at;
        }
        if blocked_submitters {
            // Wake every blocked submitter — possibly several tenants' worth.
            self.space.notify_all();
        }
        Ingress::Ready {
            picked_up_at,
            closed,
        }
    }

    /// Raises every tenant's chronology floor to `t` (used after a warm-up
    /// replay: no tenant may submit events older than the absorbed prefix).
    pub fn set_timestamp_floor(&self, t: Timestamp) {
        let mut state = self.state.lock().unwrap();
        for tenant in &mut state.tenants {
            if tenant.last_timestamp < t {
                tenant.last_timestamp = t;
            }
        }
    }

    /// Closes admission: future submits fail with `Closed`, blocked
    /// submitters wake and fail, and the state worker drains the remaining
    /// queued events before `pull` returns `Closed`.  Callable from a
    /// destructor mid-unwind: setting the flag is valid whatever state a
    /// panicking lock holder left behind, so a poisoned lock is recovered.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.space.notify_all();
        self.ready.notify_all();
    }

    /// Snapshot of one tenant's spec and counters (for the metrics snapshot).
    pub fn tenant_snapshot(&self, index: usize) -> (TenantSpec, AdmissionCounters) {
        let state = self.state.lock().unwrap();
        let t = &state.tenants[index];
        (t.spec.clone(), t.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Sinks, StageId};
    use crate::server::ServeConfig;
    use std::sync::Arc;

    fn ev(t: f64) -> InteractionEvent {
        InteractionEvent::new(0, 1, 0, t)
    }

    /// Closes the layer and pulls everything still queued, `max` events per
    /// pull, in the order the state worker would see it.
    fn drain_all(ac: &AdmissionControl, max: usize) -> Vec<AdmittedEvent> {
        ac.close();
        let mut out = Vec::new();
        loop {
            let mut pulled = Vec::new();
            if ac.pull(&mut pulled, max) == Ingress::Closed {
                return out;
            }
            assert!(!pulled.is_empty() && pulled.len() <= max);
            out.extend(pulled);
        }
    }

    #[test]
    fn weighted_round_robin_serves_in_weight_proportion() {
        // Four backlogged tenants, weights 8:4:2:1, each with exactly
        // `weight × 20` events queued — the drain order must interleave so
        // that every window of Σw = 15 served events contains exactly w_i
        // events of tenant i (exact DRR with unit cost), for all 20 rounds
        // until the queues empty simultaneously.
        let weights = [8u32, 4, 2, 1];
        let rounds = 20usize;
        let backlogged = || {
            let ac = AdmissionControl::new(
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| {
                        TenantSpec::new(format!("t{i}"))
                            .with_weight(w)
                            .with_capacity(512)
                    })
                    .collect(),
            );
            for (i, &w) in weights.iter().enumerate() {
                for k in 0..(w as usize * rounds) {
                    ac.submit(TenantId(i as u32), ev(k as f64)).unwrap();
                }
            }
            ac
        };
        let ac = backlogged();
        // The pull size must not matter: a batch boundary that cuts a
        // tenant's visit short resumes it on the next pull (7 splits the
        // weight-8 visit, 15 is one round, 1000 takes everything at once).
        let total_w: u32 = weights.iter().sum();
        let order: Vec<TenantId> = drain_all(&ac, 7).iter().map(|e| e.meta.tenant).collect();
        assert_eq!(order.len(), total_w as usize * rounds);
        // Every round serves exactly the weight vector.
        for (round, chunk) in order.chunks(total_w as usize).enumerate() {
            for (i, &w) in weights.iter().enumerate() {
                let got = chunk.iter().filter(|t| t.index() == i).count();
                assert_eq!(
                    got, w as usize,
                    "round {round}: tenant {i} served {got}, weight {w}"
                );
            }
        }
        for max in [15, 1000] {
            let ac = backlogged();
            let again: Vec<TenantId> = drain_all(&ac, max).iter().map(|e| e.meta.tenant).collect();
            assert_eq!(again, order, "pull size {max} changed the drain order");
        }
    }

    #[test]
    fn idle_tenants_do_not_accumulate_credit() {
        let ac = AdmissionControl::new(vec![
            TenantSpec::new("busy").with_weight(1).with_capacity(64),
            TenantSpec::new("idle").with_weight(5).with_capacity(64),
        ]);
        // The idle tenant submits nothing for many rounds, then bursts.
        for k in 0..32 {
            ac.submit(TenantId(0), ev(k as f64)).unwrap();
        }
        let mut pulled = Vec::new();
        ac.pull(&mut pulled, 8);
        assert_eq!(pulled.len(), 8, "eight one-event visits of the busy tenant");
        for k in 0..64 {
            ac.submit(TenantId(1), ev(k as f64)).unwrap();
        }
        // The idle tenant's first visit is bounded by its weight — no credit
        // hoarded from the rounds it sat out.
        let order: Vec<TenantId> = drain_all(&ac, 1000).iter().map(|e| e.meta.tenant).collect();
        let first = order.iter().position(|&t| t == TenantId(1)).unwrap();
        let run = order[first..]
            .iter()
            .take_while(|&&t| t == TenantId(1))
            .count();
        assert_eq!(
            run, 5,
            "first visit of the idle tenant must take its weight"
        );
    }

    #[test]
    fn drop_newest_rejects_at_the_bound_and_preserves_queue() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(3)
            .with_policy(OverloadPolicy::DropNewest)]);
        for k in 0..3 {
            assert_eq!(
                ac.submit(TenantId::DEFAULT, ev(k as f64)).unwrap(),
                SubmitOutcome::Admitted
            );
        }
        for k in 3..8 {
            assert_eq!(
                ac.submit(TenantId::DEFAULT, ev(k as f64)).unwrap(),
                SubmitOutcome::Dropped
            );
        }
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.submitted, 8);
        assert_eq!(c.admitted, 3);
        assert_eq!(c.dropped_newest, 5);
        assert_eq!(c.max_depth, 3);
        // The oldest (first-admitted) events survive.
        let kept: Vec<f64> = drain_all(&ac, 8)
            .iter()
            .map(|e| e.event.timestamp)
            .collect();
        assert_eq!(kept, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn drop_oldest_evicts_the_head_to_admit_the_newest() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(3)
            .with_weight(16)
            .with_policy(OverloadPolicy::DropOldest)]);
        for k in 0..8 {
            assert_eq!(
                ac.submit(TenantId::DEFAULT, ev(k as f64)).unwrap(),
                SubmitOutcome::Admitted
            );
        }
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.admitted, 8);
        assert_eq!(c.dropped_oldest, 5);
        let kept: Vec<f64> = drain_all(&ac, 16)
            .iter()
            .map(|e| e.event.timestamp)
            .collect();
        assert_eq!(kept, vec![5.0, 6.0, 7.0], "freshest events survive");
    }

    #[test]
    fn per_tenant_chronology_is_independent() {
        let ac = AdmissionControl::new(vec![
            TenantSpec::new("a").with_capacity(8),
            TenantSpec::new("b").with_capacity(8),
        ]);
        ac.submit(TenantId(0), ev(10.0)).unwrap();
        // A different tenant may be behind in time...
        ac.submit(TenantId(1), ev(1.0)).unwrap();
        // ...but each tenant's own stream must be chronological.
        let err = ac.submit(TenantId(0), ev(5.0)).unwrap_err();
        assert!(matches!(err, SubmitError::OutOfOrder { .. }));
        assert!(matches!(
            ac.submit(TenantId(9), ev(0.0)).unwrap_err(),
            SubmitError::UnknownTenant(TenantId(9))
        ));
    }

    #[test]
    fn close_drains_admitted_events_then_ends_and_rejects_submits() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("t").with_capacity(8)]);
        for k in 0..5 {
            ac.submit(TenantId::DEFAULT, ev(k as f64)).unwrap();
        }
        ac.close();
        assert!(matches!(
            ac.submit(TenantId::DEFAULT, ev(9.0)),
            Err(SubmitError::Closed)
        ));
        let got = drain_all(&ac, 2).len();
        assert_eq!(got, 5, "close must drain, never discard, admitted events");
    }

    #[test]
    fn blocked_submitter_unblocks_when_the_state_worker_pulls() {
        let ac = Arc::new(AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(1)
            .with_policy(OverloadPolicy::Block)]));
        ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap();
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(1.0)))
        };
        std::thread::sleep(Duration::from_millis(20));
        let mut b = Vec::new();
        ac.pull(&mut b, 1); // frees the slot
        assert_eq!(b.len(), 1);
        assert_eq!(
            submitter.join().unwrap().unwrap(),
            SubmitOutcome::Admitted,
            "blocked submit must complete once space frees"
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.blocked_submits, 1);
    }

    #[test]
    fn token_bucket_sheds_beyond_burst_and_readmits_after_refill() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("capped")
            .with_capacity(64)
            .with_policy(OverloadPolicy::DropNewest)
            .with_rate_eps(500.0) // one token every 2 ms
            .with_rate_burst(3.0)]);
        // Frozen clock: no refill can sneak in between submits however
        // slowly the test machine runs.
        ac.freeze_clock();
        // The initial bucket holds exactly the burst.
        for k in 0..3 {
            assert_eq!(
                ac.submit(TenantId::DEFAULT, ev(k as f64)).unwrap(),
                SubmitOutcome::Admitted,
                "within burst"
            );
        }
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(3.0)).unwrap(),
            SubmitOutcome::Dropped,
            "bucket empty"
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.dropped_throttled, 1);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.admitted, 3);
        // Refill restores admission: 20 ms at 500 eps earns 10 tokens.
        ac.advance_clock(Duration::from_millis(20));
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(4.0)).unwrap(),
            SubmitOutcome::Admitted,
            "refilled"
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.submitted, 5);
        assert_eq!(c.admitted, 4);
    }

    #[test]
    fn token_bucket_caps_accumulated_credit_at_burst() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("capped")
            .with_capacity(64)
            .with_policy(OverloadPolicy::DropOldest)
            .with_rate_eps(1000.0)
            .with_rate_burst(2.0)]);
        ac.freeze_clock();
        // Idle long enough to earn 30 tokens at the rate — the burst cap
        // must clamp the bucket to 2.
        ac.advance_clock(Duration::from_millis(30));
        assert!(ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap().is_admitted());
        assert!(ac.submit(TenantId::DEFAULT, ev(1.0)).unwrap().is_admitted());
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(2.0)).unwrap(),
            SubmitOutcome::Dropped,
            "credit beyond burst must not accumulate"
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.dropped_throttled, 1);
        assert_eq!(c.dropped_oldest, 0, "rate drops are not queue evictions");
    }

    #[test]
    #[should_panic(expected = "rate_burst must be finite and >= 1")]
    fn sub_token_burst_is_rejected_by_the_builder() {
        // A burst in (0, 1) clamps the bucket below one token forever:
        // Block tenants would wait at submit indefinitely and drop
        // tenants would shed every event.
        let _ = TenantSpec::new("t")
            .with_rate_eps(10.0)
            .with_rate_burst(0.5);
    }

    #[test]
    fn effective_burst_clamps_direct_field_writes_to_one_token() {
        // The pub field can bypass the builder's assert; the clamp keeps the
        // tenant able to earn a whole token regardless.
        let mut spec = TenantSpec::new("t").with_rate_eps(10.0);
        spec.rate_burst = Some(0.25);
        assert_eq!(spec.effective_burst(), 1.0);
        // The rate_eps-derived default is clamped the same way.
        let slow = TenantSpec::new("slow").with_rate_eps(0.01);
        assert_eq!(slow.effective_burst(), 1.0);
    }

    #[test]
    fn blocking_tenant_waits_for_token_instead_of_dropping() {
        let ac = Arc::new(AdmissionControl::new(vec![TenantSpec::new("blocked")
            .with_capacity(64)
            .with_policy(OverloadPolicy::Block)
            .with_rate_eps(200.0) // 5 ms per token
            .with_rate_burst(1.0)]));
        ac.freeze_clock();
        assert!(ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap().is_admitted());
        // The bucket is empty and the clock is frozen: the second submit
        // *must* park in the token wait — it can only complete once the test
        // advances the clock, which replaces the old wall-clock elapsed
        // assertion with a deterministic ordering proof.
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(1.0)))
        };
        while ac.tenant_snapshot(0).1.throttled == 0 {
            std::thread::yield_now();
        }
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.admitted, 1, "the waiter must not admit on a dry bucket");
        // One token's worth of time ends the wait.
        ac.advance_clock(Duration::from_millis(5));
        assert!(
            submitter.join().unwrap().unwrap().is_admitted(),
            "blocking policy must admit after the wait, never drop"
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.throttled, 1);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.admitted, 2);
    }

    #[test]
    fn late_deadline_window_starts_at_admission_not_submit() {
        // The rustdoc contract on `TenantSpec::deadline` budgets
        // *admission-to-completion* latency: time a submitter spends parked
        // in `submit_for` under `Block` backpressure is the caller's
        // backpressure, not pipeline delay, and must not eat the deadline.
        // Park a submitter for 10× its deadline and assert the admit stamp
        // post-dates the park, so grading at completion cannot flag it late.
        let deadline = Duration::from_millis(50);
        let ac = Arc::new(AdmissionControl::new(vec![TenantSpec::new("late")
            .with_capacity(1)
            .with_policy(OverloadPolicy::Block)
            .with_deadline(deadline)]));
        let t0 = ac.freeze_clock();
        ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap();
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(1.0)))
        };
        while ac.tenant_snapshot(0).1.blocked_submits == 0 {
            std::thread::yield_now();
        }
        // The event has now been parked "before admission" for 500 ms.
        ac.advance_clock(Duration::from_millis(500));
        let mut b = Vec::new();
        ac.pull(&mut b, 1); // frees the slot → the waiter admits
        assert!(submitter.join().unwrap().unwrap().is_admitted());
        b.clear();
        ac.pull(&mut b, 1);
        let admitted = &b[0];
        assert_eq!(admitted.event.timestamp, 1.0);
        assert_eq!(admitted.meta.deadline, Some(deadline));
        assert!(
            admitted.meta.admitted_at >= t0 + Duration::from_millis(500),
            "admitted_at must be stamped after the backpressure wait ended"
        );
        // Grading "now" (= the admit instant on the frozen clock): the
        // admit-to-complete window is empty, so the 500 ms park must not
        // have made the event late.
        let now = ac.now();
        let in_window = now.saturating_duration_since(admitted.meta.admitted_at);
        let late = admitted.meta.deadline.is_some_and(|d| in_window > d);
        assert!(
            !late,
            "time parked in submit_for counted against the deadline (window {in_window:?})"
        );
    }

    /// A `deliver` recording handle onto a one-tenant server's sinks.
    fn deliver_obs() -> StageObs {
        let sinks = Arc::new(Sinks::new(&ServeConfig::default(), 1));
        sinks.stage_obs(StageId::Deliver)
    }

    fn stale_fixture(
        spec: TenantSpec,
        bound: u64,
    ) -> (
        AdmissionControl,
        Arc<EmbeddingCache>,
        Arc<Mutex<VecDeque<ServedBatch>>>,
    ) {
        let cache = Arc::new(EmbeddingCache::new(
            crate::cache::CacheConfig {
                capacity: 64,
                staleness_bound_epochs: bound,
            },
            2,
        ));
        let out = Arc::new(Mutex::new(VecDeque::new()));
        let ac = AdmissionControl::new(vec![spec]).with_stale(Some(StaleServing {
            cache: cache.clone(),
            out: out.clone(),
            obs: deliver_obs(),
        }));
        (ac, cache, out)
    }

    #[test]
    fn serve_stale_answers_from_cache_at_the_bound() {
        let (ac, cache, out) = stale_fixture(
            TenantSpec::new("stale")
                .with_capacity(1)
                .with_policy(OverloadPolicy::ServeStale),
            4,
        );
        // The events touch src 0 / dst 1 (see `ev`); both are cached.
        cache.insert(0, 3, &[0.5, -1.0]);
        cache.insert(1, 5, &[2.0]);
        cache.expire(6);
        assert!(ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap().is_admitted());
        // Queue full → answered stale, max age across the two vertices.
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(1.0)).unwrap(),
            SubmitOutcome::ServedStale
        );
        let b = out.lock().unwrap().pop_front().expect("stale batch queued");
        assert_eq!(b.epoch, 0, "stale batches carry the epoch-0 marker");
        assert_eq!(b.metas[0].disposition, Disposition::Stale { age_epochs: 3 });
        assert_eq!(
            b.embeddings,
            vec![(0, vec![0.5, -1.0]), (1, vec![2.0])],
            "stale answer must be exactly the cached (served) embeddings"
        );
        assert_eq!(b.cache_epochs, vec![3, 5]);
        // Expire vertex 0 past the bound: the next overflow misses and is
        // shed DropNewest-style.
        cache.expire(8);
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(2.0)).unwrap(),
            SubmitOutcome::Dropped
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.submitted, 3);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.served_stale, 1);
        assert_eq!(c.dropped_newest, 1);
        assert_eq!(c.dropped(), 1, "stale serves are not drops");
    }

    #[test]
    fn burn_gate_preempts_serve_stale_before_the_queue_is_full() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (ac, cache, out) = stale_fixture(
            TenantSpec::new("stale")
                .with_capacity(64)
                .with_policy(OverloadPolicy::ServeStale),
            8,
        );
        let fired = Arc::new(AtomicBool::new(false));
        let gate = fired.clone();
        let ac = ac.with_burn_gate(Some(Arc::new(move || gate.load(Ordering::Relaxed))));
        cache.insert(0, 1, &[1.0]);
        cache.insert(1, 1, &[2.0]);
        // Gate quiet: normal admission even though the cache could answer.
        assert!(ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap().is_admitted());
        // Gate fired: answered stale with 63 queue slots still free.
        fired.store(true, Ordering::Relaxed);
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(1.0)).unwrap(),
            SubmitOutcome::ServedStale
        );
        assert_eq!(out.lock().unwrap().len(), 1);
        // Gate fired but cache expired: falls through to normal admission —
        // preemption never sheds what the queue would have served.
        cache.expire(100);
        assert!(ac.submit(TenantId::DEFAULT, ev(2.0)).unwrap().is_admitted());
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.submitted, 3);
        assert_eq!(c.admitted, 2);
        assert_eq!(c.served_stale, 1);
        assert_eq!(c.preempt_stale, 1);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn serve_stale_covers_the_throttle_path_too() {
        let (ac, cache, out) = stale_fixture(
            TenantSpec::new("stale")
                .with_capacity(64)
                .with_policy(OverloadPolicy::ServeStale)
                .with_rate_eps(100.0)
                .with_rate_burst(1.0),
            8,
        );
        ac.freeze_clock();
        cache.insert(0, 1, &[1.0]);
        cache.insert(1, 1, &[2.0]);
        assert!(ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap().is_admitted());
        // Bucket dry: answered from cache instead of dropping.
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(1.0)).unwrap(),
            SubmitOutcome::ServedStale
        );
        assert_eq!(out.lock().unwrap().len(), 1);
        // Bucket dry *and* cache expired: dropped-throttled.
        cache.expire(100);
        assert_eq!(
            ac.submit(TenantId::DEFAULT, ev(2.0)).unwrap(),
            SubmitOutcome::Dropped
        );
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.served_stale, 1);
        assert_eq!(c.dropped_throttled, 1);
    }

    #[test]
    fn throttled_blocked_submitter_fails_when_admission_closes() {
        let ac = Arc::new(AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(8)
            .with_policy(OverloadPolicy::Block)
            .with_rate_eps(0.5) // 2 s per token: the test would time out if the close were missed
            .with_rate_burst(1.0)]));
        ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap();
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(1.0)))
        };
        std::thread::sleep(Duration::from_millis(20));
        ac.close();
        assert!(matches!(
            submitter.join().unwrap(),
            Err(SubmitError::Closed)
        ));
    }

    #[test]
    fn restore_bypasses_policy_and_reimposes_floor() {
        let ac = AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(2) // smaller than the restored tail
            .with_policy(OverloadPolicy::DropNewest)
            .with_rate_eps(1e-3)]); // bucket effectively empty forever
        let tail = vec![ev(1.0), ev(2.0), ev(3.0)];
        ac.restore(TenantId::DEFAULT, &tail, 3.0);
        let (_, c) = ac.tenant_snapshot(0);
        assert_eq!(c.admitted, 3, "restore ignores capacity and rate limits");
        assert_eq!(c.dropped(), 0);
        // The durable chronology floor holds.
        assert!(matches!(
            ac.submit(TenantId::DEFAULT, ev(2.5)).unwrap_err(),
            SubmitError::OutOfOrder { .. }
        ));
        let got: Vec<InteractionEvent> = drain_all(&ac, 2).iter().map(|e| e.event).collect();
        assert_eq!(got, tail, "restored tail drains in admit order");
    }

    #[test]
    fn blocked_submitter_fails_closed_when_admission_closes() {
        let ac = Arc::new(AdmissionControl::new(vec![TenantSpec::new("t")
            .with_capacity(1)
            .with_policy(OverloadPolicy::Block)]));
        ac.submit(TenantId::DEFAULT, ev(0.0)).unwrap();
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(1.0)))
        };
        std::thread::sleep(Duration::from_millis(20));
        ac.close();
        assert!(matches!(
            submitter.join().unwrap(),
            Err(SubmitError::Closed)
        ));
    }

    /// One row of the admission decision table: a policy and the four
    /// conditions a submit can meet.
    #[derive(Clone, Copy, Debug)]
    struct Case {
        policy: OverloadPolicy,
        token: bool,
        space: bool,
        hit: bool,
        gate: bool,
    }

    /// What one submit did: its outcome, the counter deltas (`max_depth`
    /// absolute), the drop-objective sample (`Some(dropped)`, `None` for no
    /// sample), the WAL records it appended, the stale answers it queued,
    /// the ingress queue it left (timestamps) and the tokens left over.
    #[derive(Debug, PartialEq)]
    struct Effect {
        outcome: SubmitOutcome,
        delta: AdmissionCounters,
        slo_dropped: Option<bool>,
        wal: Vec<WalRecord>,
        stale_answers: usize,
        queue: Vec<f64>,
        tokens: f64,
    }

    fn blocks(policy: OverloadPolicy) -> bool {
        matches!(policy, OverloadPolicy::Block)
    }

    /// The table itself: what a submit of `ev(2.0)` must do.  The queue
    /// holds `ev(0.0)` (space) or `ev(0.0), ev(1.0)` (full, capacity 2); the
    /// bucket holds one token or none; a blocked submitter gets one token
    /// refilled and, at a full queue, the head pulled.
    fn expected(c: Case) -> Effect {
        let mut queue = if c.space { vec![0.0] } else { vec![0.0, 1.0] };
        let prefill = queue.len();
        let mut delta = AdmissionCounters {
            submitted: 1,
            max_depth: prefill,
            ..AdmissionCounters::default()
        };
        let admit = |disposition| WalRecord::Admit {
            tenant: 0,
            event: ev(2.0),
            disposition,
        };
        // The two places that cannot queue the event: a `ServeStale` hit
        // answers stale, anything else loses the event.
        let shed = |mut delta: AdmissionCounters, miss, queue| {
            let (outcome, disposition, answers) = if c.policy == OverloadPolicy::ServeStale && c.hit
            {
                delta.served_stale += 1;
                (SubmitOutcome::ServedStale, AdmitDisposition::ServedStale, 1)
            } else {
                match miss {
                    AdmitDisposition::DroppedThrottled => delta.dropped_throttled += 1,
                    _ => delta.dropped_newest += 1,
                }
                (SubmitOutcome::Dropped, miss, 0)
            };
            Effect {
                outcome,
                delta,
                slo_dropped: Some(outcome == SubmitOutcome::Dropped),
                wal: vec![admit(disposition)],
                stale_answers: answers,
                queue,
                tokens: 0.0,
            }
        };
        if !c.token {
            if !blocks(c.policy) {
                return shed(delta, AdmitDisposition::DroppedThrottled, queue);
            }
            delta.throttled += 1;
        }
        if c.policy == OverloadPolicy::ServeStale && c.space && c.gate && c.hit {
            delta.preempt_stale += 1;
            return shed(delta, AdmitDisposition::DroppedNewest, queue);
        }
        let mut wal = Vec::new();
        let mut evicted = false;
        if !c.space {
            match c.policy {
                p if blocks(p) => {
                    delta.blocked_submits += 1;
                    queue.remove(0);
                }
                OverloadPolicy::DropOldest => {
                    delta.dropped_oldest += 1;
                    wal.push(WalRecord::Evict {
                        tenant: 0,
                        event: ev(queue.remove(0)),
                    });
                    evicted = true;
                }
                _ => return shed(delta, AdmitDisposition::DroppedNewest, queue),
            }
        }
        delta.admitted += 1;
        wal.push(admit(AdmitDisposition::Admitted));
        queue.push(2.0);
        delta.max_depth = prefill.max(queue.len());
        Effect {
            outcome: SubmitOutcome::Admitted,
            delta,
            slo_dropped: Some(evicted),
            wal,
            stale_answers: 0,
            queue,
            tokens: 0.0,
        }
    }

    /// Runs one row against a real WAL, cache, SLO engine and burn gate.
    fn observed(c: Case, dir: &std::path::Path) -> Effect {
        use tgnn_durable::read_wal;
        use tgnn_obs::{SloEngine, SloSpec};
        let _ = std::fs::remove_dir_all(dir);
        let wal = Arc::new(Wal::open(dir, 0, 1 << 20, FsyncPolicy::Never).unwrap());
        let cache = Arc::new(EmbeddingCache::new(
            crate::cache::CacheConfig {
                capacity: 64,
                staleness_bound_epochs: 4,
            },
            2,
        ));
        if c.hit {
            cache.insert(0, 1, &[1.0]);
            cache.insert(1, 1, &[2.0]);
        }
        let out = Arc::new(Mutex::new(VecDeque::new()));
        // Budget 1: a single sample reads as burn 0 (kept) or 1 (dropped).
        let slo = Arc::new(SloEngine::new(vec![
            SloSpec::new("latency", 1.0, 1.0),
            SloSpec::new("drops", 1.0, 1.0),
        ]));
        let gate = c.gate;
        let ac = Arc::new(
            AdmissionControl::new(vec![TenantSpec::new("t")
                .with_capacity(2)
                .with_policy(c.policy)
                .with_rate_eps(1000.0)
                .with_rate_burst(1.0)])
            .with_wal(Some(wal.clone()))
            .with_stale(Some(StaleServing {
                cache,
                out: out.clone(),
                obs: deliver_obs(),
            }))
            .with_slo(SloHandle::new(Some(slo.clone()), None))
            .with_burn_gate(Some(Arc::new(move || gate))),
        );
        let t0 = ac.freeze_clock();
        let prefill = if c.space {
            vec![ev(0.0)]
        } else {
            vec![ev(0.0), ev(1.0)]
        };
        ac.restore(TenantId::DEFAULT, &prefill, 1.0);
        {
            let mut state = ac.state.lock().unwrap();
            let t = &mut state.tenants[0];
            t.tokens = if c.token { 1.0 } else { 0.0 };
            t.last_refill = t0;
        }
        let before = ac.tenant_snapshot(0).1;
        let submitter = {
            let ac = ac.clone();
            std::thread::spawn(move || ac.submit(TenantId::DEFAULT, ev(2.0)))
        };
        let wait_for = |done: &dyn Fn(AdmissionCounters) -> bool| {
            while !done(ac.tenant_snapshot(0).1) {
                std::thread::yield_now();
            }
        };
        if blocks(c.policy) {
            if !c.token {
                wait_for(&|now| now.throttled > before.throttled);
                ac.advance_clock(Duration::from_millis(2));
            }
            if !c.space {
                wait_for(&|now| now.blocked_submits > before.blocked_submits);
                let mut head = Vec::new();
                ac.pull(&mut head, 1);
                assert_eq!(head.len(), 1);
            }
        }
        let outcome = submitter.join().unwrap().unwrap();
        let after = ac.tenant_snapshot(0).1;
        wal.flush(false).unwrap();
        let records = read_wal(dir).unwrap().records;
        let _ = std::fs::remove_dir_all(dir);
        let state = ac.state.lock().unwrap();
        let stale_answers = out.lock().unwrap().len();
        Effect {
            outcome,
            delta: AdmissionCounters {
                submitted: after.submitted - before.submitted,
                admitted: after.admitted - before.admitted,
                dropped_newest: after.dropped_newest - before.dropped_newest,
                dropped_oldest: after.dropped_oldest - before.dropped_oldest,
                dropped_throttled: after.dropped_throttled - before.dropped_throttled,
                served_stale: after.served_stale - before.served_stale,
                blocked_submits: after.blocked_submits - before.blocked_submits,
                throttled: after.throttled - before.throttled,
                preempt_stale: after.preempt_stale - before.preempt_stale,
                max_depth: after.max_depth,
            },
            slo_dropped: slo.status()[1].fast_burn.map(|burn| burn > 0.0),
            wal: records,
            stale_answers,
            queue: state.tenants[0]
                .queue
                .iter()
                .map(|e| e.event.timestamp)
                .collect(),
            tokens: state.tenants[0].tokens,
        }
    }

    #[test]
    fn admission_decision_table() {
        let root = std::env::temp_dir().join(format!("tgnn-admit-table-{}", std::process::id()));
        let mut rows = 0;
        for policy in [
            OverloadPolicy::Block,
            OverloadPolicy::DropNewest,
            OverloadPolicy::DropOldest,
            OverloadPolicy::ServeStale,
        ] {
            for bits in 0..16u32 {
                let c = Case {
                    policy,
                    token: bits & 1 != 0,
                    space: bits & 2 != 0,
                    hit: bits & 4 != 0,
                    gate: bits & 8 != 0,
                };
                assert_eq!(
                    observed(c, &root.join(rows.to_string())),
                    expected(c),
                    "{c:?}"
                );
                rows += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
