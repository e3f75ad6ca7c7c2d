//! Multi-tenant vocabulary: tenant identity, overload policies, and the
//! per-result disposition metadata.
//!
//! The serve-millions north star means one pipeline instance is shared by
//! many independent event producers ("tenants": products, customers,
//! per-region feeds).  The admission layer in `tgnn-serve` keys its bounded
//! ingress queues and its weighted-fair scheduler by [`TenantId`]; the types
//! live here in `tgnn-core` because *results* carry them — every served
//! embedding batch is annotated with the tenant each event belongs to and
//! whether it met its deadline ([`ResultMeta`]), and downstream consumers of
//! engine output should not need to depend on the serving crate to interpret
//! that metadata.
//!
//! The contract each [`OverloadPolicy`] provides under sustained overload
//! (offered load exceeding pipeline capacity for long enough that a bounded
//! tenant queue fills):
//!
//! | Policy | Full-queue behaviour | Caller sees | Results |
//! |---|---|---|---|
//! | [`Block`](OverloadPolicy::Block) | `submit` blocks until space | backpressure | every event served |
//! | [`DropNewest`](OverloadPolicy::DropNewest) | incoming event dropped | `Dropped` outcome | admitted events served |
//! | [`DropOldest`](OverloadPolicy::DropOldest) | queue head evicted, incoming admitted | `Admitted` (eviction counted) | freshest events served |
//! | [`ServeStale`](OverloadPolicy::ServeStale) | answered from the embedding cache | `ServedStale` outcome | flagged [`Disposition::Stale`] with its age |
//!
//! Dropping happens **only** in the ingress queue: once the scheduler hands
//! an event to the micro-batcher it is sealed into a batch and will be
//! served exactly once (the admission property tests assert this).
//! `ServeStale` completes the block/drop spectrum with a *quality* axis:
//! instead of delaying or discarding overload, it answers from the serving
//! layer's bounded-staleness embedding cache and labels the result with how
//! many epochs old it is.
//!
//! Deadlines are orthogonal to the policy: a tenant that configures one has
//! every pipeline-served result graded [`Disposition::Late`] past it,
//! whatever its policy.

/// Identifies one tenant of a multi-tenant serving instance.
///
/// A `TenantId` is an index into the tenant table the server was configured
/// with (`ServeConfig::tenants` in `tgnn-serve`); it is cheap, `Copy`, and
/// stable for the lifetime of the server.  Single-tenant deployments use
/// [`TenantId::DEFAULT`] implicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of a single-tenant server (index 0).
    pub const DEFAULT: TenantId = TenantId(0);

    /// The tenant-table index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// What a tenant's `submit` does once its bounded ingress queue is full.
///
/// See the [module table](self) for the full contract.  `Block` is the
/// single-tenant default and preserves today's backpressure semantics
/// bit-for-bit; the drop modes trade completeness for bounded queueing
/// delay; `ServeStale` trades freshness for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OverloadPolicy {
    /// Block the submitter until the queue has space (backpressure).
    #[default]
    Block,
    /// Reject the incoming event; everything already queued is served.
    DropNewest,
    /// Evict the oldest queued event to admit the incoming one.
    DropOldest,
    /// Answer from the serving layer's bounded-staleness embedding cache
    /// when the queue is full: the event is *not* admitted to the pipeline;
    /// its result carries the last served embeddings of the touched
    /// vertices, flagged [`Disposition::Stale`] with the age in epochs.  A
    /// cache miss (no fresh-enough entry for every touched vertex) degrades
    /// to a `DropNewest`-style shed — the cache never answers beyond its
    /// staleness bound.
    ServeStale,
}

impl OverloadPolicy {
    /// Stable lower-case label, used in reports and the bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::DropNewest => "drop-newest",
            OverloadPolicy::DropOldest => "drop-oldest",
            OverloadPolicy::ServeStale => "serve-stale",
        }
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    /// Parses the labels `label()` emits (hyphen/underscore-insensitive):
    /// `block`, `drop-newest`, `drop-oldest`, `serve-stale`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "block" => Ok(OverloadPolicy::Block),
            "drop-newest" | "dropnewest" => Ok(OverloadPolicy::DropNewest),
            "drop-oldest" | "dropoldest" => Ok(OverloadPolicy::DropOldest),
            "serve-stale" | "servestale" => Ok(OverloadPolicy::ServeStale),
            other => Err(format!(
                "unknown overload policy {other:?} (expected block|drop-newest|drop-oldest|serve-stale)"
            )),
        }
    }
}

/// Whether a served result met its tenant's latency deadline, or — under
/// [`OverloadPolicy::ServeStale`] — was answered from the embedding cache.
///
/// Dispositions are *metadata only*: a `Late` embedding is bitwise-identical
/// to the embedding the same event would have produced on time — the flag
/// records that the pipeline's queueing delay exceeded the deadline, not
/// that the computation differed (asserted by the admission property tests).
/// A `Stale` embedding is bitwise-identical to the embedding *served at the
/// cached epoch*; `age_epochs` says how many epoch barriers have committed
/// since.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Completed within the tenant's deadline (or the tenant has none).
    #[default]
    OnTime,
    /// Completed after the tenant's deadline elapsed.  Graded whenever the
    /// tenant configures a deadline, under every policy: a `Block` tenant
    /// with a deadline admits everything and flags the stragglers.
    Late,
    /// Answered from the bounded-staleness embedding cache without entering
    /// the pipeline ([`OverloadPolicy::ServeStale`] under overload).
    Stale {
        /// Epoch barriers committed since the cached embedding was served
        /// (0 = the cache entry is current).  Never exceeds the cache's
        /// configured staleness bound.
        age_epochs: u64,
    },
}

impl Disposition {
    /// True for [`Disposition::Late`].
    pub fn is_late(self) -> bool {
        matches!(self, Disposition::Late)
    }

    /// True for [`Disposition::Stale`] (any age).
    pub fn is_stale(self) -> bool {
        matches!(self, Disposition::Stale { .. })
    }

    /// The stale age in epochs, or `None` for non-stale dispositions.
    pub fn stale_age(self) -> Option<u64> {
        match self {
            Disposition::Stale { age_epochs } => Some(age_epochs),
            _ => None,
        }
    }
}

/// Per-event result annotation: which tenant the event belonged to and
/// whether its result met the deadline.  Served batches carry one
/// `ResultMeta` per event, aligned with the event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultMeta {
    /// The tenant whose ingress queue admitted the event.
    pub tenant: TenantId,
    /// Deadline disposition of the result.
    pub disposition: Disposition,
    /// Which compute backend served this result (see
    /// [`BackendKind`](crate::backend::BackendKind)).  Single-backend
    /// servers stamp their one backend; heterogeneously routed servers
    /// stamp the backend the tenant was declared on — the routing
    /// conservation tests in `tgnn-serve` check it for every result.
    /// Stale cache answers carry the declared backend of the tenant they
    /// answer for (the cached values were served earlier, possibly by
    /// another tenant's backend; the cache stores served history, not
    /// provenance).
    pub backend: crate::backend::BackendKind,
    /// Causal-trace identifier: the pipeline epoch whose trace decomposes
    /// this result's admit→deliver latency into additive segments (see the
    /// serving layer's trace slab).  `0` means untraced — results that never
    /// entered the pipeline (stale cache answers, recovery re-serves) carry
    /// no trace.
    pub trace_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_roundtrip_and_default() {
        assert_eq!(TenantId::DEFAULT.index(), 0);
        assert_eq!(TenantId(3).index(), 3);
        assert_eq!(format!("{}", TenantId(7)), "tenant#7");
    }

    #[test]
    fn overload_policy_labels_roundtrip_through_from_str() {
        for p in [
            OverloadPolicy::Block,
            OverloadPolicy::DropNewest,
            OverloadPolicy::DropOldest,
            OverloadPolicy::ServeStale,
        ] {
            assert_eq!(p.label().parse::<OverloadPolicy>().unwrap(), p);
        }
        assert_eq!(
            "DROP_NEWEST".parse::<OverloadPolicy>().unwrap(),
            OverloadPolicy::DropNewest
        );
        assert!("yolo".parse::<OverloadPolicy>().is_err());
        assert!("late".parse::<OverloadPolicy>().is_err());
    }

    #[test]
    fn disposition_default_is_on_time() {
        assert_eq!(Disposition::default(), Disposition::OnTime);
        assert!(Disposition::Late.is_late());
        assert!(!Disposition::OnTime.is_late());
    }

    #[test]
    fn stale_disposition_carries_its_age() {
        let d = Disposition::Stale { age_epochs: 7 };
        assert!(d.is_stale());
        assert!(!d.is_late());
        assert_eq!(d.stale_age(), Some(7));
        assert_eq!(Disposition::OnTime.stale_age(), None);
        assert_eq!(
            "SERVE_STALE".parse::<OverloadPolicy>().unwrap(),
            OverloadPolicy::ServeStale
        );
    }
}
