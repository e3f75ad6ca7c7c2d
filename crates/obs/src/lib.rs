//! `tgnn-obs`: dependency-free observability primitives for the serve pipeline.
//!
//! Four pieces, each usable on its own:
//!
//! * [`Histogram`] — a log-linear histogram with a *fixed* bucket layout
//!   (16 sub-buckets per octave, ≤ 6.25 % relative error), so snapshots
//!   taken on different threads or machines are mergeable bucket-by-bucket
//!   and percentile queries never allocate.
//! * [`FlightRecorder`] — a bounded seqlock ring buffer of
//!   `(stage, worker, epoch, enter/exit, tick)` records. Writers never
//!   block and never allocate; a reader can dump a consistent view of the
//!   last N records at any time — including after a worker panicked — which
//!   is what makes post-mortem per-stage timelines possible.
//! * [`TraceSlab`] / [`CriticalPath`] — epoch-scoped causal traces: a
//!   lock-free ring of per-epoch segment lists that decompose a request's
//!   admit→deliver latency into additive phases, plus an analyzer that
//!   names the dominant segment and aggregates per-segment blame.
//! * [`SloEngine`] — declared objectives (error budgets) evaluated over
//!   fast/slow burn-rate windows, with a typed [`SloStatus`] verdict and a
//!   cheap [`SloEngine::fired`] signal admission control can poll.
//!
//! The crate has no dependencies (not even on the rest of the workspace) so
//! that instrumentation can be threaded through any layer without dragging
//! the model stack along.

#![warn(missing_docs)]

mod flight;
mod hist;
mod slo;
mod trace;

pub use flight::{FlightRecord, FlightRecorder, SpanKind};
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use slo::{
    BurnState, SloEngine, SloSpec, SloStatus, FAST_WINDOW_SECONDS, RING_SECONDS,
    SLOW_WINDOW_SECONDS,
};
pub use trace::{Blame, CriticalPath, TraceSegment, TraceSlab, TraceView, MAX_TRACE_SEGMENTS};
