//! `tgnn-serve` — a sharded, multi-queue streaming pipeline for continuous
//! TGN inference.
//!
//! The batch engine (`tgnn_core::InferenceEngine`) made the GNN compute stage
//! fast, but it is driven one synchronous batch at a time: sampling, memory
//! update, compute, and write-back run strictly sequentially.  The source
//! paper's FPGA design hides exactly this latency by overlapping the stages
//! in a hardware pipeline; this crate is the software-schedulable rendition
//! of that idea (cf. FlowGNN's multi-queue dataflow and GraphAGILE's
//! partitioned overlay):
//!
//! * [`StreamServer`] accepts a continuous chronological feed of
//!   [`InteractionEvent`](tgnn_graph::InteractionEvent)s, micro-batches them
//!   — a batch is whatever arrived while the previous one was being
//!   processed, capped at `max_batch` — and executes them through the
//!   paper's stage graph —
//!   state → GNN, two workers over two queues — with a thread only where
//!   work can overlap: one state worker pulls its own batches from
//!   admission, runs seal → sample → memory → gather → commit in program
//!   order and dispatches each batch's GNN job before committing it, so
//!   batch *k*'s GNN compute overlaps its write-back and batch *k+1*'s
//!   state stages.  One GNN worker, like the
//!   paper's single embedding unit, computes the jobs in epoch order on
//!   whichever backend each batch was sealed for, so results leave in epoch
//!   order for any backend mix — and, with durability on, only once the
//!   batch's WAL seal is durable.
//! * The vertex state is partitioned (`node_id % N`) behind
//!   [`tgnn_graph::ShardedNeighborTable`] and
//!   [`tgnn_core::ShardedMemory`] — shards are the unit of locks, snapshot
//!   files and cache sweeps — and the single state worker commits epochs in
//!   order, so the pipelined output is **bit-identical** to
//!   `ExecMode::Serial` on the same batch sequence (asserted by this
//!   crate's property tests and replayed by every `benchmark/` run).
//! * The admission front end is **multi-tenant** ([`admission`]): each
//!   tenant owns a bounded ingress queue that the state worker drains
//!   weighted-fair, and a per-tenant [`OverloadPolicy`] — `Block`,
//!   `DropNewest`, `DropOldest`, `Late`, or `ServeStale` — governs what
//!   happens when sustained overload fills the queue.  `ServeStale` answers
//!   read-style overload from the [`cache`] — a bounded, sharded embedding
//!   cache invalidated at the epoch barrier — returning the last *served*
//!   embeddings flagged [`Disposition::Stale`] with their age in epochs
//!   instead of dropping.  Single-tenant configurations
//!   (the default) serve bit-identical results with the same
//!   never-drop `Block` semantics as before (see
//!   [`ServeConfig::tenants`](server::ServeConfig)).
//! * The server's numbers have one read path.  [`MetricsHub::snapshot`]
//!   ([`StreamServer::metrics`]) is the only code that reads the pipeline's
//!   counters and histograms, into a typed [`MetricsSnapshot`]: throughput,
//!   queue depths, p50/p95/p99 batch latency, per-tenant [`TenantStats`]
//!   (drop counts, late counts, admission-to-completion percentiles),
//!   per-backend, WAL and cache rows.  [`ServeReport`] — what `drain`
//!   returns — is a view of that snapshot plus the commit log, and
//!   [`export`] renders it: a table, and Prometheus text / a JSONL line
//!   that are two walks over one metric catalogue.
//!
//! The end-to-end narrative of the system — admission through shards,
//! stages, the quantized engine, and results — lives in the repository's
//! `ARCHITECTURE.md`.
//!
//! The canonical submit/poll/drain loop (runs in seconds on the tiny
//! preset — scale the dataset up for real measurements):
//!
//! ```
//! use std::sync::Arc;
//! use tgnn_serve::{ServeConfig, StreamServer};
//! # let graph = tgnn_data::generate(&tgnn_data::tiny(1));
//! # let cfg = tgnn_core::ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
//! # let model = tgnn_core::TgnModel::new(cfg, &mut tgnn_tensor::TensorRng::new(1));
//! let graph = Arc::new(graph);
//! let mut server = StreamServer::new(model, graph.clone(), ServeConfig::default());
//! let mut embeddings = 0;
//! for &event in graph.events() {
//!     server.submit(event).unwrap();
//!     while let Some(batch) = server.poll() {
//!         // embeddings of batch.events' touched vertices
//!         embeddings += batch.embeddings.len();
//!     }
//! }
//! let report = server.drain();
//! while let Some(batch) = server.poll() {
//!     embeddings += batch.embeddings.len();
//! }
//! assert_eq!(report.num_events, graph.num_events());
//! assert!(report.commit_log_clean);
//! println!("{:.0} edges/sec, p99 {:.2} ms", report.throughput_eps, report.latency.p99_ms);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod durability;
pub mod export;
pub mod metrics;
pub mod pipeline;
pub mod queue;
pub mod server;

pub use admission::{AdmissionCounters, SubmitOutcome, TenantSpec};
pub use cache::{CacheConfig, CacheStats, EmbeddingCache, StaleAgeSummary};
pub use durability::{DurabilityStats, RecoveryReport};
pub use export::render_flight_timeline;
pub use metrics::{
    MetricsHub, MetricsLogger, MetricsSnapshot, SegmentId, SloConfig, SpanRecord, StageId,
    TraceExemplar, TraceStats,
};
pub use pipeline::{GnnFaultHook, SealReason, ServedBatch};
pub use queue::QueueStats;
pub use server::{
    BackendStats, LatencySummary, ServeConfig, ServeReport, StreamServer, SubmitError, TenantStats,
};
pub use tgnn_core::tenancy::{Disposition, OverloadPolicy, ResultMeta, TenantId};
pub use tgnn_core::{BackendKind, ComputeBackend, F32Backend, Int8Backend};
pub use tgnn_durable::{
    wal_fault_hook, DurabilityConfig, DurableError, FsyncPolicy, WalFaultHook, WalFaultPoint,
};
pub use tgnn_hwsim::HwSimBackend;
pub use tgnn_obs::{
    Blame, BurnState, CriticalPath, HistogramSnapshot, SloStatus, SpanKind, TraceSegment,
    TraceView, MAX_TRACE_SEGMENTS,
};
