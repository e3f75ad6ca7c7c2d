//! Temporal graph substrate.
//!
//! Memory-based TGNNs (Section II of the paper) operate on a chronologically
//! ordered stream of graph signals — timestamped interactions between nodes.
//! This crate provides the storage and access paths that both the software
//! reference model (`tgnn-core`) and the accelerator simulator (`tgnn-hwsim`)
//! share:
//!
//! * [`event`] — timestamped interaction events (the "new edges" of
//!   Algorithm 1) and batches of them.
//! * [`graph`] — the [`TemporalGraph`]: node/edge
//!   features plus the full chronological event log with train/val/test
//!   splits.
//! * [`neighbor_table`] — the most-recent-`mr` Vertex Neighbor Table, a
//!   per-vertex FIFO that is exactly the data structure the hardware sampler
//!   replaces the software temporal sampler with.
//! * [`sampler`] — the reference software temporal sampler (scan all past
//!   events) and the FIFO sampler built on the neighbor table, plus the
//!   equivalence tests between them.
//! * [`batching`] — fixed-size and fixed-time-window batch formation, the two
//!   deployment modes discussed in Section II-A.
//! * [`chronology`] — checks that an event stream is in chronological
//!   order (per-vertex order is checked where memory is written back).
//! * [`sharded`] — the vertex-partitioned neighbor table the streaming
//!   pipeline (`tgnn-serve`) commits batches into.

pub mod batching;
pub mod chronology;
pub mod event;
pub mod graph;
pub mod neighbor_table;
pub mod sampler;
pub mod sharded;

pub use event::{EventBatch, InteractionEvent};
pub use graph::TemporalGraph;
pub use neighbor_table::{NeighborEntry, NeighborTable};
pub use sampler::{FifoSampler, ScanSampler, TemporalSampler};
pub use sharded::{EpochGate, ShardedNeighborTable};

/// Node identifier.  `u32` keeps the vertex tables compact (the paper's
/// datasets have at most a few hundred thousand vertices).
pub type NodeId = u32;

/// Edge identifier indexing into the edge-feature table.
pub type EdgeId = u32;

/// Timestamps are seconds (fractional allowed) since the start of the trace,
/// exactly as in the JODIE datasets the paper uses.
pub type Timestamp = f64;
