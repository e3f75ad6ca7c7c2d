//! Memory-based Temporal GNN (TGN-attn) inference and training — the model
//! side of the paper's model-architecture co-design.
//!
//! The crate implements the full inference pipeline of Algorithm 1 (update
//! vertex memory from cached messages, cache new messages, compute output
//! embeddings, update the neighbor table) for the baseline TGN-attn model and
//! for every optimization ladder rung evaluated in Table II:
//!
//! | Variant | Attention | Time encoder | Neighbor budget |
//! |---|---|---|---|
//! | `Baseline` | vanilla (Eq. 11–15) | cos (Eq. 6) | 10 |
//! | `+SAT` | simplified (Eq. 16) | cos | 10 |
//! | `+LUT` | simplified | 128-entry LUT | 10 |
//! | `+NP(L/M/S)` | simplified | LUT | 6 / 4 / 2 |
//!
//! Modules:
//! * [`config`] — model hyper-parameters and the optimization-variant ladder.
//! * [`memory`] — the node memory table, the mailbox of cached messages, and
//!   the message construction of Eq. 4–5.
//! * [`model`] — the neural model (GRU memory updater + attention aggregator
//!   + feature transformation) with forward and backward passes.
//! * [`inference`] — the batch inference engine (Algorithm 1) with per-stage
//!   profiling and operation counting.
//! * [`stages`] — the stage-level building blocks (sampled batch, memory
//!   stage, owned GNN jobs) shared by the engine and the `tgnn-serve`
//!   streaming pipeline.
//! * [`sharded`] — the vertex-partitioned node memory with per-shard locks
//!   and epoch-barrier commits.
//! * [`complexity`] — MAC / memory-access accounting (Tables I and II).
//! * [`profiling`] — wall-clock stage breakdown (Table I).
//! * [`quantized`] — the int8 fixed-point execution path: activation-range
//!   calibration against the f32 engine, quantized weight sets
//!   ([`QuantizedTgn`]), and `ExecMode::Quantized`.
//! * [`link_prediction`] — the self-supervised temporal link-prediction task,
//!   decoder and Average Precision metric.
//! * [`training`] — self-supervised training loop.
//! * [`distillation`] — knowledge-distillation training of the simplified
//!   students against a vanilla-attention teacher (Eq. 17).
//! * [`apan`] — an APAN-style asynchronous, mailbox-only baseline used for
//!   the accuracy/latency comparison of Fig. 7.
//! * [`tenancy`] — multi-tenant vocabulary shared with `tgnn-serve`:
//!   [`TenantId`], [`OverloadPolicy`], and the per-result deadline
//!   [`Disposition`] metadata.
//! * [`backend`] — pluggable compute backends over the stage entry points:
//!   [`BackendKind`], the [`ComputeBackend`] trait, and the [`F32Backend`] /
//!   [`Int8Backend`] implementations.  The FPGA latency model that times
//!   every batch they compute is `tgnn-hwsim`'s, not a backend.

pub mod apan;
pub mod backend;
pub mod complexity;
pub mod config;
pub mod distillation;
pub mod inference;
pub mod link_prediction;
pub mod memory;
pub mod model;
pub mod profiling;
pub mod quantized;
pub mod sharded;
pub mod stages;
pub mod tenancy;
pub mod training;

pub use backend::{BackendKind, ComputeBackend, F32Backend, Int8Backend, NUM_BACKEND_KINDS};
pub use complexity::{BatchWorkload, OpCounts, StageOps, StageTerms, Term};
pub use config::{AttentionKind, ModelConfig, OptimizationVariant, TimeEncoderKind};
pub use inference::{ExecMode, InferenceEngine, InferenceReport};
pub use link_prediction::LinkDecoder;
pub use memory::{MemoryTable, Message, NodeMemory};
pub use model::TgnModel;
pub use profiling::{Stage, StageTimings};
pub use quantized::{calibrate_activations, quantize_model, QuantizedTgn};
pub use sharded::{MemoryWrites, ShardedMemory};
pub use stages::{GnnJobBatch, SampledBatch, UpdatedMemory, UpdatedRows};
pub use tenancy::{Disposition, OverloadPolicy, ResultMeta, TenantId};
pub use training::{TrainConfig, Trainer};
