//! Cycle-approximate simulator of the paper's FPGA accelerator, plus the
//! analytical performance model (Section V) and calibrated CPU/GPU baseline
//! cost models.
//!
//! The physical FPGAs (Xilinx Alveo U200 and ZCU104) are not available in
//! this environment, so the architecture of Section IV is reproduced as a
//! simulator that is parameterised by exactly the quantities the paper's own
//! performance model uses: the design configuration (number of Computation
//! Units, MAC-array sizes `Sg×Sg`, FAM/FTM parallelism, processing-batch size
//! `Nb`, clock frequency) and the external-memory characteristics (peak DDR
//! bandwidth and the burst-efficiency factor `α(l)`).  DESIGN.md documents
//! why this substitution preserves the behaviour the evaluation depends on.
//!
//! * [`device`] — FPGA/CPU/GPU platform specifications (Table III).
//! * [`ddr`] — the external-memory model `α(l)·BW`.
//! * [`design`] — accelerator design configurations and the resource /
//!   multi-die model (Table IV).
//! * [`updater`] — the Updater: a fully-associative cache with rotating
//!   write/commit pointers that guarantees chronological vertex updates and
//!   squashes redundant writes (Fig. 3).
//! * [`pipeline`] — the 9-stage task schedule (Fig. 4): each stage's
//!   MACs and words from `tgnn_core::StageTerms` (the counts Table I
//!   groups) divided by the design's parallelism, clock and DDR bandwidth,
//!   batching, prefetching, and the pipelined execution across processing
//!   batches, timed from a [`BatchWorkload`](tgnn_core::BatchWorkload).
//! * [`perf_model`] — the closed-form performance model (Eq. 18–22), timed
//!   at the nominal workload of one processing batch.
//! * [`accelerator`] — the full accelerator simulation: functional results
//!   identical to the software reference engine, timing from the pipeline
//!   model on the workload the engine recorded for each batch.
//! * [`baseline`] — CPU (1 and 32 threads) and GPU cost models calibrated on
//!   the paper's Table I measurements, used for the cross-platform
//!   comparisons of Fig. 5–7.
//! * [`backend`] — [`HwSimBackend`]: the U200 latency model of one served
//!   GNN job, which the serving layer records beside every batch it
//!   computes (a gauge, not a compute backend).

pub mod accelerator;
pub mod backend;
pub mod baseline;
pub mod ddr;
pub mod design;
pub mod device;
pub mod perf_model;
pub mod pipeline;
pub mod updater;

pub use accelerator::{AcceleratorSim, SimulatedBatch, SimulatedStreamReport};
pub use backend::HwSimBackend;
pub use baseline::{BaselinePlatform, BaselineSimulator};
pub use ddr::DdrModel;
pub use design::{DesignConfig, ResourceUsage};
pub use device::{FpgaDevice, PlatformSpec};
pub use perf_model::PerformanceModel;
pub use updater::Updater;
