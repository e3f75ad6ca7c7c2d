//! Pluggable compute backends over the stage entry points.
//!
//! The engine hard-wires one arithmetic path per
//! [`ExecMode`](crate::ExecMode); the paper's co-design argument, however,
//! is about *heterogeneous datapaths* — the same model served from an f32
//! path or an int8 fixed-point path, chosen per workload.
//! [`ComputeBackend`] is the seam that makes the choice pluggable: a
//! backend owns a *prepared* weight set and computes the GNN stage on it,
//! so a scheduler (the `tgnn-serve` streaming pipeline) can route different
//! tenants' batches to different backends while sharing one
//! temporal-state trajectory.  There are two, and both compute: the FPGA
//! pipeline model (`tgnn-hwsim`) is not a backend — it predicts what the
//! accelerator would take for a batch, and the server records that beside
//! every batch either backend computes.
//!
//! The contract every backend honours:
//!
//! * **A backend is [`model`](ComputeBackend::model) and
//!   [`run_gnn`](ComputeBackend::run_gnn).**  Sampling, the memory stage
//!   and the state write-back are not backend stages: the temporal state
//!   (vertex memory, mailbox, neighbor table) is one trajectory regardless
//!   of who computes embeddings, and its owner — the serving pipeline's
//!   state worker, or an [`InferenceEngine`](crate::InferenceEngine) —
//!   runs them on one shared model through [`crate::stages`].
//! * **GNN compute is the backend-specific stage.**
//!   [`ComputeBackend::run_gnn`] runs the gathered [`GnnJobBatch`] on the
//!   backend's prepared weights.  [`F32Backend`] and [`Int8Backend`]
//!   execute the exact kernels of `ExecMode::Batched` and
//!   `ExecMode::Quantized` respectively, so a stream routed through either
//!   is bit-identical to the corresponding standalone engine (the
//!   backend-equivalence matrix in `tgnn-serve/tests/backends.rs` pins
//!   this).

use crate::model::TgnModel;
use crate::stages::GnnJobBatch;
use std::sync::Arc;
use tgnn_graph::NodeId;
use tgnn_tensor::{Float, Workspace};

/// Which compute backend serves a batch — carried on every result's
/// [`ResultMeta`](crate::tenancy::ResultMeta) so clients can audit the
/// routing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// The f32 batched path (`ExecMode::Batched` kernels).
    #[default]
    F32,
    /// The int8 fixed-point path (`ExecMode::Quantized` kernels; requires
    /// an attached [`QuantizedTgn`](crate::QuantizedTgn) weight set).
    Int8,
}

/// Number of backend kinds (the size of a `code()`-indexed table).
pub const NUM_BACKEND_KINDS: usize = 2;

impl BackendKind {
    /// All kinds, in `code()` order.
    pub const ALL: [BackendKind; NUM_BACKEND_KINDS] = [BackendKind::F32, BackendKind::Int8];

    /// Stable lower-case label, used in reports and the bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::F32 => "f32",
            BackendKind::Int8 => "int8",
        }
    }

    /// Dense index for `code()`-indexed tables (0, 1).
    pub fn code(self) -> usize {
        match self {
            BackendKind::F32 => 0,
            BackendKind::Int8 => 1,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A prepared compute backend: owned weights plus the GNN compute stage.
///
/// Implementations must be cheap to share (`Send + Sync`) — the serving
/// pipeline's GNN worker and its recovery path hold the same
/// `Arc<dyn ComputeBackend>`.
pub trait ComputeBackend: Send + Sync {
    /// The prepared weight set [`Self::run_gnn`] runs on.
    fn model(&self) -> &Arc<TgnModel>;

    /// The backend-specific GNN compute stage: runs the gathered job on the
    /// prepared weights and returns `(vertex, embedding)` in the job's
    /// touched order — exactly what `GnnJobBatch::run` produces on
    /// [`Self::model`].
    fn run_gnn(&self, job: &GnnJobBatch, ws: &mut Workspace) -> Vec<(NodeId, Vec<Float>)> {
        job.run(self.model(), ws)
    }
}

/// Today's batched f32 path as a backend (`ExecMode::Batched` kernels).
pub struct F32Backend {
    model: Arc<TgnModel>,
}

impl F32Backend {
    /// Prepares the backend from `model`, detaching any int8 weight set so
    /// the batched entry points stay on the f32 kernels.
    pub fn new(model: &TgnModel) -> Self {
        let mut m = model.clone();
        m.detach_quantized();
        Self { model: Arc::new(m) }
    }
}

impl ComputeBackend for F32Backend {
    fn model(&self) -> &Arc<TgnModel> {
        &self.model
    }
}

/// The int8 fixed-point path as a backend (`ExecMode::Quantized` kernels).
pub struct Int8Backend {
    model: Arc<TgnModel>,
}

impl Int8Backend {
    /// Prepares the backend from `model`, which must carry an attached
    /// [`QuantizedTgn`](crate::QuantizedTgn) weight set
    /// (see [`quantize_model`](crate::quantize_model)).
    ///
    /// # Panics
    /// Panics if no int8 weight set is attached.
    pub fn new(model: &TgnModel) -> Self {
        assert!(
            model.is_quantized(),
            "Int8Backend requires an attached int8 weight set \
             (quantize_model + TgnModel::attach_quantized)"
        );
        Self {
            model: Arc::new(model.clone()),
        }
    }
}

impl ComputeBackend for Int8Backend {
    fn model(&self) -> &Arc<TgnModel> {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use tgnn_tensor::TensorRng;

    #[test]
    fn backend_kind_codes_index_all_in_order() {
        for (i, k) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(k.code(), i);
        }
        assert_eq!(BackendKind::default(), BackendKind::F32);
    }

    #[test]
    fn f32_backend_detaches_quantized_weights() {
        let cfg = ModelConfig::tiny(3, 2);
        let model = TgnModel::new(cfg, &mut TensorRng::new(7));
        let b = F32Backend::new(&model);
        assert!(!b.model().is_quantized());
    }

    #[test]
    #[should_panic(expected = "Int8Backend requires an attached int8 weight set")]
    fn int8_backend_rejects_unquantized_models() {
        let cfg = ModelConfig::tiny(3, 2);
        let model = TgnModel::new(cfg, &mut TensorRng::new(7));
        let _ = Int8Backend::new(&model);
    }
}
