//! Correctness: what the server delivered must be, bit for bit, what the
//! single-threaded reference engine computes on the same batch sequence.

use crate::drive::Inputs;
use tgnn_core::{BackendKind, ExecMode, InferenceEngine};
use tgnn_graph::EventBatch;
use tgnn_serve::ServedBatch;

pub struct Identity {
    pub batches: usize,
    pub events: usize,
    pub embeddings: usize,
    pub int8_batches: usize,
}

/// Replays `served` batch by batch through `InferenceEngine` —
/// `ExecMode::Serial` is the reference for f32-served batches,
/// `ExecMode::Quantized` for int8-served ones — and compares every
/// embedding bitwise.  Both engines advance on every batch: their memory
/// paths are the same f32 kernels (the int8 weight set leaves the GRU
/// unquantized), so the shared state trajectory stays in lockstep.
pub fn replay_identity(inputs: &Inputs, served: &[ServedBatch]) -> Result<Identity, String> {
    let nodes = inputs.graph.num_nodes();
    let mut f32_model = inputs.model.clone();
    f32_model.detach_quantized();
    let mut f32_engine = InferenceEngine::new(f32_model, nodes).with_mode(ExecMode::Serial);
    let mut int8_engine = inputs
        .model
        .is_quantized()
        .then(|| InferenceEngine::new(inputs.model.clone(), nodes).with_mode(ExecMode::Quantized));
    let mut id = Identity {
        batches: 0,
        events: 0,
        embeddings: 0,
        int8_batches: 0,
    };
    for batch in served {
        let events = EventBatch::new(batch.events.clone());
        let f32_out = f32_engine.process_batch(&events, &inputs.graph);
        let int8_out = int8_engine
            .as_mut()
            .map(|e| e.process_batch(&events, &inputs.graph));
        let reference = match (batch.backend, int8_out) {
            (BackendKind::Int8, Some(out)) => {
                id.int8_batches += 1;
                out.embeddings
            }
            (BackendKind::Int8, None) => {
                return Err(format!(
                    "epoch {} was served on int8 without an int8 weight set",
                    batch.epoch
                ))
            }
            _ => f32_out.embeddings,
        };
        if reference != batch.embeddings {
            return Err(format!(
                "epoch {} ({} events, backend {}) diverged bitwise from the reference engine",
                batch.epoch,
                batch.events.len(),
                batch.backend
            ));
        }
        id.batches += 1;
        id.events += batch.events.len();
        id.embeddings += batch.embeddings.len();
    }
    Ok(id)
}
