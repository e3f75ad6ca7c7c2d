//! Self-supervised training of memory-based TGNNs on the temporal
//! link-prediction task.
//!
//! The protocol follows TGN (and the paper's Section II): the model is
//! trained to rank observed temporal edges above randomly sampled negative
//! edges using the embeddings it produces while streaming chronologically
//! through the training split.  Gradients flow through the current batch's
//! memory update (GRU), the attention aggregator, the feature transformation
//! and the decoder; the node memory read from the global table is treated as
//! a constant (no backpropagation across batches).

use crate::config::ModelConfig;
use crate::inference::InferenceEngine;
use crate::link_prediction::{evaluate_link_prediction, EvaluationResult, LinkDecoder};
use crate::memory::NodeMemory;
use crate::model::{NeighborContext, TgnModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tgnn_graph::{EventBatch, FifoSampler, NodeId, TemporalGraph, TemporalSampler};
use tgnn_nn::loss::bce_with_logits;
use tgnn_nn::optim::Adam;
use tgnn_tensor::{Float, Matrix, TensorRng};

/// Training hyper-parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Events per training batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: Float,
    /// Decoder hidden dimensionality.
    pub decoder_hidden: usize,
    /// RNG seed for negative sampling and decoder initialisation.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 64,
            learning_rate: 1e-3,
            decoder_hidden: 32,
            seed: 1234,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    pub epoch: usize,
    pub mean_loss: Float,
    pub batches: usize,
}

/// A trained model bundle: model + decoder + training history.
#[derive(Debug)]
pub struct TrainedModel {
    pub model: TgnModel,
    pub decoder: LinkDecoder,
    pub history: Vec<EpochStats>,
}

/// Self-supervised trainer.
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Trains a fresh model of the given configuration on the graph's
    /// training split and returns the trained bundle.
    pub fn train(&self, model_config: &ModelConfig, graph: &TemporalGraph) -> TrainedModel {
        let mut rng = TensorRng::new(self.config.seed);
        let mut model = TgnModel::new(model_config.clone(), &mut rng);
        if model.config.time_encoder == crate::config::TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        let decoder = LinkDecoder::new(
            model_config.embedding_dim,
            self.config.decoder_hidden,
            &mut rng,
        );
        self.train_model(model, decoder, graph)
    }

    /// Trains an existing model/decoder pair (used by the distillation
    /// trainer which pre-initialises the student from the teacher).
    pub fn train_model(
        &self,
        mut model: TgnModel,
        mut decoder: LinkDecoder,
        graph: &TemporalGraph,
    ) -> TrainedModel {
        let mut rng = TensorRng::new(self.config.seed ^ 0x5eed);
        let mut optimizer = Adam::new(self.config.learning_rate);
        let mut history = Vec::new();

        for epoch in 0..self.config.epochs {
            let mut state = StreamState::new(graph.num_nodes(), &model.config);
            let mut total_loss = 0.0;
            let mut batches = 0usize;

            for chunk in graph.train_events().chunks(self.config.batch_size) {
                let batch = EventBatch::new(chunk.to_vec());
                let examples = state.prepare_examples(&batch, graph, &model, &mut rng);
                if !examples.is_empty() {
                    let loss = train_step(&mut model, &mut decoder, &examples, &mut optimizer);
                    total_loss += loss;
                    batches += 1;
                }
                state.commit(&batch, graph, &model);
            }

            history.push(EpochStats {
                epoch,
                mean_loss: if batches == 0 {
                    0.0
                } else {
                    total_loss / batches as Float
                },
                batches,
            });
        }

        TrainedModel {
            model,
            decoder,
            history,
        }
    }

    /// Evaluates a trained bundle on the graph's test split, after warming up
    /// on train+validation (as in the paper's protocol).
    pub fn evaluate(
        &self,
        bundle: &TrainedModel,
        graph: &TemporalGraph,
        batch_size: usize,
    ) -> EvaluationResult {
        let mut rng = TensorRng::new(self.config.seed ^ 0xea1);
        let mut engine = InferenceEngine::new(bundle.model.clone(), graph.num_nodes());
        engine.warm_up(graph.train_events(), graph);
        engine.warm_up(graph.val_events(), graph);
        evaluate_link_prediction(
            &mut engine,
            &bundle.decoder,
            graph.test_events(),
            graph,
            batch_size,
            &mut rng,
        )
    }
}

/// One training example: a positive temporal edge plus a negative
/// destination, with everything the model needs to recompute embeddings.
#[derive(Clone, Debug)]
pub struct TrainingExample {
    /// Source vertex message/memory inputs.
    pub src: VertexInputs,
    /// Destination vertex inputs.
    pub dst: VertexInputs,
    /// Negative-destination vertex inputs.
    pub neg: VertexInputs,
}

/// The inputs needed to compute one vertex's updated memory and embedding.
#[derive(Clone, Debug)]
pub struct VertexInputs {
    pub vertex: NodeId,
    /// Assembled message vector (empty if the vertex has no pending message).
    pub message: Vec<Float>,
    /// Memory before the update.
    pub prev_memory: Vec<Float>,
    /// Static node feature (empty when the model has none).
    pub node_feature: Vec<Float>,
    /// Sampled temporal neighbor contexts.
    pub neighbors: Vec<NeighborContext>,
}

/// Streaming state maintained during training (a light-weight version of the
/// inference engine that exposes raw inputs for gradient computation).
pub(crate) struct StreamState {
    memory: NodeMemory,
    sampler: FifoSampler,
}

impl StreamState {
    pub(crate) fn new(num_nodes: usize, config: &ModelConfig) -> Self {
        Self {
            memory: NodeMemory::for_config(num_nodes, config),
            sampler: FifoSampler::new(num_nodes, config.sampled_neighbors),
        }
    }

    /// Builds training examples for a batch without mutating state.
    pub(crate) fn prepare_examples(
        &self,
        batch: &EventBatch,
        graph: &TemporalGraph,
        model: &TgnModel,
        rng: &mut TensorRng,
    ) -> Vec<TrainingExample> {
        let mut out = Vec::new();
        let num_nodes = graph.num_nodes() as u32;
        for e in batch.events() {
            let neg_vertex = loop {
                let candidate = rng.index(num_nodes as usize) as u32;
                if candidate != e.dst {
                    break candidate;
                }
            };
            out.push(TrainingExample {
                src: self.vertex_inputs(e.src, e.timestamp, graph, model),
                dst: self.vertex_inputs(e.dst, e.timestamp, graph, model),
                neg: self.vertex_inputs(neg_vertex, e.timestamp, graph, model),
            });
        }
        out
    }

    fn vertex_inputs(
        &self,
        v: NodeId,
        query_time: f64,
        graph: &TemporalGraph,
        model: &TgnModel,
    ) -> VertexInputs {
        let cfg = &model.config;
        let prev_memory = self.memory.memory_of(v).to_vec();
        let message = match self.memory.cached_message(v) {
            Some(msg) => {
                let dt = (msg.event_time - self.memory.last_update(v)).max(0.0) as Float;
                let enc = model.encode_time(&[dt]);
                msg.assemble(graph.edge_feature(msg.edge_id), enc.row(0))
            }
            None => Vec::new(),
        };
        let node_feature = if cfg.node_feature_dim > 0 {
            graph.node_feature(v).to_vec()
        } else {
            Vec::new()
        };
        let neighbors = self
            .sampler
            .sample(v, query_time, cfg.sampled_neighbors)
            .into_iter()
            .map(|entry| NeighborContext {
                memory: self.memory.memory_of(entry.neighbor).to_vec(),
                edge_feature: graph.edge_feature(entry.edge_id).to_vec(),
                delta_t: (query_time - entry.timestamp).max(0.0) as Float,
            })
            .collect();
        VertexInputs {
            vertex: v,
            message,
            prev_memory,
            node_feature,
            neighbors,
        }
    }

    /// Commits a batch to the streaming state (memory update with the
    /// *current* model, message caching, neighbor-table update).
    pub(crate) fn commit(&mut self, batch: &EventBatch, graph: &TemporalGraph, model: &TgnModel) {
        let touched = batch.touched_vertices();
        let mut latest: HashMap<NodeId, f64> = HashMap::new();
        for e in batch.events() {
            for v in e.endpoints() {
                let entry = latest.entry(v).or_insert(e.timestamp);
                if e.timestamp > *entry {
                    *entry = e.timestamp;
                }
            }
        }
        for &v in &touched {
            if let Some(msg) = self.memory.take_message(v).cloned() {
                let dt = (msg.event_time - self.memory.last_update(v)).max(0.0) as Float;
                let enc = model.encode_time(&[dt]);
                let assembled = msg.assemble(graph.edge_feature(msg.edge_id), enc.row(0));
                let messages = Matrix::row_vector(&assembled);
                let memories = Matrix::row_vector(self.memory.memory_of(v));
                let updated = model.update_memory(&messages, &memories);
                self.memory.set_memory(v, updated.row(0), latest[&v]);
            }
        }
        for e in batch.events() {
            self.memory
                .cache_interaction_messages(e.src, e.dst, e.edge_id, e.timestamp);
            self.sampler.observe(e);
        }
    }
}

/// Computes the embedding of one vertex from raw [`VertexInputs`] (memory
/// update included when a message is pending), returning the caches needed
/// for backward.
pub(crate) struct ForwardPass {
    pub(crate) embedding: Vec<Float>,
    gru_cache: Option<(Matrix, Matrix, tgnn_nn::gru::GruCache)>,
    emb_cache: crate::model::EmbeddingCache,
}

pub(crate) fn forward_vertex(model: &TgnModel, inputs: &VertexInputs) -> ForwardPass {
    let cfg = &model.config;
    let (memory, gru_cache) = if inputs.message.is_empty() {
        (inputs.prev_memory.clone(), None)
    } else {
        let messages = Matrix::row_vector(&inputs.message);
        let memories = Matrix::row_vector(&inputs.prev_memory);
        let (updated, cache) = model.update_memory_cached(&messages, &memories);
        (updated.row_to_vec(0), Some((messages, memories, cache)))
    };
    let node_feature = if cfg.node_feature_dim > 0 {
        Some(inputs.node_feature.as_slice())
    } else {
        None
    };
    let (out, emb_cache) = model.compute_embedding_cached(&memory, node_feature, &inputs.neighbors);
    ForwardPass {
        embedding: out.embedding,
        gru_cache,
        emb_cache,
    }
}

pub(crate) fn backward_vertex(model: &mut TgnModel, pass: &ForwardPass, grad_embedding: &[Float]) {
    let grad_memory = model.backward_embedding(&pass.emb_cache, grad_embedding);
    if let Some((messages, memories, cache)) = &pass.gru_cache {
        let grad_new_hidden = Matrix::row_vector(&grad_memory);
        let (_grad_msg, _grad_prev) = model.gru.backward(cache, &grad_new_hidden);
        let _ = (messages, memories);
    }
}

/// One optimisation step over a batch of training examples.  Returns the
/// batch loss.
pub(crate) fn train_step(
    model: &mut TgnModel,
    decoder: &mut LinkDecoder,
    examples: &[TrainingExample],
    optimizer: &mut Adam,
) -> Float {
    let mut logits = Vec::with_capacity(2 * examples.len());
    let mut targets = Vec::with_capacity(2 * examples.len());
    let mut passes = Vec::with_capacity(examples.len());

    for ex in examples {
        let src_pass = forward_vertex(model, &ex.src);
        let dst_pass = forward_vertex(model, &ex.dst);
        let neg_pass = forward_vertex(model, &ex.neg);
        let (pos_score, pos_cache) = decoder.score_cached(&src_pass.embedding, &dst_pass.embedding);
        let (neg_score, neg_cache) = decoder.score_cached(&src_pass.embedding, &neg_pass.embedding);
        logits.push(pos_score);
        targets.push(1.0);
        logits.push(neg_score);
        targets.push(0.0);
        passes.push((src_pass, dst_pass, neg_pass, pos_cache, neg_cache));
    }

    let (loss, grad_logits) = bce_with_logits(&logits, &targets);

    for (i, (src_pass, dst_pass, neg_pass, pos_cache, neg_cache)) in passes.iter().enumerate() {
        let grad_pos = grad_logits[2 * i];
        let grad_neg = grad_logits[2 * i + 1];
        let (g_src_pos, g_dst) = decoder.backward(pos_cache, grad_pos);
        let (g_src_neg, g_neg) = decoder.backward(neg_cache, grad_neg);
        let g_src: Vec<Float> = g_src_pos
            .iter()
            .zip(&g_src_neg)
            .map(|(&a, &b)| a + b)
            .collect();
        backward_vertex(model, src_pass, &g_src);
        backward_vertex(model, dst_pass, &g_dst);
        backward_vertex(model, neg_pass, &g_neg);
    }

    let mut params = model.params_mut();
    params.extend(decoder.params_mut());
    optimizer.step(&mut params);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, OptimizationVariant};
    use tgnn_data::{generate, tiny};

    fn tiny_train_config() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 40,
            learning_rate: 5e-3,
            decoder_hidden: 16,
            seed: 3,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let graph = generate(&tiny(31));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
        let trainer = Trainer::new(tiny_train_config());
        let bundle = trainer.train(&cfg, &graph);
        assert_eq!(bundle.history.len(), 2);
        let first = bundle.history.first().unwrap().mean_loss;
        let last = bundle.history.last().unwrap().mean_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn trained_model_beats_untrained_on_ap() {
        let graph = generate(&tiny(37));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            ..tiny_train_config()
        });

        // Untrained reference.
        let mut rng = TensorRng::new(9);
        let untrained = TrainedModel {
            model: TgnModel::new(cfg.clone(), &mut rng),
            decoder: LinkDecoder::new(cfg.embedding_dim, 16, &mut rng),
            history: Vec::new(),
        };
        let untrained_ap = trainer.evaluate(&untrained, &graph, 32).average_precision;

        let bundle = trainer.train(&cfg, &graph);
        let trained_ap = trainer.evaluate(&bundle, &graph, 32).average_precision;
        assert!(
            trained_ap > untrained_ap - 0.02,
            "training made AP collapse: {untrained_ap} -> {trained_ap}"
        );
        assert!(
            trained_ap > 0.5,
            "trained AP should beat random ranking: {trained_ap}"
        );
    }

    #[test]
    fn simplified_variant_trains_too() {
        let graph = generate(&tiny(41));
        let cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(OptimizationVariant::NpMedium);
        let trainer = Trainer::new(tiny_train_config());
        let bundle = trainer.train(&cfg, &graph);
        assert!(bundle.history.iter().all(|h| h.mean_loss.is_finite()));
        let result = trainer.evaluate(&bundle, &graph, 32);
        assert!((0.0..=1.0).contains(&result.average_precision));
    }
}
