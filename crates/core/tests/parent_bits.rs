//! The GNN body against literal embedding bits pinned before it aggregated
//! each vertex's neighbor rows ahead of the attention projections.
//!
//! Aggregating first (`W_v x̄ + (Σw)·b_v` for `Σ_j w_j (W_v x_j + b_v)`, and
//! `(W_kᵀ q)·x_j + q·b_k` for `q·(W_k x_j + b_k)`) is a reassociation of the
//! same sums, so every embedding must stay within rounding of the bits the
//! per-neighbor order served: cosine ≥ 0.99999 per embedding, anything lower
//! is a bug.  Three models — vanilla attention on the cos encoder
//! (Baseline), simplified attention with pruning on the LUT (+NP(M)), and
//! vanilla attention on the LUT — each on a fixed batch through
//! `compute_embeddings_batch` and on a fixed tiny stream through the
//! per-vertex `Serial` engine.

use tgnn_core::model::{EmbeddingJob, NeighborRef};
use tgnn_core::{
    ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, TgnModel, TimeEncoderKind,
};
use tgnn_graph::EventBatch;
use tgnn_tensor::stats::cosine_agreement;
use tgnn_tensor::{Float, TensorRng, Workspace};

/// Per-embedding cosine a reassociation must keep.
const FLOOR: Float = 0.99999;

#[derive(Clone, Copy, Debug)]
enum Model {
    Baseline,
    NpMedium,
    VanillaLut,
}

fn config(model: Model, edge_feature_dim: usize) -> ModelConfig {
    let cfg = ModelConfig::tiny(0, edge_feature_dim);
    match model {
        Model::Baseline => cfg,
        Model::NpMedium => cfg.with_variant(OptimizationVariant::NpMedium),
        Model::VanillaLut => ModelConfig {
            time_encoder: TimeEncoderKind::Lut,
            ..cfg
        },
    }
}

fn build(model: Model, edge_feature_dim: usize, rng: &mut TensorRng) -> TgnModel {
    let cfg = config(model, edge_feature_dim);
    let lut = cfg.time_encoder == TimeEncoderKind::Lut;
    let mut built = TgnModel::new(cfg, rng);
    if lut {
        let samples: Vec<Float> = (0..500).map(|_| rng.pareto(1.0, 1.3).min(1e4)).collect();
        built.calibrate_lut(&samples);
        assert!(built.uses_lut());
    }
    built
}

/// Three vertices with 2, 3 and 4 sampled neighbors, through
/// `compute_embeddings_batch` (for Baseline: the batch, seed and model the
/// Baseline bits test in `model.rs` used before the reorder).
fn batch_embeddings(model: Model) -> Vec<Vec<Float>> {
    let mut rng = TensorRng::new(2024);
    let built = build(model, 4, &mut rng);
    let cfg = built.config.clone();
    type Neighbor = (Vec<Float>, Vec<Float>, Float);
    let batch: Vec<(Vec<Float>, Vec<Neighbor>)> = (0..3)
        .map(|i| {
            let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
            let neighbors = (0..i + 2)
                .map(|j| {
                    let memory = rng.uniform_vec(cfg.memory_dim, -1.0, 1.0);
                    let edge = rng.uniform_vec(cfg.edge_feature_dim, -1.0, 1.0);
                    (memory, edge, 10.0 * (j as Float + 1.0))
                })
                .collect();
            (memory, neighbors)
        })
        .collect();
    let refs: Vec<Vec<NeighborRef<'_>>> = batch
        .iter()
        .map(|(_, nbrs)| {
            nbrs.iter()
                .map(|(memory, edge_feature, delta_t)| NeighborRef {
                    memory,
                    edge_feature,
                    delta_t: *delta_t,
                })
                .collect()
        })
        .collect();
    let jobs: Vec<EmbeddingJob<'_>> = batch
        .iter()
        .zip(&refs)
        .map(|((memory, _), neighbors)| EmbeddingJob {
            memory,
            node_feature: None,
            neighbors,
        })
        .collect();
    let outputs = built.compute_embeddings_batch(&jobs, &mut Workspace::new());
    outputs.into_iter().map(|o| o.embedding).collect()
}

/// A fixed tiny stream through the `Serial` engine: 400 events in batches of
/// 50; the embeddings of the first four vertices of the last batch.
fn serial_embeddings(model: Model) -> Vec<Vec<Float>> {
    let graph = tgnn_data::generate(&tgnn_data::tiny(17));
    let mut rng = TensorRng::new(4048);
    let built = build(model, graph.edge_feature_dim(), &mut rng);
    let mut engine = InferenceEngine::new(built, graph.num_nodes()).with_mode(ExecMode::Serial);
    let mut last = Vec::new();
    for chunk in graph.events()[..400].chunks(50) {
        last = engine
            .process_batch(&EventBatch::new(chunk.to_vec()), &graph)
            .embeddings;
    }
    last.into_iter().take(4).map(|(_, e)| e).collect()
}

type Bits = [u32; 8];

/// `compute_embeddings_batch` of [`batch_embeddings`], per model.
const BATCH: [(Model, [Bits; 3]); 3] = [
    (
        Model::Baseline,
        [
            [
                0x3ec39888, 0x3e78a244, 0x3f141e48, 0xbd135924, 0xbe276b1e, 0x3fcb6b90, 0xbee96a0e,
                0x3eb6e538,
            ],
            [
                0x3f64cfba, 0xbcc3fbb1, 0xbf3e4122, 0x3f3d0a28, 0x3d3fd4e3, 0xbed74411, 0x3e90583f,
                0x3e3e6c29,
            ],
            [
                0x3e43c3d8, 0x3fc76da7, 0xbfcef383, 0xbd7e6767, 0xbf4f7dd5, 0x3f0fbbb2, 0x3da20de2,
                0x3f74dc3f,
            ],
        ],
    ),
    (
        Model::NpMedium,
        [
            [
                0x3e40f33c, 0x3fc15d26, 0xbf3c0542, 0xbf459320, 0xbe076d0a, 0x3e9a004d, 0x3fc60e3a,
                0x3f447f6e,
            ],
            [
                0x3f62abdb, 0xbf8d972f, 0x3f108a43, 0xbea88ff5, 0x3d2e1899, 0xbef9bd97, 0xbf8d6c8c,
                0xbedeb7ff,
            ],
            [
                0xbe029f93, 0x3f030f4d, 0xbfce14dd, 0xbde7c641, 0xbe4cfd36, 0x3f81a3ec, 0xbc6e367c,
                0x3ed870b9,
            ],
        ],
    ),
    (
        Model::VanillaLut,
        [
            [
                0x3f34c6a4, 0x3f54de04, 0xbfbf6630, 0x3f889148, 0x3f8de870, 0xbfbc4db4, 0xbeaa98ec,
                0x3e7361fb,
            ],
            [
                0x3fac281e, 0xbc61fec4, 0x3e39ffa3, 0x3f71da26, 0x3f04faf2, 0x3d02ffc5, 0x3e2e0ea1,
                0x3e82cfba,
            ],
            [
                0x3f8cf403, 0xbe6a6995, 0x3d86bbe8, 0x3f29e8d9, 0xbe68740f, 0x3f9952ab, 0x3dae4932,
                0x3f3d2468,
            ],
        ],
    ),
];

/// The `Serial` stream of [`serial_embeddings`], per model.
const SERIAL: [(Model, [Bits; 4]); 3] = [
    (
        Model::Baseline,
        [
            [
                0xbf01f9d2, 0xbf081f7f, 0x3ea9a418, 0x3e927664, 0xbbd51507, 0x3ed33397, 0xbf7ddbd1,
                0x3fb1f3cc,
            ],
            [
                0x3ebd1108, 0x3de85ed8, 0x3ece3b25, 0xbcf23e2d, 0x3e93dd51, 0x3db7e858, 0xbf2b9e70,
                0x3fa71bbb,
            ],
            [
                0xbecba730, 0x3f04f8a2, 0xbdb0e7b6, 0x3d06724d, 0xbe2e734f, 0x3f9ffba3, 0xbf395520,
                0x3ebe5b7a,
            ],
            [
                0x3eda2752, 0x3f033c47, 0x3f5e1bcf, 0xbdf0d075, 0xbe9b43ec, 0x3e9fd418, 0xbf822ee1,
                0x3ee9590d,
            ],
        ],
    ),
    (
        Model::NpMedium,
        [
            [
                0xbf040691, 0xbeb8348b, 0x3f07d2ed, 0xbf273916, 0x3d6c35b8, 0xbe362024, 0xbed504f2,
                0xbed0e057,
            ],
            [
                0xbf04a160, 0xbef9ff52, 0x3f17b804, 0xbeab3564, 0xbdd41b29, 0xbe7c6dcd, 0xbea64586,
                0xbea46743,
            ],
            [
                0xbd67f972, 0xbe07e3a9, 0x3e270fd9, 0xbddc2b19, 0x3ec13766, 0xbf9e9903, 0xbf09ed93,
                0xbfa0ec26,
            ],
            [
                0xbeff49cb, 0xbea73137, 0x3e973a02, 0xbe7c1195, 0x3e71ba6d, 0xbef74840, 0xbeccac05,
                0xbf005888,
            ],
        ],
    ),
    (
        Model::VanillaLut,
        [
            [
                0x3ea83afb, 0xbc9d1bc5, 0x3e87e3a9, 0xbd54bca3, 0x3de66e44, 0x3f4912d6, 0xbee9a42f,
                0x3fa74ce3,
            ],
            [
                0x3ec2f8c7, 0x3e4f42cf, 0x3e932bf6, 0xbd0b86e9, 0x3e774bbe, 0x3f01bee5, 0xbf348791,
                0x3fc549e6,
            ],
            [
                0x3ee35b34, 0x3f47a57f, 0x3e4a323d, 0x3e43824d, 0x3e1447e3, 0x3f1b0c85, 0xbeb2ee34,
                0x3f69f05a,
            ],
            [
                0x3f059cbd, 0x3f7ff93e, 0x3f19c5e9, 0x3d048b74, 0x3ce29298, 0x3f071c81, 0xbf6c04cb,
                0x3f698cbf,
            ],
        ],
    ),
];

fn assert_tracks(what: &str, served: &[Vec<Float>], pinned: &[Bits]) {
    assert_eq!(served.len(), pinned.len(), "{what}: embedding count");
    for (i, (e, bits)) in served.iter().zip(pinned).enumerate() {
        let parent: Vec<Float> = bits.iter().map(|&b| Float::from_bits(b)).collect();
        let cos = cosine_agreement(e, &parent);
        assert!(
            cos >= FLOOR,
            "{what} embedding {i}: cosine {cos} < {FLOOR} against the pinned bits"
        );
    }
}

#[test]
fn every_batch_embedding_stays_within_rounding_of_the_pinned_bits() {
    for (model, pinned) in BATCH {
        assert_tracks(
            &format!("{model:?} batch"),
            &batch_embeddings(model),
            &pinned,
        );
    }
}

#[test]
fn every_serial_embedding_stays_within_rounding_of_the_pinned_bits() {
    for (model, pinned) in SERIAL {
        assert_tracks(
            &format!("{model:?} serial"),
            &serial_embeddings(model),
            &pinned,
        );
    }
}
