//! The batched GNN stage on both backends, bit for bit.
//!
//! `parent_bits.rs` holds served embeddings to cosine ≥ 0.99999 of an older
//! arithmetic order; the pins here are exact.  A change that only moves
//! where the stage keeps its rows must leave every bit of
//! `F32Backend::run_gnn` and `Int8Backend::run_gnn` where it was — for a
//! vertex with no neighbor, one, the pruning budget and the full sample.

use std::collections::HashMap;
use std::sync::Arc;
use tgnn_core::{
    quantize_model, ComputeBackend, F32Backend, GnnJobBatch, Int8Backend, ModelConfig,
    OptimizationVariant, SampledBatch, TgnModel, TimeEncoderKind,
};
use tgnn_graph::{EventBatch, FifoSampler, NodeId, TemporalGraph, TemporalSampler};
use tgnn_quant::QuantConfig;
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

/// Neighbors sampled per vertex.
const K: usize = 10;
/// Events observed before the pinned batch.
const HISTORY: usize = 600;

/// A model of the given rung with an int8 weight set attached, the graph it
/// reads and a random memory table.
fn setup(variant: OptimizationVariant) -> (TgnModel, Arc<TemporalGraph>, Matrix) {
    let graph = Arc::new(tgnn_data::generate(&tgnn_data::DatasetConfig {
        node_feature_dim: 3,
        ..tgnn_data::tiny(31)
    }));
    let mut cfg = ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim());
    cfg.sampled_neighbors = K;
    let cfg = cfg.with_variant(variant);
    let mut rng = TensorRng::new(31);
    let mut model = TgnModel::new(cfg.clone(), &mut rng);
    if cfg.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    let calibration = &graph.events()[..400];
    let q = quantize_model(&model, &graph, &[], calibration, 64, QuantConfig::default());
    model.attach_quantized(Arc::new(q));
    let memory = rng.uniform_matrix(graph.num_nodes(), cfg.memory_dim, -1.0, 1.0);
    (model, graph, memory)
}

/// The job of the `events` after [`HISTORY`], with the `i`-th touched
/// vertex sampling at most `want(i)` neighbors.
fn job(
    model: &TgnModel,
    graph: &Arc<TemporalGraph>,
    memory: &Matrix,
    events: usize,
    want: impl Fn(usize) -> usize,
) -> GnnJobBatch {
    let mut sampler = FifoSampler::new(graph.num_nodes(), K);
    graph.events()[..HISTORY]
        .iter()
        .for_each(|e| sampler.observe(e));
    let batch = EventBatch::new(graph.events()[HISTORY..HISTORY + events].to_vec());
    let mut next = 0;
    let sampled = SampledBatch::assemble(batch, K, model, |v, t, k, out| {
        sampler.sample_into(v, t, want(next).min(k), out);
        next += 1;
    });
    let updated: HashMap<NodeId, Vec<Float>> = HashMap::new();
    GnnJobBatch::gather(&sampled, &updated, graph, &model.config, |v, dst| {
        dst.copy_from_slice(memory.row(v as usize))
    })
}

type Bits = [u32; 8];

fn bits(served: &[(NodeId, Vec<Float>)]) -> Vec<Bits> {
    let row = |e: &Vec<Float>| -> Bits {
        let b: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
        b.try_into().expect("embedding_dim is 8")
    };
    served.iter().map(|(_, e)| row(e)).collect()
}

/// Sampled neighbors of the pinned vertices: none, one, +NP(M)'s budget and
/// the full sample.
const COUNTS: [usize; 4] = [0, 1, 4, K];

/// `(f32, int8)` embeddings of the four vertices, per rung.
const PINS: [(OptimizationVariant, [Bits; 4], [Bits; 4]); 2] = [
    (
        OptimizationVariant::Baseline,
        [
            [
                0xbf227378, 0xbf224434, 0x3d9b9bdf, 0x3ea63b4c, 0x3e08d812, 0x3ef05899, 0xbeaaa68e,
                0xbdbff279,
            ],
            [
                0xbec22c22, 0xbeadc90e, 0x3f21e591, 0xbe9b3724, 0x3e98d316, 0xbf003e08, 0xbf23352a,
                0xbea40035,
            ],
            [
                0xbedc14a1, 0x3fb1dc95, 0x3ee81516, 0xbd980e4f, 0x3f1108c9, 0xbed4306b, 0x3f7b93d4,
                0xbcc7a818,
            ],
            [
                0xbf907e01, 0xbf25418c, 0x3f1e6f2f, 0x3f059021, 0x3eed2d6d, 0x3f1aa326, 0xbea29dbd,
                0xbe2382ff,
            ],
        ],
        [
            [
                0xbf225663, 0xbf2298b4, 0x3d9c9375, 0x3ea565ab, 0x3e071e9d, 0x3eeff0bc, 0xbea8fa3e,
                0xbdcb40b3,
            ],
            [
                0xbeca0f6f, 0xbeaf8fe7, 0x3f219595, 0xbe9a73c2, 0x3e9a04b7, 0xbeffe9d8, 0xbf22d840,
                0xbea6e7ae,
            ],
            [
                0xbedc97af, 0x3fb1ca4d, 0x3ee7f26e, 0xbd903879, 0x3f0fb1ba, 0xbed5e279, 0x3f7be3bb,
                0xbcb34432,
            ],
            [
                0xbf8edd49, 0xbf208f09, 0x3f1b9422, 0x3f084591, 0x3edde224, 0x3f1adf53, 0xbebfe0a7,
                0xbe010ca3,
            ],
        ],
    ),
    (
        OptimizationVariant::NpMedium,
        [
            [
                0x3e64f081, 0x3f1ff974, 0xbe7474a1, 0xbe24b4df, 0x3f4d159a, 0xbf407bff, 0x3e47516e,
                0x3ece71e0,
            ],
            [
                0x3f0672b3, 0x3f529dcb, 0x3ec531a9, 0x3e34142c, 0x3e7f6bd8, 0x3fbf365b, 0x3f8868fd,
                0xbf830b58,
            ],
            [
                0xbd76304b, 0x3dde487f, 0x3f560e57, 0xbb15bf81, 0xbdbb1045, 0x3f7880f8, 0x3fd38ef5,
                0xbf47961a,
            ],
            [
                0xbf3ddfc0, 0xbf69ca00, 0xbf3ad95a, 0xbedabe63, 0xbe4c88b4, 0xbfcf63bf, 0xbeaa3768,
                0x3ed99c38,
            ],
        ],
        [
            [
                0x3e66aa96, 0x3f1f782a, 0xbe742726, 0xbe21aafd, 0x3f4d07b3, 0xbf3fd104, 0x3e4b4eb5,
                0x3ecc1f4c,
            ],
            [
                0x3f07120c, 0x3f512fa5, 0x3ec3089e, 0x3e2e6eb5, 0x3e7aff30, 0x3fbe1637, 0x3f877e48,
                0xbf821be8,
            ],
            [
                0xbd88c62b, 0x3dd42f01, 0x3f554047, 0xbbfd5ef5, 0xbdad2806, 0x3f780734, 0x3fd4d82a,
                0xbf49667c,
            ],
            [
                0xbf3cde14, 0xbf68bf98, 0xbf3b55e6, 0xbedd0d3e, 0xbe48af4a, 0xbfcf559a, 0xbea9c00c,
                0x3ed9724e,
            ],
        ],
    ),
];

#[test]
fn both_backends_serve_the_pinned_bits() {
    let mut failures = Vec::new();
    for (variant, f32_pin, int8_pin) in PINS {
        let (model, graph, memory) = setup(variant);
        assert!(COUNTS.contains(&model.config.neighbor_budget));
        let job = job(&model, &graph, &memory, 2, |i| COUNTS[i]);
        assert_eq!(job.len(), 4, "two events, four distinct endpoints");
        assert_eq!(
            job.workload().neighbors_scored,
            COUNTS.iter().sum::<usize>()
        );
        let mut ws = Workspace::new();
        let f32_bits = bits(&F32Backend::new(&model).run_gnn(&job, &mut ws));
        let int8_bits = bits(&Int8Backend::new(&model).run_gnn(&job, &mut ws));
        if f32_bits != f32_pin || int8_bits != int8_pin {
            failures.push(format!(
                "{variant:?}:\n  f32  {:#010x?}\n  int8 {:#010x?}",
                f32_bits, int8_bits
            ));
        }
    }
    assert!(failures.is_empty(), "moved bits:\n{}", failures.join("\n"));
}

/// The stage keeps a target's neighbor rows in a buffer of `k` rows that
/// the next target reuses, so its largest temporary does not depend on how
/// many neighbors the batch's vertices have: a batch-wide matrix of
/// neighbor rows would grow tenfold here.
#[test]
fn neighbor_staging_does_not_grow_with_the_neighbor_count() {
    for variant in [OptimizationVariant::Baseline, OptimizationVariant::NpMedium] {
        let (model, graph, memory) = setup(variant);
        let one = job(&model, &graph, &memory, 30, |_| 1);
        let full = job(&model, &graph, &memory, 30, |_| K);
        assert_eq!(one.touched(), full.touched());
        let scored = |job: &GnnJobBatch| job.workload().neighbors_scored;
        assert!(scored(&full) > 5 * scored(&one));
        let f32_backend = F32Backend::new(&model);
        let int8_backend = Int8Backend::new(&model);
        let backends: [&dyn ComputeBackend; 2] = [&f32_backend, &int8_backend];
        for backend in backends {
            let high_water = |job: &GnnJobBatch| {
                let mut ws = Workspace::new();
                backend.run_gnn(job, &mut ws);
                ws.largest_pooled()
            };
            assert_eq!(high_water(&one), high_water(&full), "{variant:?}");
        }
    }
}
