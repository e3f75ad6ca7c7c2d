//! The engine's operation counts (Tables I–II) against literal values
//! pinned when the engine still counted MACs and MEMs vertex by vertex as it
//! ran, before it recorded a workload and priced it with one formula.
//!
//! Every rung of the optimization ladder, on an edge-feature graph
//! (Wikipedia-like) and a node-feature graph (GDELT-like), in `Serial` and
//! `Batched` mode: a 300-event warm-up (two 256-event chunks), then 240
//! events in batches of 30.
//! Both `engine.ops()` (warm-up included) and the stream report's `ops`
//! (the 240 events only) must match the pins to the operation, and so must
//! the closed-form `per_embedding_ops` of Tables I–II on every rung and
//! three feature shapes.  The file uses no API younger than the pins, so it
//! runs on the commit that counted the old way too.

use tgnn_core::complexity::per_embedding_ops;
use tgnn_core::{
    ExecMode, InferenceEngine, ModelConfig, OptimizationVariant, StageOps, TgnModel,
    TimeEncoderKind,
};
use tgnn_data::DatasetConfig;
use tgnn_graph::TemporalGraph;
use tgnn_tensor::TensorRng;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Features {
    /// Eight edge-feature words per event, no node features.
    Edge,
    /// Six node-feature words per vertex, no edge features.
    Node,
}

fn graph(features: Features) -> TemporalGraph {
    let tiny = tgnn_data::tiny(17);
    let config = match features {
        Features::Edge => tiny,
        Features::Node => DatasetConfig {
            node_feature_dim: 6,
            edge_feature_dim: 0,
            ..tiny
        },
    };
    tgnn_data::generate(&config)
}

/// A tiny model sampling 10 neighbors, so NP(L/M/S) keep 6, 4 and 2.
fn model(graph: &TemporalGraph, rung: OptimizationVariant) -> TgnModel {
    let cfg = ModelConfig {
        sampled_neighbors: 10,
        ..ModelConfig::tiny(graph.node_feature_dim(), graph.edge_feature_dim())
    }
    .with_variant(rung);
    let mut model = TgnModel::new(cfg, &mut TensorRng::new(3));
    if model.config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    model
}

/// `(engine.ops(), report.ops)` after the fixed stream.
fn run(graph: &TemporalGraph, rung: OptimizationVariant, mode: ExecMode) -> (StageOps, StageOps) {
    let mut engine = InferenceEngine::new(model(graph, rung), graph.num_nodes()).with_mode(mode);
    engine.warm_up(&graph.events()[..300], graph);
    let report = engine.run_stream(&graph.events()[300..540], graph, 30);
    (engine.ops(), report.ops)
}

/// Per stage (sample, memory, GNN, update): `[macs, mems]`.
type Pin = [[u64; 2]; 4];

fn pin(ops: StageOps) -> Pin {
    [ops.sample, ops.memory, ops.gnn, ops.update].map(|s| [s.macs, s.mems])
}

/// `(engine.ops(), report.ops)` per graph and rung, as the engine counted
/// them before this file's first commit.
const PINS: [(Features, OptimizationVariant, Pin, Pin); 12] = {
    use Features::{Edge, Node};
    use OptimizationVariant::*;
    [
        (
            Edge,
            Baseline,
            [[0, 4788], [218988, 9006], [656640, 25536], [0, 37536]],
            [[0, 4788], [192192, 7904], [656640, 25536], [0, 17504]],
        ),
        (
            Edge,
            Sat,
            [[0, 4788], [218988, 9006], [360468, 25536], [0, 37536]],
            [[0, 4788], [192192, 7904], [360468, 25536], [0, 17504]],
        ),
        (
            Edge,
            SatLut,
            [[0, 4788], [216144, 9006], [341316, 25536], [0, 37536]],
            [[0, 4788], [189696, 7904], [341316, 25536], [0, 17504]],
        ),
        (
            Edge,
            NpLarge,
            [[0, 4788], [216144, 9006], [247292, 17360], [0, 37536]],
            [[0, 4788], [189696, 7904], [247292, 17360], [0, 17504]],
        ),
        (
            Edge,
            NpMedium,
            [[0, 4788], [216144, 9006], [190252, 12400], [0, 37536]],
            [[0, 4788], [189696, 7904], [190252, 12400], [0, 17504]],
        ),
        (
            Edge,
            NpSmall,
            [[0, 4788], [216144, 9006], [123092, 6560], [0, 37536]],
            [[0, 4788], [189696, 7904], [123092, 6560], [0, 17504]],
        ),
        (
            Node,
            Baseline,
            [[0, 4788], [173484, 7110], [462384, 14022], [0, 28896]],
            [[0, 4788], [152256, 6240], [462384, 14022], [0, 13664]],
        ),
        (
            Node,
            Sat,
            [[0, 4788], [173484, 7110], [268356, 14022], [0, 28896]],
            [[0, 4788], [152256, 6240], [268356, 14022], [0, 13664]],
        ),
        (
            Node,
            SatLut,
            [[0, 4788], [170640, 7110], [249204, 14022], [0, 28896]],
            [[0, 4788], [149760, 6240], [249204, 14022], [0, 13664]],
        ),
        (
            Node,
            NpLarge,
            [[0, 4788], [170640, 7110], [187884, 9934], [0, 28896]],
            [[0, 4788], [149760, 6240], [187884, 9934], [0, 13664]],
        ),
        (
            Node,
            NpMedium,
            [[0, 4788], [170640, 7110], [150684, 7454], [0, 28896]],
            [[0, 4788], [149760, 6240], [150684, 7454], [0, 13664]],
        ),
        (
            Node,
            NpSmall,
            [[0, 4788], [170640, 7110], [106884, 4534], [0, 28896]],
            [[0, 4788], [149760, 6240], [106884, 4534], [0, 13664]],
        ),
    ]
};

#[test]
fn engine_and_report_ops_match_the_pins_on_every_rung_graph_and_mode() {
    for features in [Features::Edge, Features::Node] {
        let graph = graph(features);
        for (_, rung, engine, report) in PINS.into_iter().filter(|p| p.0 == features) {
            for mode in [ExecMode::Serial, ExecMode::Batched] {
                let (e, r) = run(&graph, rung, mode);
                assert_eq!(
                    pin(e),
                    engine,
                    "{features:?} {rung:?} {mode:?}: engine.ops()"
                );
                assert_eq!(pin(r), report, "{features:?} {rung:?} {mode:?}: report.ops");
            }
        }
    }
}

/// [`per_embedding_ops`] per `(node, edge)` feature shape and rung, as
/// written before it became half of one nominal edge's operation count.
const PER_EMBEDDING: [((usize, usize), OptimizationVariant, Pin); 18] = {
    use OptimizationVariant::*;
    [
        (
            (0, 172),
            Baseline,
            [[0, 30], [171800, 572], [788000, 2720], [0, 575]],
        ),
        (
            (0, 172),
            Sat,
            [[0, 30], [171800, 572], [395100, 2720], [0, 575]],
        ),
        (
            (0, 172),
            SatLut,
            [[0, 30], [171600, 572], [393100, 2720], [0, 575]],
        ),
        (
            (0, 172),
            NpLarge,
            [[0, 30], [171600, 572], [243900, 1632], [0, 575]],
        ),
        (
            (0, 172),
            NpMedium,
            [[0, 30], [171600, 572], [169300, 1088], [0, 575]],
        ),
        (
            (0, 172),
            NpSmall,
            [[0, 30], [171600, 572], [94700, 544], [0, 575]],
        ),
        (
            (200, 0),
            Baseline,
            [[0, 30], [120200, 400], [464000, 1200], [0, 403]],
        ),
        (
            (200, 0),
            Sat,
            [[0, 30], [120200, 400], [243100, 1200], [0, 403]],
        ),
        (
            (200, 0),
            SatLut,
            [[0, 30], [120000, 400], [241100, 1200], [0, 403]],
        ),
        (
            (200, 0),
            NpLarge,
            [[0, 30], [120000, 400], [160700, 800], [0, 403]],
        ),
        (
            (200, 0),
            NpMedium,
            [[0, 30], [120000, 400], [120500, 600], [0, 403]],
        ),
        (
            (200, 0),
            NpSmall,
            [[0, 30], [120000, 400], [80300, 400], [0, 403]],
        ),
        (
            (100, 16),
            Baseline,
            [[0, 30], [125000, 416], [486000, 1260], [0, 419]],
        ),
        (
            (100, 16),
            Sat,
            [[0, 30], [125000, 416], [249100, 1260], [0, 419]],
        ),
        (
            (100, 16),
            SatLut,
            [[0, 30], [124800, 416], [247100, 1260], [0, 419]],
        ),
        (
            (100, 16),
            NpLarge,
            [[0, 30], [124800, 416], [160300, 796], [0, 419]],
        ),
        (
            (100, 16),
            NpMedium,
            [[0, 30], [124800, 416], [116900, 564], [0, 419]],
        ),
        (
            (100, 16),
            NpSmall,
            [[0, 30], [124800, 416], [73500, 332], [0, 419]],
        ),
    ]
};

#[test]
fn per_embedding_ops_match_the_pins_on_every_rung_and_feature_shape() {
    for ((node, edge), rung, pinned) in PER_EMBEDDING {
        let cfg = ModelConfig::paper_default(node, edge).with_variant(rung);
        assert_eq!(
            pin(per_embedding_ops(&cfg)),
            pinned,
            "({node}, {edge}) {rung:?}"
        );
    }
}
