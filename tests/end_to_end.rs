//! Cross-crate integration tests: dataset generation → model → inference
//! engine → accelerator simulation, exercised together the way the bench
//! harness and a downstream user would.

use tgnn::prelude::*;
use tgnn_core::complexity::{mac_reduction, mem_reduction, per_embedding_ops};
use tgnn_data::delta_t::memory_delta_t;
use tgnn_hwsim::baseline::{BaselinePlatform, BaselineSimulator};
use tgnn_hwsim::DdrModel;

fn small_graph(seed: u64) -> TemporalGraph {
    generate(&wikipedia_like(0.003, seed))
}

fn small_config(graph: &TemporalGraph, variant: OptimizationVariant) -> ModelConfig {
    ModelConfig {
        memory_dim: 16,
        time_dim: 16,
        embedding_dim: 16,
        lut_bins: 32,
        ..ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim())
    }
    .with_variant(variant)
}

fn build(graph: &TemporalGraph, variant: OptimizationVariant, seed: u64) -> TgnModel {
    let cfg = small_config(graph, variant);
    let mut rng = TensorRng::new(seed);
    let mut model = TgnModel::new(cfg, &mut rng);
    if model.config.time_encoder == TimeEncoderKind::Lut {
        model.calibrate_lut(&memory_delta_t(graph.events(), graph.num_nodes()));
    }
    model
}

#[test]
fn full_ladder_runs_the_same_stream_and_orders_by_complexity() {
    let graph = small_graph(1);
    let events = &graph.events()[..600.min(graph.num_events())];
    let mut per_variant_macs = Vec::new();
    for variant in OptimizationVariant::ladder() {
        let model = build(&graph, variant, 3);
        let mut engine = InferenceEngine::new(model, graph.num_nodes());
        let report = engine.run_stream(events, &graph, 100);
        assert!(
            report.num_embeddings > 0,
            "{variant:?} produced no embeddings"
        );
        assert!(
            engine.backward_commits() == 0,
            "{variant:?} violated chronological commits"
        );
        per_variant_macs.push(report.ops.total().macs);
    }
    // Baseline > +SAT > +LUT >= NP(L) > NP(M) > NP(S) in executed MACs.
    for w in per_variant_macs.windows(2) {
        assert!(
            w[0] >= w[1],
            "MACs must be non-increasing along the ladder: {per_variant_macs:?}"
        );
    }
    assert!(
        per_variant_macs[0] > per_variant_macs[5],
        "NP(S) must be cheaper than the baseline"
    );
}

#[test]
fn accelerator_simulation_and_reference_engine_agree_functionally() {
    let graph = small_graph(2);
    let model = build(&graph, OptimizationVariant::NpMedium, 5);

    let mut reference = InferenceEngine::new(model.clone(), graph.num_nodes());
    let mut sim = AcceleratorSim::new(
        model,
        graph.num_nodes(),
        FpgaDevice::alveo_u200(),
        DesignConfig::u200(),
    );

    let events = &graph.events()[..400.min(graph.num_events())];
    let ref_report = reference.run_stream(events, &graph, 100);
    let sim_report = sim.simulate_stream(events, &graph, 100);

    assert_eq!(ref_report.num_events, sim_report.num_events);
    assert_eq!(ref_report.num_embeddings, sim_report.num_embeddings);
    // The simulator's wrapped engine and the standalone engine must end in
    // the same memory state.
    for v in 0..graph.num_nodes() as u32 {
        assert_eq!(
            reference.memory().memory_of(v),
            sim.engine().memory().memory_of(v),
            "memory diverged at vertex {v}"
        );
    }
    // Simulated accelerator time must be positive and far below one second
    // per batch at this scale.
    assert!(sim_report.total_time > 0.0);
    assert!(sim_report.mean_latency() < 1.0);
}

#[test]
fn headline_reduction_and_speedup_shapes_hold() {
    // 84% computation / 67% memory-access reduction claims (Table II) and
    // the FPGA-vs-CPU/GPU latency ordering (Fig. 5), checked as shapes.
    let baseline = per_embedding_ops(&ModelConfig::paper_default(0, 172));
    let np_small = per_embedding_ops(
        &ModelConfig::paper_default(0, 172).with_variant(OptimizationVariant::NpSmall),
    );
    assert!(mac_reduction(&baseline, &np_small) > 0.7);
    assert!(mem_reduction(&baseline, &np_small) > 0.4);

    let paper_cfg = ModelConfig::paper_default(0, 172).with_variant(OptimizationVariant::NpMedium);
    let perf = PerformanceModel::new(
        DesignConfig::u200(),
        paper_cfg.clone(),
        DdrModel::new_gbps(FpgaDevice::alveo_u200().ddr_bandwidth_gbps),
    );
    let fpga_latency = perf.predict(1000).latency;
    let cpu = BaselineSimulator::new(
        BaselinePlatform::CpuMultiThread,
        ModelConfig::paper_default(0, 172),
    );
    let gpu = BaselineSimulator::new(BaselinePlatform::Gpu, ModelConfig::paper_default(0, 172));
    assert!(
        cpu.estimate(1000).latency / fpga_latency > 2.0,
        "FPGA should beat the CPU baseline clearly"
    );
    assert!(
        gpu.estimate(1000).latency / fpga_latency > 1.0,
        "FPGA should not lose to the GPU baseline"
    );
}

#[test]
fn performance_model_tracks_simulation_within_reasonable_error() {
    // Fig. 6: the analytical model predicts the simulated performance with
    // bounded error (the paper reports 9.9–12.8%; we allow a looser band
    // because the simulator uses measured per-batch workloads).
    let graph = small_graph(3);
    let cfg = small_config(&graph, OptimizationVariant::NpMedium);
    let model = build(&graph, OptimizationVariant::NpMedium, 7);

    let device = FpgaDevice::alveo_u200();
    let design = DesignConfig::u200();
    let perf = PerformanceModel::new(
        design.clone(),
        cfg,
        DdrModel::new_gbps(device.ddr_bandwidth_gbps),
    );
    let mut sim = AcceleratorSim::new(model, graph.num_nodes(), device, design);

    let batch_size = 200;
    let take = graph.num_events().min(1_000);
    let report = sim.simulate_stream(&graph.events()[..take], &graph, batch_size);
    let predicted = perf.predict(batch_size).latency;
    let actual = report.mean_latency();
    let ratio = predicted / actual;
    assert!(
        (0.1..10.0).contains(&ratio),
        "prediction {predicted} and simulation {actual} diverge by more than an order of magnitude"
    );
}
