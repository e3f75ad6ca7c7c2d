//! Figure 5 — latency and throughput versus batch size for the CPU/GPU
//! baselines and the two FPGA designs (NP(L/M/S) models), plus the real-time
//! 15-minute-window latency series.

use tgnn_bench::{build_model, Dataset, HarnessArgs};
use tgnn_core::OptimizationVariant;
use tgnn_data::SECONDS_PER_DAY;
use tgnn_graph::batching::time_window_batches;
use tgnn_hwsim::baseline::{BaselinePlatform, BaselineSimulator};
use tgnn_hwsim::design::DesignConfig;
use tgnn_hwsim::device::FpgaDevice;
use tgnn_hwsim::AcceleratorSim;

const BATCH_SIZES: [usize; 6] = [100, 200, 500, 1000, 2000, 4000];

fn main() {
    let args = HarnessArgs::parse();
    println!("# Figure 5 — latency/throughput vs batch size, and real-time latency\n");

    for dataset in Dataset::all() {
        let graph = dataset.graph(args.scale, args.seed);
        println!("## {} ({} events)", dataset.name(), graph.num_events());

        // --- Left plots: latency and throughput vs batch size.
        tgnn_bench::print_header(&[
            "batch size",
            "CPU lat (ms)",
            "GPU lat (ms)",
            "U200 NP(L) (ms)",
            "U200 NP(M) (ms)",
            "U200 NP(S) (ms)",
            "ZCU104 NP(M) (ms)",
            "CPU thpt (kE/s)",
            "GPU thpt (kE/s)",
            "U200 NP(M) thpt (kE/s)",
        ]);

        let paper_baseline = tgnn_bench::paper_model_config(dataset, OptimizationVariant::Baseline);
        let cpu = BaselineSimulator::new(BaselinePlatform::CpuMultiThread, paper_baseline.clone());
        let gpu = BaselineSimulator::new(BaselinePlatform::Gpu, paper_baseline);

        // (edges per timed batch, latency) of the previous ZCU104 cell.
        let mut last_zcu = (0.0, 0.0);
        for &batch_size in &BATCH_SIZES {
            let mut cells = vec![batch_size.to_string()];
            cells.push(tgnn_bench::secs_to_ms(cpu.estimate(batch_size).latency));
            cells.push(tgnn_bench::secs_to_ms(gpu.estimate(batch_size).latency));

            let mut u200_npm_tp = 0.0;
            for variant in [
                OptimizationVariant::NpLarge,
                OptimizationVariant::NpMedium,
                OptimizationVariant::NpSmall,
            ] {
                let report = simulate(
                    &graph,
                    variant,
                    DesignConfig::u200(),
                    FpgaDevice::alveo_u200(),
                    batch_size,
                    args.seed,
                );
                cells.push(tgnn_bench::secs_to_ms(report.mean_latency()));
                if variant == OptimizationVariant::NpMedium {
                    u200_npm_tp = report.throughput_eps();
                }
            }
            let zcu = simulate(
                &graph,
                OptimizationVariant::NpMedium,
                DesignConfig::zcu104(),
                FpgaDevice::zcu104(),
                batch_size,
                args.seed,
            );
            // The ZCU104 column grows with the batch it times (a short
            // stream times its whole window for the largest sizes alike).
            let edges = zcu.num_events as f64 / zcu.batches.len() as f64;
            assert!(
                edges <= last_zcu.0 || zcu.mean_latency() > last_zcu.1,
                "{}: ZCU104 latency {} s at {batch_size} edges, {} s at fewer",
                dataset.name(),
                zcu.mean_latency(),
                last_zcu.1
            );
            last_zcu = (edges, zcu.mean_latency());
            cells.push(tgnn_bench::secs_to_ms(zcu.mean_latency()));
            cells.push(format!(
                "{:.1}",
                cpu.estimate(batch_size).throughput_eps / 1e3
            ));
            cells.push(format!(
                "{:.1}",
                gpu.estimate(batch_size).throughput_eps / 1e3
            ));
            cells.push(format!("{:.1}", u200_npm_tp / 1e3));
            tgnn_bench::print_row(&cells);
        }

        // Headline speedups at batch size 1000 with NP(M).
        let u200 = simulate(
            &graph,
            OptimizationVariant::NpMedium,
            DesignConfig::u200(),
            FpgaDevice::alveo_u200(),
            1000,
            args.seed,
        );
        let cpu_lat = cpu.estimate(1000).latency;
        let gpu_lat = gpu.estimate(1000).latency;
        println!(
            "\nU200 NP(M) @1000: latency speedup vs CPU {:.1}x, vs GPU {:.1}x\n",
            cpu_lat / u200.mean_latency(),
            gpu_lat / u200.mean_latency()
        );

        // --- Right plots: real-time latency, one batch per 15-minute window.
        println!("### Real-time inference (15-minute windows), NP(M) on U200 vs GPU");
        tgnn_bench::print_header(&[
            "time (days)",
            "window edges",
            "U200 latency (ms)",
            "GPU latency (ms)",
        ]);
        let test = graph.test_events();
        if !test.is_empty() {
            let windows = time_window_batches(test, 15.0 * 60.0);
            let mut run_cfg =
                tgnn_bench::paper_model_config(dataset, OptimizationVariant::NpMedium);
            run_cfg.node_feature_dim = graph.node_feature_dim();
            run_cfg.edge_feature_dim = graph.edge_feature_dim();
            let model = build_model(&graph, &run_cfg, args.seed);
            let mut sim = AcceleratorSim::new(
                model,
                graph.num_nodes(),
                FpgaDevice::alveo_u200(),
                DesignConfig::u200(),
            );
            sim.warm_up(graph.train_events(), &graph);
            sim.warm_up(graph.val_events(), &graph);
            let report = sim.simulate_batches(&windows, &graph);
            let start = test[0].timestamp;
            // Print every k-th window so the table stays readable.
            let stride = (windows.len() / 24).max(1);
            for (i, (window, simulated)) in windows.iter().zip(&report.batches).enumerate() {
                if i % stride != 0 {
                    continue;
                }
                let day = (window.start_time().unwrap_or(start) - start) / SECONDS_PER_DAY;
                tgnn_bench::print_row(&[
                    format!("{:.2}", day),
                    window.len().to_string(),
                    tgnn_bench::secs_to_ms(simulated.latency),
                    tgnn_bench::secs_to_ms(gpu.estimate(window.len().max(1)).latency),
                ]);
            }
        }
        println!();
    }
}

fn dataset_of(graph: &tgnn_graph::TemporalGraph) -> Dataset {
    if graph.node_feature_dim() > 0 {
        Dataset::Gdelt
    } else if graph.name().starts_with("reddit") {
        Dataset::Reddit
    } else {
        Dataset::Wikipedia
    }
}

fn simulate(
    graph: &tgnn_graph::TemporalGraph,
    variant: OptimizationVariant,
    design: DesignConfig,
    device: FpgaDevice,
    batch_size: usize,
    seed: u64,
) -> tgnn_hwsim::SimulatedStreamReport {
    // Paper-dimension model so the simulated hardware numbers are at the
    // paper's scale (the feature dimensions of the synthetic datasets match
    // the real ones, so this is directly runnable).
    let mut run_cfg = tgnn_bench::paper_model_config(dataset_of(graph), variant);
    run_cfg.node_feature_dim = graph.node_feature_dim();
    run_cfg.edge_feature_dim = graph.edge_feature_dim();
    let model = build_model(graph, &run_cfg, seed);
    tgnn_bench::simulate_warm(graph, model, device, design, batch_size)
}
