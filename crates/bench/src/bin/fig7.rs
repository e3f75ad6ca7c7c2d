//! Figure 7 — accuracy versus latency on the Wikipedia-like dataset at batch
//! size 200: TGN and the APAN-style baseline on CPU/GPU versus the co-design
//! NP(L/M/S) models on the two FPGA design points.

use tgnn_bench::{build_model, harness_model_config, Dataset, HarnessArgs};
use tgnn_core::apan::{ApanConfig, ApanModel};
use tgnn_core::distillation::{distill, DistillationConfig};
use tgnn_core::training::{TrainConfig, Trainer};
use tgnn_core::OptimizationVariant;
use tgnn_hwsim::baseline::{BaselinePlatform, BaselineSimulator};
use tgnn_hwsim::design::DesignConfig;
use tgnn_hwsim::device::FpgaDevice;
use tgnn_tensor::TensorRng;

const BATCH_SIZE: usize = 200;

fn main() {
    let args = HarnessArgs::parse();
    println!("# Figure 7 — accuracy vs latency (Wikipedia, batch size {BATCH_SIZE})\n");

    let graph = Dataset::Wikipedia.graph(args.scale, args.seed);
    let train_cfg = TrainConfig {
        epochs: args.epochs,
        batch_size: 100,
        learning_rate: 1e-3,
        decoder_hidden: 32,
        seed: args.seed,
    };
    let trainer = Trainer::new(train_cfg.clone());
    let kd_cfg = DistillationConfig {
        temperature: 1.0,
        kd_weight: 0.5,
        train: train_cfg,
    };

    tgnn_bench::print_header(&["method", "platform", "AP", "latency (ms)"]);

    // --- TGN baseline on CPU and GPU (accuracy from the trained teacher,
    // latency from the calibrated platform models).
    let teacher_cfg = harness_model_config(&graph, OptimizationVariant::Baseline);
    let teacher = trainer.train(&teacher_cfg, &graph);
    let teacher_ap = trainer
        .evaluate(&teacher, &graph, BATCH_SIZE)
        .average_precision;
    let paper_baseline =
        tgnn_bench::paper_model_config(Dataset::Wikipedia, OptimizationVariant::Baseline);
    for platform in [BaselinePlatform::CpuMultiThread, BaselinePlatform::Gpu] {
        let sim = BaselineSimulator::new(platform, paper_baseline.clone());
        tgnn_bench::print_row(&[
            "TGN".into(),
            platform.label().into(),
            format!("{:.4}", teacher_ap),
            tgnn_bench::secs_to_ms(sim.estimate(BATCH_SIZE).latency),
        ]);
    }

    // --- APAN-style asynchronous baseline (accuracy measured, latency from
    // the platform models scaled by its much smaller synchronous work).
    let apan_cfg =
        ApanConfig::from_model_config(&harness_model_config(&graph, OptimizationVariant::Baseline));
    let mut rng = TensorRng::new(args.seed ^ 0xa9a);
    let mut apan = ApanModel::new(apan_cfg, graph.num_nodes(), &mut rng);
    let take = graph.num_events().min(6_000);
    let apan_ap = apan.evaluate_stream(&graph.events()[..take], &graph, &mut rng);
    for platform in [BaselinePlatform::CpuMultiThread, BaselinePlatform::Gpu] {
        let sim = BaselineSimulator::new(platform, paper_baseline.clone());
        // APAN skips the neighbor aggregation on the critical path: only the
        // memory + update stages remain.
        let stage = sim.stage_micros();
        let latency = (stage[1] + stage[3]) * 1e-6 * 2.0 * BATCH_SIZE as f64
            + match platform {
                BaselinePlatform::Gpu => 0.5e-3,
                _ => 150e-6,
            };
        tgnn_bench::print_row(&[
            "APAN".into(),
            platform.label().into(),
            format!("{:.4}", apan_ap),
            tgnn_bench::secs_to_ms(latency),
        ]);
    }

    // --- The co-design: distilled students on the two FPGA designs.
    for variant in [
        OptimizationVariant::NpLarge,
        OptimizationVariant::NpMedium,
        OptimizationVariant::NpSmall,
    ] {
        let student_cfg = harness_model_config(&graph, variant);
        let (student, _) = distill(&teacher, &student_cfg, &graph, &kd_cfg);
        let ap = trainer
            .evaluate(&student, &graph, BATCH_SIZE)
            .average_precision;

        for (design, device) in [
            (DesignConfig::u200(), FpgaDevice::alveo_u200()),
            (DesignConfig::zcu104(), FpgaDevice::zcu104()),
        ] {
            let model = build_model(&graph, &student_cfg, args.seed);
            let report =
                tgnn_bench::simulate_warm(&graph, model, device, design.clone(), BATCH_SIZE);
            tgnn_bench::print_row(&[
                format!("Ours {}", variant.label()),
                design.name.clone(),
                format!("{:.4}", ap),
                tgnn_bench::secs_to_ms(report.mean_latency()),
            ]);
        }
    }
    println!("\n(teacher AP = {:.4}; the co-design points should sit above APAN in accuracy at similar or lower latency)", teacher_ap);
}
