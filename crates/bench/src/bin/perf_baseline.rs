//! End-to-end inference throughput measurement and perf-trajectory baseline.
//!
//! Streams the Wikipedia-like preset through the inference engine in every
//! execution mode and reports edges/sec and mean batch latency, verifying on
//! the way that the optimized f32 modes reproduce the serial reference
//! embeddings bit-for-bit.  The int8 path (`ExecMode::Quantized`) is then
//! calibrated on the warm-up split and measured on the same stream; its
//! embedding error against the serial reference (cosine similarity, max-abs)
//! is reported alongside the throughput, together with an f32-vs-int8 GEMM
//! microbenchmark at square shapes and the paper's three projections, each
//! row held against the core's FMA peak.  Writes
//! `BENCH_baseline.json` (override with `--out <path>`) so future PRs can
//! track the throughput trajectory.
//!
//! Run with: `cargo run --release -p tgnn-bench --bin perf_baseline -- --scale 0.02`

use std::sync::Arc;
use std::time::Instant;
use tgnn_bench::{
    build_model, harness_model_config, merge_baseline_row, Dataset, FlagHelp, HarnessArgs,
};
use tgnn_core::quantized::quantize_model;
use tgnn_core::{ExecMode, InferenceEngine, OptimizationVariant};
use tgnn_graph::batching::fixed_size_batches;
use tgnn_quant::QuantConfig;
use tgnn_tensor::stats::{cosine_agreement, max_abs_diff};

const BATCH_SIZE: usize = 200;

struct ModeResult {
    mode: ExecMode,
    events_per_sec: f64,
    mean_latency_ms: f64,
}

/// Binary-specific flags, enumerated for `--help`.
const BASELINE_FLAGS: &[FlagHelp] = &[(
    "--out",
    "<path>",
    "baseline JSON file to (re)write (default BENCH_baseline.json)",
)];

fn main() {
    let args = HarnessArgs::parse_or_help(
        "perf_baseline",
        "End-to-end inference throughput across every ExecMode, f32-identity check, int8 \
         accuracy + GEMM microbench; rewrites the BENCH_baseline.json trajectory file.",
        BASELINE_FLAGS,
    );
    let out_path = {
        let argv: Vec<String> = std::env::args().collect();
        argv.windows(2)
            .find(|w| w[0] == "--out")
            .map(|w| w[1].clone())
            .unwrap_or_else(|| "BENCH_baseline.json".to_string())
    };

    let graph = Dataset::Wikipedia.graph(args.scale, args.seed);
    let variant = OptimizationVariant::NpMedium;
    let cfg = harness_model_config(&graph, variant);
    let model = build_model(&graph, &cfg, args.seed);
    let warm_events = graph.train_events();
    let measure_events = graph.events();
    println!(
        "dataset: Wikipedia-like @ scale {} — {} nodes, {} events, variant {}",
        args.scale,
        graph.num_nodes(),
        measure_events.len(),
        variant.label()
    );

    // Reference run (serial seed path) — also the numerical ground truth.
    let mut reference_embeddings: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut results: Vec<ModeResult> = Vec::new();
    for mode in [ExecMode::Serial, ExecMode::Batched, ExecMode::Parallel] {
        let mut engine = InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(mode);
        let (eps, mean_ms, embeddings) =
            run_stream(&mut engine, warm_events, measure_events, &graph);
        println!(
            "mode {:>9?}: {:>10.0} edges/sec, mean batch latency {:.3} ms",
            mode, eps, mean_ms
        );

        if mode == ExecMode::Serial {
            reference_embeddings = embeddings;
        } else {
            assert_eq!(
                reference_embeddings, embeddings,
                "{mode:?} embeddings diverged bitwise from the serial reference"
            );
        }
        results.push(ModeResult {
            mode,
            events_per_sec: eps,
            mean_latency_ms: mean_ms,
        });
    }

    // --- Quantized run: calibrate on the warm split, serve int8, measure
    // accuracy against the serial reference.
    let quant_config = QuantConfig::default();
    let q = Arc::new(quantize_model(
        &model,
        &graph,
        &[],
        warm_events,
        BATCH_SIZE,
        quant_config,
    ));
    let mut engine = InferenceEngine::new(model.clone(), graph.num_nodes()).with_quantized(q);
    let (q_eps, q_mean_ms, q_embeddings) =
        run_stream(&mut engine, warm_events, measure_events, &graph);

    assert_eq!(reference_embeddings.len(), q_embeddings.len());
    let mut cos_min: f32 = 1.0;
    let mut cos_sum = 0.0f64;
    let mut max_err: f32 = 0.0;
    for ((v_a, e_a), (v_b, e_b)) in reference_embeddings.iter().zip(&q_embeddings) {
        assert_eq!(v_a, v_b, "quantized vertex order diverged");
        let cos = cosine_agreement(e_a, e_b);
        cos_min = cos_min.min(cos);
        cos_sum += cos as f64;
        max_err = max_err.max(max_abs_diff(e_a, e_b));
    }
    let cos_mean = cos_sum / reference_embeddings.len().max(1) as f64;
    let batched_eps = results[1].events_per_sec;
    println!(
        "mode Quantized: {:>10.0} edges/sec, mean batch latency {:.3} ms ({:+.1}% vs Batched)",
        q_eps,
        q_mean_ms,
        100.0 * (q_eps / batched_eps - 1.0)
    );
    println!(
        "     accuracy : embedding cosine vs serial — min {cos_min:.6}, mean {cos_mean:.6}, max abs err {max_err:.5}"
    );

    // --- f32 vs int8 GEMM microbenchmark: square shapes plus the paper's
    // three projections, against the core's FMA peak.
    let gemm = gemm_microbench(&[
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (138, 472, 100), // GRU input projection
        (735, 372, 100), // attention K/V
        (138, 200, 100), // attention Q
    ]);
    let peak_gflops = fma_clock_ghz().map(|ghz| ghz * 32.0);
    match peak_gflops {
        Some(peak) => println!(
            "f32 peak: {peak:.1} GFLOP/s = 2 FMA x 8 lanes x 2 flops x {:.2} GHz \
             (clock from a dependent-FMA chain, 4-cycle latency assumed)",
            peak / 32.0
        ),
        None => println!("f32 peak: unknown (no avx2+fma: portable kernels ran)"),
    }
    for row in &gemm {
        let (m, k, n) = row.shape;
        let gflops = |us: f64| 2.0 * (m * k * n) as f64 / us / 1e3;
        let of_peak = peak_gflops
            .map(|peak| format!(" = {:.0}% of peak", 100.0 * gflops(row.f32_us) / peak))
            .unwrap_or_default();
        println!(
            "gemm {:>11}: f32 {:>7.1} µs {:>5.1} GFLOP/s{of_peak}, int8 {:>7.1} µs {:>5.1} GOP/s ({:.2}x)",
            row.label(),
            row.f32_us,
            gflops(row.f32_us),
            row.i8_us,
            gflops(row.i8_us),
            row.f32_us / row.i8_us
        );
    }

    let serial = results[0].events_per_sec;
    let best = results
        .iter()
        .map(|r| r.events_per_sec)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "speedup over serial reference: {:.2}x (bitwise-identical embeddings)",
        best / serial
    );

    // Hand-rolled JSON (no serde_json in this offline environment).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"dataset\": \"wikipedia_like\",\n  \"scale\": {},\n",
        args.scale
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"batch_size\": {},\n  \"variant\": \"{}\",\n",
        args.seed,
        BATCH_SIZE,
        variant.label()
    ));
    json.push_str(&format!("  \"num_events\": {},\n", measure_events.len()));
    json.push_str("  \"modes\": {\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{:?}\": {{ \"events_per_sec\": {:.1}, \"mean_batch_latency_ms\": {:.4} }}{}\n",
            r.mode,
            r.events_per_sec,
            r.mean_latency_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_over_serial\": {:.3},\n",
        best / serial
    ));
    json.push_str("  \"embeddings_bitwise_identical\": true\n}\n");
    std::fs::write(&out_path, json).expect("failed to write throughput baseline");

    // The int8 row rides in via the shared merge helper so `serve_bench` and
    // `quant_gate` can later extend the same file.
    let gemm_rows: Vec<String> = gemm
        .iter()
        .map(|row| format!("\"{}\": {:.3}", row.label(), row.f32_us / row.i8_us))
        .collect();
    let quant_row = format!(
        "{{\n    \"exec_mode\": \"Quantized\",\n    \"events_per_sec\": {:.1},\n    \"mean_batch_latency_ms\": {:.4},\n    \"speedup_vs_batched\": {:.3},\n    \"embedding_cosine_min\": {:.6},\n    \"embedding_cosine_mean\": {:.6},\n    \"embedding_max_abs_err\": {:.6},\n    \"clip_percentile\": {},\n    \"quantize_gru\": {},\n    \"gemm_i8_speedup\": {{ {} }}\n  }}",
        q_eps,
        q_mean_ms,
        q_eps / batched_eps,
        cos_min,
        cos_mean,
        max_err,
        quant_config.clip_percentile,
        quant_config.quantize_gru,
        gemm_rows.join(", "),
    );
    merge_baseline_row(&out_path, "quant", &quant_row);
    println!("wrote {out_path}");
}

/// Warm up, stream the measurement events in fixed-size batches, and return
/// `(events/sec, mean latency ms, embeddings)`.
fn run_stream(
    engine: &mut InferenceEngine,
    warm_events: &[tgnn_graph::InteractionEvent],
    measure_events: &[tgnn_graph::InteractionEvent],
    graph: &tgnn_graph::TemporalGraph,
) -> (f64, f64, Vec<(u32, Vec<f32>)>) {
    engine.warm_up(warm_events, graph);
    let batches = fixed_size_batches(measure_events, BATCH_SIZE);
    let start = Instant::now();
    let mut embeddings: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut latencies = Vec::with_capacity(batches.len());
    for batch in &batches {
        let out = engine.process_batch(batch, graph);
        latencies.push(out.latency);
        embeddings.extend(out.embeddings);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let eps = measure_events.len() as f64 / elapsed;
    let mean_ms = latencies.iter().map(|l| l.as_secs_f64()).sum::<f64>()
        / latencies.len().max(1) as f64
        * 1e3;
    (eps, mean_ms, embeddings)
}

/// One [`gemm_microbench`] measurement of `A (m×k) · Wᵀ (k×n)`.
struct GemmRow {
    shape: (usize, usize, usize),
    f32_us: f64,
    i8_us: f64,
}

impl GemmRow {
    /// `"64"` for a square shape (the key `BENCH_baseline.json` has always
    /// used), `"138x472x100"` otherwise.
    fn label(&self) -> String {
        let (m, k, n) = self.shape;
        if m == k && k == n {
            n.to_string()
        } else {
            format!("{m}x{k}x{n}")
        }
    }
}

/// Times the f32 kernel against the int8 kernel the way the engine runs
/// them: weights packed once outside the loop, and for int8 the per-call
/// activation quantization included.
fn gemm_microbench(shapes: &[(usize, usize, usize)]) -> Vec<GemmRow> {
    use tgnn_tensor::gemm::{matmul_prepacked_into, PackedB};
    use tgnn_tensor::gemm_i8::{
        matmul_i8_dequant_into, pack_rhs_i8, packed_rhs_len, padded_k, quantize_slice_into,
    };
    use tgnn_tensor::{Matrix, TensorRng};

    let mut rng = TensorRng::new(11);
    let mut out = Vec::with_capacity(shapes.len());
    for &shape in shapes {
        let (m, k, n) = shape;
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let bt = rng.uniform_matrix(n, k, -1.0, 1.0);
        let mut c = Matrix::zeros(m, n);
        let iters = (100_000_000 / (m * k * n)).max(5);

        let packed_f32 = PackedB::from_transposed(&bt);
        matmul_prepacked_into(&a, &packed_f32, &mut c); // warm the caches
        let start = Instant::now();
        for _ in 0..iters {
            matmul_prepacked_into(std::hint::black_box(&a), &packed_f32, &mut c);
        }
        let f32_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;

        let mut bt_q = vec![0i8; n * k];
        for i in 0..n {
            quantize_slice_into(bt.row(i), 1.0 / 127.0, &mut bt_q[i * k..(i + 1) * k]);
        }
        let mut packed = vec![0i8; packed_rhs_len(n, k)];
        pack_rhs_i8(&bt_q, n, k, &mut packed);
        let scales = vec![1.0f32; n];
        let kp = padded_k(k);
        let mut a_q = vec![0i8; m * kp];
        let start = Instant::now();
        for _ in 0..iters {
            for i in 0..m {
                quantize_slice_into(a.row(i), 1.0 / 127.0, &mut a_q[i * kp..(i + 1) * kp]);
            }
            matmul_i8_dequant_into(&a_q, m, k, &packed, n, &scales, None, &mut c);
        }
        let i8_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
        out.push(GemmRow {
            shape,
            f32_us,
            i8_us,
        });
    }
    out
}

/// Core clock in GHz, estimated from a chain of dependent FMAs (4 cycles
/// each on every x86 core since Skylake/Zen), or `None` where the `avx2,fma`
/// kernels do not run.  `clock × 2 FMA ports × 8 lanes × 2 flops` is the
/// f32 roofline the GEMM rows are held against.
fn fma_clock_ghz() -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        const CHAIN: u32 = 20_000_000;
        const FMA_LATENCY_CYCLES: f64 = 4.0;

        #[target_feature(enable = "fma")]
        unsafe fn dependent_fma_chain(mut x: f32, a: f32, b: f32) -> f32 {
            for _ in 0..CHAIN {
                x = x.mul_add(a, b);
            }
            x
        }

        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return None;
        }
        let bb = std::hint::black_box::<f32>;
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                // SAFETY: `fma` support checked just above.
                bb(unsafe { dependent_fma_chain(bb(0.5), bb(0.999), bb(1e-3)) });
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        Some(f64::from(CHAIN) * FMA_LATENCY_CYCLES / best / 1e9)
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}
