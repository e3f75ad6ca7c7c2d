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
//! f32 row held against the measured FMA peak of the width its kernel runs
//! and each int8 row as a multiple of it, and an elementwise microbenchmark:
//! the `tgnn_tensor::vmath` kernels against libm per element, and a GRU row
//! split into its GEMM half and its gate pass.  Refreshes its own rows of
//! `BENCH_baseline.json` (override with `--out <path>`) and carries every
//! other binary's rows across, so future PRs can track the trajectory.
//!
//! Run with: `cargo run --release -p tgnn-bench --bin perf_baseline -- --scale 0.02`

use std::sync::Arc;
use std::time::Instant;
use tgnn_bench::{
    baseline_rows, build_model, harness_model_config, merge_baseline_row, Dataset, FlagHelp,
    HarnessArgs,
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

/// A unary `tgnn_tensor::vmath` kernel next to the libm expression it
/// replaced: `(name, libm, kernel)`.
type UnaryKernel = (&'static str, fn(f32) -> f32, fn(&mut [f32]));

/// The libm-vs-kernel rows of the `elementwise` section.
const UNARY_KERNELS: [UnaryKernel; 3] = [
    (
        "sigmoid",
        |x| 1.0 / (1.0 + (-x).exp()),
        tgnn_tensor::vmath::sigmoid_slice,
    ),
    ("tanh", f32::tanh, tgnn_tensor::vmath::tanh_slice),
    ("exp", f32::exp, tgnn_tensor::vmath::exp_slice),
];

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
    // three projections.
    let gemm = gemm_microbench(&[
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (138, 472, 100), // GRU input projection
        (735, 372, 100), // attention K/V
        (138, 200, 100), // attention Q
    ]);
    // Each row against the measured peak of the width its kernel runs.
    let (f32_kernel, int8_kernel) = tgnn_tensor::dispatched_kernels();
    let roofline = fma_peak_gflops();
    for (lanes, peak) in &roofline {
        println!(
            "f32 peak {lanes:>2} lanes: {peak:.1} GFLOP/s (12 independent FMA chains, measured)"
        );
    }
    let lanes = match f32_kernel {
        "avx512f" => 16,
        "avx2+fma" => 8,
        _ => 0,
    };
    let peak_gflops = roofline
        .iter()
        .find(|(width, _)| *width == lanes)
        .map(|(_, peak)| *peak);
    println!("gemm kernels: f32 {f32_kernel}, int8 {int8_kernel}");
    for row in &gemm {
        let (m, k, n) = row.shape;
        let gflops = |us: f64| 2.0 * (m * k * n) as f64 / us / 1e3;
        let of_peak = peak_gflops
            .map(|peak| format!(" = {:.0}% of peak", 100.0 * gflops(row.f32_us) / peak))
            .unwrap_or_default();
        println!(
            "gemm {:>11}: f32 {:>7.1} µs {:>5.1} GFLOP/s{of_peak}, int8 {:>7.1} µs {:>5.1} GOP/s = {:.2}x f32",
            row.label(),
            row.f32_us,
            gflops(row.f32_us),
            row.i8_us,
            gflops(row.i8_us),
            row.f32_us / row.i8_us
        );
    }

    // --- Elementwise: libm vs the vmath kernels, and where a GRU row goes.
    let elementwise = elementwise_microbench();
    for row in &elementwise.kernels {
        println!(
            "elementwise {:>15}: libm {:>5.2} ns/element, kernel {:>5.2} ns/element ({:.1}x)",
            row.label,
            row.libm_ns,
            row.kernel_ns,
            row.libm_ns / row.kernel_ns
        );
    }
    println!(
        "gru 111x472->100: {:.0} ns/row = GEMM {:.0} + gate pass {:.0}; time LUT folded (K 372): GEMM {:.0}",
        elementwise.gru_gemm_ns + elementwise.gru_gates_ns,
        elementwise.gru_gemm_ns,
        elementwise.gru_gates_ns,
        elementwise.gru_gemm_folded_ns
    );

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
    // Rows this binary does not write (`quant_gate`'s) are
    // carried across the rewrite: see the end of `main`.
    let previous = baseline_rows(&std::fs::read_to_string(&out_path).unwrap_or_default());
    std::fs::write(&out_path, &json).expect("failed to write throughput baseline");

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
    let mut kernel_rows: Vec<String> = elementwise
        .kernels
        .iter()
        .map(|row| {
            format!(
                "    \"{}\": {{ \"libm_ns\": {:.3}, \"kernel_ns\": {:.3} }}",
                row.label, row.libm_ns, row.kernel_ns
            )
        })
        .collect();
    kernel_rows.push(format!(
        "    \"gru_111x472\": {{ \"gemm_ns_per_row\": {:.1}, \"gates_ns_per_row\": {:.1}, \"gemm_folded_ns_per_row\": {:.1} }}",
        elementwise.gru_gemm_ns, elementwise.gru_gates_ns, elementwise.gru_gemm_folded_ns
    ));
    let elementwise_row = format!("{{\n{}\n  }}", kernel_rows.join(",\n"));
    merge_baseline_row(&out_path, "elementwise", &elementwise_row);
    let written = std::fs::read_to_string(&out_path).expect("written just above");
    let written: Vec<String> = baseline_rows(&written).into_iter().map(|r| r.0).collect();
    for (key, row) in previous.iter().filter(|(key, _)| !written.contains(key)) {
        merge_baseline_row(&out_path, key, row);
    }
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

/// One libm-vs-kernel row of [`elementwise_microbench`], ns per element.
struct ElementwiseRow {
    label: String,
    libm_ns: f64,
    kernel_ns: f64,
}

struct Elementwise {
    kernels: Vec<ElementwiseRow>,
    /// A GRU row at the paper's 472 → 100, split into the two stacked
    /// GEMMs and the fused gate pass (ns per row, 111-row batch).
    gru_gemm_ns: f64,
    gru_gates_ns: f64,
    /// The GEMM half with the 100 time columns folded into a LUT read
    /// (K 472 → 372 on the input side), as a LUT model serves it.
    gru_gemm_folded_ns: f64,
}

/// Best-of-5 mean time of `f` in ns, after a warm-up call.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times libm against the `vmath` slice kernels on one GRU batch of gate
/// pre-activations (111×100) and one attention batch of neighbors
/// (735×100), and splits a GRU row into its GEMM half and its gate pass.
fn elementwise_microbench() -> Elementwise {
    use std::hint::black_box;
    use tgnn_nn::GruCell;
    use tgnn_tensor::vmath::{cos_time_into, gru_gates_into};
    use tgnn_tensor::{TensorRng, Workspace};

    let mut rng = TensorRng::new(13);
    let mut kernels = Vec::new();
    for rows in [111usize, 735] {
        let dim = 100;
        let src = rng.uniform_vec(rows * dim, -6.0, 6.0);
        let mut buf = src.clone();
        let iters = 200_000 / rows;
        let per_element = |ns: f64| ns / (rows * dim) as f64;
        // The copy that restores the input is part of both sides.
        for (name, libm, kernel) in UNARY_KERNELS {
            let libm_ns = time_ns(iters, || {
                buf.copy_from_slice(&src);
                for x in black_box(&mut buf).iter_mut() {
                    *x = libm(*x);
                }
            });
            let kernel_ns = time_ns(iters, || {
                buf.copy_from_slice(&src);
                kernel(black_box(&mut buf));
            });
            kernels.push(ElementwiseRow {
                label: format!("{name}_{rows}x{dim}"),
                libm_ns: per_element(libm_ns),
                kernel_ns: per_element(kernel_ns),
            });
        }
        // cos(ω·Δt + φ) over a heavy-tailed Δt, as the time encoder sees it.
        let omega = rng.uniform_vec(dim, 1e-6, 1.5);
        let phi = rng.uniform_vec(dim, 0.0, std::f32::consts::PI);
        let dts: Vec<f32> = (0..rows).map(|_| rng.pareto(0.5, 0.6).min(2.7e6)).collect();
        let libm_ns = time_ns(iters, || {
            for (row, &dt) in buf.chunks_exact_mut(dim).zip(black_box(&dts)) {
                for ((o, &w), &p) in row.iter_mut().zip(&omega).zip(&phi) {
                    *o = (w * dt + p).cos();
                }
            }
            black_box(&mut buf);
        });
        let kernel_ns = time_ns(iters, || {
            cos_time_into(&omega, &phi, black_box(&dts), &mut buf);
            black_box(&mut buf);
        });
        kernels.push(ElementwiseRow {
            label: format!("cos_{rows}x{dim}"),
            libm_ns: per_element(libm_ns),
            kernel_ns: per_element(kernel_ns),
        });
    }

    let (rows, input_dim, h) = (111, 472, 100);
    let cell = GruCell::new("bench.gru", input_dim, h, &mut rng);
    let messages = rng.normal_matrix(rows, input_dim, 0.5);
    let hidden = rng.normal_matrix(rows, h, 0.5);
    let mut ws = Workspace::new();
    let (gi, gh) = (
        cell.w_i.forward_ws(&messages, &mut ws),
        cell.w_h.forward_ws(&hidden, &mut ws),
    );
    let mut out = ws.take_matrix(rows, h);
    let gemm_ns = time_ns(2_000, || {
        let gi = cell.w_i.forward_ws(black_box(&messages), &mut ws);
        let gh = cell.w_h.forward_ws(black_box(&hidden), &mut ws);
        black_box((gi.as_slice(), gh.as_slice()));
        ws.recycle_matrix(gh);
        ws.recycle_matrix(gi);
    });
    let gates_ns = time_ns(2_000, || {
        gru_gates_into(black_box(&gi), black_box(&gh), &hidden, &mut out);
        black_box(out.as_slice());
    });
    let time_dim = 100;
    let folded = cell.clone().with_time_tail(Some(time_dim));
    let cos = tgnn_nn::CosTimeEncoder::new("bench.cos", time_dim, &mut rng);
    let dts: Vec<f32> = (0..rows).map(|_| rng.pareto(1.0, 1.3).min(1e5)).collect();
    let lut = tgnn_nn::LutTimeEncoder::calibrate("bench.lut", &dts, 128, &cos);
    let head = rng.normal_matrix(rows, input_dim - time_dim, 0.5);
    let gemm_folded_ns = time_ns(2_000, || {
        let gi = folded
            .w_i
            .forward_folded_ws(black_box(&head), &lut, &dts, &mut ws);
        let gh = folded.w_h.forward_ws(black_box(&hidden), &mut ws);
        black_box((gi.as_slice(), gh.as_slice()));
        ws.recycle_matrix(gh);
        ws.recycle_matrix(gi);
    });
    Elementwise {
        kernels,
        gru_gemm_ns: gemm_ns / rows as f64,
        gru_gates_ns: gates_ns / rows as f64,
        gru_gemm_folded_ns: gemm_folded_ns / rows as f64,
    }
}

/// The f32 FMA roofline, measured: `(lanes, GFLOP/s)` for the 8-lane
/// (`avx2,fma`) and, where the CPU has it, the 16-lane (`avx512f`) width.
/// Twelve independent chains per width keep two FMA ports busy through a
/// 4–6-cycle latency, so the figure is the issue rate the core sustains —
/// port count and any wide-vector clock penalty included — not a port
/// count assumed times a clock.  Empty where no FMA kernel runs.
fn fma_peak_gflops() -> Vec<(usize, f64)> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        use std::arch::x86_64::*;
        const STEPS: u64 = 5_000_000;
        const CHAINS: usize = 12;

        #[target_feature(enable = "avx2,fma")]
        unsafe fn chains_8(a: f32, b: f32) -> f32 {
            let (a, b) = (_mm256_set1_ps(a), _mm256_set1_ps(b));
            let mut x = [_mm256_set1_ps(0.5); CHAINS];
            for _ in 0..STEPS {
                for x in x.iter_mut() {
                    *x = _mm256_fmadd_ps(*x, a, b);
                }
            }
            let mut lanes = [0.0; 8];
            let sum = x
                .into_iter()
                .fold(_mm256_setzero_ps(), |s, x| _mm256_add_ps(s, x));
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            lanes.iter().sum()
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn chains_16(a: f32, b: f32) -> f32 {
            let (a, b) = (_mm512_set1_ps(a), _mm512_set1_ps(b));
            let mut x = [_mm512_set1_ps(0.5); CHAINS];
            for _ in 0..STEPS {
                for x in x.iter_mut() {
                    *x = _mm512_fmadd_ps(*x, a, b);
                }
            }
            _mm512_reduce_add_ps(
                x.into_iter()
                    .fold(_mm512_setzero_ps(), |s, x| _mm512_add_ps(s, x)),
            )
        }

        let bb = std::hint::black_box::<f32>;
        let gflops = |lanes: usize, chains: unsafe fn(f32, f32) -> f32| {
            let best = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    // SAFETY: the caller checked the chain's features.
                    bb(unsafe { chains(bb(0.999), bb(1e-3)) });
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            (
                lanes,
                (STEPS as usize * CHAINS * lanes * 2) as f64 / best / 1e9,
            )
        };
        let mut roofline = Vec::new();
        if has!("avx2") && has!("fma") {
            roofline.push(gflops(8, chains_8));
            if has!("avx512f") {
                roofline.push(gflops(16, chains_16));
            }
        }
        roofline
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}
