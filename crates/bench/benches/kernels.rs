//! Criterion micro-benchmarks of the dense kernels the model is built from:
//! GEMM (blocked, packed, rayon-parallel), the elementwise `vmath` kernels
//! (sigmoid, tanh, exp, cos — each next to its libm loop), the GRU memory
//! updater, and the two time encoders (cos vs LUT — the Section III-C
//! optimization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tgnn_nn::{CosTimeEncoder, GruCell, LutTimeEncoder};
use tgnn_tensor::gemm::{matmul, matmul_packed_into, par_matmul};
use tgnn_tensor::vmath::cos_time_into;
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = TensorRng::new(1);
    for &n in &[32usize, 64, 128, 256] {
        let a = rng.uniform_matrix(n, n, -1.0, 1.0);
        let b = rng.uniform_matrix(n, n, -1.0, 1.0);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bench, _| {
            bench.iter(|| black_box(matmul(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bench, _| {
            let mut ws = Workspace::new();
            let mut c_out = Matrix::zeros(n, n);
            bench.iter(|| {
                matmul_packed_into(&a, &b, &mut c_out, &mut ws);
                black_box(c_out.as_slice()[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("rayon", n), &n, |bench, _| {
            bench.iter(|| black_box(par_matmul(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("int8", n), &n, |bench, _| {
            // Weights pre-quantized + pre-packed (the QuantizedLinear setup
            // cost); per-iteration work = activation quantization + i8 GEMM
            // + fused dequant, i.e. what the engine pays per batch.
            use tgnn_tensor::gemm_i8::{
                matmul_i8_dequant_into, pack_rhs_i8, packed_rhs_len, padded_k, quantize_slice_into,
            };
            let bt = b.transpose();
            let mut bt_q = vec![0i8; n * n];
            for i in 0..n {
                quantize_slice_into(bt.row(i), 1.0 / 127.0, &mut bt_q[i * n..(i + 1) * n]);
            }
            let mut packed = vec![0i8; packed_rhs_len(n, n)];
            pack_rhs_i8(&bt_q, n, n, &mut packed);
            let scales = vec![1.0f32; n];
            let kp = padded_k(n);
            let mut a_q = vec![0i8; n * kp];
            let mut c_out = Matrix::zeros(n, n);
            bench.iter(|| {
                for i in 0..n {
                    quantize_slice_into(a.row(i), 1.0 / 127.0, &mut a_q[i * kp..(i + 1) * kp]);
                }
                matmul_i8_dequant_into(&a_q, n, n, &packed, n, &scales, None, &mut c_out);
                black_box(c_out.as_slice()[0])
            })
        });
    }
    group.finish();
}

fn bench_vmath(c: &mut Criterion) {
    // One median GRU batch of gate pre-activations: 111 rows × 100.
    const ROWS: usize = 111;
    const DIM: usize = 100;
    let mut group = c.benchmark_group("vmath_111x100");
    let mut rng = TensorRng::new(4);
    let src = rng.uniform_vec(ROWS * DIM, -6.0, 6.0);
    let mut buf = src.clone();
    for (name, libm, kernel) in tgnn_bench::UNARY_KERNELS {
        group.bench_function(format!("{name}/libm"), |bench| {
            bench.iter(|| {
                buf.copy_from_slice(&src);
                buf.iter_mut().for_each(|x| *x = libm(*x));
                black_box(buf[0])
            })
        });
        group.bench_function(format!("{name}/kernel"), |bench| {
            bench.iter(|| {
                buf.copy_from_slice(&src);
                kernel(&mut buf);
                black_box(buf[0])
            })
        });
    }
    let omega = rng.uniform_vec(DIM, 1e-6, 1.5);
    let phi = rng.uniform_vec(DIM, 0.0, std::f32::consts::PI);
    let dts: Vec<Float> = (0..ROWS).map(|_| rng.pareto(0.5, 0.6).min(2.7e6)).collect();
    group.bench_function("cos/libm", |bench| {
        bench.iter(|| {
            for (row, &dt) in buf.chunks_exact_mut(DIM).zip(&dts) {
                for ((o, &w), &p) in row.iter_mut().zip(&omega).zip(&phi) {
                    *o = (w * dt + p).cos();
                }
            }
            black_box(buf[0])
        })
    });
    group.bench_function("cos/kernel", |bench| {
        bench.iter(|| {
            cos_time_into(&omega, &phi, &dts, &mut buf);
            black_box(buf[0])
        })
    });
    group.finish();
}

fn bench_gru(c: &mut Criterion) {
    let mut group = c.benchmark_group("gru_memory_update");
    let mut rng = TensorRng::new(2);
    // Paper dimensions: 472-dim message -> 100-dim memory.
    let cell = GruCell::new("g", 472, 100, &mut rng);
    for &batch in &[1usize, 8, 64] {
        let m = rng.uniform_matrix(batch, 472, -1.0, 1.0);
        let s = rng.uniform_matrix(batch, 100, -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bench, _| {
            bench.iter(|| black_box(cell.forward(&m, &s)))
        });
    }
    group.finish();
}

fn bench_time_encoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_encoder");
    let mut rng = TensorRng::new(3);
    let cos = CosTimeEncoder::new("t", 100, &mut rng);
    let samples: Vec<Float> = (0..5000).map(|_| rng.pareto(1.0, 1.2).min(1e6)).collect();
    let lut = LutTimeEncoder::calibrate("lut", &samples, 128, &cos);
    let batch: Vec<Float> = (0..64).map(|_| rng.pareto(1.0, 1.2).min(1e6)).collect();

    group.bench_function("cos_eq6", |bench| {
        bench.iter(|| black_box(cos.forward(&batch)))
    });
    group.bench_function("lut_128bins", |bench| {
        bench.iter(|| black_box(lut.forward(&batch)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_vmath,
    bench_gru,
    bench_time_encoders
);
criterion_main!(benches);
