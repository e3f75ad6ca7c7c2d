//! Dense linear-algebra substrate for the TGNN co-design reproduction.
//!
//! The paper's model (TGN-attn) is built from a small set of dense kernels:
//! matrix–matrix and matrix–vector products (the GRU gates, the attention
//! query/key/value projections, the feature transformation), row-wise
//! softmax, and elementwise activations.  This crate provides those kernels
//! on a simple row-major [`Matrix`] type, plus a reusable [`Workspace`]
//! scratch-buffer pool, and the random initialisation and
//! descriptive-statistics helpers used by the dataset generators and the LUT
//! time-encoder calibration.
//!
//! # Choosing a GEMM kernel
//!
//! | Kernel | Use when | Notes |
//! |---|---|---|
//! | [`gemm::PackedB`] + [`gemm::matmul_prepacked_into`] | the hot path: `x·Wᵀ` with a constant `W` | `W` packed **once** into `NR`-column panels, every call runs the FMA microkernel straight from it — `12×32` over two panels on AVX-512, `6×16` on AVX2 — no packing, no allocation; what `Linear::forward_ws` does |
//! | [`gemm::matmul_packed_into`] / [`gemm::matmul_packed_transb_into`] | both operands change per call | the same microkernel after a per-call pack into the [`Workspace`] (allocation-free when warm); the pack costs 5–25 % at the paper's shapes |
//! | [`gemm::matmul`] / [`gemm::matmul_into`] | reference / cold paths | cache-blocked triple loop; simplest and slowest |
//! | [`gemm_i8::matmul_i8_dequant_into`] | the int8 inference path | i8×i8→i32 accumulate on packed weight panels with a dequant f32 epilogue; `vpdpbusd` (AVX-512 VNNI) or `maddubs` (AVX2) dispatch, exact scalar fallback |
//!
//! All f32 kernels compute every output element as one accumulator updated
//! by a **fused** multiply-add in strictly ascending-`k` order (the contract
//! is spelled out in [`gemm`]), so they are interchangeable bit for bit —
//! the engine's deterministic serial mode relies on this.  The int8 kernels
//! are exact integer sums under one unfused epilogue, so they too agree bit
//! for bit.  Each is compiled portably and per instruction set and picked
//! at run time by CPU feature alone; [`dispatched_kernels`] reports which
//! ones this CPU runs.
//!
//! # Transcendentals
//!
//! `exp`, `sigmoid`, `tanh` and the time encoder's `cos`/`sin` are defined
//! by [`vmath`]: one plain-Rust lane function each, run by slice kernels
//! that are compiled portably and under `avx2,fma` (~0.4–0.7 ns/element,
//! 6–25× libm here) and are bit-identical either way.  [`ops`] builds its
//! activations and softmax on them; nothing served calls libm.  Hand a
//! kernel the whole buffer — the scalar `ops::sigmoid(x)` / `ops::tanh(x)`
//! forms pay a dispatch per element.
//!
//! The crate is deliberately dependency-light (no BLAS): every experiment in
//! the paper is reproduced with these kernels so that operation counts
//! reported by `tgnn-core::complexity` correspond one-to-one to the code that
//! actually runs.

pub mod gemm;
pub mod gemm_i8;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod vmath;
pub mod workspace;

pub use matrix::Matrix;
pub use rng::TensorRng;
pub use workspace::Workspace;

/// The GEMM compilations this CPU dispatches, named by the CPU feature each
/// is built for: `(f32, int8)` — `("avx512f", "avx512_vnni")`,
/// `("avx2+fma", "avx2")` or `("portable", "scalar")`, or a mix.  A report
/// for logs and metrics, not a selector: the dispatch is by CPU feature
/// only, and every compilation computes the same bits.
pub fn dispatched_kernels() -> (&'static str, &'static str) {
    (
        gemm::F32Kernel::dispatched().name(),
        gemm_i8::I8Kernel::dispatched().name(),
    )
}

/// Crate-wide floating point type.  The paper uses IEEE fp32 on the FPGA
/// (each multiplier costs 3 DSPs, each accumulator 2), so the software
/// reference uses `f32` as well.
pub type Float = f32;

/// Absolute tolerance used by tests and gradient checks throughout the
/// workspace.
pub const TEST_EPS: Float = 1e-4;

/// Asserts that two floats are close, with a helpful message.
#[inline]
pub fn approx_eq(a: Float, b: Float, tol: Float) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    // Relative comparison for large magnitudes.
    diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names what this host runs and which compilations the kernel tests
    /// exercise or skip (CI prints it with `--nocapture`: runners differ).
    #[test]
    fn dispatch_report_names_the_fastest_kernels_this_cpu_runs() {
        use gemm::F32Kernel;
        use gemm_i8::I8Kernel;
        let (f32_kernel, int8_kernel) = dispatched_kernels();
        println!("dispatched: f32 {f32_kernel}, int8 {int8_kernel}");
        let f32_paths = F32Kernel::ALL.map(|k| (k.name(), k.available()));
        let int8_paths = I8Kernel::ALL.map(|k| (k.name(), k.available()));
        for (kind, paths, dispatched) in [
            ("f32", f32_paths, f32_kernel),
            ("int8", int8_paths, int8_kernel),
        ] {
            for (name, runs) in paths {
                match runs {
                    true => println!("{kind} {name}: exercised"),
                    false => println!("{kind} {name}: skipped: cpu lacks {name}"),
                }
            }
            // Slowest first: the dispatch takes the last one that runs.
            let fastest = paths.iter().rev().find(|(_, runs)| *runs);
            assert_eq!(fastest.map(|(name, _)| *name), Some(dispatched), "{kind}");
        }
    }

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-6, 1e-4));
        assert!(!approx_eq(1.0, 1.1, 1e-4));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e6, 1e6 + 50.0, 1e-4));
        assert!(!approx_eq(1e6, 1.1e6, 1e-4));
    }
}
