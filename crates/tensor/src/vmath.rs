//! Vector math: the definition of the stack's transcendentals.
//!
//! `exp`, `sigmoid`, `tanh`, and the time encoder's `cos(ω·Δt + φ)` (with
//! its `sin` twin for the backward pass) are each defined by one plain-Rust
//! **lane function** — clamp, Cody–Waite range reduction through the
//! magic-number round, an FMA Horner polynomial, exponent and sign by
//! integer bit operations.  A lane function uses only IEEE-exact operations
//! (`+ − × ÷`, `mul_add`, comparisons, bit casts), so its result does not
//! depend on how it was compiled, on the host's libm, or on whether the loop
//! around it was vectorised.
//!
//! Each slice kernel is that lane function in a loop, compiled twice like
//! the GEMM loops in [`crate::gemm`]: under `avx2,fma` (picked at run time),
//! where LLVM vectorises it eight lanes wide, and portably — **bit-identical
//! by construction**, which the tests check by calling both compilations in
//! one process.  `ARCHITECTURE.md` (numeric identity) states what rests on
//! this: every path that evaluates a gate or a time encoding — serial,
//! batched, served, recovered, training — goes through these kernels.
//!
//! **Hazard.**  Without the `fma` target feature `f32::mul_add` is a libm
//! call (~28 ns per element here, ten times the libm function the kernel
//! replaced).  The lane functions are therefore private: call a slice
//! kernel, never a transcendental per element in a loop.
//!
//! | kernel | accuracy (vs f64) | notes |
//! |---|---|---|
//! | [`exp_slice`] | 2·10⁻⁷ relative | overflows to `+∞` above 88.72, underflows through the subnormals to `0` |
//! | [`sigmoid_slice`] | 1·10⁻⁷ absolute | `σ(±100) ∈ {0, 1}` |
//! | [`tanh_slice`] | 2·10⁻⁷ absolute | odd; flushes to `±0` below 3·10⁻⁸ |
//! | [`cos_time_into`] / [`sin_time_into`] | 3·10⁻⁷ absolute | for `|ω·Δt + φ| ≤ 1.3·10⁷`; bounded by 1 beyond, where the `f32` argument's own spacing exceeds a radian |
//! | [`gru_gates_into`] | — | the GRU's whole elementwise stage in one pass |

use crate::gemm::fma_available;
use crate::{Float, Matrix};

/// `1.5·2²³`: adding it to `|t| < 2²²` rounds `t` to the nearest integer
/// (ties to even) in the low mantissa bits; subtracting it again yields that
/// integer as a float.
const ROUND_MAGIC: Float = 12_582_912.0;

/// `(t + ROUND_MAGIC, round(t))` for `|t| < 2²²`.
#[inline(always)]
fn round_magic(x: Float, scale: Float) -> (Float, Float) {
    let shifted = x.mul_add(scale, ROUND_MAGIC);
    (shifted, shifted - ROUND_MAGIC)
}

/// `2ⁿ` for `n ∈ [-126, 127]`, by writing the exponent field.
#[inline(always)]
fn pow2(n: i32) -> Float {
    Float::from_bits(((n + 127) << 23) as u32)
}

/// `eˣ`.  `x = n·ln2 + r` with `|r| ≤ ln2/2`; `eʳ = 1 + r + r²·q(r)` with a
/// degree-4 minimax `q`; the result is scaled by `2ⁿ` in two steps so that
/// overflow to `+∞` and gradual underflow to `0` fall out of the multiply.
#[inline(always)]
fn exp_lane(x: Float) -> Float {
    const LOG2_E: Float = std::f32::consts::LOG2_E;
    // ln2 = HI + LO; `n·HI` is exact under the fused multiply-add.
    const LN2_HI: Float = std::f32::consts::LN_2;
    const LN2_LO: Float = -1.904_654_3e-9;
    // e^89 > f32::MAX and e^-105 < half the smallest subnormal.
    let x = x.clamp(-105.0, 89.0);
    let (shifted, n) = round_magic(x, LOG2_E);
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    let mut q: Float = 1.392_620_3e-3;
    q = q.mul_add(r, 8.363_195e-3);
    q = q.mul_add(r, 4.166_655_4e-2);
    q = q.mul_add(r, 1.666_657_7e-1);
    q = q.mul_add(r, 0.5);
    let y = q.mul_add(r * r, r) + 1.0;
    let n = shifted.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    let half = n >> 1;
    y * pow2(half) * pow2(n - half)
}

/// `σ(x) = 1 / (1 + e⁻ˣ)`.
#[inline(always)]
fn sigmoid_lane(x: Float) -> Float {
    1.0 / (1.0 + exp_lane(-x))
}

/// `tanh x = sign(x)·(1 − 2 / (e^{2|x|} + 1))`.
#[inline(always)]
fn tanh_lane(x: Float) -> Float {
    let e = exp_lane(2.0 * x.abs());
    (1.0 - 2.0 / (e + 1.0)).copysign(x)
}

/// The time encoder's argument `ω·Δt + φ` — the one place it is formed, so
/// the forward (`cos`) and backward (`sin`) passes cannot round it
/// differently.
#[inline(always)]
fn time_arg(omega: Float, dt: Float, phi: Float) -> Float {
    omega * dt + phi
}

/// `cos(arg)` (or `sin(arg)` when `SIN`).  `arg = n·π + r`: with the fused
/// multiply-add `arg − n·π₁` is exact (`n·π₁` is a multiple of `2⁻²²` and
/// the difference stays below 2), so two steps reduce even `|arg| ≈ 10⁷` to
/// within `7·10⁻⁸`; a degree-5 minimax polynomial in `r²` on `|r| ≤ 1.85`
/// (the magic round may miss the nearest `n` by one ulp of `arg/π`) and the
/// parity of `n` as the sign bit finish it.
#[inline(always)]
fn cos_sin_lane<const SIN: bool>(arg: Float) -> Float {
    const INV_PI: Float = std::f32::consts::FRAC_1_PI;
    const PI_HI: Float = std::f32::consts::PI;
    const PI_LO: Float = -8.742_278e-8;
    let (shifted, n) = round_magic(arg, INV_PI);
    let r = n.mul_add(-PI_HI, arg);
    let r = n.mul_add(-PI_LO, r);
    // Only binds beyond |arg| ≈ 1.3·10⁷, where it keeps the result bounded.
    let r = r.clamp(-1.85, 1.85);
    let u = r * r;
    let value = if SIN {
        let mut s: Float = -2.345_268_7e-8;
        s = s.mul_add(u, 2.749_634_7e-6);
        s = s.mul_add(u, -1.984_019_3e-4);
        s = s.mul_add(u, 8.333_325e-3);
        s = s.mul_add(u, -1.666_666_6e-1);
        s = s.mul_add(u, 1.0);
        s * r
    } else {
        let mut c: Float = -2.548_777_3e-7;
        c = c.mul_add(u, 2.472_281_5e-5);
        c = c.mul_add(u, -1.388_749_9e-3);
        c = c.mul_add(u, 4.166_655_5e-2);
        c = c.mul_add(u, -0.499_999_97);
        c.mul_add(u, 1.0)
    };
    // cos(nπ + r) = (−1)ⁿ·cos r, and likewise for sin.
    Float::from_bits(value.to_bits() ^ (shifted.to_bits() << 31))
}

const EXP: u8 = 0;
const SIGMOID: u8 = 1;
const TANH: u8 = 2;

#[inline(always)]
fn unary_portable<const OP: u8>(xs: &mut [Float]) {
    for x in xs {
        *x = match OP {
            EXP => exp_lane(*x),
            SIGMOID => sigmoid_lane(*x),
            _ => tanh_lane(*x),
        };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn unary_fma<const OP: u8>(xs: &mut [Float]) {
    unary_portable::<OP>(xs);
}

fn unary<const OP: u8>(xs: &mut [Float]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { unary_fma::<OP>(xs) };
        return;
    }
    unary_portable::<OP>(xs);
}

/// `x ← eˣ` for every element.
pub fn exp_slice(xs: &mut [Float]) {
    unary::<EXP>(xs);
}

/// `x ← σ(x)` for every element.
pub fn sigmoid_slice(xs: &mut [Float]) {
    unary::<SIGMOID>(xs);
}

/// `x ← tanh x` for every element.
pub fn tanh_slice(xs: &mut [Float]) {
    unary::<TANH>(xs);
}

#[inline(always)]
fn time_rows_portable<const SIN: bool>(
    omega: &[Float],
    phi: &[Float],
    dts: &[Float],
    out: &mut [Float],
) {
    let dim = omega.len();
    if dim == 0 {
        return;
    }
    for (row, &dt) in out.chunks_exact_mut(dim).zip(dts) {
        for ((o, &w), &p) in row.iter_mut().zip(omega).zip(phi) {
            *o = cos_sin_lane::<SIN>(time_arg(w, dt, p));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn time_rows_fma<const SIN: bool>(
    omega: &[Float],
    phi: &[Float],
    dts: &[Float],
    out: &mut [Float],
) {
    time_rows_portable::<SIN>(omega, phi, dts, out);
}

fn time_rows<const SIN: bool>(omega: &[Float], phi: &[Float], dts: &[Float], out: &mut [Float]) {
    assert_eq!(omega.len(), phi.len(), "time encoding: ω/φ length mismatch");
    assert_eq!(
        out.len(),
        dts.len() * omega.len(),
        "time encoding: output is not Δt-count × dim"
    );
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { time_rows_fma::<SIN>(omega, phi, dts, out) };
        return;
    }
    time_rows_portable::<SIN>(omega, phi, dts, out);
}

/// The trigonometric time encoding: row `i` of `out` (`dts.len() × dim`,
/// row-major) becomes `cos(ω·dts[i] + φ)`.
///
/// # Panics
/// Panics if `omega` and `phi` differ in length or `out` is not
/// `dts.len() × omega.len()` long.
pub fn cos_time_into(omega: &[Float], phi: &[Float], dts: &[Float], out: &mut [Float]) {
    time_rows::<false>(omega, phi, dts, out);
}

/// [`cos_time_into`] with `sin` of the *same* argument — the derivative the
/// encoder's backward pass needs.
pub fn sin_time_into(omega: &[Float], phi: &[Float], dts: &[Float], out: &mut [Float]) {
    time_rows::<true>(omega, phi, dts, out);
}

/// Lanes per step of the gate pass: one 256-bit vector of `f32`.
const GATE_LANES: usize = 8;

/// One lane of the gate recurrence: `(1 − z)·n + z·s`.
#[inline(always)]
fn gru_gate_lane(gi: [Float; 3], gh: [Float; 3], s: Float) -> Float {
    let r = sigmoid_lane(gi[0] + gh[0]);
    let z = sigmoid_lane(gi[1] + gh[1]);
    let n = tanh_lane(gi[2] + r * gh[2]);
    (1.0 - z) * n + z * s
}

/// Lanes `from..to` of one row's gate pass; `gi`/`gh` are the row's
/// `[r | z | n]` blocks, each `h` wide.
#[inline(always)]
fn gru_gate_lanes(
    gi: &[Float],
    gh: &[Float],
    s: &[Float],
    h: usize,
    (from, to): (usize, usize),
    out: &mut [Float],
) {
    // Equal, loop-invariant lengths let the loop vectorise without
    // per-element bounds checks.
    let gi = [0, 1, 2].map(|k| &gi[k * h + from..k * h + to]);
    let gh = [0, 1, 2].map(|k| &gh[k * h + from..k * h + to]);
    let (s, out) = (&s[from..to], &mut out[from..to]);
    for j in 0..to - from {
        out[j] = gru_gate_lane(gi.map(|g| g[j]), gh.map(|g| g[j]), s[j]);
    }
}

#[inline(always)]
fn gru_gates_portable(gi: &[Float], gh: &[Float], hidden: &[Float], h: usize, out: &mut [Float]) {
    if h == 0 {
        return;
    }
    // Whole vectors first.  The `h % 8` lanes left over (4 of the paper's
    // 100) would run lane by lane; instead the last *full* vector's worth of
    // lanes, `h − 8..h`, runs as one more step, recomputing up to seven
    // lanes it overlaps — the lane function is pure in its inputs, which
    // the pass does not overwrite, so the bits are the same.  (Rows narrower
    // than a vector have only their leftover lanes.)
    let full = h - h % GATE_LANES;
    let rows = gi.chunks_exact(3 * h).zip(gh.chunks_exact(3 * h));
    let state = hidden.chunks_exact(h).zip(out.chunks_exact_mut(h));
    for ((gi, gh), (s, out)) in rows.zip(state) {
        gru_gate_lanes(gi, gh, s, h, (0, full), out);
        if full == h {
            continue;
        }
        // `h − (h − 8)` folds to a constant trip count, which is what makes
        // the overlapping step one vector step: spelled so that it does not
        // fold (a `Range`'s `len()`, a `saturating_sub`) the step runs lane
        // by lane and `perf_baseline`'s gate row is ~50–100 ns/row worse.
        if h < GATE_LANES {
            gru_gate_lanes(gi, gh, s, h, (0, h), out);
        } else {
            gru_gate_lanes(gi, gh, s, h, (h - GATE_LANES, h), out);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gru_gates_fma(gi: &[Float], gh: &[Float], hidden: &[Float], h: usize, out: &mut [Float]) {
    gru_gates_portable(gi, gh, hidden, h, out);
}

/// The GRU's elementwise stage (Eq. 7–10) in one pass.  `gi` and `gh` are
/// the input-side and hidden-side pre-activations, `rows × 3h` with column
/// blocks `[r | z | n]`; `hidden` and `out` are `rows × h`:
///
/// ```text
/// r = σ(gi_r + gh_r)    z = σ(gi_z + gh_z)    n = tanh(gi_n + r·gh_n)
/// out = (1 − z)·n + z·hidden
/// ```
///
/// # Panics
/// Panics if the shapes disagree.
pub fn gru_gates_into(gi: &Matrix, gh: &Matrix, hidden: &Matrix, out: &mut Matrix) {
    let (rows, h) = hidden.shape();
    assert_eq!(gi.shape(), (rows, 3 * h), "gru_gates: gi is not rows × 3h");
    assert_eq!(gh.shape(), (rows, 3 * h), "gru_gates: gh is not rows × 3h");
    assert_eq!(out.shape(), (rows, h), "gru_gates: output shape mismatch");
    let (gi, gh, hidden, out) = (
        gi.as_slice(),
        gh.as_slice(),
        hidden.as_slice(),
        out.as_mut_slice(),
    );
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { gru_gates_fma(gi, gh, hidden, h, out) };
        return;
    }
    gru_gates_portable(gi, gh, hidden, h, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    /// Lengths off every vector boundary, the paper's gate widths, and one
    /// median GRU batch (`111 × 300`).
    fn lengths() -> Vec<usize> {
        (0..=33).chain([100, 300, 111 * 300]).collect()
    }

    /// Inputs covering the saturated tails, the polynomial range and exact
    /// special values, cycled to `len`.
    fn inputs(len: usize, rng: &mut TensorRng) -> Vec<Float> {
        const SPECIAL: [Float; 10] = [
            0.0, -0.0, 1e-40, -1e-40, 88.0, -88.0, 100.0, -100.0, 0.5, -3.0,
        ];
        (0..len)
            .map(|i| match i % 4 {
                0 => SPECIAL[(i / 4) % SPECIAL.len()],
                1 => rng.uniform(-110.0, 110.0),
                _ => rng.uniform(-8.0, 8.0),
            })
            .collect()
    }

    fn bits(xs: &[Float]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn both_compilations_of_every_unary_kernel_equal_the_lane_function() {
        fn check<const OP: u8>(name: &str, lane: fn(Float) -> Float, rng: &mut TensorRng) {
            for len in lengths() {
                let xs = inputs(len, rng);
                let expect: Vec<u32> = xs.iter().map(|&x| lane(x).to_bits()).collect();
                let mut portable = xs.clone();
                unary_portable::<OP>(&mut portable);
                assert_eq!(bits(&portable), expect, "{name} portable, len {len}");
                let mut dispatched = xs.clone();
                unary::<OP>(&mut dispatched);
                assert_eq!(bits(&dispatched), expect, "{name} dispatched, len {len}");
                #[cfg(target_arch = "x86_64")]
                if fma_available() {
                    let mut fma = xs.clone();
                    // SAFETY: feature presence checked just above.
                    unsafe { unary_fma::<OP>(&mut fma) };
                    assert_eq!(bits(&fma), expect, "{name} avx2+fma, len {len}");
                }
            }
        }
        let mut rng = TensorRng::new(15);
        check::<EXP>("exp", exp_lane, &mut rng);
        check::<SIGMOID>("sigmoid", sigmoid_lane, &mut rng);
        check::<TANH>("tanh", tanh_lane, &mut rng);
    }

    #[test]
    fn both_compilations_of_the_time_kernels_equal_the_lane_function() {
        fn check<const SIN: bool>(rng: &mut TensorRng) {
            // `dim` sweeps the vector boundaries; 111 × 100 is a paper batch.
            let shapes = (1..=33).map(|d| (3, d)).chain([(0, 7), (2, 0), (111, 100)]);
            for (rows, dim) in shapes {
                let omega = rng.uniform_vec(dim, 1e-6, 1.5);
                let phi = rng.uniform_vec(dim, 0.0, std::f32::consts::PI);
                let dts: Vec<Float> = (0..rows)
                    .map(|i| {
                        if i == 0 {
                            0.0
                        } else {
                            rng.pareto(0.5, 0.6).min(2.7e6)
                        }
                    })
                    .collect();
                let expect: Vec<u32> = dts
                    .iter()
                    .flat_map(|&dt| omega.iter().zip(&phi).map(move |(&w, &p)| (w, dt, p)))
                    .map(|(w, dt, p)| cos_sin_lane::<SIN>(time_arg(w, dt, p)).to_bits())
                    .collect();
                let what = format!("sin={SIN} {rows}x{dim}");
                let mut out = vec![42.0; rows * dim];
                time_rows_portable::<SIN>(&omega, &phi, &dts, &mut out);
                assert_eq!(bits(&out), expect, "portable {what}");
                out.fill(42.0);
                time_rows::<SIN>(&omega, &phi, &dts, &mut out);
                assert_eq!(bits(&out), expect, "dispatched {what}");
                #[cfg(target_arch = "x86_64")]
                if fma_available() {
                    out.fill(42.0);
                    // SAFETY: feature presence checked just above.
                    unsafe { time_rows_fma::<SIN>(&omega, &phi, &dts, &mut out) };
                    assert_eq!(bits(&out), expect, "avx2+fma {what}");
                }
            }
        }
        let mut rng = TensorRng::new(16);
        check::<false>(&mut rng);
        check::<true>(&mut rng);
    }

    #[test]
    fn both_compilations_of_the_gru_gate_pass_equal_the_lane_functions() {
        let mut rng = TensorRng::new(17);
        let shapes = (0..=33)
            .map(|h| (2, h))
            .chain([(0, 5), (111, 100), (5, 300)]);
        for (rows, h) in shapes {
            let gi = rng.uniform_vec(rows * 3 * h, -6.0, 6.0);
            let gh = rng.uniform_vec(rows * 3 * h, -6.0, 6.0);
            let hidden = rng.uniform_vec(rows * h, -1.0, 1.0);
            let mut expect = Vec::with_capacity(rows * h);
            for i in 0..rows {
                for j in 0..h {
                    let at = |g: &[Float], gate: usize| g[i * 3 * h + gate * h + j];
                    let r = sigmoid_lane(at(&gi, 0) + at(&gh, 0));
                    let z = sigmoid_lane(at(&gi, 1) + at(&gh, 1));
                    let n = tanh_lane(at(&gi, 2) + r * at(&gh, 2));
                    expect.push(((1.0 - z) * n + z * hidden[i * h + j]).to_bits());
                }
            }
            let mut out = vec![42.0; rows * h];
            gru_gates_portable(&gi, &gh, &hidden, h, &mut out);
            assert_eq!(bits(&out), expect, "portable {rows}x{h}");
            let mut dispatched = Matrix::full(rows, h, 42.0);
            gru_gates_into(
                &Matrix::from_vec(rows, 3 * h, gi.clone()),
                &Matrix::from_vec(rows, 3 * h, gh.clone()),
                &Matrix::from_vec(rows, h, hidden.clone()),
                &mut dispatched,
            );
            assert_eq!(bits(dispatched.as_slice()), expect, "dispatched {rows}x{h}");
            #[cfg(target_arch = "x86_64")]
            if fma_available() {
                out.fill(42.0);
                // SAFETY: feature presence checked just above.
                unsafe { gru_gates_fma(&gi, &gh, &hidden, h, &mut out) };
                assert_eq!(bits(&out), expect, "avx2+fma {rows}x{h}");
            }
        }
    }

    fn apply(kernel: fn(&mut [Float]), x: Float) -> Float {
        let mut v = [x];
        kernel(&mut v);
        v[0]
    }

    fn cos_of(arg: Float) -> Float {
        let mut out = [0.0];
        cos_time_into(&[1.0], &[0.0], &[arg], &mut out);
        out[0]
    }

    fn sin_of(arg: Float) -> Float {
        let mut out = [0.0];
        sin_time_into(&[1.0], &[0.0], &[arg], &mut out);
        out[0]
    }

    #[test]
    fn special_values() {
        let inf = Float::INFINITY;
        let exp = |x| apply(exp_slice, x);
        let sigmoid = |x| apply(sigmoid_slice, x);
        let tanh = |x| apply(tanh_slice, x);

        for x in [0.0, -0.0, 1e-40, -1e-40] {
            assert_eq!(exp(x), 1.0, "exp({x:e})");
            assert_eq!(sigmoid(x), 0.5, "sigmoid({x:e})");
            assert_eq!(cos_of(x), 1.0, "cos({x:e})");
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits(), "tanh(0) == 0");
        assert_eq!(
            tanh(-0.0).to_bits(),
            (-0.0f32).to_bits(),
            "tanh is odd at 0"
        );
        assert_eq!(sin_of(0.0), 0.0);

        assert_eq!(exp(inf), inf);
        assert_eq!(exp(-inf), 0.0);
        assert_eq!(exp(100.0), inf);
        assert_eq!(exp(-104.0), 0.0);
        assert_eq!((sigmoid(inf), sigmoid(-inf)), (1.0, 0.0));
        assert_eq!((sigmoid(100.0), sigmoid(-100.0)), (1.0, 0.0));
        assert_eq!((tanh(inf), tanh(-inf)), (1.0, -1.0));
        assert_eq!((tanh(100.0), tanh(-100.0)), (1.0, -1.0));

        // ±88 is inside exp's finite range; the subnormal tail is gradual.
        for (x, want) in [
            (88.0f32, 88.0f64.exp()),
            (-88.0, (-88.0f64).exp()),
            (-90.0, (-90.0f64).exp()),
        ] {
            let got = exp(x) as f64;
            assert!(
                ((got - want) / want).abs() < 1e-4,
                "exp({x}) = {got:e}, want {want:e}"
            );
        }
        assert!(exp(88.7).is_finite() && exp(88.73) == inf);

        for kernel in [exp_slice, sigmoid_slice, tanh_slice] {
            assert!(apply(kernel, Float::NAN).is_nan(), "NaN propagates");
        }
        for x in [Float::NAN, inf, -inf] {
            assert!(cos_of(x).is_nan() && sin_of(x).is_nan(), "cos/sin({x})");
        }
        // Bounded everywhere finite, including where the reduction gives up.
        for x in [1.0, 3.2, 1e5, 4e6, 1.3e7, 2e7, 1e12, 3e38] {
            for x in [x, -x] {
                assert!(cos_of(x).abs() <= 1.0, "|cos({x:e})| = {}", cos_of(x));
                assert!(sin_of(x).abs() <= 1.0 + 1e-6, "|sin({x:e})|");
            }
        }
    }

    /// `n` points covering `[-limit, limit]` evenly, plus random ones.
    fn sweep(limit: Float, n: usize, rng: &mut TensorRng) -> Vec<Float> {
        let mut xs: Vec<Float> = (0..=n)
            .map(|i| -limit + 2.0 * limit * (i as Float / n as Float))
            .collect();
        xs.extend(rng.uniform_vec(n / 4, -limit, limit));
        xs
    }

    fn worst_error(
        xs: &[Float],
        got: &[Float],
        reference: impl Fn(f64) -> f64,
        relative: bool,
    ) -> (f64, Float) {
        let mut worst = (0.0, 0.0);
        for (&x, &y) in xs.iter().zip(got) {
            let want = reference(x as f64);
            let err = (y as f64 - want).abs() / if relative { want.abs() } else { 1.0 };
            if err > worst.0 {
                worst = (err, x);
            }
        }
        worst
    }

    #[test]
    fn accuracy_against_an_f64_reference() {
        let mut rng = TensorRng::new(18);
        let xs = sweep(20.0, 400_000, &mut rng);
        type Case = (&'static str, fn(&mut [Float]), fn(f64) -> f64, bool);
        let cases: [Case; 3] = [
            ("exp", exp_slice, f64::exp, true),
            (
                "sigmoid",
                sigmoid_slice,
                |x| 1.0 / (1.0 + (-x).exp()),
                false,
            ),
            ("tanh", tanh_slice, f64::tanh, false),
        ];
        for (name, kernel, reference, relative) in cases {
            let mut got = xs.clone();
            kernel(&mut got);
            let (err, at) = worst_error(&xs, &got, reference, relative);
            assert!(err <= 4e-7, "{name}: error {err:e} at {at}");
        }
    }

    #[test]
    fn cos_and_sin_stay_accurate_out_to_the_largest_preset_argument() {
        // ω ≤ 1.5 and Δt ≤ a month of seconds: |ω·Δt + φ| ≤ 4·10⁶.
        let mut rng = TensorRng::new(19);
        let mut args = sweep(10.0, 200_000, &mut rng);
        args.extend(sweep(4e6, 400_000, &mut rng));
        // Log-spaced magnitudes, and the neighbourhoods of the zeros of cos
        // and sin (multiples of π/2), where a sloppy reduction shows.
        for i in 0..100_000 {
            let magnitude = 10f32.powf(rng.uniform(-3.0, 6.6));
            args.push(if i % 2 == 0 { magnitude } else { -magnitude });
            let k = rng.index(2_500_000) as f64;
            args.push((k * std::f64::consts::FRAC_PI_2) as Float);
        }
        for (name, kernel, reference) in [
            (
                "cos",
                cos_time_into as fn(&[Float], &[Float], &[Float], &mut [Float]),
                f64::cos as fn(f64) -> f64,
            ),
            ("sin", sin_time_into, f64::sin),
        ] {
            let mut got = vec![0.0; args.len()];
            kernel(&[1.0], &[0.0], &args, &mut got);
            let (err, at) = worst_error(&args, &got, reference, false);
            assert!(err <= 2e-6, "{name}: error {err:e} at {at}");
        }
    }

    #[test]
    fn the_time_argument_is_formed_once_for_cos_and_sin() {
        // cos² + sin² = 1 only if both saw the same rounded argument; at
        // |arg| ≈ 10⁶ one ulp of drift would cost 0.06.
        let mut rng = TensorRng::new(20);
        let omega = rng.uniform_vec(100, 0.5, 1.5);
        let phi = rng.uniform_vec(100, 0.0, std::f32::consts::PI);
        let dts = rng.uniform_vec(64, 1e5, 2.7e6);
        let mut cos = vec![0.0; 6400];
        let mut sin = vec![0.0; 6400];
        cos_time_into(&omega, &phi, &dts, &mut cos);
        sin_time_into(&omega, &phi, &dts, &mut sin);
        for (c, s) in cos.iter().zip(&sin) {
            assert!((c * c + s * s - 1.0).abs() < 1e-6, "cos {c} sin {s}");
        }
    }
}
