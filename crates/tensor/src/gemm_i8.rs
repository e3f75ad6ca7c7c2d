//! Packed int8 matrix-multiplication kernel with a dequantizing f32 epilogue
//! — the CPU analogue of the FPGA's fixed-point datapath.
//!
//! The paper's accelerator runs its multiply-accumulate arrays on low-
//! precision fixed-point values; on a CPU the same trick quadruples the
//! values per SIMD lane and quarters the memory traffic of the weight
//! panels, which is exactly what bounds the f32 packed kernel at attention
//! sizes.  The kernel computes
//!
//! ```text
//! C[i][j] = (Σ_k A_q[i][k] · B_q[j][k]) · scale[j] + bias[j]
//! ```
//!
//! where `A_q`/`B_q` are `i8` (activations / weights), the accumulation is
//! exact `i32`, and the epilogue applies the dequantization (`scale[j]`
//! typically `a_scale · w_scale[j]`) and bias add in the same pass, so no
//! intermediate i32 matrix is materialised.  The epilogue is **unfused** on
//! every path — `(acc as f32 · scale) + bias`, three roundings, no FMA —
//! so given the same integer sum every path writes the same bits.
//!
//! Layout contract (shared by the scalar, AVX2 and VNNI paths, so all three
//! produce **identical** results — integer accumulation is exact regardless
//! of vectorisation):
//!
//! * The right-hand side is the weight matrix in `Linear`'s natural
//!   `out_dim × in_dim` row-major layout (i.e. already transposed), packed by
//!   [`pack_rhs_i8`] into panels of [`NR_I8`] output columns × k-blocks of
//!   [`KB_I8`] values: within a k-block the 4 consecutive `k` values of one
//!   output column are adjacent bytes.  This is the byte order
//!   `maddubs`/`madd` and `vpdpbusd` reduce natively: 4 adjacent bytes →
//!   one i32 lane.
//! * The left-hand side rows are `i8` with a stride rounded up to a multiple
//!   of [`KB_I8`] and zero-padded (see [`padded_k`]), so the vector path can
//!   read whole 4-byte groups without a tail loop.
//!
//! The loop is compiled three times and picked at run time by CPU feature
//! (`I8Kernel`).  The AVX2 path uses the standard `abs/sign` trick to feed
//! the unsigned × signed `maddubs` instruction with two signed operands:
//! `maddubs(|a|, sign(b, a)) = a·b` per byte pair.  Because quantized values
//! are clamped to `[-127, 127]` (never −128), the intermediate i16 pair sums
//! are bounded by `2·127² = 32258 < 32767` and can never saturate, keeping
//! the vector path exactly equal to the scalar loop.
//!
//! The VNNI path (`avx512_vnni`) replaces `maddubs + madd + add` with one
//! `vpdpbusd`: four u8 × i8 products, each exact in i16 (`|255·127| <
//! 2¹⁵`), summed into an i32 lane without saturation.  Its unsigned operand
//! is the weight offset by +128 (`b ^ 0x80` as u8 ∈ `[1, 255]`), flipped in
//! the register once per panel row and shared by the tile's `MR_VNNI` rows
//! — offsetting each broadcast activation instead costs one more
//! instruction per `vpdpbusd` and measured half the speed.  Each row's
//! accumulators start at `−128·Σ_k a[i][k]`, so they end at
//! `Σ_k (b + 128)·a − 128·Σ_k a = Σ_k a·b`: every step is exact arithmetic
//! modulo 2³² and the true sum fits in an i32, so the result equals the
//! scalar loop's (k-padding cancels too: a padded weight byte is 0, so
//! `(0 + 128)·a` meets its own `−128·a`).  Two 8-column panels share one
//! ZMM register, so the packed layout did not change.

use crate::{Float, Matrix};

/// Output columns per packed panel: the i32 lanes of one 256-bit register,
/// or half of a 512-bit one (the VNNI path runs two panels per register).
pub const NR_I8: usize = 8;
/// `k` values per block — the 4 adjacent bytes one `maddubs`+`madd` pair,
/// or one `vpdpbusd`, reduces into a single i32 lane.
pub const KB_I8: usize = 4;

/// Quantized values are clamped to `±Q_MAX`; −128 is excluded so the AVX2
/// `abs/sign` trick and the i16 intermediate bound both hold.
pub const Q_MAX: i32 = 127;

/// `k` rounded up to a whole number of [`KB_I8`] blocks — the row stride
/// quantized activation buffers must use.
#[inline]
pub fn padded_k(k: usize) -> usize {
    k.div_ceil(KB_I8) * KB_I8
}

/// Length in bytes of the packed right-hand side for an `n × k` weight
/// matrix.
#[inline]
pub fn packed_rhs_len(n: usize, k: usize) -> usize {
    n.div_ceil(NR_I8) * padded_k(k) * NR_I8
}

/// Quantizes a f32 slice to saturating round-to-nearest i8 with the given
/// scale, writing `dst[..src.len()]` and zero-filling the rest (k padding).
///
/// Guarantees: output is always in `[-127, 127]`; non-finite inputs (NaN,
/// ±∞ overflowing the scale) saturate to 0 / ±127 — the output is never
/// garbage, matching the hardware's saturating converters.
///
/// # Panics
/// Panics if `dst` is shorter than `src` or `scale` is not positive.
pub fn quantize_slice_into(src: &[Float], scale: Float, dst: &mut [i8]) {
    assert!(dst.len() >= src.len(), "quantize_slice_into: dst too short");
    assert!(
        scale > 0.0 && scale.is_finite(),
        "quantize_slice_into: scale must be positive and finite"
    );
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked at runtime just above.
            unsafe { quantize_slice_avx2(src, inv, dst) };
            dst[src.len()..].fill(0);
            return;
        }
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = quantize_value(x, inv);
    }
    dst[src.len()..].fill(0);
}

/// Vectorised [`quantize_value`] over a slice, 32 values per iteration —
/// activation quantization is on the int8 hot path once per element, so it
/// must not run scalar.  Produces exactly the scalar results: the same
/// `+±0.5` / truncate rounding, saturation to ±127 via a float clamp (NaN
/// lanes are zeroed first, so the clamp sees only ordered values), and the
/// final `packs` saturation can no longer engage.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(src: &[Float], inv: Float, dst: &mut [i8]) {
    use std::arch::x86_64::*;

    let inv_v = _mm256_set1_ps(inv);
    let half = _mm256_set1_ps(0.5);
    let sign_mask = _mm256_set1_ps(-0.0);
    let qmax = _mm256_set1_ps(Q_MAX as Float);
    let qmin = _mm256_set1_ps(-(Q_MAX as Float));
    // packs_epi32/packs_epi16 interleave 128-bit lanes; this permutation
    // restores source order after both packs.
    let unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);

    // One 256-bit ymm of i8 output per iteration = 4 ymm of f32 input.
    let chunks = src.len() / 32;
    for c in 0..chunks {
        let mut quads = [_mm256_setzero_si256(); 4];
        for (q, quad) in quads.iter_mut().enumerate() {
            let v = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(c * 32 + q * 8)), inv_v);
            // r = v + copysign(0.5, v), the round-half-away-from-zero trick.
            let r = _mm256_add_ps(v, _mm256_or_ps(half, _mm256_and_ps(v, sign_mask)));
            // NaN → 0 (unordered-compare mask), then clamp to ±127 so ±∞ and
            // out-of-range values saturate exactly like the scalar cast.
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            let r = _mm256_andnot_ps(nan, r);
            let r = _mm256_min_ps(_mm256_max_ps(r, qmin), qmax);
            *quad = _mm256_cvttps_epi32(r);
        }
        let lo = _mm256_packs_epi32(quads[0], quads[1]);
        let hi = _mm256_packs_epi32(quads[2], quads[3]);
        let bytes = _mm256_packs_epi16(lo, hi);
        let ordered = _mm256_permutevar8x32_epi32(bytes, unshuffle);
        _mm256_storeu_si256(dst.as_mut_ptr().add(c * 32) as *mut __m256i, ordered);
    }
    for i in chunks * 32..src.len() {
        dst[i] = quantize_value(src[i], inv);
    }
}

/// Quantizes one value given the *inverse* scale: saturating
/// round-to-nearest (half away from zero), NaN → 0.
///
/// Branchless on purpose — activation quantization runs once per element on
/// the int8 hot path and must vectorise: rounding is `+±0.5` then truncation,
/// saturation and NaN → 0 come free with Rust's saturating `as` cast, and a
/// final integer max lifts −128 to −127 (the kernel's no-−128 invariant).
#[inline]
pub fn quantize_value(x: Float, inv_scale: Float) -> i8 {
    let v = x * inv_scale;
    let r = v + (0.5 as Float).copysign(v);
    (r as i8).max(-(Q_MAX as i8))
}

/// Packs the right-hand side `bt` (`n × k`, row-major — `Linear`'s
/// `out_dim × in_dim` weight layout) into `⌈n/NR_I8⌉` panels.
///
/// Panel byte order: `panel → k-block → lane j → 4 k values`, zero-padding
/// both the lane tail (`n % NR_I8`) and the k tail (`k % KB_I8`).
///
/// # Panics
/// Panics if `packed` is shorter than [`packed_rhs_len`]`(n, k)`.
pub fn pack_rhs_i8(bt: &[i8], n: usize, k: usize, packed: &mut [i8]) {
    assert!(bt.len() >= n * k, "pack_rhs_i8: rhs too short");
    let kp = padded_k(k);
    assert!(
        packed.len() >= packed_rhs_len(n, k),
        "pack_rhs_i8: packed buffer too short"
    );
    let panels = n.div_ceil(NR_I8);
    let panel_bytes = kp * NR_I8;
    for p in 0..panels {
        let j0 = p * NR_I8;
        let width = NR_I8.min(n - j0);
        let dst_panel = &mut packed[p * panel_bytes..(p + 1) * panel_bytes];
        dst_panel.fill(0);
        for kb in 0..kp / KB_I8 {
            let k0 = kb * KB_I8;
            let kw = KB_I8.min(k.saturating_sub(k0));
            let block = &mut dst_panel[kb * NR_I8 * KB_I8..(kb + 1) * NR_I8 * KB_I8];
            for j in 0..width {
                let src_row = &bt[(j0 + j) * k..(j0 + j) * k + k];
                let dst = &mut block[j * KB_I8..j * KB_I8 + KB_I8];
                dst[..kw].copy_from_slice(&src_row[k0..k0 + kw]);
            }
        }
    }
}

/// `C (m×n) = dequant(A_q (m×kp, i8) · packed_rhsᵀ) ⊙ scale + bias`, the
/// int8 inference GEMM.
///
/// * `a_q` — quantized activations, row stride `padded_k(k)`, zero-padded.
/// * `packed` — output of [`pack_rhs_i8`] for the `n × k` weight matrix.
/// * `scales` — per-output-column dequant factors (length `n`), typically
///   `a_scale · w_scale[j]`.
/// * `bias` — optional per-output-column f32 bias (length `n`).
///
/// Runs the fastest compilation the CPU has — VNNI, AVX2 or scalar — and
/// all three produce bit-identical results (exact integer math, the same
/// unfused epilogue).
///
/// # Panics
/// Panics on undersized buffers.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_dequant_into(
    a_q: &[i8],
    m: usize,
    k: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut Matrix,
) {
    // SAFETY: `dispatched` returns a kernel this CPU runs.
    unsafe {
        matmul_i8_dequant_on(
            I8Kernel::dispatched(),
            a_q,
            m,
            k,
            packed,
            n,
            scales,
            bias,
            out,
        )
    }
}

/// One compilation of the int8 loop.  Integer accumulation is exact, so all
/// of them produce the same sums, and through the same epilogue the same
/// bits; [`I8Kernel::dispatched`] picks the fastest the CPU has, per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum I8Kernel {
    /// Scalar loops.
    Scalar,
    /// `maddubs` + `madd` + `add` on one 8-lane panel, `MR_I8` rows a tile.
    Avx2,
    /// `vpdpbusd` on two panels per ZMM register, `MR_VNNI` rows a tile.
    Vnni,
}

impl I8Kernel {
    /// Every compilation, slowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Self; 3] = [Self::Scalar, Self::Avx2, Self::Vnni];

    /// The fastest compilation this CPU runs.
    pub(crate) fn dispatched() -> Self {
        if Self::Vnni.available() {
            Self::Vnni
        } else if Self::Avx2.available() {
            Self::Avx2
        } else {
            Self::Scalar
        }
    }

    /// True when this CPU can run the compilation.
    pub(crate) fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Self::Scalar => true,
                Self::Avx2 => has!("avx2"),
                Self::Vnni => has!("avx512f") && has!("avx512vnni"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Self::Scalar
        }
    }

    /// The CPU feature the compilation is built for.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Vnni => "avx512_vnni",
        }
    }
}

/// [`matmul_i8_dequant_into`] on the given compilation.
///
/// # Safety
/// `kernel.available()` must hold.
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_i8_dequant_on(
    kernel: I8Kernel,
    a_q: &[i8],
    m: usize,
    k: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut Matrix,
) {
    let kp = padded_k(k);
    assert!(a_q.len() >= m * kp, "matmul_i8_dequant_into: lhs too short");
    assert!(
        packed.len() >= packed_rhs_len(n, k),
        "matmul_i8_dequant_into: rhs too short"
    );
    assert_eq!(scales.len(), n, "matmul_i8_dequant_into: scales length");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "matmul_i8_dequant_into: bias length");
    }
    assert_eq!(
        out.shape(),
        (m, n),
        "matmul_i8_dequant_into: output shape mismatch"
    );
    if m == 0 || n == 0 {
        return;
    }
    let out = out.as_mut_slice();
    match kernel {
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Vnni => gemm_i8_loop_vnni(a_q, m, kp, packed, n, scales, bias, out),
        #[cfg(target_arch = "x86_64")]
        I8Kernel::Avx2 => gemm_i8_loop_avx2(a_q, m, kp, packed, n, scales, bias, out),
        _ => gemm_i8_loop_scalar(a_q, m, kp, packed, n, scales, bias, out),
    }
}

/// Raw i32 accumulation (no dequant) — the reference the property tests pin
/// both dispatch paths against, and a building block for integer-only
/// pipelines.  `c` is row-major `m × n`.
pub fn matmul_i8_i32_into(a_q: &[i8], m: usize, k: usize, packed: &[i8], n: usize, c: &mut [i32]) {
    let kp = padded_k(k);
    assert!(a_q.len() >= m * kp, "matmul_i8_i32_into: lhs too short");
    assert!(c.len() >= m * n, "matmul_i8_i32_into: output too short");
    let panel_bytes = kp * NR_I8;
    for i in 0..m {
        let a_row = &a_q[i * kp..(i + 1) * kp];
        for j in 0..n {
            let p = j / NR_I8;
            let lane = j % NR_I8;
            let panel = &packed[p * panel_bytes..(p + 1) * panel_bytes];
            let mut acc = 0i32;
            for kb in 0..kp / KB_I8 {
                let block = &panel[kb * NR_I8 * KB_I8..];
                for kk in 0..KB_I8 {
                    acc += a_row[kb * KB_I8 + kk] as i32 * block[lane * KB_I8 + kk] as i32;
                }
            }
            c[i * n + j] = acc;
        }
    }
}

/// Rows of A per AVX2 register tile.
const MR_I8: usize = 4;

#[allow(clippy::too_many_arguments)]
fn gemm_i8_loop_scalar(
    a_q: &[i8],
    m: usize,
    kp: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut [Float],
) {
    let panel_bytes = kp * NR_I8;
    let panels = n.div_ceil(NR_I8);
    for p in 0..panels {
        let j0 = p * NR_I8;
        let width = NR_I8.min(n - j0);
        let panel = &packed[p * panel_bytes..(p + 1) * panel_bytes];
        for i in 0..m {
            let a_row = &a_q[i * kp..(i + 1) * kp];
            let mut acc = [0i32; NR_I8];
            for kb in 0..kp / KB_I8 {
                let a_blk = &a_row[kb * KB_I8..kb * KB_I8 + KB_I8];
                let b_blk = &panel[kb * NR_I8 * KB_I8..(kb + 1) * NR_I8 * KB_I8];
                for (j, acc_j) in acc.iter_mut().enumerate() {
                    let b = &b_blk[j * KB_I8..j * KB_I8 + KB_I8];
                    *acc_j += a_blk[0] as i32 * b[0] as i32
                        + a_blk[1] as i32 * b[1] as i32
                        + a_blk[2] as i32 * b[2] as i32
                        + a_blk[3] as i32 * b[3] as i32;
                }
            }
            let out_row = &mut out[i * n + j0..i * n + j0 + width];
            for (j, o) in out_row.iter_mut().enumerate() {
                let v = acc[j] as Float * scales[j0 + j];
                *o = match bias {
                    Some(b) => v + b[j0 + j],
                    None => v,
                };
            }
        }
    }
}

/// AVX2 microkernel: `MR_I8` rows × one `NR_I8`-lane panel per pass, i32
/// accumulators held in registers, `maddubs`+`madd` reducing 4 bytes per
/// lane per instruction pair.  Exactly equal to the scalar loop (saturation
/// impossible — see module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_i8_loop_avx2(
    a_q: &[i8],
    m: usize,
    kp: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut [Float],
) {
    use std::arch::x86_64::*;

    let panel_bytes = kp * NR_I8;
    let panels = n.div_ceil(NR_I8);
    let ones = _mm256_set1_epi16(1);

    // One panel (8 output lanes) at a time; rows in tiles of MR_I8 with a
    // scalar-row tail.  Within a k-block, lane j's 4 bytes live at
    // `block[4j..4j+4]` — a full 256-bit load covers all 8 lanes × 4 k.
    for p in 0..panels {
        let j0 = p * NR_I8;
        let width = NR_I8.min(n - j0);
        let panel = packed.as_ptr().add(p * panel_bytes);

        let mut i0 = 0;
        while i0 < m {
            let tile = MR_I8.min(m - i0);
            let mut acc = [_mm256_setzero_si256(); MR_I8];
            for kb in 0..kp / KB_I8 {
                let b_vec = _mm256_loadu_si256(panel.add(kb * NR_I8 * KB_I8) as *const __m256i);
                for (r, acc_r) in acc.iter_mut().take(tile).enumerate() {
                    // Broadcast this row's 4-byte k group to every lane.
                    let a_dword = (a_q.as_ptr().add((i0 + r) * kp + kb * KB_I8) as *const i32)
                        .read_unaligned();
                    let a_vec = _mm256_set1_epi32(a_dword);
                    // maddubs needs u8 × i8: |a| × sign(b, a) == a × b.
                    let a_abs = _mm256_abs_epi8(a_vec);
                    let b_signed = _mm256_sign_epi8(b_vec, a_vec);
                    let pairs_i16 = _mm256_maddubs_epi16(a_abs, b_signed);
                    let quads_i32 = _mm256_madd_epi16(pairs_i16, ones);
                    *acc_r = _mm256_add_epi32(*acc_r, quads_i32);
                }
            }
            // Dequant epilogue: i32 → f32, scale, bias.
            let mut lanes = [0i32; NR_I8];
            for (r, acc_r) in acc.iter().take(tile).enumerate() {
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *acc_r);
                let out_row = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let v = lanes[j] as Float * scales[j0 + j];
                    *o = match bias {
                        Some(b) => v + b[j0 + j],
                        None => v,
                    };
                }
            }
            i0 += tile;
        }
    }
}

/// Rows of A per VNNI register tile: 12 ZMM accumulators, each panel row
/// loaded (and offset) once for 12 `vpdpbusd`s.
const MR_VNNI: usize = 12;

/// VNNI microkernel: `MR_VNNI` rows at a time against every panel pair,
/// `vpdpbusd` reducing 4 bytes per lane per instruction.  The weights are
/// offset to unsigned in registers and each row's accumulators start at
/// the offset's correction — exact, see the module docs — and the dequant
/// epilogue is vectorised but unfused, as in the scalar loop.
///
/// # Safety
/// The CPU must support `avx512f` and `avx512vnni`; `a_q` holds `m` rows of
/// `kp` bytes, `packed` holds `⌈n/NR_I8⌉` panels of `kp·NR_I8` bytes,
/// `scales` (and `bias`) hold `n` values and `out` holds `m × n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_i8_loop_vnni(
    a_q: &[i8],
    m: usize,
    kp: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut [Float],
) {
    let mut i0 = 0;
    while i0 < m {
        let rows = MR_VNNI.min(m - i0);
        let a_rows = &a_q[i0 * kp..(i0 + rows) * kp];
        let out_rows = &mut out[i0 * n..(i0 + rows) * n];
        macro_rules! tile_of_height {
            ($($h:literal)*) => {
                match rows {
                    $($h => vnni_rows::<$h>(a_rows, kp, packed, n, scales, bias, out_rows),)*
                    _ => unreachable!("tiles are at most MR_VNNI rows"),
                }
            };
        }
        tile_of_height!(1 2 3 4 5 6 7 8 9 10 11 12);
        i0 += rows;
    }
}

/// One `TILE_M`-row tile of [`gemm_i8_loop_vnni`] across all panels, two
/// at a time: lanes 0–7 of a ZMM are panel `p`, lanes 8–15 panel `p + 1`
/// (zero weights for a lone last panel, never stored).
///
/// # Safety
/// As [`gemm_i8_loop_vnni`], with `a_rows` and `out` the tile's `TILE_M`
/// rows.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn vnni_rows<const TILE_M: usize>(
    a_rows: &[i8],
    kp: usize,
    packed: &[i8],
    n: usize,
    scales: &[Float],
    bias: Option<&[Float]>,
    out: &mut [Float],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a_rows.len(), TILE_M * kp);
    debug_assert_eq!(out.len(), TILE_M * n);
    // −128 · Σ_k a[i][k]: cancels what the +128 on the weights adds.
    let mut start = [_mm512_setzero_si512(); TILE_M];
    for (s, row) in start.iter_mut().zip(a_rows.chunks_exact(kp)) {
        let sum: i32 = row.iter().map(|&x| i32::from(x)).sum();
        *s = _mm512_set1_epi32(sum.wrapping_mul(-128));
    }
    let flip = _mm512_set1_epi8(i8::MIN);
    let a_ptr = a_rows.as_ptr();
    let panel_bytes = kp * NR_I8;
    let panels = n.div_ceil(NR_I8);
    for p in (0..panels).step_by(2) {
        let pair = p + 1 < panels;
        let j0 = p * NR_I8;
        let width = (2 * NR_I8).min(n - j0);
        let panel = packed.as_ptr().add(p * panel_bytes);
        let mut acc = start;
        for kb in 0..kp / KB_I8 {
            let at = kb * NR_I8 * KB_I8;
            let low = _mm256_loadu_si256(panel.add(at) as *const __m256i);
            let b = if pair {
                let high = _mm256_loadu_si256(panel.add(panel_bytes + at) as *const __m256i);
                _mm512_inserti64x4::<1>(_mm512_castsi256_si512(low), high)
            } else {
                _mm512_zextsi256_si512(low)
            };
            // b + 128 as u8 (the sign bit flipped).
            let b_u8 = _mm512_xor_si512(b, flip);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a_dword = (a_ptr.add(r * kp + kb * KB_I8) as *const i32).read_unaligned();
                *acc_r = _mm512_dpbusd_epi32(*acc_r, b_u8, _mm512_set1_epi32(a_dword));
            }
        }
        // Dequant epilogue, unfused: i32 → f32, × scale, + bias.
        let mask: __mmask16 = ((1u32 << width) - 1) as __mmask16;
        let scale = _mm512_maskz_loadu_ps(mask, scales.as_ptr().add(j0));
        let bias = bias.map(|b| _mm512_maskz_loadu_ps(mask, b.as_ptr().add(j0)));
        for (r, &acc_r) in acc.iter().enumerate() {
            let v = _mm512_mul_ps(_mm512_cvtepi32_ps(acc_r), scale);
            let v = match bias {
                Some(b) => _mm512_add_ps(v, b),
                None => v,
            };
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(r * n + j0), mask, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    /// Naive i32 reference straight off the unpacked operands.
    fn naive_i8(a: &[i8], m: usize, k: usize, bt: &[i8], n: usize) -> Vec<i32> {
        let kp = padded_k(k);
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * kp + kk] as i32 * bt[j * k + kk] as i32;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn random_i8(rng: &mut TensorRng, len: usize) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.uniform(-127.0, 127.0)).round() as i8)
            .collect()
    }

    /// Random quantized LHS with padded stride.
    fn random_lhs(rng: &mut TensorRng, m: usize, k: usize) -> Vec<i8> {
        let kp = padded_k(k);
        let mut a = vec![0i8; m * kp];
        for i in 0..m {
            for kk in 0..k {
                a[i * kp + kk] = (rng.uniform(-127.0, 127.0)).round() as i8;
            }
        }
        a
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 3, 1),
        (2, 4, 8),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (7, 33, 9),
        (12, 10, 16),
        (13, 64, 1),
        (13, 11, 24),
        (16, 31, 24),
        (24, 7, 25),
        (31, 47, 61),
        (64, 64, 64),
        (65, 63, 66),
        // The paper's projections: GRU input, attention K/V, attention Q.
        (138, 472, 100),
        (35, 372, 100),
        (17, 200, 100),
    ];

    /// The int8 compilations this CPU runs; each one it lacks is named on
    /// stdout, so a host without it does not pass silently.
    fn runnable_kernels() -> Vec<I8Kernel> {
        I8Kernel::ALL
            .into_iter()
            .filter(|kernel| {
                let runs = kernel.available();
                if !runs {
                    println!("skipped: cpu lacks {}", kernel.name());
                }
                runs
            })
            .collect()
    }

    /// `dequant(A·Bᵀ)` on one compilation, called directly.
    fn run(
        kernel: I8Kernel,
        a: &[i8],
        (m, k, n): (usize, usize, usize),
        packed: &[i8],
        scales: &[Float],
        bias: Option<&[Float]>,
        out: &mut Matrix,
    ) {
        assert!(kernel.available(), "{} cannot run here", kernel.name());
        // SAFETY: availability asserted just above.
        unsafe { matmul_i8_dequant_on(kernel, a, m, k, packed, n, scales, bias, out) };
    }

    #[test]
    fn every_kernel_matches_naive_reference_exactly_across_shapes_and_seeds() {
        for seed in [7u64, 21, 99] {
            let mut rng = TensorRng::new(seed);
            for &(m, k, n) in SHAPES {
                let a = random_lhs(&mut rng, m, k);
                let bt = random_i8(&mut rng, n * k);
                let mut packed = vec![0i8; packed_rhs_len(n, k)];
                pack_rhs_i8(&bt, n, k, &mut packed);

                let reference = naive_i8(&a, m, k, &bt, n);

                // Integer path.
                let mut c_i32 = vec![0i32; m * n];
                matmul_i8_i32_into(&a, m, k, &packed, n, &mut c_i32);
                assert_eq!(c_i32, reference, "i32 path at {m}x{k}x{n} seed {seed}");

                // Every dequant path equals the exact sum through the
                // unfused epilogue, `(acc as f32 · scale) + bias`, bit for
                // bit — with and without a bias.
                let scales = rng.uniform_vec(n, 1e-4, 2e-2);
                let bias = rng.uniform_vec(n, -1.0, 1.0);
                for kernel in runnable_kernels() {
                    for bias in [Some(&bias[..]), None] {
                        let mut out = Matrix::full(m, n, 42.0);
                        run(kernel, &a, (m, k, n), &packed, &scales, bias, &mut out);
                        for i in 0..m {
                            for j in 0..n {
                                let v = reference[i * n + j] as f32 * scales[j];
                                assert_eq!(
                                    out[(i, j)],
                                    bias.map_or(v, |b| v + b[j]),
                                    "{} at {m}x{k}x{n} ({i},{j}) seed {seed}",
                                    kernel.name()
                                );
                            }
                        }
                    }
                }
                let mut out = Matrix::full(m, n, 42.0);
                matmul_i8_dequant_into(&a, m, k, &packed, n, &scales, None, &mut out);
                let dispatched = I8Kernel::dispatched();
                let mut expect = Matrix::full(m, n, 42.0);
                run(
                    dispatched,
                    &a,
                    (m, k, n),
                    &packed,
                    &scales,
                    None,
                    &mut expect,
                );
                assert_eq!(out, expect, "the public entry runs the dispatched kernel");
            }
        }
    }

    #[test]
    fn extreme_values_do_not_saturate_the_vector_path() {
        // All-±127 operands maximise every intermediate the vector paths
        // produce — the AVX2 i16 pair sums, the VNNI offset weights and
        // row corrections — at the paper's depths and `k % 4 ≠ 0`; the
        // result must still match exact integer math.
        for &(m, k, n) in &[
            (4, 64, 8),
            (5, 129, 9),
            (13, 472, 100),
            (12, 1001, 24),
            (3, 1001, 17),
        ] {
            let kp = padded_k(k);
            let mut a = vec![0i8; m * kp];
            for i in 0..m {
                for kk in 0..k {
                    a[i * kp + kk] = if (i + kk) % 2 == 0 { 127 } else { -127 };
                }
            }
            // One row of each sign throughout: every product at its largest.
            a[..k].fill(-127);
            let bt: Vec<i8> = (0..n * k)
                .map(|x| if x % 3 == 0 || x < k { -127 } else { 127 })
                .collect();
            let mut packed = vec![0i8; packed_rhs_len(n, k)];
            pack_rhs_i8(&bt, n, k, &mut packed);
            let reference = naive_i8(&a, m, k, &bt, n);
            let scales = vec![1.0; n];
            for kernel in runnable_kernels() {
                let mut out = Matrix::zeros(m, n);
                run(kernel, &a, (m, k, n), &packed, &scales, None, &mut out);
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            out[(i, j)],
                            reference[i * n + j] as f32,
                            "{} {m}x{k}x{n} ({i},{j})",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_value_saturates_and_is_nan_free() {
        let inv = 1.0; // scale 1
        assert_eq!(quantize_value(0.4, inv), 0);
        assert_eq!(quantize_value(0.5, inv), 1); // round half away from zero
        assert_eq!(quantize_value(-0.5, inv), -1);
        assert_eq!(quantize_value(126.6, inv), 127);
        assert_eq!(quantize_value(1e9, inv), 127);
        assert_eq!(quantize_value(-1e9, inv), -127);
        assert_eq!(quantize_value(Float::INFINITY, inv), 127);
        assert_eq!(quantize_value(Float::NEG_INFINITY, inv), -127);
        assert_eq!(quantize_value(Float::NAN, inv), 0);
        // -128 is never produced.
        assert_eq!(quantize_value(-128.0, inv), -127);
    }

    #[test]
    fn quantize_slice_matches_scalar_reference_including_special_values() {
        let mut rng = TensorRng::new(31);
        for len in [1usize, 7, 31, 32, 33, 64, 257] {
            let mut src: Vec<Float> = (0..len).map(|_| rng.uniform(-300.0, 300.0)).collect();
            // Sprinkle in the special values at varying lane positions.
            for (i, v) in [
                Float::NAN,
                Float::INFINITY,
                Float::NEG_INFINITY,
                0.5,
                -0.5,
                127.49,
                -127.51,
            ]
            .into_iter()
            .enumerate()
            {
                if len > i * 5 {
                    src[i * 5 % len] = v;
                }
            }
            let scale = 0.37;
            let mut fast = vec![99i8; padded_k(len)];
            quantize_slice_into(&src, scale, &mut fast);
            let inv = 1.0 / scale;
            for (i, &x) in src.iter().enumerate() {
                assert_eq!(fast[i], quantize_value(x, inv), "lane {i} of {len} (x={x})");
            }
            assert!(fast[len..].iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn quantize_slice_pads_with_zeros() {
        let src = [1.0f32, -2.0, 3.5];
        let mut dst = vec![99i8; padded_k(3)];
        quantize_slice_into(&src, 0.5, &mut dst);
        assert_eq!(&dst[..3], &[2, -4, 7]);
        assert_eq!(dst[3], 0, "k padding must be zeroed");
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let mut out = Matrix::zeros(0, 3);
        matmul_i8_dequant_into(&[], 0, 5, &[0; 160], 3, &[1.0; 3], None, &mut out);
        let mut out = Matrix::zeros(2, 0);
        matmul_i8_dequant_into(&[0; 8], 2, 4, &[], 0, &[], None, &mut out);
    }
}
