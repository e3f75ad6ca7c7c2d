//! Matrix multiplication kernels.
//!
//! **One numeric contract.**  Every f32 kernel here computes each output
//! element with a single accumulator that starts at `+0.0` and is updated
//! with a *fused* multiply-add in strictly ascending-`k` order:
//!
//! ```text
//! acc = 0.0;  for kk in 0..k { acc = a[i][kk].mul_add(b[kk][j], acc) }
//! ```
//!
//! No kernel skips, reorders or splits that recurrence, so all of them are
//! bit-identical to this naive fused triple loop — including the sign of
//! zeros and `0·∞ = NaN` — and therefore to each other.  That is what lets
//! the engine swap kernels (`ExecMode::Serial` runs [`matmul`], the served
//! path the packed kernel) without perturbing embeddings; `ARCHITECTURE.md`
//! (numeric identity) states the contract for the whole stack.
//!
//! **Why lane width cannot change a bit.**  The contract is per output
//! element: lane `j` of a vector accumulator *is* element `j`'s
//! accumulator, and a vector FMA is `NR`-or-fewer independent scalar FMAs,
//! each rounded once, in the order the loop issues them — ascending `k`.
//! Nothing crosses lanes (no horizontal add, no split of `k` into partial
//! sums), so a 16-lane tile, an 8-lane one and the scalar loop run the same
//! recurrence on every element and produce the same bits; padded lanes are
//! computed and discarded.  The identity matrix below proves it per shape.
//!
//! The packed loop is compiled three times and picked at run time by CPU
//! feature (`F32Kernel`): under `avx512f`, a `MR_512×2NR` tile of ZMM
//! accumulators over two adjacent panels; under `avx2,fma`, the `MR×NR`
//! YMM tile, which the 512-bit kernel also runs for a last panel at most 8
//! wide; and portably, where `f32::mul_add` is a slow but exact libm call —
//! so results are the same on every machine.  The reference loop is
//! compiled twice (`avx2,fma` and portably).
//!
//! * [`matmul`] / [`matmul_into`] — cache-blocked serial kernel, the simple
//!   reference the others are validated against (training, LUT fusion and
//!   `ExecMode::Serial` run it).
//! * [`PackedB`] + [`matmul_prepacked_into`] — the inference hot path: the
//!   constant operand is packed **once** into contiguous `NR`-column panels
//!   (weight-stationary, like the paper's MAC arrays) and every call runs
//!   the register-tiled FMA microkernel straight from it.
//! * [`matmul_packed_into`] / [`matmul_packed_transb_into`] — the same
//!   microkernel after a per-call pack into the [`Workspace`]'s buffer, for
//!   products whose right-hand side is not a constant.

use crate::workspace::Workspace;
use crate::{Float, Matrix};
use std::cell::Cell;

/// Cache-block edge (in elements) for the serial kernel.
const BLOCK: usize = 64;

/// True when the `avx2,fma` compilations of the loops (here and in
/// [`crate::vmath`]) may run on this CPU.
#[inline]
pub(crate) fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Serial blocked matrix product `A (m×k) · B (k×n) -> C (m×n)`.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimension mismatch {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let m = a.rows();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    matmul_into(a, b, &mut c);
    c
}

/// Serial blocked matrix product writing into a pre-allocated output.
///
/// # Panics
/// Panics if shapes disagree.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul_into: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_into: output shape mismatch");
    c.as_mut_slice().fill(0.0);
    reference_loop(a.as_slice(), k, n, b.as_slice(), c.as_mut_slice());
}

/// The reference kernel: `C (rows×n, pre-zeroed) += A (rows×k) · B (k×n)`,
/// row count taken from `c.len() / n`.  Dispatches like
/// [`packed_gemm_loop`], so the oracle never falls onto libm `fmaf` on a
/// host that has the instruction.
fn reference_loop(a: &[Float], k: usize, n: usize, b: &[Float], c: &mut [Float]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { reference_loop_fma(a, k, n, b, c) };
        return;
    }
    reference_loop_portable(a, k, n, b, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn reference_loop_fma(a: &[Float], k: usize, n: usize, b: &[Float], c: &mut [Float]) {
    reference_loop_portable(a, k, n, b, c);
}

#[inline(always)]
fn reference_loop_portable(a: &[Float], k: usize, n: usize, b: &[Float], c: &mut [Float]) {
    if n == 0 {
        return;
    }
    let m = c.len() / n;
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for kk in k0..k1 {
                    let aik = a_row[kk];
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj = aik.mul_add(bj, *cj);
                    }
                }
            }
        }
    }
}

/// Tile height (rows of A per register tile) of the portable and 256-bit
/// tiles: `MR×NR = 6×16` is 12 independent YMM accumulators — enough to
/// hide FMA latency on two issue ports — plus two for the panel row and one
/// for the broadcast, 15 of AVX2's 16 registers.
pub const MR: usize = 6;
/// Tile height of the 512-bit tile, which spans two adjacent panels: one
/// ZMM accumulator per row and panel, so `MR_512×2NR = 12×32` is 24
/// independent chains plus two panel rows and a broadcast — 27 of
/// AVX-512's 32 registers — and each broadcast feeds two FMAs.
pub const MR_512: usize = 12;
/// Panel width (columns of B per packed panel): two 256-bit vectors or one
/// 512-bit vector of `f32` lanes.  The 512-bit tile grows in `MR` and in
/// panels per tile, not in `NR`, so an `n = 100` product keeps its 12 %
/// zero padding: three two-panel tiles and a 4-wide tail on the 256-bit
/// tile.
pub const NR: usize = 16;

/// One compilation of the packed loop.  All of them run the module's
/// recurrence and are bit-identical; [`F32Kernel::dispatched`] picks the
/// fastest the CPU has, per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum F32Kernel {
    /// Scalar `f32::mul_add` loops: exact everywhere, slow without FMA.
    Portable,
    /// `MR×NR` tile of 12 YMM `vfmadd` chains.
    Avx2,
    /// `MR_512×2NR` tile of 24 ZMM chains over two panels; a lone last
    /// panel runs one ZMM per row, or, at most 8 wide (the last one of
    /// `n = 100`), the 256-bit tile at the same height.
    Avx512,
}

impl F32Kernel {
    /// Every compilation, slowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Self; 3] = [Self::Portable, Self::Avx2, Self::Avx512];

    /// The fastest compilation this CPU runs.
    pub(crate) fn dispatched() -> Self {
        if Self::Avx512.available() {
            Self::Avx512
        } else if Self::Avx2.available() {
            Self::Avx2
        } else {
            Self::Portable
        }
    }

    /// True when this CPU can run the compilation.
    pub(crate) fn available(self) -> bool {
        match self {
            Self::Portable => true,
            Self::Avx2 => fma_available(),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => fma_available() && std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx512 => false,
        }
    }

    /// The CPU feature the compilation is built for.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Avx2 => "avx2+fma",
            Self::Avx512 => "avx512f",
        }
    }
}

thread_local! {
    static PANEL_PACKS: Cell<u64> = const { Cell::new(0) };
}

/// Number of times this thread has packed a right-hand side into panels
/// (per-call packs and [`PackedB`] builds alike).  Steady-state inference
/// keeps it constant; tests assert that.
pub fn panel_packs_on_this_thread() -> u64 {
    PANEL_PACKS.with(Cell::get)
}

/// Length of the panel buffer for a `k×n` right-hand side.
fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs `B` (`k×n`, row-major) into `⌈n/NR⌉` contiguous column panels laid
/// out `panel-major → k → lane`, zero-padding the last panel's missing lanes.
/// When `TRANS` is true the source is interpreted as `Bᵀ` stored row-major
/// (`n` rows of stride `ld ≥ k`), i.e. element `(kk, j)` is read from
/// `b[j*ld + kk]` — a stride above `k` packs a column range of a wider
/// matrix.  Untransposed sources are dense (`ld == n`).
fn pack_b_panels<const TRANS: bool>(
    b: &[Float],
    ld: usize,
    k: usize,
    n: usize,
    packed: &mut [Float],
) {
    PANEL_PACKS.with(|c| c.set(c.get() + 1));
    let panels = n.div_ceil(NR);
    debug_assert!(packed.len() >= panels * k * NR);
    for p in 0..panels {
        let j0 = p * NR;
        let width = NR.min(n - j0);
        let dst_panel = &mut packed[p * k * NR..(p + 1) * k * NR];
        if TRANS {
            // One source row (= one lane) at a time: sequential reads, and
            // the `NR`-strided writes of a panel stay within L1/L2.
            if width < NR {
                dst_panel.fill(0.0);
            }
            for j in 0..width {
                let src = &b[(j0 + j) * ld..(j0 + j) * ld + k];
                for (dst, &v) in dst_panel[j..].iter_mut().step_by(NR).zip(src) {
                    *dst = v;
                }
            }
        } else {
            for kk in 0..k {
                let dst = &mut dst_panel[kk * NR..kk * NR + NR];
                dst[..width].copy_from_slice(&b[kk * ld + j0..kk * ld + j0 + width]);
                dst[width..].fill(0.0);
            }
        }
    }
}

/// A right-hand side packed once into the microkernel's panel layout — the
/// weight-stationary operand of [`matmul_prepacked_into`].  Immutable: a
/// changed weight needs a new pack.
#[derive(Clone, Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<Float>,
}

impl PackedB {
    /// Packs `B = btᵀ` where `bt` is stored row-major as `n×k` — the layout
    /// `Linear` keeps its `out_dim × in_dim` weights in.
    pub fn from_transposed(bt: &Matrix) -> Self {
        Self::from_transposed_cols(bt, 0..bt.cols())
    }

    /// [`Self::from_transposed`] of the column range `cols` of `bt` alone:
    /// the pack of `B[cols, :]`, for a product over part of the inner
    /// dimension (see [`matmul_prepacked_cols_into`]).
    ///
    /// # Panics
    /// Panics if `cols` is not within `0..bt.cols()`.
    pub fn from_transposed_cols(bt: &Matrix, cols: std::ops::Range<usize>) -> Self {
        assert!(
            cols.start <= cols.end && cols.end <= bt.cols(),
            "PackedB::from_transposed_cols: column range out of bounds"
        );
        let (n, k) = (bt.rows(), cols.len());
        let mut panels = vec![0.0; packed_len(k, n)];
        if n > 0 && k > 0 {
            pack_b_panels::<true>(&bt.as_slice()[cols.start..], bt.cols(), k, n, &mut panels);
        }
        Self { k, n, panels }
    }

    /// Packs `B = b[:, cols]` itself (`k = b.rows()`, `n = cols.len()`): the
    /// pack of a product `A · W[:, cols]` that runs a layer's weight
    /// backwards, from its output space into its input columns.
    ///
    /// # Panics
    /// Panics if `cols` is not within `0..b.cols()`.
    pub fn from_cols(b: &Matrix, cols: std::ops::Range<usize>) -> Self {
        assert!(
            cols.start <= cols.end && cols.end <= b.cols(),
            "PackedB::from_cols: column range out of bounds"
        );
        let (k, n) = (b.rows(), cols.len());
        let mut panels = vec![0.0; packed_len(k, n)];
        if n > 0 && k > 0 {
            pack_b_panels::<false>(&b.as_slice()[cols.start..], b.cols(), k, n, &mut panels);
        }
        Self { k, n, panels }
    }
}

/// A register tile's accumulators as they leave the registers: `TILE_M`
/// rows of up to two panels' lanes.
type Tile<const TILE_M: usize> = [[Float; 2 * NR]; TILE_M];

/// One register tile over `NP` adjacent panels:
/// `C[i0..i0+TILE_M, j0..j0+width] = A[i0..i0+TILE_M, :] · panels` (rows of
/// `A` are `k` long and `lda ≥ k` apart, `width ≤ NP·NR`), with one
/// accumulator per output element, fused multiply-add and `k` strictly
/// ascending — the module's numeric contract.  `ISA` is an [`F32Kernel`]
/// as `u8` and selects the intrinsics tiles (YMM or ZMM accumulators) over
/// the portable scalar one; `TILE_M` is a const generic so every tile
/// height is fully unrolled.  Only the 512-bit kernel spans two panels.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel<const TILE_M: usize, const NP: usize, const ISA: u8>(
    a: &[Float],
    lda: usize,
    k: usize,
    i0: usize,
    panels: &[Float],
    c: &mut [Float],
    n: usize,
    j0: usize,
    width: usize,
) {
    let portable = ISA == F32Kernel::Portable as u8;
    debug_assert!(NP == 1 || ISA == F32Kernel::Avx512 as u8);
    let a_tile = &a[i0 * lda..(i0 + TILE_M - 1) * lda + k];
    let panels = &panels[..NP * k * NR];
    let mut acc: Tile<TILE_M> = [[0.0; 2 * NR]; TILE_M];
    #[cfg(target_arch = "x86_64")]
    if !portable {
        // A panel at most one YMM wide (the last one of `n = 100`) runs the
        // 256-bit tile on its first vector, whichever kernel is dispatched.
        // SAFETY: a vector `ISA` is set only under `packed_gemm_loop_fma` /
        // `packed_gemm_loop_avx512`, which run after `F32Kernel::available`
        // (`avx2` + `fma`, plus `avx512f` for the second); the slices above
        // hold exactly `(TILE_M - 1) * lda + k` and `NP * k * NR` elements.
        unsafe {
            if width <= 8 {
                accumulate_tile_fma::<TILE_M, 1>(a_tile, lda, k, panels, &mut acc)
            } else if ISA == F32Kernel::Avx512 as u8 {
                accumulate_tile_avx512::<TILE_M, NP>(a_tile, lda, k, panels, &mut acc)
            } else {
                accumulate_tile_fma::<TILE_M, 2>(a_tile, lda, k, panels, &mut acc)
            }
        };
    }
    if portable {
        for (kk, b_lane) in panels.chunks_exact(NR).enumerate() {
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let aik = a_tile[i * lda + kk];
                for (s, &b) in acc_row.iter_mut().zip(b_lane) {
                    *s = aik.mul_add(b, *s);
                }
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let c_row = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + width];
        c_row.copy_from_slice(&acc_row[..width]);
    }
}

/// The `avx2,fma` tile accumulation: per `k`, one panel row (its first `NV`
/// vectors) and `TILE_M` broadcasts feed `NV·TILE_M` independent `vfmadd`
/// chains.  Lanes beyond `8·NV` of `acc` are left untouched.
///
/// # Safety
/// The CPU must support `avx2` and `fma`;
/// `a_tile.len() == (TILE_M - 1) * lda + k` with `lda >= k`,
/// `panel.len() >= k * NR` and `NV <= 2`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn accumulate_tile_fma<const TILE_M: usize, const NV: usize>(
    a_tile: &[Float],
    lda: usize,
    k: usize,
    panel: &[Float],
    acc: &mut Tile<TILE_M>,
) {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    debug_assert!(lda >= k);
    debug_assert_eq!(a_tile.len(), (TILE_M - 1) * lda + k);
    debug_assert!(panel.len() >= k * NR);
    debug_assert!(8 * NV <= NR);
    let a_ptr = a_tile.as_ptr();
    let b_ptr = panel.as_ptr();
    let mut sums = [[_mm256_setzero_ps(); NV]; TILE_M];
    for kk in 0..k {
        let mut b = [_mm256_setzero_ps(); NV];
        for (v, b_v) in b.iter_mut().enumerate() {
            *b_v = _mm256_loadu_ps(b_ptr.add(kk * NR + 8 * v));
        }
        for (i, row) in sums.iter_mut().enumerate() {
            let aik = _mm256_broadcast_ss(&*a_ptr.add(i * lda + kk));
            for (sum, &b_v) in row.iter_mut().zip(&b) {
                *sum = _mm256_fmadd_ps(aik, b_v, *sum);
            }
        }
    }
    for (acc_row, row) in acc.iter_mut().zip(&sums) {
        for (v, &sum) in row.iter().enumerate() {
            _mm256_storeu_ps(acc_row.as_mut_ptr().add(8 * v), sum);
        }
    }
}

/// The `avx512f` tile accumulation over `NP` adjacent panels: per `k`, one
/// 16-lane row of each panel and `TILE_M` broadcasts feed `NP·TILE_M`
/// independent `vfmadd` chains — the 256-bit tile's recurrence at twice
/// the lanes.  Two panels make each broadcast feed two FMAs: one load per
/// FMA left the 12-row, one-panel tile load-bound at ~60 % of the 512-bit
/// peak.  Lanes beyond `16·NP` of `acc` are left untouched.
///
/// # Safety
/// The CPU must support `avx512f`;
/// `a_tile.len() == (TILE_M - 1) * lda + k` with `lda >= k`,
/// `panels.len() == NP * k * NR` and `NP <= 2`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_tile_avx512<const TILE_M: usize, const NP: usize>(
    a_tile: &[Float],
    lda: usize,
    k: usize,
    panels: &[Float],
    acc: &mut Tile<TILE_M>,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    debug_assert!(lda >= k);
    debug_assert_eq!(a_tile.len(), (TILE_M - 1) * lda + k);
    debug_assert_eq!(panels.len(), NP * k * NR);
    debug_assert!(NP <= 2);
    let a_ptr = a_tile.as_ptr();
    let b_ptr = panels.as_ptr();
    let mut sums = [[_mm512_setzero_ps(); NP]; TILE_M];
    for kk in 0..k {
        let mut b = [_mm512_setzero_ps(); NP];
        for (p, b_p) in b.iter_mut().enumerate() {
            *b_p = _mm512_loadu_ps(b_ptr.add(p * k * NR + kk * NR));
        }
        for (i, row) in sums.iter_mut().enumerate() {
            let aik = _mm512_set1_ps(*a_ptr.add(i * lda + kk));
            for (sum, &b_p) in row.iter_mut().zip(&b) {
                *sum = _mm512_fmadd_ps(aik, b_p, *sum);
            }
        }
    }
    for (acc_row, row) in acc.iter_mut().zip(&sums) {
        for (p, &sum) in row.iter().enumerate() {
            _mm512_storeu_ps(acc_row.as_mut_ptr().add(p * NR), sum);
        }
    }
}

/// Runs the microkernel over all row/panel tiles of `C = A·panels`, the
/// `m` rows of `A` being `k` long and `lda ≥ k` apart, on the fastest
/// compilation the CPU has (same recurrence, same bits on every one).
fn packed_gemm_loop(
    a: &[Float],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &[Float],
    c: &mut [Float],
) {
    // SAFETY: `dispatched` returns a kernel this CPU runs.
    unsafe { packed_gemm_loop_on(F32Kernel::dispatched(), a, lda, m, k, n, packed, c) }
}

/// [`packed_gemm_loop`] on the given compilation.
///
/// # Safety
/// `kernel.available()` must hold.
#[allow(clippy::too_many_arguments)]
unsafe fn packed_gemm_loop_on(
    kernel: F32Kernel,
    a: &[Float],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &[Float],
    c: &mut [Float],
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        F32Kernel::Avx512 => packed_gemm_loop_avx512(a, lda, m, k, n, packed, c),
        #[cfg(target_arch = "x86_64")]
        F32Kernel::Avx2 => packed_gemm_loop_fma(a, lda, m, k, n, packed, c),
        _ => packed_gemm_tiles::<{ F32Kernel::Portable as u8 }>(a, lda, m, k, n, packed, c),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn packed_gemm_loop_fma(
    a: &[Float],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &[Float],
    c: &mut [Float],
) {
    packed_gemm_tiles::<{ F32Kernel::Avx2 as u8 }>(a, lda, m, k, n, packed, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn packed_gemm_loop_avx512(
    a: &[Float],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &[Float],
    c: &mut [Float],
) {
    packed_gemm_tiles::<{ F32Kernel::Avx512 as u8 }>(a, lda, m, k, n, packed, c);
}

#[inline(always)]
fn packed_gemm_tiles<const ISA: u8>(
    a: &[Float],
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &[Float],
    c: &mut [Float],
) {
    let avx512 = ISA == F32Kernel::Avx512 as u8;
    let mr = if avx512 { MR_512 } else { MR };
    let mut j0 = 0;
    while j0 < n {
        // The 512-bit kernel spans two panels while more than a ZMM and a
        // YMM of columns remain, so a last panel ≤ 8 wide keeps its
        // 256-bit tile.
        let pair = avx512 && n - j0 > NR + 8;
        let width = (if pair { 2 * NR } else { NR }).min(n - j0);
        let panels = &packed[j0 * k..];
        let mut i0 = 0;
        while i0 < m {
            let rows = mr.min(m - i0);
            macro_rules! tile_of_height {
                ($np:literal: $($h:literal)*) => {
                    match rows {
                        $($h => micro_kernel::<$h, $np, ISA>(a, lda, k, i0, panels, c, n, j0, width),)*
                        _ => unreachable!("tiles are at most MR_512 rows"),
                    }
                };
            }
            if pair {
                tile_of_height!(2: 1 2 3 4 5 6 7 8 9 10 11 12);
            } else {
                tile_of_height!(1: 1 2 3 4 5 6 7 8 9 10 11 12);
            }
            i0 += rows;
        }
        j0 += width;
    }
}

/// Checks the shapes of `C = A·B` for the packed entry points and handles
/// the degenerate ones; returns false when there is nothing left to compute.
fn packed_shapes_ok(a: &Matrix, k: usize, n: usize, c: &mut Matrix, who: &str) -> bool {
    assert_eq!(a.cols(), k, "{who}: inner dimension mismatch");
    assert_eq!(c.shape(), (a.rows(), n), "{who}: output shape mismatch");
    if k == 0 {
        c.as_mut_slice().fill(0.0);
    }
    a.rows() > 0 && n > 0 && k > 0
}

/// The inference hot path: `A (m×k) · B -> C (m×n)` with `B` packed ahead
/// of time.  No packing, no allocation.
///
/// # Panics
/// Panics if shapes disagree.
pub fn matmul_prepacked_into(a: &Matrix, b: &PackedB, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.k,
        "matmul_prepacked_into: inner dimension mismatch"
    );
    matmul_prepacked_cols_into(a, 0, b, c);
}

/// [`matmul_prepacked_into`] over a column range of `A`:
/// `A[:, first_col..first_col + k] · B -> C`, `k` being `B`'s inner
/// dimension.  The rows are read in place at `A`'s own stride, so a product
/// over part of the inner dimension costs no copy — and, being the same
/// microkernel, equals the product with the columns copied out, bit for bit.
///
/// # Panics
/// Panics if the column range leaves `A` or the output shape disagrees.
pub fn matmul_prepacked_cols_into(a: &Matrix, first_col: usize, b: &PackedB, c: &mut Matrix) {
    assert!(
        first_col + b.k <= a.cols(),
        "matmul_prepacked_cols_into: column range out of bounds"
    );
    assert_eq!(
        c.shape(),
        (a.rows(), b.n),
        "matmul_prepacked_cols_into: output shape mismatch"
    );
    if b.k == 0 {
        c.as_mut_slice().fill(0.0);
    }
    if a.rows() > 0 && b.n > 0 && b.k > 0 {
        packed_gemm_loop(
            &a.as_slice()[first_col..],
            a.cols(),
            a.rows(),
            b.k,
            b.n,
            &b.panels,
            c.as_mut_slice(),
        );
    }
}

/// Packed register-tiled matrix product `A (m×k) · B (k×n) -> C (m×n)`,
/// allocating only through the workspace (allocation-free once warm).
pub fn matmul_packed(a: &Matrix, b: &Matrix, ws: &mut Workspace) -> Matrix {
    let mut c = ws.take_matrix(a.rows(), b.cols());
    matmul_packed_into(a, b, &mut c, ws);
    c
}

/// [`matmul_packed`] writing into a pre-allocated output.
///
/// # Panics
/// Panics if shapes disagree.
pub fn matmul_packed_into(a: &Matrix, b: &Matrix, c: &mut Matrix, ws: &mut Workspace) {
    let (k, n) = b.shape();
    if packed_shapes_ok(a, k, n, c, "matmul_packed_into") {
        let packed = ws.pack_buffer(packed_len(k, n));
        pack_b_panels::<false>(b.as_slice(), n, k, n, packed);
        packed_gemm_loop(a.as_slice(), k, a.rows(), k, n, packed, c.as_mut_slice());
    }
}

/// Packed product `A (m×k) · Bᵀ -> C (m×n)` where `bt` is B transposed,
/// stored row-major as `n×k`.  Equivalent to `matmul(a, &bt.transpose())`
/// (bit-identical) without materialising the transpose; packs `bt` on every
/// call, so a constant `bt` belongs in a [`PackedB`] instead.
pub fn matmul_packed_transb_into(a: &Matrix, bt: &Matrix, c: &mut Matrix, ws: &mut Workspace) {
    let (n, k) = bt.shape();
    if packed_shapes_ok(a, k, n, c, "matmul_packed_transb_into") {
        let packed = ws.pack_buffer(packed_len(k, n));
        pack_b_panels::<true>(bt.as_slice(), k, k, n, packed);
        packed_gemm_loop(a.as_slice(), k, a.rows(), k, n, packed, c.as_mut_slice());
    }
}

/// Dot product of two equally-sized slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[Float], b: &[Float]) -> Float {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Accumulator lanes of [`dot_lanes`].
pub const DOT_LANES: usize = 16;

/// The dot product with [`DOT_LANES`] interleaved chains — one stated
/// order, fast enough for a hot loop of short dots: element `k` goes to lane
/// `k % DOT_LANES`, each lane accumulates from `+0.0` in ascending `k` as
/// `acc + a[k]·b[k]` (product rounded, then sum rounded; no FMA), and the
/// lanes are folded in halves — lane `l` gains lane `l + 8`, then `l + 4`,
/// `l + 2`, `l + 1` — into lane 0.  The lanes are independent, so the
/// compiler vectorises them without reassociating anything, and every
/// target computes the same bits.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot_lanes(a: &[Float], b: &[Float]) -> Float {
    assert_eq!(a.len(), b.len(), "dot_lanes: length mismatch");
    let mut acc = [0.0 as Float; DOT_LANES];
    let (a_main, a_rest) = a.split_at(a.len() - a.len() % DOT_LANES);
    let (b_main, b_rest) = b.split_at(a_main.len());
    for (xa, xb) in a_main
        .chunks_exact(DOT_LANES)
        .zip(b_main.chunks_exact(DOT_LANES))
    {
        for l in 0..DOT_LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    for (l, (&x, &y)) in a_rest.iter().zip(b_rest).enumerate() {
        acc[l] += x * y;
    }
    let mut half = DOT_LANES / 2;
    while half > 0 {
        for l in 0..half {
            acc[l] += acc[l + half];
        }
        half /= 2;
    }
    acc[0]
}

/// Outer product `x (m) ⊗ y (n) -> M (m×n)`.
pub fn outer(x: &[Float], y: &[Float]) -> Matrix {
    let mut out = Matrix::zeros(x.len(), y.len());
    for (i, &xi) in x.iter().enumerate() {
        let row = out.row_mut(i);
        for (j, &yj) in y.iter().enumerate() {
            row[j] = xi * yj;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    /// The numeric contract, written out: the naive fused triple loop.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc: Float = 0.0;
                for k in 0..a.cols() {
                    acc = a[(i, k)].mul_add(b[(k, j)], acc);
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = TensorRng::new(3);
        let a = rng.uniform_matrix(6, 6, -2.0, 2.0);
        let eye = Matrix::identity(6);
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    /// [`dot_lanes`]' stated order, written out one element at a time.
    fn dot_lanes_oracle(a: &[Float], b: &[Float]) -> Float {
        let mut lanes = [0.0 as Float; DOT_LANES];
        for k in 0..a.len() {
            lanes[k % DOT_LANES] += a[k] * b[k];
        }
        for half in [8, 4, 2, 1] {
            for l in 0..half {
                lanes[l] += lanes[l + half];
            }
        }
        lanes[0]
    }

    #[test]
    fn dot_lanes_is_its_stated_order_at_every_vector_edge() {
        let mut rng = TensorRng::new(19);
        // Every remainder of every lane count a compiler might vectorise
        // with, past three full passes, and the attention widths.
        let lengths = (0..=3 * DOT_LANES + 1).chain([100, 272, 372, 373]);
        for n in lengths {
            let a = rng.uniform_vec(n, -2.0, 2.0);
            let b = rng.uniform_vec(n, -2.0, 2.0);
            let got = dot_lanes(&a, &b);
            assert_eq!(got.to_bits(), dot_lanes_oracle(&a, &b).to_bits(), "n = {n}");
            assert!(
                (got - dot(&a, &b)).abs() <= 1e-4 * (n as Float + 1.0),
                "n = {n}"
            );
        }
        // Signed zeros and non-finite values follow the same order.
        assert_eq!(dot_lanes(&[], &[]).to_bits(), (0.0 as Float).to_bits());
        assert_eq!(
            dot_lanes(&[-0.0], &[1.0]).to_bits(),
            (0.0 as Float).to_bits()
        );
        assert!(dot_lanes(&[Float::INFINITY, 1.0], &[0.0, 1.0]).is_nan());
    }

    #[test]
    fn a_pack_of_columns_is_the_product_with_those_columns() {
        let mut rng = TensorRng::new(23);
        for (m, k, n, cols) in [(1, 100, 372, 0..272), (7, 9, 20, 3..20), (3, 5, 4, 0..0)] {
            let a = rng.uniform_matrix(m, k, -1.0, 1.0);
            let w = rng.uniform_matrix(k, n, -1.0, 1.0);
            let mut c = Matrix::full(m, cols.len(), 42.0);
            matmul_prepacked_into(&a, &PackedB::from_cols(&w, cols.clone()), &mut c);
            let reference = matmul(&a, &w.columns(cols.start, cols.end));
            assert_eq!(c.as_slice(), reference.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn dot_and_outer() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let m = outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    /// Shapes deliberately off every tile boundary: single elements, primes,
    /// exact multiples of MR/NR, one-over and one-under.
    const ODD_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 128, 1),
        (1, 5, 1),
        (2, 3, 2),
        (3, 7, 5),
        (4, 8, 8),
        (5, 9, 7),
        (7, 1, 13),
        (8, 16, 24),
        (9, 17, 25),
        (13, 64, 1),
        (17, 33, 9),
        (31, 47, 61),
        (64, 64, 64),
        (65, 63, 66),
        // The paper's projections: GRU input, attention K/V, attention Q.
        (138, 472, 100),
        (735, 372, 100),
        (138, 200, 100),
    ];

    /// [`ODD_SHAPES`] plus every `MR`- and `MR_512`-edge height against
    /// every `NR`-edge width.
    fn kernel_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = ODD_SHAPES.to_vec();
        for m in [5, 6, 7, 11, 12, 13, 23, 24, 25] {
            for n in [15, 16, 17, 31, 32, 33, 100] {
                shapes.push((m, 3 + m + n % 7, n));
            }
        }
        shapes
    }

    #[test]
    fn every_kernel_is_bitwise_equal_to_the_naive_fused_loop() {
        let mut rng = TensorRng::new(77);
        let mut ws = Workspace::new();
        for (m, k, n) in kernel_shapes() {
            let a = rng.uniform_matrix(m, k, -1.0, 1.0);
            let b = rng.uniform_matrix(k, n, -1.0, 1.0);
            let bt = b.transpose();
            let reference = naive_matmul(&a, &b);
            let expect = reference.as_slice();
            let shape = format!("{m}x{k}x{n}");

            assert_eq!(matmul(&a, &b).as_slice(), expect, "matmul {shape}");
            let packed = matmul_packed(&a, &b, &mut ws);
            assert_eq!(packed.as_slice(), expect, "packed {shape}");
            ws.recycle_matrix(packed);

            // Stale output contents must be overwritten.
            let mut c = Matrix::full(m, n, 42.0);
            matmul_packed_into(&a, &b, &mut c, &mut ws);
            assert_eq!(c.as_slice(), expect, "packed_into {shape}");
            c.as_mut_slice().fill(42.0);
            matmul_packed_transb_into(&a, &bt, &mut c, &mut ws);
            assert_eq!(c.as_slice(), expect, "transb {shape}");
            c.as_mut_slice().fill(42.0);
            let prepacked = PackedB::from_transposed(&bt);
            let packs = panel_packs_on_this_thread();
            matmul_prepacked_into(&a, &prepacked, &mut c);
            assert_eq!(c.as_slice(), expect, "prepacked {shape}");
            assert_eq!(panel_packs_on_this_thread(), packs, "prepacked packs");

            // A column range of A against the pack of the same range of B:
            // the product with both ranges copied out.
            for cols in [0..k / 3, k / 3..k, k..k] {
                let part = PackedB::from_transposed_cols(&bt, cols.clone());
                c.as_mut_slice().fill(42.0);
                matmul_prepacked_cols_into(&a, cols.start, &part, &mut c);
                let copied = naive_matmul(
                    &a.columns(cols.start, cols.end),
                    &bt.columns(cols.start, cols.end).transpose(),
                );
                assert_eq!(c.as_slice(), copied.as_slice(), "cols {cols:?} of {shape}");
            }

            // Every compilation of both loops, called directly, so one host
            // proves each fallback below its dispatched kernel too.
            for kernel in runnable_kernels() {
                c.as_mut_slice().fill(42.0);
                run_packed(kernel, &a, &prepacked, &mut c);
                assert_eq!(c.as_slice(), expect, "{} tiles {shape}", kernel.name());
            }
            c.as_mut_slice().fill(0.0);
            reference_loop_portable(a.as_slice(), k, n, b.as_slice(), c.as_mut_slice());
            assert_eq!(c.as_slice(), expect, "portable reference {shape}");
            #[cfg(target_arch = "x86_64")]
            if fma_available() {
                c.as_mut_slice().fill(0.0);
                // SAFETY: feature presence checked just above.
                unsafe { reference_loop_fma(a.as_slice(), k, n, b.as_slice(), c.as_mut_slice()) };
                assert_eq!(c.as_slice(), expect, "fma reference {shape}");
            }
        }
    }

    /// The packed-loop compilations this CPU runs; each one it lacks is
    /// named on stdout, so a host without it does not pass silently.
    fn runnable_kernels() -> Vec<F32Kernel> {
        F32Kernel::ALL
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

    /// `C = A·B` on one compilation of the packed loop, called directly.
    fn run_packed(kernel: F32Kernel, a: &Matrix, b: &PackedB, c: &mut Matrix) {
        assert!(kernel.available(), "{} cannot run here", kernel.name());
        let (m, k) = a.shape();
        // SAFETY: availability asserted just above.
        unsafe {
            packed_gemm_loop_on(
                kernel,
                a.as_slice(),
                k,
                m,
                k,
                b.n,
                &b.panels,
                c.as_mut_slice(),
            )
        };
    }

    #[test]
    fn every_tile_height_meets_every_width_remainder_on_every_kernel() {
        // Heights 1..=MR_512 (+1, a full tile and a one-row tail) against
        // every width up to three panels: one panel of every width, a full
        // panel plus every remainder, a two-panel tile plus every remainder
        // — each tile shape of the 512-bit kernel (two panels, one, the
        // 256-bit tail) with its padded lanes included.
        let mut rng = TensorRng::new(78);
        for kernel in runnable_kernels() {
            for m in 1..=MR_512 + 1 {
                for n in 1..=3 * NR {
                    let k = 1 + (3 * m + n) % 19;
                    let a = rng.uniform_matrix(m, k, -1.0, 1.0);
                    let b = rng.uniform_matrix(k, n, -1.0, 1.0);
                    let mut c = Matrix::full(m, n, 42.0);
                    run_packed(
                        kernel,
                        &a,
                        &PackedB::from_transposed(&b.transpose()),
                        &mut c,
                    );
                    let name = kernel.name();
                    assert_eq!(c, naive_matmul(&a, &b), "{name} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn no_kernel_skips_zero_times_infinity() {
        // 0·∞ = NaN must reach the output of every kernel; a zero-skip would
        // mask it.
        let mut rng = TensorRng::new(81);
        let mut ws = Workspace::new();
        let mut a = rng.uniform_matrix(64, 64, -1.0, 1.0);
        let mut b = rng.uniform_matrix(64, 64, -1.0, 1.0);
        a[(3, 5)] = 0.0;
        b[(5, 7)] = Float::INFINITY;
        let packed = matmul_packed(&a, &b, &mut ws);
        for (name, got) in [
            ("matmul", matmul(&a, &b)[(3, 7)]),
            ("packed", packed[(3, 7)]),
        ] {
            assert!(got.is_nan(), "{name} masked 0·inf: {got}");
        }
        let prepacked = PackedB::from_transposed(&b.transpose());
        for kernel in runnable_kernels() {
            let mut c = Matrix::zeros(64, 64);
            run_packed(kernel, &a, &prepacked, &mut c);
            let got = c[(3, 7)];
            assert!(got.is_nan(), "{} masked 0·inf: {got}", kernel.name());
        }
    }

    #[test]
    fn matmul_packed_handles_degenerate_dimensions() {
        let mut ws = Workspace::new();
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul_packed(&a, &b, &mut ws).shape(), (0, 3));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = matmul_packed(&a, &b, &mut ws);
        assert_eq!(c.shape(), (3, 4));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        let a = Matrix::zeros(2, 5);
        let b = Matrix::zeros(5, 0);
        assert_eq!(matmul_packed(&a, &b, &mut ws).shape(), (2, 0));
    }

    #[test]
    fn workspace_reuse_never_leaks_state_between_calls() {
        let mut rng = TensorRng::new(79);
        let mut ws = Workspace::new();
        // Interleave two different problem shapes through one workspace many
        // times; every result must equal a fresh-workspace computation, i.e.
        // nothing of a previous call's packing or output may bleed through.
        let a1 = rng.uniform_matrix(11, 23, -1.0, 1.0);
        let b1 = rng.uniform_matrix(23, 17, -1.0, 1.0);
        let a2 = rng.uniform_matrix(5, 40, -1.0, 1.0);
        let b2 = rng.uniform_matrix(40, 9, -1.0, 1.0);
        let expect1 = naive_matmul(&a1, &b1);
        let expect2 = naive_matmul(&a2, &b2);
        for round in 0..10 {
            let c1 = matmul_packed(&a1, &b1, &mut ws);
            assert_eq!(c1.as_slice(), expect1.as_slice(), "round {round} shape 1");
            ws.recycle_matrix(c1);
            let c2 = matmul_packed(&a2, &b2, &mut ws);
            assert_eq!(c2.as_slice(), expect2.as_slice(), "round {round} shape 2");
            ws.recycle_matrix(c2);
        }
    }

    #[test]
    fn packed_gemm_steady_state_does_not_allocate() {
        let mut rng = TensorRng::new(80);
        let mut ws = Workspace::new();
        let a = rng.uniform_matrix(48, 96, -1.0, 1.0);
        let b = rng.uniform_matrix(96, 32, -1.0, 1.0);
        // Warm-up grows the pool and pack buffer.
        for _ in 0..2 {
            let c = matmul_packed(&a, &b, &mut ws);
            ws.recycle_matrix(c);
        }
        let warm = ws.heap_allocs();
        for _ in 0..50 {
            let c = matmul_packed(&a, &b, &mut ws);
            ws.recycle_matrix(c);
        }
        assert_eq!(
            ws.heap_allocs(),
            warm,
            "steady-state GEMM must not allocate"
        );
    }
}
