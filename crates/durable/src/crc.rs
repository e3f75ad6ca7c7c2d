//! CRC-32 (IEEE 802.3 polynomial, reflected) — the frame checksum of the
//! WAL and the payload checksum of snapshot shard files.
//!
//! Hand-rolled because the workspace is dependency-free by policy.  Two
//! compilations compute the same function, picked at run time by CPU
//! feature like the GEMM kernels:
//!
//! * **Table** (portable, and the oracle the other is tested against): the
//!   slice-by-8 form processes 8 bytes per step (one table lookup per byte,
//!   but only one loop iteration and no serial dependency between the 8
//!   lookups).  WAL frames are short, so the append path — every admitted
//!   event is CRC-framed — always runs it.
//! * **Folded** (`pclmulqdq` + `sse4.1`): four 128-bit accumulators fold 64
//!   bytes per step with carry-less multiplies by `x^n mod P` constants,
//!   are folded into one, reduced to 64 bits and Barrett-reduced to the
//!   32-bit remainder; a tail shorter than 16 bytes finishes on the table.
//!   This is what checksums a multi-megabyte snapshot payload.  Its
//!   constants are derived from the polynomial at compile time, as the
//!   tables are.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = crc of byte b followed by k zero bytes: extend each
    // entry one zero byte at a time.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (IEEE, reflected, init/final-xor `0xFFFF_FFFF`) — the
/// same value `cksum`-style tools call "crc32".
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= folded::MIN_LEN && folded::available() {
        // SAFETY: the CPU has the features the compilation is built for.
        return !unsafe { folded::update(!0, data) };
    }
    !table_update(!0, data)
}

/// Advances the CRC register `crc` (not inverted) over `data` with the
/// slice-by-8 tables.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// `x^n mod P` in the reflected 32-bit form (bit `31 − i` holds the
/// coefficient of `x^i`): `x^0` is the top bit, and each step multiplies by
/// `x` — the same shift-and-reduce the tables are built with.
const fn x_pow_mod(n: u32) -> u32 {
    let mut r = 1u32 << 31;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// A folding constant `x^n mod P` as a carry-less multiply operand: the
/// reflected remainder shifted up one bit.  A reflected 64-bit lane times
/// such an operand lands in a 128-bit register as the product times
/// `x^32`, which is why the fold constants below are taken 32 degrees
/// short of the distance they fold over.
const fn fold_constant(n: u32) -> u64 {
    (x_pow_mod(n) as u64) << 1
}

/// The full 33-bit polynomial `P` in the operand form: `x^32` in bit 0,
/// [`POLY`] above it.
const P_OPERAND: u64 = ((POLY as u64) << 1) | 1;

/// Barrett's `μ = ⌊x^64 / P⌋` (33 bits) in the operand form, by long
/// division over `P` in the plain (unreflected) bit order.
const fn barrett_mu() -> u64 {
    let p = (1u128 << 32) | POLY.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut degree = 64;
    while degree >= 32 {
        if rem & (1u128 << degree) != 0 {
            quotient |= 1 << (degree - 32);
            rem ^= p << (degree - 32);
        }
        degree -= 1;
    }
    quotient.reverse_bits() >> 31
}

#[cfg(target_arch = "x86_64")]
mod folded {
    use super::{barrett_mu, fold_constant, table_update, P_OPERAND};
    use std::arch::x86_64::*;

    /// Inputs shorter than the four accumulators run on the table.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold four lanes 512 bits ahead: the low half of a lane carries
    /// `x^(512+64)`, the high half `x^512`.
    const FOLD_4: (u64, u64) = (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
    /// Fold one lane 128 bits ahead.
    const FOLD_1: (u64, u64) = (fold_constant(128 + 32), fold_constant(128 - 32));
    /// Folds the top 32 bits of the 96-bit remainder onto the rest.
    const FOLD_96: u64 = fold_constant(64);
    const MU: u64 = barrett_mu();

    /// True when this CPU can run the compilation.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    fn pair(lo: u64, hi: u64) -> __m128i {
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe { _mm_set_epi64x(hi as i64, lo as i64) }
    }

    /// `acc · x^distance + next`, reduced to 128 bits: each half of `acc`
    /// times its constant in `k`.
    ///
    /// # Safety
    /// The CPU must have `pclmulqdq` and `sse4.1` ([`available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the CRC register `crc` (not inverted) over `data`, at least
    /// [`MIN_LEN`] bytes long.
    ///
    /// # Safety
    /// The CPU must have `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let mut blocks = data.chunks_exact(16);
        // SAFETY: every chunk is 16 bytes, the width of an unaligned load.
        let mut load = || _mm_loadu_si128(blocks.next().unwrap().as_ptr().cast());
        // The register enters xored into the first 32 message bits.
        let mut acc = [
            _mm_xor_si128(load(), _mm_cvtsi32_si128(crc as i32)),
            load(),
            load(),
            load(),
        ];
        let mut rest = data.len() / 16 - 4;
        let k4 = pair(FOLD_4.0, FOLD_4.1);
        while rest >= 4 {
            for a in &mut acc {
                *a = fold(*a, load(), k4);
            }
            rest -= 4;
        }
        let k1 = pair(FOLD_1.0, FOLD_1.1);
        let mut x = fold(fold(fold(acc[0], acc[1], k1), acc[2], k1), acc[3], k1);
        for _ in 0..rest {
            x = fold(x, load(), k1);
        }

        // 128 → 96 bits: the low half times x^128 onto the high half; then
        // 96 → 64: the low 32 bits times x^96 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k1, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), pair(FOLD_96, 0), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: q = ⌊top · μ / x^32⌋, remainder = x ⊕ q·P in the high
        // 32 bits of the low lane.
        let mu_p = pair(P_OPERAND, MU);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32;
        table_update(reg, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_tensor::TensorRng;

    fn table_crc32(data: &[u8]) -> u32 {
        !table_update(!0, data)
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = TensorRng::new(seed);
        (0..len).map(|_| rng.index(256) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE, on the dispatched path and
        // on the table path.
        for crc in [crc32, table_crc32] {
            assert_eq!(crc(b""), 0x0000_0000);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
            // Long enough for the folded path: 1 000 000 × 'a'.
            assert_eq!(crc(&[b'a'; 1_000_000]), 0xDC25_BFBC);
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        for len in [64, 200] {
            let mut data = vec![0xA5u8; len];
            let clean = crc32(&data);
            for byte in 0..len {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                    data[byte] ^= 1 << bit;
                }
            }
        }
    }

    /// The folded compilation equals the table for every length up to
    /// 1 100 bytes at every alignment within a 16-byte block, and on a
    /// 1 MiB buffer.
    #[test]
    fn folded_path_equals_the_table_path() {
        #[cfg(target_arch = "x86_64")]
        {
            if !folded::available() {
                println!("skipped: cpu lacks pclmulqdq+sse4.1");
                return;
            }
            let folded_crc32 = |data: &[u8]| {
                if data.len() < folded::MIN_LEN {
                    return crc32(data);
                }
                // SAFETY: `available` checked the features.
                !unsafe { folded::update(!0, data) }
            };
            let data = random_bytes(1100 + 16, 1);
            for start in 0..16 {
                for len in 0..=1100 {
                    let slice = &data[start..start + len];
                    let want = table_crc32(slice);
                    assert_eq!(folded_crc32(slice), want, "start {start} len {len}");
                    assert_eq!(crc32(slice), want, "start {start} len {len}");
                }
            }
            let big = random_bytes(1 << 20, 2);
            assert_eq!(folded_crc32(&big), table_crc32(&big));
            assert_eq!(crc32(&big), table_crc32(&big));
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("skipped: no folded compilation on this architecture");
    }
}
