//! Elementwise operations, activations, and row-wise softmax.
//!
//! These cover the nonlinearities of the GRU memory updater (sigmoid/tanh,
//! Eq. 7–10 of the paper), the attention softmax (Eq. 15/16), and the small
//! vector utilities the model and accelerator simulator share.
//!
//! Every transcendental here — [`sigmoid`], [`tanh`], the `exp` inside
//! [`softmax`] / [`log_softmax`] — is evaluated by the slice kernels of
//! [`crate::vmath`], never by libm, so the values are the same on every
//! machine and on every path.  The scalar forms run a one-element slice:
//! fine for a test or a loss term, wrong for a hot loop — hand the whole
//! buffer to the `*_matrix` form or to the slice kernel instead.

use crate::vmath::{exp_slice, sigmoid_slice, tanh_slice};
use crate::{Float, Matrix};

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(mut x: Float) -> Float {
    sigmoid_slice(std::slice::from_mut(&mut x));
    x
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(mut x: Float) -> Float {
    tanh_slice(std::slice::from_mut(&mut x));
    x
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: Float) -> Float {
    x.max(0.0)
}

/// Elementwise sigmoid over a matrix.
pub fn sigmoid_matrix(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    sigmoid_slice(out.as_mut_slice());
    out
}

/// Elementwise tanh over a matrix.
pub fn tanh_matrix(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    tanh_slice(out.as_mut_slice());
    out
}

/// Numerically-stable softmax of a slice, written into a new vector.
/// Returns a uniform distribution for an empty or all-`-inf` input.
pub fn softmax(logits: &[Float]) -> Vec<Float> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] overwriting the logits with their weights (no allocation; the
/// same arithmetic, so the same bits).
pub fn softmax_in_place(xs: &mut [Float]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(Float::NEG_INFINITY, Float::max);
    if !max.is_finite() {
        xs.fill(1.0 / xs.len() as Float);
        return;
    }
    xs.iter_mut().for_each(|x| *x -= max);
    exp_slice(xs);
    let sum: Float = xs.iter().sum();
    xs.iter_mut().for_each(|e| *e /= sum);
}

/// Log-softmax of a slice (stable).
pub fn log_softmax(logits: &[Float]) -> Vec<Float> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(Float::NEG_INFINITY, Float::max);
    let mut exps: Vec<Float> = logits.iter().map(|&x| x - max).collect();
    exp_slice(&mut exps);
    let log_sum: Float = exps.iter().sum::<Float>().ln() + max;
    logits.iter().map(|&x| x - log_sum).collect()
}

/// Elementwise addition of two equally shaped matrices.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    a.zip(b, |x, y| x + y)
}

/// Elementwise subtraction `a - b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    a.zip(b, |x, y| x - y)
}

/// Elementwise (Hadamard) product.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    a.zip(b, |x, y| x * y)
}

/// Scales every element by `alpha`.
pub fn scale(a: &Matrix, alpha: Float) -> Matrix {
    a.map(|x| alpha * x)
}

/// Adds a row vector (bias) to every row of the matrix.
///
/// # Panics
/// Panics if `bias.len() != m.cols()`.
pub fn add_row_broadcast(m: &Matrix, bias: &[Float]) -> Matrix {
    assert_eq!(m.cols(), bias.len(), "add_row_broadcast: length mismatch");
    let mut out = m.clone();
    for i in 0..out.rows() {
        for (v, &b) in out.row_mut(i).iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
    out
}

/// In-place `a += b` for equally shaped matrices.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign: shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// Weighted sum of rows: `Σ_i w[i] * m.row(i)`, the feature-aggregation
/// primitive of the Embedding Unit's FAM module ([`weighted_sum_into`]).
/// Like the FAM, which streams one target's neighbor features out of a
/// small staging buffer, the GNN stage applies it to one target's rows at a
/// time, never to a batch-wide matrix of neighbor rows.
///
/// # Panics
/// Panics if `weights.len() != m.rows()`.
pub fn weighted_row_sum(m: &Matrix, weights: &[Float]) -> Vec<Float> {
    assert_eq!(m.rows(), weights.len(), "weighted_row_sum: length mismatch");
    let mut acc = vec![0.0; m.cols()];
    weighted_sum_into(weights, |i| m.row(i), &mut acc);
    acc
}

/// `out = Σ_i weights[i] · row(i)` — the one aggregation order: `out` starts
/// at `+0.0`, rows are added in ascending `i` as `out + w·x` (product
/// rounded, then sum), and a zero weight skips its row.
///
/// # Panics
/// Panics if a row is shorter than `out`.
pub fn weighted_sum_into<'a>(
    weights: &[Float],
    row: impl Fn(usize) -> &'a [Float],
    out: &mut [Float],
) {
    out.fill(0.0);
    for (i, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let x = &row(i)[..out.len()];
        for (a, &x) in out.iter_mut().zip(x) {
            *a += w * x;
        }
    }
}

/// Asks the CPU to start loading `xs` into its caches, one request per
/// 64-byte line — a hint that changes no value (a no-op off x86-64).  The
/// GNN stage issues it for the next vertex's rows while it computes this
/// one's, the CPU form of the Embedding Unit's prefetching loader.
#[inline]
pub fn prefetch(xs: &[Float]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64 / std::mem::size_of::<Float>();
        let last = xs.len().saturating_sub(1);
        for i in (0..xs.len())
            .step_by(LINE)
            .chain((xs.len() > 1).then_some(last))
        {
            // SAFETY: a prefetch reads no memory architecturally and never
            // faults; the address is inside `xs` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(xs.as_ptr().add(i).cast()) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
}

/// Cosine similarity between two slices (0 if either is the zero vector).
/// Re-exported from [`crate::stats`], where the comparison statistics live.
pub use crate::stats::cosine_similarity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn sigmoid_properties() {
        assert!(approx_eq(sigmoid(0.0), 0.5, 1e-6));
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    fn scalar_and_matrix_forms_are_the_same_kernel() {
        let m = Matrix::from_fn(7, 13, |i, j| {
            (i as Float - 3.0) * 1.7 + j as Float * 0.31 - 2.0
        });
        let (s, t) = (sigmoid_matrix(&m), tanh_matrix(&m));
        for (i, &x) in m.as_slice().iter().enumerate() {
            assert_eq!(
                s.as_slice()[i].to_bits(),
                sigmoid(x).to_bits(),
                "sigmoid({x})"
            );
            assert_eq!(t.as_slice()[i].to_bits(), tanh(x).to_bits(), "tanh({x})");
        }
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let logits = vec![1.0, 2.0, 3.0, -5.0];
        let p = softmax(&logits);
        let sum: Float = p.iter().sum();
        assert!(approx_eq(sum, 1.0, 1e-6));

        let shifted: Vec<Float> = logits.iter().map(|&x| x + 100.0).collect();
        let p2 = softmax(&shifted);
        for (a, b) in p.iter().zip(p2.iter()) {
            assert!(approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[1e30, -1e30]);
        assert!(p[0] > 0.999 && p[1] < 0.001);
        assert!(softmax(&[]).is_empty());
        let single = softmax(&[42.0]);
        assert!(approx_eq(single[0], 1.0, 1e-6));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let logits = vec![0.3, -1.2, 2.5];
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(lp.iter()) {
            assert!(approx_eq(a.ln(), *b, 1e-5));
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        assert_eq!(add(&a, &b)[(1, 1)], 12.0);
        assert_eq!(sub(&b, &a)[(0, 0)], 4.0);
        assert_eq!(hadamard(&a, &b)[(1, 0)], 21.0);
        assert_eq!(scale(&a, 2.0)[(0, 1)], 4.0);
        let biased = add_row_broadcast(&a, &[10.0, 20.0]);
        assert_eq!(biased[(1, 1)], 24.0);
        let mut c = a.clone();
        add_assign(&mut c, &b);
        assert_eq!(c, add(&a, &b));
    }

    #[test]
    fn weighted_row_sum_matches_manual() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let out = weighted_row_sum(&m, &[0.5, 0.25, 0.25]);
        assert!(approx_eq(out[0], 0.75, 1e-6));
        assert!(approx_eq(out[1], 0.5, 1e-6));
    }

    #[test]
    fn similarity_measures() {
        assert!(approx_eq(
            cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]),
            1.0,
            1e-6
        ));
        assert!(approx_eq(
            cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]),
            0.0,
            1e-6
        ));
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
