//! Learnable parameter container.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use tgnn_tensor::{Float, Matrix};

/// Identity of one state of a layer's values, for a cache derived from more
/// than one layer: the fused time table a split [`crate::Linear`] keeps is a
/// function of its own weight *and* of a [`crate::LutTimeEncoder`]'s table,
/// which it does not own.  The encoder draws a fresh stamp every time it
/// hands out mutable access to its table, so **equal stamps imply equal
/// contents** and a cache tagged with a stamp can be validated without
/// comparing tables.  A copy keeps its source's stamp (same contents);
/// `Default` — what a `#[serde(skip)]` field gets on deserialisation — draws
/// a new one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    /// A stamp no other value in this process holds.
    pub fn fresh() -> Self {
        // Relaxed: only uniqueness matters; the counter publishes no data.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Self::fresh()
    }
}

/// A learnable parameter: a value matrix and its accumulated gradient.
///
/// Layers accumulate into `grad` during `backward`; the optimizer consumes
/// and zeroes it.  Vectors (biases, the attention constant `a`, ω/φ of the
/// time encoder) are stored as 1×n matrices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Human-readable name used in diagnostics and parameter counting.
    pub name: String,
}

impl Param {
    /// Creates a parameter from an initial value with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self {
            value,
            grad,
            name: name.into(),
        }
    }

    /// Creates a zero-initialised parameter (used for biases).
    pub fn zeros(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self::new(name, Matrix::zeros(rows, cols))
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Accumulates a gradient contribution.
    ///
    /// # Panics
    /// Panics if the shape does not match.
    pub fn accumulate(&mut self, g: &Matrix) {
        assert_eq!(
            self.grad.shape(),
            g.shape(),
            "Param::accumulate: shape mismatch for {}",
            self.name
        );
        for (a, &b) in self.grad.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *a += b;
        }
    }

    /// L2 norm of the gradient — used for gradient clipping and diagnostics.
    pub fn grad_norm(&self) -> Float {
        self.grad.frobenius_norm()
    }
}

/// Counts the total number of scalars across a parameter collection.
pub fn count_parameters(params: &[&Param]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Matrix::full(2, 3, 1.5));
        assert_eq!(p.len(), 6);
        assert_eq!(p.grad, Matrix::zeros(2, 3));
        assert_eq!(p.name, "w");
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::zeros("b", 1, 3);
        p.accumulate(&Matrix::row_vector(&[1.0, 2.0, 3.0]));
        p.accumulate(&Matrix::row_vector(&[1.0, 1.0, 1.0]));
        assert_eq!(p.grad.row(0), &[2.0, 3.0, 4.0]);
        assert!((p.grad_norm() - (4.0f32 + 9.0 + 16.0).sqrt()).abs() < 1e-6);
        p.zero_grad();
        assert_eq!(p.grad, Matrix::zeros(1, 3));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn accumulate_rejects_wrong_shape() {
        let mut p = Param::zeros("b", 1, 3);
        p.accumulate(&Matrix::zeros(2, 3));
    }

    #[test]
    fn parameter_counting() {
        let a = Param::zeros("a", 4, 5);
        let b = Param::zeros("b", 1, 7);
        assert_eq!(count_parameters(&[&a, &b]), 27);
    }
}
