//! Affine (fully-connected) layer with explicit backward pass.

use crate::param::Param;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tgnn_tensor::gemm::{matmul, matmul_prepacked_into, PackedB};
use tgnn_tensor::ops::add_row_broadcast;
use tgnn_tensor::{Matrix, TensorRng, Workspace};

/// `y = x · Wᵀ + b`, operating on batches where each row of `x` is one
/// sample.
///
/// Weights are stored as `out_dim × in_dim` (the natural layout for the
/// hardware's Multiply-Accumulate arrays, which stream one output row per
/// array pass).  For inference the layer also keeps `Wᵀ` packed into the
/// GEMM microkernel's panel layout — weight-stationary, packed once on the
/// first [`Self::forward_into`] — which is why `weight` is private: every
/// mutable route to it ([`Self::weight_mut`], [`Self::params_mut`]) drops
/// the pack, so a stale one cannot be served.
///
/// All forward paths follow the fused numeric contract stated in
/// `ARCHITECTURE.md` (numeric identity) and are bit-identical to each other.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    pub bias: Param,
    in_dim: usize,
    out_dim: usize,
    /// `Wᵀ` in packed-panel layout; empty until first use and after any
    /// mutable access to `weight`.  Not part of the serialized form.
    #[serde(skip)]
    packed: OnceLock<PackedB>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Self {
            weight: Param::new(format!("{name}.weight"), rng.xavier_matrix(out_dim, in_dim)),
            bias: Param::zeros(format!("{name}.bias"), 1, out_dim),
            in_dim,
            out_dim,
            packed: OnceLock::new(),
        }
    }

    /// Creates a layer from explicit weights (used by tests and by the
    /// LUT-fusion pre-computation).
    pub fn from_parts(name: &str, weight: Matrix, bias: Vec<f32>) -> Self {
        let in_dim = weight.cols();
        let out_dim = weight.rows();
        assert_eq!(
            bias.len(),
            out_dim,
            "Linear::from_parts: bias length mismatch"
        );
        Self {
            weight: Param::new(format!("{name}.weight"), weight),
            bias: Param::new(format!("{name}.bias"), Matrix::from_vec(1, out_dim, bias)),
            in_dim,
            out_dim,
            packed: OnceLock::new(),
        }
    }

    /// The `out_dim × in_dim` weight.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight; drops the inference pack, which the
    /// next [`Self::forward_into`] rebuilds from the new values.
    pub fn weight_mut(&mut self) -> &mut Param {
        self.packed.take();
        &mut self.weight
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass: `x (B×in) -> y (B×out)`.
    ///
    /// # Panics
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "Linear::forward: input dim mismatch");
        let y = matmul(x, &self.weight.value.transpose());
        add_row_broadcast(&y, self.bias.value.row(0))
    }

    /// Allocation-free forward pass writing into a pre-sized output: the
    /// `x·Wᵀ` product runs the FMA microkernel straight from the packed
    /// weight (built here on first use, never again until the weight
    /// changes) and the bias is added in place.  Bit-identical to
    /// [`Self::forward`].
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "Linear::forward_into: input dim mismatch"
        );
        assert_eq!(
            out.shape(),
            (x.rows(), self.out_dim),
            "Linear::forward_into: output shape mismatch"
        );
        let packed = self
            .packed
            .get_or_init(|| PackedB::from_transposed(&self.weight.value));
        matmul_prepacked_into(x, packed, out);
        let bias = self.bias.value.row(0);
        for i in 0..out.rows() {
            for (v, &b) in out.row_mut(i).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// [`Self::forward_into`] with the output taken from the workspace
    /// (recycle it back when done).
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut out = ws.take_matrix(x.rows(), self.out_dim);
        self.forward_into(x, &mut out);
        out
    }

    /// Backward pass.  Accumulates `dW = grad_outᵀ · x` and
    /// `db = Σ_rows grad_out`, and returns `grad_x = grad_out · W`.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "Linear::backward: input dim mismatch"
        );
        assert_eq!(
            grad_out.cols(),
            self.out_dim,
            "Linear::backward: grad dim mismatch"
        );
        assert_eq!(
            x.rows(),
            grad_out.rows(),
            "Linear::backward: batch mismatch"
        );

        let dw = matmul(&grad_out.transpose(), x);
        self.weight.accumulate(&dw);

        let mut db = Matrix::zeros(1, self.out_dim);
        for i in 0..grad_out.rows() {
            for (acc, &g) in db.row_mut(0).iter_mut().zip(grad_out.row(i)) {
                *acc += g;
            }
        }
        self.bias.accumulate(&db);

        matmul(grad_out, &self.weight.value)
    }

    /// The learnable parameters of the layer (drops the inference pack,
    /// like [`Self::weight_mut`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.packed.take();
        vec![&mut self.weight, &mut self.bias]
    }

    /// Immutable access to the parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// Number of multiply-accumulate operations for a batch of `batch` rows —
    /// used by the complexity accounting of Table I/II.
    pub fn macs(&self, batch: usize) -> u64 {
        (batch * self.in_dim * self.out_dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tgnn_tensor::approx_eq;

    #[test]
    fn forward_matches_manual() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let layer = Linear::from_parts("t", w, vec![0.5, -0.5, 0.0]);
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (2, 3));
        assert!(approx_eq(y[(0, 0)], 3.5, 1e-6));
        assert!(approx_eq(y[(0, 1)], 6.5, 1e-6));
        assert!(approx_eq(y[(1, 2)], 10.0, 1e-6));
    }

    #[test]
    fn macs_scale_with_batch() {
        let mut rng = TensorRng::new(0);
        let layer = Linear::new("t", 8, 4, &mut rng);
        assert_eq!(layer.macs(1), 32);
        assert_eq!(layer.macs(10), 320);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = TensorRng::new(5);
        let mut layer = Linear::new("t", 4, 3, &mut rng);
        let x = rng.uniform_matrix(5, 4, -1.0, 1.0);

        // Loss = sum of outputs; d(loss)/d(out) = ones.
        let grad_out = Matrix::full(5, 3, 1.0);
        let grad_x = layer.backward(&x, &grad_out);

        // Check dW against finite differences of loss(w) = sum(forward(x)).
        let loss_fn = |l: &Linear| l.forward(&x).sum();
        check_gradients(
            &loss_fn(&layer),
            &layer.weight().grad,
            |i, j, eps| {
                let mut pert = layer.clone();
                pert.weight_mut().value[(i, j)] += eps;
                loss_fn(&pert)
            },
            2e-2,
        );
        check_gradients(
            &loss_fn(&layer),
            &layer.bias.grad,
            |i, j, eps| {
                let mut pert = layer.clone();
                pert.bias.value[(i, j)] += eps;
                loss_fn(&pert)
            },
            2e-2,
        );
        // grad_x: each element of x contributes sum of its weight column.
        for i in 0..4 {
            let col_sum: f32 = (0..3).map(|o| layer.weight().value[(o, i)]).sum();
            for r in 0..5 {
                assert!(approx_eq(grad_x[(r, i)], col_sum, 1e-4));
            }
        }
    }

    #[test]
    fn params_are_exposed() {
        let mut rng = TensorRng::new(1);
        let mut layer = Linear::new("t", 3, 2, &mut rng);
        assert_eq!(layer.params().len(), 2);
        assert_eq!(layer.params_mut().len(), 2);
        assert_eq!(crate::param::count_parameters(&layer.params()), 3 * 2 + 2);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn forward_rejects_bad_input() {
        let mut rng = TensorRng::new(2);
        let layer = Linear::new("t", 3, 2, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 4));
    }

    #[test]
    fn forward_ws_is_bitwise_identical_to_forward() {
        let mut rng = TensorRng::new(3);
        let mut ws = Workspace::new();
        for &(batch, in_dim, out_dim) in &[(1usize, 7usize, 5usize), (9, 33, 12), (64, 100, 100)] {
            let layer = Linear::new("t", in_dim, out_dim, &mut rng);
            let x = rng.uniform_matrix(batch, in_dim, -1.0, 1.0);
            let reference = layer.forward(&x);
            let out = layer.forward_ws(&x, &mut ws);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "{batch}x{in_dim}x{out_dim}"
            );
            ws.recycle_matrix(out);
        }
    }

    #[test]
    fn a_stale_pack_cannot_be_served() {
        let mut rng = TensorRng::new(6);
        let mut ws = Workspace::new();
        let mut layer = Linear::new("t", 33, 12, &mut rng);
        let x = rng.uniform_matrix(9, 33, -1.0, 1.0);
        let assert_ws_matches_forward = |layer: &Linear, ws: &mut Workspace, what: &str| {
            let out = layer.forward_ws(&x, ws);
            assert_eq!(out.as_slice(), layer.forward(&x).as_slice(), "{what}");
            ws.recycle_matrix(out);
        };
        assert_ws_matches_forward(&layer, &mut ws, "fresh layer"); // builds the pack

        // An optimizer step through `params_mut`.
        let before = layer.forward(&x);
        let _ = layer.backward(&x, &Matrix::full(9, 12, 1.0));
        crate::optim::Sgd::new(0.1).step(&mut layer.params_mut());
        assert_ne!(layer.forward(&x).as_slice(), before.as_slice());
        assert_ws_matches_forward(&layer, &mut ws, "after an optimizer step");

        // A direct write through `weight_mut`.
        layer.weight_mut().value[(0, 0)] += 1.0;
        assert_ws_matches_forward(&layer, &mut ws, "after weight_mut");

        // A load rebuilds the layer from its stored tensors: the pack is not
        // part of the serialized form (`#[serde(skip)]`), so it starts empty.
        let loaded = Linear::from_parts(
            "t",
            layer.weight().value.clone(),
            layer.bias.value.row(0).to_vec(),
        );
        assert_ws_matches_forward(&loaded, &mut ws, "after a reload");
        // A clone carries the (current) pack along.
        assert_ws_matches_forward(&layer.clone(), &mut ws, "clone");
    }

    #[test]
    fn forward_ws_steady_state_does_not_allocate() {
        let mut rng = TensorRng::new(4);
        let mut ws = Workspace::new();
        let layer = Linear::new("t", 24, 16, &mut rng);
        let x = rng.uniform_matrix(10, 24, -1.0, 1.0);
        for _ in 0..2 {
            let out = layer.forward_ws(&x, &mut ws);
            ws.recycle_matrix(out);
        }
        let warm = ws.heap_allocs();
        for _ in 0..50 {
            let out = layer.forward_ws(&x, &mut ws);
            ws.recycle_matrix(out);
        }
        assert_eq!(ws.heap_allocs(), warm);
    }
}
