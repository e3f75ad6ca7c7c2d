//! GRU memory updater — the `UPDT` function of memory-based TGNNs
//! (Eq. 7–10 of the paper).
//!
//! ```text
//! r = σ(W_ir·m + b_ir + W_hr·s + b_hr)        (reset gate)
//! z = σ(W_iz·m + b_iz + W_hz·s + b_hz)        (update gate)
//! n = tanh(W_in·m + b_in + r ⊙ (W_hn·s + b_hn))  (memory gate)
//! s' = (1 − z) ⊙ n + z ⊙ s                    (merging gate)
//! ```
//!
//! where `m` is the aggregated message (Eq. 4–5) and `s` the previous node
//! memory.  On the accelerator the four gates map to the Memory Update Unit:
//! three Sg×Sg multiply-accumulate arrays connected by FIFOs plus an
//! elementwise merge stage (Section IV-B).

use crate::linear::Linear;
use crate::param::Param;
use serde::{Deserialize, Serialize};
use tgnn_tensor::ops::{sigmoid, tanh};
use tgnn_tensor::{Matrix, TensorRng, Workspace};

/// GRU cell operating on batches (each row = one vertex).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruCell {
    /// Input-to-reset projection `W_ir, b_ir`.
    pub w_ir: Linear,
    /// Hidden-to-reset projection `W_hr, b_hr`.
    pub w_hr: Linear,
    /// Input-to-update projection `W_iz, b_iz`.
    pub w_iz: Linear,
    /// Hidden-to-update projection `W_hz, b_hz`.
    pub w_hz: Linear,
    /// Input-to-memory projection `W_in, b_in`.
    pub w_in: Linear,
    /// Hidden-to-memory projection `W_hn, b_hn`.
    pub w_hn: Linear,
    input_dim: usize,
    hidden_dim: usize,
}

/// Intermediate activations cached by [`GruCell::forward_cached`] and
/// consumed by [`GruCell::backward`].
#[derive(Clone, Debug)]
pub struct GruCache {
    pub input: Matrix,
    pub hidden: Matrix,
    pub r: Matrix,
    pub z: Matrix,
    pub n: Matrix,
    /// `W_hn·s + b_hn` before the reset gate is applied.
    pub hn_lin: Matrix,
}

impl GruCell {
    /// Creates a GRU cell mapping `input_dim`-dimensional messages onto
    /// `hidden_dim`-dimensional node memory.
    pub fn new(name: &str, input_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        Self {
            w_ir: Linear::new(&format!("{name}.w_ir"), input_dim, hidden_dim, rng),
            w_hr: Linear::new(&format!("{name}.w_hr"), hidden_dim, hidden_dim, rng),
            w_iz: Linear::new(&format!("{name}.w_iz"), input_dim, hidden_dim, rng),
            w_hz: Linear::new(&format!("{name}.w_hz"), hidden_dim, hidden_dim, rng),
            w_in: Linear::new(&format!("{name}.w_in"), input_dim, hidden_dim, rng),
            w_hn: Linear::new(&format!("{name}.w_hn"), hidden_dim, hidden_dim, rng),
            input_dim,
            hidden_dim,
        }
    }

    /// Message (input) dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Memory (hidden) dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Forward pass returning only the new hidden state.
    pub fn forward(&self, input: &Matrix, hidden: &Matrix) -> Matrix {
        self.forward_cached(input, hidden).0
    }

    /// Allocation-free inference forward pass on workspace buffers and the
    /// packed GEMM.  Elementwise operations run in the same order as
    /// [`Self::forward`], so the result is bit-identical; no backward cache
    /// is produced.  The returned matrix comes from the workspace — recycle
    /// it when done.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn forward_ws(&self, input: &Matrix, hidden: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(input.cols(), self.input_dim, "GruCell: input dim mismatch");
        assert_eq!(
            hidden.cols(),
            self.hidden_dim,
            "GruCell: hidden dim mismatch"
        );
        assert_eq!(input.rows(), hidden.rows(), "GruCell: batch mismatch");

        // r = σ(W_ir·m + b_ir + W_hr·s + b_hr)
        let mut r = self.w_ir.forward_ws(input, ws);
        let hr = self.w_hr.forward_ws(hidden, ws);
        for (a, &b) in r.as_mut_slice().iter_mut().zip(hr.as_slice()) {
            *a = sigmoid(*a + b);
        }
        ws.recycle_matrix(hr);

        // z = σ(W_iz·m + b_iz + W_hz·s + b_hz)
        let mut z = self.w_iz.forward_ws(input, ws);
        let hz = self.w_hz.forward_ws(hidden, ws);
        for (a, &b) in z.as_mut_slice().iter_mut().zip(hz.as_slice()) {
            *a = sigmoid(*a + b);
        }
        ws.recycle_matrix(hz);

        // n = tanh(W_in·m + b_in + r ⊙ (W_hn·s + b_hn))
        let mut n = self.w_in.forward_ws(input, ws);
        let hn_lin = self.w_hn.forward_ws(hidden, ws);
        for ((a, &ri), &h) in n
            .as_mut_slice()
            .iter_mut()
            .zip(r.as_slice())
            .zip(hn_lin.as_slice())
        {
            *a = tanh(*a + ri * h);
        }
        ws.recycle_matrix(hn_lin);
        ws.recycle_matrix(r);

        // s' = (1 − z) ⊙ n + z ⊙ s, written over n.
        for ((a, &zi), &si) in n
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(hidden.as_slice())
        {
            *a = (1.0 - zi) * *a + zi * si;
        }
        ws.recycle_matrix(z);
        n
    }

    /// Forward pass returning the new hidden state and the cache needed for
    /// the backward pass.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn forward_cached(&self, input: &Matrix, hidden: &Matrix) -> (Matrix, GruCache) {
        assert_eq!(input.cols(), self.input_dim, "GruCell: input dim mismatch");
        assert_eq!(
            hidden.cols(),
            self.hidden_dim,
            "GruCell: hidden dim mismatch"
        );
        assert_eq!(input.rows(), hidden.rows(), "GruCell: batch mismatch");

        let r_pre = tgnn_tensor::ops::add(&self.w_ir.forward(input), &self.w_hr.forward(hidden));
        let z_pre = tgnn_tensor::ops::add(&self.w_iz.forward(input), &self.w_hz.forward(hidden));
        let r = r_pre.map(sigmoid);
        let z = z_pre.map(sigmoid);
        let hn_lin = self.w_hn.forward(hidden);
        let n_pre = tgnn_tensor::ops::add(
            &self.w_in.forward(input),
            &tgnn_tensor::ops::hadamard(&r, &hn_lin),
        );
        let n = n_pre.map(tanh);

        // s' = (1 - z) ⊙ n + z ⊙ s
        let new_hidden = n
            .zip(&z, |ni, zi| (1.0 - zi) * ni)
            .zip(&tgnn_tensor::ops::hadamard(&z, hidden), |a, b| a + b);

        let cache = GruCache {
            input: input.clone(),
            hidden: hidden.clone(),
            r,
            z,
            n,
            hn_lin,
        };
        (new_hidden, cache)
    }

    /// Backward pass.  Given `grad_new_hidden = ∂L/∂s'`, accumulates all
    /// weight gradients and returns `(∂L/∂m, ∂L/∂s)`.
    pub fn backward(&mut self, cache: &GruCache, grad_new_hidden: &Matrix) -> (Matrix, Matrix) {
        let GruCache {
            input,
            hidden,
            r,
            z,
            n,
            hn_lin,
        } = cache;

        // s' = (1 - z) ⊙ n + z ⊙ s
        let dn = grad_new_hidden.zip(z, |g, zi| g * (1.0 - zi));
        let dz = grad_new_hidden.zip(&tgnn_tensor::ops::sub(hidden, n), |g, diff| g * diff);
        let ds_direct = tgnn_tensor::ops::hadamard(grad_new_hidden, z);

        // n = tanh(n_pre)
        let dn_pre = dn.zip(n, |g, ni| g * (1.0 - ni * ni));
        // n_pre = W_in·m + b_in + r ⊙ hn_lin
        let dr = tgnn_tensor::ops::hadamard(&dn_pre, hn_lin);
        let dhn_lin = tgnn_tensor::ops::hadamard(&dn_pre, r);

        // Gates: r = σ(r_pre), z = σ(z_pre)
        let dr_pre = dr.zip(r, |g, ri| g * ri * (1.0 - ri));
        let dz_pre = dz.zip(z, |g, zi| g * zi * (1.0 - zi));

        // Propagate through the six affine projections.
        let dm_r = self.w_ir.backward(input, &dr_pre);
        let ds_r = self.w_hr.backward(hidden, &dr_pre);
        let dm_z = self.w_iz.backward(input, &dz_pre);
        let ds_z = self.w_hz.backward(hidden, &dz_pre);
        let dm_n = self.w_in.backward(input, &dn_pre);
        let ds_n = self.w_hn.backward(hidden, &dhn_lin);

        let grad_input = tgnn_tensor::ops::add(&tgnn_tensor::ops::add(&dm_r, &dm_z), &dm_n);
        let grad_hidden = tgnn_tensor::ops::add(
            &tgnn_tensor::ops::add(&ds_r, &ds_z),
            &tgnn_tensor::ops::add(&ds_n, &ds_direct),
        );
        (grad_input, grad_hidden)
    }

    /// Learnable parameters (12 tensors: 6 weights + 6 biases).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::with_capacity(12);
        out.extend(self.w_ir.params_mut());
        out.extend(self.w_hr.params_mut());
        out.extend(self.w_iz.params_mut());
        out.extend(self.w_hz.params_mut());
        out.extend(self.w_in.params_mut());
        out.extend(self.w_hn.params_mut());
        out
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::with_capacity(12);
        out.extend(self.w_ir.params());
        out.extend(self.w_hr.params());
        out.extend(self.w_iz.params());
        out.extend(self.w_hz.params());
        out.extend(self.w_in.params());
        out.extend(self.w_hn.params());
        out
    }

    /// Multiply-accumulate count per batch of `batch` vertices (three
    /// input-side and three hidden-side matrix products).
    pub fn macs(&self, batch: usize) -> u64 {
        (3 * batch * self.input_dim * self.hidden_dim
            + 3 * batch * self.hidden_dim * self.hidden_dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tgnn_tensor::approx_eq;

    /// Scalar reference implementation of one GRU element for cross-checking.
    #[allow(clippy::too_many_arguments)]
    fn scalar_gru(
        m: f32,
        s: f32,
        wir: f32,
        whr: f32,
        wiz: f32,
        whz: f32,
        win: f32,
        whn: f32,
    ) -> f32 {
        let r = sigmoid(wir * m + whr * s);
        let z = sigmoid(wiz * m + whz * s);
        let n = (win * m + r * (whn * s)).tanh();
        (1.0 - z) * n + z * s
    }

    #[test]
    fn matches_scalar_reference_for_1x1() {
        let mut rng = TensorRng::new(0);
        let mut cell = GruCell::new("g", 1, 1, &mut rng);
        // Zero the biases so the scalar reference applies.
        for p in cell.params_mut() {
            if p.name.ends_with(".bias") {
                p.value.as_mut_slice().fill(0.0);
            }
        }
        let wir = cell.w_ir.weight().value[(0, 0)];
        let whr = cell.w_hr.weight().value[(0, 0)];
        let wiz = cell.w_iz.weight().value[(0, 0)];
        let whz = cell.w_hz.weight().value[(0, 0)];
        let win = cell.w_in.weight().value[(0, 0)];
        let whn = cell.w_hn.weight().value[(0, 0)];

        let m = 0.7;
        let s = -0.3;
        let out = cell.forward(&Matrix::row_vector(&[m]), &Matrix::row_vector(&[s]));
        let expected = scalar_gru(m, s, wir, whr, wiz, whz, win, whn);
        assert!(approx_eq(out[(0, 0)], expected, 1e-5));
    }

    #[test]
    fn output_shape_and_interpolation_property() {
        let mut rng = TensorRng::new(1);
        let cell = GruCell::new("g", 6, 4, &mut rng);
        let m = rng.uniform_matrix(5, 6, -1.0, 1.0);
        let s = rng.uniform_matrix(5, 4, -1.0, 1.0);
        let out = cell.forward(&m, &s);
        assert_eq!(out.shape(), (5, 4));
        // The GRU output is a convex combination of n ∈ (-1, 1) and s, so it
        // is bounded by max(|s|, 1).
        let bound = s.max_abs().max(1.0) + 1e-5;
        assert!(out.max_abs() <= bound);
        assert!(out.all_finite());
    }

    #[test]
    fn zero_update_gate_keeps_memory_when_z_saturated() {
        let mut rng = TensorRng::new(2);
        let mut cell = GruCell::new("g", 2, 3, &mut rng);
        // Force the update gate to saturate at 1 (z ≈ 1 ⇒ s' ≈ s).
        cell.w_iz.bias.value.as_mut_slice().fill(50.0);
        let m = rng.uniform_matrix(4, 2, -1.0, 1.0);
        let s = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let out = cell.forward(&m, &s);
        for i in 0..4 {
            for j in 0..3 {
                assert!(approx_eq(out[(i, j)], s[(i, j)], 1e-3));
            }
        }
    }

    #[test]
    fn backward_weight_gradients_match_finite_differences() {
        let mut rng = TensorRng::new(3);
        let mut cell = GruCell::new("g", 3, 2, &mut rng);
        let m = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let s = rng.uniform_matrix(4, 2, -1.0, 1.0);

        let loss_fn = |c: &GruCell| c.forward(&m, &s).sum();
        let (out, cache) = cell.forward_cached(&m, &s);
        let loss = out.sum();
        let grad_out = Matrix::full(4, 2, 1.0);
        let (_, _) = cell.backward(&cache, &grad_out);

        // Check a representative subset of weights (full check is slow).
        check_gradients(
            &loss,
            &cell.w_in.weight().grad,
            |i, j, eps| {
                let mut pert = cell.clone();
                pert.w_in.weight_mut().value[(i, j)] += eps;
                loss_fn(&pert)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &cell.w_hn.weight().grad,
            |i, j, eps| {
                let mut pert = cell.clone();
                pert.w_hn.weight_mut().value[(i, j)] += eps;
                loss_fn(&pert)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &cell.w_hz.weight().grad,
            |i, j, eps| {
                let mut pert = cell.clone();
                pert.w_hz.weight_mut().value[(i, j)] += eps;
                loss_fn(&pert)
            },
            3e-2,
        );
    }

    #[test]
    fn backward_input_gradients_match_finite_differences() {
        let mut rng = TensorRng::new(4);
        let mut cell = GruCell::new("g", 3, 2, &mut rng);
        let m = rng.uniform_matrix(2, 3, -1.0, 1.0);
        let s = rng.uniform_matrix(2, 2, -1.0, 1.0);
        let (out, cache) = cell.forward_cached(&m, &s);
        let loss = out.sum();
        let (grad_m, grad_s) = cell.backward(&cache, &Matrix::full(2, 2, 1.0));

        check_gradients(
            &loss,
            &grad_m,
            |i, j, eps| {
                let mut pert = m.clone();
                pert[(i, j)] += eps;
                cell.forward(&pert, &s).sum()
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &grad_s,
            |i, j, eps| {
                let mut pert = s.clone();
                pert[(i, j)] += eps;
                cell.forward(&m, &pert).sum()
            },
            3e-2,
        );
    }

    #[test]
    fn forward_ws_is_bitwise_identical_to_forward() {
        let mut rng = TensorRng::new(8);
        let mut ws = Workspace::new();
        let cell = GruCell::new("g", 12, 7, &mut rng);
        for batch in [1usize, 3, 17] {
            let m = rng.uniform_matrix(batch, 12, -1.0, 1.0);
            let s = rng.uniform_matrix(batch, 7, -1.0, 1.0);
            let reference = cell.forward(&m, &s);
            let out = cell.forward_ws(&m, &s, &mut ws);
            assert_eq!(out.as_slice(), reference.as_slice(), "batch {batch}");
            ws.recycle_matrix(out);
        }
    }

    #[test]
    fn forward_ws_steady_state_does_not_allocate_or_pack() {
        let mut rng = TensorRng::new(9);
        let mut ws = Workspace::new();
        let cell = GruCell::new("g", 20, 10, &mut rng);
        let m = rng.uniform_matrix(8, 20, -1.0, 1.0);
        let s = rng.uniform_matrix(8, 10, -1.0, 1.0);
        for _ in 0..3 {
            let out = cell.forward_ws(&m, &s, &mut ws);
            ws.recycle_matrix(out);
        }
        let warm = ws.heap_allocs();
        let packs = tgnn_tensor::gemm::panel_packs_on_this_thread();
        for _ in 0..50 {
            let out = cell.forward_ws(&m, &s, &mut ws);
            ws.recycle_matrix(out);
        }
        assert_eq!(ws.heap_allocs(), warm, "steady-state GRU must not allocate");
        assert_eq!(
            tgnn_tensor::gemm::panel_packs_on_this_thread(),
            packs,
            "steady-state GRU must not re-pack its weights"
        );
    }

    #[test]
    fn macs_formula() {
        let mut rng = TensorRng::new(5);
        let cell = GruCell::new("g", 10, 4, &mut rng);
        // 3 * (10*4) + 3 * (4*4) per row.
        assert_eq!(cell.macs(1), 120 + 48);
        assert_eq!(cell.macs(7), 7 * 168);
    }

    #[test]
    fn parameter_count() {
        let mut rng = TensorRng::new(6);
        let cell = GruCell::new("g", 5, 3, &mut rng);
        let total = crate::param::count_parameters(&cell.params());
        // 3 input weights 3x5, 3 hidden weights 3x3, 6 biases of 3.
        assert_eq!(total, 3 * 15 + 3 * 9 + 6 * 3);
    }
}
