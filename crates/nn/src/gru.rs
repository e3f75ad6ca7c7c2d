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
//!
//! This is the stage the paper cannot parallelise across a vertex's events,
//! so its per-row cost is the lever.  Here a batch is **two** GEMMs — the
//! three input-side projections stacked into one `input → 3h` layer, the
//! three hidden-side ones into one `hidden → 3h` layer — and **one** fused
//! elementwise pass (`tgnn_tensor::vmath::gru_gates_into`) that evaluates
//! σ/tanh with the stack's deterministic vector kernels and writes `s'`
//! directly.  The training path ([`GruCell::forward_cached`]) runs the same
//! kernels step by step and is bit-identical.

use crate::linear::Linear;
use crate::param::Param;
use crate::time_encode::LutTimeEncoder;
use serde::{Deserialize, Serialize};
use tgnn_tensor::ops::{add, hadamard, sigmoid_matrix, tanh_matrix};
use tgnn_tensor::vmath::gru_gates_into;
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

/// GRU cell operating on batches (each row = one vertex).
///
/// The six gate projections are held as **two** stacked layers —
/// `input → 3h` and `hidden → 3h`, output blocks `[r; z; n]` — so a batch
/// costs two GEMMs and one fused elementwise pass
/// ([`gru_gates_into`]) instead of six GEMMs and four passes.  Every output
/// column still has its own ascending-`k` accumulator, so stacking changes no
/// bit of any pre-activation, and pack-once / stale-pack safety is
/// [`Linear`]'s.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruCell {
    /// Input-side projections `[W_ir; W_iz; W_in]`, `[b_ir; b_iz; b_in]`.
    pub w_i: Linear,
    /// Hidden-side projections `[W_hr; W_hz; W_hn]`, `[b_hr; b_hz; b_hn]`.
    pub w_h: Linear,
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
    /// `hidden_dim`-dimensional node memory.  Each gate block is drawn on
    /// its own — in the order `ir, hr, iz, hz, in, hn`, Xavier-scaled by the
    /// gate's `hidden_dim × fan_in` shape — so a seed yields the weights it
    /// always has.
    pub fn new(name: &str, input_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        let mut gate = |fan_in: usize| rng.xavier_matrix(hidden_dim, fan_in);
        let (ir, hr) = (gate(input_dim), gate(hidden_dim));
        let (iz, hz) = (gate(input_dim), gate(hidden_dim));
        let (i_n, hn) = (gate(input_dim), gate(hidden_dim));
        let stacked = |name: String, r: Matrix, z: Matrix, n: Matrix| {
            let weight = r.vconcat(&z).vconcat(&n);
            Linear::from_parts(&name, weight, vec![0.0; 3 * hidden_dim])
        };
        Self {
            w_i: stacked(format!("{name}.w_i"), ir, iz, i_n),
            w_h: stacked(format!("{name}.w_h"), hr, hz, hn),
            input_dim,
            hidden_dim,
        }
    }

    /// Declares the last `time_dim` message columns a time encoding (see
    /// [`Linear::with_time_tail`]); `None` leaves the cell as it is.
    pub fn with_time_tail(mut self, time_dim: Option<usize>) -> Self {
        self.w_i = self.w_i.with_time_tail(time_dim);
        self
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

    fn check_shapes(&self, input: &Matrix, hidden: &Matrix) {
        assert_eq!(input.cols(), self.input_dim, "GruCell: input dim mismatch");
        assert_eq!(
            hidden.cols(),
            self.hidden_dim,
            "GruCell: hidden dim mismatch"
        );
        assert_eq!(input.rows(), hidden.rows(), "GruCell: batch mismatch");
    }

    /// Allocation-free inference forward pass: two packed GEMMs into
    /// workspace buffers, then the fused gate pass writes `s'` directly.
    /// Bit-identical to [`Self::forward`]; no backward cache is produced.
    /// The returned matrix comes from the workspace — recycle it when done.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn forward_ws(&self, input: &Matrix, hidden: &Matrix, ws: &mut Workspace) -> Matrix {
        self.check_shapes(input, hidden);
        let gi = self.w_i.forward_ws(input, ws);
        self.gates_ws(gi, hidden, ws)
    }

    /// [`Self::forward_ws`] of a cell with a time tail, **folded**: `head`
    /// holds the message columns before the time encoding and row `i`'s
    /// encoding is `lut`'s of `delta_t[i]`, read from the fused table
    /// instead of being assembled and multiplied
    /// ([`Linear::forward_folded_into`]).  Bit-identical to
    /// [`Self::forward_ws`] on `[head ‖ lut.forward(delta_t)]`.
    ///
    /// # Panics
    /// Panics if the cell has no time tail or on dimension mismatches.
    pub fn forward_folded_ws(
        &self,
        head: &Matrix,
        lut: &LutTimeEncoder,
        delta_t: &[Float],
        hidden: &Matrix,
        ws: &mut Workspace,
    ) -> Matrix {
        assert_eq!(
            hidden.shape(),
            (head.rows(), self.hidden_dim),
            "GruCell: hidden shape mismatch"
        );
        let gi = self.w_i.forward_folded_ws(head, lut, delta_t, ws);
        self.gates_ws(gi, hidden, ws)
    }

    /// Hidden-side GEMM and the fused gate pass, given the input-side
    /// pre-activations (consumed).
    fn gates_ws(&self, gi: Matrix, hidden: &Matrix, ws: &mut Workspace) -> Matrix {
        let gh = self.w_h.forward_ws(hidden, ws);
        let mut out = ws.take_matrix(hidden.rows(), self.hidden_dim);
        gru_gates_into(&gi, &gh, hidden, &mut out);
        ws.recycle_matrix(gh);
        ws.recycle_matrix(gi);
        out
    }

    /// Forward pass returning the new hidden state and the cache needed for
    /// the backward pass: the gate pass of [`Self::forward_ws`] taken apart
    /// into whole-matrix steps (same kernels, same order, same bits).
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn forward_cached(&self, input: &Matrix, hidden: &Matrix) -> (Matrix, GruCache) {
        self.check_shapes(input, hidden);
        let h = self.hidden_dim;
        let gi = self.w_i.forward(input);
        let gh = self.w_h.forward(hidden);
        let gate = |g: &Matrix, k: usize| g.columns(k * h, (k + 1) * h);

        let r = sigmoid_matrix(&add(&gate(&gi, 0), &gate(&gh, 0)));
        let z = sigmoid_matrix(&add(&gate(&gi, 1), &gate(&gh, 1)));
        let hn_lin = gate(&gh, 2);
        let n = tanh_matrix(&add(&gate(&gi, 2), &hadamard(&r, &hn_lin)));

        // s' = (1 - z) ⊙ n + z ⊙ s
        let new_hidden = n
            .zip(&z, |ni, zi| (1.0 - zi) * ni)
            .zip(&hadamard(&z, hidden), |a, b| a + b);

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
        let ds_direct = hadamard(grad_new_hidden, z);

        // n = tanh(n_pre)
        let dn_pre = dn.zip(n, |g, ni| g * (1.0 - ni * ni));
        // n_pre = W_in·m + b_in + r ⊙ hn_lin
        let dr = hadamard(&dn_pre, hn_lin);
        let dhn_lin = hadamard(&dn_pre, r);

        // Gates: r = σ(r_pre), z = σ(z_pre)
        let dr_pre = dr.zip(r, |g, ri| g * ri * (1.0 - ri));
        let dz_pre = dz.zip(z, |g, zi| g * zi * (1.0 - zi));

        // Propagate through the two stacked projections.
        let d_gi = Matrix::hconcat_all(&[&dr_pre, &dz_pre, &dn_pre]);
        let d_gh = Matrix::hconcat_all(&[&dr_pre, &dz_pre, &dhn_lin]);
        let grad_input = self.w_i.backward(input, &d_gi);
        let grad_hidden = add(&self.w_h.backward(hidden, &d_gh), &ds_direct);
        (grad_input, grad_hidden)
    }

    /// Learnable parameters (4 tensors: 2 stacked weights + 2 stacked
    /// biases).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.w_i.params_mut();
        out.extend(self.w_h.params_mut());
        out
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        let mut out = self.w_i.params();
        out.extend(self.w_h.params());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tgnn_tensor::approx_eq;
    use tgnn_tensor::gemm::matmul;
    use tgnn_tensor::ops::{add_row_broadcast, sigmoid, tanh};

    /// Gate block `k` (`0 = r, 1 = z, 2 = n`) of a stacked layer, as the
    /// standalone `h × fan_in` layer it replaces.
    fn gate_block(layer: &Linear, k: usize) -> Linear {
        let h = layer.out_dim() / 3;
        let rows: Vec<usize> = (k * h..(k + 1) * h).collect();
        Linear::from_parts(
            "gate",
            layer.weight().value.gather_rows(&rows),
            layer.bias.value.row(0)[k * h..(k + 1) * h].to_vec(),
        )
    }

    /// The GRU as the paper writes it (Eq. 7–10): six separate `matmul`s,
    /// then the gates step by step.
    fn six_matmul_oracle(cell: &GruCell, m: &Matrix, s: &Matrix) -> Matrix {
        let lin = |layer: &Linear, k: usize, x: &Matrix| {
            let gate = gate_block(layer, k);
            let product = matmul(x, &gate.weight().value.transpose());
            add_row_broadcast(&product, gate.bias.value.row(0))
        };
        let r = sigmoid_matrix(&add(&lin(&cell.w_i, 0, m), &lin(&cell.w_h, 0, s)));
        let z = sigmoid_matrix(&add(&lin(&cell.w_i, 1, m), &lin(&cell.w_h, 1, s)));
        let hn = lin(&cell.w_h, 2, s);
        let n = tanh_matrix(&add(&lin(&cell.w_i, 2, m), &hadamard(&r, &hn)));
        Matrix::from_fn(s.rows(), s.cols(), |i, j| {
            (1.0 - z[(i, j)]) * n[(i, j)] + z[(i, j)] * s[(i, j)]
        })
    }

    /// A cell with non-zero biases (a fresh one has none to get wrong).
    fn biased_cell(input_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> GruCell {
        let mut cell = GruCell::new("g", input_dim, hidden_dim, rng);
        for layer in [&mut cell.w_i, &mut cell.w_h] {
            layer.bias.value = rng.uniform_matrix(1, 3 * hidden_dim, -0.5, 0.5);
        }
        cell
    }

    #[test]
    fn every_forward_is_bitwise_equal_to_the_six_matmul_oracle() {
        let mut rng = TensorRng::new(8);
        let mut ws = Workspace::new();
        for (input_dim, hidden_dim) in [(1, 1), (12, 7), (37, 16), (472, 100)] {
            let cell = biased_cell(input_dim, hidden_dim, &mut rng);
            for batch in [1usize, 3, 17] {
                let m = rng.uniform_matrix(batch, input_dim, -1.0, 1.0);
                let s = rng.uniform_matrix(batch, hidden_dim, -1.0, 1.0);
                let what = format!("{input_dim}→{hidden_dim}, batch {batch}");
                let oracle = six_matmul_oracle(&cell, &m, &s);
                assert_eq!(
                    cell.forward(&m, &s).as_slice(),
                    oracle.as_slice(),
                    "forward {what}"
                );
                let (cached, cache) = cell.forward_cached(&m, &s);
                assert_eq!(
                    cached.as_slice(),
                    oracle.as_slice(),
                    "forward_cached {what}"
                );
                assert_eq!(cache.r.shape(), (batch, hidden_dim));
                let out = cell.forward_ws(&m, &s, &mut ws);
                assert_eq!(out.as_slice(), oracle.as_slice(), "forward_ws {what}");
                ws.recycle_matrix(out);
            }
        }
    }

    #[test]
    fn a_seeded_cell_holds_the_six_draws_it_replaces() {
        let (input_dim, hidden_dim) = (9, 4);
        let cell = GruCell::new("g", input_dim, hidden_dim, &mut TensorRng::new(21));
        // The six `Linear::new` calls of the unstacked cell, in their order.
        let mut rng = TensorRng::new(21);
        for (name, layer, k, fan_in) in [
            ("w_ir", &cell.w_i, 0, input_dim),
            ("w_hr", &cell.w_h, 0, hidden_dim),
            ("w_iz", &cell.w_i, 1, input_dim),
            ("w_hz", &cell.w_h, 1, hidden_dim),
            ("w_in", &cell.w_i, 2, input_dim),
            ("w_hn", &cell.w_h, 2, hidden_dim),
        ] {
            let old = Linear::new(name, fan_in, hidden_dim, &mut rng);
            let block = gate_block(layer, k);
            assert_eq!(block.weight().value, old.weight().value, "{name} weight");
            assert_eq!(block.bias.value, old.bias.value, "{name} bias");
        }
    }

    #[test]
    fn parameters_are_two_stacked_layers_and_rebuild_from_their_tensors() {
        let mut rng = TensorRng::new(6);
        let mut cell = biased_cell(5, 3, &mut rng);
        let names: Vec<&str> = cell.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["g.w_i.weight", "g.w_i.bias", "g.w_h.weight", "g.w_h.bias"]
        );
        let shapes: Vec<_> = cell.params_mut().iter().map(|p| p.value.shape()).collect();
        assert_eq!(shapes, [(9, 5), (1, 9), (9, 3), (1, 9)]);
        // 3 input weights 3x5, 3 hidden weights 3x3, 6 biases of 3.
        let total = crate::param::count_parameters(&cell.params());
        assert_eq!(total, 3 * 15 + 3 * 9 + 6 * 3);

        // What a load does: a new cell, every tensor overwritten by name.
        let mut loaded = GruCell::new("g", 5, 3, &mut TensorRng::new(99));
        for (dst, src) in loaded.params_mut().into_iter().zip(cell.params()) {
            assert_eq!(dst.name, src.name);
            dst.value = src.value.clone();
        }
        let m = rng.uniform_matrix(4, 5, -1.0, 1.0);
        let s = rng.uniform_matrix(4, 3, -1.0, 1.0);
        assert_eq!(loaded.forward(&m, &s), cell.forward(&m, &s));
    }

    #[test]
    fn matches_scalar_reference_for_1x1() {
        let mut rng = TensorRng::new(0);
        let cell = GruCell::new("g", 1, 1, &mut rng);
        let w = |layer: &Linear, k: usize| layer.weight().value[(k, 0)];
        let (m, s) = (0.7, -0.3);
        let r = sigmoid(w(&cell.w_i, 0) * m + w(&cell.w_h, 0) * s);
        let z = sigmoid(w(&cell.w_i, 1) * m + w(&cell.w_h, 1) * s);
        let n = tanh(w(&cell.w_i, 2) * m + r * (w(&cell.w_h, 2) * s));
        let expected = (1.0 - z) * n + z * s;
        let out = cell.forward(&Matrix::row_vector(&[m]), &Matrix::row_vector(&[s]));
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
        cell.w_i.bias.value.row_mut(0)[3..6].fill(50.0);
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

        // Every gate block of both stacked weights.
        check_gradients(
            &loss,
            &cell.w_i.weight().grad,
            |i, j, eps| {
                let mut pert = cell.clone();
                pert.w_i.weight_mut().value[(i, j)] += eps;
                loss_fn(&pert)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &cell.w_h.weight().grad,
            |i, j, eps| {
                let mut pert = cell.clone();
                pert.w_h.weight_mut().value[(i, j)] += eps;
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
    fn a_stale_pack_cannot_be_served() {
        let mut rng = TensorRng::new(10);
        let mut ws = Workspace::new();
        let mut cell = GruCell::new("g", 33, 12, &mut rng);
        let m = rng.uniform_matrix(9, 33, -1.0, 1.0);
        let s = rng.uniform_matrix(9, 12, -1.0, 1.0);
        let assert_ws_matches_forward = |cell: &GruCell, ws: &mut Workspace, what: &str| {
            let out = cell.forward_ws(&m, &s, ws);
            assert_eq!(out.as_slice(), cell.forward(&m, &s).as_slice(), "{what}");
            ws.recycle_matrix(out);
        };
        assert_ws_matches_forward(&cell, &mut ws, "fresh cell"); // builds both packs

        // An optimizer step through `params_mut`.
        let (before, cache) = cell.forward_cached(&m, &s);
        let _ = cell.backward(&cache, &Matrix::full(9, 12, 1.0));
        crate::optim::Sgd::new(0.1).step(&mut cell.params_mut());
        assert_ne!(cell.forward(&m, &s).as_slice(), before.as_slice());
        assert_ws_matches_forward(&cell, &mut ws, "after an optimizer step");

        // A direct write through `params_mut` (what a load does).
        for p in cell.params_mut() {
            p.value.as_mut_slice()[0] += 1.0;
        }
        assert_ws_matches_forward(&cell, &mut ws, "after params_mut");
        // A clone carries the (current) packs along.
        assert_ws_matches_forward(&cell.clone(), &mut ws, "clone");
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
    fn a_cell_with_a_time_tail_folds_bit_identically() {
        let mut rng = TensorRng::new(11);
        let mut ws = Workspace::new();
        for (head_dim, time_dim, hidden_dim) in [(372, 100, 100), (11, 6, 7), (3, 1, 1)] {
            let cell = biased_cell(head_dim + time_dim, hidden_dim, &mut rng)
                .with_time_tail(Some(time_dim));
            let mut lut =
                LutTimeEncoder::with_edges("lut", (0..=8).map(|b| b as Float).collect(), time_dim);
            lut.table_mut().value = rng.uniform_matrix(8, time_dim, -1.0, 1.0);
            for batch in [1usize, 5, 111] {
                let head = rng.uniform_matrix(batch, head_dim, -1.0, 1.0);
                let dts = rng.uniform_vec(batch, -1.0, 9.0);
                let s = rng.uniform_matrix(batch, hidden_dim, -1.0, 1.0);
                let m = head.hconcat(&lut.forward(&dts));
                let what = format!("{head_dim}+{time_dim}→{hidden_dim}, batch {batch}");
                let reference = cell.forward(&m, &s);
                let unfolded = cell.forward_ws(&m, &s, &mut ws);
                assert_eq!(unfolded.as_slice(), reference.as_slice(), "unfolded {what}");
                ws.recycle_matrix(unfolded);
                let folded = cell.forward_folded_ws(&head, &lut, &dts, &s, &mut ws);
                assert_eq!(folded.as_slice(), reference.as_slice(), "folded {what}");
                ws.recycle_matrix(folded);
            }
        }
    }
}
