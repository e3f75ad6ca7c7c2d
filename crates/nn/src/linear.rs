//! Affine (fully-connected) layer with explicit backward pass.

use crate::param::{Param, Stamp};
use crate::time_encode::LutTimeEncoder;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::{Arc, OnceLock, RwLock};
use tgnn_tensor::gemm::{matmul, matmul_prepacked_cols_into, PackedB};
use tgnn_tensor::ops::{add, add_row_broadcast};
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

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
/// **Time tail.**  A layer whose input ends in a time encoding
/// ([`Self::with_time_tail`]) accumulates the time columns on their own:
/// every forward computes `(chain over k < split) + (chain over the time
/// columns) + bias`, each chain the fused ascending-`k` accumulator from
/// `+0.0`.  With a LUT encoder the second chain takes one of `bins` values
/// per output, so [`Self::forward_folded_into`] reads it from the fused
/// table `T = table · W[:, split..]ᵀ` instead of computing it — the paper's
/// "time encoding + vector–matrix multiply collapse into a single table
/// read" — and equals the unfolded forward bit for bit.  `T` is cached like
/// the pack and dropped with it; against a change of the *encoder* it is
/// validated by the encoder's [`Stamp`] on every use.
///
/// **Aggregate, then transform.**  Attention sums `Σ_j w_j · forward(x_j)`
/// over a vertex's neighbor rows; [`Self::forward_aggregated_ws`] computes
/// it as one product per vertex — `(x̄ · W[:, ..split]ᵀ + τ) + (Σ_j w_j)·b`,
/// where `x̄ = Σ_j w_j x_j[..split]` and `τ = Σ_j w_j · (row j's tail chain)`
/// ([`Self::tails_ws`]: the fused-table entry of its bin when folded) — and
/// [`Self::forward_transposed_ws`] runs the weight backwards (`y · W`, from
/// a packed `W` kept like the forward pack), which is how a query meets the
/// keys without projecting a single neighbor row.
///
/// All forward paths follow the fused numeric contract stated in
/// `ARCHITECTURE.md` (numeric identity) and are bit-identical to each other.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    pub bias: Param,
    in_dim: usize,
    out_dim: usize,
    /// `Some(s)`: input columns `s..` are a time encoding and accumulate
    /// apart from columns `..s`.
    split: Option<usize>,
    /// `Wᵀ` in packed-panel layout — of the columns before the split only,
    /// when there is one; empty until first use and after any mutable access
    /// to `weight`.  Not part of the serialized form.
    #[serde(skip)]
    packed: OnceLock<PackedB>,
    /// The time columns' pack (split layers, unfolded forward only).
    #[serde(skip)]
    packed_tail: OnceLock<PackedB>,
    /// `W[:, ..split]` itself in packed-panel layout, for
    /// [`Self::forward_transposed_ws`]; dropped with the other packs.
    #[serde(skip)]
    packed_t: OnceLock<PackedB>,
    #[serde(skip)]
    fused: FusedTable,
}

/// The fused time table of a split layer, tagged with the stamp of the
/// encoder it was built from.  Behind a lock, not a `OnceLock`, because a
/// changed encoder must be able to replace it through `&self`.
#[derive(Debug, Default)]
struct FusedTable(RwLock<Option<Arc<(Stamp, Matrix)>>>);

impl Clone for FusedTable {
    fn clone(&self) -> Self {
        Self(RwLock::new(self.get()))
    }
}

impl FusedTable {
    fn get(&self) -> Option<Arc<(Stamp, Matrix)>> {
        self.0
            .read()
            .expect("no thread panics while it holds the fused-table lock")
            .clone()
    }
}

thread_local! {
    static FUSED_TABLES_BUILT: Cell<u64> = const { Cell::new(0) };
}

/// Number of fused time tables this thread has built.  Steady-state
/// inference keeps it constant; tests assert that.
pub fn fused_tables_built_on_this_thread() -> u64 {
    FUSED_TABLES_BUILT.with(Cell::get)
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Self::from_parts(name, rng.xavier_matrix(out_dim, in_dim), vec![0.0; out_dim])
    }

    /// Creates a layer from explicit weights (used by tests and by loads,
    /// which rebuild a layer from its stored tensors).
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
            split: None,
            packed: OnceLock::new(),
            packed_tail: OnceLock::new(),
            packed_t: OnceLock::new(),
            fused: FusedTable::default(),
        }
    }

    /// Declares the last `time_dim` input columns a time encoding
    /// (`None`: no time tail — the layer keeps its single chain).  A property
    /// of the layer, not of a call site: every forward of a split layer
    /// regroups its sum the same way.
    ///
    /// # Panics
    /// Panics if `time_dim > in_dim`.
    pub fn with_time_tail(mut self, time_dim: Option<usize>) -> Self {
        self.split = time_dim.map(|t| {
            self.in_dim
                .checked_sub(t)
                .expect("Linear::with_time_tail: time_dim exceeds in_dim")
        });
        self.drop_derived();
        self
    }

    /// First time-encoding input column, if the layer has a time tail.
    pub fn split(&self) -> Option<usize> {
        self.split
    }

    /// Drops everything derived from the weight.
    fn drop_derived(&mut self) {
        self.packed.take();
        self.packed_tail.take();
        self.packed_t.take();
        *self
            .fused
            .0
            .get_mut()
            .expect("no thread panics while it holds the fused-table lock") = None;
    }

    /// The `out_dim × in_dim` weight.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight; drops the inference packs and the fused
    /// time table, which the next forward rebuilds from the new values.
    pub fn weight_mut(&mut self) -> &mut Param {
        self.drop_derived();
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

    /// Input columns the head product multiplies: those before the split,
    /// all of them without one.
    pub fn head_dim(&self) -> usize {
        self.split.unwrap_or(self.in_dim)
    }

    /// Forward pass: `x (B×in) -> y (B×out)`.
    ///
    /// # Panics
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "Linear::forward: input dim mismatch");
        let w = &self.weight.value;
        let chain = |from, to| matmul(&x.columns(from, to), &w.columns(from, to).transpose());
        let y = match self.split {
            None => matmul(x, &w.transpose()),
            Some(split) => add(&chain(0, split), &chain(split, self.in_dim)),
        };
        add_row_broadcast(&y, self.bias.value.row(0))
    }

    /// The pack of the columns before the split (of all of them without one).
    fn head_pack(&self) -> &PackedB {
        self.packed
            .get_or_init(|| PackedB::from_transposed_cols(&self.weight.value, 0..self.head_dim()))
    }

    /// The time columns' pack.
    fn tail_pack(&self, split: usize) -> &PackedB {
        self.packed_tail
            .get_or_init(|| PackedB::from_transposed_cols(&self.weight.value, split..self.in_dim))
    }

    /// The one epilogue of every packed forward: row `i` of `out` becomes
    /// `(out + tail_row(i)) + mass(i)·bias` — `out + mass(i)·bias` without a
    /// tail.  A row forward has mass 1 (`1·b` is `b`, bit for bit), an
    /// aggregated row the sum of its weights.
    fn finish<'a>(
        &self,
        out: &mut Matrix,
        tail_row: impl Fn(usize) -> Option<&'a [Float]>,
        mass: impl Fn(usize) -> Float,
    ) {
        let bias = self.bias.value.row(0);
        for i in 0..out.rows() {
            let m = mass(i);
            let row = out.row_mut(i);
            match tail_row(i) {
                None => row.iter_mut().zip(bias).for_each(|(v, &b)| *v += m * b),
                Some(tail) => {
                    for ((v, &t), &b) in row.iter_mut().zip(tail).zip(bias) {
                        *v = (*v + t) + m * b;
                    }
                }
            }
        }
    }

    /// Allocation-free forward pass writing into a pre-sized output: the
    /// `x·Wᵀ` product runs the FMA microkernel straight from the packed
    /// weight (built here on first use, never again until the weight
    /// changes) and the bias is added in place.  Bit-identical to
    /// [`Self::forward`].  (A layer with a time tail needs one scratch
    /// matrix for the tail product and allocates it here; [`Self::forward_ws`]
    /// takes it from the workspace.)
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        let mut tail = self.split.map(|_| Matrix::zeros(x.rows(), self.out_dim));
        self.forward_with_scratch(x, out, tail.as_mut());
    }

    /// [`Self::forward_into`] given the `B×out` scratch a split layer's tail
    /// product goes to (`None` without a split).
    fn forward_with_scratch(&self, x: &Matrix, out: &mut Matrix, tail: Option<&mut Matrix>) {
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
        matmul_prepacked_cols_into(x, 0, self.head_pack(), out);
        match (self.split, tail) {
            (Some(split), Some(tail)) => {
                matmul_prepacked_cols_into(x, split, self.tail_pack(split), tail);
                self.finish(out, |i| Some(tail.row(i)), |_| 1.0);
            }
            _ => self.finish(out, |_| None, |_| 1.0),
        }
    }

    /// [`Self::forward_into`] with the output taken from the workspace
    /// (recycle it back when done).
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut out = ws.take_matrix(x.rows(), self.out_dim);
        let mut tail = self.split.map(|_| ws.take_matrix(x.rows(), self.out_dim));
        self.forward_with_scratch(x, &mut out, tail.as_mut());
        if let Some(tail) = tail {
            ws.recycle_matrix(tail);
        }
        out
    }

    /// The fused table `T = lut.table · W[:, split..]ᵀ` (`bins × out`):
    /// cached, rebuilt when `lut`'s stamp differs from the one it was built
    /// against (a weight change drops it outright).
    fn fused_table(&self, lut: &LutTimeEncoder, split: usize) -> Arc<(Stamp, Matrix)> {
        if let Some(hit) = self.fused.get().filter(|t| t.0 == lut.stamp()) {
            return hit;
        }
        FUSED_TABLES_BUILT.with(|c| c.set(c.get() + 1));
        let tail = self.weight.value.columns(split, self.in_dim);
        let built = Arc::new((lut.stamp(), lut.fuse_with(&tail)));
        *self
            .fused
            .0
            .write()
            .expect("no thread panics while it holds the fused-table lock") = Some(built.clone());
        built
    }

    /// The forward pass of a layer with a time tail, **folded**: `head`
    /// holds the input columns before the split (`B × split`) and row `i`'s
    /// time columns are `lut`'s encoding of `delta_t[i]` — which is never
    /// materialised: one head GEMM from the head-only pack, then one row add
    /// of the fused table's entry for the row's bin.  Bit-identical to
    /// [`Self::forward_into`] on `[head ‖ lut.forward(delta_t)]`.
    ///
    /// # Panics
    /// Panics if the layer has no time tail or on shape mismatches.
    pub fn forward_folded_into(
        &self,
        head: &Matrix,
        lut: &LutTimeEncoder,
        delta_t: &[Float],
        out: &mut Matrix,
    ) {
        let split = self
            .split
            .expect("Linear::forward_folded_into: the layer has no time tail");
        assert_eq!(
            (head.cols(), lut.dim()),
            (split, self.in_dim - split),
            "Linear::forward_folded_into: input dim mismatch"
        );
        assert_eq!(
            delta_t.len(),
            head.rows(),
            "Linear::forward_folded_into: one Δt per row"
        );
        assert_eq!(
            out.shape(),
            (head.rows(), self.out_dim),
            "Linear::forward_folded_into: output shape mismatch"
        );
        matmul_prepacked_cols_into(head, 0, self.head_pack(), out);
        let fused = self.fused_table(lut, split);
        self.finish(
            out,
            |i| Some(fused.1.row(lut.lookup_bin(delta_t[i]))),
            |_| 1.0,
        );
    }

    /// [`Self::forward_folded_into`] with the output taken from the
    /// workspace (recycle it back when done).
    pub fn forward_folded_ws(
        &self,
        head: &Matrix,
        lut: &LutTimeEncoder,
        delta_t: &[Float],
        ws: &mut Workspace,
    ) -> Matrix {
        let mut out = ws.take_matrix(head.rows(), self.out_dim);
        self.forward_folded_into(head, lut, delta_t, &mut out);
        out
    }

    /// The tail chain of every row of `rows` (`N × out`, from the
    /// workspace), `None` for a layer without a time tail
    /// ([`Self::tails_into`]).
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn tails_ws(
        &self,
        rows: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        ws: &mut Workspace,
    ) -> Option<Matrix> {
        self.split?;
        let mut tails = ws.take_matrix(rows.rows(), self.out_dim);
        self.tails_into(rows, fold, &mut tails);
        Some(tails)
    }

    /// The tail chain of every row of `rows` into `out` (`N × out_dim`): the
    /// product of the time columns, or — with `fold` — the fused-table entry
    /// of each row's Δt bin, the same bits.  `rows` are full-width without
    /// `fold`; with it they may stop at the split (they are not read).
    ///
    /// # Panics
    /// Panics if the layer has no time tail or on shape mismatches.
    pub fn tails_into(
        &self,
        rows: &Matrix,
        fold: Option<(&LutTimeEncoder, &[Float])>,
        out: &mut Matrix,
    ) {
        let split = self
            .split
            .expect("Linear::tails_into: the layer has no time tail");
        match fold {
            Some((lut, dts)) => {
                let fused = self.fused_table(lut, split);
                lut.lookup_rows_into(&fused.1, dts, out);
            }
            None => {
                assert_eq!(
                    rows.cols(),
                    self.in_dim,
                    "Linear::tails_into: input dim mismatch"
                );
                matmul_prepacked_cols_into(rows, split, self.tail_pack(split), out);
            }
        }
    }

    /// Aggregate, then transform: row `i` of the result is
    /// `(x̄_i · W[:, ..split]ᵀ + τ_i) + mass_i · b` — the layer applied to
    /// the weighted sum `x̄_i` of a vertex's rows (head columns, `t ×
    /// head_dim`), `τ_i` the same weighted sum of their [`Self::tails_ws`]
    /// (required iff the layer has a time tail) and `mass_i` the sum of the
    /// weights.  Equals `Σ_j w_j · forward(x_j)` up to rounding; a vertex
    /// with no weight (`x̄ = 0`, `τ = 0`, mass 0) gets an exact `+0.0` row.
    /// Output from the workspace.
    ///
    /// # Panics
    /// Panics on shape mismatches or a tail given to a layer without one
    /// (or missing from one with one).
    pub fn forward_aggregated_ws(
        &self,
        xbar: &Matrix,
        tails: Option<&Matrix>,
        mass: &[Float],
        ws: &mut Workspace,
    ) -> Matrix {
        assert_eq!(
            (xbar.cols(), mass.len()),
            (self.head_dim(), xbar.rows()),
            "Linear::forward_aggregated_ws: input shape mismatch"
        );
        assert_eq!(
            tails.is_some(),
            self.split.is_some(),
            "Linear::forward_aggregated_ws: a tail sum iff the layer has a time tail"
        );
        let mut out = ws.take_matrix(xbar.rows(), self.out_dim);
        matmul_prepacked_cols_into(xbar, 0, self.head_pack(), &mut out);
        self.finish(&mut out, |i| tails.map(|t| t.row(i)), |i| mass[i]);
        out
    }

    /// The weight run backwards over the head columns: `y · W[:, ..split]`
    /// (`y` is `rows × out`, the result `rows × head_dim`, from the
    /// workspace) on the packed kernel, from a pack of `W` built on first
    /// use and dropped with the forward pack.  For a query `q`, row `i` is
    /// `W_kᵀ q_i`, whose dot with a neighbor row `x_j` is `q_i · W_k x_j`.
    ///
    /// # Panics
    /// Panics if `y.cols() != out_dim`.
    pub fn forward_transposed_ws(&self, y: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(
            y.cols(),
            self.out_dim,
            "Linear::forward_transposed_ws: output dim mismatch"
        );
        let pack = self
            .packed_t
            .get_or_init(|| PackedB::from_cols(&self.weight.value, 0..self.head_dim()));
        let mut out = ws.take_matrix(y.rows(), self.head_dim());
        matmul_prepacked_cols_into(y, 0, pack, &mut out);
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

    /// The learnable parameters of the layer (drops the inference packs and
    /// the fused table, like [`Self::weight_mut`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.drop_derived();
        vec![&mut self.weight, &mut self.bias]
    }

    /// Immutable access to the parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::Aggregate;
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
        let y = rng.uniform_matrix(4, 12, -1.0, 1.0);
        // Both packs against the reference kernel on the current weight: the
        // forward one (`x · Wᵀ`) and the transposed one (`y · W`).
        let assert_ws_matches_forward = |layer: &Linear, ws: &mut Workspace, what: &str| {
            let out = layer.forward_ws(&x, ws);
            assert_eq!(out.as_slice(), layer.forward(&x).as_slice(), "{what}");
            ws.recycle_matrix(out);
            let back = layer.forward_transposed_ws(&y, ws);
            let reference = matmul(&y, &layer.weight().value);
            assert_eq!(back.as_slice(), reference.as_slice(), "{what}: W_kᵀ pack");
            ws.recycle_matrix(back);
        };
        assert_ws_matches_forward(&layer, &mut ws, "fresh layer"); // builds the packs

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
        // A clone carries the (current) packs along.
        assert_ws_matches_forward(&layer.clone(), &mut ws, "clone");
    }

    #[test]
    fn an_aggregated_forward_is_the_weighted_sum_of_row_forwards() {
        let mut rng = TensorRng::new(16);
        let mut ws = Workspace::new();
        let (head_dim, time_dim, out_dim) = (21, 6, 11);
        let lut = random_lut(5, time_dim, &mut rng);
        let lens = [3usize, 0, 1, 4];
        let n: usize = lens.iter().sum();
        let head = rng.uniform_matrix(n, head_dim, -1.0, 1.0);
        let dts = rng.uniform_vec(n, -1.0, 6.0);
        let x = head.hconcat(&lut.forward(&dts));
        let weights = rng.uniform_vec(n, 0.0, 1.0);
        for tail in [None, Some(time_dim)] {
            let mut layer =
                Linear::new("t", head_dim + time_dim, out_dim, &mut rng).with_time_tail(tail);
            layer.bias.value = rng.uniform_matrix(1, out_dim, -0.5, 0.5);
            let per_row = layer.forward(&x);
            // Unfolded (full-width rows) and, for a split layer, folded.
            let mut served = Vec::new();
            for fold in [None, tail.map(|_| (&lut, &dts[..]))] {
                let rows = if fold.is_some() { &head } else { &x };
                let tails = layer.tails_ws(rows, fold, &mut ws);
                let tail_dim = tails.as_ref().map(Matrix::cols);
                let mut agg = Aggregate::take(lens.len(), layer.head_dim(), tail_dim, &mut ws);
                let mut off = 0;
                for (i, &len) in lens.iter().enumerate() {
                    let own = |m: &Matrix| m.gather_rows(&(off..off + len).collect::<Vec<_>>());
                    let own_tails = tails.as_ref().map(own);
                    agg.set_vertex(i, &own(rows), &weights[off..off + len], own_tails.as_ref());
                    off += len;
                }
                let out =
                    layer.forward_aggregated_ws(&agg.rows, agg.tails.as_ref(), &agg.mass, &mut ws);
                served.push(out.as_slice().to_vec());
                let mut off = 0;
                for (i, &len) in lens.iter().enumerate() {
                    let expected = tgnn_tensor::ops::weighted_row_sum(
                        &per_row.gather_rows(&(off..off + len).collect::<Vec<_>>()),
                        &weights[off..off + len],
                    );
                    for (a, b) in out.row(i).iter().zip(&expected) {
                        assert!(approx_eq(*a, *b, 1e-5), "{tail:?} vertex {i}: {a} vs {b}");
                    }
                    if len == 0 {
                        assert!(out.row(i).iter().all(|v| v.to_bits() == 0), "exact +0.0");
                    }
                    off += len;
                }
                ws.recycle_matrix(out);
                agg.recycle(&mut ws);
                tails.into_iter().for_each(|m| ws.recycle_matrix(m));
            }
            if let [unfolded, folded] = &served[..] {
                assert_eq!(unfolded, folded, "folded ≡ unfolded, bit for bit");
            }
        }
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

    /// A LUT with `bins` random rows of width `dim`.
    fn random_lut(bins: usize, dim: usize, rng: &mut TensorRng) -> LutTimeEncoder {
        let edges = (0..=bins).map(|b| b as Float).collect();
        let mut lut = LutTimeEncoder::with_edges("lut", edges, dim);
        lut.table_mut().value = rng.uniform_matrix(bins, dim, -1.0, 1.0);
        lut
    }

    /// The split contract written out: two naive fused ascending-`k` chains
    /// from `+0.0`, added, plus the bias.
    fn two_chain_oracle(layer: &Linear, x: &Matrix) -> Matrix {
        let split = layer.split().expect("a split layer");
        let w = &layer.weight().value;
        Matrix::from_fn(x.rows(), layer.out_dim(), |i, j| {
            let chain = |from: usize, to: usize| {
                (from..to).fold(0.0 as Float, |acc, k| x[(i, k)].mul_add(w[(j, k)], acc))
            };
            (chain(0, split) + chain(split, layer.in_dim())) + layer.bias.value[(0, j)]
        })
    }

    #[test]
    fn every_forward_of_a_split_layer_equals_the_two_chain_oracle_bitwise() {
        let mut rng = TensorRng::new(13);
        let mut ws = Workspace::new();
        // (rows, head, time, out): the GRU-input and W_v shapes of the paper,
        // then shapes off every microkernel tile edge.
        let shapes = [
            (111, 372, 100, 300),
            (735, 272, 100, 100),
            (1, 1, 1, 1),
            (1, 0, 5, 3),
            (2, 3, 0, 2),
            (5, 9, 7, 17),
            (7, 16, 1, 33),
            (13, 47, 6, 15),
            (31, 33, 31, 61),
            (6, 64, 8, 16),
        ];
        for (rows, head_dim, time_dim, out_dim) in shapes {
            let what = format!("{rows}x({head_dim}+{time_dim})x{out_dim}");
            let mut layer = Linear::new("t", head_dim + time_dim, out_dim, &mut rng)
                .with_time_tail(Some(time_dim));
            layer.bias.value = rng.uniform_matrix(1, out_dim, -0.5, 0.5);
            assert_eq!(layer.split(), Some(head_dim));
            let lut = random_lut(9, time_dim, &mut rng);
            let head = rng.uniform_matrix(rows, head_dim, -1.0, 1.0);
            let dts = rng.uniform_vec(rows, -1.0, 10.0);
            let x = head.hconcat(&lut.forward(&dts));

            let oracle = two_chain_oracle(&layer, &x);
            assert_eq!(
                layer.forward(&x).as_slice(),
                oracle.as_slice(),
                "forward {what}"
            );
            let mut out = Matrix::full(rows, out_dim, 42.0);
            layer.forward_into(&x, &mut out);
            assert_eq!(out.as_slice(), oracle.as_slice(), "forward_into {what}");
            let served = layer.forward_ws(&x, &mut ws);
            assert_eq!(served.as_slice(), oracle.as_slice(), "forward_ws {what}");
            ws.recycle_matrix(served);
            out.as_mut_slice().fill(42.0);
            layer.forward_folded_into(&head, &lut, &dts, &mut out);
            assert_eq!(out.as_slice(), oracle.as_slice(), "folded {what}");

            // Inputs whose tail is *not* a table row still split the same way.
            let x = rng.uniform_matrix(rows, head_dim + time_dim, -1.0, 1.0);
            let served = layer.forward_ws(&x, &mut ws);
            assert_eq!(
                served.as_slice(),
                two_chain_oracle(&layer, &x).as_slice(),
                "free tail {what}"
            );
            assert_eq!(served.as_slice(), layer.forward(&x).as_slice());
            ws.recycle_matrix(served);
        }
    }

    #[test]
    fn a_stale_fold_cannot_be_served() {
        let mut rng = TensorRng::new(14);
        let mut ws = Workspace::new();
        let mut layer = Linear::new("t", 33 + 6, 12, &mut rng).with_time_tail(Some(6));
        let mut lut = random_lut(5, 6, &mut rng);
        let head = rng.uniform_matrix(9, 33, -1.0, 1.0);
        let dts = rng.uniform_vec(9, 0.0, 5.0);
        // Folded output against the reference forward of the assembled input;
        // returns the folded bits so callers can tell that they moved.
        let check = |layer: &Linear, lut: &LutTimeEncoder, ws: &mut Workspace, what: &str| {
            let out = layer.forward_folded_ws(&head, lut, &dts, ws);
            let reference = layer.forward(&head.hconcat(&lut.forward(&dts)));
            assert_eq!(out.as_slice(), reference.as_slice(), "{what}");
            let bits = out.as_slice().to_vec();
            ws.recycle_matrix(out);
            bits
        };
        let fresh = check(&layer, &lut, &mut ws, "fresh layer"); // builds T and the pack

        // An optimizer step on the layer.
        let x = head.hconcat(&lut.forward(&dts));
        let _ = layer.backward(&x, &Matrix::full(9, 12, 1.0));
        crate::optim::Sgd::new(0.1).step(&mut layer.params_mut());
        let stepped = check(&layer, &lut, &mut ws, "after an optimizer step");
        assert_ne!(stepped, fresh);

        // A direct write to the time columns alone (the head pack's contents
        // do not change, the table's do).
        layer.weight_mut().value[(0, 35)] += 1.0;
        let nudged = check(&layer, &lut, &mut ws, "after weight_mut");
        assert_ne!(nudged, stepped);

        // The encoder changes under an unchanged layer: through `table_mut`…
        lut.table_mut().value.row_mut(2)[0] += 1.0;
        let _ = check(&layer, &lut, &mut ws, "after table_mut");
        // …through `params_mut` (an optimizer step on the table)…
        for p in lut.params_mut() {
            p.value.as_mut_slice().iter_mut().for_each(|v| *v *= 0.5);
        }
        let _ = check(&layer, &lut, &mut ws, "after the encoder's params_mut");
        // …and by replacement with another encoder altogether.
        let other = random_lut(5, 6, &mut rng);
        let _ = check(&layer, &other, &mut ws, "another encoder");
        let _ = check(&layer, &lut, &mut ws, "and back");

        // Clones carry the current table and pack; a rebuilt layer starts
        // without either; re-declaring the tail drops both.
        let _ = check(&layer.clone(), &lut.clone(), &mut ws, "clones");
        let rebuilt = Linear::from_parts(
            "t",
            layer.weight().value.clone(),
            layer.bias.value.row(0).to_vec(),
        )
        .with_time_tail(Some(6));
        assert_eq!(
            check(&rebuilt, &lut, &mut ws, "rebuilt from parts"),
            check(&layer, &lut, &mut ws, "original")
        );

        // Steady state: no table is built and no panel packed.
        let (tables, packs) = (
            fused_tables_built_on_this_thread(),
            tgnn_tensor::gemm::panel_packs_on_this_thread(),
        );
        for _ in 0..50 {
            let out = layer.forward_folded_ws(&head, &lut, &dts, &mut ws);
            ws.recycle_matrix(out);
        }
        assert_eq!(fused_tables_built_on_this_thread(), tables);
        assert_eq!(tgnn_tensor::gemm::panel_packs_on_this_thread(), packs);
    }

    #[test]
    #[should_panic(expected = "no time tail")]
    fn folding_an_unsplit_layer_is_rejected() {
        let mut rng = TensorRng::new(15);
        let layer = Linear::new("t", 4, 3, &mut rng);
        let lut = random_lut(2, 2, &mut rng);
        layer.forward_folded_into(&Matrix::zeros(1, 2), &lut, &[0.0], &mut Matrix::zeros(1, 3));
    }
}
