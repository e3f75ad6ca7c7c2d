//! [`QuantizedLinear`] — an affine layer running on the packed int8 GEMM.
//!
//! Built from an f32 [`tgnn_nn::Linear`] plus a calibrated input-activation
//! scale: weights are quantized per row (one scale per output feature) and
//! pre-packed into the `maddubs` panel layout once at construction; the
//! forward pass quantizes the incoming activations with the static scale
//! (saturating at the calibrated clip), runs the i8×i8→i32 kernel, and
//! dequantizes + adds the f32 bias in the fused epilogue.  The only
//! per-call temporaries (the quantized activation rows) come from the
//! workspace's i8 pool, so the hot path stays allocation-free.
//!
//! A layer whose input ends in a LUT time encoding can be built **folded**
//! ([`QuantizedLinear::from_linear_folded`]): the time columns of a row take
//! one of `bins` quantized values, so their i32 partial sums against the
//! quantized time columns of the weight are computed once per bin and the
//! forward pass multiplies the remaining columns only, then adds the row's
//! bin entry — the int8 counterpart of `Linear::forward_folded_into`.

use crate::qtensor::QTensor;
use serde::{Deserialize, Serialize};
use tgnn_nn::{Linear, LutTimeEncoder};
use tgnn_tensor::gemm_i8::{
    matmul_i8_dequant_into, pack_rhs_i8, packed_rhs_len, padded_k, quantize_slice_into,
};
use tgnn_tensor::{Float, Matrix, Workspace};

/// `y = dequant(quant(x) · W_qᵀ) + b` on the int8 kernel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuantizedLinear {
    /// Per-row quantized weights (kept for inspection / round-trip tests).
    weight: QTensor,
    /// Weights re-packed into the int8 GEMM panel layout.
    packed: Vec<i8>,
    /// `act_scale · w_scale[j]` per output feature — the fused dequant
    /// factors of the epilogue.
    combined_scales: Vec<Float>,
    /// f32 bias, added in the epilogue.
    bias: Vec<Float>,
    /// Static input-activation scale from calibration.
    act_scale: Float,
    /// Columns the GEMM multiplies: all of the layer's, or those before the
    /// time encoding when folded.
    in_dim: usize,
    out_dim: usize,
    /// Folded layers: per LUT bin, the dequantized contribution of the time
    /// columns (`bins × out_dim`).
    time_table: Option<Matrix>,
}

impl QuantizedLinear {
    /// Quantizes an f32 layer given the calibrated scale of its input
    /// activations.
    ///
    /// # Panics
    /// Panics if `act_scale` is not positive and finite.
    pub fn from_linear(layer: &Linear, act_scale: Float) -> Self {
        Self::build(layer, act_scale, layer.in_dim(), None)
    }

    /// [`Self::from_linear`] of a layer with a time tail, folded over `lut`:
    /// the weight is quantized whole (same per-row scales), the GEMM packs
    /// the columns before the split only, and the time columns become a
    /// `bins × out` table of `Σ_k q(table[b][k])·W_q[j][split + k]`, exact
    /// in i32, times the dequant factor.  Serve it with
    /// [`Self::forward_folded_ws`].
    ///
    /// # Panics
    /// Panics if the layer has no time tail of `lut`'s width or `act_scale`
    /// is not positive and finite.
    pub fn from_linear_folded(layer: &Linear, act_scale: Float, lut: &LutTimeEncoder) -> Self {
        let split = layer
            .split()
            .expect("QuantizedLinear::from_linear_folded: the layer has no time tail");
        assert_eq!(
            lut.dim(),
            layer.in_dim() - split,
            "QuantizedLinear::from_linear_folded: time dim mismatch"
        );
        Self::build(layer, act_scale, split, Some(&lut.table().value))
    }

    /// Quantizes `layer`, packing its first `head` input columns; `table`
    /// rows (time encodings) are folded over the remaining ones.
    fn build(layer: &Linear, act_scale: Float, head: usize, table: Option<&Matrix>) -> Self {
        assert!(
            act_scale > 0.0 && act_scale.is_finite(),
            "QuantizedLinear: activation scale must be positive and finite"
        );
        let w = &layer.weight().value;
        let weight = QTensor::quantize_per_row(w);
        let out_dim = w.rows();
        let head_rows: Vec<i8> = (0..out_dim)
            .flat_map(|j| weight.row(j)[..head].iter().copied())
            .collect();
        let mut packed = vec![0i8; packed_rhs_len(out_dim, head)];
        pack_rhs_i8(&head_rows, out_dim, head, &mut packed);
        let combined_scales: Vec<Float> = (0..out_dim)
            .map(|j| act_scale * weight.row_scale(j))
            .collect();
        let time_table = table.map(|table| {
            let mut q_row = vec![0i8; table.cols()];
            let mut folded = Matrix::zeros(table.rows(), out_dim);
            for b in 0..table.rows() {
                quantize_slice_into(table.row(b), act_scale, &mut q_row);
                for (j, out) in folded.row_mut(b).iter_mut().enumerate() {
                    let sum: i32 = q_row
                        .iter()
                        .zip(&weight.row(j)[head..])
                        .map(|(&a, &w)| a as i32 * w as i32)
                        .sum();
                    *out = sum as Float * combined_scales[j];
                }
            }
            folded
        });
        Self {
            weight,
            packed,
            combined_scales,
            bias: layer.bias.value.row(0).to_vec(),
            act_scale,
            in_dim: head,
            out_dim,
            time_table,
        }
    }

    /// Input columns the GEMM multiplies (a folded layer's exclude the time
    /// encoding).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The calibrated input-activation scale.
    pub fn act_scale(&self) -> Float {
        self.act_scale
    }

    /// The quantized weights.
    pub fn weight(&self) -> &QTensor {
        &self.weight
    }

    /// Forward pass writing into a pre-sized output: quantize activations →
    /// int8 GEMM → fused dequant + bias.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        self.gemm_into(x, Some(&self.bias), out, ws);
    }

    /// `dequant(quant(x) · W_qᵀ)`, plus `bias` in the fused epilogue.
    fn gemm_into(&self, x: &Matrix, bias: Option<&[Float]>, out: &mut Matrix, ws: &mut Workspace) {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "QuantizedLinear::forward_into: input dim mismatch"
        );
        assert_eq!(
            out.shape(),
            (x.rows(), self.out_dim),
            "QuantizedLinear::forward_into: output shape mismatch"
        );
        let m = x.rows();
        if m == 0 {
            return;
        }
        let kp = padded_k(self.in_dim);
        let mut a_q = ws.take_i8(m * kp);
        for i in 0..m {
            quantize_slice_into(x.row(i), self.act_scale, &mut a_q[i * kp..(i + 1) * kp]);
        }
        matmul_i8_dequant_into(
            &a_q,
            m,
            self.in_dim,
            &self.packed,
            self.out_dim,
            &self.combined_scales,
            bias,
            out,
        );
        ws.recycle_i8(a_q);
    }

    /// [`Self::forward_into`] with the output taken from the workspace
    /// (recycle it back when done).
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut out = ws.take_matrix(x.rows(), self.out_dim);
        self.forward_into(x, &mut out, ws);
        out
    }

    /// The forward pass of a folded layer, output from the workspace: the
    /// int8 GEMM over `head` (the input columns before the time encoding),
    /// then row `i` gains the table entry of `lut`'s bin for `delta_t[i]`.
    /// `lut` must be the encoder the layer was folded over.
    ///
    /// # Panics
    /// Panics if the layer was not built folded or on shape mismatches.
    pub fn forward_folded_ws(
        &self,
        head: &Matrix,
        lut: &LutTimeEncoder,
        delta_t: &[Float],
        ws: &mut Workspace,
    ) -> Matrix {
        let table = self
            .time_table
            .as_ref()
            .expect("QuantizedLinear::forward_folded_ws: the layer is not folded");
        assert_eq!(
            (delta_t.len(), lut.bins()),
            (head.rows(), table.rows()),
            "QuantizedLinear::forward_folded_ws: Δt count / LUT mismatch"
        );
        let mut out = self.forward_ws(head, ws);
        for (i, &dt) in delta_t.iter().enumerate() {
            let entry = table.row(lut.lookup_bin(dt));
            for (v, &t) in out.row_mut(i).iter_mut().zip(entry) {
                *v += t;
            }
        }
        out
    }

    /// The int8 counterpart of `Linear::tails_into` for a folded layer: row
    /// `i` of `out` becomes the time-table entry of `delta_t[i]`'s bin (`lut`
    /// must be the encoder the layer was folded over).  An unfolded int8
    /// layer multiplies its time columns with the rest and has no tails.
    ///
    /// # Panics
    /// Panics if the layer was not built folded or on shape mismatches.
    pub fn tails_into(&self, lut: &LutTimeEncoder, delta_t: &[Float], out: &mut Matrix) {
        let table = self
            .time_table
            .as_ref()
            .expect("QuantizedLinear::tails_into: the layer is not folded");
        lut.lookup_rows_into(table, delta_t, out);
    }

    /// Aggregate, then transform, on the int8 kernel — the counterpart of
    /// `Linear::forward_aggregated_ws`: row `i` is
    /// `(dequant(quant(x̄_i) · W_qᵀ) + τ_i) + mass_i · b`, with `τ_i` the
    /// weighted sum of the rows' [`Self::tails_into`] (folded layers only).
    /// A vertex with no weight gets an exact `+0.0` row.  Output from the
    /// workspace.
    ///
    /// # Panics
    /// Panics on shape mismatches or a tail sum that does not match how
    /// the layer was built.
    pub fn forward_aggregated_ws(
        &self,
        xbar: &Matrix,
        tails: Option<&Matrix>,
        mass: &[Float],
        ws: &mut Workspace,
    ) -> Matrix {
        assert_eq!(
            (mass.len(), tails.is_some()),
            (xbar.rows(), self.time_table.is_some()),
            "QuantizedLinear::forward_aggregated_ws: one mass per row, a tail sum iff folded"
        );
        let mut out = ws.take_matrix(xbar.rows(), self.out_dim);
        self.gemm_into(xbar, None, &mut out, ws);
        for (i, &m) in mass.iter().enumerate() {
            let row = out.row_mut(i);
            match tails {
                None => row
                    .iter_mut()
                    .zip(&self.bias)
                    .for_each(|(v, &b)| *v += m * b),
                Some(tails) => {
                    for ((v, &t), &b) in row.iter_mut().zip(tails.row(i)).zip(&self.bias) {
                        *v = (*v + t) + m * b;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_tensor::stats::{cosine_similarity, max_abs_diff};
    use tgnn_tensor::TensorRng;

    #[test]
    fn quantized_forward_tracks_f32_within_tolerance_across_shapes_and_seeds() {
        for seed in [3u64, 17, 88] {
            let mut rng = TensorRng::new(seed);
            for &(batch, in_dim, out_dim) in &[(1usize, 7usize, 5usize), (9, 33, 12), (40, 96, 64)]
            {
                let layer = Linear::new("t", in_dim, out_dim, &mut rng);
                let x = rng.uniform_matrix(batch, in_dim, -1.0, 1.0);
                let reference = layer.forward(&x);
                let q = QuantizedLinear::from_linear(&layer, 1.0 / 127.0);
                let mut ws = Workspace::new();
                let out = q.forward_ws(&x, &mut ws);

                // Per-element error bound: each of the `in_dim` products
                // carries at most half a step of activation error times the
                // weight magnitude and vice versa.  A loose analytical bound
                // (1.5 quantization steps per accumulated term) must hold.
                let w_amax = layer.weight().value.max_abs();
                let bound =
                    in_dim as Float * 1.5 * (q.act_scale() * w_amax + (w_amax / 127.0) * 1.0);
                let err = max_abs_diff(reference.as_slice(), out.as_slice());
                assert!(
                    err <= bound,
                    "{batch}x{in_dim}x{out_dim} seed {seed}: err {err} > bound {bound}"
                );
                for i in 0..batch {
                    let cos = cosine_similarity(reference.row(i), out.row(i));
                    assert!(
                        cos > 0.995,
                        "{batch}x{in_dim}x{out_dim} seed {seed} row {i}: cosine {cos}"
                    );
                }
                ws.recycle_matrix(out);
            }
        }
    }

    #[test]
    fn saturating_inputs_stay_finite_and_bounded() {
        let mut rng = TensorRng::new(5);
        let layer = Linear::new("t", 8, 4, &mut rng);
        let q = QuantizedLinear::from_linear(&layer, 1.0 / 127.0); // clip at |x| = 1
        let mut x = Matrix::full(2, 8, 1e6); // far beyond the calibrated range
        x[(1, 0)] = Float::NAN;
        let mut ws = Workspace::new();
        let out = q.forward_ws(&x, &mut ws);
        assert!(out.all_finite(), "saturated forward must stay finite");
        // Saturated activations behave like a clamped input of ±1.
        let clamped = layer.forward(&Matrix::full(1, 8, 1.0));
        let cos = cosine_similarity(out.row(0), clamped.row(0));
        assert!(cos > 0.99, "saturation should clamp, got cosine {cos}");
    }

    #[test]
    fn steady_state_forward_does_not_allocate() {
        let mut rng = TensorRng::new(6);
        let layer = Linear::new("t", 24, 16, &mut rng);
        let q = QuantizedLinear::from_linear(&layer, 1.0 / 64.0);
        let x = rng.uniform_matrix(10, 24, -1.0, 1.0);
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let out = q.forward_ws(&x, &mut ws);
            ws.recycle_matrix(out);
        }
        let warm = ws.heap_allocs();
        for _ in 0..50 {
            let out = q.forward_ws(&x, &mut ws);
            ws.recycle_matrix(out);
        }
        assert_eq!(
            ws.heap_allocs(),
            warm,
            "quantized forward must not allocate"
        );
    }

    #[test]
    fn weight_round_trip_is_close() {
        let mut rng = TensorRng::new(7);
        let layer = Linear::new("t", 16, 8, &mut rng);
        let q = QuantizedLinear::from_linear(&layer, 1.0);
        let back = q.weight().dequantize();
        let err = max_abs_diff(layer.weight().value.as_slice(), back.as_slice());
        assert!(err <= q.weight().step_bound() + 1e-7);
    }

    #[test]
    fn folded_forward_tracks_the_unfolded_layer_to_rounding() {
        let mut rng = TensorRng::new(8);
        let (head_dim, time_dim, out_dim, bins) = (20, 6, 9, 5);
        let layer =
            Linear::new("t", head_dim + time_dim, out_dim, &mut rng).with_time_tail(Some(time_dim));
        let edges = (0..=bins).map(|b| b as Float).collect();
        let mut lut = LutTimeEncoder::with_edges("lut", edges, time_dim);
        lut.table_mut().value = rng.uniform_matrix(bins, time_dim, -1.0, 1.0);
        let head = rng.uniform_matrix(7, head_dim, -1.0, 1.0);
        let dts = rng.uniform_vec(7, -1.0, 6.0);
        let mut ws = Workspace::new();

        let scale = 1.0 / 127.0;
        let folded = QuantizedLinear::from_linear_folded(&layer, scale, &lut);
        assert_eq!(folded.in_dim(), head_dim);
        let unfolded = QuantizedLinear::from_linear(&layer, scale);
        let out = folded.forward_folded_ws(&head, &lut, &dts, &mut ws);
        let full = unfolded.forward_ws(&head.hconcat(&lut.forward(&dts)), &mut ws);
        // Same quantized operands, same exact i32 partial sums; only the
        // point at which they are dequantized and added differs.
        let err = max_abs_diff(out.as_slice(), full.as_slice());
        assert!(
            err < 1e-5,
            "folded int8 strayed from unfolded int8 by {err}"
        );
        // Deterministic: a second call reproduces the bits.
        let again = folded.forward_folded_ws(&head, &lut, &dts, &mut ws);
        assert_eq!(again.as_slice(), out.as_slice());
    }
}
