//! Time encoders.
//!
//! * [`CosTimeEncoder`] — the trigonometric encoder of Eq. 6,
//!   `Φ(Δt) = cos(ω·Δt + φ)` with learnable vectors ω, φ, shared by TGN and
//!   most memory-based TGNNs.
//!   Both the encoding and its derivative are evaluated by
//!   `tgnn_tensor::vmath` (`cos_time_into` / `sin_time_into`), which forms
//!   the argument `ω·Δt + φ` in one place — forward and backward cannot
//!   round it differently, and no libm is involved.
//! * [`LutTimeEncoder`] — the paper's LUT replacement (Section III-C): Δt is
//!   bucketed into equal-frequency intervals and each interval stores a
//!   learned encoding vector.  On the hardware the table is additionally
//!   *fused* with the downstream weight matrix so "time encoding +
//!   vector–matrix multiply" collapses into a single table read;
//!   [`LutTimeEncoder::fuse_with`] computes that table, and every
//!   [`crate::Linear`] whose input ends in a time encoding serves from it
//!   ([`crate::Linear::forward_folded_into`]): the batched and served paths
//!   look a bin up per row and never materialise an encoding.  The plain
//!   lookup ([`LutTimeEncoder::forward_into`]) remains for the per-vertex
//!   reference and training paths.

use crate::param::{Param, Stamp};
use serde::{Deserialize, Serialize};
use tgnn_tensor::gemm::matmul;
use tgnn_tensor::stats::{bin_index, equal_frequency_edges};
use tgnn_tensor::vmath::{cos_time_into, sin_time_into};
use tgnn_tensor::{Float, Matrix, TensorRng};

/// Trigonometric time encoder `Φ(Δt) = cos(ω·Δt + φ)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CosTimeEncoder {
    /// Frequencies ω (1×dim).
    pub omega: Param,
    /// Phases φ (1×dim).
    pub phi: Param,
    dim: usize,
}

impl CosTimeEncoder {
    /// Creates an encoder of the given output dimensionality.  Frequencies
    /// are initialised on a log scale (as in the TGN reference code) so
    /// different components respond to different time scales.
    pub fn new(name: &str, dim: usize, rng: &mut TensorRng) -> Self {
        assert!(dim > 0, "CosTimeEncoder: dim must be positive");
        let mut omega = Matrix::zeros(1, dim);
        for j in 0..dim {
            // Geometric progression from ~1 down to ~1e-6, plus jitter.
            let exponent = -(6.0 * j as Float / dim as Float);
            omega[(0, j)] = 10.0_f32.powf(exponent) * rng.uniform(0.5, 1.5);
        }
        Self {
            omega: Param::new(format!("{name}.omega"), omega),
            phi: Param::new(
                format!("{name}.phi"),
                rng.uniform_matrix(1, dim, 0.0, std::f32::consts::PI),
            ),
            dim,
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes a batch of time deltas: `Δt (B) -> Φ (B×dim)`.
    pub fn forward(&self, delta_t: &[Float]) -> Matrix {
        let mut out = Matrix::zeros(delta_t.len(), self.dim);
        self.forward_into(delta_t, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::forward`] writing into a pre-sized
    /// `B×dim` output (workspace-threaded hot path).
    ///
    /// # Panics
    /// Panics if `out` is not `delta_t.len() × dim`.
    pub fn forward_into(&self, delta_t: &[Float], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (delta_t.len(), self.dim),
            "CosTimeEncoder::forward_into: output shape mismatch"
        );
        let (omega, phi) = (self.omega.value.row(0), self.phi.value.row(0));
        cos_time_into(omega, phi, delta_t, out.as_mut_slice());
    }

    /// Backward pass: accumulates gradients for ω and φ given the upstream
    /// gradient `grad_out (B×dim)` and the original inputs.
    pub fn backward(&mut self, delta_t: &[Float], grad_out: &Matrix) {
        assert_eq!(
            grad_out.rows(),
            delta_t.len(),
            "CosTimeEncoder: batch mismatch"
        );
        assert_eq!(grad_out.cols(), self.dim, "CosTimeEncoder: dim mismatch");
        // sin of the very argument the forward pass took the cosine of.
        let mut sin = Matrix::zeros(delta_t.len(), self.dim);
        let (omega, phi) = (self.omega.value.row(0), self.phi.value.row(0));
        sin_time_into(omega, phi, delta_t, sin.as_mut_slice());
        let mut d_omega = Matrix::zeros(1, self.dim);
        let mut d_phi = Matrix::zeros(1, self.dim);
        for (i, &dt) in delta_t.iter().enumerate() {
            for j in 0..self.dim {
                let d_arg = -sin[(i, j)] * grad_out[(i, j)];
                d_omega[(0, j)] += d_arg * dt;
                d_phi[(0, j)] += d_arg;
            }
        }
        self.omega.accumulate(&d_omega);
        self.phi.accumulate(&d_phi);
    }

    /// Learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.omega, &mut self.phi]
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.omega, &self.phi]
    }
}

/// LUT-based time encoder.
///
/// The Δt axis is split into equal-frequency intervals; each interval stores
/// a learnable encoding vector.  Lookup is a binary search over the bin
/// edges (on hardware: a pipelined comparator tree over BRAM) followed by a
/// table read — no arithmetic.
///
/// The table is private because tables fused with it are cached elsewhere
/// ([`crate::Linear`]): every mutable route to it ([`Self::table_mut`],
/// [`Self::params_mut`]) redraws [`Self::stamp`], which those caches are
/// validated against, so a stale fused table cannot be served.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LutTimeEncoder {
    /// Bin edges, strictly increasing, `bins + 1` entries.
    edges: Vec<Float>,
    /// Encoding table (`bins × dim`).
    table: Param,
    dim: usize,
    /// Identity of the table's current contents.  Not part of the
    /// serialized form: a loaded encoder draws its own.
    #[serde(skip)]
    stamp: Stamp,
}

impl LutTimeEncoder {
    /// Calibrates the bin edges from a sample of Δt values (equal-frequency
    /// binning) and initialises each bin's vector from a trained
    /// [`CosTimeEncoder`] evaluated at the bin's representative Δt — the
    /// midpoint of its two edges.  This mirrors the paper's training recipe
    /// where the LUT is learned to mimic the teacher's time encoding.
    pub fn calibrate(
        name: &str,
        delta_samples: &[Float],
        bins: usize,
        reference: &CosTimeEncoder,
    ) -> Self {
        assert!(
            !delta_samples.is_empty(),
            "LutTimeEncoder: empty calibration sample"
        );
        let edges = equal_frequency_edges(delta_samples, bins);
        let nbins = edges.len() - 1;
        let mut table = Matrix::zeros(nbins, reference.dim());
        for b in 0..nbins {
            let representative = 0.5 * (edges[b] + edges[b + 1]);
            let enc = reference.forward(&[representative]);
            table.row_mut(b).copy_from_slice(enc.row(0));
        }
        Self {
            edges,
            table: Param::new(format!("{name}.table"), table),
            dim: reference.dim(),
            stamp: Stamp::fresh(),
        }
    }

    /// Creates an encoder with explicit edges and a zero table (used when the
    /// table is to be learned from scratch).
    pub fn with_edges(name: &str, edges: Vec<Float>, dim: usize) -> Self {
        assert!(edges.len() >= 2, "LutTimeEncoder: need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[1] > w[0]),
            "LutTimeEncoder: edges must increase"
        );
        let nbins = edges.len() - 1;
        Self {
            edges,
            table: Param::zeros(format!("{name}.table"), nbins, dim),
            dim,
            stamp: Stamp::fresh(),
        }
    }

    /// The encoding table (`bins × dim`).
    pub fn table(&self) -> &Param {
        &self.table
    }

    /// Mutable access to the table; redraws [`Self::stamp`], so every table
    /// fused with the old contents is rebuilt before it is next used.
    pub fn table_mut(&mut self) -> &mut Param {
        self.stamp = Stamp::fresh();
        &mut self.table
    }

    /// Identity of the table's current contents: two encoders with equal
    /// stamps hold equal tables.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of bins (LUT entries).
    pub fn bins(&self) -> usize {
        self.table.value.rows()
    }

    /// The bin index a given Δt falls into.
    pub fn lookup_bin(&self, delta_t: Float) -> usize {
        bin_index(&self.edges, delta_t)
    }

    /// Encodes a batch of time deltas by table lookup.
    pub fn forward(&self, delta_t: &[Float]) -> Matrix {
        let mut out = Matrix::zeros(delta_t.len(), self.dim);
        self.forward_into(delta_t, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::forward`] writing into a pre-sized
    /// `B×dim` output (workspace-threaded hot path).
    ///
    /// # Panics
    /// Panics if `out` is not `delta_t.len() × dim`.
    pub fn forward_into(&self, delta_t: &[Float], out: &mut Matrix) {
        self.lookup_rows_into(&self.table.value, delta_t, out);
    }

    /// Row `i` of `out` becomes the row of `table` for `delta_t[i]`'s bin —
    /// `table` holds one row per bin: this encoder's own
    /// ([`Self::forward_into`]) or one fused with a layer's weight.
    ///
    /// # Panics
    /// Panics if `table` has not one row per bin or `out` is not
    /// `delta_t.len() × table.cols()`.
    pub fn lookup_rows_into(&self, table: &Matrix, delta_t: &[Float], out: &mut Matrix) {
        assert_eq!(
            table.rows(),
            self.bins(),
            "LutTimeEncoder::lookup_rows_into: one table row per bin"
        );
        assert_eq!(
            out.shape(),
            (delta_t.len(), table.cols()),
            "LutTimeEncoder::lookup_rows_into: output shape mismatch"
        );
        for (i, &dt) in delta_t.iter().enumerate() {
            out.row_mut(i)
                .copy_from_slice(table.row(self.lookup_bin(dt)));
        }
    }

    /// Backward pass: routes each row's gradient into its bin's table row.
    pub fn backward(&mut self, delta_t: &[Float], grad_out: &Matrix) {
        assert_eq!(
            grad_out.rows(),
            delta_t.len(),
            "LutTimeEncoder: batch mismatch"
        );
        assert_eq!(grad_out.cols(), self.dim, "LutTimeEncoder: dim mismatch");
        let mut grad = Matrix::zeros(self.bins(), self.dim);
        for (i, &dt) in delta_t.iter().enumerate() {
            let b = self.lookup_bin(dt);
            for (acc, &g) in grad.row_mut(b).iter_mut().zip(grad_out.row(i)) {
                *acc += g;
            }
        }
        self.table.accumulate(&grad);
    }

    /// Pre-computes the product of every table entry with a downstream weight
    /// matrix `W (out × dim)`: the returned `bins × out` matrix is the fused
    /// LUT stored in on-chip memory, so that at inference the time encoding
    /// *and* its vector–matrix multiplication cost a single table read.
    /// Each entry is the fused ascending-`k` chain from `+0.0` of the numeric
    /// contract, i.e. exactly what any GEMM kernel yields for the table row.
    pub fn fuse_with(&self, weight: &Matrix) -> Matrix {
        assert_eq!(
            weight.cols(),
            self.dim,
            "fuse_with: weight inner dim mismatch"
        );
        matmul(&self.table.value, &weight.transpose())
    }

    /// Learnable parameters (redraws the stamp, like [`Self::table_mut`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.table_mut()]
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.table]
    }

    /// On-chip memory footprint of the (unfused) table in bytes.
    pub fn table_bytes(&self, bytes_per_word: usize) -> usize {
        self.bins() * self.dim * bytes_per_word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tgnn_tensor::approx_eq;

    #[test]
    fn cos_encoder_outputs_bounded_cosines() {
        let mut rng = TensorRng::new(1);
        let enc = CosTimeEncoder::new("t", 8, &mut rng);
        let out = enc.forward(&[0.0, 1.0, 100.0, 1e6]);
        assert_eq!(out.shape(), (4, 8));
        assert!(out.max_abs() <= 1.0 + 1e-6);
        // Φ(0) = cos(φ) is identical for every call — the hardware exploits
        // this by hard-wiring the query-side time encoding.
        let a = enc.forward(&[0.0]);
        let b = enc.forward(&[0.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn cos_encoder_distinguishes_time_scales() {
        let mut rng = TensorRng::new(2);
        let enc = CosTimeEncoder::new("t", 16, &mut rng);
        let a = enc.forward(&[1.0]);
        let b = enc.forward(&[1000.0]);
        let diff: Float = a
            .row(0)
            .iter()
            .zip(b.row(0))
            .map(|(&x, &y)| (x - y).abs())
            .sum();
        assert!(diff > 0.1, "encodings of very different Δt should differ");
    }

    #[test]
    fn cos_encoder_gradients_match_finite_differences() {
        let mut rng = TensorRng::new(3);
        let mut enc = CosTimeEncoder::new("t", 4, &mut rng);
        // Use moderate Δt so finite differences are well conditioned.
        let dts = vec![0.3, 1.7, 2.9];
        let loss_fn = |e: &CosTimeEncoder| e.forward(&dts).sum();
        let loss = loss_fn(&enc);
        enc.backward(&dts, &Matrix::full(3, 4, 1.0));
        check_gradients(
            &loss,
            &enc.omega.grad,
            |i, j, eps| {
                let mut p = enc.clone();
                p.omega.value[(i, j)] += eps;
                loss_fn(&p)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &enc.phi.grad,
            |i, j, eps| {
                let mut p = enc.clone();
                p.phi.value[(i, j)] += eps;
                loss_fn(&p)
            },
            3e-2,
        );
    }

    #[test]
    fn lut_calibration_approximates_reference_on_dense_bins() {
        let mut rng = TensorRng::new(4);
        let reference = CosTimeEncoder::new("t", 6, &mut rng);
        // Heavy-tailed sample as in Fig. 1.
        let samples: Vec<Float> = {
            let mut r = TensorRng::new(99);
            (0..4000).map(|_| r.pareto(0.5, 1.2).min(1e4)).collect()
        };
        let lut = LutTimeEncoder::calibrate("lut", &samples, 128, &reference);
        assert!(lut.bins() >= 2);
        // On a dense region (small Δt) the LUT should be close to the
        // reference encoder.
        let probe = 1.0;
        let lut_out = lut.forward(&[probe]);
        let ref_out = reference.forward(&[probe]);
        let err: Float = lut_out
            .row(0)
            .iter()
            .zip(ref_out.row(0))
            .map(|(&a, &b)| (a - b).abs())
            .sum::<Float>()
            / 6.0;
        assert!(err < 0.3, "LUT too far from reference: {err}");
    }

    #[test]
    fn lut_forward_is_piecewise_constant_and_saturates() {
        let lut = {
            let mut l = LutTimeEncoder::with_edges("lut", vec![0.0, 1.0, 2.0, 4.0], 2);
            l.table_mut().value.set_row(0, &[1.0, 0.0]);
            l.table_mut().value.set_row(1, &[0.0, 1.0]);
            l.table_mut().value.set_row(2, &[0.5, 0.5]);
            l
        };
        assert_eq!(lut.forward(&[0.2]).row(0), &[1.0, 0.0]);
        assert_eq!(lut.forward(&[0.9]).row(0), &[1.0, 0.0]);
        assert_eq!(lut.forward(&[1.5]).row(0), &[0.0, 1.0]);
        // Out-of-range values saturate to the first/last bin.
        assert_eq!(lut.forward(&[-5.0]).row(0), &[1.0, 0.0]);
        assert_eq!(lut.forward(&[100.0]).row(0), &[0.5, 0.5]);
    }

    #[test]
    fn lut_backward_routes_gradients_to_bins() {
        let mut lut = LutTimeEncoder::with_edges("lut", vec![0.0, 1.0, 2.0], 3);
        let dts = vec![0.5, 0.7, 1.5];
        let grad = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ]);
        lut.backward(&dts, &grad);
        assert_eq!(lut.table().grad.row(0), &[1.0, 2.0, 0.0]);
        assert_eq!(lut.table().grad.row(1), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn fused_table_matches_explicit_multiply() {
        let mut rng = TensorRng::new(7);
        let reference = CosTimeEncoder::new("t", 5, &mut rng);
        let samples: Vec<Float> = (0..500).map(|i| (i as Float + 1.0) * 0.1).collect();
        let lut = LutTimeEncoder::calibrate("lut", &samples, 16, &reference);
        let w = rng.uniform_matrix(3, 5, -1.0, 1.0);
        let fused = lut.fuse_with(&w);
        assert_eq!(fused.shape(), (lut.bins(), 3));
        // For any Δt: fused[bin] == W · Φ_lut(Δt)
        let dt = 7.3;
        let bin = lut.lookup_bin(dt);
        let enc = lut.forward(&[dt]);
        let explicit = matmul(&enc, &w.transpose());
        for j in 0..3 {
            assert!(approx_eq(fused[(bin, j)], explicit[(0, j)], 1e-4));
        }
        assert_eq!(lut.table_bytes(4), lut.bins() * 5 * 4);
    }

    #[test]
    fn every_mutable_route_to_the_table_redraws_the_stamp() {
        let mut lut = LutTimeEncoder::with_edges("lut", vec![0.0, 1.0, 2.0], 3);
        let original = lut.stamp();
        assert_eq!(lut.clone().stamp(), original, "a copy holds the same table");
        assert_eq!(lut.table().value.shape(), (2, 3));
        assert_eq!(lut.stamp(), original, "reading changes nothing");

        let _ = lut.table_mut();
        let after_table_mut = lut.stamp();
        assert_ne!(after_table_mut, original);
        let _ = lut.params_mut();
        assert_ne!(lut.stamp(), after_table_mut);
        // Two encoders never share a stamp unless one is a copy of the other.
        let twin = LutTimeEncoder::with_edges("lut", vec![0.0, 1.0, 2.0], 3);
        assert_ne!(twin.stamp(), lut.stamp());
    }
}
