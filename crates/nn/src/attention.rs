//! Temporal attention aggregators.
//!
//! Two aggregators with the same input/output contract so the model can swap
//! them:
//!
//! * [`VanillaAttention`] — the Transformer-style temporal attention of TGN
//!   (Eq. 11–15): queries from the target vertex, keys/values from its
//!   temporal neighbors, scaled dot-product scores.
//! * [`SimplifiedAttention`] — the paper's light-weight attention (Eq. 16):
//!   the attention logits are `a + W_t·Δt`, a function of the neighbor time
//!   deltas only.  Because no key/query projections are needed, the score is
//!   known *before* any neighbor feature is fetched, which enables the top-k
//!   temporal-neighbor pruning of Section III-B and the prefetching the
//!   hardware relies on.
//!
//! Both forwards take one target vertex: the caller supplies the target's
//! query-side input row and a `n × d_n` matrix of neighbor-side inputs
//! (already concatenated `[f'_j || e_ij || Φ(Δt_j)]`, exactly the layout the
//! Embedding Unit streams from the Data Loader).
//!
//! **Neither projects a neighbor row.**  Both aggregate first and transform
//! once per vertex — the paper's FPGA order projects every neighbor, this
//! CPU order is the same sums reassociated:
//!
//! * values: `Σ_j w_j (W_v x_j + b_v) = W_v x̄ + (Σ_j w_j) b_v` with
//!   `x̄ = Σ_j w_j x_j` ([`Aggregate::set_vertex`], then
//!   [`Linear::forward_aggregated_ws`]);
//! * keys (vanilla): `q·(W_k x_j + b_k) = (W_kᵀ q)·x_j + q·b_k`
//!   ([`Linear::forward_transposed_ws`], then [`key_logits_into`]).
//!
//! A layer with a time tail keeps its split rule: the tail of row `j` is its
//! own chain (the fused-table entry of its bin when folded), summed with
//! the row's weight (values) or dotted with `q` (keys).
//!
//! Both helpers take **one vertex's rows**.  The batched GNN stage
//! (`tgnn-core`) stages each target's ≤ k neighbor rows in one small buffer
//! that the next target overwrites — the Embedding Unit's on-chip neighbor
//! buffer — scores and aggregates them there, and leaves only the per-vertex
//! `x̄_i`, `τ_i` and `Σ_j w_j` for the batch's projections; no batch-wide
//! matrix of neighbor rows exists.  On f32 or int8 weights alike, so there is
//! one arithmetic definition of each aggregator.

use crate::linear::Linear;
use crate::param::Param;
use serde::{Deserialize, Serialize};
use tgnn_tensor::gemm::{dot, dot_lanes};
use tgnn_tensor::ops::{softmax, softmax_in_place, weighted_sum_into};
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

/// What the value side of a batch of vertices aggregates before its one
/// projection per vertex, filled one vertex at a time
/// ([`Self::set_vertex`]); workspace buffers, hand them back with
/// [`Self::recycle`].
#[derive(Debug)]
pub struct Aggregate {
    /// `x̄_i = Σ_j w_j x_j[..head]`, one row per vertex.
    pub rows: Matrix,
    /// `τ_i = Σ_j w_j tail_j`, when the rows have tails.
    pub tails: Option<Matrix>,
    /// `Σ_j w_j` per vertex — what the bias is scaled by.
    pub mass: Vec<Float>,
}

impl Aggregate {
    /// The aggregate of `t` vertices from the workspace: `x̄` over `head`
    /// columns, and `τ` over `tail_dim` columns when the rows have tails.
    pub fn take(t: usize, head: usize, tail_dim: Option<usize>, ws: &mut Workspace) -> Self {
        Self {
            rows: ws.take_matrix(t, head),
            tails: tail_dim.map(|d| ws.take_matrix(t, d)),
            mass: ws.take(t),
        }
    }

    /// Vertex `i`'s entry, from its own rows — the first `weights.len()` of
    /// `rows` and of `tails` (one tail per row, when the layer has a time
    /// tail): `x̄_i` over the first `head` columns, the weighted sum of the
    /// tails and the weight mass, each in [`weighted_sum_into`]'s order, so
    /// a vertex without a weight aggregates to exact zeros.  The rows can
    /// live in a buffer the next vertex overwrites.
    ///
    /// # Panics
    /// Panics if `rows` (or `tails`) hold fewer rows than weights, or
    /// `tails` is given to an aggregate without them.
    pub fn set_vertex(
        &mut self,
        i: usize,
        rows: &Matrix,
        weights: &[Float],
        tails: Option<&Matrix>,
    ) {
        assert!(
            rows.rows() >= weights.len(),
            "Aggregate::set_vertex: a row per weight"
        );
        weighted_sum_into(weights, |j| rows.row(j), self.rows.row_mut(i));
        match (tails, self.tails.as_mut()) {
            (Some(src), Some(dst)) => weighted_sum_into(weights, |j| src.row(j), dst.row_mut(i)),
            (None, None) => {}
            _ => panic!("Aggregate::set_vertex: tails iff the aggregate has them"),
        }
        self.mass[i] = weights.iter().fold(0.0, |m, &w| m + w);
    }

    /// Returns the buffers to the workspace.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.rows);
        if let Some(tails) = self.tails {
            ws.recycle_matrix(tails);
        }
        ws.recycle(self.mass);
    }
}

/// Vanilla attention's pre-softmax logits for one vertex, over the first
/// `out.len()` of its staged `rows`:
/// `logit_j = ((p·x_j[..h] + q·tail_j) + q·b_k) · (1/√n)` — `q` the vertex's
/// query, `p = W_k[:, ..h]ᵀ q` ([`Linear::forward_transposed_ws`], `h =
/// p.len()`), `tail_j` row `j`'s key tail chain when the key layer has one
/// (then `p·x_j[..h] + q·tail_j`; without, just `p·x_j`), and every dot a
/// [`dot_lanes`].  Equals `q·k_j / √n` up to rounding; the `q·b_k` term
/// keeps the logits themselves exact, not just their softmax.
///
/// # Panics
/// Panics on shape mismatches.
pub fn key_logits_into(
    q: &[Float],
    p: &[Float],
    k_bias: &[Float],
    rows: &Matrix,
    tails: Option<&Matrix>,
    out: &mut [Float],
) {
    let h = p.len();
    let scale = 1.0 / (out.len() as Float).sqrt();
    let q_bias = dot_lanes(q, k_bias);
    for (j, logit) in out.iter_mut().enumerate() {
        let head = dot_lanes(p, &rows.row(j)[..h]);
        let key = match tails {
            Some(t) => head + dot_lanes(q, t.row(j)),
            None => head,
        };
        *logit = (key + q_bias) * scale;
    }
}

/// One vertex's value side: its rows aggregated with `weights`, then
/// projected once (unfolded — `rows` are full-width).
fn project_aggregate(
    w_v: &Linear,
    rows: &Matrix,
    weights: &[Float],
    ws: &mut Workspace,
) -> Vec<Float> {
    let tails = w_v.tails_ws(rows, None, ws);
    let tail_dim = tails.as_ref().map(Matrix::cols);
    let mut agg = Aggregate::take(1, w_v.head_dim(), tail_dim, ws);
    agg.set_vertex(0, rows, weights, tails.as_ref());
    let out = w_v.forward_aggregated_ws(&agg.rows, agg.tails.as_ref(), &agg.mass, ws);
    let output = out.row_to_vec(0);
    ws.recycle_matrix(out);
    agg.recycle(ws);
    tails.into_iter().for_each(|m| ws.recycle_matrix(m));
    output
}

/// Output of an attention forward pass, including what is needed for
/// backward and for the pruning/complexity analysis.
#[derive(Clone, Debug)]
pub struct PrunedAttentionOutput {
    /// Aggregated output vector `h_i`.
    pub output: Vec<Float>,
    /// Attention weights over the *selected* neighbors (sums to 1).
    pub weights: Vec<Float>,
    /// Indices (into the caller's neighbor list) that were actually used.
    pub selected: Vec<usize>,
    /// Pre-softmax logits over all candidate neighbors (used by the
    /// knowledge-distillation loss, Eq. 17).
    pub logits: Vec<Float>,
}

/// The attention decision of a run of vertices in flat arenas — what
/// [`SimplifiedAttention::select`] writes and everything downstream of the
/// sampling stage reads: which candidates to fetch, and with what weight to
/// aggregate them.  One entry in `ranges` per vertex; no per-vertex `Vec`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Selection {
    /// Pre-softmax logits, one per candidate, vertices back to back (empty
    /// for vertices entered with [`Self::keep_all`]).
    pub logits: Vec<Float>,
    /// Kept candidates as indices into their vertex's candidate list, best
    /// first.
    pub kept: Vec<u32>,
    /// Softmax weights over each vertex's kept candidates, aligned with
    /// `kept` wherever logits were scored.
    pub weights: Vec<Float>,
    /// Per vertex `(start, len)` into `kept`.
    pub ranges: Vec<(usize, usize)>,
    /// `Δt/τ` of the vertex scored last, zero-padded to the slot count.
    scaled: Vec<Float>,
}

impl Selection {
    /// Enters a vertex that keeps all `n` of its candidates and scores them
    /// later, from their features (vanilla attention).
    pub fn keep_all(&mut self, n: usize) {
        self.ranges.push((self.kept.len(), n));
        self.kept.extend(0..n as u32);
    }

    /// The kept candidates of vertex `i`, best first.
    pub fn kept_of(&self, i: usize) -> &[u32] {
        let (start, len) = self.ranges[i];
        &self.kept[start..start + len]
    }

    /// The softmax weights of vertex `i`'s kept candidates.
    pub fn weights_of(&self, i: usize) -> &[Float] {
        let (start, len) = self.ranges[i];
        &self.weights[start..start + len]
    }
}

/// Transformer-style temporal attention (Eq. 11–15).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VanillaAttention {
    /// Query projection `W_q, b_q` applied to `[f'_i || Φ(0)]`.
    pub w_q: Linear,
    /// Key projection `W_k, b_k` applied to `[f'_j || e_ij || Φ(Δt)]`.
    pub w_k: Linear,
    /// Value projection `W_v, b_v` applied to the same neighbor input.
    pub w_v: Linear,
    query_in_dim: usize,
    neighbor_in_dim: usize,
    head_dim: usize,
    value_dim: usize,
}

/// Cache for [`VanillaAttention::backward`]: the inputs and the attention
/// weights; the per-neighbor keys and values the gradient needs are
/// recomputed there (training is not a served path).
#[derive(Clone, Debug)]
pub struct VanillaCache {
    query_input: Matrix,
    neighbor_input: Matrix,
    weights: Vec<Float>,
}

impl VanillaAttention {
    /// Creates the aggregator.
    ///
    /// * `query_in_dim` — dimensionality of the target-side input
    ///   `[f'_i || Φ(0)]`.
    /// * `neighbor_in_dim` — dimensionality of the neighbor-side input
    ///   `[f'_j || e_ij || Φ(Δt)]`.
    /// * `head_dim` — dimensionality of queries/keys.
    /// * `value_dim` — dimensionality of values and of the output.
    pub fn new(
        name: &str,
        query_in_dim: usize,
        neighbor_in_dim: usize,
        head_dim: usize,
        value_dim: usize,
        rng: &mut TensorRng,
    ) -> Self {
        Self {
            w_q: Linear::new(&format!("{name}.w_q"), query_in_dim, head_dim, rng),
            w_k: Linear::new(&format!("{name}.w_k"), neighbor_in_dim, head_dim, rng),
            w_v: Linear::new(&format!("{name}.w_v"), neighbor_in_dim, value_dim, rng),
            query_in_dim,
            neighbor_in_dim,
            head_dim,
            value_dim,
        }
    }

    /// Declares the last `time_dim` columns of the query- and neighbor-side
    /// inputs a time encoding (see [`Linear::with_time_tail`]).
    pub fn with_time_tail(mut self, time_dim: Option<usize>) -> Self {
        self.w_q = self.w_q.with_time_tail(time_dim);
        self.w_k = self.w_k.with_time_tail(time_dim);
        self.w_v = self.w_v.with_time_tail(time_dim);
        self
    }

    /// Output (value) dimensionality.
    pub fn value_dim(&self) -> usize {
        self.value_dim
    }

    /// Neighbor-side input dimensionality.
    pub fn neighbor_in_dim(&self) -> usize {
        self.neighbor_in_dim
    }

    /// Query-side input dimensionality.
    pub fn query_in_dim(&self) -> usize {
        self.query_in_dim
    }

    /// Forward pass for one target vertex.
    ///
    /// `query_input` is `1 × query_in_dim`; `neighbor_input` is
    /// `n × neighbor_in_dim`.  With `n = 0` the output is the zero vector
    /// (a vertex with no temporal neighbors contributes only through its
    /// memory, handled by the caller).
    pub fn forward(&self, query_input: &Matrix, neighbor_input: &Matrix) -> PrunedAttentionOutput {
        self.forward_cached(query_input, neighbor_input).0
    }

    /// Forward pass that also returns the cache for [`Self::backward`].
    pub fn forward_cached(
        &self,
        query_input: &Matrix,
        neighbor_input: &Matrix,
    ) -> (PrunedAttentionOutput, VanillaCache) {
        let out = self.forward_ws(query_input, neighbor_input, &mut Workspace::new());
        let cache = VanillaCache {
            query_input: query_input.clone(),
            neighbor_input: neighbor_input.clone(),
            weights: out.weights.clone(),
        };
        (out, cache)
    }

    /// The inference forward pass, temporaries from the workspace: `q`,
    /// the key side `W_kᵀ q` and the logits ([`key_logits_into`]), the
    /// softmax, then the value side aggregated before its one projection
    /// ([`Aggregate::set_vertex`], [`Linear::forward_aggregated_ws`]).  Only the
    /// returned vectors are freshly allocated, since they leave the call.
    pub fn forward_ws(
        &self,
        query_input: &Matrix,
        neighbor_input: &Matrix,
        ws: &mut Workspace,
    ) -> PrunedAttentionOutput {
        assert_eq!(
            query_input.rows(),
            1,
            "VanillaAttention: one query row per call"
        );
        assert_eq!(
            query_input.cols(),
            self.query_in_dim,
            "VanillaAttention: query dim mismatch"
        );
        let n = neighbor_input.rows();
        if n == 0 {
            return PrunedAttentionOutput {
                output: vec![0.0; self.value_dim],
                weights: Vec::new(),
                selected: Vec::new(),
                logits: Vec::new(),
            };
        }
        assert_eq!(
            neighbor_input.cols(),
            self.neighbor_in_dim,
            "VanillaAttention: neighbor dim mismatch"
        );
        let q = self.w_q.forward_ws(query_input, ws);
        let p = self.w_k.forward_transposed_ws(&q, ws);
        let k_tails = self.w_k.tails_ws(neighbor_input, None, ws);
        let mut logits = vec![0.0; n];
        let k_bias = self.w_k.bias.value.row(0);
        key_logits_into(
            q.row(0),
            p.row(0),
            k_bias,
            neighbor_input,
            k_tails.as_ref(),
            &mut logits,
        );
        let weights = softmax(&logits);
        let output = project_aggregate(&self.w_v, neighbor_input, &weights, ws);
        k_tails.into_iter().for_each(|m| ws.recycle_matrix(m));
        ws.recycle_matrix(p);
        ws.recycle_matrix(q);
        PrunedAttentionOutput {
            output,
            weights,
            selected: (0..n).collect(),
            logits,
        }
    }

    /// Backward pass for one target vertex.  Accumulates all weight
    /// gradients and returns `(grad_query_input, grad_neighbor_input)`.
    pub fn backward(&mut self, cache: &VanillaCache, grad_output: &[Float]) -> (Matrix, Matrix) {
        assert_eq!(
            grad_output.len(),
            self.value_dim,
            "VanillaAttention: grad dim mismatch"
        );
        let n = cache.neighbor_input.rows();
        if n == 0 {
            return (
                Matrix::zeros(1, self.query_in_dim),
                Matrix::zeros(0, self.neighbor_in_dim),
            );
        }
        let scale = 1.0 / (n as Float).sqrt();
        let q = self.w_q.forward(&cache.query_input).row_to_vec(0);
        let k = self.w_k.forward(&cache.neighbor_input);
        let v = self.w_v.forward(&cache.neighbor_input);

        // output = Σ_j w_j v_j
        // dv_j = w_j * grad_output
        let mut grad_v = Matrix::zeros(n, self.value_dim);
        for j in 0..n {
            for (g, &go) in grad_v.row_mut(j).iter_mut().zip(grad_output) {
                *g = cache.weights[j] * go;
            }
        }
        // dw_j = grad_output · v_j
        let dw: Vec<Float> = (0..n).map(|j| dot(grad_output, v.row(j))).collect();
        // softmax backward: dlogit_j = w_j * (dw_j - Σ_k w_k dw_k)
        let dot_sum: Float = cache.weights.iter().zip(&dw).map(|(&w, &d)| w * d).sum();
        let dlogits: Vec<Float> = (0..n)
            .map(|j| cache.weights[j] * (dw[j] - dot_sum))
            .collect();

        // logit_j = scale * q·k_j
        let mut grad_q = vec![0.0; self.head_dim];
        let mut grad_k = Matrix::zeros(n, self.head_dim);
        for (j, &dlogit) in dlogits.iter().enumerate() {
            let dl = dlogit * scale;
            for (gq, &kj) in grad_q.iter_mut().zip(k.row(j)) {
                *gq += dl * kj;
            }
            for (gk, &qi) in grad_k.row_mut(j).iter_mut().zip(&q) {
                *gk = dl * qi;
            }
        }

        let grad_query_input = self.w_q.backward(
            &cache.query_input,
            &Matrix::from_vec(1, self.head_dim, grad_q),
        );
        let grad_from_k = self.w_k.backward(&cache.neighbor_input, &grad_k);
        let grad_from_v = self.w_v.backward(&cache.neighbor_input, &grad_v);
        let grad_neighbor_input = tgnn_tensor::ops::add(&grad_from_k, &grad_from_v);
        (grad_query_input, grad_neighbor_input)
    }

    /// Learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.w_q.params_mut());
        out.extend(self.w_k.params_mut());
        out.extend(self.w_v.params_mut());
        out
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        out.extend(self.w_q.params());
        out.extend(self.w_k.params());
        out.extend(self.w_v.params());
        out
    }
}

/// The paper's simplified temporal attention (Eq. 16) with optional top-k
/// neighbor pruning (Section III-B).
///
/// Logits are `a + W_t·Δt` where `Δt` is the vector of time differences to
/// the (timestamp-sorted) candidate neighbors, `a` is a learnable constant
/// vector shared across nodes, and `W_t` maps the node-specific Δt pattern to
/// per-slot offsets.  Values are still projected with `W_v` — but only for
/// the selected neighbors, which is where the linear reduction in computation
/// and memory accesses comes from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimplifiedAttention {
    /// Constant attention logits `a` (1×slots).
    pub a: Param,
    /// Time-difference mixing matrix `W_t` (slots×slots).
    pub w_t: Param,
    /// Value projection shared with the vanilla aggregator's role.
    pub w_v: Linear,
    /// Number of candidate neighbor slots `n` (the fixed-length sorted list).
    slots: usize,
    neighbor_in_dim: usize,
    value_dim: usize,
    /// Normalisation applied to Δt before the linear map, keeping the logits
    /// in a trainable range regardless of the dataset's time unit.
    time_scale: Float,
}

/// Cache for [`SimplifiedAttention::backward`] (which recomputes the
/// selected neighbors' values).
#[derive(Clone, Debug)]
pub struct SimplifiedCache {
    neighbor_input: Matrix,
    scaled_dt: Vec<Float>,
    selected: Vec<usize>,
    weights: Vec<Float>,
}

impl SimplifiedAttention {
    /// Creates the simplified aggregator.
    ///
    /// * `slots` — length of the fixed candidate neighbor list (10 in the
    ///   paper's baseline configuration).
    /// * `neighbor_in_dim` / `value_dim` — as in [`VanillaAttention`].
    /// * `time_scale` — divisor applied to Δt (e.g. one day in seconds) so
    ///   logits stay well-conditioned.
    pub fn new(
        name: &str,
        slots: usize,
        neighbor_in_dim: usize,
        value_dim: usize,
        time_scale: Float,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(slots > 0, "SimplifiedAttention: need at least one slot");
        assert!(
            time_scale > 0.0,
            "SimplifiedAttention: time scale must be positive"
        );
        Self {
            a: Param::new(format!("{name}.a"), rng.uniform_matrix(1, slots, -0.1, 0.1)),
            w_t: Param::new(format!("{name}.w_t"), rng.xavier_matrix(slots, slots)),
            w_v: Linear::new(&format!("{name}.w_v"), neighbor_in_dim, value_dim, rng),
            slots,
            neighbor_in_dim,
            value_dim,
            time_scale,
        }
    }

    /// Number of candidate slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Δt normalisation constant (seconds) applied before the logit map.
    pub fn time_scale(&self) -> Float {
        self.time_scale
    }

    /// Output dimensionality.
    pub fn value_dim(&self) -> usize {
        self.value_dim
    }

    /// Neighbor-side input dimensionality.
    pub fn neighbor_in_dim(&self) -> usize {
        self.neighbor_in_dim
    }

    /// Declares the last `time_dim` columns of the neighbor-side input a
    /// time encoding (see [`Linear::with_time_tail`]).
    pub fn with_time_tail(mut self, time_dim: Option<usize>) -> Self {
        self.w_v = self.w_v.with_time_tail(time_dim);
        self
    }

    /// **The** simplified-attention decision for one vertex, appended to
    /// `out`: logits `a + W_t·(Δt/τ)` over the `delta_t.len()` present
    /// candidates (absent slots count as Δt = 0 and are never ranked), the
    /// top `budget` of them, the softmax over the kept.  No neighbor feature
    /// is needed, so the sampling stage calls it before any is fetched;
    /// every forward of this aggregator goes through it.  The ranking is a
    /// total order — higher logit first, `NaN` last, ties to the lower
    /// index — so a bad checkpoint cannot make the sort panic.
    ///
    /// # Panics
    /// Panics if there are more candidates than slots.
    pub fn select(&self, delta_t: &[Float], budget: usize, out: &mut Selection) {
        let n = delta_t.len();
        assert!(n <= self.slots, "SimplifiedAttention: too many neighbors");
        out.scaled.clear();
        out.scaled.resize(self.slots, 0.0);
        for (slot, &dt) in out.scaled.iter_mut().zip(delta_t) {
            *slot = dt / self.time_scale;
        }
        let first = out.logits.len();
        for j in 0..n {
            let offset = dot(self.w_t.value.row(j), &out.scaled);
            out.logits.push(self.a.value[(0, j)] + offset);
        }
        let logits = &out.logits[first..];

        let start = out.kept.len();
        let keep = budget.min(n);
        out.kept.extend(0..n as u32);
        out.kept[start..].sort_unstable_by(|&i, &j| {
            let (li, lj) = (logits[i as usize], logits[j as usize]);
            let by_value = match (li.is_nan(), lj.is_nan()) {
                (false, false) => lj.partial_cmp(&li).expect("neither logit is NaN"),
                (i_nan, j_nan) => i_nan.cmp(&j_nan),
            };
            by_value.then(i.cmp(&j))
        });
        out.kept.truncate(start + keep);
        out.ranges.push((start, keep));

        out.weights
            .extend(out.kept[start..].iter().map(|&j| logits[j as usize]));
        softmax_in_place(&mut out.weights[start..]);
    }

    /// Forward pass for one target vertex with pruning budget `budget`
    /// (the NP(L/M/S) parameter; pass `slots` for no pruning).
    pub fn forward(
        &self,
        delta_t: &[Float],
        neighbor_input: &Matrix,
        budget: usize,
    ) -> PrunedAttentionOutput {
        self.forward_cached(delta_t, neighbor_input, budget).0
    }

    fn check_inputs(&self, delta_t: &[Float], neighbor_input: &Matrix) {
        assert_eq!(
            delta_t.len(),
            neighbor_input.rows(),
            "SimplifiedAttention: Δt / neighbor count mismatch"
        );
        if !delta_t.is_empty() {
            assert_eq!(
                neighbor_input.cols(),
                self.neighbor_in_dim,
                "SimplifiedAttention: neighbor dim mismatch"
            );
        }
    }

    /// Forward pass that also returns the backward cache.
    pub fn forward_cached(
        &self,
        delta_t: &[Float],
        neighbor_input: &Matrix,
        budget: usize,
    ) -> (PrunedAttentionOutput, SimplifiedCache) {
        self.check_inputs(delta_t, neighbor_input);
        let mut sel = Selection::default();
        self.select(delta_t, budget, &mut sel);
        let out = self.aggregate_selected(&sel, neighbor_input, &mut Workspace::new());
        let cache = SimplifiedCache {
            neighbor_input: neighbor_input.clone(),
            scaled_dt: sel.scaled,
            selected: out.selected.clone(),
            weights: sel.weights,
        };
        (out, cache)
    }

    /// The inference forward pass, temporaries from the workspace: the
    /// selected neighbors' inputs are gathered and aggregated before their
    /// one value projection ([`Aggregate::set_vertex`],
    /// [`Linear::forward_aggregated_ws`]); only the returned vectors are
    /// freshly allocated.
    pub fn forward_ws(
        &self,
        delta_t: &[Float],
        neighbor_input: &Matrix,
        budget: usize,
        ws: &mut Workspace,
    ) -> PrunedAttentionOutput {
        self.check_inputs(delta_t, neighbor_input);
        let mut sel = Selection::default();
        self.select(delta_t, budget, &mut sel);
        self.aggregate_selected(&sel, neighbor_input, ws)
    }

    /// The forward pass after [`Self::select`]: only the selected
    /// neighbors' rows are gathered and aggregated.
    fn aggregate_selected(
        &self,
        sel: &Selection,
        neighbor_input: &Matrix,
        ws: &mut Workspace,
    ) -> PrunedAttentionOutput {
        let selected: Vec<usize> = sel.kept.iter().map(|&j| j as usize).collect();
        let mut output = vec![0.0; self.value_dim];
        if !selected.is_empty() {
            let mut selected_input = ws.take_matrix(selected.len(), self.neighbor_in_dim);
            for (dst, &src) in selected.iter().enumerate() {
                selected_input
                    .row_mut(dst)
                    .copy_from_slice(neighbor_input.row(src));
            }
            output = project_aggregate(&self.w_v, &selected_input, &sel.weights, ws);
            ws.recycle_matrix(selected_input);
        }
        PrunedAttentionOutput {
            output,
            weights: sel.weights.clone(),
            selected,
            logits: sel.logits.clone(),
        }
    }

    /// Backward pass.  Accumulates gradients for `a`, `W_t`, `W_v` and
    /// returns the gradient with respect to the neighbor inputs (rows not
    /// selected by pruning receive zero gradient, mirroring the fact that
    /// they were never fetched).
    pub fn backward(&mut self, cache: &SimplifiedCache, grad_output: &[Float]) -> Matrix {
        assert_eq!(
            grad_output.len(),
            self.value_dim,
            "SimplifiedAttention: grad dim mismatch"
        );
        let total_neighbors = cache.neighbor_input.rows();
        let mut grad_neighbor_input = Matrix::zeros(total_neighbors, self.neighbor_in_dim);
        if cache.selected.is_empty() {
            return grad_neighbor_input;
        }
        let k = cache.selected.len();
        let selected_input = cache.neighbor_input.gather_rows(&cache.selected);
        let v_selected = self.w_v.forward(&selected_input);

        // output = Σ_j w_j v_j over selected neighbors.
        let mut grad_v = Matrix::zeros(k, self.value_dim);
        for j in 0..k {
            for (g, &go) in grad_v.row_mut(j).iter_mut().zip(grad_output) {
                *g = cache.weights[j] * go;
            }
        }
        let dw: Vec<Float> = (0..k)
            .map(|j| dot(grad_output, v_selected.row(j)))
            .collect();
        let dot_sum: Float = cache.weights.iter().zip(&dw).map(|(&w, &d)| w * d).sum();
        let dlogits_selected: Vec<Float> = (0..k)
            .map(|j| cache.weights[j] * (dw[j] - dot_sum))
            .collect();

        // Value projection backward (only selected rows).
        let grad_selected_input = self.w_v.backward(&selected_input, &grad_v);
        for (pos, &orig) in cache.selected.iter().enumerate() {
            let src = grad_selected_input.row(pos).to_vec();
            let dst = grad_neighbor_input.row_mut(orig);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }

        // Logit backward: logit_j = a_j + Σ_m W_t[j, m] * scaled_dt_m.
        let mut d_a = Matrix::zeros(1, self.slots);
        let mut d_wt = Matrix::zeros(self.slots, self.slots);
        for (pos, &slot) in cache.selected.iter().enumerate() {
            let dl = dlogits_selected[pos];
            d_a[(0, slot)] += dl;
            for m in 0..self.slots {
                d_wt[(slot, m)] += dl * cache.scaled_dt[m];
            }
        }
        self.a.accumulate(&d_a);
        self.w_t.accumulate(&d_wt);

        grad_neighbor_input
    }

    /// Learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = vec![];
        out.push(&mut self.a);
        out.push(&mut self.w_t);
        out.extend(self.w_v.params_mut());
        out
    }

    /// Immutable parameter access.
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = vec![&self.a, &self.w_t];
        out.extend(self.w_v.params());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tgnn_tensor::approx_eq;

    fn setup_vanilla() -> (VanillaAttention, Matrix, Matrix, TensorRng) {
        let mut rng = TensorRng::new(10);
        let att = VanillaAttention::new("att", 6, 9, 5, 4, &mut rng);
        let q = rng.uniform_matrix(1, 6, -1.0, 1.0);
        let nbrs = rng.uniform_matrix(7, 9, -1.0, 1.0);
        (att, q, nbrs, rng)
    }

    #[test]
    fn vanilla_weights_sum_to_one_and_output_in_value_span() {
        let (att, q, nbrs, _) = setup_vanilla();
        let out = att.forward(&q, &nbrs);
        assert_eq!(out.output.len(), 4);
        assert_eq!(out.weights.len(), 7);
        assert!(approx_eq(out.weights.iter().sum::<Float>(), 1.0, 1e-5));
        assert_eq!(out.selected, (0..7).collect::<Vec<_>>());
        assert_eq!(out.logits.len(), 7);
    }

    #[test]
    fn vanilla_no_neighbors_returns_zero() {
        let (att, q, _, _) = setup_vanilla();
        let out = att.forward(&q, &Matrix::zeros(0, 9));
        assert_eq!(out.output, vec![0.0; 4]);
        assert!(out.weights.is_empty());
    }

    #[test]
    fn vanilla_matches_the_per_neighbor_order_to_rounding() {
        // The definition the aggregate-first forward reassociates: project
        // every neighbor row, score `q·k_j / √n` (biases included, so the
        // logits themselves match), and sum `w_j v_j` — with and without a
        // time tail.
        let mut rng = TensorRng::new(11);
        for tail in [None, Some(3)] {
            let mut att = VanillaAttention::new("att", 6, 9, 5, 4, &mut rng).with_time_tail(tail);
            for layer in [&mut att.w_q, &mut att.w_k, &mut att.w_v] {
                layer.bias.value = rng.uniform_matrix(1, layer.out_dim(), -0.5, 0.5);
            }
            let q_in = rng.uniform_matrix(1, 6, -1.0, 1.0);
            let nbrs = rng.uniform_matrix(7, 9, -1.0, 1.0);
            let out = att.forward(&q_in, &nbrs);
            let q = att.w_q.forward(&q_in);
            let (k, v) = (att.w_k.forward(&nbrs), att.w_v.forward(&nbrs));
            let scale = 1.0 / (7.0 as Float).sqrt();
            for (j, &logit) in out.logits.iter().enumerate() {
                let naive = dot(q.row(0), k.row(j)) * scale;
                assert!(
                    approx_eq(logit, naive, 1e-5),
                    "{tail:?} logit {j}: {logit} vs {naive}"
                );
            }
            let naive = tgnn_tensor::ops::weighted_row_sum(&v, &softmax(&out.logits));
            for (a, b) in out.output.iter().zip(&naive) {
                assert!(approx_eq(*a, *b, 1e-5), "{tail:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn vanilla_single_neighbor_gets_full_weight() {
        let (att, q, nbrs, _) = setup_vanilla();
        let single = nbrs.gather_rows(&[2]);
        let out = att.forward(&q, &single);
        assert_eq!(out.weights.len(), 1);
        assert!(approx_eq(out.weights[0], 1.0, 1e-6));
        // Output equals that neighbor's value projection.
        let v = att.w_v.forward(&single);
        for (a, b) in out.output.iter().zip(v.row(0)) {
            assert!(approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn vanilla_backward_matches_finite_differences() {
        let mut rng = TensorRng::new(20);
        let mut att = VanillaAttention::new("att", 4, 5, 3, 3, &mut rng);
        let q = rng.uniform_matrix(1, 4, -1.0, 1.0);
        let nbrs = rng.uniform_matrix(4, 5, -1.0, 1.0);

        let loss_fn = |a: &VanillaAttention, qi: &Matrix, ni: &Matrix| {
            a.forward(qi, ni).output.iter().sum::<Float>()
        };
        let (out, cache) = att.forward_cached(&q, &nbrs);
        let loss = out.output.iter().sum::<Float>();
        let (grad_q, grad_n) = att.backward(&cache, &[1.0, 1.0, 1.0]);

        check_gradients(
            &loss,
            &att.w_q.weight().grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.w_q.weight_mut().value[(i, j)] += eps;
                loss_fn(&p, &q, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &att.w_k.weight().grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.w_k.weight_mut().value[(i, j)] += eps;
                loss_fn(&p, &q, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &att.w_v.weight().grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.w_v.weight_mut().value[(i, j)] += eps;
                loss_fn(&p, &q, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &grad_q,
            |i, j, eps| {
                let mut p = q.clone();
                p[(i, j)] += eps;
                loss_fn(&att, &p, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &grad_n,
            |i, j, eps| {
                let mut p = nbrs.clone();
                p[(i, j)] += eps;
                loss_fn(&att, &q, &p)
            },
            3e-2,
        );
    }

    /// An aggregator whose logits are exactly `logits` (`W_t = 0`, `a` set).
    fn sat_with_logits(logits: &[Float]) -> SimplifiedAttention {
        let mut att =
            SimplifiedAttention::new("sat", logits.len(), 3, 2, 1.0, &mut TensorRng::new(0));
        att.w_t.value.as_mut_slice().fill(0.0);
        att.a.value.row_mut(0).copy_from_slice(logits);
        att
    }

    fn kept_of(logits: &[Float], n: usize, budget: usize) -> (Vec<u32>, Vec<Float>) {
        let mut sel = Selection::default();
        sat_with_logits(logits).select(&vec![1.0; n], budget, &mut sel);
        assert_eq!(sel.ranges, [(0, budget.min(n))]);
        assert_eq!(sel.logits.len(), n);
        (sel.kept, sel.weights)
    }

    #[test]
    fn select_scores_present_slots_only_and_ignores_features() {
        let mut rng = TensorRng::new(30);
        let att = SimplifiedAttention::new("sat", 6, 8, 4, 1.0, &mut rng);
        let mut sel = Selection::default();
        att.select(&[0.5, 1.0, 2.0], 6, &mut sel);
        assert_eq!(sel.logits.len(), 3, "absent slots get no logit");
        assert!(sel.logits.iter().all(|l| l.is_finite()));
        assert_eq!(sel.kept.len(), 3, "and are never kept");
        // A second vertex appends; the first one's entries stay put.
        let first = sel.clone();
        att.select(&[0.1], 6, &mut sel);
        assert_eq!(sel.ranges.len(), 2);
        assert_eq!(sel.kept_of(0), first.kept_of(0));
        assert_eq!(sel.weights_of(0), first.weights_of(0));
        assert_eq!(
            (sel.kept_of(1), sel.weights_of(1)),
            (&[0u32][..], &[1.0][..])
        );
    }

    #[test]
    fn select_ranks_by_value_then_index_for_every_budget() {
        let v = [0.1, 0.9, 0.5, 0.9, 0.2];
        assert_eq!(kept_of(&v, 5, 3).0, [1, 3, 2]);
        assert_eq!(kept_of(&v, 5, 5).0, [1, 3, 2, 4, 0]);
        assert_eq!(
            kept_of(&v, 5, 99).0,
            [1, 3, 2, 4, 0],
            "budget > n keeps all"
        );
        let (kept, weights) = kept_of(&v, 5, 0);
        assert!(kept.is_empty() && weights.is_empty());
        // Fewer present candidates than slots: only those are ranked.
        assert_eq!(kept_of(&v, 2, 4).0, [1, 0]);
        assert_eq!(kept_of(&v, 0, 4).0, [0u32; 0]);
        // All equal: index order, uniform weights.
        let (kept, weights) = kept_of(&[0.3; 4], 4, 3);
        assert_eq!(kept, [0, 1, 2]);
        assert!(weights.iter().all(|&w| approx_eq(w, 1.0 / 3.0, 1e-6)));
    }

    #[test]
    fn select_is_a_total_order_over_nan_and_infinities() {
        let (nan, inf) = (Float::NAN, Float::INFINITY);
        // NaN ranks last whatever its sign or position; ±∞ rank as values.
        let v = [nan, 1.0, -inf, inf, -nan, 1.0, 0.0];
        assert_eq!(kept_of(&v, 7, 7).0, [3, 1, 5, 6, 2, 0, 4]);
        assert_eq!(kept_of(&v, 7, 2).0, [3, 1]);
        assert_eq!(kept_of(&[nan; 5], 5, 3).0, [0, 1, 2]);
        // ±0 are one value: the lower index wins.
        assert_eq!(kept_of(&[-0.0, 0.0, -0.0], 3, 3).0, [0, 1, 2]);
        // Every pattern of NaNs sorts without a panic (std ≥ 1.81 panics on
        // a comparator that is not a total order) and yields a permutation.
        for mask in 0u32..64 {
            let logits: Vec<Float> = (0..6)
                .map(|j| {
                    if mask >> j & 1 == 1 {
                        nan
                    } else {
                        (j % 3) as Float
                    }
                })
                .collect();
            let mut kept = kept_of(&logits, 6, 6).0;
            let nans = mask.count_ones() as usize;
            assert!(kept[6 - nans..]
                .iter()
                .all(|&j| logits[j as usize].is_nan()));
            kept.sort_unstable();
            assert_eq!(kept, [0, 1, 2, 3, 4, 5], "mask {mask:06b}");
        }
    }

    #[test]
    fn simplified_pruning_selects_top_logits_and_weights_normalise() {
        let mut rng = TensorRng::new(31);
        let att = SimplifiedAttention::new("sat", 10, 8, 4, 1.0, &mut rng);
        let dts: Vec<Float> = (0..10).map(|i| i as Float * 0.3).collect();
        let nbrs = rng.uniform_matrix(10, 8, -1.0, 1.0);
        let out = att.forward(&dts, &nbrs, 4);
        assert_eq!(out.selected.len(), 4);
        assert!(approx_eq(out.weights.iter().sum::<Float>(), 1.0, 1e-5));
        // The selected logits are the top-4 of all logits.
        let mut sorted = out.logits.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let threshold = sorted[3];
        for &s in &out.selected {
            assert!(out.logits[s] >= threshold - 1e-6);
        }
    }

    #[test]
    fn simplified_full_budget_uses_all_neighbors() {
        let mut rng = TensorRng::new(32);
        let att = SimplifiedAttention::new("sat", 5, 6, 3, 1.0, &mut rng);
        let dts = vec![0.1, 0.2, 0.3];
        let nbrs = rng.uniform_matrix(3, 6, -1.0, 1.0);
        let out = att.forward(&dts, &nbrs, 5);
        assert_eq!(out.selected.len(), 3);
        let empty = att.forward(&[], &Matrix::zeros(0, 6), 5);
        assert_eq!(empty.output, vec![0.0; 3]);
    }

    #[test]
    fn simplified_backward_matches_finite_differences() {
        let mut rng = TensorRng::new(34);
        let mut att = SimplifiedAttention::new("sat", 4, 5, 3, 1.0, &mut rng);
        let dts = vec![0.2, 0.9, 1.7, 0.4];
        let nbrs = rng.uniform_matrix(4, 5, -1.0, 1.0);
        let budget = 3;

        let loss_fn = |a: &SimplifiedAttention, ni: &Matrix| {
            a.forward(&dts, ni, budget).output.iter().sum::<Float>()
        };
        let (out, cache) = att.forward_cached(&dts, &nbrs, budget);
        let loss = out.output.iter().sum::<Float>();
        let grad_n = att.backward(&cache, &[1.0, 1.0, 1.0]);

        check_gradients(
            &loss,
            &att.w_v.weight().grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.w_v.weight_mut().value[(i, j)] += eps;
                loss_fn(&p, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &att.a.grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.a.value[(i, j)] += eps;
                loss_fn(&p, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &att.w_t.grad,
            |i, j, eps| {
                let mut p = att.clone();
                p.w_t.value[(i, j)] += eps;
                loss_fn(&p, &nbrs)
            },
            3e-2,
        );
        check_gradients(
            &loss,
            &grad_n,
            |i, j, eps| {
                let mut p = nbrs.clone();
                p[(i, j)] += eps;
                loss_fn(&att, &p)
            },
            3e-2,
        );
    }

    #[test]
    fn vanilla_forward_ws_is_bitwise_identical() {
        let (att, q, nbrs, _) = setup_vanilla();
        let mut ws = Workspace::new();
        let reference = att.forward(&q, &nbrs);
        let out = att.forward_ws(&q, &nbrs, &mut ws);
        assert_eq!(out.output, reference.output);
        assert_eq!(out.weights, reference.weights);
        assert_eq!(out.logits, reference.logits);
        assert_eq!(out.selected, reference.selected);
        // No neighbors: zero output, no allocs panic.
        let empty = att.forward_ws(&q, &Matrix::zeros(0, 9), &mut ws);
        assert_eq!(empty.output, vec![0.0; 4]);
    }

    #[test]
    fn simplified_forward_ws_is_bitwise_identical() {
        let mut rng = TensorRng::new(36);
        let att = SimplifiedAttention::new("sat", 6, 8, 4, 2.0, &mut rng);
        let mut ws = Workspace::new();
        for n in [0usize, 2, 5, 6] {
            let dts: Vec<Float> = (0..n).map(|i| 0.4 * (i as Float + 1.0)).collect();
            let nbrs = rng.uniform_matrix(n, 8, -1.0, 1.0);
            for budget in [1usize, 3, 6] {
                let reference = att.forward(&dts, &nbrs, budget);
                let out = att.forward_ws(&dts, &nbrs, budget, &mut ws);
                assert_eq!(out.output, reference.output, "n={n} budget={budget}");
                assert_eq!(out.weights, reference.weights);
                assert_eq!(out.logits, reference.logits);
                assert_eq!(out.selected, reference.selected);
            }
        }
    }

    #[test]
    fn pruned_neighbors_receive_zero_gradient() {
        let mut rng = TensorRng::new(35);
        let mut att = SimplifiedAttention::new("sat", 4, 5, 3, 1.0, &mut rng);
        let dts = vec![0.2, 0.9, 1.7, 0.4];
        let nbrs = rng.uniform_matrix(4, 5, -1.0, 1.0);
        let (_, cache) = att.forward_cached(&dts, &nbrs, 2);
        let grad_n = att.backward(&cache, &[1.0, 1.0, 1.0]);
        let selected = cache.selected.clone();
        for j in 0..4 {
            let row_norm: Float = grad_n.row(j).iter().map(|x| x.abs()).sum();
            if selected.contains(&j) {
                assert!(
                    row_norm > 0.0,
                    "selected neighbor {j} should receive gradient"
                );
            } else {
                assert_eq!(
                    row_norm, 0.0,
                    "pruned neighbor {j} must not receive gradient"
                );
            }
        }
    }
}
