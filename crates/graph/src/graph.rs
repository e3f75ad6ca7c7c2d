//! The temporal graph: features + chronological event log + splits.

use crate::{InteractionEvent, NodeId, Timestamp};
use serde::{Deserialize, Serialize};
use tgnn_tensor::Matrix;

/// A complete temporal interaction graph.
///
/// This mirrors the external-memory layout described in Section IV-A of the
/// paper: a static node-feature table `{f_v}`, a static edge-feature table
/// `{f_e}` (one row per interaction event), and the chronological event log
/// the accelerator consumes as its input stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TemporalGraph {
    name: String,
    num_nodes: usize,
    node_features: Matrix,
    edge_features: Matrix,
    events: Vec<InteractionEvent>,
    /// Fraction of events (by chronological position) in the training split.
    train_fraction: f64,
    /// Fraction of events in the validation split (the remainder is test).
    val_fraction: f64,
}

impl TemporalGraph {
    /// Builds a temporal graph.
    ///
    /// * `node_features` must have `num_nodes` rows (0-column matrices are
    ///   allowed for datasets without node features, e.g. Wikipedia/Reddit).
    /// * `edge_features` must have one row per event (0 columns allowed,
    ///   e.g. GDELT).
    /// * `events` must be sorted by timestamp and reference valid node and
    ///   edge indices.
    ///
    /// # Panics
    /// Panics if any invariant is violated.
    pub fn new(
        name: impl Into<String>,
        num_nodes: usize,
        node_features: Matrix,
        edge_features: Matrix,
        events: Vec<InteractionEvent>,
    ) -> Self {
        assert_eq!(
            node_features.rows(),
            num_nodes,
            "TemporalGraph: node feature rows must equal num_nodes"
        );
        assert_eq!(
            edge_features.rows(),
            events.len(),
            "TemporalGraph: edge feature rows must equal number of events"
        );
        assert!(
            events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
            "TemporalGraph: events must be chronologically ordered"
        );
        for e in &events {
            assert!(
                (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes,
                "TemporalGraph: event endpoint out of range"
            );
            assert!(
                (e.edge_id as usize) < events.len(),
                "TemporalGraph: edge id out of range"
            );
        }
        Self {
            name: name.into(),
            num_nodes,
            node_features,
            edge_features,
            events,
            train_fraction: 0.70,
            val_fraction: 0.15,
        }
    }

    /// Sets the chronological train/val/test split fractions (defaults are
    /// 70/15/15 as in the TGN evaluation protocol the paper follows).
    ///
    /// # Panics
    /// Panics if the fractions are not in `(0, 1)` or sum to ≥ 1.
    pub fn with_split(mut self, train_fraction: f64, val_fraction: f64) -> Self {
        assert!(train_fraction > 0.0 && val_fraction >= 0.0);
        assert!(train_fraction + val_fraction < 1.0 + 1e-9);
        self.train_fraction = train_fraction;
        self.val_fraction = val_fraction;
        self
    }

    /// Dataset name (e.g. "wikipedia-synthetic").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of interaction events (temporal edges).
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Node feature dimensionality (`|v_i|` in Table II).
    pub fn node_feature_dim(&self) -> usize {
        self.node_features.cols()
    }

    /// Edge feature dimensionality (`|e_ij|` in Table II).
    pub fn edge_feature_dim(&self) -> usize {
        self.edge_features.cols()
    }

    /// Node feature table.
    pub fn node_features(&self) -> &Matrix {
        &self.node_features
    }

    /// Edge feature table (row `edge_id` is the feature of that event).
    pub fn edge_features(&self) -> &Matrix {
        &self.edge_features
    }

    /// Feature row of a node.
    pub fn node_feature(&self, v: NodeId) -> &[f32] {
        self.node_features.row(v as usize)
    }

    /// Feature row of an edge/event.
    pub fn edge_feature(&self, e: crate::EdgeId) -> &[f32] {
        self.edge_features.row(e as usize)
    }

    /// The full chronological event log.
    pub fn events(&self) -> &[InteractionEvent] {
        &self.events
    }

    /// Time span `(first, last)` of the trace; `None` if there are no events.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => Some((a.timestamp, b.timestamp)),
            _ => None,
        }
    }

    /// Index of the first validation event.
    pub fn train_end(&self) -> usize {
        ((self.events.len() as f64) * self.train_fraction).round() as usize
    }

    /// Index of the first test event.
    pub fn val_end(&self) -> usize {
        ((self.events.len() as f64) * (self.train_fraction + self.val_fraction)).round() as usize
    }

    /// Training split (chronological prefix).
    pub fn train_events(&self) -> &[InteractionEvent] {
        &self.events[..self.train_end()]
    }

    /// Validation split.
    pub fn val_events(&self) -> &[InteractionEvent] {
        &self.events[self.train_end()..self.val_end()]
    }

    /// Test split (chronological suffix) — the stream used for all inference
    /// performance experiments in the paper.
    pub fn test_events(&self) -> &[InteractionEvent] {
        &self.events[self.val_end()..]
    }

    /// Mean number of events per vertex — a rough interaction-frequency
    /// statistic used when calibrating synthetic datasets.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            2.0 * self.events.len() as f64 / self.num_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgnn_tensor::Matrix;

    fn tiny_graph() -> TemporalGraph {
        let events = vec![
            InteractionEvent::new(0, 1, 0, 1.0),
            InteractionEvent::new(1, 2, 1, 2.0),
            InteractionEvent::new(2, 3, 2, 3.0),
            InteractionEvent::new(0, 3, 3, 4.0),
            InteractionEvent::new(1, 3, 4, 5.0),
            InteractionEvent::new(0, 2, 5, 6.0),
            InteractionEvent::new(3, 2, 6, 7.0),
            InteractionEvent::new(0, 1, 7, 8.0),
            InteractionEvent::new(2, 1, 8, 9.0),
            InteractionEvent::new(3, 0, 9, 10.0),
        ];
        TemporalGraph::new("tiny", 4, Matrix::zeros(4, 2), Matrix::zeros(10, 3), events)
    }

    #[test]
    fn dimensions_and_counts() {
        let g = tiny_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_events(), 10);
        assert_eq!(g.node_feature_dim(), 2);
        assert_eq!(g.edge_feature_dim(), 3);
        assert_eq!(g.time_span(), Some((1.0, 10.0)));
        assert!((g.mean_degree() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn default_split_is_70_15_15() {
        let g = tiny_graph();
        assert_eq!(g.train_events().len(), 7);
        assert_eq!(g.val_events().len(), 2); // round(8.5) = 9 -> indices 7..9
        assert_eq!(g.test_events().len(), 1);
        assert_eq!(
            g.train_events().len() + g.val_events().len() + g.test_events().len(),
            g.num_events()
        );
    }

    #[test]
    fn custom_split() {
        let g = tiny_graph().with_split(0.5, 0.2);
        assert_eq!(g.train_events().len(), 5);
        assert_eq!(g.val_events().len(), 2);
        assert_eq!(g.test_events().len(), 3);
    }

    #[test]
    fn splits_are_chronological() {
        let g = tiny_graph();
        let last_train = g.train_events().last().unwrap().timestamp;
        let first_val = g.val_events().first().unwrap().timestamp;
        assert!(last_train <= first_val);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn rejects_out_of_range_node() {
        let events = vec![InteractionEvent::new(0, 9, 0, 1.0)];
        let _ = TemporalGraph::new("bad", 2, Matrix::zeros(2, 0), Matrix::zeros(1, 0), events);
    }

    #[test]
    #[should_panic(expected = "chronologically ordered")]
    fn rejects_unordered_events() {
        let events = vec![
            InteractionEvent::new(0, 1, 0, 5.0),
            InteractionEvent::new(1, 0, 1, 1.0),
        ];
        let _ = TemporalGraph::new("bad", 2, Matrix::zeros(2, 0), Matrix::zeros(2, 0), events);
    }

    #[test]
    #[should_panic(expected = "node feature rows")]
    fn rejects_feature_shape_mismatch() {
        let _ = TemporalGraph::new("bad", 3, Matrix::zeros(2, 4), Matrix::zeros(0, 0), vec![]);
    }
}
