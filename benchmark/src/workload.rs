//! The four workloads: what each feeds the server, with which model and
//! which server configuration.  Everything here is a pure function of the
//! workload and `--seed`; the program under test only ever sees the
//! generated events.

use std::path::PathBuf;
use std::sync::Arc;
use tgnn_core::{
    quantize_model, BackendKind, ModelConfig, OptimizationVariant, QuantizedTgn, TenantId,
    TgnModel, TimeEncoderKind,
};
use tgnn_graph::{InteractionEvent, NodeId, TemporalGraph};
use tgnn_quant::QuantConfig;
use tgnn_serve::{DurabilityConfig, ServeConfig, TenantSpec};
use tgnn_tensor::TensorRng;

/// Which synthetic preset a workload replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feed {
    /// `tgnn_data::wikipedia_like`: 9.2 k vertices, 157 k events, |e| = 172.
    Wikipedia,
    /// `tgnn_data::gdelt_like`: 8.8 k vertices, 200 k events, |v| = 200,
    /// flatter popularity (more distinct vertices per batch).
    Gdelt,
}

/// How events arrive at `submit`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// One caller submits as fast as `Block` backpressure admits and polls
    /// after every submit; latency runs from the hand-off to `submit`.
    Closed,
    /// Events are due on a fixed schedule whatever the server does; latency
    /// runs from each event's due time.
    Paced { events_per_s: f64 },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub why: &'static str,
    pub feed: Feed,
    pub variant: OptimizationVariant,
    pub arrival: Arrival,
    /// Four weighted tenants on mixed f32/int8 backends with the WAL on,
    /// instead of the single-tenant f32 passthrough.
    pub production: bool,
}

/// Weights of the production workload's tenants (all `Block`).
pub const TENANT_WEIGHTS: [u32; 4] = [8, 4, 2, 1];
/// Backends of the production workload's tenants.
pub const TENANT_BACKENDS: [BackendKind; 4] = [
    BackendKind::F32,
    BackendKind::F32,
    BackendKind::Int8,
    BackendKind::Int8,
];
/// Seed of `tgnn_data::generate` for every run (see [`Workload::generate`]).
pub const GENERATOR_SEED: u64 = 7;
/// Offered rate of the paced workload: about 30 % of this host's capacity.
pub const PACED_RATE: f64 = 20_000.0;
/// Events of the stream's head that are served once outside the timed
/// region and replayed through `InferenceEngine` for the bit-identity check;
/// the same prefix calibrates the int8 activation ranges.
pub const IDENTITY_EVENTS: usize = 20_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wiki_np",
        why: "Wikipedia stream, co-designed +NP(M) model, closed loop: GRU and GNN cost about the same, so pipeline hops, gathers and thread contention decide throughput",
        feed: Feed::Wikipedia,
        variant: OptimizationVariant::NpMedium,
        arrival: Arrival::Closed,
        production: false,
    },
    Workload {
        name: "wiki_base",
        why: "Same stream, vanilla-attention Baseline model, closed loop: GNN compute dominates, so GEMM/attention/time-encode work shows here and pipeline-hop changes do not",
        feed: Feed::Wikipedia,
        variant: OptimizationVariant::Baseline,
        arrival: Arrival::Closed,
        production: false,
    },
    Workload {
        name: "gdelt_np_paced",
        why: "GDELT stream (node features, flatter key skew), +NP(M), open loop at 20k events/s (~30% load): the latency users see; saturation-only gains predict no change",
        feed: Feed::Gdelt,
        variant: OptimizationVariant::NpMedium,
        arrival: Arrival::Paced {
            events_per_s: PACED_RATE,
        },
        production: false,
    },
    Workload {
        name: "wiki_np_prod",
        why: "wiki_np stream through 4 weighted tenants on f32+int8 backends with the WAL on: the only workload where admission, scheduler, int8 kernels and durability do work",
        feed: Feed::Wikipedia,
        variant: OptimizationVariant::NpMedium,
        arrival: Arrival::Closed,
        production: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn tenants(&self) -> usize {
        if self.production {
            TENANT_WEIGHTS.len()
        } else {
            1
        }
    }

    /// The tenant event `index` is submitted for: round-robin, rotated by
    /// the seed.
    pub fn tenant_of(&self, index: u64, seed: u64) -> TenantId {
        let n = self.tenants() as u64;
        TenantId(((index % n + seed % n) % n) as u32)
    }

    /// Generates the workload's graph at `scale` of the preset's size.
    ///
    /// The generator's own seed is pinned: its heavy-tailed activity draw
    /// moves the number of distinct vertices per batch — the unit of GRU and
    /// GNN work — by ±25 % from one seed to the next, which would make the
    /// choice of seed, not the code, the largest effect on every metric.
    /// `--seed` varies the input through [`LappedFeed`] instead.
    pub fn generate(&self, scale: f64) -> TemporalGraph {
        let cfg = match self.feed {
            Feed::Wikipedia => tgnn_data::wikipedia_like(scale, GENERATOR_SEED),
            Feed::Gdelt => tgnn_data::gdelt_like(scale, GENERATOR_SEED),
        };
        tgnn_data::generate(&cfg)
    }

    /// The paper-dimension model for the workload's variant, weights drawn
    /// from the seed, LUT calibrated on the graph's Δt distribution.
    pub fn build_model(&self, graph: &TemporalGraph, seed: u64) -> TgnModel {
        let cfg = ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim())
            .with_variant(self.variant);
        let mut model = TgnModel::new(cfg, &mut TensorRng::new(seed));
        if model.config.time_encoder == TimeEncoderKind::Lut {
            let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
            model.calibrate_lut(&deltas);
        }
        model
    }

    /// The server configuration: `ServeConfig::default()` except for what
    /// the workload names (tenants, backends, durability) and the
    /// `metrics` switch the overhead measurement flips.
    pub fn serve_config(&self, wal_dir: Option<PathBuf>, metrics: bool) -> ServeConfig {
        let tenants = if self.production {
            TENANT_WEIGHTS
                .iter()
                .zip(TENANT_BACKENDS)
                .enumerate()
                .map(|(i, (&weight, backend))| {
                    TenantSpec::new(format!("tenant{i}"))
                        .with_weight(weight)
                        .with_backend(backend)
                })
                .collect()
        } else {
            Vec::new()
        };
        ServeConfig {
            tenants,
            durability: wal_dir.map(DurabilityConfig::new),
            metrics,
            ..ServeConfig::default()
        }
    }
}

/// Calibrates and builds the int8 weight set on the generated graph's head.  The GRU
/// stays f32 (as `serve_bench --backends` does): the router's shared memory
/// stage runs the f32 stage model, so the per-backend identity replay is
/// only bitwise when the reference engine's memory path is f32 too.
pub fn calibrate_int8(model: &TgnModel, graph: &TemporalGraph) -> Arc<QuantizedTgn> {
    let sample = &graph.events()[..IDENTITY_EVENTS.min(graph.num_events())];
    Arc::new(quantize_model(
        model,
        graph,
        &[],
        sample,
        ServeConfig::default().max_batch,
        QuantConfig {
            quantize_gru: false,
            ..QuantConfig::default()
        },
    ))
}

/// The event stream the server is fed: the generated graph's events with
/// their vertices relabelled by a permutation drawn from `--seed`, replayed
/// in laps — event `i` is event `i mod n` with its timestamp shifted by the
/// feed's span per lap, so the stream stays chronological however long a
/// run lasts.
///
/// Relabelling keeps every statistic of the stream (who interacts with
/// whom, how often, in what order) and changes what the seed should change:
/// which shard, table slot and cache line each vertex lands on.
#[derive(Clone)]
pub struct LappedFeed {
    graph: Arc<TemporalGraph>,
    relabel: Vec<NodeId>,
    span: f64,
}

impl LappedFeed {
    pub fn new(graph: Arc<TemporalGraph>, seed: u64) -> Self {
        let span = match graph.time_span() {
            Some((first, last)) => 1.0 + last - first,
            None => 1.0,
        };
        let mut relabel: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        TensorRng::new(seed).shuffle(&mut relabel);
        Self {
            graph,
            relabel,
            span,
        }
    }

    pub fn event(&self, index: u64) -> InteractionEvent {
        let n = self.graph.num_events() as u64;
        let mut e = self.graph.events()[(index % n) as usize];
        e.src = self.relabel[e.src as usize];
        e.dst = self.relabel[e.dst as usize];
        e.timestamp += (index / n) as f64 * self.span;
        e
    }
}

/// Due time of paced event `index`, in nanoseconds after the run's start: a
/// fixed-rate schedule, a pure function of the index and the rate (the seed
/// shapes the events, never their timing).
pub fn due_ns(index: u64, events_per_s: f64) -> u64 {
    (index as f64 * 1e9 / events_per_s) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lapped_feed_stays_chronological_across_laps() {
        let graph = Arc::new(WORKLOADS[0].generate(0.01));
        let n = graph.num_events() as u64;
        let feed = LappedFeed::new(graph.clone(), 3);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..3 * n {
            let e = feed.event(i);
            assert!(e.timestamp >= prev, "event {i} went back in time");
            prev = e.timestamp;
            assert_eq!(e.edge_id, graph.events()[(i % n) as usize].edge_id);
        }
        // The lap boundary itself moves strictly forward.
        assert!(feed.event(n).timestamp > feed.event(n - 1).timestamp);
    }

    #[test]
    fn the_seed_relabels_vertices_and_nothing_else() {
        let graph = Arc::new(WORKLOADS[0].generate(0.01));
        let (a, b) = (
            LappedFeed::new(graph.clone(), 3),
            LappedFeed::new(graph.clone(), 4),
        );
        let n = graph.num_events() as u64;
        let stream = |f: &LappedFeed| (0..n).map(|i| f.event(i)).collect::<Vec<_>>();
        assert_eq!(stream(&a), stream(&LappedFeed::new(graph.clone(), 3)));
        assert_ne!(stream(&a), stream(&b));
        // A bijection on the vertices: equal endpoints stay equal, distinct
        // ones stay distinct, so the interaction structure is unchanged.
        let mut seen = std::collections::HashMap::new();
        for (e, base) in stream(&a).iter().zip(graph.events()) {
            assert!((e.src as usize) < graph.num_nodes() && (e.dst as usize) < graph.num_nodes());
            for (new, old) in [(e.src, base.src), (e.dst, base.dst)] {
                assert_eq!(*seen.entry(old).or_insert(new), new);
            }
        }
        let images: std::collections::HashSet<_> = seen.values().collect();
        assert_eq!(images.len(), seen.len());
    }

    #[test]
    fn pacing_schedule_is_a_pure_function_of_index_and_rate() {
        let a: Vec<u64> = (0..1000).map(|i| due_ns(i, PACED_RATE)).collect();
        let b: Vec<u64> = (0..1000).map(|i| due_ns(i, PACED_RATE)).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a[0], 0);
        // 20 000 events are due in exactly one second.
        assert_eq!(due_ns(20_000, 20_000.0), 1_000_000_000);
        assert_eq!(due_ns(1, 40_000.0), 25_000);
    }

    #[test]
    fn tenant_assignment_is_round_robin_rotated_by_the_seed() {
        let prod = find("wiki_np_prod").unwrap();
        let ids: Vec<u32> = (0..8).map(|i| prod.tenant_of(i, 7).0).collect();
        assert_eq!(ids, [3, 0, 1, 2, 3, 0, 1, 2]);
        assert_eq!(prod.tenant_of(5, 7), prod.tenant_of(5, 7));
        let single = find("wiki_np").unwrap();
        assert!((0..8).all(|i| single.tenant_of(i, 7) == TenantId::DEFAULT));
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
