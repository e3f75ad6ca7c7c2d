//! Streaming-pipeline throughput/latency benchmark, identity check, and
//! multi-tenant overload demonstration.
//!
//! Streams the Wikipedia-like preset through the pipelined `StreamServer`,
//! verifies the served embeddings against a reference engine replaying the
//! exact micro-batch sequence the server used, and extends
//! `BENCH_baseline.json` (written by `perf_baseline`) with a `"pipeline"`
//! row: events/sec, mean/p50/p95/p99 micro-batch latency, and per-tenant
//! admission statistics.
//!
//! Run with: `cargo run --release -p tgnn-bench --bin serve_bench -- --scale 0.02`
//! (see `--help` or `crates/bench/README.md` for every flag).
//!
//! `--exec-mode {batched,quantized}` selects the numeric path:
//!
//! * `batched` (default) — f32 serving; the served embeddings must be
//!   **bit-identical** to `ExecMode::Serial`.
//! * `quantized` — int8 serving: the model is calibrated on the warm-up
//!   split and quantized (`tgnn_core::quantized`), and the pipeline runs the
//!   packed int8 kernels.  The served embeddings must be bit-identical to
//!   `ExecMode::Quantized` replaying the same batches (the pipeline adds no
//!   numeric drift of its own), and their accuracy against the f32 serial
//!   reference (cosine / max-abs error) is measured and recorded.
//!
//! `--tenants N` (default 1) turns on the multi-tenant admission layer:
//! the measurement feed is split round-robin across `N` tenants with
//! skewed weights (`2^(N-1-i)`, so the last tenant has weight 1), each with
//! a small bounded ingress queue and the `--overload-policy`.  With
//! `--offered-load` above pipeline capacity this demonstrates the overload
//! contract: `block` backpressures and serves everything bit-identically,
//! the drop policies shed load while keeping per-tenant p99 bounded, and
//! the weighted-fair drain keeps every tenant near its weight share.
//! The per-tenant table (throughput, drop rate, late count, p99) is
//! printed and recorded in the JSON row.
//!
//! `--gnn-workers <n>` sizes the data-parallel GNN compute pool (default 1);
//! the identity check holds for every pool size and both exec modes, and
//! both are recorded in the `"pipeline"` row.  `--smoke` runs a tiny
//! fixed-seed configuration and skips the JSON merge — the CI step after
//! `perf_baseline`, failing (via the identity assertion) on any
//! pipelined-vs-engine divergence.
//!
//! `--durability <dir>` turns on the WAL + snapshot subsystem
//! (`crates/durable`): every admitted event and sealed batch is logged
//! before it is served, sharded state is snapshotted every
//! `--snapshot-every` committed epochs, and the `--fsync` policy picks the
//! durability/throughput point.  If `<dir>` already holds a WAL the run
//! *recovers* instead of starting fresh — latest usable snapshot, WAL
//! replay, sealed-but-unacked epochs re-served — and resumes the feed from
//! the durable submit index.  `--crash-at <n>` aborts the process (no
//! flush, no unwinding — the in-process stand-in for `kill -9`) right
//! before the n-th streamed seal; running the same command again without
//! the flag is the CI crash-recovery drill.  Durable runs also measure the
//! throughput overhead against a durability-off reference pass and record
//! it, with the WAL/snapshot/recovery counters, in the row's
//! `"durability"` section.
//!
//! `--scenario {uniform,powerlaw,flash-crowd,diurnal,fraud-burst}` switches
//! to the traffic-scenario harness (`tgnn_bench::scenarios`): the
//! measurement feed is resampled into the named popularity shape and driven
//! through a single-tenant server with the bounded-staleness embedding
//! cache enabled, in two phases — a polled warm phase that populates the
//! cache, then an unpolled burst that deterministically fills every queue
//! so the overload policy (default `serve-stale`) actually fires.  Every
//! stale answer is verified bit-identical to the embedding originally
//! served for its `(vertex, epoch)` and within the staleness bound; a
//! DropNewest pass over the identical feed shows `serve-stale` strictly
//! lowers the drop rate; and the `"pipeline"` row gains a `"scenario"`
//! section with the per-scenario cache hit rate and stale-age percentiles.
//!
//! Observability (`crates/serve::metrics`, on by default): after the drain
//! the bench prints the Table-I-shaped per-stage busy breakdown from the
//! span instrumentation, and the row gains a `"metrics"` section.
//! `--metrics-out <path>` samples the live `MetricsSnapshot` to a JSONL
//! file every `--metrics-interval-ms` (default 250) during the run;
//! `--metrics-overhead` measures metrics-on vs metrics-off throughput
//! (best of two ~20k-event windows each, budget 2%); `--no-metrics` turns
//! the whole subsystem off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_bench::scenarios::{self, Scenario};
use tgnn_bench::{
    build_model, harness_model_config, merge_baseline_row, Dataset, FlagHelp, HarnessArgs,
};
use tgnn_core::profiling::Stage;
use tgnn_core::quantized::quantize_model;
use tgnn_core::{
    ExecMode, InferenceEngine, OptimizationVariant, OverloadPolicy, TenantId, TgnModel,
};
use tgnn_graph::{EventBatch, InteractionEvent, TemporalGraph};
use tgnn_quant::QuantConfig;
use tgnn_serve::{
    wal_fault_hook, BackendKind, BurnState, CacheConfig, CriticalPath, Disposition,
    DurabilityConfig, FsyncPolicy, MetricsSnapshot, RecoveryReport, SegmentId, ServeConfig,
    ServeReport, ServedBatch, SloConfig, StreamServer, SubmitOutcome, TenantSpec, TraceView,
};
use tgnn_tensor::stats::{cosine_agreement, max_abs_diff};
use tgnn_tensor::Float;

const MAX_BATCH: usize = 200;
const NUM_SHARDS: usize = 4;

/// Embedding-accuracy floor of the quantized serve path vs the f32 serial
/// reference (worst pair over the whole stream).
const QUANT_COSINE_FLOOR: f32 = 0.999;

/// Binary-specific flags, enumerated for `--help` (keep in sync with the
/// parsing below — `usage_text_enumerates_shared_and_extra_flags` guards
/// the shared half).
const SERVE_FLAGS: &[FlagHelp] = &[
    (
        "--exec-mode",
        "<batched|quantized>",
        "numeric path: f32 (default) or calibrated int8",
    ),
    (
        "--gnn-workers",
        "<n>",
        "data-parallel GNN compute workers (default 1)",
    ),
    (
        "--tenants",
        "<n>",
        "tenants sharing the server, round-robin feed, skewed weights (default 1)",
    ),
    (
        "--overload-policy",
        "<p>",
        "block|drop-newest|drop-oldest|late|serve-stale at the ingress bound (default block; serve-stale with --scenario)",
    ),
    (
        "--backends",
        "<k1,k2,..>",
        "per-tenant compute backends (f32|int8|hwsim), one per tenant in order — heterogeneous routing with a per-backend identity check; conflicts with --exec-mode",
    ),
    (
        "--scenario",
        "<shape>",
        "traffic-scenario harness: uniform|powerlaw|flash-crowd|diurnal|fraud-burst (single tenant, cache on, warm+burst phases)",
    ),
    (
        "--offered-load",
        "<eps>",
        "pace submission at this many events/sec (default 0 = unpaced)",
    ),
    (
        "--ingress-capacity",
        "<n>",
        "per-tenant ingress queue bound when --tenants > 1 (default 256)",
    ),
    (
        "--deadline-ms",
        "<ms>",
        "per-event deadline for the late policy (default 50)",
    ),
    (
        "--durability",
        "<dir>",
        "enable the WAL + snapshot subsystem rooted at <dir>; if <dir> already holds a WAL the run recovers and resumes it",
    ),
    (
        "--snapshot-every",
        "<n>",
        "snapshot interval in committed epochs with --durability (default 256)",
    ),
    (
        "--fsync",
        "<always|onseal|never>",
        "WAL fsync policy with --durability (default onseal)",
    ),
    (
        "--crash-at",
        "<n>",
        "abort the process before the n-th streamed batch seal (crash-recovery drill; requires --durability)",
    ),
    (
        "--no-metrics",
        "",
        "disable pipeline metrics/span recording (the off side of the overhead comparison)",
    ),
    (
        "--metrics-out",
        "<path>",
        "append periodic MetricsSnapshot JSONL samples to <path> during the run",
    ),
    (
        "--metrics-interval-ms",
        "<ms>",
        "sampling interval for --metrics-out (default 250)",
    ),
    (
        "--metrics-overhead",
        "",
        "measure metrics-on vs metrics-off throughput and print the overhead",
    ),
    (
        "--trace-out",
        "<path>",
        "write the post-drain causal-trace dump as JSONL to <path>, print the critical-path blame table, and assert segment-sum conservation",
    ),
    (
        "--out",
        "<path>",
        "baseline JSON to merge the pipeline row into (default BENCH_baseline.json)",
    ),
    (
        "--smoke",
        "",
        "tiny fixed configuration, no JSON merge (CI identity check)",
    ),
];

fn main() {
    let mut args = HarnessArgs::parse_or_help(
        "serve_bench",
        "Streaming-pipeline benchmark: throughput/latency, pipelined-vs-engine identity, \
         and multi-tenant overload behaviour.",
        SERVE_FLAGS,
    );
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    if smoke {
        args.scale = 0.005;
    }
    let flag_value = |name: &'static str| {
        argv.iter()
            .position(|a| a == name)
            .map(|i| argv.get(i + 1).cloned())
    };
    let out_path = flag_value("--out")
        .flatten()
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    // Unlike the HarnessArgs flags, a missing or malformed value here is a
    // hard error: CI's identity checks must not silently degrade to the
    // default configuration.
    let parse_usize = |name: &'static str, default: usize| -> usize {
        match flag_value(name) {
            None => default,
            Some(v) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name}: expected a non-negative integer, got {v:?}")),
        }
    };
    let parse_f64 = |name: &'static str, default: f64| -> f64 {
        match flag_value(name) {
            None => default,
            Some(v) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                .unwrap_or_else(|| panic!("{name}: expected a non-negative number, got {v:?}")),
        }
    };
    let gnn_workers = parse_usize("--gnn-workers", 1);
    let num_tenants = parse_usize("--tenants", 1);
    let offered_load = parse_f64("--offered-load", 0.0);
    let ingress_capacity = parse_usize("--ingress-capacity", 256);
    let deadline_ms = parse_f64("--deadline-ms", 50.0);
    let policy: OverloadPolicy = match flag_value("--overload-policy") {
        None => OverloadPolicy::Block,
        Some(v) => v
            .as_deref()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                panic!("--overload-policy: expected block|drop-newest|drop-oldest|late|serve-stale")
            }),
    };
    let scenario: Option<Scenario> = flag_value("--scenario").map(|v| {
        v.as_deref().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            panic!("--scenario: expected uniform|powerlaw|flash-crowd|diurnal|fraud-burst, got {v:?}")
        })
    });
    let quantized: bool = match flag_value("--exec-mode") {
        None => false,
        Some(v) => match v.as_deref() {
            Some("batched") => false,
            Some("quantized") => true,
            other => panic!("--exec-mode: expected batched|quantized, got {other:?}"),
        },
    };
    let backends: Option<Vec<BackendKind>> = flag_value("--backends").map(|v| {
        let v = v.unwrap_or_else(|| {
            panic!("--backends: expected a comma-separated list of f32|int8|hwsim")
        });
        v.split(',')
            .map(|k| {
                k.trim().parse().unwrap_or_else(|_| {
                    panic!("--backends: expected f32|int8|hwsim per tenant, got {k:?}")
                })
            })
            .collect()
    });
    let durability_dir = flag_value("--durability").flatten();
    let snapshot_every = parse_usize("--snapshot-every", 256) as u64;
    let fsync: FsyncPolicy = match flag_value("--fsync") {
        None => FsyncPolicy::OnSeal,
        Some(v) => v
            .as_deref()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("--fsync: expected always|onseal|never, got {v:?}")),
    };
    let crash_at: Option<u64> = flag_value("--crash-at").map(|v| {
        v.as_deref()
            .and_then(|v| v.parse().ok())
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| panic!("--crash-at: expected a positive seal number, got {v:?}"))
    });
    let no_metrics = flag_value("--no-metrics").is_some();
    let metrics_overhead_wanted = flag_value("--metrics-overhead").is_some();
    let metrics_out = flag_value("--metrics-out").flatten();
    let metrics_interval_ms = parse_f64("--metrics-interval-ms", 250.0);
    let trace_out = flag_value("--trace-out").flatten();
    assert!(
        metrics_out.is_some() || flag_value("--metrics-interval-ms").is_none(),
        "--metrics-interval-ms requires --metrics-out <path>"
    );
    if no_metrics {
        assert!(
            metrics_out.is_none() && !metrics_overhead_wanted && trace_out.is_none(),
            "--no-metrics conflicts with --metrics-out / --metrics-overhead / --trace-out"
        );
    }
    assert!(num_tenants >= 1, "--tenants: need at least one tenant");
    if let Some(kinds) = &backends {
        assert_eq!(
            kinds.len(),
            num_tenants,
            "--backends: need exactly one backend per tenant (got {} for --tenants {num_tenants})",
            kinds.len()
        );
        assert!(
            flag_value("--exec-mode").is_none(),
            "--backends selects the numeric path per tenant; drop --exec-mode"
        );
        assert!(
            scenario.is_none(),
            "--backends conflicts with --scenario (the scenario harness studies the f32 cache path)"
        );
        assert!(
            durability_dir.is_none(),
            "--backends conflicts with --durability (the bench's feed-resumption replay is single-backend)"
        );
    }
    if durability_dir.is_none() {
        for flag in ["--snapshot-every", "--fsync", "--crash-at"] {
            assert!(
                flag_value(flag).is_none(),
                "{flag} requires --durability <dir>"
            );
        }
    }
    // Crash/recovery drills resume the measurement feed from the durable
    // submit-outcome index, which only maps back onto the feed for the
    // simple single-tenant unpaced run.
    let recover_mode = durability_dir
        .as_deref()
        .is_some_and(|d| wal_present(std::path::Path::new(d)));
    if crash_at.is_some() || recover_mode {
        assert_eq!(
            num_tenants, 1,
            "--crash-at / recovery need a single tenant (feed resumption)"
        );
        assert_eq!(
            offered_load, 0.0,
            "--crash-at / recovery need an unpaced feed"
        );
    }
    // The tenancy flags configure the multi-tenant admission layer; with
    // the default single tenant they would be silently ignored, and a
    // baseline row recording a policy the run never used is worse than an
    // error.  The scenario harness is the exception: it runs one explicit
    // tenant whose overload policy is the object of study.
    if num_tenants == 1 && scenario.is_none() {
        for flag in ["--overload-policy", "--ingress-capacity", "--deadline-ms"] {
            assert!(
                flag_value(flag).is_none(),
                "{flag} requires --tenants > 1 or --scenario (a plain single-tenant run always uses the Block policy)"
            );
        }
    }
    // Scenario mode drives its own single-tenant warm/burst submission
    // schedule; the burst phase never polls, so admit-always policies
    // (block / late) would deadlock against a full results queue, and the
    // feed-resumption / pacing / quantized machinery doesn't apply.
    let policy = if scenario.is_some() && flag_value("--overload-policy").is_none() {
        OverloadPolicy::ServeStale
    } else {
        policy
    };
    if scenario.is_some() {
        assert_eq!(num_tenants, 1, "--scenario runs a single explicit tenant");
        assert!(
            !matches!(policy, OverloadPolicy::Block | OverloadPolicy::Late),
            "--scenario needs a shedding policy (serve-stale, drop-newest, or drop-oldest): \
             the unpolled burst phase would deadlock an admit-always policy"
        );
        assert!(!quantized, "--scenario measures the f32 cache path");
        for flag in [
            "--durability",
            "--crash-at",
            "--offered-load",
            "--metrics-out",
            "--metrics-overhead",
            "--trace-out",
        ] {
            assert!(
                flag_value(flag).is_none(),
                "{flag} conflicts with --scenario"
            );
        }
    }

    // Smoke keeps the tiny feed but shrinks the micro-batch so the run still
    // spans several epochs — the crash-recovery drill in CI needs durable
    // seals *before* the crash point.
    let max_batch = if smoke { 40 } else { MAX_BATCH };

    let graph = Arc::new(Dataset::Wikipedia.graph(args.scale, args.seed));
    let variant = OptimizationVariant::NpMedium;
    let cfg = harness_model_config(&graph, variant);
    let mut model = build_model(&graph, &cfg, args.seed);
    // Warm the vertex state on the train split, then measure on the events
    // after it — the served stream must stay chronological past the warm-up.
    let warm_events = graph.train_events().to_vec();
    let measure_events = graph.events()[graph.train_end()..].to_vec();
    let exec_mode = if backends.is_some() {
        "heterogeneous"
    } else if quantized {
        "quantized"
    } else {
        "batched"
    };
    println!(
        "dataset: Wikipedia-like @ scale {} — {} nodes, {} events, variant {}, {} shards, {} gnn worker(s), exec-mode {}{}",
        args.scale,
        graph.num_nodes(),
        measure_events.len(),
        variant.label(),
        NUM_SHARDS,
        gnn_workers,
        exec_mode,
        if smoke { " (smoke)" } else { "" }
    );
    if num_tenants > 1 {
        println!(
            "admission: {num_tenants} tenants (weights 2^(N-1-i)), policy {}, ingress bound {ingress_capacity}, offered load {}",
            policy.label(),
            if offered_load > 0.0 {
                format!("{offered_load:.0} eps")
            } else {
                "unpaced".to_string()
            }
        );
    }
    if let Some(kinds) = &backends {
        println!(
            "backends: per-tenant heterogeneous routing [{}]",
            kinds
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if let Some(shape) = scenario {
        run_scenario(ScenarioRun {
            shape,
            model,
            graph,
            warm_events: &warm_events,
            measure_events: &measure_events,
            policy,
            ingress_capacity,
            deadline_ms,
            max_batch,
            gnn_workers,
            seed: args.seed,
            smoke,
            no_metrics,
            out_path: &out_path,
        });
        return;
    }

    // Quantized mode: calibrate on the warm-up split (replayed from cold
    // state by the calibration engine) and attach the int8 weight set —
    // the pipeline itself runs unchanged.  A heterogeneous run with an int8
    // tenant also attaches one, but keeps the GRU in f32: the router's
    // shared memory stage runs on the detached f32 stage model, so the
    // per-backend identity replay is only bitwise when the reference
    // engine's memory path is f32 too.
    let needs_int8 = backends
        .as_ref()
        .is_some_and(|ks| ks.contains(&BackendKind::Int8));
    let quant = (quantized || needs_int8).then(|| {
        let quant_config = if needs_int8 {
            QuantConfig {
                quantize_gru: false,
                ..QuantConfig::default()
            }
        } else {
            QuantConfig::default()
        };
        let q = Arc::new(quantize_model(
            &model,
            &graph,
            &[],
            &warm_events,
            max_batch,
            quant_config,
        ));
        model.attach_quantized(q.clone());
        q
    });

    // --- Pipelined serving run.
    let tenants: Vec<TenantSpec> = (0..num_tenants)
        .map(|i| {
            let spec = TenantSpec::new(format!("tenant{i}"))
                .with_weight(1 << (num_tenants - 1 - i).min(16))
                .with_capacity(ingress_capacity)
                .with_policy(policy)
                .with_deadline(Duration::from_secs_f64(deadline_ms / 1e3));
            match &backends {
                Some(kinds) => spec.with_backend(kinds[i]),
                None => spec,
            }
        })
        .collect();
    // A paced multi-tenant run needs *sustained* pressure to demonstrate
    // fairness: replay the measurement feed for enough laps (timestamps
    // shifted by the feed's span each lap) to offer about one second of
    // load, so the fair drain arbitrates across many rounds instead of one
    // burst-then-drain.
    let laps: usize = if num_tenants > 1 && offered_load > 0.0 {
        ((offered_load / measure_events.len() as f64).ceil() as usize).clamp(1, 50)
    } else if durability_dir.is_some()
        && !smoke
        && !recover_mode
        && crash_at.is_none()
        && num_tenants == 1
        && offered_load == 0.0
    {
        // The durability-overhead comparison divides two wall-clock windows;
        // at bench scale a single pass over the feed is ~10 ms, where
        // scheduler jitter alone swamps a 15% budget.  Replay to ~20k
        // events (the reference pass mirrors the laps) so the window
        // measures the pipeline, not the host.
        (20_000 / measure_events.len().max(1)).clamp(1, 50)
    } else {
        1
    };
    // The WAL + snapshot subsystem.  A crash drill counts *streamed* seals
    // (warm-up epochs never reach the batcher) and aborts the process before
    // the n-th one hits the log — the closest in-process stand-in for
    // `kill -9`: no flush, no Drop, buffered WAL bytes genuinely lost.
    let durability = durability_dir.as_ref().map(|dir| {
        let mut c = DurabilityConfig::new(dir)
            .with_snapshot_every(snapshot_every)
            .with_fsync(fsync);
        if let Some(at) = crash_at {
            let seals = AtomicU64::new(0);
            c = c.with_wal_fault(wal_fault_hook(move |_epoch| {
                if seals.fetch_add(1, Ordering::SeqCst) + 1 == at {
                    eprintln!("crash drill: aborting before streamed seal #{at}");
                    std::process::abort();
                }
                false
            }));
        }
        c
    });
    let serve_config = ServeConfig {
        max_batch,
        // Size-only sealing keeps the micro-batch boundaries deterministic
        // for the identity replay below.
        batch_deadline: Duration::from_secs(3600),
        num_shards: NUM_SHARDS,
        gnn_workers,
        durability,
        // A crash drill must not poll (delivered results would be acked and
        // skipped on recovery, leaving the identity replay without their
        // state transitions), so the results queue has to hold the whole
        // feed's batches.
        results_capacity: if crash_at.is_some() {
            (laps * measure_events.len() / max_batch + 8).max(256)
        } else {
            ServeConfig::default().results_capacity
        },
        tenants: if num_tenants > 1 || backends.is_some() {
            tenants
        } else {
            Vec::new()
        },
        metrics: !no_metrics,
        // Declared objectives (status only — the pre-emptive ServeStale hook
        // stays off outside the scenario harness) so the run records burn
        // rates alongside its latency percentiles.
        slo: (!no_metrics).then(SloConfig::default),
        ..ServeConfig::default()
    };
    if laps > 1 {
        println!(
            "{}: replaying the {}-event feed for {laps} laps{}",
            if num_tenants > 1 {
                "admission"
            } else {
                "durability"
            },
            measure_events.len(),
            if num_tenants > 1 {
                " of offered load"
            } else {
                " (overhead measurement window)"
            }
        );
    }
    let span = match (measure_events.first(), measure_events.last()) {
        (Some(a), Some(b)) => 1.0 + b.timestamp - a.timestamp,
        _ => 1.0,
    };
    let mut served: Vec<ServedBatch> = Vec::new();
    let (mut server, recovery): (StreamServer, Option<RecoveryReport>) = if recover_mode {
        let dir = durability_dir.as_deref().unwrap();
        let (server, rep) = StreamServer::recover(model.clone(), graph.clone(), serve_config)
            .unwrap_or_else(|e| panic!("recovery from {dir} failed: {e}"));
        println!(
            "recovery: snapshot epoch {}, {} sealed epoch(s) in the WAL, {} replayed ({} events), {} re-served, {} readmitted, torn tail {}, {:.2} ms",
            rep.snapshot_epoch,
            rep.sealed_epochs,
            rep.replayed_epochs,
            rep.replayed_events,
            rep.re_served_epochs,
            rep.readmitted_events,
            if rep.torn_tail_repaired { "repaired" } else { "clean" },
            rep.recovery_ms
        );
        (server, Some(rep))
    } else {
        let mut server = StreamServer::new(model.clone(), graph.clone(), serve_config);
        server.warm_up(&warm_events);
        (server, None)
    };
    // Periodic JSONL sampling: a background thread appends one
    // MetricsSnapshot line per interval while the feed runs; stopping the
    // logger after the drain lands a final post-drain line.
    let metrics_logger = metrics_out.as_ref().map(|path| {
        server
            .metrics_hub()
            .spawn_jsonl_sampler(
                std::path::Path::new(path),
                Duration::from_secs_f64(metrics_interval_ms / 1e3),
            )
            .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"))
    });
    // The durable submit-outcome index: the crashed run consumed the feed up
    // to here, so this life resumes from it (the warm-up state and every
    // durable epoch were restored above).
    let resume = recovery.as_ref().map_or(0, |r| r.resume_from[0] as usize);
    assert!(
        resume <= measure_events.len(),
        "durable resume index {resume} exceeds the measurement feed — was the \
         directory produced by a different configuration?"
    );
    if recover_mode {
        // Sealed-but-unacked epochs come back first.
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    // Events the recovery hands back through `served`: with a zero ack
    // watermark (the crash drill — it never polls) *every* durable event
    // returns, as re-served sealed epochs or the readmitted ingress tail;
    // after a clean drain nothing does (all state, all delivered).  A
    // partially-delivered source run would need the acked epochs' event
    // count, which the report deliberately doesn't carry — the bench
    // refuses rather than fudge its accounting.
    let recovered_events: u64 = match recovery.as_ref() {
        None => 0,
        Some(r) if r.acked == 0 => r.resume_from[0],
        Some(r) if r.re_served_epochs == 0 && r.readmitted_events == 0 => 0,
        Some(r) => panic!(
            "recovery source was partially delivered (acked epoch {}, {} re-served, {} \
             readmitted) — the bench only drills crash (never-acked) and clean-drain \
             directories",
            r.acked, r.re_served_epochs, r.readmitted_events
        ),
    };
    let mut submitted = 0u64;
    let mut dropped_at_submit = 0u64;
    let mut stale_at_submit = 0u64;
    let pace_start = Instant::now();
    for lap in 0..laps {
        let skip = if lap == 0 { resume } else { 0 };
        for (i, &e) in measure_events.iter().enumerate().skip(skip) {
            if offered_load > 0.0 {
                // Pace the offered load: event k is due at k / offered_load.
                let due = pace_start + Duration::from_secs_f64(submitted as f64 / offered_load);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            let mut e = e;
            e.timestamp += lap as f64 * span;
            let tenant = TenantId(i as u32 % num_tenants as u32);
            let outcome = server.submit_for(tenant, e).expect("chronological stream");
            submitted += 1;
            match outcome {
                SubmitOutcome::Admitted => {}
                SubmitOutcome::Dropped => dropped_at_submit += 1,
                // Answered from the embedding cache: not in the pipeline,
                // but a stale result is already queued — served, not lost.
                SubmitOutcome::ServedStale => stale_at_submit += 1,
            }
            // See `results_capacity` above: a crash drill leaves everything
            // unacked so recovery re-serves the full stream.
            if crash_at.is_none() {
                while let Some(b) = server.poll() {
                    served.push(b);
                }
            }
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    if let Some(logger) = metrics_logger {
        logger.stop();
        println!(
            "metrics: JSONL samples appended to {} every {metrics_interval_ms:.0} ms",
            metrics_out.as_deref().unwrap()
        );
    }
    println!(
        "pipeline: {:>10.0} edges/sec over {} micro-batches — latency mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        report.throughput_eps,
        report.num_batches,
        report.latency.mean_ms,
        report.latency.p50_ms,
        report.latency.p95_ms,
        report.latency.p99_ms
    );
    // One greppable line per active backend (CI's heterogeneous smoke gate
    // parses the served counts; the modeled tail appears for hwsim only).
    for b in &report.backends {
        println!(
            "backend {}: served {} batches / {} events{}",
            b.kind,
            b.served_batches,
            b.served_events,
            b.modeled_latency.as_ref().map_or(String::new(), |m| {
                format!(
                    " — modeled latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
                    m.p50_ms, m.p99_ms, m.max_ms
                )
            })
        );
    }
    if let Some(kinds) = &backends {
        for kind in kinds {
            let row = report.backends.iter().find(|b| b.kind == *kind);
            assert!(
                row.is_some_and(|b| b.served_events > 0),
                "declared backend {kind} never served an event"
            );
        }
    }
    // The Table-I-shaped breakdown: worker busy time per logical stage, as
    // accumulated by the span instrumentation (GNN is summed across pool
    // workers, so the fractions describe work, not wall-clock).
    if !no_metrics && !report.stage_timings.total().is_zero() {
        let t = &report.stage_timings;
        let cells: Vec<String> = Stage::all()
            .iter()
            .map(|&s| {
                format!(
                    "{} {:.1} ms ({:.0}%)",
                    s.label(),
                    t.get(s).as_secs_f64() * 1e3,
                    t.fraction(s) * 100.0
                )
            })
            .collect();
        println!("stages: {}", cells.join(", "));
    }
    // The post-drain snapshot: SLO burn-rate verdicts and causal-trace
    // counters, plus the optional --trace-out dump.
    let snapshot = (!no_metrics).then(|| server.metrics());
    if let Some(m) = &snapshot {
        for s in &m.slo {
            println!(
                "slo: {} budget {:.3} burn fast {} / slow {} — {}",
                s.name,
                s.error_budget,
                s.fast_burn
                    .map_or("n/a".to_string(), |b| format!("{b:.2}x")),
                s.slow_burn
                    .map_or("n/a".to_string(), |b| format!("{b:.2}x")),
                burn_state_label(s.state),
            );
        }
    }
    if let Some(path) = &trace_out {
        let m = snapshot
            .as_ref()
            .expect("--no-metrics conflict is asserted");
        let traces = server.metrics_hub().trace_dump();
        report_traces(path, &traces, m, report.num_batches as u64);
    }
    if let Some(d) = &report.durability {
        println!(
            "durability: {} WAL records / {} bytes / {} fsync(s) / {} rotation(s), {} snapshot(s) ({:.1} ms total, last epoch {}), fsync {}, acked epoch {}",
            d.wal_records,
            d.wal_bytes,
            d.wal_fsyncs,
            d.wal_rotations,
            d.snapshots,
            d.snapshot_ms_total,
            d.last_snapshot_epoch,
            fsync.label(),
            d.acked_epoch
        );
    }
    if let Some(c) = &report.cache {
        println!(
            "cache: hits {} / misses {} (hit rate {:.1}%), {} stale serve(s), stale age p50/p95/max {}/{}/{} (bound {} epochs), {} entr(ies), {} evicted, {} expired",
            c.stats.hits,
            c.stats.misses,
            c.hit_rate * 100.0,
            c.stats.served_stale,
            c.stale_age.p50,
            c.stale_age.p95,
            c.stale_age.max,
            c.staleness_bound_epochs,
            c.stats.entries,
            c.stats.evictions,
            c.stats.expired,
        );
    }
    if num_tenants > 1 {
        print_tenant_table(&report);
        check_overload_contract(
            &report,
            policy,
            submitted,
            dropped_at_submit,
            stale_at_submit,
            offered_load > 0.0,
        );
        // Cross-tenant scheduling reorders the merged stream, so the
        // shared-state chronology metric is reported, not asserted — it is
        // clean exactly when tenants touch disjoint vertex sets.
        println!(
            "chronology: commit log {} ({} commits)",
            if report.commit_log_clean {
                "clean"
            } else {
                "cross-tenant reordering observed"
            },
            report.commits
        );
    } else {
        assert!(report.commit_log_clean, "pipeline violated chronology");
    }

    let checked_events: usize = served.iter().map(|b| b.events.len()).sum();
    let total_dropped: u64 = report.tenants.iter().map(|t| t.dropped()).sum();
    assert_eq!(
        checked_events as u64 + total_dropped,
        recovered_events + submitted,
        "events lost in flight (served {checked_events} + dropped {total_dropped}, \
         recovered {recovered_events})"
    );
    // --- Identity check: the engine running the same numeric path must
    // reproduce the served embeddings bitwise over the served batch
    // sequence (batched → Serial f32; quantized → ExecMode::Quantized).
    // With drop policies the engine replays exactly the *served* events —
    // what was dropped at admission never entered the semantics.  The
    // replay only reconstructs the reference when every post-warm-up state
    // transition is in `served`: a recovery whose source run delivered (and
    // acked) epochs carries their effect in the restored state alone, so
    // the engine cannot follow (the crash drill never acks, so it always
    // replays).
    let replay_complete = recovered_events == resume as u64;
    if replay_complete && backends.is_some() {
        // Heterogeneous identity: each served batch must be bit-identical
        // to the standalone engine of *its* backend replaying the server's
        // exact batch sequence.  Both reference engines replay every batch
        // — their memory paths are the same f32 kernels (the int8 weight
        // set leaves the GRU unquantized), so the shared state trajectory
        // stays in lockstep — and the comparison selects per batch which
        // engine is authoritative (hwsim computes with the f32 kernels and
        // only models latency, so it verifies against the f32 engine).
        let mut f32_model = model.clone();
        f32_model.detach_quantized();
        let mut f32_engine =
            InferenceEngine::new(f32_model, graph.num_nodes()).with_mode(ExecMode::Batched);
        f32_engine.warm_up(&warm_events, &graph);
        let mut int8_engine = quant.as_ref().map(|_| {
            let mut e = InferenceEngine::new(model.clone(), graph.num_nodes())
                .with_mode(ExecMode::Quantized);
            e.warm_up(&warm_events, &graph);
            e
        });
        let mut compared = 0usize;
        for batch in served.iter().filter(|b| b.epoch > 0) {
            let events = EventBatch::new(batch.events.clone());
            let f32_out = f32_engine.process_batch(&events, &graph);
            let int8_out = int8_engine
                .as_mut()
                .map(|e| e.process_batch(&events, &graph));
            let reference = if batch.backend == BackendKind::Int8 {
                int8_out
                    .expect("an int8-routed batch requires an int8 tenant")
                    .embeddings
            } else {
                f32_out.embeddings
            };
            assert_eq!(
                reference, batch.embeddings,
                "pipeline embeddings diverged bitwise from the {} engine in epoch {}",
                batch.backend, batch.epoch
            );
            assert_eq!(
                batch.modeled_latency.is_some(),
                batch.backend == BackendKind::HwSim,
                "modeled latency must appear exactly on hwsim batches (epoch {})",
                batch.epoch
            );
            compared += 1;
        }
        println!(
            "identity: {} micro-batches bit-identical to their per-backend engines \
             (f32→ExecMode::Batched, int8→ExecMode::Quantized, hwsim→f32 kernels + modeled latency)",
            compared
        );
    } else if replay_complete {
        let mut engine = match &quant {
            None => {
                InferenceEngine::new(model.clone(), graph.num_nodes()).with_mode(ExecMode::Serial)
            }
            Some(q) => {
                let mut f32_model = model.clone();
                f32_model.detach_quantized();
                InferenceEngine::new(f32_model, graph.num_nodes()).with_quantized(q.clone())
            }
        };
        engine.warm_up(&warm_events, &graph);
        // Epoch 0 marks a cache-served stale answer: it never entered the
        // pipeline, so the engine replay skips it (its bit-identity against
        // the originally served embedding is the cache's own contract,
        // asserted in the scenario harness and `serve/tests/cache.rs`).
        let pipeline_batches = served.iter().filter(|b| b.epoch > 0);
        for batch in pipeline_batches.clone() {
            let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), &graph);
            assert_eq!(
                reference.embeddings, batch.embeddings,
                "pipeline embeddings diverged bitwise from the {exec_mode} engine in epoch {}",
                batch.epoch
            );
        }
        println!(
            "identity: {} embeddings across {} micro-batches bit-identical to the {} engine{}",
            report.num_embeddings,
            pipeline_batches.count(),
            if quantized {
                "ExecMode::Quantized"
            } else {
                "ExecMode::Serial"
            },
            if total_dropped > 0 {
                format!(" ({total_dropped} events shed at admission, accounted)")
            } else {
                String::new()
            }
        );
    } else {
        println!(
            "identity: skipped — {} recovered event(s) were already delivered before the \
             crash and live only in the restored state",
            resume as u64 - recovered_events
        );
    }

    // --- Quantized accuracy: served int8 embeddings vs the f32 serial
    // reference over the same micro-batch sequence.
    let accuracy = (quantized && replay_complete).then(|| {
        let mut f32_model = model.clone();
        f32_model.detach_quantized();
        let mut serial =
            InferenceEngine::new(f32_model, graph.num_nodes()).with_mode(ExecMode::Serial);
        serial.warm_up(&warm_events, &graph);
        let mut worst_cos: f32 = 1.0;
        let mut cos_sum = 0.0f64;
        let mut count = 0usize;
        let mut max_err: f32 = 0.0;
        for batch in served.iter().filter(|b| b.epoch > 0) {
            let reference = serial.process_batch(&EventBatch::new(batch.events.clone()), &graph);
            for ((v_a, e_a), (v_b, e_b)) in reference.embeddings.iter().zip(&batch.embeddings) {
                assert_eq!(v_a, v_b, "vertex order diverged in accuracy replay");
                let cos = cosine_agreement(e_a, e_b);
                worst_cos = worst_cos.min(cos);
                cos_sum += cos as f64;
                count += 1;
                max_err = max_err.max(max_abs_diff(e_a, e_b));
            }
        }
        let mean_cos = cos_sum / count.max(1) as f64;
        println!(
            "accuracy: embedding cosine vs f32 serial — min {worst_cos:.6}, mean {mean_cos:.6}, max abs err {max_err:.5}"
        );
        assert!(
            worst_cos >= QUANT_COSINE_FLOOR,
            "quantized serve accuracy below the floor: cosine {worst_cos} < {QUANT_COSINE_FLOOR}"
        );
        (worst_cos, mean_cos, max_err)
    });

    // --- Durability overhead: replay the identical single-tenant feed with
    // durability off and compare throughput (the subsystem's budget at the
    // default fsync policy is < 15%, recorded in the baseline row).  Both
    // sides take the best of two windows — throughput noise on a shared
    // host is one-sided (interference only ever slows a pass down), so
    // best-of-K with the same K on each side is the fair low-variance
    // estimator; single windows at this scale swing by ±15% on their own.
    let overhead_pct = (report.durability.is_some()
        && !recover_mode
        && crash_at.is_none()
        && num_tenants == 1
        && offered_load == 0.0)
        .then(|| {
            let run_pass = |durability: Option<DurabilityConfig>| -> f64 {
                let mut s = StreamServer::new(
                    model.clone(),
                    graph.clone(),
                    ServeConfig {
                        max_batch,
                        batch_deadline: Duration::from_secs(3600),
                        num_shards: NUM_SHARDS,
                        gnn_workers,
                        durability,
                        ..ServeConfig::default()
                    },
                );
                s.warm_up(&warm_events);
                for lap in 0..laps {
                    for &e in &measure_events {
                        let mut e = e;
                        e.timestamp += lap as f64 * span;
                        s.submit(e).expect("chronological stream");
                        while s.poll().is_some() {}
                    }
                }
                let r = s.drain();
                while s.poll().is_some() {}
                r.throughput_eps
            };
            // The durable probe writes under the real directory but in its
            // own subtree, invisible to WAL/snapshot discovery; removed
            // after so the main directory stays exactly what the run wrote.
            let probe_dir =
                std::path::Path::new(durability_dir.as_deref().unwrap()).join("overhead-probe");
            let _ = std::fs::remove_dir_all(&probe_dir);
            let durable_eps = report
                .throughput_eps
                .max(run_pass(Some(DurabilityConfig::new(&probe_dir).with_fsync(fsync))));
            let _ = std::fs::remove_dir_all(&probe_dir);
            let reference_eps = run_pass(None).max(run_pass(None));
            let pct = (1.0 - durable_eps / reference_eps) * 100.0;
            println!(
                "durability overhead: {pct:.1}% ({:.0} vs {:.0} edges/sec without durability, best of 2 windows each; budget 15%)",
                durable_eps, reference_eps
            );
            pct
        });

    // --- Metrics overhead: the same best-of-two-windows comparison as the
    // durability probe, but metrics-on vs metrics-off on the plain
    // (non-durable, single-tenant, unpaced) pipeline.  Recording is one
    // relaxed atomic per event plus two span records per stage per epoch,
    // so the budget is 2% (CI's smoke gate allows 5% for window noise).
    let metrics_overhead_pct = metrics_overhead_wanted.then(|| {
        assert!(
            num_tenants == 1 && offered_load == 0.0 && crash_at.is_none() && !recover_mode,
            "--metrics-overhead needs the plain single-tenant unpaced run"
        );
        // Replay to a ~80k-event window regardless of scale; at smoke scale
        // a single pass is a few milliseconds and jitter would swamp the
        // signal.
        let olaps = (80_000 / measure_events.len().max(1)).clamp(1, 512);
        let run_pass = |metrics: bool| -> f64 {
            let mut s = StreamServer::new(
                model.clone(),
                graph.clone(),
                ServeConfig {
                    max_batch,
                    batch_deadline: Duration::from_secs(3600),
                    num_shards: NUM_SHARDS,
                    gnn_workers,
                    metrics,
                    ..ServeConfig::default()
                },
            );
            s.warm_up(&warm_events);
            for lap in 0..olaps {
                for &e in &measure_events {
                    let mut e = e;
                    e.timestamp += lap as f64 * span;
                    s.submit(e).expect("chronological stream");
                    while s.poll().is_some() {}
                }
            }
            let r = s.drain();
            while s.poll().is_some() {}
            r.throughput_eps
        };
        // One discarded pass warms the page cache / thread pools / CPU
        // governor.  Then off/on windows alternate and each *adjacent pair*
        // yields one overhead estimate: adjacent windows share the host's
        // slow drift (CPU frequency, neighbours), so pairing cancels it,
        // and the median across pairs rejects the occasional window that an
        // interference burst hits anyway — wall-clock throughput of the
        // ~10-thread pipeline swings far more between distant windows than
        // the instrumentation itself ever costs.
        run_pass(false);
        let pairs: Vec<(f64, f64)> = (0..7).map(|_| (run_pass(false), run_pass(true))).collect();
        let mut pcts: Vec<f64> = pairs
            .iter()
            .map(|(off, on)| (1.0 - on / off) * 100.0)
            .collect();
        pcts.sort_by(|a, b| a.total_cmp(b));
        let pct = pcts[pcts.len() / 2];
        let on_eps = pairs.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let off_eps = pairs.iter().map(|p| p.0).fold(0.0f64, f64::max);
        println!(
            "metrics overhead: {pct:.1}% (median of 7 paired windows over {olaps} lap(s); best windows {on_eps:.0} vs {off_eps:.0} edges/sec with metrics off; budget 2%)"
        );
        pct
    });

    if smoke {
        println!("smoke mode: skipping {out_path} update");
        return;
    }
    let durability_json = report.durability.as_ref().map(|d| {
        format!(
            "    \"durability\": {{ \"fsync\": \"{}\", \"snapshot_every\": {}, \"wal_records\": {}, \"wal_bytes\": {}, \"wal_fsyncs\": {}, \"wal_rotations\": {}, \"snapshots\": {}, \"snapshot_ms_total\": {:.3}, \"recovery_ms\": {:.3}, \"replayed_events\": {}, \"re_served_epochs\": {}, \"overhead_pct\": {} }},",
            fsync.label(),
            snapshot_every,
            d.wal_records,
            d.wal_bytes,
            d.wal_fsyncs,
            d.wal_rotations,
            d.snapshots,
            d.snapshot_ms_total,
            recovery.as_ref().map_or(0.0, |r| r.recovery_ms),
            recovery.as_ref().map_or(0, |r| r.replayed_events),
            recovery.as_ref().map_or(0, |r| r.re_served_epochs),
            overhead_pct.map_or("null".to_string(), |p| format!("{p:.2}")),
        )
    });
    let metrics_json = (!no_metrics).then(|| {
        let t = &report.stage_timings;
        let busy: Vec<String> = Stage::all()
            .iter()
            .map(|&s| {
                format!(
                    "\"{}\": {:.3}",
                    s.label().to_ascii_lowercase(),
                    t.get(s).as_secs_f64() * 1e3
                )
            })
            .collect();
        format!(
            "    \"metrics\": {{ \"overhead_pct\": {}, \"stage_busy_ms\": {{ {} }} }},",
            metrics_overhead_pct.map_or("null".to_string(), |p| format!("{p:.2}")),
            busy.join(", "),
        )
    });
    let slo_json = snapshot.as_ref().and_then(slo_json_row);
    let trace_json = snapshot.as_ref().map(trace_json_row);
    // Record the policy the run *actually* used (the report's, not the
    // flag's) so the row can never contradict its own tenant_stats.
    let effective_policy = report.tenants[0].policy;
    merge_pipeline_row(
        &out_path,
        &report,
        exec_mode,
        effective_policy,
        offered_load,
        accuracy,
        durability_json.as_deref(),
        metrics_json.as_deref(),
        slo_json.as_deref(),
        trace_json.as_deref(),
        None,
    );
    println!("wrote pipeline row to {out_path}");
}

/// Formats the `"slo"` row: one entry per declared objective with its burn
/// rates and verdict.  `None` when no objectives were declared.
fn slo_json_row(m: &MetricsSnapshot) -> Option<String> {
    if m.slo.is_empty() {
        return None;
    }
    let burn = |b: Option<f64>| b.map_or("null".to_string(), |v| format!("{v:.4}"));
    let rows: Vec<String> = m
        .slo
        .iter()
        .map(|s| {
            format!(
                "{{ \"name\": \"{}\", \"error_budget\": {:.4}, \"fast_burn\": {}, \"slow_burn\": {}, \"state\": \"{}\" }}",
                s.name,
                s.error_budget,
                burn(s.fast_burn),
                burn(s.slow_burn),
                burn_state_label(s.state),
            )
        })
        .collect();
    Some(format!("    \"slo\": [ {} ],", rows.join(", ")))
}

/// Formats the `"trace"` row from the snapshot's causal-trace counters.
fn trace_json_row(m: &MetricsSnapshot) -> String {
    format!(
        "    \"trace\": {{ \"begun\": {}, \"conflicts\": {}, \"overflows\": {}, \"delivery_p99_ms\": {:.4}, \"exemplars\": {}, \"head_samples\": {} }},",
        m.trace.begun,
        m.trace.conflicts,
        m.trace.overflows,
        m.trace.delivery_p99_ms,
        m.trace.exemplars.len(),
        m.trace.head_samples.len(),
    )
}

/// Whether `dir` already holds WAL segments — the signal that a durable run
/// should recover rather than start fresh.
fn wal_present(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("wal-") && name.ends_with(".seg")
            })
        })
        .unwrap_or(false)
}

/// Stable lower-case label of a [`BurnState`] for the bench's prints.
fn burn_state_label(b: BurnState) -> &'static str {
    match b {
        BurnState::NoData => "no-data",
        BurnState::Ok => "ok",
        BurnState::Fired => "fired",
    }
}

/// Sum of the additive segments of one decoded trace.
fn additive_sum(v: &TraceView) -> Duration {
    v.total_where(|c| SegmentId::from_code(c).is_some_and(|s| s.is_additive()))
}

/// The `--trace-out` reporter: writes the full trace dump as JSONL, prints
/// the critical-path blame table, and asserts the conservation law — every
/// complete trace's additive segments must sum to its measured admit→deliver
/// latency within 5% (plus a 500 µs absolute slack for sub-millisecond
/// epochs).  Ends with the greppable `trace-summary:` line CI parses.
fn report_traces(path: &str, traces: &[TraceView], m: &MetricsSnapshot, delivered: u64) {
    let mut jsonl = String::new();
    let mut cp = CriticalPath::new();
    let mut traced = 0u64;
    let mut unreconciled = 0u64;
    let mut max_err_pct = 0.0f64;
    for v in traces {
        let segs: Vec<String> = v
            .segments
            .iter()
            .map(|s| {
                format!(
                    "{{\"code\":{},\"label\":\"{}\",\"us\":{}}}",
                    s.code,
                    SegmentId::from_code(s.code).map_or("?", |id| id.label()),
                    s.duration.as_micros()
                )
            })
            .collect();
        jsonl.push_str(&format!(
            "{{\"epoch\":{},\"segments\":[{}]}}\n",
            v.epoch,
            segs.join(",")
        ));
        let total = v.total_where(|c| c == SegmentId::Total.code());
        if total.is_zero() {
            // Still in flight at drain (or only partially recorded): no
            // reference to reconcile against.
            continue;
        }
        traced += 1;
        let sum = additive_sum(v);
        let diff = sum.abs_diff(total);
        let err_pct = diff.as_secs_f64() / total.as_secs_f64() * 100.0;
        max_err_pct = max_err_pct.max(err_pct);
        let budget =
            Duration::from_secs_f64(total.as_secs_f64() * 0.05) + Duration::from_micros(500);
        if diff > budget {
            unreconciled += 1;
            eprintln!(
                "trace: epoch {} additive sum {:?} vs measured total {:?} (err {:.2}%)",
                v.epoch, sum, total, err_pct
            );
        }
        let additive: Vec<_> = v
            .segments
            .iter()
            .filter(|s| SegmentId::from_code(s.code).is_some_and(|id| id.is_additive()))
            .copied()
            .collect();
        cp.observe(&additive);
    }
    std::fs::write(path, jsonl).unwrap_or_else(|e| panic!("--trace-out {path}: {e}"));
    println!("trace: {} trace(s) written to {path}", traces.len());
    if cp.traces() > 0 {
        println!("critical path: segment        latency     share  dominant-in");
        for b in cp.blame() {
            println!(
                "critical path: {:<12} {:>9.3} ms {:>6.1}%  {:>5} epoch(s)",
                SegmentId::from_code(b.code).map_or("?", |id| id.label()),
                b.total.as_secs_f64() * 1e3,
                b.fraction * 100.0,
                b.dominant_in,
            );
        }
    }
    println!(
        "trace-summary: traced={traced} delivered={delivered} unreconciled={unreconciled} \
         max_err_pct={max_err_pct:.2} exemplars={} head_samples={}",
        m.trace.exemplars.len(),
        m.trace.head_samples.len(),
    );
    assert_eq!(
        unreconciled, 0,
        "causal-trace conservation violated: additive segments must tile the measured latency"
    );
    assert!(
        !m.trace.exemplars.is_empty(),
        "no tail exemplar captured — the first traced delivery always qualifies"
    );
}

/// Prints the per-tenant serving table (the overload picture).
fn print_tenant_table(report: &ServeReport) {
    println!(
        "tenant      weight  submitted  served   stale   dropped  drop%   late    p99 ms    eps"
    );
    for t in &report.tenants {
        println!(
            "{:<10} {:>6} {:>10} {:>7} {:>7} {:>9} {:>6.1} {:>6} {:>9.2} {:>8.0}",
            t.name,
            t.weight,
            t.counters.submitted,
            t.served,
            t.served_stale,
            t.dropped(),
            t.drop_rate() * 100.0,
            t.late,
            t.latency.p99_ms,
            t.throughput_eps,
        );
    }
}

/// Asserts the multi-tenant overload contract the run demonstrates: every
/// event accounted, policy-consistent drop counters, and — when the run
/// was actually overloaded — weighted-fair service within 2× of each
/// tenant's weight share.
fn check_overload_contract(
    report: &ServeReport,
    policy: OverloadPolicy,
    submitted: u64,
    dropped_at_submit: u64,
    stale_at_submit: u64,
    paced: bool,
) {
    let total_served: u64 = report.tenants.iter().map(|t| t.served).sum();
    let total_dropped: u64 = report.tenants.iter().map(|t| t.dropped()).sum();
    let total_stale: u64 = report.tenants.iter().map(|t| t.served_stale).sum();
    assert_eq!(
        total_served + total_dropped,
        submitted,
        "per-tenant accounting must cover every submitted event"
    );
    match policy {
        OverloadPolicy::Block | OverloadPolicy::Late => {
            assert_eq!(total_dropped, 0, "{} must never drop", policy.label());
        }
        OverloadPolicy::DropNewest => {
            assert_eq!(
                total_dropped, dropped_at_submit,
                "DropNewest drops are exactly the rejected submits"
            );
        }
        OverloadPolicy::DropOldest => {
            assert_eq!(dropped_at_submit, 0, "DropOldest always admits");
        }
        OverloadPolicy::ServeStale => {
            assert_eq!(
                total_dropped, dropped_at_submit,
                "ServeStale drops are exactly the cache-miss rejects"
            );
            assert_eq!(
                total_stale, stale_at_submit,
                "every ServedStale outcome delivers exactly one stale answer"
            );
        }
    }
    // Fairness is only observable while the fair drain actually arbitrates:
    // the run must be paced (an unpaced burst is admitted almost entirely
    // before the pipeline serves its first batch, so service degenerates to
    // drain order) and heavily shedding.
    if paced && total_dropped > submitted / 10 {
        let total_weight: u64 = report.tenants.iter().map(|t| u64::from(t.weight)).sum();
        for t in &report.tenants {
            let fair = total_served as f64 * t.weight as f64 / total_weight as f64;
            assert!(
                (t.served as f64) >= fair / 2.0 && (t.served as f64) <= fair * 2.0,
                "tenant {} (weight {}): served {} vs fair share {:.1} — outside 2×",
                t.name,
                t.weight,
                t.served,
                fair
            );
        }
        println!("fairness: every tenant within 2x of its weight share (asserted)");
    }
}

/// Formats and merges the top-level `"pipeline"` row.
#[allow(clippy::too_many_arguments)]
fn merge_pipeline_row(
    path: &str,
    report: &ServeReport,
    exec_mode: &str,
    policy: OverloadPolicy,
    offered_load: f64,
    accuracy: Option<(f32, f64, f32)>,
    durability_json: Option<&str>,
    metrics_json: Option<&str>,
    slo_json: Option<&str>,
    trace_json: Option<&str>,
    scenario_json: Option<&str>,
) {
    let identity = match accuracy {
        None => "    \"embeddings_bitwise_identical_to_serial\": true".to_string(),
        Some((min_cos, mean_cos, max_err)) => format!(
            "    \"embeddings_bitwise_identical_to_quantized_engine\": true,\n    \"embedding_cosine_min\": {min_cos:.6},\n    \"embedding_cosine_mean\": {mean_cos:.6},\n    \"embedding_max_abs_err\": {max_err:.6}"
        ),
    };
    let tenant_rows: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            format!(
                "      {{ \"name\": \"{}\", \"weight\": {}, \"policy\": \"{}\", \"submitted\": {}, \"served\": {}, \"served_stale\": {}, \"dropped\": {}, \"drop_rate\": {:.4}, \"late\": {}, \"p99_ms\": {:.4}, \"events_per_sec\": {:.1} }}",
                t.name,
                t.weight,
                t.policy.label(),
                t.counters.submitted,
                t.served,
                t.served_stale,
                t.dropped(),
                t.drop_rate(),
                t.late,
                t.latency.p99_ms,
                t.throughput_eps,
            )
        })
        .collect();
    let backend_rows: Vec<String> = report
        .backends
        .iter()
        .map(|b| {
            format!(
                "      {{ \"kind\": \"{}\", \"served_batches\": {}, \"served_events\": {}, \"modeled_latency_ms\": {} }}",
                b.kind,
                b.served_batches,
                b.served_events,
                b.modeled_latency.as_ref().map_or("null".to_string(), |m| {
                    format!(
                        "{{ \"p50\": {:.4}, \"p99\": {:.4}, \"max\": {:.4} }}",
                        m.p50_ms, m.p99_ms, m.max_ms
                    )
                }),
            )
        })
        .collect();
    let backends_line = if backend_rows.is_empty() {
        String::new()
    } else {
        format!(
            "    \"backends\": [\n{}\n    ],\n",
            backend_rows.join(",\n")
        )
    };
    let durability_line = durability_json.map_or(String::new(), |d| format!("{d}\n"));
    let metrics_line = metrics_json.map_or(String::new(), |m| format!("{m}\n"));
    let slo_line = slo_json.map_or(String::new(), |s| format!("{s}\n"));
    let trace_line = trace_json.map_or(String::new(), |t| format!("{t}\n"));
    let cache_line = report.cache.as_ref().map_or(String::new(), |c| {
        format!(
            "    \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"insertions\": {}, \"evictions\": {}, \"expired\": {}, \"served_stale\": {}, \"entries\": {}, \"staleness_bound_epochs\": {}, \"stale_age\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }} }},\n",
            c.stats.hits,
            c.stats.misses,
            c.hit_rate,
            c.stats.insertions,
            c.stats.evictions,
            c.stats.expired,
            c.stats.served_stale,
            c.stats.entries,
            c.staleness_bound_epochs,
            c.stale_age.p50,
            c.stale_age.p95,
            c.stale_age.p99,
            c.stale_age.max,
        )
    });
    let scenario_line = scenario_json.map_or(String::new(), |s| format!("{s}\n"));
    let row = format!(
        "{{\n    \"events_per_sec\": {:.1},\n    \"num_batches\": {},\n    \"max_batch\": {},\n    \"num_shards\": {},\n    \"gnn_workers\": {},\n    \"exec_mode\": \"{}\",\n    \"latency_ms\": {{ \"mean\": {:.4}, \"p50\": {:.4}, \"p95\": {:.4}, \"p99\": {:.4} }},\n    \"backpressure_blocks\": {},\n    \"tenants\": {},\n    \"overload_policy\": \"{}\",\n    \"offered_load_eps\": {:.1},\n    \"commit_log_clean\": {},\n    \"tenant_stats\": [\n{}\n    ],\n{}{}{}{}{}{}{}{}\n  }}",
        report.throughput_eps,
        report.num_batches,
        MAX_BATCH,
        report.num_shards,
        report.gnn_workers,
        exec_mode,
        report.latency.mean_ms,
        report.latency.p50_ms,
        report.latency.p95_ms,
        report.latency.p99_ms,
        report.backpressure_blocks,
        report.tenants.len(),
        policy.label(),
        offered_load,
        report.commit_log_clean,
        tenant_rows.join(",\n"),
        backends_line,
        durability_line,
        metrics_line,
        slo_line,
        trace_line,
        cache_line,
        scenario_line,
        identity,
    );
    merge_baseline_row(path, "pipeline", &row);
}

/// Staleness bound (epochs) of the scenario harness cache — comfortably
/// larger than the pipeline's in-flight epoch window, so a hot vertex
/// refreshed during the warm phase is still servable through the whole
/// burst, while cold entries still age out and get swept.
const SCENARIO_STALENESS_BOUND: u64 = 32;

/// Everything the scenario harness needs from `main`'s setup.
struct ScenarioRun<'a> {
    shape: Scenario,
    model: TgnModel,
    graph: Arc<TemporalGraph>,
    warm_events: &'a [InteractionEvent],
    measure_events: &'a [InteractionEvent],
    policy: OverloadPolicy,
    ingress_capacity: usize,
    deadline_ms: f64,
    max_batch: usize,
    gnn_workers: usize,
    seed: u64,
    smoke: bool,
    no_metrics: bool,
    out_path: &'a str,
}

/// One full warm+burst pass over a scenario feed, with its submit-side
/// outcome tally (each reconciled against the tenant's report counters).
struct ScenarioPass {
    report: ServeReport,
    served: Vec<ServedBatch>,
    admitted: u64,
    stale: u64,
    dropped: u64,
    /// Tail exemplars retained by the causal-trace slab (0 with metrics off).
    trace_exemplars: usize,
}

/// The `--scenario` harness: generate the shaped feed, run it warm+burst
/// under the chosen shedding policy, verify every stale answer bit-identical
/// and within the staleness bound, compare against DropNewest on the
/// identical feed, and merge the `"scenario"` section into the pipeline row.
fn run_scenario(run: ScenarioRun) {
    // 80 micro-batches of traffic: the 60% warm phase seals enough epochs
    // to populate the cache, and the unpolled 40% burst tail exceeds the
    // pipeline's whole in-flight capacity (shallow queues, see
    // `scenario_pass`), so the ingress queue fills deterministically —
    // roughly 2x the load the admitted stream can hold in flight.
    let n = run.max_batch * 80;
    let warm_n = n * 3 / 5;
    let t_floor = run.measure_events.last().map_or(0.0, |e| e.timestamp);
    let feed = scenarios::generate(run.shape, run.measure_events, n, t_floor, run.seed);
    println!(
        "scenario: {} — {} events resampled from the {}-event measurement feed ({} warm + {} burst), policy {}, staleness bound {} epochs",
        run.shape.label(),
        n,
        run.measure_events.len(),
        warm_n,
        n - warm_n,
        run.policy.label(),
        SCENARIO_STALENESS_BOUND,
    );

    let pass = scenario_pass(&run, &feed, warm_n, run.policy, false);
    let (stale_checked, stale_beyond_bound) =
        verify_scenario_stale(&pass.served, SCENARIO_STALENESS_BOUND);

    // The SLO burn-rate hook, demonstrated against the pass above as its
    // queue-full baseline: with `preempt_stale` armed, the drop objective
    // fires under the same feed and the tenant starts answering cache hits
    // stale while the ingress queue still has space — so shedding must not
    // exceed the baseline, where stale answers require a hard-full queue.
    let preempt = (run.policy == OverloadPolicy::ServeStale && !run.no_metrics).then(|| {
        let pp = scenario_pass(&run, &feed, warm_n, OverloadPolicy::ServeStale, true);
        let preempted = pp.report.tenants[0].counters.preempt_stale;
        println!(
            "slo preemption: {} pre-emptive stale serve(s) ({} stale total), dropped {} vs {} baseline",
            preempted, pp.stale, pp.dropped, pass.dropped,
        );
        if run.shape == Scenario::PowerLaw {
            // The hot-set shape is the one the gate is for: the cache hit
            // rate is high enough that preemption must demonstrably engage,
            // and shedding early must not cost more than shedding at the
            // hard bound.  Low-locality shapes report the same numbers but
            // without the asserts — with few cache hits to absorb load,
            // run-to-run drop noise dominates the comparison.
            assert!(
                preempted > 0,
                "power-law burst never tripped the burn-rate gate"
            );
            assert!(
                pp.dropped <= pass.dropped,
                "burn-rate preemption must not shed more than the queue-full baseline ({} vs {})",
                pp.dropped,
                pass.dropped
            );
        }
        preempted
    });

    // Identity: the pipeline-served batches must still be bit-identical to
    // the serial engine replaying the same micro-batch sequence — the cache
    // and the shedding policy must not perturb what *is* served fresh.
    let mut engine =
        InferenceEngine::new(run.model.clone(), run.graph.num_nodes()).with_mode(ExecMode::Serial);
    engine.warm_up(run.warm_events, &run.graph);
    for batch in pass.served.iter().filter(|b| b.epoch > 0) {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), &run.graph);
        assert_eq!(
            reference.embeddings, batch.embeddings,
            "pipeline embeddings diverged bitwise from the serial engine in epoch {}",
            batch.epoch
        );
    }

    let cache = pass
        .report
        .cache
        .expect("the scenario harness always enables the cache");

    // The greppable one-line summary (CI's smoke gate parses this),
    // printed before the contract asserts so a failure comes with its
    // diagnostics.
    println!(
        "scenario-summary: shape={} policy={} submitted={} served={} stale_served={} dropped={} \
         cache_hits={} cache_misses={} cache_hit_rate={:.4} stale_age_p50={} stale_age_p95={} \
         stale_age_max={} staleness_bound={} stale_checked={} stale_beyond_bound={} \
         slo_preempt_stale={} trace_exemplars={}",
        run.shape.label(),
        run.policy.label(),
        feed.len(),
        pass.report.tenants[0].served,
        pass.stale,
        pass.dropped,
        cache.stats.hits,
        cache.stats.misses,
        cache.hit_rate,
        cache.stale_age.p50,
        cache.stale_age.p95,
        cache.stale_age.max,
        cache.staleness_bound_epochs,
        stale_checked,
        stale_beyond_bound,
        preempt.unwrap_or(0),
        pass.trace_exemplars,
    );
    if run.policy == OverloadPolicy::ServeStale {
        assert!(
            pass.stale > 0,
            "scenario {} produced no stale serves — the burst never overloaded the queue \
             or the cache never hit",
            run.shape.label()
        );
    }
    assert_eq!(
        stale_beyond_bound, 0,
        "served a stale answer older than the {SCENARIO_STALENESS_BOUND}-epoch bound"
    );

    // Served quality under the same feed, cache off the table: ServeStale
    // must shed strictly less than DropNewest, because every cache hit is
    // an answer DropNewest would have thrown away.
    let drop_newest_rate = (run.policy == OverloadPolicy::ServeStale).then(|| {
        let dn = scenario_pass(&run, &feed, warm_n, OverloadPolicy::DropNewest, false);
        let ss_rate = pass.dropped as f64 / feed.len() as f64;
        let dn_rate = dn.dropped as f64 / feed.len() as f64;
        println!(
            "degraded-mode comparison: serve-stale dropped {} ({:.2}%) vs drop-newest {} ({:.2}%) on the identical feed",
            pass.dropped,
            ss_rate * 100.0,
            dn.dropped,
            dn_rate * 100.0,
        );
        assert!(
            pass.dropped < dn.dropped,
            "serve-stale must drop strictly less than drop-newest ({} vs {})",
            pass.dropped,
            dn.dropped
        );
        dn_rate
    });

    if run.smoke {
        println!("smoke mode: skipping {} update", run.out_path);
        return;
    }
    let scenario_json = format!(
        "    \"scenario\": {{ \"shape\": \"{}\", \"events\": {}, \"warm_events\": {warm_n}, \"burst_events\": {}, \"admitted\": {}, \"served_stale\": {}, \"dropped\": {}, \"drop_rate\": {:.4}, \"drop_rate_drop_newest\": {}, \"stale_checked\": {stale_checked}, \"stale_beyond_bound\": {stale_beyond_bound}, \"slo_preempt_stale\": {}, \"trace_exemplars\": {} }},",
        run.shape.label(),
        feed.len(),
        feed.len() - warm_n,
        pass.admitted,
        pass.stale,
        pass.dropped,
        pass.dropped as f64 / feed.len() as f64,
        drop_newest_rate.map_or("null".to_string(), |r| format!("{r:.4}")),
        preempt.unwrap_or(0),
        pass.trace_exemplars,
    );
    merge_pipeline_row(
        run.out_path,
        &pass.report,
        "batched",
        run.policy,
        0.0,
        None,
        None,
        None,
        None,
        None,
        Some(&scenario_json),
    );
    println!("wrote pipeline row to {}", run.out_path);
}

/// Runs one warm+burst pass of `feed` under `policy` and reconciles the
/// submit-side tally against the tenant's report counters.
fn scenario_pass(
    run: &ScenarioRun,
    feed: &[InteractionEvent],
    warm_n: usize,
    policy: OverloadPolicy,
    preempt: bool,
) -> ScenarioPass {
    let config = ServeConfig {
        max_batch: run.max_batch,
        // Size-only sealing, as in the main run.
        batch_deadline: Duration::from_secs(3600),
        num_shards: NUM_SHARDS,
        gnn_workers: run.gnn_workers,
        // The burst phase never polls, so in-flight *capacity* — not
        // pipeline speed — decides when the ingress queue fills: shallow
        // stage/results queues make the overload (and with it the cache
        // lookups) deterministic on any host.
        stage_capacity: 1,
        results_capacity: 2,
        cache: Some(CacheConfig {
            capacity: (2 * run.graph.num_nodes()).max(4096),
            staleness_bound_epochs: SCENARIO_STALENESS_BOUND,
        }),
        tenants: vec![TenantSpec::new("scenario")
            .with_capacity(run.ingress_capacity)
            .with_policy(policy)
            .with_deadline(Duration::from_secs_f64(run.deadline_ms / 1e3))],
        metrics: !run.no_metrics,
        // The pre-emptive pass traces every delivery (each one feeds the
        // latency lane) and declares an objective the overloaded pipeline
        // cannot meet — queue wait alone exceeds it once the burst builds
        // up.  When the objective fires, a ServeStale tenant answers cache
        // hits stale *before* its ingress queue is hard-full, preserving
        // headroom for the events only the pipeline can serve.
        metrics_sampling: if preempt { 1 } else { 64 },
        slo: preempt.then(|| SloConfig {
            preempt_stale: true,
            latency_objective: Duration::from_millis(5),
            ..SloConfig::default()
        }),
        ..ServeConfig::default()
    };
    let mut server = StreamServer::new(run.model.clone(), run.graph.clone(), config);
    server.warm_up(run.warm_events);
    let mut served: Vec<ServedBatch> = Vec::new();
    let (mut admitted, mut stale, mut dropped) = (0u64, 0u64, 0u64);
    let mut submits = 0u64;
    // Pre-emptive pass only: how deep into the burst the un-polled
    // "incident" runs before the latency objective is given a chance to
    // fire — enough submits to pin the ingress queue and every bounded
    // stage queue behind it.
    let burst_prime = run.ingress_capacity + 4 * run.max_batch;
    for (i, &e) in feed.iter().enumerate() {
        if i < warm_n {
            // Warm phase: the submit loop is orders of magnitude faster
            // than the pipeline, so pace it by retrying each cache-miss
            // rejection until the event is admitted (or answered stale) —
            // that is what populates the cache the burst will lean on.
            // Every outcome occurrence is tallied, so the accounting below
            // stays balanced across retries.
            let mut tries = 0u32;
            loop {
                submits += 1;
                match server
                    .submit_for(TenantId(0), e)
                    .expect("chronological scenario feed")
                {
                    SubmitOutcome::Admitted => {
                        admitted += 1;
                        break;
                    }
                    SubmitOutcome::ServedStale => {
                        stale += 1;
                        break;
                    }
                    SubmitOutcome::Dropped => dropped += 1,
                }
                tries += 1;
                assert!(tries < 100_000, "warm phase starved: pipeline stalled");
                while let Some(b) = server.poll() {
                    served.push(b);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            while let Some(b) = server.poll() {
                served.push(b);
            }
            // DropOldest admits unconditionally (evicting silently), so the
            // retry loop above never paces it — throttle explicitly or the
            // warm phase floods the queue and evicts its own cache feed.
            if policy == OverloadPolicy::DropOldest {
                std::thread::sleep(Duration::from_micros(200));
            }
        } else {
            // Burst phase: one submit per event and no polling, so the
            // pipeline's bounded in-flight capacity fills deterministically
            // and the overload policy decides every remaining event.
            submits += 1;
            match server
                .submit_for(TenantId(0), e)
                .expect("chronological scenario feed")
            {
                SubmitOutcome::Admitted => admitted += 1,
                SubmitOutcome::ServedStale => stale += 1,
                SubmitOutcome::Dropped => dropped += 1,
            }
            // The pre-emptive pass shares the un-polled incident for its
            // first `burst_prime` submits: the pipeline wedges against the
            // unread results queue, so every in-flight batch ages far past
            // the 5 ms objective.  Draining then records those latencies
            // into the burn-rate lanes; one gate tick later `fired()`
            // observes the incident, and the rest of the burst behaves like
            // a real serving loop — polling keeps the ingest worker pulling, so
            // the ingress queue dips below capacity, which is the only
            // regime where preemption (as opposed to queue-full fallback)
            // is observable.
            if preempt {
                match (i - warm_n).cmp(&burst_prime) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => {
                        std::thread::sleep(Duration::from_millis(150));
                        while let Some(b) = server.poll() {
                            served.push(b);
                        }
                        std::thread::sleep(Duration::from_millis(150));
                    }
                    std::cmp::Ordering::Greater => {
                        while let Some(b) = server.poll() {
                            served.push(b);
                        }
                    }
                }
            }
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    let trace_exemplars = if run.no_metrics {
        0
    } else {
        server.metrics().trace.exemplars.len()
    };
    assert_eq!(
        admitted + stale + dropped,
        submits,
        "every submit resolves to exactly one outcome"
    );
    let t = &report.tenants[0];
    assert_eq!(t.counters.submitted, submits);
    assert_eq!(
        t.served_stale, stale,
        "one stale delivery per ServedStale outcome"
    );
    if policy == OverloadPolicy::DropOldest {
        // DropOldest admits at submit time and evicts an older *queued*
        // event instead, so its drops are invisible to the outcome tally —
        // only the conservation law is checkable from outside.
        assert_eq!(t.served + t.dropped(), submits, "DropOldest conservation");
    } else {
        assert_eq!(
            t.served,
            admitted + stale,
            "after the drain, served covers every admitted event plus every stale answer"
        );
        assert_eq!(
            t.dropped(),
            dropped,
            "one recorded drop per Dropped outcome"
        );
    }
    let delivered: usize = served.iter().map(|b| b.events.len()).sum();
    assert_eq!(
        delivered as u64, t.served,
        "polled batches account for every served event"
    );
    // Report-side tallies (== the local ones for every policy but
    // DropOldest, where eviction moves drops out of the submit loop's view).
    let (served_stale, dropped) = (t.served_stale, t.dropped());
    let admitted = t.counters.admitted;
    ScenarioPass {
        report,
        served,
        admitted,
        stale: served_stale,
        dropped,
        trace_exemplars,
    }
}

/// Checks every cache-served (epoch 0) batch: flagged `Stale` within the
/// bound, and bit-identical to the embedding the pipeline originally served
/// for its `(vertex, source epoch)`.  Returns `(entries checked, answers
/// beyond the bound)`.
fn verify_scenario_stale(served: &[ServedBatch], bound: u64) -> (usize, u64) {
    let mut history: HashMap<u64, HashMap<u32, &[Float]>> = HashMap::new();
    for b in served.iter().filter(|b| b.epoch > 0) {
        let per = history.entry(b.epoch).or_default();
        for (v, emb) in &b.embeddings {
            per.insert(*v, emb.as_slice());
        }
    }
    let mut checked = 0usize;
    let mut beyond = 0u64;
    for b in served.iter().filter(|b| b.epoch == 0) {
        assert_eq!(
            b.embeddings.len(),
            b.cache_epochs.len(),
            "a stale batch records one source epoch per embedding"
        );
        let age = match b.metas.first().map(|m| m.disposition) {
            Some(Disposition::Stale { age_epochs }) => age_epochs,
            other => panic!("epoch-0 batch without a Stale disposition: {other:?}"),
        };
        if age > bound {
            beyond += 1;
        }
        for ((v, emb), &src_epoch) in b.embeddings.iter().zip(&b.cache_epochs) {
            let original = history
                .get(&src_epoch)
                .and_then(|m| m.get(v))
                .unwrap_or_else(|| {
                    panic!(
                        "stale answer cites epoch {src_epoch} vertex {v}, never served by the pipeline"
                    )
                });
            assert_eq!(
                *original,
                emb.as_slice(),
                "stale answer for vertex {v} diverged bitwise from the embedding served in epoch {src_epoch}"
            );
            checked += 1;
        }
    }
    (checked, beyond)
}
