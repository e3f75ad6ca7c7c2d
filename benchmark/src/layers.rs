//! The traced run: per-layer metrics, measured by timing the benchmark's own
//! calls into each layer's public functions over the workload's inputs.
//! Layers are the crate names.  Every timed call is a span in the run's
//! [`Tracer`], written to `out/<workload>.trace.jsonl` when the run ends.

use crate::catalogue::Metrics;
use crate::drive::{run_rep, Inputs, RepOptions, RepOutcome, Stop};
use crate::run::{RunArgs, SetUp};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{calibrate_int8, Arrival};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tgnn_core::{
    BackendKind, ComputeBackend, ExecMode, F32Backend, GnnJobBatch, InferenceEngine, Int8Backend,
    ModelConfig, ShardedMemory, Stage, TgnModel,
};
use tgnn_durable::{
    encode_memory_shard, encode_neighbor_shard, AdmitDisposition, FsyncPolicy, Wal, WalRecord,
};
use tgnn_graph::{
    EpochGate, EventBatch, FifoSampler, InteractionEvent, NodeId, ShardedNeighborTable, Timestamp,
};
use tgnn_hwsim::pipeline::{BatchWorkload, PipelineModel};
use tgnn_hwsim::{DdrModel, DesignConfig, HwSimBackend, PerformanceModel};
use tgnn_nn::{CosTimeEncoder, LutTimeEncoder, SimplifiedAttention, VanillaAttention};
use tgnn_obs::{Histogram, TraceSlab};
use tgnn_serve::queue::{channel, mpmc_channel};
use tgnn_serve::{SegmentId, ServeConfig};
use tgnn_tensor::gemm::matmul_packed_transb_into;
use tgnn_tensor::gemm_i8::{
    matmul_i8_dequant_into, pack_rhs_i8, packed_rhs_len, padded_k, quantize_slice_into,
};
use tgnn_tensor::{Float, Matrix, TensorRng, Workspace};

/// Events of the stream's head the single-threaded engine pass replays.
const ENGINE_EVENTS: usize = 40_000;
/// Every n-th engine batch also runs the gathered job on both backends.
const BACKEND_EVERY: usize = 4;
/// Offered rate of the informational open-loop step.
const STEP_RATE: f64 = 40_000.0;
/// Wall-clock budget of one kernel measurement.
const KERNEL_BUDGET: Duration = Duration::from_millis(40);

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub conserved: bool,
}

pub fn traced_run(
    args: &RunArgs,
    setup: &SetUp,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> Traced {
    let inputs = &setup.inputs;
    let (gen_start, gen_end) = setup.generate;
    tracer.record("data.generate", gen_start, gen_end, 0);
    metrics.set(
        "data.generate.events_per_s",
        inputs.graph.num_events() as f64 / (gen_end - gen_start).as_secs_f64(),
    );

    // The int8 weight set: calibrated in set-up on the production workload,
    // here on the others (the int8 kernels are measured on every workload).
    let (int8_model, (start, end)) = match setup.calibrate_int8 {
        Some(times) => (inputs.model.clone(), times),
        None => {
            let start = Instant::now();
            let mut m = inputs.model.clone();
            m.attach_quantized(calibrate_int8(&inputs.model, &inputs.graph));
            (m, (start, Instant::now()))
        }
    };
    tracer.record("quant.calibrate", start, end, 0);
    metrics.set("quant.calibrate_s", (end - start).as_secs_f64());

    let (served, plain_eps) = serve_passes(args, inputs, tracer, metrics, notes);
    let engine = engine_pass(inputs, &int8_model, tracer, metrics, notes);
    kernels(inputs, &engine, tracer, metrics, notes);
    hwsim(inputs, &engine, tracer, metrics, notes);

    metrics.set("serve.gap_ratio", engine.events_per_s / plain_eps);
    // Achieved throughput against the pipeline-period bound T_p: a perfect
    // pipeline delivers one event per slowest-stage time.
    let slowest_ns = engine.stage_ns_per_event.into_iter().fold(0.0, f64::max);
    metrics.set("serve.pipeline_efficiency", plain_eps * slowest_ns / 1e9);

    let path = args
        .home
        .join("out")
        .join(format!("{}.trace.jsonl", args.workload.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace: could not write {}: {e}", path.display())),
    }
    served
}

// ---------------------------------------------------------------------------
// serve: the driver's spans and the server's own report
// ---------------------------------------------------------------------------

/// Runs the serving passes; returns their accounting and the throughput of
/// the untraced, metrics-on passes (what the other passes are held to).
fn serve_passes(
    args: &RunArgs,
    inputs: &Inputs,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> (Traced, f64) {
    let w = args.workload;
    // `--seconds` is split: one discarded pass, then three rounds of
    // {plain, traced, metrics off} passes, a twelfth each, and the open-loop
    // step (a quarter).
    const ROUNDS: usize = 3;
    let pass = Stop::After(Duration::from_secs_f64(args.seconds / 12.0));
    let mut rep = 100;
    let mut run = |tracer: Option<&mut Tracer>, metrics_on: bool, arrival: Arrival, stop: Stop| {
        rep += 1;
        run_rep(
            inputs,
            rep,
            RepOptions {
                stop,
                arrival,
                metrics: metrics_on,
                tracer,
                keep_batches: false,
            },
        )
    };
    let discarded = run(None, true, w.arrival, pass);
    let (mut plain, mut traced, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        plain.push(run(None, true, w.arrival, pass));
        traced.push(run(Some(&mut *tracer), true, w.arrival, pass));
        bare.push(run(None, false, w.arrival, pass));
    }
    let step = run(
        None,
        true,
        Arrival::Paced {
            events_per_s: STEP_RATE,
        },
        Stop::After(Duration::from_secs_f64(args.seconds / 4.0)),
    );

    // Overheads pair each pass with its neighbour in time (the host's speed
    // drifts between rounds) and take the median over the rounds.
    let median_of = |f: &dyn Fn(usize) -> f64| median(&mut (0..ROUNDS).map(f).collect::<Vec<_>>());
    let plain_eps = median_of(&|i| plain[i].events_per_s());
    let (traced_eps, bare_eps) = (
        median_of(&|i| traced[i].events_per_s()),
        median_of(&|i| bare[i].events_per_s()),
    );
    metrics.set(
        "bench.trace_overhead_pct",
        median_of(&|i| (1.0 - traced[i].events_per_s() / plain[i].events_per_s()) * 100.0),
    );
    metrics.set(
        "serve.metrics_overhead_pct",
        median_of(&|i| (1.0 - plain[i].events_per_s() / bare[i].events_per_s()) * 100.0),
    );
    metrics.set("bench.rate40k.lat_p50_ms", step.latency_percentile_ms(0.50));
    let mut p99: Vec<f64> = plain
        .iter()
        .map(|r| r.latency_percentile_ms(0.99))
        .collect();
    metrics.set("serve.lat_p99_ms", median(&mut p99));

    // Driver-side spans and server-side counters of the traced passes.
    let sum = |f: &dyn Fn(&RepOutcome) -> f64| traced.iter().map(f).sum::<f64>();
    let events = sum(&|r| r.delivered as f64);
    let submits = sum(&|r| r.attempted as f64);
    let polls = sum(&|r| r.poll_calls as f64);
    metrics.set(
        "serve.submit.ns_per_event",
        sum(&|r| r.submit_ns as f64) / submits,
    );
    metrics.set(
        "serve.submit.blocked_share",
        sum(&|r| {
            r.report
                .tenants
                .iter()
                .map(|t| t.counters.blocked_submits)
                .sum::<u64>() as f64
        }) / submits,
    );
    metrics.set("serve.poll.ns_per_call", sum(&|r| r.poll_ns as f64) / polls);
    metrics.set(
        "serve.poll.empty_share",
        sum(&|r| r.poll_empty as f64) / polls,
    );
    let mean_ms = |f: &dyn Fn(&RepOutcome) -> Duration| {
        traced.iter().map(|r| f(r).as_secs_f64() * 1e3).sum::<f64>() / traced.len() as f64
    };
    metrics.set("serve.drain.ms", mean_ms(&|r| r.drain_time));
    metrics.set("serve.new.ms", mean_ms(&|r| r.new_time));
    for (stage, name) in [
        (Stage::Sample, "serve.stage.sample.busy_ns_per_event"),
        (Stage::Memory, "serve.stage.memory.busy_ns_per_event"),
        (Stage::Gnn, "serve.stage.gnn.busy_ns_per_event"),
        (Stage::Update, "serve.stage.update.busy_ns_per_event"),
    ] {
        let busy = sum(&|r| r.report.stage_timings.get(stage).as_nanos() as f64);
        metrics.set(name, busy / events);
    }
    metrics.set(
        "serve.batch_events.mean",
        events / sum(&|r| r.report.num_batches as f64),
    );
    metrics.set(
        "serve.queue.blocked_sends_per_kevent",
        sum(&|r| r.report.queues.iter().map(|q| q.blocked_sends).sum::<u64>() as f64) / events
            * 1e3,
    );
    metrics.set(
        "serve.threads",
        traced.iter().map(|r| r.threads).max().unwrap_or(0) as f64,
    );
    metrics.set(
        "serve.int8_batches",
        sum(&|r| {
            r.report
                .backends
                .iter()
                .filter(|b| b.kind == BackendKind::Int8)
                .map(|b| b.served_batches)
                .sum::<u64>() as f64
        }),
    );

    // The server's causal-trace segments, as shares of their additive sum
    // over the epochs its trace slab still holds.
    let mut seg_ns = [0.0f64; 8];
    for view in traced.iter().flat_map(|r| &r.traces) {
        for s in &view.segments {
            if SegmentId::from_code(s.code).is_some_and(SegmentId::is_additive) {
                seg_ns[s.code as usize] += s.duration.as_nanos() as f64;
            }
        }
    }
    let seg_total: f64 = seg_ns.iter().sum();
    for (seg, name) in [
        (SegmentId::IngressWait, "serve.seg.ingress_wait.share"),
        (SegmentId::SealWait, "serve.seg.seal_wait.share"),
        (SegmentId::Sample, "serve.seg.sample.share"),
        (SegmentId::Memory, "serve.seg.memory.share"),
        (SegmentId::Gnn, "serve.seg.gnn.share"),
        (SegmentId::ReorderBarrier, "serve.seg.reorder_barrier.share"),
        (SegmentId::WalSyncWait, "serve.seg.wal_sync_wait.share"),
        (SegmentId::Deliver, "serve.seg.deliver.share"),
    ] {
        metrics.set(name, seg_ns[seg.code() as usize] / seg_total);
    }

    // durable, as the server reports it (zero without a WAL).
    let durability = |f: &dyn Fn(&tgnn_serve::DurabilityStats) -> f64| {
        sum(&|r| r.report.durability.as_ref().map_or(0.0, f))
    };
    metrics.set(
        "durable.wal.bytes_per_event",
        durability(&|d| d.wal_bytes as f64) / events,
    );
    metrics.set(
        "durable.wal_fsyncs_per_kevent",
        durability(&|d| d.wal_fsyncs as f64) / events * 1e3,
    );
    metrics.set(
        "durable.snapshot_ms_total",
        durability(&|d| d.snapshot_ms_total),
    );

    let mut late: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        crate::stats::percentile_sorted(&late, 0.99)
    };
    metrics.set("bench.gen_late_p99_ms", late_p99);

    let all: Vec<&RepOutcome> = std::iter::once(&discarded)
        .chain(&plain)
        .chain(&traced)
        .chain(&bare)
        .chain(std::iter::once(&step))
        .collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    metrics.set("bench.failed_share", failed as f64 / attempted as f64);
    let mut p50: Vec<f64> = traced
        .iter()
        .map(|r| r.latency_percentile_ms(0.50))
        .collect();
    notes.push(format!(
        "serve passes: plain {plain_eps:.0} / traced {traced_eps:.0} / metrics-off {bare_eps:.0} events/s; traced lat_p50 {:.3} ms; generator late p99 {late_p99:.3} ms; server trace segments sum to {:.3} of their additive total over {} epochs",
        median(&mut p50),
        seg_ns.iter().sum::<f64>() / seg_total,
        traced.iter().map(|r| r.traces.len()).sum::<usize>(),
    ));
    let served = Traced {
        attempted,
        failed,
        conserved: all.iter().all(|r| r.conserved),
    };
    (served, plain_eps)
}

// ---------------------------------------------------------------------------
// core + graph: the single-threaded engine over the stream's head
// ---------------------------------------------------------------------------

struct EnginePass {
    events_per_s: f64,
    /// sample, memory, gnn, update.
    stage_ns_per_event: [f64; 4],
    /// Per-batch row counts: vertices with a GRU update, touched vertices,
    /// sampled neighbours.
    gru_rows: Vec<f64>,
    touched: Vec<f64>,
    neighbors: Vec<f64>,
    workloads: Vec<BatchWorkload>,
    /// Gathered GNN jobs of every [`BACKEND_EVERY`]-th batch.
    jobs: Vec<GnnJobBatch>,
    /// The engine after the pass: the state the snapshot codecs encode.
    engine: InferenceEngine,
    events: Vec<InteractionEvent>,
}

fn engine_pass(
    inputs: &Inputs,
    int8_model: &TgnModel,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> EnginePass {
    let graph = &inputs.graph;
    let cfg: ModelConfig = inputs.model.config.clone();
    let n = ENGINE_EVENTS.min(graph.num_events());
    let events: Vec<InteractionEvent> = (0..n as u64).map(|i| inputs.feed.event(i)).collect();
    let max_batch = ServeConfig::default().max_batch;
    let batches: Vec<EventBatch> = events
        .chunks(max_batch)
        .map(|c| EventBatch::new(c.to_vec()))
        .collect();
    let mut f32_model = inputs.model.clone();
    f32_model.detach_quantized();

    // One engine, alternating batch by batch between `process_batch` as a
    // single call (the single-threaded baseline) and its four stage entry
    // points called one by one.  Both see the same engine states under the
    // same host conditions, so the stage rows must add up to the baseline.
    let fresh =
        || InferenceEngine::new(f32_model.clone(), graph.num_nodes()).with_mode(ExecMode::Batched);
    let mut alternating = fresh();
    let (mut whole_events, mut staged_events) = (0usize, 0usize);
    let pass = tracer.enter("core.engine", 0);
    for (i, batch) in batches.iter().enumerate() {
        let epoch = i as u64 + 1;
        if i % 2 == 0 {
            whole_events += batch.len();
            black_box(tracer.span("core.process_batch", epoch, |_| {
                alternating.process_batch(batch, graph)
            }));
        } else {
            staged_events += batch.len();
            let b = tracer.enter("core.batch", epoch);
            let sampled = tracer.span("core.sample", epoch, |_| alternating.stage_sample(batch));
            let updated = tracer.span("core.memory", epoch, |_| {
                alternating.stage_memory(&sampled, graph)
            });
            black_box(tracer.span("core.gnn", epoch, |_| {
                alternating.stage_gnn(&sampled, &updated, graph)
            }));
            tracer.span("core.update", epoch, |_| {
                alternating.stage_update(&sampled, &updated)
            });
            tracer.exit(b);
        }
    }
    tracer.exit(pass);
    drop(alternating);
    let engine_ns_per_event = tracer.total("core.process_batch").1 as f64 / whole_events as f64;
    metrics.set("core.engine.ns_per_event", engine_ns_per_event);
    metrics.set("core.engine.events_per_s", 1e9 / engine_ns_per_event);

    // A second pass for the calls the serving pipeline makes around those stages —
    // the gather, the sharded table and memory, both compute backends — on
    // the states an engine goes through (its own stage calls are untimed).
    let mut engine = fresh();
    let f32_backend = F32Backend::new(&f32_model);
    let int8_backend = Int8Backend::new(int8_model);
    let shards = ServeConfig::default().num_shards;
    let memory = ShardedMemory::for_config(graph.num_nodes(), &cfg, shards);
    let table = ShardedNeighborTable::new(graph.num_nodes(), cfg.sampled_neighbors, shards);
    let mut ws = Workspace::new();
    let mut sampled_out = Vec::new();
    let (mut gru_rows, mut touched, mut neighbors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut workloads, mut jobs) = (Vec::new(), Vec::new());
    let mut backend_vertices = 0usize;
    let pass = tracer.enter("core.around_stages", 0);
    for (i, batch) in batches.iter().enumerate() {
        let epoch = i as u64 + 1;
        let sampled = engine.stage_sample(batch);
        let updated = engine.stage_memory(&sampled, graph);
        let job = tracer.span("core.gather", epoch, |_| {
            GnnJobBatch::gather(&sampled, &updated, graph, &cfg, |v, dst| {
                dst.copy_from_slice(engine.memory().memory_of(v))
            })
        });
        if i % BACKEND_EVERY == 0 {
            backend_vertices += job.len();
            black_box(tracer.span("core.backend_f32.gnn", epoch, |_| {
                f32_backend.run_gnn(&job, &mut ws)
            }));
            black_box(tracer.span("core.backend_int8.gnn", epoch, |_| {
                int8_backend.run_gnn(&job, &mut ws)
            }));
        }
        engine.stage_update(&sampled, &updated);

        // graph: the sharded table's sample and commit calls on this batch.
        tracer.span("graph.sample", epoch, |_| {
            for (&v, &t) in sampled.touched.iter().zip(&sampled.query_times) {
                sampled_out.clear();
                table.sample_into(v, t, cfg.sampled_neighbors, &mut sampled_out);
                black_box(sampled_out.len());
            }
        });
        tracer.span("graph.commit", epoch, |_| {
            table.commit_epoch(epoch, batch.events())
        });
        // core: the sharded memory's commit of the batch's write-backs.
        let writes: Vec<(NodeId, Vec<Float>, Timestamp)> = updated
            .iter()
            .map(|(&v, row)| (v, row.clone(), sampled.query_time_of(v)))
            .collect();
        tracer.span("core.memory_commit", epoch, |_| {
            memory.commit_epoch(epoch, &writes)
        });

        let budget = cfg.neighbor_budget;
        workloads.push(BatchWorkload {
            edges: batch.len(),
            memory_updates: updated.len(),
            embeddings: sampled.len(),
            neighbors_fetched: (0..sampled.len())
                .map(|v| sampled.neighbors_of(v).len().min(budget))
                .sum(),
            neighbors_scored: sampled.total_sampled(),
        });
        gru_rows.push(updated.len() as f64);
        touched.push(sampled.len() as f64);
        neighbors.push(sampled.total_sampled() as f64);
        if i % BACKEND_EVERY == 0 {
            jobs.push(job);
        }
    }
    tracer.exit(pass);

    let per_event = |tracer: &Tracer, name: &str| tracer.total(name).1 as f64 / n as f64;
    let staged = |name: &str| tracer.total(name).1 as f64 / staged_events as f64;
    let stage_ns_per_event = [
        staged("core.sample"),
        staged("core.memory"),
        staged("core.gnn"),
        staged("core.update"),
    ];
    for (name, value) in [
        "core.sample.ns_per_event",
        "core.memory.ns_per_event",
        "core.gnn.ns_per_event",
        "core.update.ns_per_event",
    ]
    .into_iter()
    .zip(stage_ns_per_event)
    {
        metrics.set(name, value);
    }
    let all_touched: f64 = touched.iter().sum();
    let all_neighbors: f64 = neighbors.iter().sum();
    metrics.set("core.touched_per_event", all_touched / n as f64);
    metrics.set("core.neighbors_per_vertex", all_neighbors / all_touched);
    metrics.set(
        "core.gather.ns_per_vertex",
        tracer.total("core.gather").1 as f64 / all_touched,
    );
    metrics.set(
        "core.memory_commit.ns_per_event",
        per_event(tracer, "core.memory_commit"),
    );
    metrics.set(
        "graph.sample.ns_per_vertex",
        tracer.total("graph.sample").1 as f64 / all_touched,
    );
    metrics.set(
        "graph.commit.ns_per_event",
        per_event(tracer, "graph.commit"),
    );
    for (span, name) in [
        ("core.backend_f32.gnn", "core.backend_f32.gnn.ns_per_vertex"),
        (
            "core.backend_int8.gnn",
            "core.backend_int8.gnn.ns_per_vertex",
        ),
    ] {
        metrics.set(name, tracer.total(span).1 as f64 / backend_vertices as f64);
    }

    let stage_sum: f64 = stage_ns_per_event.iter().sum();
    notes.push(format!(
        "engine pass: {n} events in {} batches; stage rows sum to {stage_sum:.0} ns/event vs {engine_ns_per_event:.0} for process_batch ({:+.1}%, must be within 5%)",
        batches.len(),
        (stage_sum / engine_ns_per_event - 1.0) * 100.0
    ));
    EnginePass {
        events_per_s: 1e9 / engine_ns_per_event,
        stage_ns_per_event,
        gru_rows,
        touched,
        neighbors,
        workloads,
        jobs,
        engine,
        events,
    }
}

// ---------------------------------------------------------------------------
// tensor, nn, graph, serve::queue, durable, obs: kernels and primitives
// ---------------------------------------------------------------------------

/// Calls `f` for about [`KERNEL_BUDGET`] inside one span; nanoseconds per call.
fn time_calls(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let pilot = Instant::now();
    let mut calls = 0u32;
    while pilot.elapsed() < KERNEL_BUDGET / 8 {
        f();
        calls += 1;
    }
    let calls = calls * 7;
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    let end = Instant::now();
    tracer.record(name, start, end, 0);
    (end - start).as_nanos() as f64 / calls as f64
}

/// Pushes items through a bounded queue from a producer thread to this one;
/// nanoseconds per item.  `send` owns the sending end, so the queue closes
/// when the producer is done.
fn queue_ns_per_item(
    tracer: &mut Tracer,
    name: &'static str,
    mut send: impl FnMut(u64) -> bool + Send,
    mut recv: impl FnMut() -> Option<u64>,
) -> f64 {
    const ITEMS: u64 = 50_000;
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..ITEMS {
                assert!(send(i), "the receiving end outlives the producer");
            }
        });
        while let Some(i) = recv() {
            black_box(i);
        }
    });
    let end = Instant::now();
    tracer.record(name, start, end, 0);
    (end - start).as_nanos() as f64 / ITEMS as f64
}

fn kernels(
    inputs: &Inputs,
    engine: &EnginePass,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let cfg = &inputs.model.config;
    let mut rng = TensorRng::new(inputs.seed);
    let mut ws = Workspace::new();
    let med = |v: &[f64]| (median(&mut v.to_vec()) as usize).max(1);
    let (m_gru, m_kv, m_q) = (
        med(&engine.gru_rows),
        med(&engine.neighbors),
        med(&engine.touched),
    );
    let n = cfg.memory_dim;

    // tensor: the three projection shapes of a batch, M = the workload's
    // median rows per batch, K = the layer's input width, N = memory_dim.
    // (label, M, K, then span / ns_per_call / gflops of the f32 kernel and
    // span / ns_per_call of the int8 one).
    let shapes = [
        (
            ("gru_in", m_gru, cfg.message_dim()),
            (
                "tensor.gemm_f32.gru_in",
                "tensor.gemm_f32.gru_in.ns_per_call",
                "tensor.gemm_f32.gru_in.gflops",
            ),
            ("tensor.gemm_i8.gru_in", "tensor.gemm_i8.gru_in.ns_per_call"),
        ),
        (
            ("attn_kv", m_kv, cfg.neighbor_input_dim()),
            (
                "tensor.gemm_f32.attn_kv",
                "tensor.gemm_f32.attn_kv.ns_per_call",
                "tensor.gemm_f32.attn_kv.gflops",
            ),
            (
                "tensor.gemm_i8.attn_kv",
                "tensor.gemm_i8.attn_kv.ns_per_call",
            ),
        ),
        (
            ("attn_q", m_q, cfg.query_input_dim()),
            (
                "tensor.gemm_f32.attn_q",
                "tensor.gemm_f32.attn_q.ns_per_call",
                "tensor.gemm_f32.attn_q.gflops",
            ),
            ("tensor.gemm_i8.attn_q", "tensor.gemm_i8.attn_q.ns_per_call"),
        ),
    ];
    for ((label, m, k), (f32_span, ns_name, gflops_name), (i8_span, i8_name)) in shapes {
        let a = rng.normal_matrix(m, k, 0.5);
        let bt = rng.xavier_matrix(n, k);
        let mut c = Matrix::zeros(m, n);
        let ns = time_calls(tracer, f32_span, || {
            matmul_packed_transb_into(black_box(&a), &bt, &mut c, &mut ws);
            black_box(c.as_slice());
        });
        let flops = 2.0 * (m * k * n) as f64;
        metrics.set(ns_name, ns);
        metrics.set(gflops_name, flops / ns);

        // int8: activation quantization plus the dequant-fused product.
        let kp = padded_k(k);
        let weights: Vec<i8> = bt.as_slice().iter().map(|w| (w * 100.0) as i8).collect();
        let mut packed = vec![0i8; packed_rhs_len(n, k)];
        pack_rhs_i8(&weights, n, k, &mut packed);
        let scales = vec![1e-4 as Float; n];
        let mut a_q = vec![0i8; m * kp];
        let i8_ns = time_calls(tracer, i8_span, || {
            for row in 0..m {
                quantize_slice_into(a.row(row), 0.02, &mut a_q[row * kp..(row + 1) * kp]);
            }
            matmul_i8_dequant_into(&a_q, m, k, &packed, n, &scales, None, &mut c);
            black_box(c.as_slice());
        });
        metrics.set(i8_name, i8_ns);
        notes.push(format!(
            "tensor {label}: M={m} K={k} N={n}, {:.3} MFLOP and {} bytes (A+B+C, f32) per call — computed from the dimensions; f32 {ns:.0} ns, int8 {i8_ns:.0} ns",
            flops / 1e6,
            4 * (m * k + n * k + m * n),
        ));
    }

    // nn: the model's own GRU, both aggregators, both time encoders.
    let messages = rng.normal_matrix(m_gru, cfg.message_dim(), 0.5);
    let hidden = rng.normal_matrix(m_gru, cfg.memory_dim, 0.5);
    let gru_ns = time_calls(tracer, "nn.gru", || {
        let next = inputs.model.gru.forward_ws(&messages, &hidden, &mut ws);
        black_box(next.as_slice());
        ws.recycle_matrix(next);
    });
    metrics.set("nn.gru.ns_per_row", gru_ns / m_gru as f64);

    let slots = cfg.sampled_neighbors;
    let query = rng.normal_matrix(1, cfg.query_input_dim(), 0.5);
    let neighbor_input = rng.normal_matrix(slots, cfg.neighbor_input_dim(), 0.5);
    let vanilla = VanillaAttention::new(
        "bench.vanilla",
        cfg.query_input_dim(),
        cfg.neighbor_input_dim(),
        cfg.memory_dim,
        cfg.memory_dim,
        &mut rng,
    );
    metrics.set(
        "nn.attn_vanilla.ns_per_vertex",
        time_calls(tracer, "nn.attn_vanilla", || {
            black_box(vanilla.forward_ws(&query, &neighbor_input, &mut ws));
        }),
    );
    let simplified = SimplifiedAttention::new(
        "bench.simplified",
        slots,
        cfg.neighbor_input_dim(),
        cfg.memory_dim,
        cfg.time_scale,
        &mut rng,
    );
    // Δt as the stream has them: the per-vertex gaps the LUT is calibrated on.
    let deltas = tgnn_data::delta_t::memory_delta_t(&engine.events, inputs.graph.num_nodes());
    let dt_slots: Vec<Float> = deltas.iter().copied().take(slots).collect();
    // +NP(M)'s pruning budget whatever the workload's own variant keeps.
    let budget = 4.min(slots);
    metrics.set(
        "nn.attn_simplified.ns_per_vertex",
        time_calls(tracer, "nn.attn_simplified", || {
            black_box(simplified.forward_ws(&dt_slots, &neighbor_input, budget, &mut ws));
        }),
    );
    let dts: Vec<Float> = deltas.iter().copied().take(4096).collect();
    let cos = CosTimeEncoder::new("bench.cos", cfg.time_dim, &mut rng);
    let lut = LutTimeEncoder::calibrate("bench.lut", &deltas, cfg.lut_bins, &cos);
    let mut encoded = Matrix::zeros(dts.len(), cfg.time_dim);
    let cos_ns = time_calls(tracer, "nn.time_cos", || {
        cos.forward_into(black_box(&dts), &mut encoded);
        black_box(encoded.as_slice());
    });
    metrics.set("nn.time_cos.ns_per_dt", cos_ns / dts.len() as f64);
    let lut_ns = time_calls(tracer, "nn.time_lut", || {
        lut.forward_into(black_box(&dts), &mut encoded);
        black_box(encoded.as_slice());
    });
    metrics.set("nn.time_lut.ns_per_dt", lut_ns / dts.len() as f64);

    // graph: one commit → wait_for hand-off each way between two threads.
    const ROUND_TRIPS: u64 = 10_000;
    let gate = EpochGate::new(2);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for e in 1..=ROUND_TRIPS {
                gate.wait_for(0, e);
                gate.commit(1, e);
            }
        });
        for e in 1..=ROUND_TRIPS {
            gate.commit(0, e);
            gate.wait_for(1, e);
        }
    });
    let end = Instant::now();
    tracer.record("graph.gate", start, end, 0);
    metrics.set(
        "graph.gate.roundtrip_ns",
        (end - start).as_nanos() as f64 / ROUND_TRIPS as f64,
    );

    // serve: the bounded queues between stages, capacity as the stage queues
    // have it, one producer and one consumer thread.
    let capacity = ServeConfig::default().stage_capacity;
    let (tx, rx) = channel::<u64>("bench.spsc", capacity);
    let ns = queue_ns_per_item(
        tracer,
        "serve.queue_spsc",
        move |i| tx.send(i).is_ok(),
        || rx.recv(),
    );
    metrics.set("serve.queue_spsc.ns_per_item", ns);
    let (tx, rx) = mpmc_channel::<u64>("bench.mpmc", capacity);
    let ns = queue_ns_per_item(
        tracer,
        "serve.queue_mpmc",
        move |i| tx.send(i).is_ok(),
        || rx.recv(),
    );
    metrics.set("serve.queue_mpmc.ns_per_item", ns);

    // durable: WAL appends (no fsync), a seal-sized flush with fsync, and
    // the snapshot codecs on the engine pass's final state.
    let dir = inputs
        .scratch
        .join(format!("wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = |i: usize| WalRecord::Admit {
        tenant: 0,
        event: engine.events[i % engine.events.len()],
        disposition: AdmitDisposition::Admitted,
    };
    let segment_bytes = tgnn_serve::DurabilityConfig::new(&dir).segment_bytes;
    let open = |sub: &str, policy: FsyncPolicy| {
        Wal::open(&dir.join(sub), 0, segment_bytes, policy)
            .unwrap_or_else(|e| panic!("cannot open a WAL under {}: {e}", dir.display()))
    };
    let wal = open("never", FsyncPolicy::Never);
    let mut i = 0;
    let append_ns = time_calls(tracer, "durable.wal.append", || {
        wal.append(&record(i)).expect("WAL append");
        i += 1;
    });
    metrics.set("durable.wal.append.ns_per_record", append_ns);
    let wal = open("onseal", FsyncPolicy::OnSeal);
    let max_batch = ServeConfig::default().max_batch;
    let mut flush_us: Vec<f64> = (0..15)
        .map(|round| {
            for i in 0..max_batch {
                wal.append(&record(round * max_batch + i))
                    .expect("WAL append");
            }
            let start = Instant::now();
            wal.flush_seal().expect("WAL flush");
            let end = Instant::now();
            tracer.record("durable.wal.flush_seal", start, end, round as u64 + 1);
            (end - start).as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("durable.wal.flush_seal.us", median(&mut flush_us));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let sampler = FifoSampler::from_events(
        inputs.graph.num_nodes(),
        cfg.sampled_neighbors,
        &engine.events,
    );
    let mut buf = Vec::new();
    let start = Instant::now();
    encode_memory_shard(engine.engine.memory(), &mut buf);
    encode_neighbor_shard(sampler.table(), &mut buf);
    let end = Instant::now();
    black_box(buf.len());
    tracer.record("durable.snapshot.encode", start, end, 0);
    metrics.set(
        "durable.snapshot.encode_ms",
        (end - start).as_secs_f64() * 1e3,
    );

    // obs: the two recording calls on the pipeline's hot path.
    let hist = Histogram::new();
    let mut v = 1u64;
    metrics.set(
        "obs.hist.record.ns",
        time_calls(tracer, "obs.hist.record", || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        }),
    );
    black_box(hist.count());
    let slab = TraceSlab::new(1024);
    let mut epoch = 0u64;
    metrics.set(
        "obs.trace.record.ns",
        time_calls(tracer, "obs.trace.record", || {
            // A traced epoch records about eight segments after its `begin`.
            if epoch.is_multiple_of(8) {
                slab.begin(epoch / 8 + 1);
            }
            slab.record(
                epoch / 8 + 1,
                (epoch % 8) as u8,
                Duration::from_micros(epoch % 1000),
            );
            epoch += 1;
        }),
    );
    black_box(slab.begun());
}

// ---------------------------------------------------------------------------
// hwsim: the paper's performance model on the workload's measured batches
// ---------------------------------------------------------------------------

fn hwsim(
    inputs: &Inputs,
    engine: &EnginePass,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let cfg = inputs.model.config.clone();
    let (design, ddr) = (DesignConfig::u200(), DdrModel::new_gbps(77.0));
    let pipeline = PipelineModel::new(design.clone(), cfg.clone(), ddr.clone());
    // Simulated time: a pure function of the measured batch workloads.
    let mean_latency = engine
        .workloads
        .iter()
        .map(|w| pipeline.batch_latency(&pipeline.split_workload(w)))
        .sum::<f64>()
        / engine.workloads.len() as f64;
    metrics.set("hwsim.sim.batch_latency_us", mean_latency * 1e6);
    let max_batch = ServeConfig::default().max_batch;
    metrics.set(
        "hwsim.sim.events_per_s",
        PerformanceModel::new(design, cfg, ddr)
            .predict(max_batch)
            .throughput_eps,
    );

    // Host time: what asking the model costs the serving path per batch.
    let backend = HwSimBackend::u200(&inputs.model);
    let mut job = 0;
    metrics.set(
        "hwsim.host.ns_per_batch",
        time_calls(tracer, "hwsim.host", || {
            black_box(backend.modeled_latency(&engine.jobs[job % engine.jobs.len()]));
            job += 1;
        }),
    );

    // The modelled memory-update : embedding split against the measured one.
    let (mut muu, mut eu) = (0.0, 0.0);
    for w in &engine.workloads {
        let b = pipeline.stage_breakdown(w);
        muu += b.muu_time_encoding + b.muu_gates;
        eu += b.eu_attention + b.eu_time_encoding + b.eu_aggregation + b.eu_transformation;
    }
    let [_, memory_ns, gnn_ns, _] = engine.stage_ns_per_event;
    let (modelled, measured) = (muu / (muu + eu), memory_ns / (memory_ns + gnn_ns));
    metrics.set("hwsim.stage_share_err", (modelled - measured).abs());
    notes.push(format!(
        "hwsim (model unvalidated: no FPGA reference measurements in the repo): memory share of memory+GNN time modelled {modelled:.3} vs measured {measured:.3} on the host CPU"
    ));
}
