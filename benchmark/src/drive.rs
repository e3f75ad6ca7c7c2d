//! The load generator: one thread that calls `submit`/`poll`/`drain` on a
//! fresh `StreamServer`, times every event from its start-of-latency clock
//! to the return of the `poll` that delivers it, and checks conservation.

use crate::stats::{percentile_sorted, tail_supported};
use crate::trace::{SpanId, Tracer};
use crate::workload::{due_ns, Arrival, LappedFeed, Workload};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_core::TgnModel;
use tgnn_graph::TemporalGraph;
use tgnn_serve::{ServeReport, ServedBatch, StreamServer, SubmitOutcome, TraceView};

/// Everything a repetition needs that does not change between repetitions.
pub struct Inputs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub graph: Arc<TemporalGraph>,
    /// The event stream fed to the server.
    pub feed: LappedFeed,
    /// The model handed to `StreamServer::new` (int8 weight set attached on
    /// the production workload).
    pub model: TgnModel,
    /// Scratch directory for WAL/snapshot files (one sub-directory per
    /// repetition, removed afterwards).
    pub scratch: PathBuf,
}

/// When a repetition stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    Events(u64),
}

pub struct RepOptions<'a> {
    pub stop: Stop,
    pub arrival: Arrival,
    /// `ServeConfig::metrics`.
    pub metrics: bool,
    /// Record driver spans (the traced run).
    pub tracer: Option<&'a mut Tracer>,
    /// Keep the served batches (the identity replay needs them).
    pub keep_batches: bool,
}

/// An event handed to `submit` and not yet delivered.
struct InFlight {
    /// Start of the latency clock: due time (paced) or hand-off (closed).
    clock: Instant,
    edge_id: u32,
    timestamp: f64,
    submit_span: Option<SpanId>,
}

pub struct RepOutcome {
    /// Events handed to `submit`.
    pub attempted: u64,
    /// Submit errors and refusals, events never delivered, and delivered
    /// events that are not the next one their tenant submitted.
    pub failed: u64,
    pub delivered: u64,
    /// First `submit` → end of `drain` and the final `poll`s.
    pub wall: Duration,
    /// Per-event latency in milliseconds, ascending.
    pub latency_ms: Vec<f64>,
    /// How late the paced generator handed each event over, ascending
    /// (empty in a closed loop).
    pub late_ms: Vec<f64>,
    pub report: ServeReport,
    /// The server's causal traces of the last ≤ 1024 epochs.
    pub traces: Vec<TraceView>,
    pub served: Vec<ServedBatch>,
    pub submit_ns: u64,
    pub poll_calls: u64,
    pub poll_empty: u64,
    pub poll_ns: u64,
    pub new_time: Duration,
    pub drain_time: Duration,
    /// OS threads of the process while the server was up.
    pub threads: u64,
    /// `submitted == served + dropped` per tenant, nothing left in flight,
    /// and (single tenant) a clean commit log.
    pub conserved: bool,
}

impl RepOutcome {
    pub fn events_per_s(&self) -> f64 {
        self.delivered as f64 / self.wall.as_secs_f64()
    }

    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        assert!(
            tail_supported(self.latency_ms.len(), q),
            "p{} of {} latency samples has fewer than ten samples beyond it",
            q * 100.0,
            self.latency_ms.len()
        );
        percentile_sorted(&self.latency_ms, q)
    }
}

/// Runs one repetition on a fresh server.
pub fn run_rep(inputs: &Inputs, rep: usize, mut opts: RepOptions) -> RepOutcome {
    let w = inputs.workload;
    let wal_dir = w.production.then(|| {
        inputs
            .scratch
            .join(format!("wal-{}-{rep}", std::process::id()))
    });
    if let Some(dir) = &wal_dir {
        // A leftover log would make `StreamServer::new` refuse the directory.
        let _ = std::fs::remove_dir_all(dir);
    }
    let config = w.serve_config(wal_dir.clone(), opts.metrics);
    let rep_span = opts.tracer.as_mut().map(|t| t.enter("bench.rep", 0));

    let new_start = Instant::now();
    let mut server = StreamServer::new(inputs.model.clone(), inputs.graph.clone(), config);
    let new_end = Instant::now();
    if let Some(t) = opts.tracer.as_mut() {
        t.record("serve.new", new_start, new_end, 0);
    }
    let threads = process_threads();

    let feed = &inputs.feed;
    let mut d = Driver {
        server: &mut server,
        tracer: opts.tracer,
        in_flight: (0..w.tenants()).map(|_| VecDeque::new()).collect(),
        latency_ms: Vec::new(),
        served: Vec::new(),
        keep_batches: opts.keep_batches,
        attempted: 0,
        failed: 0,
        delivered: 0,
        submit_ns: 0,
        poll_calls: 0,
        poll_empty: 0,
        poll_ns: 0,
    };
    let mut late_ms = Vec::new();

    let start = Instant::now();
    match opts.arrival {
        Arrival::Closed => {
            let mut i = 0u64;
            loop {
                let now = Instant::now();
                let done = match opts.stop {
                    Stop::After(limit) => now.duration_since(start) >= limit,
                    Stop::Events(n) => i >= n,
                };
                if done {
                    break;
                }
                d.submit(w, inputs.seed, feed, i, now, now);
                d.pump();
                i += 1;
            }
        }
        Arrival::Paced { events_per_s } => {
            let total = match opts.stop {
                Stop::After(limit) => (limit.as_secs_f64() * events_per_s) as u64,
                Stop::Events(n) => n,
            };
            for i in 0..total {
                let due = start + Duration::from_nanos(due_ns(i, events_per_s));
                // Sleep-paced: the generator never spins, so it takes no
                // core from the server; an overslept event goes out at once.
                let now = loop {
                    d.pump();
                    let now = Instant::now();
                    match due.checked_duration_since(now) {
                        Some(wait) if !wait.is_zero() => std::thread::sleep(wait),
                        _ => break now,
                    }
                };
                late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                d.submit(w, inputs.seed, feed, i, due, now);
            }
        }
    }

    let drain_start = Instant::now();
    let report = d.server.drain();
    let drain_end = Instant::now();
    if let Some(t) = d.tracer.as_mut() {
        t.record("serve.drain", drain_start, drain_end, 0);
    }
    d.pump();
    let wall = start.elapsed();

    let undelivered: u64 = d.in_flight.iter().map(|q| q.len() as u64).sum();
    let failed = d.failed + undelivered;
    let conserved = undelivered == 0
        && report
            .tenants
            .iter()
            .all(|t| t.counters.submitted == t.served + t.dropped())
        && (w.production || report.commit_log_clean);

    let Driver {
        tracer,
        mut latency_ms,
        served,
        attempted,
        delivered,
        submit_ns,
        poll_calls,
        poll_empty,
        poll_ns,
        ..
    } = d;
    latency_ms.sort_by(f64::total_cmp);
    late_ms.sort_by(f64::total_cmp);
    let traces = server.metrics_hub().trace_dump();
    drop(server);
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let (Some(t), Some(id)) = (tracer, rep_span) {
        t.exit(id);
    }

    RepOutcome {
        attempted,
        failed,
        delivered,
        wall,
        latency_ms,
        late_ms,
        report,
        traces,
        served,
        submit_ns,
        poll_calls,
        poll_empty,
        poll_ns,
        new_time: new_end - new_start,
        drain_time: drain_end - drain_start,
        threads,
        conserved,
    }
}

struct Driver<'s, 't> {
    server: &'s mut StreamServer,
    tracer: Option<&'t mut Tracer>,
    /// Per tenant, in submission order: each tenant's results come back in
    /// the order it submitted, whatever the scheduler interleaves.
    in_flight: Vec<VecDeque<InFlight>>,
    latency_ms: Vec<f64>,
    served: Vec<ServedBatch>,
    keep_batches: bool,
    attempted: u64,
    failed: u64,
    delivered: u64,
    submit_ns: u64,
    poll_calls: u64,
    poll_empty: u64,
    poll_ns: u64,
}

impl Driver<'_, '_> {
    /// Hands event `index` to `submit_for`; `clock` starts its latency and
    /// `now` is the reading the caller just took.
    fn submit(
        &mut self,
        w: &Workload,
        seed: u64,
        feed: &LappedFeed,
        index: u64,
        clock: Instant,
        now: Instant,
    ) {
        let event = feed.event(index);
        let tenant = w.tenant_of(index, seed);
        self.attempted += 1;
        let outcome = self.server.submit_for(tenant, event);
        let submit_span = self.tracer.as_mut().map(|t| {
            let end = Instant::now();
            self.submit_ns += end.duration_since(now).as_nanos() as u64;
            t.record("serve.submit", now, end, 0)
        });
        match outcome {
            Ok(SubmitOutcome::Admitted) => self.in_flight[tenant.index()].push_back(InFlight {
                clock,
                edge_id: event.edge_id,
                timestamp: event.timestamp,
                submit_span,
            }),
            // Every tenant runs `Block`, so a refusal is a failure too.
            Ok(_) | Err(_) => self.failed += 1,
        }
    }

    /// Polls until the server has nothing more to hand back.
    fn pump(&mut self) {
        loop {
            let poll_start = self.tracer.is_some().then(Instant::now);
            let polled = self.server.poll();
            let at = Instant::now();
            self.poll_calls += 1;
            if let Some(start) = poll_start {
                self.poll_ns += at.duration_since(start).as_nanos() as u64;
            }
            let Some(batch) = polled else {
                self.poll_empty += 1;
                return;
            };
            if let (Some(t), Some(start)) = (self.tracer.as_mut(), poll_start) {
                t.record("serve.poll", start, at, batch.epoch);
            }
            for (event, meta) in batch.events.iter().zip(&batch.metas) {
                let expected = self.in_flight[meta.tenant.index()].pop_front();
                match expected {
                    Some(f) if f.edge_id == event.edge_id && f.timestamp == event.timestamp => {
                        self.delivered += 1;
                        self.latency_ms
                            .push(at.duration_since(f.clock).as_secs_f64() * 1e3);
                        if let (Some(t), Some(id)) = (self.tracer.as_mut(), f.submit_span) {
                            t.set_batch(id, batch.epoch);
                        }
                    }
                    // Not the event this tenant is owed next: count it and
                    // put the owed one back so the mismatch shows once.
                    other => {
                        self.failed += 1;
                        if let Some(f) = other {
                            self.in_flight[meta.tenant.index()].push_front(f);
                        }
                    }
                }
            }
            if self.keep_batches {
                self.served.push(batch);
            }
        }
    }
}

/// OS thread count of this process (`Threads:` in `/proc/self/status`).
pub fn process_threads() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
