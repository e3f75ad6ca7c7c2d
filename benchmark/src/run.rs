//! One benchmark run: set-up, the warm-up lap with its identity check, then
//! either the timed repetitions (end-to-end metrics) or the traced passes
//! (per-layer metrics).

use crate::catalogue::Metrics;
use crate::drive::{peak_rss_mb, run_rep, Inputs, RepOptions, RepOutcome, Stop};
use crate::layers;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::verify::replay_identity;
use crate::workload::{calibrate_int8, Arrival, LappedFeed, Workload, IDENTITY_EVENTS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgnn_serve::StreamServer;

/// Timed repetitions of an untraced run; `--seconds` is split among them.
pub const REPETITIONS: usize = 5;
/// Times the set-up is performed; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Share of the preset's size (1.0, or 0.02 under `--smoke`).
    pub scale: f64,
    pub repetitions: usize,
    /// The benchmark package's directory: `out/` below it takes the trace
    /// file and the WAL scratch.
    pub home: PathBuf,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Quartiles and sample counts beside the medians, for the log.
    pub notes: Vec<String>,
}

/// What set-up produces, and when its parts started and ended.
pub struct SetUp {
    pub inputs: Inputs,
    pub generate: (Instant, Instant),
    /// Production workload only.
    pub calibrate_int8: Option<(Instant, Instant)>,
    pub total: Duration,
}

/// Everything between process start and the first `submit`: dataset
/// generation, model build, LUT calibration, int8 calibration (production
/// workload) and a first `StreamServer::new`.
pub fn set_up(args: &RunArgs) -> SetUp {
    let w = args.workload;
    let start = Instant::now();
    let graph = Arc::new(w.generate(args.scale));
    let generate = (start, Instant::now());
    let mut model = w.build_model(&graph, args.seed);
    let calibrate = w.production.then(|| {
        let at = Instant::now();
        model.attach_quantized(calibrate_int8(&model, &graph));
        (at, Instant::now())
    });
    // The server is only built to be timed; `drain` joins its workers.
    let mut server = StreamServer::new(model.clone(), graph.clone(), w.serve_config(None, true));
    let total = start.elapsed();
    server.drain();
    SetUp {
        inputs: Inputs {
            workload: w,
            seed: args.seed,
            feed: LappedFeed::new(graph.clone(), args.seed),
            graph,
            model,
            scratch: args.home.join("out"),
        },
        generate,
        calibrate_int8: calibrate,
        total,
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let started = Instant::now();

    // Set up several times and report the median; each round drops the
    // previous round's inputs first, so peak memory is one round's.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_ROUNDS {
        drop(setup.take());
        let round = set_up(args);
        setup_s.push(round.total.as_secs_f64());
        setup = Some(round);
    }
    let setup = setup.expect("at least one set-up round");
    let inputs = &setup.inputs;
    notes.push(format!(
        "setup_s rounds {setup_s:?}; graph {} nodes / {} events",
        inputs.graph.num_nodes(),
        inputs.graph.num_events()
    ));

    // Warm-up lap, outside the timed region: serve the head of the stream
    // once, then replay it through the reference engine.
    let head = IDENTITY_EVENTS.min(inputs.graph.num_events()) as u64;
    let warm = run_rep(
        inputs,
        0,
        RepOptions {
            stop: Stop::Events(head),
            arrival: Arrival::Closed,
            metrics: true,
            tracer: None,
            keep_batches: true,
        },
    );
    let identity = replay_identity(inputs, &warm.served);
    let mut correct = warm.conserved && warm.failed == 0;
    match &identity {
        Ok(id) => notes.push(format!(
            "identity: {} embeddings of {} events in {} batches ({} on int8) bit-identical to InferenceEngine",
            id.embeddings, id.events, id.batches, id.int8_batches
        )),
        Err(e) => {
            correct = false;
            notes.push(format!("IDENTITY VIOLATION: {e}"));
        }
    }
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;

    if args.trace {
        let mut tracer = Tracer::new(started);
        let traced = layers::traced_run(args, &setup, &mut tracer, &mut metrics, &mut notes);
        attempted += traced.attempted;
        failed += traced.failed;
        correct &= traced.conserved;
    } else {
        let timed = |rep: usize| {
            run_rep(
                inputs,
                rep,
                RepOptions {
                    stop: Stop::After(Duration::from_secs_f64(
                        args.seconds / args.repetitions as f64,
                    )),
                    arrival: w.arrival,
                    metrics: true,
                    tracer: None,
                    keep_batches: false,
                },
            )
        };
        // One discarded repetition first: the pipeline's threads run about
        // a third slower for their first second or two after the
        // single-threaded replay above.
        let discarded = timed(1);
        // Peak memory is read here, after one full serving session on top of
        // the inputs: every further server this process builds leaves
        // allocator garbage behind whose amount depends on thread timing
        // (±10 % of the total by the last repetition), and a deployment
        // runs one server, not seven in a row.
        metrics.set("peak_rss_mb", peak_rss_mb());
        let reps: Vec<RepOutcome> = (2..args.repetitions + 2).map(timed).collect();
        for r in std::iter::once(&discarded).chain(&reps) {
            attempted += r.attempted;
            failed += r.failed;
            correct &= r.conserved;
        }
        let mut over_reps = |name: &'static str, f: &dyn Fn(&RepOutcome) -> f64| {
            let mut values: Vec<f64> = reps.iter().map(f).collect();
            let note = if values.len() >= 2 {
                let [q1, _, q3] = quartiles(&values);
                format!("quartiles {q1:.4}..{q3:.4}")
            } else {
                "one repetition".to_string()
            };
            let m = median(&mut values);
            notes.push(format!(
                "{name}: median {m:.4} of {} repetitions, {note}; ascending {values:.1?}",
                values.len()
            ));
            metrics.set(name, m);
        };
        over_reps("events_per_s", &|r| r.events_per_s());
        over_reps("lat_p50_ms", &|r| r.latency_percentile_ms(0.50));
        notes.push(format!(
            "latency samples per repetition: {:?}",
            reps.iter().map(|r| r.latency_ms.len()).collect::<Vec<_>>()
        ));
        metrics.set("setup_s", median(&mut setup_s));
    }

    RunResult {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The benchmark package's directory: where `cargo run` says the manifest
/// is, else where it was when this binary was built.
pub fn home_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf())
}
