//! Two-process crash drill — the one durability check only a process can do.
//!
//! `serve/tests/recovery.rs` kills a server *inside* one process (a frozen
//! WAL plus a panicking worker).  This binary dies for real: `abort()` with
//! WAL bytes still in the user-space buffer, no flush, no `Drop`, and the
//! recovery runs in a second process that shares nothing with the first but
//! the directory.
//!
//! ```sh
//! crash_drill <dir> --crash-at 3    # first life: aborts before streamed seal 3
//! crash_drill <dir>                 # second life: recovers, resumes, verifies
//! ```
//!
//! The first life warms up on the train split (a `floor` snapshot), streams
//! the measurement feed **without polling** — nothing is acked, so recovery
//! hands every durable event back — and aborts right before the n-th seal of
//! the stream reaches the log.  The second life calls
//! [`StreamServer::recover`], resumes the feed from
//! `RecoveryReport::resume_from`, and asserts that the whole served stream —
//! re-served epochs, readmitted ingress tail, resumed feed — loses nothing,
//! duplicates nothing, and is bit-identical to `ExecMode::Serial` replaying
//! the same micro-batches.  `--fsync <always|onseal|never>` (default
//! `onseal`) picks the WAL policy; give both lives the same one.
//!
//! The workload is fixed (Wikipedia-like at scale 0.005, seed 7, +NP(M),
//! batches of at most 40 events, 4 shards): a drill, not a measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tgnn_bench::{build_model, harness_model_config, Dataset};
use tgnn_core::{ExecMode, InferenceEngine, OptimizationVariant};
use tgnn_graph::EventBatch;
use tgnn_serve::{
    wal_fault_hook, DurabilityConfig, FsyncPolicy, ServeConfig, ServedBatch, StreamServer,
};

const USAGE: &str = "usage: crash_drill <dir> [--crash-at <n>] [--fsync <always|onseal|never>]";
const MAX_BATCH: usize = 40;

/// `(dir, crash_at, fsync)`.  A missing or malformed value is an error,
/// never a silent default: a drill that quietly ran some other configuration
/// would pass for the wrong reason.
fn parse(argv: &[String]) -> Result<(String, Option<u64>, FsyncPolicy), String> {
    let (mut dir, mut crash_at, mut fsync) = (None, None, FsyncPolicy::OnSeal);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--crash-at" => {
                let n = it.next().and_then(|v| v.parse().ok()).filter(|n| *n >= 1);
                crash_at = Some(n.ok_or("--crash-at: expected a positive seal number")?);
            }
            "--fsync" => fsync = it.next().ok_or("--fsync: missing policy")?.parse()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if dir.is_none() => dir = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    Ok((dir.ok_or("missing <dir>")?, crash_at, fsync))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (dir, crash_at, fsync) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("crash_drill: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let graph = Arc::new(Dataset::Wikipedia.graph(0.005, 7));
    let cfg = harness_model_config(&graph, OptimizationVariant::NpMedium);
    let model = build_model(&graph, &cfg, 7);
    let warm = graph.train_events().to_vec();
    let feed = graph.events()[graph.train_end()..].to_vec();

    let mut durability = DurabilityConfig::new(&dir).with_fsync(fsync);
    if let Some(at) = crash_at {
        // Count *streamed* seals (warm-up epochs never reach the batcher) and
        // die before the n-th one is appended.
        let seals = AtomicU64::new(0);
        durability = durability.with_wal_fault(wal_fault_hook(move |_epoch| {
            if seals.fetch_add(1, Ordering::SeqCst) + 1 == at {
                // Let the GNN worker compute and sync the batches already
                // sealed, so the second life has epochs to re-serve; what is
                // admitted meanwhile stays in the buffer and dies with us.
                std::thread::sleep(Duration::from_millis(50));
                eprintln!("crash drill: aborting before streamed seal #{at}");
                std::process::abort();
            }
            false
        }));
    }
    let config = ServeConfig {
        max_batch: MAX_BATCH,
        // A batch is whatever was pending when the state worker pulled, up
        // to the cap.  Where the cuts fall depends on timing, which is why
        // both checks below replay the boundaries that were *served*.
        // The first life never polls, so the results queue holds the feed —
        // one batch per event at worst.
        results_capacity: feed.len() + 8,
        durability: Some(durability),
        ..ServeConfig::default()
    };

    if let Some(at) = crash_at {
        let mut server = StreamServer::new(model, graph.clone(), config);
        server.warm_up(&warm);
        for &e in &feed {
            server.submit(e).expect("chronological feed");
        }
        server.drain();
        eprintln!(
            "crash_drill: --crash-at {at} is past the last seal of the {}-event feed",
            feed.len()
        );
        std::process::exit(2);
    }

    let (mut server, rep) = StreamServer::recover(model.clone(), graph.clone(), config)
        .unwrap_or_else(|e| panic!("recovery from {dir} failed: {e}"));
    println!(
        "recovery: snapshot epoch {}, {} sealed epoch(s) in the WAL, {} replayed ({} events), \
         {} re-served, {} readmitted, torn tail {}, fsync {}, {:.2} ms",
        rep.snapshot_epoch,
        rep.sealed_epochs,
        rep.replayed_epochs,
        rep.replayed_events,
        rep.re_served_epochs,
        rep.readmitted_events,
        if rep.torn_tail_repaired {
            "repaired"
        } else {
            "clean"
        },
        fsync.label(),
        rep.recovery_ms
    );
    assert_eq!(rep.acked, 0, "the first life never polls");
    // The crashed life consumed the feed up to the durable submit index;
    // everything before it comes back as re-served epochs or readmitted tail.
    let resume = rep.resume_from[0] as usize;
    assert!(
        resume <= feed.len(),
        "durable resume index {resume} exceeds the {}-event feed — a different directory?",
        feed.len()
    );
    assert_eq!(
        rep.replayed_events + rep.readmitted_events,
        resume,
        "every durable submit is either sealed or back in the ingress queue"
    );

    let mut served: Vec<ServedBatch> = Vec::new();
    // Sealed-but-unacked epochs come back first.
    while let Some(b) = server.poll() {
        served.push(b);
    }
    for &e in &feed[resume..] {
        server.submit(e).expect("chronological feed");
        while let Some(b) = server.poll() {
            served.push(b);
        }
    }
    let report = server.drain();
    while let Some(b) = server.poll() {
        served.push(b);
    }
    assert!(report.commit_log_clean, "recovery violated chronology");
    let delivered: Vec<_> = served
        .iter()
        .flat_map(|b| b.events.iter().copied())
        .collect();
    assert_eq!(
        delivered,
        feed,
        "the recovered stream must deliver the feed exactly once, in order \
         ({} delivered, {} resumed at {resume})",
        delivered.len(),
        feed.len() - resume
    );

    let mut engine = InferenceEngine::new(model, graph.num_nodes()).with_mode(ExecMode::Serial);
    engine.warm_up(&warm, &graph);
    for batch in &served {
        let reference = engine.process_batch(&EventBatch::new(batch.events.clone()), &graph);
        assert_eq!(
            reference.embeddings, batch.embeddings,
            "recovered embeddings diverged bitwise from ExecMode::Serial in epoch {}",
            batch.epoch
        );
    }
    println!(
        "identity: {} events in {} micro-batches ({} re-served, {} resumed) bit-identical to \
         ExecMode::Serial — nothing lost, nothing duplicated",
        delivered.len(),
        served.len(),
        rep.re_served_epochs,
        feed.len() - resume
    );
}
