//! The repo's benchmark.  `README.md` beside this package explains the
//! workloads and metrics; `../BENCHMARK.json` declares them.
//!
//! ```text
//! tgnn-benchmark run --workload <name|all> [--seed 7] [--seconds 15] [--trace [0|1]] [--smoke] [--history <file>]
//! tgnn-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` drives the system only through public functions, checks that what
//! it served is correct, and prints as the last line of standard output one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; everything
//! else goes to standard error.

mod catalogue;
mod compare;
mod drive;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod verify;
mod workload;

use catalogue::{END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  tgnn-benchmark run --workload <wiki_np|wiki_base|gdelt_np_paced|wiki_np_prod|all>
                     [--seed 7] [--seconds 15] [--trace [0|1]] [--smoke] [--history <file>]
  tgnn-benchmark compare <a.jsonl> <b.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(cli) => run_command(cli),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            let bounds = run::home_dir().join("../BENCHMARK.json");
            match compare::compare(&bounds, args[1].as_ref(), args[2].as_ref()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunCli {
    workloads: Vec<&'static workload::Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    history: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunCli, String> {
    let mut cli = RunCli {
        workloads: Vec::new(),
        seed: 7,
        seconds: 15.0,
        trace: false,
        smoke: false,
        history: None,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        i += 1;
        let mut take = || {
            i += 1;
            value.ok_or(format!("{flag}: missing value"))
        };
        match flag {
            "--workload" => {
                let name = take()?;
                cli.workloads = match name {
                    "all" => workload::WORKLOADS.iter().collect(),
                    name => vec![workload::find(name).ok_or(format!("unknown workload {name:?}"))?],
                };
            }
            "--seed" => {
                cli.seed = take()?
                    .parse()
                    .map_err(|_| "--seed: expected a u64".to_string())?;
            }
            "--seconds" => {
                cli.seconds = take()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?;
                seconds_given = true;
            }
            "--trace" => match value {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--history" => cli.history = Some(PathBuf::from(take()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.smoke {
        if cli.workloads.is_empty() {
            cli.workloads = workload::WORKLOADS.iter().collect();
        }
        if !seconds_given {
            cli.seconds = 1.0;
        }
    }
    if cli.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn run_command(cli: RunCli) -> ExitCode {
    match cli.workloads[..] {
        [w] => run_one(&cli, w),
        _ => run_each_in_its_own_process(&cli),
    }
}

/// Several workloads: one child process each, so that no workload inherits
/// the previous one's allocator state or memory high-water mark.  Each
/// child's result line is printed tagged with its workload.
fn run_each_in_its_own_process(cli: &RunCli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-run it: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut lines = Vec::new();
    for w in &cli.workloads {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit());
        if cli.smoke {
            child.arg("--smoke");
        }
        if let Some(history) = &cli.history {
            child.arg("--history").arg(history);
        }
        // `output` waits for the child to end.
        match child.output() {
            Ok(out) => {
                all_ok &= out.status.success();
                let stdout = String::from_utf8_lossy(&out.stdout);
                match stdout.lines().last().and_then(|l| l.strip_prefix('{')) {
                    Some(body) => lines.push(format!("{{\"workload\": \"{}\", {body}", w.name)),
                    None => all_ok = false,
                }
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name);
                all_ok = false;
            }
        }
    }
    for line in lines {
        println!("{line}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(cli: &RunCli, w: &'static workload::Workload) -> ExitCode {
    let home = run::home_dir();
    let header = Header::collect();
    let history = cli
        .history
        .clone()
        .unwrap_or_else(|| home.join("out/history.jsonl"));
    let args = RunArgs {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: if cli.smoke { 0.02 } else { 1.0 },
        repetitions: if cli.smoke { 1 } else { run::REPETITIONS },
        home,
    };
    eprintln!(
        "== {} seed {} | commit {} | {} cpu(s), {} | avx2 kernels {} | {} | {} repetition(s) over {} s, scale {}{}",
        w.name,
        args.seed,
        header.commit,
        header.nproc,
        header.cpu,
        if header.avx2 { "dispatched" } else { "not dispatched" },
        header.rustc,
        args.repetitions,
        args.seconds,
        args.scale,
        if args.trace { ", traced" } else { "" },
    );
    eprintln!("   why: {}", w.why);
    let result = run::run(&args);
    for note in &result.notes {
        eprintln!("   {note}");
    }
    let body = result_body(&result, args.trace);
    if let Err(e) = append_history(&history, &header, &args, &body) {
        eprintln!("   could not append to {}: {e}", history.display());
    }
    // The result line comes last on standard output.
    println!("{{{body}}}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an identity or conservation check did not hold");
        ExitCode::FAILURE
    }
}

/// The four members of the result object, without the braces.
fn result_body(r: &RunResult, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        r.correct,
        r.attempted,
        r.failed,
        r.metrics.to_json(defs)
    )
}

/// Where and on what the numbers were measured; printed before every run
/// and stored with every history line.
struct Header {
    commit: String,
    nproc: usize,
    cpu: String,
    avx2: bool,
    rustc: String,
}

impl Header {
    fn collect() -> Self {
        let command = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            commit: command("git", &["rev-parse", "--short", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu,
            // The same runtime test the tensor kernels dispatch on.
            #[cfg(target_arch = "x86_64")]
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            avx2: false,
            rustc: command("rustc", &["--version"]),
        }
    }
}

fn append_history(
    path: &std::path::Path,
    h: &Header,
    a: &RunArgs,
    body: &str,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"ts\": {ts}, \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"repetitions\": {}, \"scale\": {}, \"nproc\": {}, \"cpu\": \"{}\", \"avx2\": {}, \"rustc\": \"{}\", {body}, \"claim\": null}}",
        json::escape(&h.commit),
        a.workload.name,
        a.seed,
        u8::from(a.trace),
        a.seconds,
        a.repetitions,
        a.scale,
        h.nproc,
        json::escape(&h.cpu),
        h.avx2,
        json::escape(&h.rustc),
    )
}
