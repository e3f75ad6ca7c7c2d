//! `compare <a.jsonl> <b.jsonl>`: holds two sets of runs (history-format
//! lines, as `run --history <file>` appends them) against the bounds of
//! `BENCHMARK.json`, workload by workload and metric by metric.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// medians cannot be told apart: neither "unchanged" nor "worse".
    Unresolved,
}

/// Judges one metric of one workload from both sides' per-run values.
/// Returns the verdict, the relative worsening of `b` against `a`
/// (positive = worse) and the wider side's spread (IQR over median; 0 when
/// a side has a single run).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let med = |v: &[f64]| median(&mut v.to_vec());
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let [q1, q2, q3] = quartiles(v);
        (q3 - q1) / q2.abs()
    };
    let (ma, mb) = (med(a), med(b));
    let worsening = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worsening, spread)
}

struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    metrics: Vec<(String, f64)>,
}

fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let field = |k: &str| doc.get(k).ok_or(format!("{}: no {k:?}", path.display()));
            let metrics = field("metrics")?
                .as_object()
                .ok_or("metrics is not an object")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            Ok(Record {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
                traced: field("trace")?.as_f64() == Some(1.0),
                metrics,
            })
        })
        .collect()
}

/// Prints the comparison table; `Ok(false)` when any metric is `worse` or a
/// simulated `hwsim.sim.*` value differs between the sets.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let doc = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|t| Json::parse(&t))?;
    let (ra, rb) = (read_records(a)?, read_records(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in ra.iter().filter(|r| !r.traced) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let values = |set: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
            .collect()
    };
    let quart = |v: &[f64]| {
        if v.len() < 2 {
            "      n/a".to_string()
        } else {
            let [q1, _, q3] = quartiles(v);
            format!("{q1:.4}..{q3:.4}")
        }
    };
    let mut clean = true;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict   (quartiles a | b, runs)",
        "workload", "metric", "median a", "median b", "worsening", "spread", "bound"
    );
    for w in &workloads {
        for m in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values(&ra, w, name), values(&rb, w, name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {name:<14} missing on one side");
                clean = false;
                continue;
            }
            let (verdict, worsening, spread) = judge(&va, &vb, higher, bound);
            clean &= verdict != Verdict::Worse;
            println!(
                "{w:<16} {name:<14} {:>12.4} {:>12.4} {:>+8.2}% {:>7.2}% {:>5.0}%  {:<10}({} | {}, {}+{})",
                median(&mut va.clone()),
                median(&mut vb.clone()),
                worsening * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                quart(&va),
                quart(&vb),
                va.len(),
                vb.len(),
            );
        }
    }
    // Simulated time is a pure function of the inputs: the same workload
    // and seed must give the same value on both sides, to the last digit.
    for x in ra.iter().filter(|r| r.traced) {
        let Some(y) = rb
            .iter()
            .find(|r| r.traced && r.workload == x.workload && r.seed == x.seed)
        else {
            continue;
        };
        for (name, va) in x
            .metrics
            .iter()
            .filter(|(k, _)| k.starts_with("hwsim.sim."))
        {
            let vb = y.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
            let same = vb == Some(*va);
            clean &= same;
            println!(
                "{:<16} {name:<28} seed {} {}",
                x.workload,
                x.seed,
                if same {
                    "identical".into()
                } else {
                    format!("DIFFERS: {va} vs {vb:?}")
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +3 % is inside a 5 % bound, +8 % is not.
        let b_ok: Vec<f64> = a.iter().map(|v| v * 1.03).collect();
        let b_bad: Vec<f64> = a.iter().map(|v| v * 1.08).collect();
        assert_eq!(judge(&a, &b_ok, false, 0.05).0, Verdict::Ok);
        assert_eq!(judge(&a, &b_bad, false, 0.05).0, Verdict::Worse);
        // Higher is better: the same +8 % is an improvement, −8 % is worse.
        assert_eq!(judge(&a, &b_bad, true, 0.05).0, Verdict::Ok);
        assert_eq!(judge(&b_bad, &a, true, 0.05).0, Verdict::Worse);
        // A side noisier than the bound resolves nothing, even when its
        // median moved.
        let noisy = [80.0, 120.0, 100.0, 90.0, 130.0];
        assert_eq!(judge(&a, &noisy, false, 0.05).0, Verdict::Unresolved);
        // Single runs have no spread and are judged on their values.
        let (v, worsening, spread) = judge(&[10.0], &[10.4], false, 0.05);
        assert_eq!((v, spread), (Verdict::Ok, 0.0));
        assert!((worsening - 0.04).abs() < 1e-12);
    }
}
