//! Views of a [`MetricsSnapshot`]: the human table, the two machine formats,
//! and the flight-recorder timeline.
//!
//! The machine formats share one **metric catalogue** — a single ordered
//! list of `(family, TYPE, labels, value)` samples built in
//! `MetricsSnapshot::catalogue` — and are generic walks over it:
//! [`MetricsSnapshot::to_prometheus`] prints it as text exposition,
//! [`MetricsSnapshot::to_json_line`] as one JSON object keyed by the same
//! family names.  A family therefore exists in both or in neither, and what
//! is exported is stated in one place (tabulated in ARCHITECTURE.md §9,
//! pinned by `serve/tests/metrics.rs`).  Nothing here reads a writer: every
//! view renders the typed snapshot.

use crate::metrics::{MetricsSnapshot, SpanRecord, StageId, StageSnapshot};
use crate::pipeline::SealReason;
use crate::queue::QueueStats;
use crate::server::{BackendStats, LatencySummary, TenantStats};
use std::fmt::Write as _;
use std::time::Duration;
use tgnn_obs::{BurnState, SloStatus, SpanKind};

impl MetricsSnapshot {
    /// Exact `(events, batches)` behind `batch_events`, from the backend
    /// counters that are bumped alongside it.
    fn pipeline_served(&self) -> (u64, u64) {
        self.backends.iter().fold((0, 0), |(e, b), s| {
            (e + s.served_events, b + s.served_batches)
        })
    }

    /// Renders the snapshot as a human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "uptime {:8.2}s   epochs {}   batches {}   events {}   embeddings {}{}",
            self.uptime.as_secs_f64(),
            self.epochs,
            self.batches_served,
            self.events_served,
            self.embeddings,
            if self.enabled { "" } else { "   [metrics off]" }
        );
        let _ = writeln!(
            out,
            "batch latency  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   max {:.3} ms",
            self.batch_latency.p50_ms,
            self.batch_latency.p95_ms,
            self.batch_latency.p99_ms,
            self.batch_latency.max_ms
        );
        let (events, batches) = self.pipeline_served();
        let _ = writeln!(
            out,
            "batch events   mean {:.1}   p50 {}   p99 {}   max {}   sealed {}",
            events as f64 / batches.max(1) as f64,
            self.batch_events.percentile(0.50),
            self.batch_events.percentile(0.99),
            self.batch_events.max(),
            SealReason::ALL
                .map(|r| format!("{} {}", r.label(), self.seals[r.code()]))
                .join(" / ")
        );
        let _ = writeln!(
            out,
            "{:<22} {:>5} {:>5} {:>9} {:>10} {:>8}",
            "queue", "depth", "max", "mean", "pushes", "blocked"
        );
        for q in &self.queues {
            let _ = writeln!(
                out,
                "{:<22} {:>5} {:>5} {:>9.2} {:>10} {:>8}",
                q.name, q.depth, q.max_depth, q.mean_depth, q.pushes, q.blocked_sends
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>7} {:>10}",
            "stage", "busy", "busy%", "spans"
        );
        for s in &self.stages {
            if s.batches == 0 && s.busy.is_zero() {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<22} {:>10.3}ms {:>6.1}% {:>10}",
                s.stage.label(),
                s.busy.as_secs_f64() * 1e3,
                s.busy_frac * 100.0,
                s.batches
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {:<15} submitted {:>8}  admitted {:>8}  dropped {:>6}  served {:>8}  stale {:>6}  late {:>6}",
                t.name,
                t.counters.submitted,
                t.counters.admitted,
                t.dropped(),
                t.served,
                t.served_stale,
                t.late
            );
        }
        for b in &self.backends {
            let _ = write!(
                out,
                "backend {:<6} batches {:>8}  events {:>8}",
                b.kind.label(),
                b.served_batches,
                b.served_events
            );
            if let Some(m) = &b.modeled_latency {
                let _ = write!(
                    out,
                    "  modeled p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
                    m.p50_ms, m.p99_ms, m.max_ms
                );
            }
            out.push('\n');
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "cache  hits {}  misses {}  hit-rate {:.1}%  served-stale {}  entries {}  evictions {}  expired {}  bound {} epochs",
                c.hits,
                c.misses,
                c.hit_rate() * 100.0,
                c.served_stale,
                c.entries,
                c.evictions,
                c.expired,
                c.staleness_bound
            );
        }
        if let Some(d) = &self.durability {
            let _ = writeln!(
                out,
                "wal  records {}  fsyncs {}  fsync p50/p99 {}/{} µs   snapshots {}  lag {} epochs / {:.1}s  last {:.1} MB",
                d.wal_records,
                d.wal_fsyncs,
                d.fsync_p50_us,
                d.fsync_p99_us,
                d.snapshots,
                d.snapshot_lag_epochs,
                d.snapshot_lag_seconds,
                d.last_snapshot_bytes as f64 / 1e6
            );
        }
        let burn = |b: Option<f64>| match b {
            Some(v) => format!("{v:.2}"),
            None => "-".to_string(),
        };
        for s in &self.slo {
            let _ = writeln!(
                out,
                "slo {:<10} budget {:.3}  burn fast {} / slow {}  [{}]",
                s.name,
                s.error_budget,
                burn(s.fast_burn),
                burn(s.slow_burn),
                match s.state {
                    BurnState::NoData => "no-data",
                    BurnState::Ok => "ok",
                    BurnState::Fired => "fired",
                }
            );
        }
        if self.trace.begun > 0 {
            let _ = writeln!(
                out,
                "traces  begun {}  conflicts {}  overflows {}  deliver p99 {:.3} ms  tail exemplars {}  head samples {}",
                self.trace.begun,
                self.trace.conflicts,
                self.trace.overflows,
                self.trace.delivery_p99_ms,
                self.trace.exemplars.len(),
                self.trace.head_samples.len()
            );
        }
        let _ = writeln!(
            out,
            "flight recorder  {} / {} events ({} overwritten)",
            self.flight.recorded.min(self.flight.capacity as u64),
            self.flight.capacity,
            self.flight.dropped
        );
        let (f32_kernel, int8_kernel) = self.gemm_kernels;
        let _ = writeln!(out, "kernels  f32 {f32_kernel}  int8 {int8_kernel}");
        out
    }

    /// The metric catalogue: every exported sample, once, in exposition
    /// order (a family's samples are consecutive).  A family's `# TYPE`
    /// follows from its name — counters, and only counters, end in `_total`
    /// — except for the summaries, which say so.
    fn catalogue(&self) -> Vec<Sample> {
        use Value::{Float, Int};
        let mut c = Catalogue::default();
        c.scalars([
            ("tgnn_uptime_seconds", Float(self.uptime.as_secs_f64(), 3)),
            ("tgnn_metrics_enabled", Int(self.enabled as u64)),
            ("tgnn_epochs_total", Int(self.epochs)),
            ("tgnn_batches_served_total", Int(self.batches_served)),
            ("tgnn_events_served_total", Int(self.events_served)),
            ("tgnn_embeddings_total", Int(self.embeddings)),
        ]);
        let seals = SealReason::ALL.map(|r| (r.label(), self.seals[r.code()]));
        c.counts("tgnn_seals_total", "reason", &seals);
        c.scalars([
            (
                "tgnn_gru_blocks_offered_total",
                Int(self.gru_blocks_offered),
            ),
            ("tgnn_gru_blocks_helped_total", Int(self.gru_blocks_helped)),
        ]);
        let (events, batches) = self.pipeline_served();
        c.summary(
            "tgnn_batch_events",
            &[],
            [0.50, 0.95, 0.99, 1.0].map(|q| Int(self.batch_events.percentile(q))),
            [Some(Int(events)), Some(Int(batches))],
        );
        let queue: [FamilyOf<QueueStats>; 5] = [
            ("tgnn_queue_depth", |q| Int(q.depth as u64)),
            ("tgnn_queue_max_depth", |q| Int(q.max_depth as u64)),
            ("tgnn_queue_mean_depth", |q| Float(q.mean_depth, 3)),
            ("tgnn_queue_pushes_total", |q| Int(q.pushes)),
            ("tgnn_queue_blocked_sends_total", |q| Int(q.blocked_sends)),
        ];
        c.labelled("queue", &self.queues, |q| q.name.to_string(), &queue);
        let stage: [FamilyOf<StageSnapshot>; 3] = [
            ("tgnn_stage_busy_seconds_total", |s| {
                Float(s.busy.as_secs_f64(), 6)
            }),
            ("tgnn_stage_busy_fraction", |s| Float(s.busy_frac, 4)),
            ("tgnn_stage_spans_total", |s| Int(s.batches)),
        ];
        let label = |s: &StageSnapshot| s.stage.label().to_string();
        c.labelled("stage", &self.stages, label, &stage);
        let count = [None, Some(Int(self.batches_served))];
        let latency = quantiles_ms(&self.batch_latency, 3);
        c.summary("tgnn_batch_latency_ms", &[], latency, count);
        let a = &self.admission;
        let dropped = [
            ("newest", a.dropped_newest),
            ("oldest", a.dropped_oldest),
            ("throttled", a.dropped_throttled),
        ];
        c.counts("tgnn_admission_dropped_total", "policy", &dropped);
        c.scalars([
            ("tgnn_admission_submitted_total", Int(a.submitted)),
            ("tgnn_admission_admitted_total", Int(a.admitted)),
            (
                "tgnn_admission_blocked_submits_total",
                Int(a.blocked_submits),
            ),
            ("tgnn_admission_throttled_total", Int(a.throttled)),
            ("tgnn_admission_served_stale_total", Int(a.served_stale)),
        ]);
        let tenant: [FamilyOf<TenantStats>; 6] = [
            ("tgnn_tenant_submitted_total", |t| Int(t.counters.submitted)),
            ("tgnn_tenant_admitted_total", |t| Int(t.counters.admitted)),
            ("tgnn_tenant_dropped_total", |t| Int(t.dropped())),
            ("tgnn_tenant_served_total", |t| Int(t.served)),
            ("tgnn_tenant_served_stale_total", |t| Int(t.served_stale)),
            ("tgnn_tenant_late_total", |t| Int(t.late)),
        ];
        c.labelled("tenant", &self.tenants, |t| t.name.clone(), &tenant);
        let backend: [FamilyOf<BackendStats>; 2] = [
            ("tgnn_backend_served_batches_total", |b| {
                Int(b.served_batches)
            }),
            ("tgnn_backend_served_events_total", |b| Int(b.served_events)),
        ];
        let label = |b: &BackendStats| b.kind.label().to_string();
        c.labelled("backend", &self.backends, label, &backend);
        for b in &self.backends {
            if let Some(modeled) = &b.modeled_latency {
                let family = "tgnn_backend_modeled_latency_ms";
                let backend = [("backend", label(b))];
                let n = b.modeled_samples;
                let sum_count = [Some(Float(modeled.mean_ms * n as f64, 6)), Some(Int(n))];
                c.summary(family, &backend, quantiles_ms(modeled, 6), sum_count);
            }
        }
        if let Some(k) = &self.cache {
            c.scalars([
                ("tgnn_cache_hits_total", Int(k.hits)),
                ("tgnn_cache_misses_total", Int(k.misses)),
                ("tgnn_cache_insertions_total", Int(k.insertions)),
                ("tgnn_cache_evictions_total", Int(k.evictions)),
                ("tgnn_cache_expired_total", Int(k.expired)),
                ("tgnn_cache_served_stale_total", Int(k.served_stale)),
                ("tgnn_cache_entries", Int(k.entries as u64)),
                ("tgnn_cache_staleness_bound_epochs", Int(k.staleness_bound)),
            ]);
            let age = &k.stale_age;
            let ages = [age.p50, age.p95, age.p99, age.max].map(Int);
            let count = [None, Some(Int(age.count))];
            c.summary("tgnn_cache_stale_age_epochs", &[], ages, count);
        }
        if let Some(d) = &self.durability {
            c.scalars([
                ("tgnn_wal_fsyncs_total", Int(d.wal_fsyncs)),
                ("tgnn_wal_records_total", Int(d.wal_records)),
                ("tgnn_wal_bytes_total", Int(d.wal_bytes)),
                ("tgnn_wal_fsync_p50_us", Int(d.fsync_p50_us)),
                ("tgnn_wal_fsync_p99_us", Int(d.fsync_p99_us)),
                ("tgnn_snapshots_total", Int(d.snapshots)),
                ("tgnn_snapshot_lag_epochs", Int(d.snapshot_lag_epochs)),
                (
                    "tgnn_snapshot_lag_seconds",
                    Float(d.snapshot_lag_seconds, 3),
                ),
                ("tgnn_snapshot_last_bytes", Int(d.last_snapshot_bytes)),
            ]);
        }
        for s in &self.slo {
            for (window, burn) in [("fast", s.fast_burn), ("slow", s.slow_burn)] {
                if let Some(burn) = burn {
                    let labels = vec![("slo", s.name.clone()), ("window", window.into())];
                    c.push("tgnn_slo_burn_rate", "gauge", "", labels, Float(burn, 4));
                }
            }
        }
        let slo: [FamilyOf<SloStatus>; 2] = [
            ("tgnn_slo_fired", |s| {
                Int((s.state == BurnState::Fired) as u64)
            }),
            ("tgnn_slo_error_budget", |s| Float(s.error_budget, 6)),
        ];
        c.labelled("slo", &self.slo, |s| s.name.clone(), &slo);
        let (t, f) = (&self.trace, &self.flight);
        c.scalars([
            ("tgnn_traces_begun_total", Int(t.begun)),
            ("tgnn_trace_conflicts_total", Int(t.conflicts)),
            ("tgnn_trace_overflows_total", Int(t.overflows)),
            ("tgnn_trace_delivery_p99_ms", Float(t.delivery_p99_ms, 3)),
            ("tgnn_trace_exemplars", Int(t.exemplars.len() as u64)),
            ("tgnn_trace_head_samples", Int(t.head_samples.len() as u64)),
            ("tgnn_flight_capacity", Int(f.capacity as u64)),
            ("tgnn_flight_recorded_total", Int(f.recorded)),
            ("tgnn_flight_dropped_total", Int(f.dropped)),
        ]);
        let (f32_kernel, int8_kernel) = self.gemm_kernels;
        let kernels = vec![("f32", f32_kernel.into()), ("int8", int8_kernel.into())];
        c.push("tgnn_kernel_info", "gauge", "", kernels, Int(1));
        c.0
    }

    /// Renders the metric catalogue as Prometheus-style text exposition:
    /// one `# TYPE` line per family, then its samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for s in self.catalogue() {
            if s.family != family {
                family = s.family;
                let _ = writeln!(out, "# TYPE {family} {}", s.kind);
            }
            out.push_str(family);
            out.push_str(s.series);
            for (i, (key, value)) in s.labels.iter().enumerate() {
                out.push(if i == 0 { '{' } else { ',' });
                let _ = write!(out, "{key}=\"{}\"", escape(value, false));
            }
            if !s.labels.is_empty() {
                out.push('}');
            }
            let _ = writeln!(out, " {}", s.value);
        }
        out
    }

    /// Renders the metric catalogue as one JSON object (the JSONL sampler
    /// format), keyed by the Prometheus family names: a scalar family maps
    /// to its number, a labelled one to nested objects keyed by its label
    /// values in label order — `{"tgnn_seals_total":{"full":0,"idle":20,…}}`
    /// — and a summary's `_sum` / `_count` series sit beside its quantiles
    /// as `"sum"` / `"count"`.
    pub fn to_json_line(&self) -> String {
        let samples = self.catalogue();
        let mut out = String::from("{");
        // Keys of the objects currently open below the root.
        let mut open: Vec<&str> = Vec::new();
        for s in &samples {
            let mut path = vec![s.family];
            path.extend(s.labels.iter().map(|(_, value)| value.as_str()));
            path.extend(s.series.strip_prefix('_'));
            let parents = &path[..path.len() - 1];
            // A family's samples are consecutive, so the objects this one
            // shares with the previous are still open; close the rest.
            let shared = open.iter().zip(parents).take_while(|(a, b)| a == b).count();
            out.extend(std::iter::repeat_n('}', open.len() - shared));
            open.truncate(shared);
            for (depth, key) in path.iter().enumerate().skip(shared) {
                if !out.ends_with('{') {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", escape(key, true));
                if depth < parents.len() {
                    out.push('{');
                    open.push(key);
                }
            }
            match s.value {
                // JSON has no NaN or infinity.
                Value::Float(v, _) if !v.is_finite() => out.push_str("null"),
                value => {
                    let _ = write!(out, "{value}");
                }
            }
        }
        out.extend(std::iter::repeat_n('}', open.len() + 1));
        out
    }
}

/// A sample's value: an integer, or a float printed with a fixed number of
/// decimals.
#[derive(Clone, Copy, Debug)]
enum Value {
    Int(u64),
    Float(f64, usize),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, decimals) => write!(f, "{v:.decimals$}"),
        }
    }
}

type Labels = Vec<(&'static str, String)>;

/// One sample of the metric catalogue.
struct Sample {
    family: &'static str,
    /// The family's `# TYPE`.
    kind: &'static str,
    /// `""`, or `"_sum"` / `"_count"` for those two series of a summary.
    series: &'static str,
    labels: Labels,
    value: Value,
}

/// One family of a labelled row set: its name and how to read its value
/// off a row.
type FamilyOf<T> = (&'static str, fn(&T) -> Value);

/// A latency summary's 0.5 / 0.95 / 0.99 / 1 quantiles (1 is `max_ms`).
fn quantiles_ms(l: &LatencySummary, decimals: usize) -> [Value; 4] {
    [l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms].map(|ms| Value::Float(ms, decimals))
}

/// The `# TYPE` of a non-summary family, by the exposition's naming
/// convention: counters, and only counters, end in `_total`.
fn kind_of(family: &str) -> &'static str {
    if family.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// The catalogue under construction (see [`MetricsSnapshot::catalogue`]).
#[derive(Default)]
struct Catalogue(Vec<Sample>);

impl Catalogue {
    fn push(
        &mut self,
        family: &'static str,
        kind: &'static str,
        series: &'static str,
        labels: Labels,
        value: Value,
    ) {
        self.0.push(Sample {
            family,
            kind,
            series,
            labels,
            value,
        });
    }

    /// Unlabelled single-sample families.
    fn scalars<const N: usize>(&mut self, rows: [(&'static str, Value); N]) {
        for (family, value) in rows {
            self.push(family, kind_of(family), "", Vec::new(), value);
        }
    }

    /// Families with one sample per row, labelled `key="label(row)"`;
    /// family-major, so each family's samples stay together.
    fn labelled<T>(
        &mut self,
        key: &'static str,
        rows: &[T],
        label: impl Fn(&T) -> String,
        families: &[FamilyOf<T>],
    ) {
        for &(family, value) in families {
            for row in rows {
                let labels = vec![(key, label(row))];
                self.push(family, kind_of(family), "", labels, value(row));
            }
        }
    }

    /// One family of counts, one sample per `(label value, count)` row.
    fn counts(&mut self, family: &'static str, key: &'static str, rows: &[(&str, u64)]) {
        let count: FamilyOf<(&str, u64)> = (family, |row| Value::Int(row.1));
        self.labelled(key, rows, |row| row.0.to_string(), &[count]);
    }

    /// A summary: the 0.5 / 0.95 / 0.99 / 1 quantiles (1 is the maximum),
    /// then its `_sum` and `_count` series where the source has them.
    fn summary(
        &mut self,
        family: &'static str,
        labels: &[(&'static str, String)],
        quantiles: [Value; 4],
        sum_count: [Option<Value>; 2],
    ) {
        for (q, value) in ["0.5", "0.95", "0.99", "1"].into_iter().zip(quantiles) {
            let mut labels = labels.to_vec();
            labels.push(("quantile", q.to_string()));
            self.push(family, "summary", "", labels, value);
        }
        for (series, value) in ["_sum", "_count"].into_iter().zip(sum_count) {
            if let Some(value) = value {
                self.push(family, "summary", series, labels.to_vec(), value);
            }
        }
    }
}

/// Escapes a label value (Prometheus) or an object key (`json`): `\`, `"`
/// and newline in both; JSON additionally forbids every other raw control
/// character.
fn escape(s: &str, json: bool) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if json && (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a flight-recorder dump as a per-epoch, per-stage timeline — the
/// post-mortem view: each line is one epoch, each segment one stage span
/// (`enter→exit` in ms since pipeline spawn).  An open segment (`→…`) means
/// the stage entered the epoch and never exited — after a panic, that is
/// the poisoned stage; its duration-so-far (up to the dump's last tick) is
/// printed so the reader can see how long the epoch has been held.
///
/// Records are sorted by `(tick, seq)` before pairing, so same-tick
/// enter/exit races (coarse clocks, cross-worker ties) pair
/// deterministically in recording order rather than ring order.
pub fn render_flight_timeline(records: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut records: Vec<SpanRecord> = records.to_vec();
    records.sort_by_key(|r| (r.at, r.seq));
    // The dump's horizon: open spans report duration-so-far against the
    // last tick any worker recorded.
    let now = records.last().map(|r| r.at).unwrap_or_default();
    // epoch → stage → (enter, exit) / marks, keeping stage order of first
    // appearance within the epoch.
    type Segment = (StageId, Option<Duration>, Option<Duration>);
    #[derive(Default)]
    struct EpochLine {
        segments: Vec<Segment>,
        marks: Vec<(StageId, Duration)>,
    }
    let mut epochs: BTreeMap<u64, EpochLine> = BTreeMap::new();
    for r in &records {
        let line = epochs.entry(r.epoch).or_default();
        match r.kind {
            SpanKind::Mark => line.marks.push((r.stage, r.at)),
            SpanKind::Enter => line.segments.push((r.stage, Some(r.at), None)),
            SpanKind::Exit => {
                // Close the open segment of this stage; an exit whose enter
                // was overwritten by the ring starts a half-open segment.
                match line
                    .segments
                    .iter_mut()
                    .rev()
                    .find(|(s, _, exit)| *s == r.stage && exit.is_none())
                {
                    Some(seg) => seg.2 = Some(r.at),
                    None => line.segments.push((r.stage, None, Some(r.at))),
                }
            }
        }
    }
    let mut out = String::new();
    for (epoch, line) in &epochs {
        if *epoch == 0 {
            out.push_str("pre-epoch   ");
        } else {
            out.push_str(&format!("epoch {epoch:>5} "));
        }
        for (stage, enter, exit) in &line.segments {
            let name = stage.label();
            match (enter, exit) {
                (Some(a), Some(b)) => {
                    out.push_str(&format!("| {} {:.3}→{:.3} ", name, ms(*a), ms(*b)))
                }
                (Some(a), None) => out.push_str(&format!(
                    "| {} {:.3}→… {:.3}ms so far ",
                    name,
                    ms(*a),
                    ms(now.saturating_sub(*a))
                )),
                (None, Some(b)) => out.push_str(&format!("| {} …→{:.3} ", name, ms(*b))),
                (None, None) => {}
            }
        }
        for (stage, at) in &line.marks {
            out.push_str(&format!("| {} @{:.3} ", stage.label(), ms(*at)));
        }
        out.push('\n');
    }
    out
}
