//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the batch
//! it worked on.  Spans live in memory during the run and are written out
//! once it ends; per-layer metrics are sums over them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Batch (pipeline epoch or engine batch index) the span worked on;
    /// 0 when it belongs to no batch.
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans: a span opened or
/// recorded while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; earlier instants read 0.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            // Room for a traced pass's per-event spans: growing a vector
            // this size mid-run would stall the load generator for
            // milliseconds.
            spans: Vec::with_capacity(1 << 19),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; it stays the parent of everything recorded until
    /// [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, batch: u64) -> SpanId {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span (a leaf of the innermost open span) from
    /// clock readings the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        batch: u64,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            batch,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, batch: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, batch);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Attributes a span to a batch learnt after the fact (a submitted
    /// event's epoch is only known at delivery).
    pub fn set_batch(&mut self, id: SpanId, batch: u64) {
        self.spans[id].batch = batch;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans with `name` and their summed duration in nanoseconds.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.duration_ns()))
    }

    /// Writes one JSON object per span, in recording order, with the span's
    /// self time beside its duration.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (overlapping children are counted once, and a
/// child reaching outside its parent only counts inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 20..30 counts once.
            span(20, 50, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span(22, 28, Some(2)),
            // Reaches outside the parent: only 90..100 counts.
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), [100 - 40 - 10, 20, 30 - 6, 6, 30]);
        // A leaf's self time is its duration; an empty log has none.
        assert_eq!(self_times(&[span(5, 9, None)]), [4]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn open_spans_parent_what_is_recorded_inside_them() {
        let mut t = Tracer::new(Instant::now());
        let at = Instant::now();
        let leaf = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {});
            t.record("leaf", at, at, 0)
        });
        t.set_batch(leaf, 9);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[2].batch, s[0].batch), (9, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.total("inner").0, 1);
        assert_eq!(t.total("missing"), (0, 0));
    }
}
