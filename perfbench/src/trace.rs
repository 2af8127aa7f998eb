//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Each span has a name, start and end (ns since the recorder was
//! created), the span that caused it, and the per-push or per-instance
//! id of the unit of work it belongs to. Spans stay in memory until
//! [`Recorder::write`] dumps them as JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the recorder, starting at 1.
    pub span: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified stage name (`commute.build`, `json.decode`, ...).
    pub name: &'static str,
    /// The push or instance this span worked on.
    pub id: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span sink.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes (and is recorded) on drop.
pub struct Guard<'a> {
    rec: &'a Recorder,
    span: u32,
    parent: Option<u32>,
    name: &'static str,
    id: u64,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's number, for use as a child's parent.
    pub fn span(&self) -> u32 {
        self.span
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.rec.enabled {
            return;
        }
        let end_ns = self.rec.now_ns();
        self.rec
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Span {
                span: self.span,
                parent: self.parent,
                name: self.name,
                id: self.id,
                start_ns: self.start_ns,
                end_ns,
            });
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that keeps nothing: the same code path without
    /// tracing, for measuring the tracing overhead.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for work item `id` under `parent`.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<u32>) -> Guard<'_> {
        Guard {
            rec: self,
            span: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            id,
            start_ns: self.now_ns(),
        }
    }

    /// Run `f` inside a span and return its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let _g = self.open(name, id, parent);
        f()
    }

    /// Every closed span, ordered by span number.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        v.sort_by_key(|s| s.span);
        v
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.span, s.name, s.id, s.start_ns, s.end_ns, selfs[&s.span]
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Parallel children that overlap count once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let cov = children
                .get_mut(&s.span)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            (s.span, s.dur_ns() - cov)
        })
        .collect()
}

/// Per-name aggregates of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStats {
    /// Spans with this name.
    pub count: usize,
    /// Σ duration (s).
    pub total_s: f64,
    /// Σ self time (s).
    pub self_s: f64,
    /// Every duration (s), in span order.
    pub durations: Vec<f64>,
}

/// Aggregate `spans` by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, StageStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, StageStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.dur_ns() as f64 * 1e-9;
        e.count += 1;
        e.total_s += d;
        e.self_s += selfs[&s.span] as f64 * 1e-9;
        e.durations.push(d);
    }
    out
}

/// For each root span named `root`, the time its descendants cover (its
/// duration minus its self time), in seconds.
pub fn covered_by_stages(spans: &[Span], root: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == root && s.parent.is_none())
        .map(|s| (s.dur_ns() - selfs[&s.span]) as f64 * 1e-9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            span,
            parent,
            name: "s",
            id: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping (parallel) children count once: [10, 50).
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 70, 80),
            // A grandchild is charged to its parent, not the root.
            span(5, Some(4), 72, 78),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10 - 6);
        assert_eq!(selfs[&5], 6);
        // Self times of a tree add up to the root's duration when the
        // children do not overlap.
        let tree = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 30, 90),
        ];
        let total: u64 = self_times(&tree).values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, None, 10, 20), span(2, Some(1), 0, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
        let mut iv = [(0, 5), (30, 40)];
        assert_eq!(covered(&mut iv, 10, 20), 0);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        let rec = Recorder::new();
        {
            let root = rec.open("push", 7, None);
            rec.time("json.decode", 7, Some(root.span()), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "json.decode").unwrap();
        let root = spans.iter().find(|s| s.name == "push").unwrap();
        assert_eq!(child.parent, Some(root.span));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        let stages = by_name(&spans);
        assert!(stages["json.decode"].self_s >= 0.002);
        assert!(stages["push"].self_s < stages["push"].total_s);
        let cov = covered_by_stages(&spans, "push");
        assert_eq!(cov.len(), 1);
        assert!((cov[0] - child.dur_ns() as f64 * 1e-9).abs() < 1e-12);
    }
}
