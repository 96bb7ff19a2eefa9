//! The benchmark's own span and count recorder.
//!
//! Spans are recorded at the call boundaries of each layer's public
//! functions, from the benchmark's code: name, start, end, parent span and
//! op id. Counts (solver iterations, cone sizes, optimizer moves) are
//! recorded at the same boundaries, per op. Both stay in memory until the
//! run ends and are then written out as JSON lines; the per-layer metrics
//! are computed from them.

use crate::out::Obj;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The op (request or optimizer call) the span belongs to.
    pub op: u64,
    /// Layer call name, e.g. `grid.solve`.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// End, µs since the recorder was created.
    pub end_us: f64,
}

impl SpanRecord {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One count taken at a call boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CountRecord {
    /// The op the count belongs to.
    pub op: u64,
    /// Count name, e.g. `grid.iterations`.
    pub name: &'static str,
    /// The counted value.
    pub value: f64,
}

/// A thread-safe in-memory span and count sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counts: Mutex<Vec<CountRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh recorder, shareable across threads and engine callbacks.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Reserves a span id, for a span whose children are created before
    /// it opens.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens span `name` of `op` under `parent`, recorded when dropped.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<u64>) -> Open<'_> {
        self.open_as(self.reserve(), name, op, parent)
    }

    /// [`Tracer::open`] under a [`reserved`](Tracer::reserve) id.
    pub fn open_as(&self, id: u64, name: &'static str, op: u64, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            record: SpanRecord {
                id,
                parent,
                op,
                name,
                start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                end_us: 0.0,
            },
        }
    }

    /// Records `value` of count `name` for `op`.
    pub fn count(&self, op: u64, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("count sink poisoned")
            .push(CountRecord { op, name, value });
    }

    /// Every closed span so far, in closing order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Every count so far, in recording order.
    pub fn counts(&self) -> Vec<CountRecord> {
        self.counts.lock().expect("count sink poisoned").clone()
    }

    /// Writes every count, then every span, as one JSON line each.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for c in self.counts() {
            let line = Obj::new()
                .int("op", c.op)
                .str("count", c.name)
                .num("value", c.value);
            writeln!(out, "{}", line.render())?;
        }
        for s in self.records() {
            let mut line = Obj::new()
                .int("id", s.id)
                .int("op", s.op)
                .str("name", s.name)
                .num("start_us", s.start_us)
                .num("end_us", s.end_us);
            if let Some(parent) = s.parent {
                line = line.int("parent", parent);
            }
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Open<'a> {
    tracer: &'a Tracer,
    record: SpanRecord,
}

impl Open<'_> {
    /// This span's id, the parent of spans opened inside it.
    pub fn id(&self) -> u64 {
        self.record.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.record.end_us = self.tracer.epoch.elapsed().as_secs_f64() * 1e6;
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(self.record.clone());
        }
    }
}

/// Where spans of one op go: the recorder, the op id and the enclosing
/// span. `None` in place of a `Scope` runs the same code untraced.
#[derive(Debug, Clone)]
pub struct Scope {
    /// The recorder.
    pub tracer: Arc<Tracer>,
    /// The op id.
    pub op: u64,
    /// The enclosing span.
    pub parent: Option<u64>,
}

impl Scope {
    /// The same op, nested under span `parent`.
    pub fn under(&self, parent: u64) -> Scope {
        Scope {
            parent: Some(parent),
            ..self.clone()
        }
    }

    /// Records count `name` for this scope's op.
    pub fn count(&self, name: &'static str, value: f64) {
        self.tracer.count(self.op, name, value);
    }
}

/// Runs `f` inside span `name` when traced, bare otherwise.
pub fn timed<R>(scope: Option<&Scope>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = scope.map(|s| s.tracer.open(name, s.op, s.parent));
    f()
}

/// Per-op sums of the self time (duration minus the time its child spans
/// cover) of every span called `name`, in µs. Children that run at once,
/// such as the jobs of one engine session, cover their union once.
pub fn self_time_by_op(records: &[SpanRecord], name: &str) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in records {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for s in records.iter().filter(|s| s.name == name) {
        let mut covered = 0.0;
        let mut reached = s.start_us;
        let mut spans = children.get(&s.id).cloned().unwrap_or_default();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (start, end) in spans {
            let (start, end) = (start.max(reached), end.min(s.end_us));
            if end > start {
                covered += end - start;
                reached = end;
            }
        }
        *out.entry(s.op).or_default() += s.dur_us() - covered;
    }
    out
}

/// Per-op sums of the full duration of every span called `name`, in µs.
pub fn time_by_op(records: &[SpanRecord], name: &str) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for s in records.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_default() += s.dur_us();
    }
    out
}

/// Per-op sums of count `name`.
pub fn count_by_op(counts: &[CountRecord], name: &str) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for c in counts.iter().filter(|c| c.name == name) {
        *out.entry(c.op).or_default() += c.value;
    }
    out
}

/// The median over ops of a per-op map (`0.0` when no op reached it).
pub fn median_of(by_op: &BTreeMap<u64, f64>) -> f64 {
    crate::stats::median(&by_op.values().copied().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        {
            let outer = t.open("outer", 3, None);
            let _inner = t.open("inner", 3, Some(outer.id()));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let records = t.records();
        assert_eq!(records.len(), 2);
        let outer_self = self_time_by_op(&records, "outer")[&3];
        let outer_full = time_by_op(&records, "outer")[&3];
        let inner = time_by_op(&records, "inner")[&3];
        assert!(inner >= 2000.0);
        assert!((outer_full - inner - outer_self).abs() < 1e-6);
        assert!(outer_self < outer_full);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let span = |id, parent, start_us, end_us| SpanRecord {
            id,
            parent,
            op: 0,
            name: if parent.is_some() { "job" } else { "session" },
            start_us,
            end_us,
        };
        // Two jobs side by side cover 10..90 of a 0..100 session.
        let records = [
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 80.0),
            span(3, Some(1), 20.0, 90.0),
        ];
        assert_eq!(self_time_by_op(&records, "session")[&0], 20.0);
    }

    #[test]
    fn counts_sum_per_op() {
        let t = Tracer::new();
        t.count(1, "x", 2.0);
        t.count(1, "x", 3.0);
        t.count(2, "x", 7.0);
        t.count(1, "y", 9.0);
        let by_op = count_by_op(&t.counts(), "x");
        assert_eq!(by_op, BTreeMap::from([(1, 5.0), (2, 7.0)]));
        assert_eq!(median_of(&by_op), 6.0);
    }
}
