//! The traced run's span recorder. Spans live in memory while the workload
//! runs and are written out once at the end, so recording costs a clock read
//! and a push.
//!
//! Each operation has one root span (the `dts` child or the request round
//! trip). The layer calls replayed for it are recorded under that root; a
//! replayed call that a library function performs internally (the index
//! build inside a solve, the solves inside a sweep) is recorded under the
//! span of that function, so the root's direct children never count the
//! same work twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Span id, unique within its operation.
pub type SpanId = u32;

/// Id of every operation's root span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: usize,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans and per-operation counters of one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<(usize, &'static str, f64)>,
    next_id: BTreeMap<usize, SpanId>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            counters: Vec::new(),
            next_id: BTreeMap::new(),
        }
    }

    fn push(
        &mut self,
        op: usize,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records the root span of operation `op`, whose id is [`ROOT`].
    pub fn record_root(&mut self, op: usize, name: &'static str, start: Instant, end: Instant) {
        self.push(op, ROOT, None, name, start, end);
    }

    /// Allocates the id of a span of operation `op` that is recorded later
    /// with [`Recorder::record_as`], so the calls it encloses can be
    /// recorded beneath it first.
    pub fn reserve(&mut self, op: usize) -> SpanId {
        let next = self.next_id.entry(op).or_insert(ROOT + 1);
        let id = *next;
        *next += 1;
        id
    }

    /// Records the span `id` (from [`Recorder::reserve`]) of operation `op`.
    pub fn record_as(
        &mut self,
        op: usize,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.push(op, id, Some(parent), name, start, end);
    }

    /// Records a span of operation `op` that ran from `start` to `end`.
    pub fn record(
        &mut self,
        op: usize,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve(op);
        self.record_as(op, id, parent, name, start, end);
        id
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn time<T>(
        &mut self,
        op: usize,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let value = f();
        let id = self.record(op, parent, name, start, Instant::now());
        (value, id)
    }

    /// Records a per-operation count (bytes, cells, tasks, …).
    pub fn count(&mut self, op: usize, name: &'static str, value: f64) {
        self.counters.push((op, name, value));
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
    }

    /// Per-operation totals: for every span name the summed duration of that
    /// name's spans, the root's duration, and the root's unattributed time
    /// (root minus its direct children).
    pub fn per_op(&self) -> BTreeMap<usize, OpTotals> {
        let mut ops: BTreeMap<usize, OpTotals> = BTreeMap::new();
        for span in &self.spans {
            let totals = ops.entry(span.op).or_default();
            match span.parent {
                None => totals.root_ns += span.duration_ns(),
                Some(parent) => {
                    *totals.by_name.entry(span.name).or_default() += span.duration_ns();
                    if parent == ROOT {
                        totals.children_ns += span.duration_ns();
                    }
                }
            }
        }
        for &(op, name, value) in &self.counters {
            *ops.entry(op).or_default().counters.entry(name).or_default() += value;
        }
        ops
    }

    /// Writes every span and counter as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        for (op, name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"op\":{op},\"counter\":\"{name}\",\"value\":{value}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What one traced operation spent, by layer.
#[derive(Debug, Default, Clone)]
pub struct OpTotals {
    pub root_ns: u64,
    pub children_ns: u64,
    pub by_name: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl OpTotals {
    /// Root time not covered by its direct children, in nanoseconds (may be
    /// negative: replayed children are timed apart from the root).
    pub fn unattributed_ns(&self) -> f64 {
        self.root_ns as f64 - self.children_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_count_once_toward_the_root() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut rec = Recorder::new(epoch);
        rec.record(3, ROOT, "parse", at(100), at(130));
        let solve = rec.record(3, ROOT, "solve", at(130), at(180));
        rec.record(3, solve, "index", at(180), at(190));
        rec.record_root(3, "op", at(0), at(100));
        rec.count(3, "bytes", 2.0);
        rec.count(3, "bytes", 3.0);
        let mut other = Recorder::new(epoch);
        other.record_root(4, "op", at(0), at(10));
        rec.merge(other);
        let ops = rec.per_op();
        let t = &ops[&3];
        assert_eq!(t.root_ns, 100_000_000);
        assert_eq!(t.children_ns, 80_000_000);
        assert_eq!(t.unattributed_ns(), 20_000_000.0);
        assert_eq!(t.by_name["index"], 10_000_000);
        assert_eq!(t.counters["bytes"], 5.0);
        assert_eq!(ops[&4].root_ns, 10_000_000);
    }
}
