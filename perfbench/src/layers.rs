//! Per-layer metrics of the traced run, and the replayed layer calls the
//! CLI and daemon workloads share.
//!
//! A span named `x` yields the metric `x_ms`: the per-operation time of that
//! public call, as a median over the traced operations that made it (so
//! `server.solve_ms` covers cache misses only). A layer a workload never
//! calls reports 0.

use crate::report::Metric;
use crate::spans::{OpTotals, Recorder, SpanId};
use crate::stats::median;
use dts_core::index::CandidateIndex;
use dts_core::prelude::{Instance, Result, Schedule};
use dts_heuristics::{run_heuristic_with, Heuristic};
use std::time::Instant;

/// How a layer metric is derived from the traced operations.
#[derive(Clone, Copy)]
enum Source {
    /// Median per-op time of a span name, in ms.
    Span(&'static str),
    /// Median per-op value of a counter.
    Counter(&'static str),
    /// Solve time per scheduled task, in ns.
    SolvePerTask,
    /// Root span time not covered by its direct children, in ms, on the
    /// CLI (`false`) or daemon (`true`) workloads.
    Unattributed { daemon: bool },
    /// Share of daemon replies served from the cache.
    HitRatio,
}

/// Every per-layer metric but `tracing.overhead_ms`, in report order, with
/// its unit.
const LAYER_METRICS: [(&str, &str, Source); 22] = [
    ("chem.trace.read_ms", "ms", Source::Span("chem.trace.read")),
    (
        "chem.trace.read_mb",
        "MB",
        Source::Counter("chem.trace.read_mb"),
    ),
    (
        "chem.trace.parse_ms",
        "ms",
        Source::Span("chem.trace.parse"),
    ),
    (
        "chem.trace.parse_peak_rss_mb",
        "MB",
        Source::Counter("chem.trace.parse_peak_rss_mb"),
    ),
    (
        "chem.trace.to_instance_ms",
        "ms",
        Source::Span("chem.trace.to_instance"),
    ),
    (
        "core.index.build_ms",
        "ms",
        Source::Span("core.index.build"),
    ),
    (
        "heuristics.solve_ms",
        "ms",
        Source::Span("heuristics.solve"),
    ),
    ("heuristics.solve_ns_per_task", "ns", Source::SolvePerTask),
    ("flowshop.omim_ms", "ms", Source::Span("flowshop.omim")),
    (
        "core.metrics.render_ms",
        "ms",
        Source::Span("core.metrics.render"),
    ),
    ("analysis.sweep_ms", "ms", Source::Span("analysis.sweep")),
    (
        "analysis.cells_per_op",
        "count",
        Source::Counter("analysis.cells_per_op"),
    ),
    (
        "cli.unattributed_ms",
        "ms",
        Source::Unattributed { daemon: false },
    ),
    (
        "server.client.encode_ms",
        "ms",
        Source::Span("server.client.encode"),
    ),
    (
        "server.request_kb",
        "KB",
        Source::Counter("server.request_kb"),
    ),
    (
        "server.protocol.parse_ms",
        "ms",
        Source::Span("server.protocol.parse"),
    ),
    (
        "server.protocol.digest_ms",
        "ms",
        Source::Span("server.protocol.digest"),
    ),
    ("server.solve_ms", "ms", Source::Span("server.solve")),
    (
        "server.reply_parse_ms",
        "ms",
        Source::Span("server.reply_parse"),
    ),
    ("server.reply_kb", "KB", Source::Counter("server.reply_kb")),
    (
        "server.wait_ms",
        "ms",
        Source::Unattributed { daemon: true },
    ),
    ("core.cache.hit_ratio", "ratio", Source::HitRatio),
];

/// Metrics computed from the traced run. `traced_ms` and `untraced_ms` are
/// the operation times of the traced and the interleaved untraced
/// operations; `cache` is (hits, replies) on the daemon workload.
pub fn layer_metrics(
    rec: &Recorder,
    daemon: bool,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    cache: Option<(usize, usize)>,
) -> Vec<Metric> {
    let ops: Vec<OpTotals> = rec.per_op().into_values().collect();
    let over =
        |f: &dyn Fn(&OpTotals) -> Option<f64>| -> Vec<f64> { ops.iter().filter_map(f).collect() };
    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, source)| {
            let samples = match source {
                Source::Span(span) => over(&|t| t.by_name.get(span).map(|&ns| ns as f64 / 1e6)),
                Source::Counter(counter) => over(&|t| t.counters.get(counter).copied()),
                Source::SolvePerTask => over(&|t| {
                    let ns = *t.by_name.get("heuristics.solve")? as f64;
                    Some(ns / t.counters.get("heuristics.tasks")?)
                }),
                Source::Unattributed { daemon: d } if d == daemon => {
                    over(&|t| (t.root_ns > 0).then(|| t.unattributed_ns() / 1e6))
                }
                Source::Unattributed { .. } => Vec::new(),
                Source::HitRatio => match cache {
                    Some((hits, replies)) if replies > 0 => vec![hits as f64 / replies as f64],
                    _ => Vec::new(),
                },
            };
            let value = if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            };
            Metric::new(name, unit, value, samples)
        })
        .collect();
    metrics.push(Metric::new(
        "tracing.overhead_ms",
        "ms",
        median(traced_ms) - median(untraced_ms),
        Vec::new(),
    ));
    metrics
}

/// The candidate index a heuristic builds inside its solve: the full index
/// for the acceleration rules, the communication-only one for the other
/// dynamic and corrected rules, none for static orders.
fn build_index(instance: &Instance, heuristic: Heuristic) -> Option<CandidateIndex> {
    match heuristic {
        Heuristic::MAMR | Heuristic::OOMAMR => Some(CandidateIndex::new(instance)),
        Heuristic::LCMR | Heuristic::SCMR | Heuristic::OOLCMR | Heuristic::OOSCMR => {
            Some(CandidateIndex::comm_only(instance))
        }
        _ => None,
    }
}

/// Replays one solve under `parent`: `heuristics.solve` around the solver
/// call, with the index build it performs internally replayed as a separate
/// call and recorded beneath it.
pub fn replay_solve(
    rec: &mut Recorder,
    op: usize,
    parent: SpanId,
    instance: &Instance,
    heuristic: Heuristic,
) -> Result<Schedule> {
    let index_start = Instant::now();
    let built = std::hint::black_box(build_index(instance, heuristic)).is_some();
    let index_end = Instant::now();
    let (schedule, solve) = rec.time(op, parent, "heuristics.solve", || {
        run_heuristic_with(instance, heuristic, instance.model())
    });
    if built {
        rec.record(op, solve, "core.index.build", index_start, index_end);
    }
    rec.count(op, "heuristics.tasks", instance.len() as f64);
    schedule
}
