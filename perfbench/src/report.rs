//! Turns measured operations into named metrics, prints them as a table with
//! each metric's within-run spread, and renders the final JSON result line.

use crate::stats::{beyond, iqr, mean, median, percentile};
use std::fmt::Write as _;

/// One operation as the untraced run saw it.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Position in the workload's seeded input sequence.
    pub seq: usize,
    /// False for the first, untimed operation.
    pub timed: bool,
    pub wall_ms: f64,
    /// Seconds from the start of the timed phase to the end of this op.
    pub end_s: f64,
    /// The child's own CPU time and peak RSS (CLI workloads only).
    pub cpu_ms: Option<f64>,
    pub rss_mb: Option<f64>,
    /// makespan / OMIM of its output when the output checked out; `None`
    /// marks a failed operation.
    pub ratio: Option<f64>,
}

/// One reported metric: value, unit, and the samples behind it within this
/// run, whose interquartile range is printed next to it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, spread: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value,
            spread,
        }
    }
}

/// CPU time the program spent: per child for CLI workloads, or sampled
/// intervals of the daemon as (CPU ms, requests completed).
pub enum Cpu {
    Children,
    Daemon {
        total_ms: f64,
        intervals: Vec<(f64, f64)>,
    },
}

/// Chunks the timed operations are split into for the within-run spread
/// of throughput and CPU per operation.
const CHUNKS: usize = 8;

/// The eight end-to-end metrics of one workload run.
pub fn end_to_end(
    setup_s: &[f64],
    ops: &[Op],
    phase_s: f64,
    cpu: &Cpu,
    daemon_rss_mb: Option<f64>,
    ratio_prefix: usize,
) -> Vec<Metric> {
    let timed: Vec<&Op> = ops.iter().filter(|o| o.timed).collect();
    let walls: Vec<f64> = timed.iter().map(|o| o.wall_ms).collect();

    let mut by_end = timed.clone();
    by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let chunk_len = by_end.len().div_ceil(CHUNKS).max(1);
    let mut chunk_tput = Vec::new();
    let mut chunk_cpu = Vec::new();
    let mut chunk_start = 0.0;
    for chunk in by_end.chunks(chunk_len) {
        let end = chunk.last().map_or(chunk_start, |o| o.end_s);
        if end > chunk_start {
            chunk_tput.push(chunk.len() as f64 / (end - chunk_start));
        }
        let cpus: Vec<f64> = chunk.iter().filter_map(|o| o.cpu_ms).collect();
        if !cpus.is_empty() {
            chunk_cpu.push(mean(&cpus));
        }
        chunk_start = end;
    }

    let (cpu_per_op, cpu_spread) = match cpu {
        Cpu::Children => {
            let total: f64 = timed.iter().filter_map(|o| o.cpu_ms).sum();
            (total / timed.len().max(1) as f64, chunk_cpu)
        }
        Cpu::Daemon {
            total_ms,
            intervals,
        } => (
            total_ms / timed.len().max(1) as f64,
            intervals
                .iter()
                .filter(|&&(_, n)| n > 0.0)
                .map(|&(ms, n)| ms / n)
                .collect(),
        ),
    };

    let rss: Vec<f64> = timed.iter().filter_map(|o| o.rss_mb).collect();
    let peak_rss = daemon_rss_mb.unwrap_or_else(|| rss.iter().copied().fold(0.0, f64::max));

    let oks: Vec<f64> = ops
        .iter()
        .map(|o| if o.ratio.is_some() { 1.0 } else { 0.0 })
        .collect();
    let ratios: Vec<f64> = ops
        .iter()
        .filter(|o| o.seq < ratio_prefix)
        .filter_map(|o| o.ratio)
        .collect();

    vec![
        Metric::new("setup_s", "s", median(setup_s), setup_s.to_vec()),
        Metric::new("op_p50_ms", "ms", percentile(&walls, 50), walls.clone()),
        Metric::new("op_p90_ms", "ms", percentile(&walls, 90), walls.clone()),
        Metric::new(
            "throughput_per_s",
            "1/s",
            timed.len() as f64 / phase_s,
            chunk_tput,
        ),
        Metric::new("cpu_ms_per_op", "ms", cpu_per_op, cpu_spread),
        Metric::new("peak_rss_mb", "MB", peak_rss, rss),
        Metric::new("ok_share", "ratio", mean(&oks), oks),
        Metric::new("ratio_to_omim_mean", "ratio", mean(&ratios), ratios),
    ]
}

/// Operations attempted and failed (the untimed first operation included:
/// its output is checked like every other).
pub fn tally(ops: &[Op]) -> (usize, usize) {
    (ops.len(), ops.iter().filter(|o| o.ratio.is_none()).count())
}

/// The human-readable table: every metric with its unit, within-run IQR and
/// sample count, plus the samples behind the reported tail percentile.
pub fn table(header: &str, metrics: &[Metric], ops: &[Op]) -> String {
    let mut out = format!("{header}\n");
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:<6} {:>12} {:>7}",
        "metric", "value", "unit", "within-IQR", "n"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<32} {:>14.4} {:<6} {:>12.4} {:>7}",
            m.name,
            m.value,
            m.unit,
            iqr(&m.spread),
            m.spread.len()
        );
    }
    let timed = ops.iter().filter(|o| o.timed).count();
    if metrics.iter().any(|m| m.name == "op_p90_ms") {
        let _ = writeln!(
            out,
            "timed operations: {timed}; samples beyond op_p90_ms: {}",
            beyond(timed, 90)
        );
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                seq: i,
                timed: i > 0,
                wall_ms: (i % 10) as f64 + 1.0,
                end_s: i as f64 * 0.1,
                cpu_ms: Some(2.0),
                rss_mb: Some(10.0 + i as f64),
                ratio: Some(1.5),
            })
            .collect()
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn end_to_end_metrics_come_from_timed_ops() {
        let ops = ops(101);
        let m = end_to_end(&[0.3, 0.1, 0.2], &ops, 10.0, &Cpu::Children, None, 100);
        assert_eq!(m.len(), 8);
        assert_eq!(value(&m, "setup_s"), 0.2);
        assert_eq!(value(&m, "op_p50_ms"), 5.0);
        assert_eq!(value(&m, "op_p90_ms"), 9.0);
        assert_eq!(value(&m, "throughput_per_s"), 10.0);
        assert_eq!(value(&m, "cpu_ms_per_op"), 2.0);
        assert_eq!(value(&m, "peak_rss_mb"), 110.0);
        assert_eq!(value(&m, "ok_share"), 1.0);
        assert_eq!(value(&m, "ratio_to_omim_mean"), 1.5);
        assert_eq!(tally(&ops), (101, 0));
    }

    #[test]
    fn a_tampered_output_counts_as_failed() {
        let mut ops = ops(101);
        // The check rejected op 7's output: it is counted, never dropped.
        ops[7].ratio = None;
        let m = end_to_end(&[1.0], &ops, 10.0, &Cpu::Children, None, 100);
        assert_eq!(value(&m, "ok_share"), 100.0 / 101.0);
        assert_eq!(tally(&ops), (101, 1));
        let line = json_line(101, 1, &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 101, \"failed\": 1,"));
    }

    #[test]
    fn daemon_cpu_is_divided_by_timed_requests() {
        let ops = ops(11);
        let cpu = Cpu::Daemon {
            total_ms: 50.0,
            intervals: vec![(20.0, 4.0), (30.0, 6.0), (0.0, 0.0)],
        };
        let m = end_to_end(&[1.0], &ops, 1.0, &cpu, Some(64.0), 5);
        assert_eq!(value(&m, "cpu_ms_per_op"), 5.0);
        assert_eq!(value(&m, "peak_rss_mb"), 64.0);
        let spread = &m.iter().find(|m| m.name == "cpu_ms_per_op").unwrap().spread;
        assert_eq!(spread, &vec![5.0, 5.0]);
    }
}
