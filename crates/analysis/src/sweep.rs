//! Memory-capacity sweeps over traces.

use dts_chem::Trace;
use dts_core::pool::run_indexed_pool;
use dts_core::prelude::*;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use serde::Serialize;

/// The capacity factors of the paper's evaluation: `mc` to `2·mc` in steps
/// of `0.125·mc`.
pub fn capacity_factors() -> Vec<f64> {
    (0..=8).map(|i| 1.0 + 0.125 * i as f64).collect()
}

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Heuristics to evaluate.
    pub heuristics: Vec<Heuristic>,
    /// Capacity factors (multiples of the per-trace `mc`).
    pub factors: Vec<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            heuristics: Heuristic::ALL.to_vec(),
            factors: capacity_factors(),
        }
    }
}

/// One measurement: a heuristic on one trace at one capacity factor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRow {
    /// Kernel of the trace (`"HF"` / `"CCSD"`).
    pub kernel: String,
    /// Process rank of the trace.
    pub rank: usize,
    /// Capacity factor (multiple of the trace's `mc`).
    pub factor: f64,
    /// Absolute capacity used.
    pub capacity: MemSize,
    /// Heuristic name.
    pub heuristic: String,
    /// Achieved makespan.
    pub makespan: Time,
    /// OMIM lower bound of the trace.
    pub omim: Time,
    /// Ratio to optimal (the paper's performance metric).
    pub ratio: f64,
}

/// Runs every configured heuristic on one trace across the capacity sweep.
///
/// ```
/// use dts_analysis::sweep::{run_trace_sweep, SweepConfig};
/// use dts_chem::suite::{generate_partial_suite, SuiteConfig};
/// use dts_chem::Kernel;
/// use dts_heuristics::Heuristic;
///
/// let traces = generate_partial_suite(Kernel::HartreeFock, &SuiteConfig::small(), 1);
/// let config = SweepConfig {
///     heuristics: vec![Heuristic::OS, Heuristic::OOLCMR],
///     factors: vec![1.0, 2.0],
/// };
/// let rows = run_trace_sweep(&traces[0], &config).unwrap();
/// assert_eq!(rows.len(), 4); // 2 heuristics x 2 capacity factors
/// assert!(rows.iter().all(|r| r.ratio >= 1.0 - 1e-12)); // never beats OMIM
/// ```
pub fn run_trace_sweep(trace: &Trace, config: &SweepConfig) -> Result<Vec<SweepRow>> {
    let mut rows = Vec::with_capacity(config.heuristics.len() * config.factors.len());
    let unbounded = trace.to_instance(MemSize::UNBOUNDED)?;
    let omim = johnson_makespan(&unbounded);
    for &factor in &config.factors {
        let instance = trace.to_instance_scaled(factor)?;
        for &heuristic in &config.heuristics {
            let makespan = run_heuristic(&instance, heuristic)?.makespan(&instance);
            rows.push(SweepRow {
                kernel: trace.kernel.clone(),
                rank: trace.rank,
                factor,
                capacity: instance.capacity(),
                heuristic: heuristic.name().to_string(),
                makespan,
                omim,
                ratio: makespan.ratio(omim),
            });
        }
    }
    Ok(rows)
}

/// Runs the sweep over a whole suite of traces, spreading the traces over
/// `threads` worker threads (each trace is independent).
///
/// Workers claim traces one at a time from a shared index instead of being
/// handed fixed chunks, so a single slow trace (the HF/CCSD suites mix rank
/// sizes that differ by orders of magnitude) delays only the worker running
/// it while the others drain the rest of the suite. Rows come back in the
/// same deterministic order as a sequential run regardless of which worker
/// processed which trace.
///
/// # Errors
///
/// A failing trace stops the pool: the remaining workers claim no further
/// traces, and among the failures observed the one with the lowest trace
/// index is returned (so a single bad trace yields a stable error). A panic
/// inside a trace is caught and reported as [`CoreError::Internal`] instead
/// of poisoning the caller.
///
/// ```
/// use dts_analysis::sweep::{run_suite_sweep, SweepConfig};
/// use dts_chem::suite::{generate_partial_suite, SuiteConfig};
/// use dts_chem::Kernel;
/// use dts_heuristics::Heuristic;
///
/// let traces = generate_partial_suite(Kernel::HartreeFock, &SuiteConfig::small(), 2);
/// let config = SweepConfig {
///     heuristics: vec![Heuristic::MAMR],
///     factors: vec![1.0],
/// };
/// // Worker count only affects wall-clock time, never the rows.
/// let parallel = run_suite_sweep(&traces, &config, 2).unwrap();
/// assert_eq!(parallel, run_suite_sweep(&traces, &config, 1).unwrap());
/// ```
pub fn run_suite_sweep(
    traces: &[Trace],
    config: &SweepConfig,
    threads: usize,
) -> Result<Vec<SweepRow>> {
    let per_trace = run_indexed_pool(traces.len(), threads, |index| {
        run_trace_sweep(&traces[index], config)
    })?;
    Ok(per_trace.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_chem::{suite::generate_partial_suite, suite::SuiteConfig, Kernel};

    fn small_traces() -> Vec<Trace> {
        generate_partial_suite(Kernel::HartreeFock, &SuiteConfig::small(), 2)
    }

    #[test]
    fn capacity_factors_match_the_paper() {
        let f = capacity_factors();
        assert_eq!(f.len(), 9);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 1.125);
        assert_eq!(f[8], 2.0);
    }

    #[test]
    fn sweep_rows_cover_every_combination() {
        let traces = small_traces();
        let config = SweepConfig {
            heuristics: vec![Heuristic::OS, Heuristic::OOSIM, Heuristic::MAMR],
            factors: vec![1.0, 1.5, 2.0],
        };
        let rows = run_trace_sweep(&traces[0], &config).unwrap();
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.ratio >= 1.0 - 1e-12));
        assert!(rows.iter().all(|r| r.kernel == "HF"));
    }

    #[test]
    fn ratios_do_not_increase_with_capacity_for_corrected_heuristics() {
        // More memory can only help OOLCMR on a given trace (it degenerates
        // to the Johnson order when memory stops being a constraint).
        let traces = small_traces();
        let config = SweepConfig {
            heuristics: vec![Heuristic::OOLCMR],
            factors: vec![1.0, 2.0, 1000.0],
        };
        let rows = run_trace_sweep(&traces[0], &config).unwrap();
        assert!(rows[2].ratio <= rows[0].ratio + 1e-9);
        // With a huge capacity the corrected heuristic reaches OMIM exactly.
        assert!((rows[2].ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn suite_sweep_aggregates_and_parallel_matches_sequential() {
        let traces = small_traces();
        let config = SweepConfig {
            heuristics: vec![Heuristic::SCMR, Heuristic::OOSCMR],
            factors: vec![1.0, 1.5],
        };
        let sequential = run_suite_sweep(&traces, &config, 1).unwrap();
        let parallel = run_suite_sweep(&traces, &config, 2).unwrap();
        assert_eq!(sequential.len(), traces.len() * 2 * 2);
        assert_eq!(sequential, parallel);
        // More workers than traces: the extra workers find the queue empty
        // and exit; the rows still come back in sequential order.
        let oversubscribed = run_suite_sweep(&traces, &config, 64).unwrap();
        assert_eq!(sequential, oversubscribed);
    }

    #[test]
    fn suite_sweep_propagates_worker_errors() {
        // An empty trace cannot be turned into an instance; the worker that
        // claims it must surface the error instead of panicking the pool,
        // whichever position the bad trace occupies.
        let good = small_traces();
        let bad = Trace {
            kernel: "HF".into(),
            rank: 999,
            tasks: Vec::new(),
            model: None,
            cost_model: None,
        };
        let config = SweepConfig {
            heuristics: vec![Heuristic::OS],
            factors: vec![1.0],
        };
        for position in 0..=good.len() {
            let mut traces = good.clone();
            traces.insert(position, bad.clone());
            let err = run_suite_sweep(&traces, &config, 2).unwrap_err();
            assert_eq!(err, dts_core::CoreError::EmptyInstance, "{position}");
        }
    }
}
