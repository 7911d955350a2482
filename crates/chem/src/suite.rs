//! Generation of full trace suites (one trace per process rank).

use crate::ccsd::{generate_ccsd_trace, CcsdConfig};
use crate::hf::{generate_hf_trace, HfConfig};
use crate::trace::Trace;
use dts_ga::{Topology, TransferModel};
use dts_tensor::CostModel;
use serde::Serialize;

/// Which molecular-chemistry kernel to generate traces for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Kernel {
    /// Hartree–Fock (SiOSi-like input, tile size 100).
    HartreeFock,
    /// Coupled Cluster Single Double (Uracil-like input, heterogeneous
    /// tiles).
    Ccsd,
}

impl Kernel {
    /// Short name as used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::HartreeFock => "HF",
            Kernel::Ccsd => "CCSD",
        }
    }
}

/// Configuration of a suite generation run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Cluster topology (the paper uses 10 nodes × 15 workers = 150 ranks).
    pub topology: Topology,
    /// Transfer-cost model.
    pub transfer: TransferModel,
    /// Kernel cost model.
    pub cost: CostModel,
    /// HF generator parameters.
    pub hf: HfConfig,
    /// CCSD generator parameters.
    pub ccsd: CcsdConfig,
    /// Number of worker threads used for generation (the ranks are
    /// independent).
    pub threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            topology: Topology::cascade_10_nodes(),
            transfer: TransferModel::default(),
            cost: CostModel::default(),
            hf: HfConfig::default(),
            ccsd: CcsdConfig::default(),
            threads: 4,
        }
    }
}

impl SuiteConfig {
    /// A reduced configuration (6 ranks, small tile counts) for tests,
    /// examples and quick benchmark runs.
    pub fn small() -> Self {
        SuiteConfig {
            topology: Topology {
                nodes: 2,
                workers_per_node: 3,
            },
            hf: HfConfig::small(),
            ccsd: CcsdConfig::small(),
            threads: 2,
            ..Default::default()
        }
    }
}

/// Generates one trace per rank for the requested kernel. Ranks are
/// independent, so generation is spread over `config.threads` threads with
/// crossbeam's scoped threads.
pub fn generate_suite(kernel: Kernel, config: &SuiteConfig) -> Vec<Trace> {
    let n = config.topology.n_processes();
    let threads = config.threads.clamp(1, n.max(1));
    let mut traces: Vec<Option<Trace>> = (0..n).map(|_| None).collect();

    crossbeam::thread::scope(|scope| {
        for (chunk_index, chunk) in traces.chunks_mut(n.div_ceil(threads)).enumerate() {
            let config = &*config;
            scope.spawn(move |_| {
                let base = chunk_index * n.div_ceil(threads);
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    let rank = base + offset;
                    let trace = match kernel {
                        Kernel::HartreeFock => generate_hf_trace(
                            &config.hf,
                            config.topology,
                            config.transfer,
                            config.cost,
                            rank,
                        ),
                        Kernel::Ccsd => generate_ccsd_trace(
                            &config.ccsd,
                            config.topology,
                            config.transfer,
                            config.cost,
                            rank,
                        ),
                    };
                    *slot = Some(trace);
                }
            });
        }
    })
    .expect("trace-generation threads do not panic");

    traces
        .into_iter()
        .map(|t| t.expect("every rank was generated"))
        .collect()
}

/// Generates a suite and keeps only the first `n_ranks` traces — handy for
/// experiments that need representative traces without paying for all 150
/// ranks.
pub fn generate_partial_suite(kernel: Kernel, config: &SuiteConfig, n_ranks: usize) -> Vec<Trace> {
    let mut traces = Vec::with_capacity(n_ranks.min(config.topology.n_processes()));
    for rank in 0..n_ranks.min(config.topology.n_processes()) {
        traces.push(match kernel {
            Kernel::HartreeFock => generate_hf_trace(
                &config.hf,
                config.topology,
                config.transfer,
                config.cost,
                rank,
            ),
            Kernel::Ccsd => generate_ccsd_trace(
                &config.ccsd,
                config.topology,
                config.transfer,
                config.cost,
                rank,
            ),
        });
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_generates_every_rank() {
        let config = SuiteConfig::small();
        for kernel in [Kernel::HartreeFock, Kernel::Ccsd] {
            let suite = generate_suite(kernel, &config);
            assert_eq!(suite.len(), 6);
            for (rank, trace) in suite.iter().enumerate() {
                assert_eq!(trace.rank, rank);
                assert_eq!(trace.kernel, kernel.name());
                assert!(!trace.is_empty());
            }
        }
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        let mut parallel_config = SuiteConfig::small();
        parallel_config.threads = 3;
        let parallel = generate_suite(Kernel::HartreeFock, &parallel_config);
        let sequential = generate_partial_suite(Kernel::HartreeFock, &parallel_config, 6);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn partial_suite_truncates() {
        let config = SuiteConfig::small();
        let partial = generate_partial_suite(Kernel::Ccsd, &config, 2);
        assert_eq!(partial.len(), 2);
        let oversized = generate_partial_suite(Kernel::Ccsd, &config, 99);
        assert_eq!(oversized.len(), 6);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(Kernel::HartreeFock.name(), "HF");
        assert_eq!(Kernel::Ccsd.name(), "CCSD");
    }
}
