//! # dts_workloads — the workload corpus beyond HF/CCSD
//!
//! The paper's evaluation rests entirely on HF and CCSD integral-kernel
//! traces, so every claim about the heuristics is implicitly a claim
//! about one workload shape. This crate widens the evidence base with
//! two layers:
//!
//! * [`families`] — seeded, parameterized generators for MD-like traces
//!   (thousands of near-uniform small tasks), dense-LA-like traces (few
//!   tasks, Zipf-skewed computation, memory near capacity) and the
//!   adversarial task domains the property tests also draw from
//!   (tie-heavy, memory-cliff, transfer-bound). Same config + rank →
//!   byte-identical trace, always.
//! * [`corpus`] — the golden-metric scenario suite: every heuristic ×
//!   every execution model over one fixed scenario per family, compared
//!   against a committed golden file with a two-way ratchet
//!   (`dts corpus --update-golden` is the only sanctioned change path).
//!
//! Generated traces are ordinary [`dts_chem::Trace`]s, written and read
//! through the one `dts-trace` format of [`dts_chem::trace`]. The `dts`
//! CLI exposes both layers: `dts generate <family>` and `dts corpus`.

pub mod corpus;
pub mod families;

pub use corpus::{compare, run_corpus, scenarios, CorpusMetrics, CorpusReport, MetricRecord};
pub use families::{generate_trace, GeneratorConfig, WorkloadFamily};
