//! # dts-core
//!
//! Core data model for the *data-transfer ordering* problem (problem `DT` in
//! Kumar, Eyraud-Dubois & Krishnamoorthy, *Performance Models for Data
//! Transfers: A Case Study with Molecular Chemistry Kernels*, ICPP 2019).
//!
//! A set of independent tasks is executed on a processing unit `P` with local
//! memory `M` of capacity `C`. Each task's input data initially lives on a
//! remote memory node `M'` and has to be moved over a single communication
//! link before the computation can start. A task holds its memory from the
//! **start of its communication** until the **end of its computation**. The
//! objective is to order the transfers (and computations) so that
//! communication is overlapped with computation and the makespan is
//! minimized.
//!
//! This crate provides:
//!
//! * [`Time`] / [`MemSize`] — fixed-point time and byte quantities,
//! * [`exec`] — the execution-model layer (explicit, duplex, k-stream and
//!   implicit-overlap transfer semantics shared by the executors and the
//!   decision engine),
//! * [`Task`], [`Instance`] — the problem input,
//! * [`Schedule`] — a complete solution (per-task communication and
//!   computation start times),
//! * [`index`] — the memory-indexed candidate structure used by the
//!   decision-driven heuristics to select tasks in O(log n) per decision,
//! * [`pool`] — the shared work-stealing pool behind the parallel solve
//!   layers (suite sweeps, the daemon's request batches),
//! * [`hash`] — stable 128-bit content hashing (cache keys that survive
//!   process and platform boundaries),
//! * [`cache`] — the bounded solve-once cache behind the scheduling
//!   daemon (concurrent identical requests solve exactly once),
//! * [`doc`] — the strict JSON document reader every input door uses
//!   (trace and cost-model files, the corpus golden file, daemon
//!   requests): unknown and repeated keys are errors naming the key,
//! * [`sync`] — the compile-time façade that lets the pool run on either
//!   `std` atomics or the `microloom` model checker's instrumented types,
//! * [`feasibility`] — the feasibility checker for schedules (link and CPU
//!   exclusivity, precedence, memory envelope),
//! * [`memory`] — memory-occupation profiles,
//! * [`perfmodel`] — calibrated cost models (analytic, history-based and
//!   regression backends) with a versioned model-file format and integer
//!   least-squares fitting,
//! * [`simulate`] — the event-driven executors used by all heuristics
//!   (same-order execution under a memory capacity, and the infinite-memory
//!   executor),
//! * [`metrics`] — makespan, idle-time and overlap metrics,
//! * [`gantt`] — ASCII Gantt rendering of schedules,
//! * [`instances`] — the example instances of Tables 2–5 of the paper and
//!   random-instance generators used by tests and benchmarks.
//!
//! The shrinkable property-test generators live in the dev-only
//! `dts_testgen` crate, so no production binary links `microcheck`.

#![warn(missing_docs)]

pub mod cache;
pub mod doc;
pub mod error;
pub mod exec;
pub mod feasibility;
pub mod gantt;
pub mod hash;
pub mod index;
pub mod instance;
pub mod instances;
pub mod memory;
pub mod metrics;
pub mod perfmodel;
pub mod pool;
pub mod schedule;
pub mod simulate;
pub mod sync;
pub mod task;
pub mod time;

pub use cache::SolveCache;
pub use error::{CoreError, Result};
pub use exec::{ExecutionModel, OverlapEfficiency};
pub use hash::{Digest128, StableHasher};
pub use index::CandidateIndex;
pub use instance::{Instance, InstanceBuilder, InstanceStats};
pub use memory::MemSize;
pub use perfmodel::{ComputeBackend, CostModel, CostModelSpec, LinkClass};
pub use schedule::{Schedule, ScheduleEntry};
pub use task::{Task, TaskId, TaskIntensity};
pub use time::Time;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use crate::error::{CoreError, Result};
    pub use crate::exec::{ExecutionModel, OverlapEfficiency};
    pub use crate::feasibility::{validate, Violation};
    pub use crate::instance::{Instance, InstanceBuilder, InstanceStats};
    pub use crate::memory::MemSize;
    pub use crate::metrics::ScheduleMetrics;
    pub use crate::perfmodel::{ComputeBackend, CostModel, CostModelSpec, LinkClass};
    pub use crate::schedule::{Schedule, ScheduleEntry};
    pub use crate::simulate::{simulate_sequence, simulate_sequence_infinite};
    pub use crate::task::{Task, TaskId, TaskIntensity};
    pub use crate::time::Time;
}
