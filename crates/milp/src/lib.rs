//! # dts-milp
//!
//! The mixed-integer linear-programming view of the data-transfer problem
//! (Section 4.5 of the paper) and the iterative `lp.k` heuristic built on it.
//!
//! The paper formulates problem `DT` with, for every ordered pair of tasks
//! `(i, j)`, booleans `a_ij` (communication order), `b_ij` (computation
//! order) and `c_ij` (whether `i`'s transfer starts after `j`'s computation
//! ends), plus continuous start times. GLPK could not solve the full MILP at
//! the scale of interest, so the paper solves it *iteratively* on windows of
//! `k = 3..6` tasks, freezing already-started events at each window
//! boundary.
//!
//! This crate reproduces that pipeline without an external solver:
//!
//! * [`formulation`] encodes the MILP symbolically (variables, constraints)
//!   and can check a concrete schedule against it — the executable
//!   counterpart of the paper's formulation;
//! * [`window`] contains the exact window solver (branch-and-bound over the
//!   orderings of a window, warm-started from the state left by previous
//!   windows), which plays the role GLPK played in the paper;
//! * [`iterative`] assembles the `lp.k` heuristic: split the submission
//!   order into windows of `k` tasks, solve each window exactly, concatenate.
//!
//! The substitution (branch-and-bound instead of GLPK) is documented in
//! `DESIGN.md`; for the window sizes used by the paper (≤ 6 tasks) the
//! solver is exact over permutation schedules, which is all that matters for
//! reproducing Fig. 7.

#![warn(missing_docs)]

pub mod formulation;
pub mod iterative;
pub mod window;

pub use formulation::MilpFormulation;
pub use iterative::{lp_k, lp_k_sweep, LpKConfig};
