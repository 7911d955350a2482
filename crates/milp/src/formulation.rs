//! Symbolic encoding of the MILP of Section 4.5.
//!
//! The formulation minimizes `l` subject to, for all tasks `i` and `j ≠ i`:
//!
//! ```text
//! e'_i <= l                                  (task i completes)
//! e_i  <= s'_i                               (transfer before computation)
//! e_j  <= s_i  + (1 - a_ij) L                (link exclusivity)
//! e_i  <= s_j  + a_ij L
//! e'_j <= s'_i + (1 - b_ij) L                (processor exclusivity)
//! e'_i <= s'_j + b_ij L
//! e'_j <= s_i  + (1 - c_ij) L                (definition of c_ij)
//! s_i  <  e'_j + c_ij L
//! Σ_{r≠i} (a_ir − c_ir) MC(r) + MC(i) <= C   (memory constraint)
//! a_ij + a_ji = 1,  b_ij + b_ji = 1
//! c_ij <= a_ij,  c_ij <= b_ij,  c_ij + c_ji <= 1
//! ```
//!
//! where `s_i`/`e_i` are the start/end of task `i`'s transfer, `s'_i`/`e'_i`
//! the start/end of its computation and `L = Σ_i (CM_i + CP_i)`.
//!
//! This module does not run an LP solver; it materializes the variables and
//! constraints so that (a) their number can be reported (as the paper
//! discusses the scalability of the formulation) and (b) any concrete
//! [`Schedule`] can be checked against the formulation, which the test-suite
//! uses to show that feasible schedules satisfy the MILP and infeasible ones
//! violate it.

use dts_core::prelude::*;
use std::fmt;

/// Assignment of the MILP decision variables induced by a concrete schedule.
#[derive(Debug, Clone)]
pub struct MilpAssignment {
    /// `a_ij`: task `i`'s transfer precedes task `j`'s transfer.
    pub a: Vec<Vec<bool>>,
    /// `b_ij`: task `i`'s computation precedes task `j`'s computation.
    pub b: Vec<Vec<bool>>,
    /// `c_ij`: task `i`'s transfer starts at or after the end of task `j`'s
    /// computation.
    pub c: Vec<Vec<bool>>,
    /// Objective value (makespan).
    pub objective: Time,
}

/// The MILP formulation for a given instance.
#[derive(Debug, Clone)]
pub struct MilpFormulation<'a> {
    instance: &'a Instance,
}

impl<'a> MilpFormulation<'a> {
    /// Builds the formulation for an instance.
    pub fn new(instance: &'a Instance) -> Self {
        MilpFormulation { instance }
    }

    /// The "big-M" constant `L = Σ_i (CM_i + CP_i)` used by the paper.
    pub fn big_m(&self) -> Time {
        self.instance.stats().sequential_upper_bound()
    }

    /// Number of boolean variables (`a`, `b`, `c` for every ordered pair).
    pub fn n_boolean_variables(&self) -> usize {
        let n = self.instance.len();
        3 * n * (n - 1)
    }

    /// Number of continuous variables (four time points per task plus the
    /// objective).
    pub fn n_continuous_variables(&self) -> usize {
        4 * self.instance.len() + 1
    }

    /// Number of constraints, counting every row listed in the module
    /// documentation (including the helper constraints the paper adds to
    /// strengthen the relaxation).
    pub fn n_constraints(&self) -> usize {
        let n = self.instance.len();
        let pairs = n * (n - 1);
        // completion + precedence per task.
        2 * n
            // link, processor and c-definition big-M rows: 6 per ordered pair.
            + 3 * pairs * 2
            // memory constraint per task.
            + n
            // helper rows: a_ij + a_ji = 1 and b_ij + b_ji = 1 per unordered
            // pair, plus c_ij <= a_ij, c_ij <= b_ij per ordered pair and
            // c_ij + c_ji <= 1 per unordered pair.
            + pairs / 2 * 2
            + 2 * pairs
            + pairs / 2
    }

    /// Extracts the boolean assignment induced by a schedule.
    pub fn assignment(&self, schedule: &Schedule) -> Option<MilpAssignment> {
        let n = self.instance.len();
        if schedule.len() != n {
            return None;
        }
        let mut comm_start = vec![Time::ZERO; n];
        let mut comm_end = vec![Time::ZERO; n];
        let mut comp_start = vec![Time::ZERO; n];
        let mut comp_end = vec![Time::ZERO; n];
        for entry in schedule.entries() {
            let i = entry.task.index();
            if i >= n {
                return None;
            }
            let task = self.instance.task(entry.task);
            comm_start[i] = entry.comm_start;
            comm_end[i] = entry.comm_start + task.comm_time;
            comp_start[i] = entry.comp_start;
            comp_end[i] = entry.comp_start + task.comp_time;
        }
        let mut a = vec![vec![false; n]; n];
        let mut b = vec![vec![false; n]; n];
        let mut c = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Order by start times; ties broken by index so that
                // a_ij + a_ji = 1 holds even for zero-length transfers.
                a[i][j] = (comm_start[i], i) < (comm_start[j], j);
                b[i][j] = (comp_start[i], i) < (comp_start[j], j);
                c[i][j] = comm_start[i] >= comp_end[j];
            }
        }
        Some(MilpAssignment {
            a,
            b,
            c,
            objective: schedule.makespan(self.instance),
        })
    }

    /// Checks a schedule against the MILP constraints. Returns the list of
    /// violated constraint names (empty means the schedule is a feasible MILP
    /// point).
    pub fn check(&self, schedule: &Schedule) -> Vec<String> {
        let n = self.instance.len();
        let mut violations = Vec::new();
        let Some(assignment) = self.assignment(schedule) else {
            return vec!["schedule does not cover every task exactly once".to_string()];
        };
        let mut comm_start = vec![Time::ZERO; n];
        let mut comm_end = vec![Time::ZERO; n];
        let mut comp_start = vec![Time::ZERO; n];
        let mut comp_end = vec![Time::ZERO; n];
        for entry in schedule.entries() {
            let i = entry.task.index();
            let task = self.instance.task(entry.task);
            comm_start[i] = entry.comm_start;
            comm_end[i] = entry.comm_start + task.comm_time;
            comp_start[i] = entry.comp_start;
            comp_end[i] = entry.comp_start + task.comp_time;
        }

        for i in 0..n {
            if comp_end[i] > assignment.objective {
                violations.push(format!("completion of task {i} exceeds the objective"));
            }
            if comm_end[i] > comp_start[i] {
                violations.push(format!("task {i} computes before its transfer ends"));
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if assignment.a[i][j] && comm_end[i] > comm_start[j] && comm_end[i] > comm_start[i]
                {
                    // i's transfer precedes j's: link exclusivity requires
                    // e_i <= s_j (zero-length transfers never conflict).
                    if comm_start[j] < comm_end[i] && comm_end[j] > comm_start[j] {
                        violations.push(format!("transfers of {i} and {j} overlap"));
                    }
                }
                if assignment.b[i][j]
                    && comp_end[i] > comp_start[j]
                    && comp_end[i] > comp_start[i]
                    && comp_end[j] > comp_start[j]
                {
                    violations.push(format!("computations of {i} and {j} overlap"));
                }
                if assignment.c[i][j] && comm_start[i] < comp_end[j] {
                    violations.push(format!("c[{i}][{j}] set but transfer starts early"));
                }
            }
        }
        // Memory constraint: for every task i, the tasks whose transfer
        // precedes i's and whose computation has not finished when i's
        // transfer starts must fit together with i.
        let capacity = self.instance.capacity();
        for i in 0..n {
            let mut used = self.instance.task(TaskId(i)).mem;
            for r in 0..n {
                if r == i {
                    continue;
                }
                if assignment.a[r][i] && !assignment.c[i][r] {
                    used += self.instance.task(TaskId(r)).mem;
                }
            }
            if used > capacity {
                violations.push(format!(
                    "memory constraint violated when task {i} starts its transfer"
                ));
            }
        }
        violations
    }
}

impl fmt::Display for MilpFormulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MILP for {} tasks: {} boolean variables, {} continuous variables, {} constraints, L = {}",
            self.instance.len(),
            self.n_boolean_variables(),
            self.n_continuous_variables(),
            self.n_constraints(),
            self.big_m()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::instances::{table2, table3};
    use dts_core::simulate::simulate_sequence;

    #[test]
    fn counts_grow_quadratically() {
        let inst = table3();
        let f = MilpFormulation::new(&inst);
        assert_eq!(f.n_boolean_variables(), 3 * 4 * 3);
        assert_eq!(f.n_continuous_variables(), 17);
        assert!(f.n_constraints() > 4 * 3 * 3);
        assert_eq!(f.big_m(), Time::units_int(20));
        assert!(f.to_string().contains("boolean"));
    }

    #[test]
    fn feasible_schedule_satisfies_the_milp() {
        let inst = table3();
        let f = MilpFormulation::new(&inst);
        for h in [
            dts_heuristics::Heuristic::OOSIM,
            dts_heuristics::Heuristic::DOCPS,
            dts_heuristics::Heuristic::MAMR,
        ] {
            let sched = dts_heuristics::run_heuristic(&inst, h).unwrap();
            assert!(f.check(&sched).is_empty(), "{h}: {:?}", f.check(&sched));
        }
    }

    #[test]
    fn memory_violation_detected_by_milp_check() {
        // Execute the Table 3 OOSIM order as if memory were unbounded; the
        // resulting schedule violates the memory row of the MILP.
        let inst = table3();
        let order = dts_flowshop::johnson::johnson_order(&inst);
        let sched =
            dts_core::simulate::simulate_sequence_infinite(&inst, &order, inst.model()).unwrap();
        let f = MilpFormulation::new(&inst);
        let violations = f.check(&sched);
        assert!(
            violations.iter().any(|v| v.contains("memory")),
            "{violations:?}"
        );
    }

    #[test]
    fn assignment_booleans_are_consistent() {
        let inst = table2();
        let order = inst.task_ids();
        let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
        let f = MilpFormulation::new(&inst);
        let asg = f.assignment(&sched).unwrap();
        let n = inst.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert!(asg.a[i][j] ^ asg.a[j][i], "a[{i}][{j}] consistency");
                assert!(asg.b[i][j] ^ asg.b[j][i], "b[{i}][{j}] consistency");
                // c_ij <= a_ij and c_ij <= b_ij (helper constraints).
                if asg.c[i][j] {
                    assert!(asg.a[j][i], "c[{i}][{j}] implies j's transfer precedes");
                }
                assert!(!(asg.c[i][j] && asg.c[j][i]));
            }
        }
        assert_eq!(asg.objective, sched.makespan(&inst));
    }

    #[test]
    fn incomplete_schedule_rejected() {
        let inst = table3();
        let f = MilpFormulation::new(&inst);
        let sched = Schedule::new();
        assert!(!f.check(&sched).is_empty());
    }
}
