//! Example instances from the paper and random-instance generators.
//!
//! The fixed instances of Tables 2–5 are used by the unit tests, the
//! examples and the `fig3`–`fig6` benchmarks; the random generators are used
//! by property tests and by the exact-solver cross-checks.

use crate::instance::{Instance, InstanceBuilder};
use crate::memory::MemSize;
use crate::task::Task;
use crate::time::Time;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Unwraps a builder result that is valid by construction (static paper
/// tables, generators that compute a covering capacity). The arms are
/// exercised by the unit tests below, so a validation failure here is a
/// programmer error, not a runtime condition.
fn valid_by_construction(result: crate::error::Result<Instance>, what: &str) -> Instance {
    match result {
        Ok(instance) => instance,
        Err(e) => unreachable!("{what} must be valid by construction: {e}"),
    }
}

/// Table 2 of the paper (capacity 10): the instance for which every optimal
/// schedule uses different orders on the two resources (Proposition 1 /
/// Fig. 3). The best permutation schedule has makespan 23, the best general
/// schedule 22.
pub fn table2() -> Instance {
    let instance = InstanceBuilder::new()
        .label("paper-table2")
        .capacity(MemSize::from_bytes(10))
        .task_units("A", 0.0, 5.0, 0)
        .task_units("B", 4.0, 3.0, 4)
        .task_units("C", 1.0, 6.0, 1)
        .task_units("D", 3.0, 7.0, 3)
        .task_units("E", 6.0, 0.5, 6)
        .task_units("F", 7.0, 0.5, 7)
        .build();
    valid_by_construction(instance, "table2")
}

/// Table 3 of the paper (capacity 6): the instance used to illustrate the
/// static-order heuristics (Fig. 4). OMIM = 12.
pub fn table3() -> Instance {
    let instance = InstanceBuilder::new()
        .label("paper-table3")
        .capacity(MemSize::from_bytes(6))
        .task_units("A", 3.0, 2.0, 3)
        .task_units("B", 1.0, 3.0, 1)
        .task_units("C", 4.0, 4.0, 4)
        .task_units("D", 2.0, 1.0, 2)
        .build();
    valid_by_construction(instance, "table3")
}

/// Table 4 of the paper (capacity 6): the instance used to illustrate the
/// dynamic heuristics (Fig. 5).
pub fn table4() -> Instance {
    let instance = InstanceBuilder::new()
        .label("paper-table4")
        .capacity(MemSize::from_bytes(6))
        .task_units("A", 3.0, 2.0, 3)
        .task_units("B", 1.0, 6.0, 1)
        .task_units("C", 4.0, 6.0, 4)
        .task_units("D", 5.0, 1.0, 5)
        .build();
    valid_by_construction(instance, "table4")
}

/// Table 5 of the paper (capacity 9): the instance used to illustrate the
/// static-order-with-dynamic-corrections heuristics (Fig. 6).
pub fn table5() -> Instance {
    let instance = InstanceBuilder::new()
        .label("paper-table5")
        .capacity(MemSize::from_bytes(9))
        .task_units("A", 4.0, 1.0, 4)
        .task_units("B", 2.0, 6.0, 2)
        .task_units("C", 8.0, 8.0, 8)
        .task_units("D", 5.0, 4.0, 5)
        .task_units("E", 3.0, 2.0, 3)
        .build();
    valid_by_construction(instance, "table5")
}

/// Parameters for [`random_instance`].
#[derive(Debug, Clone, Copy)]
pub struct RandomInstanceConfig {
    /// Number of tasks.
    pub n_tasks: usize,
    /// Inclusive range of communication times, in units.
    pub comm_range: (u64, u64),
    /// Inclusive range of computation times, in units.
    pub comp_range: (u64, u64),
    /// Capacity expressed as a multiple of the largest task memory
    /// requirement (`1.0` = the tightest feasible capacity `mc`).
    pub capacity_factor: f64,
}

impl Default for RandomInstanceConfig {
    fn default() -> Self {
        RandomInstanceConfig {
            n_tasks: 8,
            comm_range: (1, 10),
            comp_range: (1, 10),
            capacity_factor: 1.5,
        }
    }
}

/// Generates a random instance following the paper's example convention
/// (memory requirement equal to the communication volume). Useful for
/// property tests and for cross-checking heuristics against exact solvers on
/// small sizes.
pub fn random_instance<R: Rng + ?Sized>(rng: &mut R, config: RandomInstanceConfig) -> Instance {
    assert!(config.n_tasks > 0, "need at least one task");
    assert!(
        config.comm_range.0 <= config.comm_range.1 && config.comp_range.0 <= config.comp_range.1,
        "invalid ranges"
    );
    let comm_dist = Uniform::new_inclusive(config.comm_range.0, config.comm_range.1);
    let comp_dist = Uniform::new_inclusive(config.comp_range.0, config.comp_range.1);
    let mut tasks = Vec::with_capacity(config.n_tasks);
    let mut max_mem = 0u64;
    for i in 0..config.n_tasks {
        let comm = comm_dist.sample(rng);
        let comp = comp_dist.sample(rng);
        max_mem = max_mem.max(comm.max(1));
        tasks.push(Task::new(
            format!("t{i}"),
            Time::units_int(comm),
            Time::units_int(comp),
            MemSize::from_bytes(comm.max(1)),
        ));
    }
    let capacity =
        MemSize::from_bytes(((max_mem as f64) * config.capacity_factor.max(1.0)).ceil() as u64);
    let instance = Instance::with_label(tasks, capacity, format!("random-{}", config.n_tasks));
    valid_by_construction(instance, "the generated random instance")
}

/// Generates a random instance whose memory requirements are *not* tied to
/// the communication times (the general case of problem DT).
pub fn random_instance_decoupled_memory<R: Rng + ?Sized>(
    rng: &mut R,
    n_tasks: usize,
    capacity_factor: f64,
) -> Instance {
    assert!(n_tasks > 0, "need at least one task");
    let mut tasks = Vec::with_capacity(n_tasks);
    let mut max_mem = 0u64;
    for i in 0..n_tasks {
        let comm = rng.gen_range(1..=10u64);
        let comp = rng.gen_range(1..=10u64);
        let mem = rng.gen_range(1..=16u64);
        max_mem = max_mem.max(mem);
        tasks.push(Task::new(
            format!("t{i}"),
            Time::units_int(comm),
            Time::units_int(comp),
            MemSize::from_bytes(mem),
        ));
    }
    let capacity = MemSize::from_bytes(((max_mem as f64) * capacity_factor.max(1.0)).ceil() as u64);
    let instance = Instance::with_label(tasks, capacity, format!("random-decoupled-{n_tasks}"));
    valid_by_construction(instance, "the generated random instance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_tables_have_expected_shapes() {
        assert_eq!(table2().len(), 6);
        assert_eq!(table2().capacity(), MemSize::from_bytes(10));
        assert_eq!(table3().len(), 4);
        assert_eq!(table3().capacity(), MemSize::from_bytes(6));
        assert_eq!(table4().len(), 4);
        assert_eq!(table5().len(), 5);
        assert_eq!(table5().capacity(), MemSize::from_bytes(9));
    }

    #[test]
    fn table2_contains_half_unit_computations() {
        let inst = table2();
        let e = inst.tasks().iter().find(|t| t.name == "E").unwrap();
        assert_eq!(e.comp_time, Time::units(0.5));
        let a = inst.tasks().iter().find(|t| t.name == "A").unwrap();
        assert_eq!(a.comm_time, Time::ZERO);
    }

    #[test]
    fn random_instances_are_feasible_and_sized() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 12] {
            let inst = random_instance(
                &mut rng,
                RandomInstanceConfig {
                    n_tasks: n,
                    ..Default::default()
                },
            );
            assert_eq!(inst.len(), n);
            assert!(inst.capacity() >= inst.min_capacity());
        }
    }

    #[test]
    fn random_instances_are_reproducible() {
        let a = random_instance(
            &mut StdRng::seed_from_u64(7),
            RandomInstanceConfig::default(),
        );
        let b = random_instance(
            &mut StdRng::seed_from_u64(7),
            RandomInstanceConfig::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn decoupled_memory_instances_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = random_instance_decoupled_memory(&mut rng, 10, 2.0);
        assert_eq!(inst.len(), 10);
        assert!(inst.capacity() >= inst.min_capacity());
    }

    mod feasibility_on_paper_tables {
        //! The feasibility checker against the worked examples of
        //! Tables 2–5: simulator-produced schedules are accepted, and each
        //! class of tampering (link overlap, CPU overlap, memory envelope)
        //! is rejected with the right violation.

        use super::super::*;
        use crate::feasibility::{is_feasible, validate, Violation};
        use crate::schedule::Schedule;
        use crate::simulate::{simulate_sequence, simulate_sequence_infinite};
        use crate::task::TaskId;

        fn tables() -> [Instance; 4] {
            [table2(), table3(), table4(), table5()]
        }

        /// Shifts one schedule field of task `idx` to `value` and returns
        /// the tampered schedule.
        fn with_comm_start(sched: &Schedule, idx: usize, value: Time) -> Schedule {
            let mut entries: Vec<_> = sched.entries().to_vec();
            entries[idx].comm_start = value;
            entries.into_iter().collect()
        }

        fn with_comp_start(sched: &Schedule, idx: usize, value: Time) -> Schedule {
            let mut entries: Vec<_> = sched.entries().to_vec();
            entries[idx].comp_start = value;
            entries.into_iter().collect()
        }

        #[test]
        fn simulator_schedules_are_accepted_on_all_tables() {
            for inst in tables() {
                let order = inst.task_ids();
                let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
                assert!(
                    is_feasible(&inst, &sched),
                    "{}: {:?}",
                    inst.label,
                    validate(&inst, &sched)
                );
            }
        }

        #[test]
        fn reversed_order_schedules_are_accepted_on_all_tables() {
            for inst in tables() {
                let mut order = inst.task_ids();
                order.reverse();
                let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
                assert!(
                    is_feasible(&inst, &sched),
                    "{}: {:?}",
                    inst.label,
                    validate(&inst, &sched)
                );
            }
        }

        #[test]
        fn link_overlap_is_rejected_on_all_tables() {
            for inst in tables() {
                let order = inst.task_ids();
                let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
                // Pull the last task's transfer back to time zero: it now
                // shares the link with the first (nonzero) transfer.
                let idx = sched.len() - 1;
                let bad = with_comm_start(&sched, idx, Time::ZERO);
                let violations = validate(&inst, &bad);
                assert!(
                    violations
                        .iter()
                        .any(|v| matches!(v, Violation::CommunicationOverlap { .. })),
                    "{}: {violations:?}",
                    inst.label
                );
            }
        }

        #[test]
        fn cpu_overlap_is_rejected_on_all_tables() {
            for inst in tables() {
                let order = inst.task_ids();
                let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
                // Start the last computation at the same instant as the
                // first one; both have nonzero durations on every table.
                let idx = sched.len() - 1;
                let first_comp = sched.entries()[0].comp_start;
                let bad = with_comp_start(&sched, idx, first_comp);
                let violations = validate(&inst, &bad);
                assert!(
                    violations.iter().any(|v| matches!(
                        v,
                        Violation::ComputationOverlap { .. }
                            | Violation::ComputationBeforeTransfer { .. }
                    )),
                    "{}: {violations:?}",
                    inst.label
                );
            }
        }

        #[test]
        fn memory_envelope_is_rejected_on_all_tables() {
            // The infinite-memory schedule packs transfers back to back;
            // replayed against the paper's finite capacities it must burst
            // the envelope on every table (each table was chosen by the
            // authors so that memory is the binding constraint).
            for inst in tables() {
                let order = inst.task_ids();
                let infinite = simulate_sequence_infinite(&inst, &order, inst.model()).unwrap();
                let violations = validate(&inst, &infinite);
                assert!(
                    violations
                        .iter()
                        .any(|v| matches!(v, Violation::MemoryExceeded { .. })),
                    "{}: {violations:?}",
                    inst.label
                );
            }
        }

        #[test]
        fn table3_hand_schedule_from_fig4_is_accepted() {
            // OOSIM on Table 3 (paper Fig. 4): comm order B, C, A, D with
            // makespan 15.
            let inst = table3();
            let order = [TaskId(1), TaskId(2), TaskId(0), TaskId(3)];
            let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
            assert!(is_feasible(&inst, &sched));
            assert_eq!(sched.makespan(&inst), Time::units_int(15));
        }
    }

    #[test]
    fn tight_capacity_factor_clamps_to_feasible() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = random_instance(
            &mut rng,
            RandomInstanceConfig {
                capacity_factor: 0.1, // below 1.0 would be infeasible; clamped
                ..Default::default()
            },
        );
        assert!(inst.capacity() >= inst.min_capacity());
    }
}
