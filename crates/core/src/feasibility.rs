//! Feasibility checking of schedules.
//!
//! A schedule is feasible (Section 3 of the paper) when:
//!
//! 1. every task of the instance is scheduled exactly once;
//! 2. each task's computation starts no earlier than the end of its
//!    communication (`SCOMP(i) >= SCOMM(i) + CM_i`);
//! 3. at most one communication is in progress at any time (single link);
//! 4. at most one computation is in progress at any time (single processing
//!    unit);
//! 5. at every instant, the total memory held by *active* tasks — those with
//!    `SCOMM(i) <= t < SCOMP(i) + CP_i` — does not exceed the capacity `C`.

use crate::instance::Instance;
use crate::memory::{MemSize, MemoryProfile};
use crate::schedule::Schedule;
use crate::task::TaskId;
use crate::time::Time;
use serde::Serialize;
use std::collections::HashSet;
use std::fmt;

/// A single feasibility violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Violation {
    /// A task of the instance is missing from the schedule.
    MissingTask(TaskId),
    /// A task appears more than once in the schedule.
    DuplicateTask(TaskId),
    /// The schedule references a task id not present in the instance.
    UnknownTask(TaskId),
    /// A computation starts before its input transfer has completed.
    ComputationBeforeTransfer {
        /// Offending task.
        task: TaskId,
        /// End of the task's communication.
        comm_end: Time,
        /// Start of the task's computation.
        comp_start: Time,
    },
    /// Two communications overlap on the single link.
    CommunicationOverlap {
        /// First task (earlier start).
        first: TaskId,
        /// Second task (overlapping start).
        second: TaskId,
        /// Instant at which the overlap begins.
        at: Time,
    },
    /// Two computations overlap on the single processing unit.
    ComputationOverlap {
        /// First task (earlier start).
        first: TaskId,
        /// Second task (overlapping start).
        second: TaskId,
        /// Instant at which the overlap begins.
        at: Time,
    },
    /// Memory occupation exceeds the capacity.
    MemoryExceeded {
        /// Instant of the first violation.
        at: Time,
        /// Memory in use at that instant.
        used: MemSize,
        /// Capacity of the instance.
        capacity: MemSize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingTask(t) => write!(f, "task {t} is not scheduled"),
            Violation::DuplicateTask(t) => write!(f, "task {t} is scheduled more than once"),
            Violation::UnknownTask(t) => write!(f, "schedule references unknown task {t}"),
            Violation::ComputationBeforeTransfer {
                task,
                comm_end,
                comp_start,
            } => write!(
                f,
                "task {task} computes at {comp_start} before its transfer completes at {comm_end}"
            ),
            Violation::CommunicationOverlap { first, second, at } => write!(
                f,
                "communications of {first} and {second} overlap on the link at {at}"
            ),
            Violation::ComputationOverlap { first, second, at } => write!(
                f,
                "computations of {first} and {second} overlap on the processor at {at}"
            ),
            Violation::MemoryExceeded { at, used, capacity } => {
                write!(f, "memory use {used} exceeds capacity {capacity} at {at}")
            }
        }
    }
}

/// Checks a schedule against an instance and returns every violation found.
/// An empty vector means the schedule is feasible.
pub fn validate(instance: &Instance, schedule: &Schedule) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 1. Permutation of the task set.
    let mut seen: HashSet<TaskId> = HashSet::with_capacity(schedule.len());
    for entry in schedule.entries() {
        if entry.task.index() >= instance.len() {
            violations.push(Violation::UnknownTask(entry.task));
            continue;
        }
        if !seen.insert(entry.task) {
            violations.push(Violation::DuplicateTask(entry.task));
        }
    }
    for id in instance.task_ids() {
        if !seen.contains(&id) {
            violations.push(Violation::MissingTask(id));
        }
    }
    // If the entries do not even form a permutation, the resource checks
    // below would be misleading; still run them on the known tasks so the
    // caller gets as much information as possible.

    let known_entries: Vec<_> = schedule
        .entries()
        .iter()
        .filter(|e| e.task.index() < instance.len())
        .collect();

    // 2. Precedence: communication before computation.
    for entry in &known_entries {
        let task = instance.task(entry.task);
        let comm_end = entry.comm_start + task.comm_time;
        if entry.comp_start < comm_end {
            violations.push(Violation::ComputationBeforeTransfer {
                task: entry.task,
                comm_end,
                comp_start: entry.comp_start,
            });
        }
    }

    // 3 & 4. Resource exclusivity. Zero-length occupations never conflict.
    let mut comm_intervals: Vec<(Time, Time, TaskId)> = known_entries
        .iter()
        .map(|e| {
            let t = instance.task(e.task);
            (e.comm_start, e.comm_start + t.comm_time, e.task)
        })
        .filter(|(s, e, _)| e > s)
        .collect();
    comm_intervals.sort();
    for pair in comm_intervals.windows(2) {
        let (_, end_a, task_a) = pair[0];
        let (start_b, _, task_b) = pair[1];
        if start_b < end_a {
            violations.push(Violation::CommunicationOverlap {
                first: task_a,
                second: task_b,
                at: start_b,
            });
        }
    }

    let mut comp_intervals: Vec<(Time, Time, TaskId)> = known_entries
        .iter()
        .map(|e| {
            let t = instance.task(e.task);
            (e.comp_start, e.comp_start + t.comp_time, e.task)
        })
        .filter(|(s, e, _)| e > s)
        .collect();
    comp_intervals.sort();
    for pair in comp_intervals.windows(2) {
        let (_, end_a, task_a) = pair[0];
        let (start_b, _, task_b) = pair[1];
        if start_b < end_a {
            violations.push(Violation::ComputationOverlap {
                first: task_a,
                second: task_b,
                at: start_b,
            });
        }
    }

    // 5. Memory envelope (computed over the entries that reference known
    // tasks, so that an UnknownTask violation does not prevent reporting the
    // remaining problems).
    if instance.capacity() != MemSize::UNBOUNDED {
        let known_schedule: Schedule = known_entries.iter().map(|e| **e).collect();
        let profile = MemoryProfile::of_schedule(instance, &known_schedule);
        if let Some(at) = profile.first_violation(instance.capacity()) {
            violations.push(Violation::MemoryExceeded {
                at,
                used: profile.usage_at(at),
                capacity: instance.capacity(),
            });
        }
    }

    violations
}

/// Convenience wrapper: `true` iff [`validate`] finds no violation.
pub fn is_feasible(instance: &Instance, schedule: &Schedule) -> bool {
    validate(instance, schedule).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::schedule::ScheduleEntry;

    fn instance() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .task_units("C", 4.0, 4.0, 4)
            .build()
            .unwrap()
    }

    fn entry(task: usize, comm: f64, comp: f64) -> ScheduleEntry {
        ScheduleEntry {
            task: TaskId(task),
            comm_start: Time::units(comm),
            comp_start: Time::units(comp),
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let inst = instance();
        // B [0,1)+[1,4), A [1,4)+[4,6), C [6,10)+[10,14): B+A = 4 <= 6,
        // then C alone.
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(0, 1.0, 4.0), entry(2, 6.0, 10.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched), "{:?}", validate(&inst, &sched));
    }

    #[test]
    fn missing_and_duplicate_tasks_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(1, 5.0, 6.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v.contains(&Violation::DuplicateTask(TaskId(1))));
        assert!(v.contains(&Violation::MissingTask(TaskId(0))));
        assert!(v.contains(&Violation::MissingTask(TaskId(2))));
    }

    #[test]
    fn unknown_task_detected() {
        let inst = instance();
        let sched: Schedule = vec![
            entry(0, 0.0, 3.0),
            entry(1, 3.0, 5.0),
            entry(2, 5.0, 9.0),
            entry(9, 20.0, 30.0),
        ]
        .into_iter()
        .collect();
        let v = validate(&inst, &sched);
        assert!(v.contains(&Violation::UnknownTask(TaskId(9))));
    }

    #[test]
    fn precedence_violation_detected() {
        let inst = instance();
        // A computes before its 3-unit transfer completes.
        let sched: Schedule = vec![entry(0, 0.0, 2.0), entry(1, 3.0, 4.0), entry(2, 4.0, 8.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v.iter().any(
            |x| matches!(x, Violation::ComputationBeforeTransfer { task, .. } if *task == TaskId(0))
        ));
    }

    #[test]
    fn link_overlap_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(1, 2.0, 5.0), entry(2, 5.0, 9.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::CommunicationOverlap { .. })));
    }

    #[test]
    fn cpu_overlap_detected() {
        let inst = instance();
        let sched: Schedule = vec![entry(1, 0.0, 1.0), entry(0, 1.0, 3.5), entry(2, 6.0, 10.0)]
            .into_iter()
            .collect();
        // B computes [1,4), A computes [3.5,5.5): overlap.
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ComputationOverlap { .. })));
    }

    #[test]
    fn memory_violation_detected() {
        let inst = instance();
        // A and C both held from t=0/3: 3 + 4 = 7 > 6.
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(2, 3.0, 7.0), entry(1, 7.0, 11.0)]
            .into_iter()
            .collect();
        let v = validate(&inst, &sched);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MemoryExceeded { .. })));
    }

    #[test]
    fn zero_length_tasks_do_not_conflict() {
        // Tasks with zero communication (like K0 in the NP-hardness
        // reduction) may share a start instant with a real transfer.
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(10))
            .task_units("K0", 0.0, 3.0, 0)
            .task_units("A", 2.0, 1.0, 2)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 0.0), entry(1, 0.0, 3.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched), "{:?}", validate(&inst, &sched));
    }

    #[test]
    fn unbounded_capacity_skips_memory_check() {
        let inst = InstanceBuilder::new()
            .task_units("A", 3.0, 2.0, u64::MAX / 4)
            .task_units("B", 1.0, 3.0, u64::MAX / 4)
            .build()
            .unwrap();
        let sched: Schedule = vec![entry(0, 0.0, 3.0), entry(1, 3.0, 5.0)]
            .into_iter()
            .collect();
        assert!(is_feasible(&inst, &sched));
    }

    #[test]
    fn violations_display() {
        let v = Violation::MemoryExceeded {
            at: Time::units_int(3),
            used: MemSize::from_bytes(7),
            capacity: MemSize::from_bytes(6),
        };
        assert!(v.to_string().contains("exceeds capacity"));
        assert!(Violation::MissingTask(TaskId(1)).to_string().contains("T1"));
    }
}
