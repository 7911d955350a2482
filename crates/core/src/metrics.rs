//! Makespan, idle-time and overlap metrics for schedules.

use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::time::Time;
use serde::Serialize;

/// Summary metrics of a schedule.
///
/// The paper's headline metric is the *ratio to optimal*
/// `r(H) = makespan(H) / OMIM`; [`ScheduleMetrics::ratio_to`] computes it
/// given the `OMIM` bound. The other fields quantify how much
/// communication/computation overlap the schedule achieves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScheduleMetrics {
    /// Completion time of the last computation.
    pub makespan: Time,
    /// Total time the communication link is busy (sum of transfer times).
    pub comm_busy: Time,
    /// Total time the processing unit is busy (sum of computation times).
    pub comp_busy: Time,
    /// Time during which both resources are busy simultaneously — the
    /// achieved communication/computation overlap.
    pub overlap: Time,
    /// Idle time on the communication link before its last transfer ends.
    pub comm_idle: Time,
    /// Idle time on the processing unit before the makespan.
    pub comp_idle: Time,
}

impl ScheduleMetrics {
    /// Computes the metrics of `schedule` on `instance`.
    ///
    /// The schedule is assumed feasible (exclusive resources); overlapping
    /// intervals would make the busy-time accounting meaningless.
    pub fn of(instance: &Instance, schedule: &Schedule) -> Self {
        let makespan = schedule.makespan(instance);
        let comm_busy: Time = schedule
            .entries()
            .iter()
            .map(|e| instance.task(e.task).comm_time)
            .sum();
        let comp_busy: Time = schedule
            .entries()
            .iter()
            .map(|e| instance.task(e.task).comp_time)
            .sum();

        // Overlap: total measure of instants where a transfer and a
        // computation are simultaneously in progress. Computed by sweeping
        // the merged interval boundaries.
        let mut comm_intervals: Vec<(Time, Time)> = schedule
            .entries()
            .iter()
            .map(|e| {
                let t = instance.task(e.task);
                (e.comm_start, e.comm_start + t.comm_time)
            })
            .filter(|(s, e)| e > s)
            .collect();
        let mut comp_intervals: Vec<(Time, Time)> = schedule
            .entries()
            .iter()
            .map(|e| {
                let t = instance.task(e.task);
                (e.comp_start, e.comp_start + t.comp_time)
            })
            .filter(|(s, e)| e > s)
            .collect();
        comm_intervals.sort();
        comp_intervals.sort();
        let overlap = interval_intersection(&comm_intervals, &comp_intervals);

        let comm_finish = schedule.comm_finish(instance);
        let comm_idle = comm_finish.saturating_sub(comm_busy);
        let comp_idle = makespan.saturating_sub(comp_busy);

        ScheduleMetrics {
            makespan,
            comm_busy,
            comp_busy,
            overlap,
            comm_idle,
            comp_idle,
        }
    }

    /// Ratio of this schedule's makespan to a reference makespan (usually
    /// `OMIM`). Returns `1.0` when both are zero.
    pub fn ratio_to(&self, reference: Time) -> f64 {
        self.makespan.ratio(reference)
    }

    /// Fraction of the total communication time that is overlapped with
    /// computation, in `[0, 1]`.
    pub fn overlap_fraction(&self) -> f64 {
        if self.comm_busy.is_zero() {
            0.0
        } else {
            self.overlap.ticks() as f64 / self.comm_busy.ticks() as f64
        }
    }
}

/// Total measure of the intersection of two sorted lists of disjoint
/// half-open intervals.
fn interval_intersection(a: &[(Time, Time)], b: &[(Time, Time)]) -> Time {
    let mut total = Time::ZERO;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        if end > start {
            total += end - start;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::memory::MemSize;
    use crate::simulate::{simulate_sequence, simulate_sequence_infinite};
    use crate::task::TaskId;

    fn table3() -> Instance {
        InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .task_units("C", 4.0, 4.0, 4)
            .task_units("D", 2.0, 1.0, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn metrics_on_omim_schedule() {
        let inst = table3();
        let order = [TaskId(1), TaskId(2), TaskId(0), TaskId(3)];
        let sched = simulate_sequence_infinite(&inst, &order, inst.model()).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.makespan, Time::units_int(12));
        assert_eq!(m.comm_busy, Time::units_int(10));
        assert_eq!(m.comp_busy, Time::units_int(10));
        // Fig. 4a: comm [0,10), comp busy [1,12) except idle [4,5):
        // overlap = comm time after t=1 minus the comp idle slot [4,5).
        assert_eq!(m.overlap, Time::units_int(8));
        assert_eq!(m.comm_idle, Time::ZERO);
        assert_eq!(m.comp_idle, Time::units_int(2));
        assert!((m.ratio_to(Time::units_int(12)) - 1.0).abs() < 1e-12);
        assert!((m.overlap_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ratio_to_reference() {
        let inst = table3();
        let order = [TaskId(1), TaskId(2), TaskId(0), TaskId(3)];
        let sched = simulate_sequence(&inst, &order, inst.model()).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.makespan, Time::units_int(15));
        assert!((m.ratio_to(Time::units_int(12)) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn interval_intersection_basic() {
        let a = vec![(Time::units_int(0), Time::units_int(5))];
        let b = vec![
            (Time::units_int(1), Time::units_int(2)),
            (Time::units_int(4), Time::units_int(9)),
        ];
        assert_eq!(interval_intersection(&a, &b), Time::units_int(2));
        assert_eq!(interval_intersection(&b, &a), Time::units_int(2));
        assert_eq!(interval_intersection(&a, &[]), Time::ZERO);
    }

    #[test]
    fn sequential_schedule_has_zero_overlap() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(1))
            .task_units("A", 2.0, 3.0, 1)
            .task_units("B", 4.0, 1.0, 1)
            .build()
            .unwrap();
        // Capacity 1 forces fully sequential execution.
        let sched = simulate_sequence(&inst, &[TaskId(0), TaskId(1)], inst.model()).unwrap();
        let m = ScheduleMetrics::of(&inst, &sched);
        assert_eq!(m.overlap, Time::ZERO);
        assert_eq!(m.makespan, Time::units_int(10));
        assert_eq!(m.overlap_fraction(), 0.0);
    }
}
