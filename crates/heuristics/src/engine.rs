//! The decision loop shared by the dynamic heuristics (Section 4.2 of the
//! paper) and the static orders with dynamic corrections (Section 4.3).
//!
//! Whenever the communication link becomes free, the next task is chosen
//! among the not-yet-scheduled tasks that (a) fit in the currently
//! available memory and (b) induce the minimum idle time on the processing
//! unit; a [`SelectionCriterion`] then breaks the tie. If no task fits, the
//! link is left idle until the next memory release. The corrected
//! heuristics run the same loop with a precomputed order (the Johnson
//! order for `OO*`): its next task is taken as long as it fits, and the
//! dynamic rule only fills the gap when it does not. [`run_decisions`] is
//! that loop; communications and computations happen in the same order.
//!
//! The engine models the runtime state of problem `DT` while a schedule is
//! being constructed task by task: availability of the communication link
//! and of the processing unit, and the set of *active* tasks (transfer
//! started, computation not yet finished) that currently hold memory.
//!
//! # Complexity
//!
//! The engine maintains a running total of the memory held
//! (`EngineState::held`) next to a queue of pending releases ordered by
//! computation end. Callers advance the engine with
//! [`EngineState::release_up_to`] as their clock moves forward; after that,
//! [`EngineState::held_at`] at the current instant is O(1),
//! [`EngineState::available`] is O(1) and
//! [`EngineState::next_release_after`] is O(log n).
//!
//! The decision loop does not probe candidates one by one:
//! [`select_candidate`] resolves each decision with O(log n) queries
//! against a [`CandidateIndex`] of the remaining tasks, so a whole run
//! costs O(n log n) instead of the O(n²) of scanning every remaining task
//! per decision. (The ratio query behind MAMR/OOMAMR is output-sensitive —
//! O(log n) per decision when communication times are quantized, as in the
//! paper's traces; see [`CandidateIndex::best_ratio_candidate_within`] for
//! the general bound.) The executable specification of the rule — filter
//! the fitting tasks by minimum induced idle time, then apply the
//! criterion — lives in the `engine_equivalence` integration suite, which
//! replays whole runs comparing the two decision for decision and pins the
//! resulting schedules byte-identical to the seed engine.

use dts_core::index::CandidateIndex;
use dts_core::prelude::*;
use dts_core::simulate::check_permutation;
use serde::Serialize;
use std::collections::VecDeque;

/// Tie-break criterion applied after the minimum-CPU-idle filter. Ties
/// left by the criterion go to the smallest task id, so the heuristics are
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SelectionCriterion {
    /// `LCMR`/`OOLCMR`: pick the task with the largest communication time.
    LargestCommunication,
    /// `SCMR`/`OOSCMR`: pick the task with the smallest communication time.
    SmallestCommunication,
    /// `MAMR`/`OOMAMR`: pick the task with the largest
    /// computation/communication ratio.
    MaximumAcceleration,
}

/// Runs the decision loop to completion under `model` and returns the
/// schedule.
///
/// With `order == None` every decision is a dynamic selection: the §4.2
/// heuristics `LCMR`, `SCMR` and `MAMR`. With `Some(order)` the loop
/// follows `order` as long as its next task fits in memory and corrects
/// with a dynamic selection otherwise: the §4.3 heuristics `OOLCMR`,
/// `OOSCMR` and `OOMAMR` on the Johnson order, or corrections on top of any
/// other precomputed order. The selection rule is shared by all execution
/// models; only the commit timing is model-specific (see
/// [`EngineState::commit`]).
///
/// # Errors
///
/// Returns [`CoreError::InvalidExecutionModel`] for an invalid `model` and
/// the [`check_permutation`] errors if `order` is not a permutation of the
/// instance's tasks.
pub fn run_decisions(
    instance: &Instance,
    order: Option<&[TaskId]>,
    criterion: SelectionCriterion,
    model: ExecutionModel,
) -> Result<Schedule> {
    model.validate()?;
    if let Some(order) = order {
        check_permutation(instance, order)?;
    }
    let mut state = EngineState::with_model(instance, model);
    // Remaining tasks, indexed by memory footprint: each decision is
    // resolved with O(log n) threshold queries instead of scanning every
    // remaining task (see `select_candidate`). Only MAMR asks ratio
    // queries, so the other criteria skip the ratio priority tree.
    let mut index = match criterion {
        SelectionCriterion::MaximumAcceleration => CandidateIndex::new(instance),
        _ => CandidateIndex::comm_only(instance),
    };
    let mut pending = order.map(PendingOrder::new);
    let mut now = Time::ZERO;

    while !index.is_empty() {
        now = now.max(state.link_free);
        state.release_up_to(now);
        // Follow the precomputed order while its next task fits; otherwise
        // select dynamically. The index still holds that next task, but
        // never returns it here since the queries only consider tasks that
        // fit.
        let next_in_order = pending
            .as_mut()
            .and_then(PendingOrder::first_unscheduled)
            .filter(|&id| state.fits_at(instance.task(id), now));
        match next_in_order.or_else(|| select_candidate(instance, &state, &index, now, criterion)) {
            Some(chosen) => {
                state.commit(instance, chosen, now);
                index.remove(chosen);
                if let Some(pending) = pending.as_mut() {
                    pending.mark_scheduled(chosen);
                }
            }
            None => {
                // No remaining task fits: leave the link idle until the next
                // memory release. A release always exists here, otherwise
                // the memory would be empty and every task would fit (an
                // `Instance` holds no task larger than its capacity).
                now = state.next_release_after(now).ok_or_else(|| {
                    CoreError::Internal("no task fits yet no memory is held".into())
                })?;
            }
        }
    }
    Ok(state.schedule)
}

/// The part of a precomputed order not scheduled yet: the suffix starting
/// at `cursor`, minus the positions a dynamic correction already took.
struct PendingOrder<'a> {
    order: &'a [TaskId],
    scheduled: Vec<bool>,
    position_of: Vec<usize>,
    cursor: usize,
}

impl<'a> PendingOrder<'a> {
    /// `order` must be a permutation of the instance's tasks.
    fn new(order: &'a [TaskId]) -> Self {
        let mut position_of = vec![0usize; order.len()];
        for (pos, id) in order.iter().enumerate() {
            position_of[id.index()] = pos;
        }
        PendingOrder {
            order,
            scheduled: vec![false; order.len()],
            position_of,
            cursor: 0,
        }
    }

    /// The first unscheduled task of the order, if any.
    fn first_unscheduled(&mut self) -> Option<TaskId> {
        while self.scheduled.get(self.cursor) == Some(&true) {
            self.cursor += 1;
        }
        self.order.get(self.cursor).copied()
    }

    fn mark_scheduled(&mut self, id: TaskId) {
        self.scheduled[self.position_of[id.index()]] = true;
    }
}

/// Mutable scheduling state used by the decision-driven heuristics.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Earliest instant at which the next transfer may be *issued*. Under
    /// the explicit model this is when the single link frees up; under the
    /// multi-channel models it accounts for the channel the next transfer
    /// would use (transfers are issued in decision order, so it is also at
    /// least the last issue instant); under the implicit model it is the
    /// end of the running fused phase.
    pub link_free: Time,
    /// Instant at which the processing unit becomes free.
    pub cpu_free: Time,
    /// Pending memory releases as `(computation end, memory held)`, ordered
    /// by computation end (computations run one at a time, so pushes are
    /// already in non-decreasing order — fused phases likewise end in
    /// issue order). Entries released by [`EngineState::release_up_to`]
    /// are popped from the front.
    releases: VecDeque<(Time, MemSize)>,
    /// Sum of the memory held by the queued releases.
    held: MemSize,
    /// Every release at or before this instant has been pruned from the
    /// queue; memory queries must not go back before it.
    released_up_to: Time,
    /// Capacity of the local memory.
    capacity: MemSize,
    /// Execution model the engine commits under.
    model: ExecutionModel,
    /// Per-channel free instants of the multi-channel models (empty for
    /// explicit/implicit, which track the medium through `link_free`).
    channels: Vec<Time>,
    /// Round-robin cursor of the duplex model: the direction the next
    /// transfer uses.
    next_duplex: usize,
    /// Schedule built so far.
    pub schedule: Schedule,
}

impl EngineState {
    /// Creates the initial state for an instance under an explicit
    /// execution model. Callers must validate the model first
    /// ([`ExecutionModel::validate`]); the public heuristic entry points
    /// do.
    pub fn with_model(instance: &Instance, model: ExecutionModel) -> Self {
        debug_assert!(model.validate().is_ok(), "unvalidated execution model");
        let channels = match model {
            ExecutionModel::Duplex | ExecutionModel::Streams { .. } => {
                vec![Time::ZERO; model.channel_count()]
            }
            _ => Vec::new(),
        };
        EngineState {
            link_free: Time::ZERO,
            cpu_free: Time::ZERO,
            releases: VecDeque::new(),
            held: MemSize::ZERO,
            released_up_to: Time::ZERO,
            capacity: instance.capacity(),
            model,
            channels,
            next_duplex: 0,
            schedule: Schedule::with_capacity(instance.len()),
        }
    }

    /// The execution model the engine commits under.
    #[inline]
    pub fn model(&self) -> ExecutionModel {
        self.model
    }

    /// Drops every pending release happening at or before `t` and folds it
    /// into the running `held` total. The heuristic loops call this once per
    /// decision instant, which makes every subsequent [`held_at`] probe at
    /// `t` O(1).
    ///
    /// [`held_at`]: EngineState::held_at
    pub fn release_up_to(&mut self, t: Time) {
        while let Some(&(end, mem)) = self.releases.front() {
            if end <= t {
                self.held = self.held.saturating_sub(mem);
                self.releases.pop_front();
            } else {
                break;
            }
        }
        self.released_up_to = self.released_up_to.max(t);
    }

    /// Memory still held at instant `t`: active tasks whose computation ends
    /// strictly after `t` (a release at exactly `t` is already effective,
    /// matching the schedules of the paper's figures).
    ///
    /// Queries at the pruning point cost O(1); queries further in the future
    /// scan only the releases in between.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an instant already passed to
    /// [`release_up_to`](EngineState::release_up_to) — releases before that
    /// point have been discarded, so the state cannot answer for the past
    /// and silently under-reporting would let infeasible commits through.
    pub fn held_at(&self, t: Time) -> MemSize {
        assert!(
            t >= self.released_up_to,
            "memory query at {t} precedes releases already pruned at {}",
            self.released_up_to
        );
        let released: MemSize = self
            .releases
            .iter()
            .take_while(|(end, _)| *end <= t)
            .map(|(_, mem)| *mem)
            .sum();
        self.held.saturating_sub(released)
    }

    /// Memory still free at the pruning instant (the last instant passed to
    /// [`release_up_to`](EngineState::release_up_to)): the capacity minus
    /// the running held-memory total, in O(1). A task fits at that instant
    /// iff its requirement is at most this value, which is what lets the
    /// selection work as threshold queries on a [`CandidateIndex`].
    #[inline]
    pub fn available(&self) -> MemSize {
        MemSize::from_bytes(self.capacity.bytes().saturating_sub(self.held.bytes()))
    }

    /// `true` iff `task` fits in the memory remaining at instant `t`. An
    /// exact sum that overflows `u64` cannot fit under any capacity, so it
    /// counts as not fitting — the same convention as
    /// [`simulate_sequence`], which
    /// also keeps the engine's held-memory counter an exact sum.
    pub fn fits_at(&self, task: &Task, t: Time) -> bool {
        self.held_at(t)
            .bytes()
            .checked_add(task.mem.bytes())
            .is_some_and(|total| total <= self.capacity.bytes())
    }

    /// Idle time that starting `task`'s transfer at instant `t` would induce
    /// on the processing unit: the gap between the moment the unit becomes
    /// free and the moment this task's data would be ready.
    ///
    /// Exact under the explicit, duplex and streams models — a transfer
    /// committed at `t` always finds its channel free (that is what
    /// [`link_free`](EngineState::link_free) guarantees), so the data is
    /// ready at `t + comm`. Under the implicit model the selection rule
    /// deliberately keeps this communication-time proxy (the paper's
    /// heuristics are defined on task transfer times): it is exact at
    /// overlap efficiency 0 and keeps every criterion distinguishable and
    /// O(log n) via the [`CandidateIndex`] threshold queries.
    pub fn induced_cpu_idle(&self, task: &Task, t: Time) -> Time {
        (t + task.comm_time).saturating_sub(self.cpu_free)
    }

    /// The next instant after `t` at which some active task releases its
    /// memory, if any. Used to advance time when nothing fits. O(log n) by
    /// binary search on the sorted release queue.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an instant already passed to
    /// [`release_up_to`](EngineState::release_up_to), for the same reason as
    /// [`held_at`](EngineState::held_at): pruned releases cannot be
    /// reported, and silently skipping them would make callers jump past
    /// real release instants.
    pub fn next_release_after(&self, t: Time) -> Option<Time> {
        assert!(
            t >= self.released_up_to,
            "release query at {t} precedes releases already pruned at {}",
            self.released_up_to
        );
        let idx = self.releases.partition_point(|(end, _)| *end <= t);
        self.releases.get(idx).map(|(end, _)| *end)
    }

    /// Commits `task` (with id `id`) to start its transfer at instant `t`.
    /// Returns the completion time of its computation.
    ///
    /// Model-aware: under the explicit model the single link is busy until
    /// the transfer ends (the paper's semantics, byte-identical to the
    /// seed engine); under duplex/streams only the chosen channel is, and
    /// [`link_free`](EngineState::link_free) advances to when the *next*
    /// transfer could be issued; under the implicit model the task's
    /// transfer and computation fuse into one phase holding link and CPU.
    ///
    /// # Panics
    /// Panics in debug builds if the transfer would overlap the link busy
    /// period or overflow the memory — callers must only commit decisions
    /// validated with [`EngineState::fits_at`].
    pub fn commit(&mut self, instance: &Instance, id: TaskId, t: Time) -> Time {
        let task = instance.task(id);
        debug_assert!(t >= self.link_free, "transfer would overlap the link");
        debug_assert!(self.fits_at(task, t), "task does not fit in memory");
        self.release_up_to(t);
        let comm_start = t;
        let (comp_start, comp_end) = match self.model {
            ExecutionModel::Explicit => {
                let comm_end = comm_start + task.comm_time;
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.link_free = comm_end;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Duplex => {
                let comm_end = comm_start + task.comm_time;
                debug_assert!(
                    self.channels[self.next_duplex] <= t,
                    "chosen direction is busy"
                );
                self.channels[self.next_duplex] = comm_end;
                self.next_duplex = (self.next_duplex + 1) % self.channels.len();
                // Transfers are issued in decision order, so the next one
                // starts no earlier than this one and no earlier than its
                // (round-robin) direction frees up.
                self.link_free = comm_start.max(self.channels[self.next_duplex]);
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Streams { .. } => {
                let comm_end = comm_start + task.comm_time;
                let channel = Self::earliest_free_channel(&self.channels);
                debug_assert!(self.channels[channel] <= t, "chosen stream is busy");
                self.channels[channel] = comm_end;
                let earliest = self.channels[Self::earliest_free_channel(&self.channels)];
                self.link_free = comm_start.max(earliest);
                let comp_start = comm_end.max(self.cpu_free);
                let comp_end = comp_start + task.comp_time;
                self.cpu_free = comp_end;
                (comp_start, comp_end)
            }
            ExecutionModel::Implicit { .. } => {
                let end = comm_start + self.model.fused_duration(task.comm_time, task.comp_time);
                self.link_free = end;
                self.cpu_free = end;
                // fused >= comp, so the computation tail starts within the
                // phase.
                (end - task.comp_time, end)
            }
        };
        self.releases.push_back((comp_end, task.mem));
        self.held = self.held.saturating_add(task.mem);
        self.schedule.push(ScheduleEntry {
            task: id,
            comm_start,
            comp_start,
        });
        comp_end
    }

    /// Index of the earliest-free channel, ties broken toward the lowest
    /// index (the deterministic stream-assignment rule).
    fn earliest_free_channel(channels: &[Time]) -> usize {
        let mut best = 0;
        for (i, &free) in channels.iter().enumerate().skip(1) {
            if free < channels[best] {
                best = i;
            }
        }
        best
    }
}

/// Resolves one dynamic selection decision against a [`CandidateIndex`]:
/// among the remaining tasks that fit in the free memory at instant `now`,
/// keep those inducing the minimum idle time on the processing unit, then
/// apply `criterion` — without materializing either set.
///
/// Returns `None` iff no remaining task fits, in which case callers wait
/// for the next memory release. The caller must have called
/// [`EngineState::release_up_to`]`(now)` beforehand so that
/// [`EngineState::available`] reflects the decision instant.
///
/// # How the index queries map onto the paper's rule
///
/// A fitting task induces zero CPU idle time iff its communication time is
/// at most `slack = cpu_free − now`; otherwise the induced idle time grows
/// strictly with the communication time. Hence, with `cmin` the smallest
/// communication time among fitting tasks:
///
/// * if `cmin <= slack`, the minimum-idle candidates are the fitting tasks
///   with communication time at most `slack`;
/// * otherwise they are the fitting tasks with communication time exactly
///   `cmin`, and restricting a `<= cmin` query to fitting tasks yields the
///   same set (no fitting task has a smaller communication time).
///
/// Each criterion then reduces to one ordered query on that set, with ties
/// broken by smallest id.
pub fn select_candidate(
    instance: &Instance,
    state: &EngineState,
    index: &CandidateIndex,
    now: Time,
    criterion: SelectionCriterion,
) -> Option<TaskId> {
    let free = state.available();
    let cheapest = index.min_comm_candidate(free)?;
    let cmin = instance.task(cheapest).comm_time;
    let slack = state.cpu_free.saturating_sub(now);
    if cmin > slack {
        // Every fitting task induces CPU idle time; the candidates are the
        // fitting tasks with the smallest communication time `cmin`. A
        // `<= cmin` query would return the same task — no fitting task has
        // a shorter communication time — but the exact-`cmin` form lets the
        // index skip the shorter-communication positions entirely instead
        // of walking their (never-fitting, often high-ratio) tasks as
        // search blockers.
        return match criterion {
            // All candidates share the same communication time, so both
            // communication criteria pick the smallest id among them —
            // which is `cheapest` by the `(comm, id)` index order.
            SelectionCriterion::LargestCommunication
            | SelectionCriterion::SmallestCommunication => Some(cheapest),
            SelectionCriterion::MaximumAcceleration => index.best_ratio_candidate_at(free, cmin),
        };
    }
    // Some fitting task induces no idle time: the candidates are the fitting
    // tasks with communication time at most `slack`.
    match criterion {
        SelectionCriterion::LargestCommunication => index.max_comm_candidate_within(free, slack),
        SelectionCriterion::SmallestCommunication => Some(cheapest),
        SelectionCriterion::MaximumAcceleration => index.best_ratio_candidate_within(free, slack),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_heuristic, Heuristic};
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::{random_instance_decoupled_memory, table4, table5};
    use dts_flowshop::johnson::{johnson_makespan, johnson_order};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CRITERIA: [SelectionCriterion; 3] = [
        SelectionCriterion::LargestCommunication,
        SelectionCriterion::SmallestCommunication,
        SelectionCriterion::MaximumAcceleration,
    ];

    fn comm_order_names(inst: &Instance, sched: &Schedule) -> Vec<String> {
        sched
            .comm_order()
            .iter()
            .map(|id| inst.task(*id).name.clone())
            .collect()
    }

    fn entry_of(inst: &Instance, sched: &Schedule, name: &str) -> ScheduleEntry {
        let (id, _) = inst.iter().find(|(_, t)| t.name == name).unwrap();
        *sched.entry(id).unwrap()
    }

    /// Fig. 5 of the paper: the three dynamic heuristics on Table 4 with a
    /// memory capacity of 6.
    #[test]
    fn fig5_dynamic_schedules() {
        let inst = table4();
        for (heuristic, order, makespan) in [
            (Heuristic::LCMR, ["B", "D", "A", "C"], 23),
            (Heuristic::SCMR, ["B", "A", "C", "D"], 25),
            (Heuristic::MAMR, ["B", "C", "A", "D"], 24),
        ] {
            let sched = run_heuristic(&inst, heuristic).unwrap();
            assert_eq!(comm_order_names(&inst, &sched), order, "{heuristic}");
            assert_eq!(sched.makespan(&inst), Time::units_int(makespan));
            assert!(is_feasible(&inst, &sched));
        }
    }

    #[test]
    fn fig5_lcmr_detailed_timeline() {
        // Cross-check the exact event times read off Fig. 5 (LCMR row):
        // B comm [0,1) comp [1,7); D comm [1,6) comp [7,8);
        // A comm [8,11) comp [11,13); C comm [13,17) comp [17,23).
        let inst = table4();
        let sched = run_heuristic(&inst, Heuristic::LCMR).unwrap();
        let at = |name| entry_of(&inst, &sched, name);
        assert_eq!(at("B").comm_start, Time::ZERO);
        assert_eq!(at("D").comm_start, Time::units_int(1));
        assert_eq!(at("D").comp_start, Time::units_int(7));
        assert_eq!(at("A").comm_start, Time::units_int(8));
        assert_eq!(at("C").comm_start, Time::units_int(13));
        assert_eq!(at("C").comp_start, Time::units_int(17));
    }

    /// Fig. 6 of the paper: the three corrected heuristics on Table 5 with a
    /// memory capacity of 9 (Johnson order B C D E A).
    #[test]
    fn fig6_corrected_schedules() {
        let inst = table5();
        for (heuristic, order, makespan) in [
            (Heuristic::OOLCMR, ["B", "D", "A", "E", "C"], 33),
            (Heuristic::OOSCMR, ["B", "E", "A", "D", "C"], 35),
            (Heuristic::OOMAMR, ["B", "D", "E", "A", "C"], 33),
        ] {
            let sched = run_heuristic(&inst, heuristic).unwrap();
            assert_eq!(comm_order_names(&inst, &sched), order, "{heuristic}");
            assert_eq!(sched.makespan(&inst), Time::units_int(makespan));
            assert!(is_feasible(&inst, &sched));
        }
    }

    #[test]
    fn fig6_oolcmr_detailed_timeline() {
        // Event times read off Fig. 6 (OOLCMR row): B comm [0,2) comp [2,8);
        // D comm [2,7) comp [8,12); A comm [8,12) comp [12,13);
        // E comm [12,15) comp [15,17); C comm [17,25) comp [25,33).
        let inst = table5();
        let sched = run_heuristic(&inst, Heuristic::OOLCMR).unwrap();
        let at = |name| entry_of(&inst, &sched, name);
        assert_eq!(at("D").comm_start, Time::units_int(2));
        assert_eq!(at("A").comm_start, Time::units_int(8));
        assert_eq!(at("E").comm_start, Time::units_int(12));
        assert_eq!(at("C").comm_start, Time::units_int(17));
        assert_eq!(at("C").comp_start, Time::units_int(25));
    }

    #[test]
    fn decision_schedules_are_feasible_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..30 {
            let inst = random_instance_decoupled_memory(&mut rng, 20, 1.2);
            // Dynamic selection, and corrections on top of the submission
            // order.
            let submission = inst.task_ids();
            for order in [None, Some(submission.as_slice())] {
                for criterion in CRITERIA {
                    let sched =
                        run_decisions(&inst, order, criterion, ExecutionModel::Explicit).unwrap();
                    assert_eq!(sched.len(), inst.len());
                    assert!(is_feasible(&inst, &sched), "{criterion:?}");
                    assert!(sched.is_permutation_schedule());
                }
            }
        }
    }

    #[test]
    fn with_unconstrained_memory_corrected_equals_johnson() {
        // When memory is never a restriction the corrected heuristics follow
        // the Johnson order exactly and reach OMIM.
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let inst = random_instance_decoupled_memory(&mut rng, 12, 1000.0);
            let omim = johnson_makespan(&inst);
            for heuristic in [Heuristic::OOLCMR, Heuristic::OOSCMR, Heuristic::OOMAMR] {
                let sched = run_heuristic(&inst, heuristic).unwrap();
                assert_eq!(sched.makespan(&inst), omim);
            }
        }
    }

    #[test]
    fn corrected_never_worse_than_uncorrected_on_table5() {
        // On Table 5 the plain OOSIM (no corrections) is blocked by C and
        // ends later than every corrected variant.
        let inst = table5();
        let johnson = johnson_order(&inst);
        let uncorrected = dts_core::simulate::simulate_sequence(&inst, &johnson, inst.model())
            .unwrap()
            .makespan(&inst);
        for heuristic in [Heuristic::OOLCMR, Heuristic::OOSCMR, Heuristic::OOMAMR] {
            let corrected = run_heuristic(&inst, heuristic).unwrap().makespan(&inst);
            assert!(corrected <= uncorrected);
        }
    }

    #[test]
    fn invalid_orders_rejected() {
        let inst = table5();
        let run = |order: &[TaskId]| {
            run_decisions(
                &inst,
                Some(order),
                SelectionCriterion::LargestCommunication,
                ExecutionModel::Explicit,
            )
            .unwrap_err()
        };
        assert_eq!(
            run(&[TaskId(0), TaskId(1)]),
            CoreError::NotAPermutation {
                expected: 5,
                got: 2
            }
        );
        assert_eq!(
            run(&[TaskId(0), TaskId(1), TaskId(1), TaskId(3), TaskId(4)]),
            CoreError::DuplicateTask(TaskId(1))
        );
    }

    #[test]
    fn held_memory_tracks_commits_and_releases() {
        let inst = table4();
        let mut state = EngineState::with_model(&inst, ExecutionModel::Explicit);
        assert_eq!(state.held_at(Time::ZERO), MemSize::ZERO);
        // Commit B (comm 1, comp 6, mem 1) at t = 0: active until 7.
        let end = state.commit(&inst, TaskId(1), Time::ZERO);
        assert_eq!(end, Time::units_int(7));
        assert_eq!(state.held_at(Time::units_int(3)), MemSize::from_bytes(1));
        assert_eq!(state.held_at(Time::units_int(7)), MemSize::ZERO);
        assert_eq!(state.link_free, Time::units_int(1));
        assert_eq!(state.cpu_free, Time::units_int(7));
        assert_eq!(
            state.next_release_after(Time::ZERO),
            Some(Time::units_int(7))
        );
        assert_eq!(state.next_release_after(Time::units_int(7)), None);
    }

    #[test]
    fn release_up_to_prunes_and_preserves_queries() {
        let inst = table4();
        let mut state = EngineState::with_model(&inst, ExecutionModel::Explicit);
        // B (comp ends at 7, mem 1) then D (comm [1,6), comp [7,8), mem 5).
        state.commit(&inst, TaskId(1), Time::ZERO);
        state.commit(&inst, TaskId(3), Time::units_int(1));
        assert_eq!(state.held_at(Time::units_int(6)), MemSize::from_bytes(6));
        // Pruning at 7 releases B but keeps D queued.
        state.release_up_to(Time::units_int(7));
        assert_eq!(state.held_at(Time::units_int(7)), MemSize::from_bytes(5));
        assert_eq!(
            state.next_release_after(Time::units_int(7)),
            Some(Time::units_int(8))
        );
        // Pruning at 8 empties the queue.
        state.release_up_to(Time::units_int(8));
        assert_eq!(state.held_at(Time::units_int(8)), MemSize::ZERO);
        assert_eq!(state.next_release_after(Time::units_int(8)), None);
        // Pruning past the end stays consistent.
        state.release_up_to(Time::units_int(100));
        assert_eq!(state.held_at(Time::units_int(100)), MemSize::ZERO);
    }

    #[test]
    fn fits_at_respects_capacity() {
        let inst = table4(); // capacity 6
        let mut state = EngineState::with_model(&inst, ExecutionModel::Explicit);
        // B holds mem 1 until t = 7, then D holds mem 5 until t = 8.
        state.commit(&inst, TaskId(1), Time::ZERO);
        state.commit(&inst, TaskId(3), Time::units_int(1));
        // At t = 6 nothing else fits (held 6).
        assert!(!state.fits_at(inst.task(TaskId(0)), Time::units_int(6)));
        // At t = 8 both releases happened.
        assert!(state.fits_at(inst.task(TaskId(2)), Time::units_int(8)));
    }

    #[test]
    fn induced_idle_measures_cpu_gap() {
        let inst = table4();
        let mut state = EngineState::with_model(&inst, ExecutionModel::Explicit);
        // B first: cpu_free = 7.
        state.commit(&inst, TaskId(1), Time::ZERO);
        // Starting A (comm 3) at t = 1 ends its transfer at 4 < 7: no idle.
        assert_eq!(
            state.induced_cpu_idle(inst.task(TaskId(0)), Time::units_int(1)),
            Time::ZERO
        );
        // Starting A at t = 8 ends at 11: 4 units of CPU idle.
        assert_eq!(
            state.induced_cpu_idle(inst.task(TaskId(0)), Time::units_int(8)),
            Time::units_int(4)
        );
    }
}
