//! Equivalence suite: the incremental engine must produce byte-identical
//! schedules to the original full-rescan implementation.
//!
//! The reference model below is a line-for-line port of the seed engine
//! (`active: Vec<(Time, MemSize)>` rescanned in full by every memory query,
//! `Vec::remove(0)`/`retain` pending sets, one loop for the dynamic and one
//! for the corrected heuristics). The production engine replaced those
//! with a running `held` counter, a pruned release queue, a memory-indexed
//! candidate set and a single decision loop; these tests pin the refactor
//! to the exact seed behavior on the paper fixtures (Tables 3–5 /
//! Figs. 4–6) and on seeded random instances.
//!
//! The reference also holds the executable specification of the selection
//! rule (`filter_minimum_cpu_idle` + `choose`), which
//! `select_candidate_matches_the_specification_filter` replays against the
//! O(log n) `select_candidate` decision for decision.

use dts_core::index::CandidateIndex;
use dts_core::instances::{
    random_instance, random_instance_decoupled_memory, table3, table4, table5, RandomInstanceConfig,
};
use dts_core::prelude::*;
use dts_flowshop::johnson::johnson_order;
use dts_heuristics::engine::{run_decisions, select_candidate, EngineState};
use dts_heuristics::SelectionCriterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed implementation of `EngineState`, kept verbatim as the oracle.
mod reference {
    use dts_core::prelude::*;
    use dts_heuristics::SelectionCriterion;

    pub struct EngineState {
        pub link_free: Time,
        pub cpu_free: Time,
        active: Vec<(Time, MemSize)>,
        capacity: MemSize,
        pub schedule: Schedule,
    }

    impl EngineState {
        pub fn new(instance: &Instance) -> Self {
            EngineState {
                link_free: Time::ZERO,
                cpu_free: Time::ZERO,
                active: Vec::new(),
                capacity: instance.capacity(),
                schedule: Schedule::with_capacity(instance.len()),
            }
        }

        pub fn held_at(&self, t: Time) -> MemSize {
            self.active
                .iter()
                .filter(|(end, _)| *end > t)
                .map(|(_, mem)| *mem)
                .sum()
        }

        pub fn fits_at(&self, task: &Task, t: Time) -> bool {
            self.held_at(t).saturating_add(task.mem) <= self.capacity
        }

        pub fn next_release_after(&self, t: Time) -> Option<Time> {
            self.active
                .iter()
                .map(|(end, _)| *end)
                .filter(|end| *end > t)
                .min()
        }

        pub fn commit(&mut self, instance: &Instance, id: TaskId, t: Time) -> Time {
            let task = instance.task(id);
            let comm_start = t;
            let comm_end = comm_start + task.comm_time;
            let comp_start = comm_end.max(self.cpu_free);
            let comp_end = comp_start + task.comp_time;
            self.link_free = comm_end;
            self.cpu_free = comp_end;
            self.active.push((comp_end, task.mem));
            self.schedule.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
            comp_end
        }
    }

    /// Among `candidates` (tasks that fit in memory at instant `t`), keeps
    /// only those inducing the minimum idle time on a processing unit that
    /// frees up at `cpu_free` — the common pre-filter of every dynamic
    /// selection rule of the paper.
    pub fn filter_minimum_cpu_idle(
        instance: &Instance,
        cpu_free: Time,
        candidates: &[TaskId],
        t: Time,
    ) -> Vec<TaskId> {
        let idle = |id: TaskId| (t + instance.task(id).comm_time).saturating_sub(cpu_free);
        let min_idle = candidates.iter().map(|&id| idle(id)).min();
        match min_idle {
            None => Vec::new(),
            Some(min) => candidates
                .iter()
                .copied()
                .filter(|&id| idle(id) == min)
                .collect(),
        }
    }

    /// Chooses one task among the filtered candidates. Ties are broken by
    /// task id so the heuristics are deterministic.
    pub fn choose(
        criterion: SelectionCriterion,
        instance: &Instance,
        candidates: &[TaskId],
    ) -> Option<TaskId> {
        match criterion {
            SelectionCriterion::LargestCommunication => candidates
                .iter()
                .copied()
                .max_by_key(|id| (instance.task(*id).comm_time, std::cmp::Reverse(id.index()))),
            SelectionCriterion::SmallestCommunication => candidates
                .iter()
                .copied()
                .min_by_key(|id| (instance.task(*id).comm_time, id.index())),
            SelectionCriterion::MaximumAcceleration => candidates.iter().copied().max_by(|a, b| {
                let ra = instance.task(*a).acceleration_ratio();
                let rb = instance.task(*b).acceleration_ratio();
                ra.partial_cmp(&rb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.index().cmp(&a.index()))
            }),
        }
    }

    pub fn run_dynamic(instance: &Instance, criterion: SelectionCriterion) -> Schedule {
        let mut state = EngineState::new(instance);
        let mut remaining: Vec<TaskId> = instance.task_ids();
        let mut now = Time::ZERO;
        while !remaining.is_empty() {
            now = now.max(state.link_free);
            let fitting: Vec<TaskId> = remaining
                .iter()
                .copied()
                .filter(|id| state.fits_at(instance.task(*id), now))
                .collect();
            if fitting.is_empty() {
                now = state
                    .next_release_after(now)
                    .expect("reference: some task holds memory");
                continue;
            }
            let best_idle = filter_minimum_cpu_idle(instance, state.cpu_free, &fitting, now);
            let chosen = choose(criterion, instance, &best_idle)
                .expect("reference: candidates are non-empty");
            state.commit(instance, chosen, now);
            remaining.retain(|id| *id != chosen);
        }
        state.schedule
    }

    pub fn run_corrected_with_order(
        instance: &Instance,
        order: &[TaskId],
        selection: SelectionCriterion,
    ) -> Schedule {
        let mut state = EngineState::new(instance);
        let mut pending: Vec<TaskId> = order.to_vec();
        let mut now = Time::ZERO;
        while !pending.is_empty() {
            now = now.max(state.link_free);
            let next = pending[0];
            if state.fits_at(instance.task(next), now) {
                state.commit(instance, next, now);
                pending.remove(0);
                continue;
            }
            let fitting: Vec<TaskId> = pending
                .iter()
                .copied()
                .filter(|id| state.fits_at(instance.task(*id), now))
                .collect();
            if fitting.is_empty() {
                now = state
                    .next_release_after(now)
                    .expect("reference: some task holds memory");
                continue;
            }
            let best_idle = filter_minimum_cpu_idle(instance, state.cpu_free, &fitting, now);
            let chosen = choose(selection, instance, &best_idle)
                .expect("reference: candidates are non-empty");
            state.commit(instance, chosen, now);
            pending.retain(|id| *id != chosen);
        }
        state.schedule
    }
}

const SELECTIONS: [SelectionCriterion; 3] = [
    SelectionCriterion::LargestCommunication,
    SelectionCriterion::SmallestCommunication,
    SelectionCriterion::MaximumAcceleration,
];

/// Dynamic selection (no precomputed order) under the explicit model.
fn dynamic(instance: &Instance, criterion: SelectionCriterion) -> Result<Schedule> {
    run_decisions(instance, None, criterion, ExecutionModel::Explicit)
}

/// Corrections on top of `order` under the explicit model.
fn corrected(
    instance: &Instance,
    order: &[TaskId],
    criterion: SelectionCriterion,
) -> Result<Schedule> {
    run_decisions(instance, Some(order), criterion, ExecutionModel::Explicit)
}

/// Asserts that both engines produce the exact same schedule (same comm and
/// comp orders and instants, hence the same makespan) on `instance`.
fn assert_engines_agree(instance: &Instance, context: &str) {
    for criterion in SELECTIONS {
        let new = dynamic(instance, criterion).expect("dynamic heuristic runs");
        let old = reference::run_dynamic(instance, criterion);
        assert_eq!(new, old, "dynamic {criterion:?} diverged on {context}");

        let johnson = johnson_order(instance);
        let new = corrected(instance, &johnson, criterion).expect("corrected heuristic runs");
        let old = reference::run_corrected_with_order(instance, &johnson, criterion);
        assert_eq!(new, old, "corrected {criterion:?} diverged on {context}");

        // Also exercise a non-Johnson precomputed order (submission order).
        let submission = instance.task_ids();
        let new = corrected(instance, &submission, criterion)
            .expect("corrected-with-order heuristic runs");
        let old = reference::run_corrected_with_order(instance, &submission, criterion);
        assert_eq!(
            new, old,
            "corrected {criterion:?} on submission order diverged on {context}"
        );
    }
}

/// Replays whole scheduling runs, comparing `select_candidate` against the
/// executable specification it replaces — `choose` over
/// `filter_minimum_cpu_idle` over the fitting remaining tasks — at every
/// single decision instant.
#[test]
fn select_candidate_matches_the_specification_filter() {
    let mut rng = StdRng::seed_from_u64(31);
    for round in 0..15 {
        let inst = random_instance_decoupled_memory(&mut rng, 14, 1.2);
        for criterion in SELECTIONS {
            let mut state = EngineState::with_model(&inst, ExecutionModel::Explicit);
            let mut index = CandidateIndex::new(&inst);
            let mut remaining: Vec<TaskId> = inst.task_ids();
            let mut now = Time::ZERO;
            while !remaining.is_empty() {
                now = now.max(state.link_free);
                state.release_up_to(now);
                let fitting: Vec<TaskId> = remaining
                    .iter()
                    .copied()
                    .filter(|id| state.fits_at(inst.task(*id), now))
                    .collect();
                let spec = reference::choose(
                    criterion,
                    &inst,
                    &reference::filter_minimum_cpu_idle(&inst, state.cpu_free, &fitting, now),
                );
                let fast = select_candidate(&inst, &state, &index, now, criterion);
                assert_eq!(fast, spec, "round {round}, {criterion:?}, t = {now}");
                match fast {
                    Some(chosen) => {
                        state.commit(&inst, chosen, now);
                        index.remove(chosen);
                        remaining.retain(|id| *id != chosen);
                    }
                    None => {
                        now = state
                            .next_release_after(now)
                            .expect("some task holds memory");
                    }
                }
            }
        }
    }
}

#[test]
fn specification_filter_keeps_ties() {
    // Table 4 after committing B at t = 0: the processing unit is busy
    // until 7.
    let inst = table4();
    let cpu_free = Time::units_int(7);
    let candidates = vec![TaskId(0), TaskId(2), TaskId(3)];
    // At t = 1 every remaining transfer finishes before 7: all tie at 0.
    let kept = reference::filter_minimum_cpu_idle(&inst, cpu_free, &candidates, Time::units_int(1));
    assert_eq!(kept, candidates);
    // At t = 5, A (comm 3) ends at 8 (idle 1), C (comm 4) at 9 (idle 2),
    // D (comm 5) at 10 (idle 3): only A is kept.
    let kept = reference::filter_minimum_cpu_idle(&inst, cpu_free, &candidates, Time::units_int(5));
    assert_eq!(kept, vec![TaskId(0)]);
    assert!(reference::filter_minimum_cpu_idle(&inst, cpu_free, &[], Time::ZERO).is_empty());
}

#[test]
fn specification_criteria_choose_expected_tasks() {
    let inst = table4();
    let all = inst.task_ids();
    let choose = |criterion, candidates: &[TaskId]| reference::choose(criterion, &inst, candidates);
    // D: comm 5.
    assert_eq!(choose(SELECTIONS[0], &all), Some(TaskId(3)));
    // B: comm 1.
    assert_eq!(choose(SELECTIONS[1], &all), Some(TaskId(1)));
    // B: ratio 6.
    assert_eq!(choose(SELECTIONS[2], &all), Some(TaskId(1)));
    assert_eq!(choose(SELECTIONS[0], &[]), None);
}

#[test]
fn engines_agree_on_paper_fixtures() {
    for instance in [table3(), table4(), table5()] {
        assert_engines_agree(&instance, &instance.label.clone());
    }
}

#[test]
fn engines_agree_on_seeded_random_instances() {
    // ≥ 50 instances over a grid of sizes and capacity tightness, both with
    // paper-convention memory (mem = comm volume) and decoupled memory.
    let mut count = 0;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for n_tasks in [1usize, 2, 5, 12, 30] {
            for factor in [1.0, 1.2, 1.6] {
                let coupled = random_instance(
                    &mut rng,
                    RandomInstanceConfig {
                        n_tasks,
                        capacity_factor: factor,
                        ..Default::default()
                    },
                );
                assert_engines_agree(&coupled, &format!("coupled seed={seed} n={n_tasks}"));
                let decoupled = random_instance_decoupled_memory(&mut rng, n_tasks, factor);
                assert_engines_agree(&decoupled, &format!("decoupled seed={seed} n={n_tasks}"));
                count += 2;
            }
        }
    }
    assert!(count >= 50, "the suite must cover at least 50 instances");
}

#[test]
fn engines_agree_on_tie_heavy_instances() {
    // Tiny value domains force many tasks to share communication times,
    // acceleration ratios and memory footprints, so the id tie-breaking of
    // the memory-indexed candidate selection is the only thing separating
    // candidates. Zero-communication tasks (infinite ratio, and ratio 1 for
    // zero-comm/zero-comp tasks) are included on purpose.
    let mut rng = StdRng::seed_from_u64(7777);
    for round in 0..40 {
        let n = rng.gen_range(1usize..=16);
        let capacity = rng.gen_range(4u64..=8);
        let mut builder = dts_core::InstanceBuilder::new()
            .capacity(MemSize::from_bytes(capacity))
            .label(format!("tie-heavy-{round}"));
        for i in 0..n {
            builder = builder.task(Task::new(
                format!("t{i}"),
                Time::units_int(rng.gen_range(0..=2u64)),
                Time::units_int(rng.gen_range(0..=2u64)),
                MemSize::from_bytes(rng.gen_range(0..=4u64)),
            ));
        }
        let instance = builder.build().expect("mem <= 4 fits capacity >= 4");
        assert_engines_agree(&instance, &format!("tie-heavy round {round}"));
    }
}

#[test]
fn engines_agree_on_transfer_bound_instances() {
    // The adversarial domains of the execution-model layer: communication
    // dominates computation (so the link is the bottleneck) and capacity
    // slack is tight. The explicit engine must still match the seed
    // reference exactly on them — the model-aware refactor of
    // `EngineState::commit` may not perturb the pinned baseline.
    use microcheck::Gen;

    let mut rng = StdRng::seed_from_u64(4242);
    let transfer_bound = dts_testgen::transfer_bound_instance_gen(1..=20);
    let tie_heavy = dts_testgen::transfer_bound_tie_heavy_instance_gen(1..=20);
    for round in 0..30 {
        let instance = transfer_bound.generate(&mut rng).build();
        assert_engines_agree(&instance, &format!("transfer-bound round {round}"));
        let instance = tie_heavy.generate(&mut rng).build();
        assert_engines_agree(
            &instance,
            &format!("transfer-bound tie-heavy round {round}"),
        );
    }
}

#[test]
fn sequence_executor_agrees_with_reference_on_random_orders() {
    // `simulate_sequence` swapped its front-popped Vec for a VecDeque; replay
    // shuffled orders against a naive full-scan executor.
    use rand::prelude::SliceRandom;

    fn naive_simulate(instance: &Instance, order: &[TaskId]) -> Schedule {
        let capacity = instance.capacity();
        let mut schedule = Schedule::with_capacity(order.len());
        let mut link_free = Time::ZERO;
        let mut cpu_free = Time::ZERO;
        let mut active: Vec<(Time, u64)> = Vec::new();
        for &id in order {
            let task = instance.task(id);
            let need = task.mem.bytes();
            let mut start = link_free;
            // Earliest start >= link_free at which the task fits, scanning
            // release instants.
            loop {
                let held: u64 = active
                    .iter()
                    .filter(|(end, _)| *end > start)
                    .map(|(_, mem)| mem)
                    .sum();
                if held + need <= capacity.bytes() {
                    break;
                }
                start = active
                    .iter()
                    .map(|(end, _)| *end)
                    .filter(|end| *end > start)
                    .min()
                    .expect("some release must be pending");
            }
            let comm_start = start;
            let comm_end = comm_start + task.comm_time;
            let comp_start = comm_end.max(cpu_free);
            let comp_end = comp_start + task.comp_time;
            link_free = comm_end;
            cpu_free = comp_end;
            active.push((comp_end, need));
            schedule.push(ScheduleEntry {
                task: id,
                comm_start,
                comp_start,
            });
        }
        schedule
    }

    let mut rng = StdRng::seed_from_u64(2024);
    for instance in [table3(), table4(), table5()] {
        let mut order = instance.task_ids();
        for _ in 0..20 {
            order.shuffle(&mut rng);
            let fast = dts_core::simulate::simulate_sequence(&instance, &order, instance.model())
                .expect("valid order simulates");
            assert_eq!(
                fast,
                naive_simulate(&instance, &order),
                "{}",
                instance.label
            );
        }
    }
    for _ in 0..30 {
        let instance = random_instance_decoupled_memory(&mut rng, 25, 1.25);
        let mut order = instance.task_ids();
        order.shuffle(&mut rng);
        let fast = dts_core::simulate::simulate_sequence(&instance, &order, instance.model())
            .expect("valid order simulates");
        assert_eq!(fast, naive_simulate(&instance, &order));
    }
}

#[test]
fn u64_scale_memory_never_overlaps_the_full_memory_task() {
    // Every task fits the capacity on its own, but the MAX-byte task plus
    // any other overflows the exact sum. The engine must treat the overflow
    // as "does not fit" (matching `simulate_sequence`) and keep the small
    // tasks strictly outside the big task's active interval, instead of a
    // saturating comparison silently admitting them concurrently.
    let instance = InstanceBuilder::new()
        .capacity(MemSize::from_bytes(u64::MAX))
        .task_units("a", 1.0, 1.0, u64::MAX)
        .task_units("b", 1.0, 1.0, 2)
        .task_units("c", 1.0, 1.0, 2)
        .build()
        .expect("every task fits the u64::MAX capacity");
    let active_interval = |sched: &Schedule, id: TaskId| {
        let entry = sched.entry(id).expect("task is scheduled");
        (
            entry.comm_start,
            entry.comp_start + instance.task(id).comp_time,
        )
    };
    let mut schedules: Vec<(String, Schedule)> = Vec::new();
    for criterion in SELECTIONS {
        let sched = dynamic(&instance, criterion).expect("dynamic heuristic runs");
        schedules.push((format!("dynamic {criterion:?}"), sched));
        let sched = corrected(&instance, &instance.task_ids(), criterion)
            .expect("corrected heuristic runs");
        schedules.push((format!("corrected {criterion:?}"), sched));
    }
    for (context, sched) in schedules {
        assert_eq!(sched.len(), 3, "{context}");
        let (big_start, big_end) = active_interval(&sched, TaskId(0));
        for id in [TaskId(1), TaskId(2)] {
            let (start, end) = active_interval(&sched, id);
            assert!(
                end <= big_start || start >= big_end,
                "{context}: task {id} overlaps the full-memory task"
            );
        }
    }
}
