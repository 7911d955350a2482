//! Batched scheduling (Section 6.3 of the paper).
//!
//! A runtime scheduler usually only sees a limited window of independent
//! tasks. The paper models this by splitting each trace into batches of 100
//! tasks and applying each heuristic to the batches in succession; the
//! makespan is the completion time of the last batch, with batches executed
//! back to back.

use crate::{run_heuristic, Heuristic};
use dts_core::prelude::*;

/// Configuration of batched execution.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Number of tasks per batch (the paper uses 100). The last batch may be
    /// smaller.
    pub batch_size: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_size: 100 }
    }
}

/// Runs `heuristic` on successive batches of `instance` and returns the
/// resulting global schedule. Batches are scheduled one after the other: the
/// communications and computations of batch `k + 1` start no earlier than
/// the completion of batch `k` (the runtime only discovers the next batch
/// once the current one is done). Each batch starts from an empty memory
/// and idle resources, so it is solved on its own and shifted by the
/// makespan of the batches before it.
///
/// ```
/// use dts_core::instances::table5;
/// use dts_heuristics::{run_heuristic, run_heuristic_batched, BatchConfig, Heuristic};
///
/// let instance = table5();
/// let batched = run_heuristic_batched(
///     &instance,
///     Heuristic::OOLCMR,
///     BatchConfig { batch_size: 2 },
/// )
/// .unwrap();
/// // Splitting 5 tasks into batches of 2 limits the scheduler's look-ahead;
/// // on this fixture (the heuristics are greedy, so this is not a law) the
/// // batched makespan does not beat the whole-instance run.
/// let whole = run_heuristic(&instance, Heuristic::OOLCMR).unwrap();
/// assert!(batched.makespan(&instance) >= whole.makespan(&instance));
/// ```
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] for a zero batch size, and otherwise
/// the error of the first batch that fails to schedule.
pub fn run_heuristic_batched(
    instance: &Instance,
    heuristic: Heuristic,
    config: BatchConfig,
) -> Result<Schedule> {
    if config.batch_size == 0 {
        return Err(CoreError::Infeasible("batch size must be positive".into()));
    }
    let ids = instance.task_ids();
    let mut global = Schedule::with_capacity(instance.len());
    let mut offset = Time::ZERO;
    for batch in ids.chunks(config.batch_size) {
        let sub = instance.sub_instance(batch)?;
        let sub_schedule = run_heuristic(&sub, heuristic)?;
        // Translate the sub-schedule back to global task ids and shift it by
        // the completion time of the previous batches.
        for entry in sub_schedule.entries() {
            global.push(ScheduleEntry {
                task: batch[entry.task.index()],
                comm_start: entry.comm_start + offset,
                comp_start: entry.comp_start + offset,
            });
        }
        offset += sub_schedule.makespan(&sub);
    }
    Ok(global)
}

/// Sum over batches of the OMIM lower bound: the reference value the paper
/// normalizes against in the batched experiment (each batch cannot beat its
/// own infinite-memory optimum).
pub fn batched_omim(instance: &Instance, config: BatchConfig) -> Result<Time> {
    if config.batch_size == 0 {
        return Err(CoreError::Infeasible("batch size must be positive".into()));
    }
    let ids = instance.task_ids();
    let mut total = Time::ZERO;
    for batch in ids.chunks(config.batch_size) {
        let sub = instance.sub_instance(batch)?;
        total += dts_flowshop::johnson::johnson_makespan(&sub);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::random_instance_decoupled_memory;
    use dts_flowshop::johnson::johnson_makespan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batched_schedule_is_feasible_and_complete() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = random_instance_decoupled_memory(&mut rng, 57, 1.3);
        for h in [Heuristic::OOSIM, Heuristic::MAMR, Heuristic::OOLCMR] {
            let sched = run_heuristic_batched(&inst, h, BatchConfig { batch_size: 10 }).unwrap();
            assert_eq!(sched.len(), inst.len());
            assert!(is_feasible(&inst, &sched), "{h}");
        }
    }

    #[test]
    fn batching_never_improves_over_whole_instance_lower_bound() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = random_instance_decoupled_memory(&mut rng, 40, 1.5);
        let omim = johnson_makespan(&inst);
        let sched =
            run_heuristic_batched(&inst, Heuristic::OOMAMR, BatchConfig { batch_size: 8 }).unwrap();
        assert!(sched.makespan(&inst) >= omim);
        // ... and at least the batched OMIM reference.
        let batched_bound = batched_omim(&inst, BatchConfig { batch_size: 8 }).unwrap();
        assert!(sched.makespan(&inst) >= batched_bound);
        assert!(batched_bound >= omim);
    }

    #[test]
    fn one_big_batch_equals_unbatched() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = random_instance_decoupled_memory(&mut rng, 25, 1.4);
        for h in [Heuristic::IOCMS, Heuristic::SCMR, Heuristic::OOSCMR] {
            let batched =
                run_heuristic_batched(&inst, h, BatchConfig { batch_size: 1000 }).unwrap();
            let plain = run_heuristic(&inst, h).unwrap();
            assert_eq!(batched.makespan(&inst), plain.makespan(&inst), "{h}");
        }
    }

    #[test]
    fn smaller_batches_generally_cost_more() {
        // Batching reduces the scheduler's look-ahead; with batch size 1 the
        // schedule is fully sequential and must be the worst of the three.
        let mut rng = StdRng::seed_from_u64(10);
        let inst = random_instance_decoupled_memory(&mut rng, 30, 1.6);
        let tiny = run_heuristic_batched(&inst, Heuristic::OOLCMR, BatchConfig { batch_size: 1 })
            .unwrap()
            .makespan(&inst);
        let whole =
            run_heuristic_batched(&inst, Heuristic::OOLCMR, BatchConfig { batch_size: 1000 })
                .unwrap()
                .makespan(&inst);
        assert!(tiny >= whole);
        // Batch size 1 is exactly the sequential sum of all task times.
        let stats = inst.stats();
        assert_eq!(tiny, stats.sequential_upper_bound());
    }

    #[test]
    fn zero_batch_size_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance_decoupled_memory(&mut rng, 5, 1.5);
        assert!(
            run_heuristic_batched(&inst, Heuristic::OS, BatchConfig { batch_size: 0 }).is_err()
        );
        assert!(batched_omim(&inst, BatchConfig { batch_size: 0 }).is_err());
    }
}
