//! The iterative `lp.k` heuristic (Section 4.5 of the paper).
//!
//! The submission order is split into consecutive windows of `k` tasks
//! ("the subsets are formed in the order in which tasks are submitted, which
//! is arbitrary"); each window is solved exactly, warm-started from the
//! runtime state left by the previous windows (the counterpart of the paper
//! fixing the events of tasks that started before the window boundary).

use crate::window::{solve_window, WindowState, MAX_WINDOW_TASKS};
use dts_core::prelude::*;

/// Configuration of the `lp.k` heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpKConfig {
    /// Window size `k`. The paper evaluates `k = 3, 4, 5, 6`.
    pub window: usize,
}

impl LpKConfig {
    /// The window sizes evaluated in Fig. 7 of the paper.
    pub const PAPER_WINDOW_SIZES: [usize; 4] = [3, 4, 5, 6];
}

impl Default for LpKConfig {
    fn default() -> Self {
        LpKConfig { window: 4 }
    }
}

/// Runs `lp.k`: windows of `config.window` tasks in submission order, each
/// solved exactly and concatenated.
///
/// The window solver times transfers on the single half-duplex link of
/// the paper's model, so only instances carrying
/// [`ExecutionModel::Explicit`] are accepted.
///
/// ```
/// use dts_core::instances::table3;
/// use dts_milp::{lp_k, LpKConfig};
///
/// let instance = table3();
/// let schedule = lp_k(&instance, LpKConfig { window: 4 }).unwrap();
/// assert_eq!(schedule.len(), instance.len());
/// assert!(dts_core::feasibility::is_feasible(&instance, &schedule));
/// ```
///
/// # Errors
///
/// Returns [`CoreError::InvalidExecutionModel`] for an instance carrying
/// any other execution model and [`CoreError::Infeasible`] for a window
/// size outside `1..=8`.
pub fn lp_k(instance: &Instance, config: LpKConfig) -> Result<Schedule> {
    if !instance.model().is_explicit() {
        return Err(CoreError::InvalidExecutionModel(format!(
            "lp.k supports only the explicit model, not {}",
            instance.model()
        )));
    }
    if config.window == 0 {
        return Err(CoreError::Infeasible("lp.k window must be positive".into()));
    }
    if config.window > MAX_WINDOW_TASKS {
        return Err(CoreError::Infeasible(format!(
            "lp.k window of {} is too large for exact enumeration (max {MAX_WINDOW_TASKS})",
            config.window
        )));
    }
    let ids = instance.task_ids();
    let mut state = WindowState::default();
    let mut schedule = Schedule::with_capacity(instance.len());
    for window in ids.chunks(config.window) {
        let solution = solve_window(instance, &state, window)?;
        for entry in solution.entries {
            schedule.push(entry);
        }
        state = solution.state;
    }
    Ok(schedule)
}

/// Runs `lp.k` for every window size of Fig. 7 and returns the
/// `(k, makespan)` pairs, in the order of
/// [`LpKConfig::PAPER_WINDOW_SIZES`], or the error of the first size that
/// fails.
///
/// ```
/// use dts_core::instances::table3;
/// let sweep = dts_milp::lp_k_sweep(&table3()).unwrap();
/// assert_eq!(sweep.len(), 4);
/// assert_eq!(sweep[0].0, 3); // lp.3 first
/// ```
pub fn lp_k_sweep(instance: &Instance) -> Result<Vec<(usize, Time)>> {
    LpKConfig::PAPER_WINDOW_SIZES
        .iter()
        .map(|&k| {
            Ok((
                k,
                lp_k(instance, LpKConfig { window: k })?.makespan(instance),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::{random_instance_decoupled_memory, table3, table5};
    use dts_flowshop::johnson::johnson_makespan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lp_k_produces_feasible_complete_schedules() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let inst = random_instance_decoupled_memory(&mut rng, 17, 1.3);
            for k in LpKConfig::PAPER_WINDOW_SIZES {
                let sched = lp_k(&inst, LpKConfig { window: k }).unwrap();
                assert_eq!(sched.len(), inst.len());
                assert!(is_feasible(&inst, &sched), "lp.{k}");
                assert!(sched.makespan(&inst) >= johnson_makespan(&inst));
            }
        }
    }

    #[test]
    fn window_covering_the_whole_instance_is_exact_over_permutations() {
        // With a single window of size >= n, lp.k is the exact permutation
        // optimum of the (small) instance.
        let inst = table3();
        let sched = lp_k(&inst, LpKConfig { window: 6 }).unwrap();
        let exact = dts_flowshop::exact::optimal_same_order(&inst);
        assert_eq!(sched.makespan(&inst), exact.makespan);
    }

    #[test]
    fn larger_windows_do_not_hurt_on_paper_instances() {
        for inst in [table3(), table5()] {
            let sweep = lp_k_sweep(&inst).unwrap();
            assert_eq!(sweep.len(), 4);
            let m3 = sweep[0].1;
            let m6 = sweep[3].1;
            assert!(
                m6 <= m3,
                "{}: lp.6 should not be worse than lp.3",
                inst.label
            );
        }
    }

    #[test]
    fn non_explicit_models_rejected() {
        // The window solver only knows the half-duplex link: a trace stamped
        // with another model must not be silently scheduled as explicit.
        let inst = table3().with_model(ExecutionModel::Duplex).unwrap();
        assert!(matches!(
            lp_k(&inst, LpKConfig::default()),
            Err(CoreError::InvalidExecutionModel(_))
        ));
        assert!(matches!(
            lp_k_sweep(&inst),
            Err(CoreError::InvalidExecutionModel(_))
        ));
    }

    #[test]
    fn invalid_window_sizes_rejected() {
        let inst = table3();
        assert!(lp_k(&inst, LpKConfig { window: 0 }).is_err());
        assert!(lp_k(&inst, LpKConfig { window: 9 }).is_err());
    }

    #[test]
    fn lp_k_is_generally_beaten_by_good_heuristics() {
        // The paper observes that most heuristics outperform the iterative
        // MILP. Individual random instances can go either way (lp.k is exact
        // inside each window), so check the aggregate statement: over a set
        // of instances, the best heuristic's total makespan does not exceed
        // lp.4's total makespan.
        let mut rng = StdRng::seed_from_u64(4242);
        let mut best_total = Time::ZERO;
        let mut lp4_total = Time::ZERO;
        for _ in 0..10 {
            let inst = random_instance_decoupled_memory(&mut rng, 20, 1.25);
            let (_, best) = dts_heuristics::best_heuristic(&inst).unwrap();
            best_total += best.makespan(&inst);
            lp4_total += lp_k(&inst, LpKConfig { window: 4 })
                .unwrap()
                .makespan(&inst);
        }
        assert!(best_total <= lp4_total);
    }
}
