//! Equivalence suite for the window-size sweep of the `lp.k` pipeline:
//! `lp_k_sweep` must report, size for size, exactly what independent
//! `lp_k` runs report — makespans and, on failure, the error of the
//! earliest failing size.

use dts_core::instances::{random_instance_decoupled_memory, table3, table5};
use dts_core::prelude::*;
use dts_milp::{lp_k, lp_k_sweep, LpKConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parallel_sweep_matches_per_size_runs() {
    let mut rng = StdRng::seed_from_u64(11);
    let big = random_instance_decoupled_memory(&mut rng, 25, 1.25);
    for instance in [table3(), table5(), big] {
        let sweep = lp_k_sweep(&instance).unwrap();
        assert_eq!(sweep.len(), LpKConfig::PAPER_WINDOW_SIZES.len());
        for (i, &k) in LpKConfig::PAPER_WINDOW_SIZES.iter().enumerate() {
            assert_eq!(sweep[i].0, k, "sweep rows must stay in size order");
            let reference = lp_k(&instance, LpKConfig { window: k })
                .unwrap()
                .makespan(&instance);
            assert_eq!(sweep[i].1, reference, "lp.{k} on {}", instance.label);
        }
    }
}

#[test]
fn parallel_sweep_reports_the_earliest_failing_size() {
    // A valid instance stamped with a model the window solver does not
    // support fails every window size with the same typed error; the sweep
    // must report it exactly like a run of the first size.
    let instance = table3().with_model(ExecutionModel::Duplex).unwrap();
    let sweep_err = lp_k_sweep(&instance).unwrap_err();
    let first_err = lp_k(&instance, LpKConfig { window: 3 }).unwrap_err();
    assert!(matches!(first_err, CoreError::InvalidExecutionModel(_)));
    assert_eq!(sweep_err, first_err);
}
