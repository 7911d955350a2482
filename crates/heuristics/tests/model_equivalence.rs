//! Execution-model behavior of the decision engines.
//!
//! Three families of checks:
//!
//! * **degenerate equivalence** — `Streams { k: 1 }` must produce the
//!   byte-identical schedule of the explicit model for every heuristic
//!   (the one-stream channel pool collapses to the half-duplex link);
//! * **behavioral divergence** — duplex and multi-stream execution must
//!   actually change the dynamic decisions on transfer-bound instances,
//!   not just re-time the same order (earlier releases open different
//!   candidate sets);
//! * **feasibility and dominance** — every model's schedule respects the
//!   memory capacity, and the overlap models never end later than the
//!   explicit baseline under the *same* decision rule and order-free
//!   dynamic selection.

use dts_core::memory::MemoryProfile;
use dts_core::prelude::*;
use dts_heuristics::{
    run_decisions, run_heuristic, run_heuristic_with, Heuristic, SelectionCriterion,
};
use microcheck::Gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SELECTIONS: [SelectionCriterion; 3] = [
    SelectionCriterion::LargestCommunication,
    SelectionCriterion::SmallestCommunication,
    SelectionCriterion::MaximumAcceleration,
];

fn transfer_bound_instances(seed: u64, rounds: usize) -> Vec<Instance> {
    let gen = dts_testgen::transfer_bound_instance_gen(2..=18);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rounds)
        .map(|_| gen.generate(&mut rng).build())
        .collect()
}

#[test]
fn single_stream_matches_explicit_for_every_heuristic() {
    for (i, instance) in transfer_bound_instances(11, 25).iter().enumerate() {
        for &heuristic in &Heuristic::ALL {
            let explicit = run_heuristic_with(instance, heuristic, ExecutionModel::Explicit)
                .expect("explicit run succeeds");
            let one_stream =
                run_heuristic_with(instance, heuristic, ExecutionModel::Streams { k: 1 })
                    .expect("one-stream run succeeds");
            assert_eq!(explicit, one_stream, "{heuristic} diverged on round {i}");
        }
    }
}

#[test]
fn plain_entry_points_honor_the_instance_model() {
    // `run_heuristic` (no model argument) must pick up a model attached to
    // the instance — the trace → instance → heuristic chain the CLI uses.
    for instance in transfer_bound_instances(23, 10) {
        let duplex_instance = instance
            .clone()
            .with_model(ExecutionModel::Duplex)
            .expect("duplex is valid");
        for &heuristic in &[Heuristic::LCMR, Heuristic::OOSIM, Heuristic::OOMAMR] {
            let implicit_route =
                run_heuristic(&duplex_instance, heuristic).expect("stamped run succeeds");
            let explicit_route = run_heuristic_with(&instance, heuristic, ExecutionModel::Duplex)
                .expect("explicit-model run succeeds");
            assert_eq!(implicit_route, explicit_route, "{heuristic}");
        }
    }
}

#[test]
fn overlap_models_change_dynamic_decisions_on_transfer_bound_instances() {
    // Overlap is not mere re-timing: on a transfer-bound workload the
    // earlier memory releases of the duplex/stream models must reshape the
    // *order* the dynamic heuristics choose, on a healthy fraction of
    // instances. (Any single instance may be insensitive; all of them
    // being insensitive would mean the models don't reach the decisions.)
    let instances = transfer_bound_instances(37, 40);
    for model in [ExecutionModel::Duplex, ExecutionModel::Streams { k: 3 }] {
        let mut diverged = 0usize;
        for instance in &instances {
            for criterion in SELECTIONS {
                let explicit = run_decisions(instance, None, criterion, ExecutionModel::Explicit)
                    .expect("explicit run succeeds");
                let overlapped =
                    run_decisions(instance, None, criterion, model).expect("overlap run succeeds");
                if explicit.comm_order() != overlapped.comm_order() {
                    diverged += 1;
                }
            }
        }
        assert!(
            diverged >= instances.len() / 4,
            "{model}: only {diverged} of {} runs changed their decision order",
            3 * instances.len()
        );
    }
}

#[test]
fn dynamic_overlap_models_never_lose_to_explicit() {
    // The dynamic heuristics re-decide at every link-free instant, so the
    // dominance argument for fixed orders does not apply verbatim; it
    // still holds empirically across the adversarial domain, and a
    // violation would flag a commit-timing bug.
    for (i, instance) in transfer_bound_instances(53, 40).iter().enumerate() {
        for criterion in SELECTIONS {
            let explicit = run_decisions(instance, None, criterion, ExecutionModel::Explicit)
                .expect("explicit run succeeds")
                .makespan(instance);
            for model in [ExecutionModel::Duplex, ExecutionModel::Streams { k: 4 }] {
                let overlapped = run_decisions(instance, None, criterion, model)
                    .expect("overlap run succeeds")
                    .makespan(instance);
                assert!(
                    overlapped <= explicit,
                    "round {i} {criterion:?}: {model} {overlapped} > explicit {explicit}"
                );
            }
        }
    }
}

#[test]
fn all_models_stay_memory_feasible_through_every_engine() {
    let models = [
        ExecutionModel::Explicit,
        ExecutionModel::Duplex,
        ExecutionModel::Streams { k: 2 },
        ExecutionModel::IMPLICIT_FULL,
    ];
    for instance in transfer_bound_instances(71, 20) {
        for model in models {
            for criterion in SELECTIONS {
                let schedule =
                    run_decisions(&instance, None, criterion, model).expect("dynamic run succeeds");
                assert_eq!(schedule.len(), instance.len());
                let profile = MemoryProfile::of_schedule(&instance, &schedule);
                assert!(
                    profile.peak() <= instance.capacity(),
                    "dynamic {criterion:?} under {model} violates memory"
                );
            }
            let schedule = run_decisions(
                &instance,
                Some(&instance.task_ids()),
                SelectionCriterion::MaximumAcceleration,
                model,
            )
            .expect("corrected run succeeds");
            let profile = MemoryProfile::of_schedule(&instance, &schedule);
            assert!(
                profile.peak() <= instance.capacity(),
                "corrected under {model} violates memory"
            );
        }
    }
}

#[test]
fn invalid_models_error_cleanly_through_every_entry_point() {
    let instance = dts_core::instances::table4();
    let zero_streams = ExecutionModel::Streams { k: 0 };
    assert!(matches!(
        run_decisions(
            &instance,
            None,
            SelectionCriterion::LargestCommunication,
            zero_streams
        ),
        Err(CoreError::InvalidExecutionModel(_))
    ));
    assert!(matches!(
        run_decisions(
            &instance,
            Some(&instance.task_ids()),
            SelectionCriterion::LargestCommunication,
            zero_streams,
        ),
        Err(CoreError::InvalidExecutionModel(_))
    ));
    assert!(matches!(
        run_heuristic_with(&instance, Heuristic::OOSIM, zero_streams),
        Err(CoreError::InvalidExecutionModel(_))
    ));
}
