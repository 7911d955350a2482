//! Fuzz-hardening of the one trace reader, [`Trace::from_json`]: every
//! corruption of a valid trace file must surface as a *typed* `CoreError`
//! — never a panic, never a silently wrong trace — and every generated
//! trace must round-trip through the writer byte-identically.
//!
//! The corrupted classes the issue names each get a seeded property:
//! truncation at every byte offset, float (NaN-class) time fields,
//! negative memory, duplicate task ids and `u64`-overflowing sums. One
//! deliberately *broken* claim is checked via [`microcheck::check`]'s
//! panic-free entry point to pin the shrinker's minimal malformed
//! witness, so shrinking quality itself is under test.

use dts_chem::Trace;
use dts_core::{CoreError, ExecutionModel};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use microcheck::{gens, prop_assert, property, Config};

/// A fixed valid exported file the corruption properties start from.
fn valid_json() -> String {
    let mut config = GeneratorConfig::new(WorkloadFamily::MdLike);
    config.n_tasks = 6;
    config.seed = 99;
    let trace = generate_trace(&config, 0).expect("seeded generation is infallible");
    trace.to_json().expect("generated traces are written")
}

/// `true` iff the reader failed with a typed error (the only acceptable
/// outcomes for malformed input).
fn rejected_cleanly(json: &str) -> bool {
    matches!(
        Trace::from_json(json),
        Err(CoreError::Serialization(_))
            | Err(CoreError::InvalidTrace(_))
            | Err(CoreError::InvalidExecutionModel(_))
    )
}

fn task_json(name: &str, comm: &str, comp: &str, mem: &str) -> String {
    format!(
        r#"{{"name": "{name}", "kind": "Contraction", "comm_micros": {comm}, "comp_micros": {comp}, "mem_bytes": {mem}}}"#
    )
}

fn file_json(tasks: &[String]) -> String {
    format!(
        r#"{{"format": "dts-trace", "version": 1, "kernel": "FUZZ", "rank": 0, "tasks": [{}]}}"#,
        tasks.join(", ")
    )
}

property! {
    /// Truncating a valid file at any byte offset yields a clean
    /// Serialization or InvalidTrace error — the parser never panics on
    /// and never accepts a prefix.
    fn truncated_files_are_rejected_cleanly(cut in gens::usize_in(0..=2047)) {
        let json = valid_json();
        if cut >= json.len() {
            // Beyond the end there is nothing to corrupt.
            return Ok(());
        }
        let truncated = &json[..cut];
        prop_assert!(
            rejected_cleanly(truncated),
            "truncation at byte {cut} was not rejected cleanly"
        );
    }

    /// Float time fields — including exponent forms that evaluate to
    /// IEEE infinity — are rejected as InvalidTrace, not cast or panicked
    /// on.
    fn float_times_are_rejected((mantissa, exp, field) in (
        gens::u64_in(0..=1000),
        gens::u64_in(1..=999),
        gens::usize_in(0..=1),
    )) {
        let float = format!("{mantissa}.5e{exp}");
        let (comm, comp) = if field == 0 { (float.as_str(), "1") } else { ("1", float.as_str()) };
        let json = file_json(&[task_json("t", comm, comp, "1")]);
        match Trace::from_json(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("comm_micros") || msg.contains("comp_micros"),
                "message `{msg}` does not name the float field"
            ),
            other => prop_assert!(false, "float time accepted or mis-typed: {other:?}"),
        }
    }

    /// Negative memory (and negative times) are rejected with a message
    /// naming the negative value.
    fn negative_fields_are_rejected((value, field) in (
        gens::u64_in(1..=1_000_000),
        gens::usize_in(0..=2),
    )) {
        let negative = format!("-{value}");
        let (comm, comp, mem) = match field {
            0 => (negative.as_str(), "1", "1"),
            1 => ("1", negative.as_str(), "1"),
            _ => ("1", "1", negative.as_str()),
        };
        let json = file_json(&[task_json("t", comm, comp, mem)]);
        match Trace::from_json(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("negative"),
                "message `{msg}` does not say the field is negative"
            ),
            other => prop_assert!(false, "negative field accepted or mis-typed: {other:?}"),
        }
    }

    /// Duplicate task ids anywhere in the task list are rejected, naming
    /// the duplicated id.
    fn duplicate_task_ids_are_rejected((n, dup_a, dup_b) in (
        gens::usize_in(2..=40),
        gens::usize_in(0..=39),
        gens::usize_in(0..=39),
    )) {
        let (dup_a, dup_b) = (dup_a % n, dup_b % n);
        if dup_a == dup_b {
            return Ok(());
        }
        let tasks: Vec<String> = (0..n)
            .map(|i| {
                // Give positions dup_a and dup_b the same id.
                let id = if i == dup_b { dup_a } else { i };
                task_json(&format!("task-{id}"), "1", "2", "3")
            })
            .collect();
        let json = file_json(&tasks);
        match Trace::from_json(&json) {
            Err(CoreError::InvalidTrace(msg)) => prop_assert!(
                msg.contains("duplicate") && msg.contains(&format!("task-{dup_a}")),
                "message `{msg}` does not name duplicate `task-{dup_a}`"
            ),
            other => prop_assert!(false, "duplicate ids accepted or mis-typed: {other:?}"),
        }
    }

    /// Task lists whose summed times overflow u64 are rejected at import
    /// — and the same trace built in memory is rejected by
    /// `Trace::to_instance_scaled`, so the overflow can not reach the
    /// simulators through either door.
    fn overflowing_sums_are_rejected(n in gens::usize_in(2..=8)) {
        // Each task alone is representable; together they overflow.
        let per_task = u64::MAX / (n as u64 - 1);
        let tasks: Vec<String> = (0..n)
            .map(|i| task_json(&format!("big-{i}"), &format!("{}", per_task / 2), &format!("{}", per_task - per_task / 2), "1"))
            .collect();
        let json = file_json(&tasks);
        prop_assert!(
            matches!(Trace::from_json(&json), Err(CoreError::InvalidTrace(_))),
            "overflowing import not rejected"
        );
        // The in-memory door: same values straight into a Trace.
        let trace = Trace {
            kernel: "FUZZ".into(),
            rank: 0,
            tasks: (0..n)
                .map(|i| dts_chem::TraceTask {
                    name: format!("big-{i}"),
                    kind: dts_chem::trace::TaskKind::Contraction,
                    comm_micros: per_task / 2,
                    comp_micros: per_task - per_task / 2,
                    mem_bytes: 1,
                })
                .collect(),
            model: None,
            cost_model: None,
        };
        prop_assert!(
            matches!(trace.to_instance_scaled(1.0), Err(CoreError::InvalidTrace(_))),
            "overflowing to_instance_scaled not rejected"
        );
    }
}

/// The broken-claim shrinker test: deliberately claim that a file whose
/// tasks all share one name imports fine. The claim holds for 0 or 1
/// tasks and breaks at 2, so the shrinker must walk any drawn failure
/// down to the minimal malformed witness: exactly two identically-named
/// tasks.
#[test]
fn broken_duplicate_claim_shrinks_to_two_tasks() {
    let gen = gens::usize_in(0..=64);
    let failure = microcheck::check(&Config::default(), &gen, |&n| {
        let tasks: Vec<String> = (0..n).map(|_| task_json("same", "1", "1", "1")).collect();
        let json = file_json(&tasks);
        microcheck::prop_assert!(Trace::from_json(&json).is_ok(), "rejected a {n}-task file");
        Ok(())
    })
    .expect_err("files with duplicate ids must not all import");
    assert_eq!(
        failure.minimal, 2,
        "minimal malformed witness is two identically-named tasks"
    );
    assert!(failure.original >= 2);
}

/// Every family under every execution model: the generated trace reads
/// back equal, and re-writing what was read reproduces the file byte for
/// byte.
#[test]
fn every_family_round_trips_under_every_model() {
    let models = [
        ExecutionModel::Explicit,
        ExecutionModel::Duplex,
        ExecutionModel::Streams { k: 4 },
        ExecutionModel::IMPLICIT_FULL,
    ];
    for family in WorkloadFamily::ALL {
        let mut config = GeneratorConfig::new(family);
        config.n_tasks = 40;
        config.seed = 5;
        for model in models {
            let mut trace = generate_trace(&config, 0).expect("seeded generation succeeds");
            trace.model = Some(model);
            let json = trace.to_json().expect("generated traces are written");
            let back = Trace::from_json(&json).expect("written traces read back");
            assert_eq!(back, trace, "{family} --model {model}: trace changed");
            assert_eq!(
                back.to_json().unwrap(),
                json,
                "{family} --model {model}: re-write changed bytes"
            );
        }
    }
}
