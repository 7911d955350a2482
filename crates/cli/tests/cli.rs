//! End-to-end regression tests for the `dts` binary, driving the real
//! executable (`CARGO_BIN_EXE_dts`) the way a shell would.
//!
//! Pinned bugs:
//!
//! * `dts run <trace> <heuristic> <factor>` used to panic via the
//!   `MemSize::scale` assert on a negative, NaN or infinite factor instead
//!   of reporting an error;
//! * `dts generate <kernel> <dir> [n_ranks]` used to silently clamp
//!   `n_ranks` to the topology size — a request for 500 ranks quietly
//!   wrote 150 files and exited 0.

mod common;

use common::spawn_daemon;
use dts_chem::Trace;
use dts_core::metrics::ScheduleMetrics;
use dts_core::ExecutionModel;
use dts_heuristics::{run_heuristic, Heuristic};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dts"))
        .args(args)
        .output()
        .expect("the dts binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch directory that cleans up after itself even on panic.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dts-cli-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates one HF trace into `dir` and returns the trace file's path.
fn generate_one_trace(dir: &Path) -> PathBuf {
    let dir_str = dir.to_str().expect("scratch path is UTF-8");
    let output = dts(&["generate", "hf", dir_str, "1"]);
    assert!(
        output.status.success(),
        "trace generation failed: {}",
        stderr(&output)
    );
    dir.join("hf-rank000.json")
}

#[test]
fn run_rejects_malformed_capacity_factors() {
    let scratch = ScratchDir::new("run-bad-factor");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    for factor in ["-1", "nan", "inf", "-inf"] {
        let output = dts(&["run", trace, "MAMR", factor]);
        // Regression: these used to abort with the `MemSize::scale` panic
        // (signal, no diagnostic); now they are ordinary errors.
        assert_eq!(
            output.status.code(),
            Some(1),
            "factor {factor} should exit 1, got {:?}",
            output.status
        );
        let message = stderr(&output);
        assert!(
            message.contains("invalid capacity factor"),
            "factor {factor}: unexpected diagnostic {message:?}"
        );
    }
}

#[test]
fn run_accepts_a_valid_factor() {
    let scratch = ScratchDir::new("run-ok");
    let trace = generate_one_trace(scratch.path());
    let output = dts(&["run", trace.to_str().unwrap(), "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("makespan"), "unexpected output: {text:?}");
}

#[test]
fn generate_rejects_more_ranks_than_the_largest_topology() {
    let scratch = ScratchDir::new("generate-too-many");
    let dir = scratch.path().to_str().unwrap();
    // Regression: 500 ranks used to silently clamp to the topology's 150
    // processes and exit 0 after writing fewer files than requested.
    let output = dts(&["generate", "ccsd", dir, "500"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("500 ranks requested") && message.contains("150"),
        "unexpected diagnostic: {message:?}"
    );
    // Nothing was generated.
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

#[test]
fn generate_reports_how_many_ranks_were_written() {
    let scratch = ScratchDir::new("generate-count");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "2"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("generated 2 of 2 requested ranks"),
        "unexpected output: {:?}",
        stdout(&output)
    );
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 2);
}

#[test]
fn generate_rejects_zero_ranks() {
    let scratch = ScratchDir::new("generate-zero");
    let output = dts(&["generate", "hf", scratch.path().to_str().unwrap(), "0"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("at least 1"));
}

#[test]
fn run_rejects_malformed_execution_models() {
    let scratch = ScratchDir::new("run-bad-model");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    for spec in [
        "bogus",
        "streams",
        "streams:0",
        "streams:-2",
        "streams:two",
        "implicit:-0.5",
        "implicit:1.5",
        "implicit:NaN",
        "implicit:inf",
        "explicit:1",
        "duplex:2",
        "",
    ] {
        let output = dts(&["run", trace, "MAMR", "1.5", &format!("--model={spec}")]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "model {spec:?} should exit 1, got {:?}",
            output.status
        );
        let message = stderr(&output);
        assert!(
            message.contains("error:") && message.contains("invalid execution model"),
            "model {spec:?}: unexpected diagnostic {message:?}"
        );
        assert!(
            !message.contains("panicked"),
            "model {spec:?} panicked: {message:?}"
        );
    }
    // A dangling `--model` with no value is also a clean error.
    let output = dts(&["run", trace, "MAMR", "1.5", "--model"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--model expects a value"));
}

#[test]
fn run_echoes_the_execution_model() {
    let scratch = ScratchDir::new("run-model-echo");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    // The default explicit model is echoed too, so reports are
    // self-describing.
    let output = dts(&["run", trace, "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              explicit"),
        "unexpected output: {:?}",
        stdout(&output)
    );
    let output = dts(&["run", trace, "MAMR", "1.5", "--model", "duplex"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              duplex"),
        "unexpected output: {:?}",
        stdout(&output)
    );
}

#[test]
fn overlap_models_never_lengthen_a_run() {
    // The same trace, heuristic and capacity under each model: duplex and
    // streams cannot end later than explicit, and full implicit overlap
    // cannot end later than duplex.
    let scratch = ScratchDir::new("run-model-compare");
    let trace = generate_one_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let makespan_under = |spec: &str| -> u64 {
        let output = dts(&["run", trace, "LCMR", "1.5", "--model", spec]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        let text = stdout(&output);
        let line = text
            .lines()
            .find(|l| l.starts_with("makespan"))
            .unwrap_or_else(|| panic!("no makespan line in {text:?}"));
        line.split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparsable makespan line {line:?}"))
    };
    let explicit = makespan_under("explicit");
    let duplex = makespan_under("duplex");
    let streams = makespan_under("streams:4");
    let implicit = makespan_under("implicit");
    assert!(duplex <= explicit, "duplex {duplex} vs explicit {explicit}");
    assert!(
        streams <= explicit,
        "streams {streams} vs explicit {explicit}"
    );
    assert!(implicit <= duplex, "implicit {implicit} vs duplex {duplex}");
}

#[test]
fn generate_stamps_the_model_into_trace_files() {
    let scratch = ScratchDir::new("generate-model");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "1", "--model", "streams:3"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let json = std::fs::read_to_string(scratch.path().join("hf-rank000.json")).unwrap();
    assert!(
        json.contains("\"model\": \"streams:3\""),
        "model not stamped: {json:?}"
    );
    // A stamped trace runs under its model without repeating the flag.
    let trace = scratch.path().join("hf-rank000.json");
    let output = dts(&["run", trace.to_str().unwrap(), "MAMR", "1.5"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("model              streams:3"),
        "unexpected output: {:?}",
        stdout(&output)
    );
}

#[test]
fn generate_rejects_malformed_execution_models() {
    let scratch = ScratchDir::new("generate-bad-model");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&["generate", "hf", dir, "1", "--model", "streams:0"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("invalid execution model") && !message.contains("panicked"),
        "unexpected diagnostic: {message:?}"
    );
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

const FAMILIES: [&str; 5] = [
    "md",
    "dense-la",
    "tie-heavy",
    "memory-cliff",
    "transfer-bound",
];

#[test]
fn usage_enumerates_every_generator_source() {
    let output = dts(&[]);
    assert_eq!(output.status.code(), Some(2));
    let usage = stderr(&output);
    for source in ["hf", "ccsd"].iter().chain(FAMILIES.iter()) {
        assert!(usage.contains(source), "usage does not list '{source}'");
    }
    for command in ["generate", "run", "sweep", "calibrate", "corpus", "request"] {
        assert!(usage.contains(command), "usage does not list '{command}'");
    }
    // One trace format: there is nothing left to import or export.
    assert!(!usage.contains("trace import") && !usage.contains("trace export"));
}

#[test]
fn generate_names_every_family_on_an_unknown_source() {
    let scratch = ScratchDir::new("generate-unknown-source");
    let output = dts(&["generate", "bogus", scratch.path().to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    for source in ["hf", "ccsd"].iter().chain(FAMILIES.iter()) {
        assert!(
            message.contains(source),
            "diagnostic {message:?} does not list '{source}'"
        );
    }
}

#[test]
fn generate_rejects_family_flags_on_chemistry_kernels() {
    let scratch = ScratchDir::new("generate-kernel-flags");
    let dir = scratch.path().to_str().unwrap();
    for flag in [["--tasks", "10"], ["--seed", "3"], ["--skew", "1.2"]] {
        let output = dts(&["generate", "hf", dir, "1", flag[0], flag[1]]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{} on hf should exit 1",
            flag[0]
        );
        let message = stderr(&output);
        assert!(
            message.contains(flag[0]) && message.contains("synthetic families"),
            "{}: unexpected diagnostic {message:?}",
            flag[0]
        );
    }
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

#[test]
fn generate_rejects_invalid_family_parameters() {
    let scratch = ScratchDir::new("generate-bad-family-params");
    let dir = scratch.path().to_str().unwrap();
    // Skew only exists on dense-la.
    let output = dts(&["generate", "md", dir, "1", "--skew", "1.5"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("dense-la"),
        "unexpected diagnostic: {:?}",
        stderr(&output)
    );
    // Degenerate parameter values are clean errors, not panics.
    for args in [
        ["dense-la", "--skew", "0"],
        ["dense-la", "--skew", "nope"],
        ["md", "--tasks", "0"],
        ["md", "--tasks", "-5"],
        ["md", "--seed", "minus-one"],
    ] {
        let output = dts(&["generate", args[0], dir, "1", args[1], args[2]]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{args:?} should exit 1, got {:?}",
            output.status
        );
        assert!(
            !stderr(&output).contains("panicked"),
            "{args:?} panicked: {}",
            stderr(&output)
        );
    }
    assert_eq!(std::fs::read_dir(scratch.path()).unwrap().count(), 0);
}

/// A `dts-trace` v1 document with the given kernel and task objects.
fn trace_json(kernel: &str, tasks: &[&str]) -> String {
    format!(
        r#"{{"format": "dts-trace", "version": 1, "kernel": "{kernel}", "rank": 0, "tasks": [{}]}}"#,
        tasks.join(", ")
    )
}

#[test]
fn trace_import_rejects_malformed_files_cleanly() {
    // Every door that reads a trace file — `dts run` and `dts request` —
    // rejects each malformed class with a typed error, never a panic.
    let scratch = ScratchDir::new("trace-import-malformed");
    let daemon = spawn_daemon();
    let task = |name: &str| {
        format!(
            r#"{{"name": "{name}", "kind": "Contraction", "comm_micros": 1, "comp_micros": 1, "mem_bytes": 1}}"#
        )
    };
    let cases: Vec<(&str, String)> = vec![
        (
            "unversioned",
            format!(r#"{{"kernel": "HF", "rank": 0, "tasks": [{}]}}"#, task("t")),
        ),
        (
            "future-version",
            trace_json("HF", &[&task("t")]).replace(r#""version": 1"#, r#""version": 99"#),
        ),
        (
            "float-time",
            trace_json(
                "HF",
                &[&task("t").replace(r#""comm_micros": 1"#, r#""comm_micros": 1.5"#)],
            ),
        ),
        (
            "negative-memory",
            trace_json(
                "HF",
                &[&task("t").replace(r#""mem_bytes": 1"#, r#""mem_bytes": -4"#)],
            ),
        ),
        ("duplicate-ids", trace_json("HF", &[&task("t"), &task("t")])),
        (
            "duplicate-name-and-unknown-key",
            trace_json(
                "HF",
                &[
                    &task("t"),
                    &task("t").replace(r#""kind""#, r#""colour": "red", "kind""#),
                ],
            ),
        ),
        ("empty-kernel", trace_json("", &[&task("t")])),
        ("empty-task-name", trace_json("HF", &[&task("")])),
        ("truncated", r#"{"format": "dts-trace", "ver"#.to_string()),
    ];
    for (label, json) in &cases {
        let path = scratch.path().join(format!("{label}.json"));
        std::fs::write(&path, json).unwrap();
        let path = path.to_str().unwrap();
        for (door, output) in [
            ("run", dts(&["run", path, "OS", "1.5"])),
            (
                "request",
                dts(&["request", &daemon.addr, path, "OS", "1.5"]),
            ),
        ] {
            assert_eq!(
                output.status.code(),
                Some(1),
                "{door} {label} should exit 1, got {:?}",
                output.status
            );
            let message = stderr(&output);
            assert!(
                message.contains("error:") && !message.contains("panicked"),
                "{door} {label}: unexpected diagnostic {message:?}"
            );
            if door == "request" {
                assert!(
                    message.contains("invalid-trace"),
                    "request {label}: untyped diagnostic {message:?}"
                );
            }
            if *label == "unversioned" {
                assert!(
                    message.contains("`format`") && message.contains("dts generate"),
                    "{door} unversioned: diagnostic does not say how to fix it: {message:?}"
                );
            }
        }
    }
}

/// The value of a `<label>  <n> us` line printed by `dts run` / `dts request`.
fn micros_line(stdout: &str, label: &str) -> u64 {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .and_then(|rest| rest.trim().strip_suffix(" us"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `{label}` line in {stdout:?}"))
}

#[test]
fn every_door_reports_the_same_schedule() {
    // One generated trace with a stamped model, solved three ways — in
    // memory, by `dts run` on the file and by `dts request` to a live
    // daemon — must report one makespan and one pair of idle times, both
    // under the stamped model and under a `--model` override.
    let scratch = ScratchDir::new("cross-door");
    let dir = scratch.path().to_str().unwrap();
    let output = dts(&[
        "generate",
        "md",
        dir,
        "1",
        "--tasks",
        "300",
        "--seed",
        "3",
        "--model",
        "streams:3",
    ]);
    assert!(output.status.success(), "generate: {}", stderr(&output));
    let path = scratch.path().join("md-rank000.json");
    let path = path.to_str().unwrap();
    let stamped = Trace::load(path).unwrap().to_instance_scaled(1.5).unwrap();
    assert_eq!(stamped.model(), ExecutionModel::Streams { k: 3 });
    let daemon = spawn_daemon();
    for name in ["OS", "MAMR", "OOLCMR"] {
        let heuristic = Heuristic::from_name(name).unwrap();
        for model in [None, Some("duplex")] {
            let instance = match model {
                Some(spec) => stamped
                    .clone()
                    .with_model(ExecutionModel::parse(spec).unwrap())
                    .unwrap(),
                None => stamped.clone(),
            };
            let schedule = run_heuristic(&instance, heuristic).unwrap();
            let metrics = ScheduleMetrics::of(&instance, &schedule);
            let expected = (
                metrics.makespan.ticks(),
                metrics.comm_idle.ticks(),
                metrics.comp_idle.ticks(),
            );
            let flags: Vec<&str> = model.map(|m| vec!["--model", m]).unwrap_or_default();
            let run = dts(&[&["run", path, name, "1.5"], flags.as_slice()].concat());
            let request = dts(&[
                &["request", &daemon.addr, path, name, "1.5"],
                flags.as_slice(),
            ]
            .concat());
            for (door, output) in [("dts run", run), ("dts request", request)] {
                assert!(output.status.success(), "{door}: {}", stderr(&output));
                let out = stdout(&output);
                let got = (
                    micros_line(&out, "makespan "),
                    micros_line(&out, "comm idle "),
                    micros_line(&out, "comp idle "),
                );
                assert_eq!(
                    got, expected,
                    "{door} {name} model {model:?}: (makespan, comm idle, comp idle) \
                     differ from the in-memory run"
                );
            }
        }
    }
}

#[test]
fn run_rejects_corrupted_trace_files_cleanly() {
    let scratch = ScratchDir::new("run-corrupted");
    let trace = generate_one_trace(scratch.path());
    let json = std::fs::read_to_string(&trace).unwrap();
    let corrupted = scratch.path().join("corrupted.json");
    std::fs::write(&corrupted, &json[..json.len() / 2]).unwrap();
    let output = dts(&["run", corrupted.to_str().unwrap(), "MAMR", "1.5"]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("error:") && !message.contains("panicked"),
        "unexpected diagnostic: {message:?}"
    );
}

#[test]
fn corpus_golden_workflow_blesses_verifies_and_catches_tampering() {
    let scratch = ScratchDir::new("corpus-golden");
    let golden = scratch.path().join("golden.json");
    let golden_str = golden.to_str().unwrap();
    // Without a golden file the suite fails and names the fix.
    let output = dts(&["corpus", "--golden", golden_str]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--update-golden"));
    // Blessing writes the file; a subsequent check is clean.
    let output = dts(&["corpus", "--update-golden", "--golden", golden_str]);
    assert!(output.status.success(), "bless: {}", stderr(&output));
    assert!(stdout(&output).contains("blessed"));
    let output = dts(&["corpus", "--golden", golden_str]);
    assert!(output.status.success(), "verify: {}", stderr(&output));
    assert!(stdout(&output).contains("corpus clean"));
    // Any tampering with a metric value fails the check and names the
    // sanctioned change path.
    let text = std::fs::read_to_string(&golden).unwrap();
    let tampered = text.replacen("\"makespan_us\": ", "\"makespan_us\": 1", 1);
    assert_ne!(text, tampered, "tamper had no effect");
    std::fs::write(&golden, tampered).unwrap();
    let output = dts(&["corpus", "--golden", golden_str]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("drift") && message.contains("--update-golden"),
        "unexpected diagnostic: {message:?}"
    );
    // Stray positional arguments are a usage error.
    let output = dts(&["corpus", "extra"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("unexpected argument"));
}

/// Generates one bandwidth-linear transfer-bound trace into `dir` and
/// returns the trace file's path. With `--bandwidth` the generator's
/// communication times are linear in bytes (±2% jitter), so a regression
/// calibration must recover the line almost exactly.
fn generate_bandwidth_trace(dir: &Path) -> PathBuf {
    let dir_str = dir.to_str().expect("scratch path is UTF-8");
    let output = dts(&[
        "generate",
        "transfer-bound",
        dir_str,
        "1",
        "--tasks",
        "200",
        "--seed",
        "13",
        "--bandwidth",
        "1000",
    ]);
    assert!(
        output.status.success(),
        "trace generation failed: {}",
        stderr(&output)
    );
    dir.join("transfer-bound-rank000.json")
}

#[test]
fn calibrate_fits_a_bandwidth_trace_within_tolerance() {
    let scratch = ScratchDir::new("calibrate-fit");
    let trace = generate_bandwidth_trace(scratch.path());
    let model = scratch.path().join("model.json");
    let output = dts(&[
        "calibrate",
        trace.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "calibrate: {}", stderr(&output));
    let report = stdout(&output);
    assert!(report.contains("backend            regression"), "{report}");
    // The residual report's transfer fit must recover the generator's
    // bandwidth line well within the 5% (500 bp) acceptance bound.
    let err_bp: u64 = report
        .lines()
        .find(|l| l.starts_with("transfer fit"))
        .and_then(|l| l.split("mean_rel_err_bp=").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("transfer fit line with mean_rel_err_bp")
        .parse()
        .expect("mean_rel_err_bp is an integer");
    assert!(err_bp < 500, "transfer fit off by {err_bp} bp: {report}");
    assert!(model.exists(), "calibrate --out wrote no model file");
}

#[test]
fn calibrate_is_deterministic_and_its_model_reloads() {
    let scratch = ScratchDir::new("calibrate-determinism");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let first = scratch.path().join("model1.json");
    let second = scratch.path().join("model2.json");
    for model in [&first, &second] {
        let output = dts(&["calibrate", trace, "--out", model.to_str().unwrap()]);
        assert!(output.status.success(), "calibrate: {}", stderr(&output));
    }
    // Same trace, same fit, byte-identical file — the round-trip
    // stability `dts request` relies on when hashing model specs.
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "calibrate is not deterministic"
    );
    let output = dts(&[
        "run",
        trace,
        "OOMAMR",
        "--cost-model",
        first.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "run: {}", stderr(&output));
    assert!(
        stdout(&output).contains("cost model         regression"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn run_under_a_fitted_cost_model_changes_the_schedule() {
    let scratch = ScratchDir::new("run-cost-model");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let model = scratch.path().join("model.json");
    let output = dts(&["calibrate", trace, "--out", model.to_str().unwrap()]);
    assert!(output.status.success(), "calibrate: {}", stderr(&output));

    let native = dts(&["run", trace, "DOCPS"]);
    assert!(native.status.success(), "native: {}", stderr(&native));
    let modeled = dts(&[
        "run",
        trace,
        "DOCPS",
        "--cost-model",
        model.to_str().unwrap(),
    ]);
    assert!(modeled.status.success(), "modeled: {}", stderr(&modeled));

    let line = |out: &Output, key: &str| -> String {
        stdout(out)
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(line(&native, "cost model"), "cost model         analytic");
    assert_eq!(
        line(&modeled, "cost model"),
        "cost model         regression"
    );
    // The ±2% calibration residue perturbs the materialized durations, so
    // the same heuristic reaches a different makespan — the model really
    // steers the schedule rather than being carried as metadata.
    assert_ne!(
        line(&native, "makespan"),
        line(&modeled, "makespan"),
        "the fitted model did not change the schedule"
    );
}

#[test]
fn run_accepts_the_analytic_cost_model_keyword() {
    let scratch = ScratchDir::new("run-analytic-keyword");
    let trace = generate_bandwidth_trace(scratch.path());
    let trace = trace.to_str().unwrap();
    let native = dts(&["run", trace, "OOMAMR"]);
    assert!(native.status.success(), "native: {}", stderr(&native));
    let forced = dts(&["run", trace, "OOMAMR", "--cost-model", "analytic"]);
    assert!(forced.status.success(), "forced: {}", stderr(&forced));
    // `analytic` is the normalization keyword: forcing it on a trace that
    // carries no model is the identity, down to the output bytes.
    assert_eq!(stdout(&native), stdout(&forced));
    assert!(stdout(&native).contains("cost model         analytic"));
}

#[test]
fn run_rejects_a_missing_cost_model_file() {
    let scratch = ScratchDir::new("run-missing-model");
    let trace = generate_one_trace(scratch.path());
    let output = dts(&[
        "run",
        trace.to_str().unwrap(),
        "OOMAMR",
        "--cost-model",
        "/no/such/model.json",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let message = stderr(&output);
    assert!(
        message.contains("/no/such/model.json"),
        "diagnostic does not name the file: {message:?}"
    );
}
