//! End-to-end test of `dts serve` + `dts request` through the real binary.
//!
//! Spawns the daemon on port 0, discovers the bound address from its
//! first stdout line, queries it with `dts request`, and checks both the
//! success path (cold solve, then cache hit) and a typed error path.

mod common;

use common::spawn_daemon;
use std::process::Command;

fn request(addr: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dts"))
        .args(["request", addr])
        .args(extra)
        .output()
        .expect("run dts request")
}

#[test]
fn serve_answers_requests_and_reports_cache_hits() {
    let daemon = spawn_daemon();

    let cold = request(
        &daemon.addr,
        &["md", "DOCPS", "1.5", "--tasks", "16", "--seed", "9"],
    );
    let cold_out = String::from_utf8_lossy(&cold.stdout).to_string();
    assert!(
        cold.status.success(),
        "cold request failed: {cold_out}\n{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(cold_out.contains("status             ok"), "{cold_out}");
    assert!(cold_out.contains("cached             false"), "{cold_out}");
    assert!(cold_out.contains("makespan"), "{cold_out}");

    let hot = request(
        &daemon.addr,
        &["md", "DOCPS", "1.5", "--tasks", "16", "--seed", "9"],
    );
    let hot_out = String::from_utf8_lossy(&hot.stdout).to_string();
    assert!(hot.status.success(), "hot request failed: {hot_out}");
    assert!(hot_out.contains("cached             true"), "{hot_out}");

    // Identical content digest and metrics on hit and cold solve.
    let line = |out: &str, key: &str| -> String {
        out.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(line(&cold_out, "digest"), line(&hot_out, "digest"));
    assert_eq!(line(&cold_out, "makespan"), line(&hot_out, "makespan"));
}

#[test]
fn request_surfaces_typed_daemon_errors() {
    let daemon = spawn_daemon();

    // An infeasible capacity factor is a daemon-side typed error.
    let out = request(&daemon.addr, &["md", "OS", "0.1", "--tasks", "8"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("infeasible"), "stderr: {stderr}");

    // An unknown heuristic is rejected client-side with the same message
    // shape as `dts run`.
    let out = request(&daemon.addr, &["md", "NOPE"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("unknown heuristic"), "stderr: {stderr}");
}

#[test]
fn request_reports_a_missing_trace_file_with_a_typed_code() {
    let daemon = spawn_daemon();

    // Regression: a nonexistent trace path used to surface as a bare IO
    // error with no error code; it now carries the same `invalid-trace`
    // code the daemon uses for unreadable trace payloads, plus the path.
    let out = request(&daemon.addr, &["/no/such/trace.json", "OS"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("invalid-trace") && stderr.contains("/no/such/trace.json"),
        "stderr: {stderr}"
    );
}
