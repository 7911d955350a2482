//! End-to-end tests of the daemon over real TCP sockets.
//!
//! Every test binds port 0, talks to the daemon through [`Client`], and
//! asserts the ISSUE contract: all failures are typed errors over the
//! wire (never a dropped connection, never a panic), repeated requests
//! are answered byte-identically from the cache, and the daemon sustains
//! 64 concurrent in-flight requests.

use dts_chem::{Trace, TraceTask};
use dts_core::doc::{self, At};
use dts_server::{Client, Server, ServerConfig, ServerHandle, SolveRequest, TraceSource};
use dts_workloads::{GeneratorConfig, WorkloadFamily};
use serde::Value;

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind server")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr()).expect("connect client")
}

fn family_request(seed: u64) -> SolveRequest {
    let mut config = GeneratorConfig::new(WorkloadFamily::from_name("md").unwrap());
    config.n_tasks = 12;
    config.seed = seed;
    dts_server::parse_request(&dts_server::protocol::request_to_value(&SolveRequest {
        source: TraceSource::Family { config, rank: 0 },
        heuristic: dts_heuristics::Heuristic::from_name("DOCPS").unwrap(),
        model: None,
        cost_model: None,
        factor: 1.5,
    }))
    .expect("valid request")
}

/// A reply envelope, read with the strict document reader: an `ok` reply
/// has exactly `status`, `cached`, `digest` and `result`, an error reply
/// exactly `status`, `code` and `message`.
enum Reply<'v> {
    Ok { digest: &'v str, result: &'v Value },
    Error { code: &'v str, message: &'v str },
}

fn reply(response: &Value) -> Reply<'_> {
    let at = At::Root("reply", |msg: String| msg);
    let read = || -> Result<Reply<'_>, String> {
        if matches!(response.field("status"), Ok(Value::Str(s)) if s == "ok") {
            let [_, cached, digest, result] =
                doc::keyed(response, &["status", "cached", "digest", "result"], at)?;
            doc::boolean(cached, "cached", at)?;
            doc::object(result, "result", at)?;
            return Ok(Reply::Ok {
                digest: doc::string(digest, "digest", at)?,
                result: result.unwrap_or(&Value::Null),
            });
        }
        let [status, code, message] = doc::keyed(response, &["status", "code", "message"], at)?;
        assert_eq!(doc::string(status, "status", at)?, "error");
        Ok(Reply::Error {
            code: doc::string(code, "code", at)?,
            message: doc::string(message, "message", at)?,
        })
    };
    read().unwrap_or_else(|e| panic!("malformed reply ({e}): {response:?}"))
}

fn status_of(response: &Value) -> &'static str {
    match reply(response) {
        Reply::Ok { .. } => "ok",
        Reply::Error { .. } => "error",
    }
}

fn message_of(response: &Value) -> &str {
    match reply(response) {
        Reply::Error { message, .. } => message,
        Reply::Ok { .. } => panic!("expected an error reply: {response:?}"),
    }
}

fn digest_of(response: &Value) -> &str {
    match reply(response) {
        Reply::Ok { digest, .. } => digest,
        Reply::Error { .. } => panic!("expected an ok reply: {response:?}"),
    }
}

/// A non-negative integer of an `ok` reply's `result`.
fn result_uint(response: &Value, key: &str) -> u64 {
    let Reply::Ok { result, .. } = reply(response) else {
        panic!("expected an ok reply: {response:?}");
    };
    let keys = [
        "heuristic",
        "model",
        "n_tasks",
        "makespan_us",
        "comm_idle_us",
        "comp_idle_us",
        "schedule",
    ];
    let at = At::Root("result", |msg: String| msg);
    let slots = doc::keyed(result, &keys, at).unwrap();
    let slot = keys.iter().position(|k| *k == key).expect("a result key");
    doc::uint(slots[slot], key, at).unwrap()
}

fn assert_error(response: &Value, code: &str) {
    let Reply::Error { code: got, message } = reply(response) else {
        panic!("expected error: {response:?}");
    };
    assert_eq!(got, code, "wrong code: {response:?}");
    assert!(!message.is_empty(), "error replies carry a message");
}

fn sample_trace(n: usize) -> Trace {
    Trace {
        kernel: "HF".to_string(),
        rank: 0,
        tasks: (0..n)
            .map(|i| TraceTask {
                name: format!("t{i}"),
                kind: dts_chem::trace::TaskKind::Contraction,
                comm_micros: 50 + (i as u64 * 13) % 90,
                comp_micros: 40 + (i as u64 * 7) % 60,
                mem_bytes: 1_000 + (i as u64 * 311) % 5_000,
            })
            .collect(),
        model: None,
        cost_model: None,
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    // Not JSON at all.
    let raw = client.send_text("this is not json {").unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "bad-frame");

    // Valid JSON, wrong schema.
    let raw = client.send_text("[1,2,3]").unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "bad-request");

    // The connection is still usable for a real request.
    let response = client.send_request(&family_request(1)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn oversized_payloads_are_shed_without_dropping_the_connection() {
    let handle = start(ServerConfig {
        max_frame_bytes: 256,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

    let huge = "x".repeat(100_000);
    let raw = client.send_text(&huge).unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "oversized-frame");

    // The oversized body was drained: the same connection still works.
    let response = client.send_request(&family_request(2)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn solve_failures_map_to_typed_codes() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let cases: Vec<(String, &str)> = vec![
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"NOPE"}"#.to_string(),
            "unknown-heuristic",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"OS","model":"warp"}"#
                .to_string(),
            "invalid-model",
        ),
        (
            r#"{"family":{"family":"no-such-family","n_tasks":4,"seed":1},"heuristic":"OS"}"#
                .to_string(),
            "bad-request",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"OS","factor":-2.0}"#
                .to_string(),
            "bad-request",
        ),
        (
            r#"{"family":{"family":"md","n_tasks":0,"seed":1},"heuristic":"OS"}"#.to_string(),
            "bad-request",
        ),
        (
            // Both sources at once.
            r#"{"trace":{"format":"dts-trace","version":1,"kernel":"HF","rank":0,"tasks":[]},"family":{"family":"md"},"heuristic":"OS"}"#
                .to_string(),
            "bad-request",
        ),
        (
            // Empty inline trace: rejected by the core layer.
            r#"{"trace":{"format":"dts-trace","version":1,"kernel":"HF","rank":0,"tasks":[]},"heuristic":"OS"}"#
                .to_string(),
            "invalid-trace",
        ),
        (
            // Unversioned inline trace: the daemon reads only dts-trace v1.
            r#"{"trace":{"kernel":"HF","rank":0,"tasks":[]},"heuristic":"OS"}"#.to_string(),
            "invalid-trace",
        ),
    ];
    for (payload, code) in cases {
        let raw = client.send_text(&payload).unwrap();
        let response = serde_json::from_str(&raw).unwrap();
        assert_error(&response, code);
    }

    // A misspelled key gets a typed reply naming it instead of an answer
    // at the default factor, and the same connection keeps serving.
    let raw = client
        .send_text(
            r#"{"family":{"family":"md","n_tasks":4,"seed":1},"heuristic":"OS","facotr":0.5}"#,
        )
        .unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "bad-request");
    let message = message_of(&response);
    assert!(message.contains("unknown key `facotr`"), "{message}");
    let response = client.send_request(&family_request(5)).unwrap();
    assert_eq!(status_of(&response), "ok");

    // Scaling the capacity below the largest task is detected as
    // infeasible at instance-build time.
    let mut infeasible = family_request(3);
    infeasible.factor = 0.25;
    let response = client.send_request(&infeasible).unwrap();
    assert_error(&response, "infeasible");
    handle.shutdown();
}

#[test]
fn inline_traces_with_a_duplicate_task_name_are_rejected_and_the_connection_survives() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    // The client sends what it is given; the daemon's strict reader is
    // the one that refuses it.
    let mut trace = sample_trace(4);
    trace.tasks[3].name = trace.tasks[1].name.clone();
    let response = client
        .send_request(&SolveRequest {
            source: TraceSource::Inline(trace),
            heuristic: dts_heuristics::Heuristic::from_name("OS").unwrap(),
            model: None,
            cost_model: None,
            factor: 1.5,
        })
        .unwrap();
    assert_error(&response, "invalid-trace");
    let message = message_of(&response);
    assert!(message.contains("duplicate task name `t1`"), "{message}");

    // The same connection keeps serving.
    let response = client.send_request(&family_request(4)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn task_ceiling_is_enforced_before_solving() {
    let handle = start(ServerConfig {
        max_tasks: 8,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

    // A family request over the ceiling (the trace is never generated).
    let raw = client
        .send_text(r#"{"family":{"family":"md","n_tasks":9,"seed":1},"heuristic":"OS"}"#)
        .unwrap();
    let response = serde_json::from_str(&raw).unwrap();
    assert_error(&response, "task-ceiling");

    // An inline trace over the ceiling.
    let request = SolveRequest {
        source: TraceSource::Inline(sample_trace(9)),
        heuristic: dts_heuristics::Heuristic::from_name("OS").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let response = client.send_request(&request).unwrap();
    assert_error(&response, "task-ceiling");

    // At the ceiling is fine.
    let request = SolveRequest {
        source: TraceSource::Inline(sample_trace(8)),
        heuristic: dts_heuristics::Heuristic::from_name("OS").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let response = client.send_request(&request).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
}

#[test]
fn zero_depth_queue_sheds_every_request_with_queue_full() {
    let handle = start(ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let response = client.send_request(&family_request(4)).unwrap();
    assert_error(&response, "queue-full");
    handle.shutdown();
}

#[test]
fn cache_hits_return_byte_identical_responses_without_resolving() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let request = family_request(5);
    let payload = serde_json::to_string(&dts_server::protocol::request_to_value(&request)).unwrap();

    let cold = client.send_text(&payload).unwrap();
    let hot = client.send_text(&payload).unwrap();
    assert!(cold.contains("\"cached\":false"), "first solve is cold");
    assert!(hot.contains("\"cached\":true"), "second is a cache hit");
    assert_eq!(
        hot.replace("\"cached\":true", "\"cached\":false"),
        cold,
        "hit responses are byte-identical to the cold solve"
    );

    let stats = handle.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "exactly one solve");

    // The solved result is structurally sane.
    let response: Value = serde_json::from_str(&cold).unwrap();
    assert_eq!(result_uint(&response, "n_tasks"), 12);
    assert!(result_uint(&response, "makespan_us") > 0);
    handle.shutdown();
}

#[test]
fn inline_and_family_requests_of_the_same_instance_have_distinct_digests() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let inline = SolveRequest {
        source: TraceSource::Inline(sample_trace(6)),
        heuristic: dts_heuristics::Heuristic::from_name("GG").unwrap(),
        model: None,
        cost_model: None,
        factor: 2.0,
    };
    let mut other_factor = inline.clone();
    other_factor.factor = 3.0;

    let a = client.send_request(&inline).unwrap();
    let b = client.send_request(&other_factor).unwrap();
    assert_eq!(status_of(&a), "ok");
    assert_eq!(status_of(&b), "ok");
    assert_ne!(
        digest_of(&a),
        digest_of(&b),
        "factor is part of the cache key"
    );
    handle.shutdown();
}

#[test]
fn sixty_four_concurrent_in_flight_requests_are_sustained() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let shared_payload =
        serde_json::to_string(&dts_server::protocol::request_to_value(&family_request(7))).unwrap();

    let mut joins = Vec::new();
    for i in 0..64u64 {
        let shared_payload = shared_payload.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            // One request shared by every thread...
            let shared = client.send_text(&shared_payload).expect("shared request");
            // ...and one distinct per thread.
            let distinct = client
                .send_request(&family_request(1_000 + i))
                .expect("distinct request");
            (shared, distinct)
        }));
    }
    let outcomes: Vec<(String, Value)> = joins
        .into_iter()
        .map(|j| j.join().expect("worker thread"))
        .collect();

    let mut cold = 0;
    for (shared_raw, distinct) in &outcomes {
        let shared = serde_json::from_str(shared_raw).unwrap();
        assert_eq!(status_of(&shared), "ok", "shared request: {shared_raw}");
        assert_eq!(status_of(distinct), "ok", "distinct request");
        if shared_raw.contains("\"cached\":false") {
            cold += 1;
        }
    }
    assert_eq!(cold, 1, "the shared instance solved exactly once");

    // Every hit served the cold solve's bytes.
    let reference = &outcomes[0].0.replace("\"cached\":true", "\"cached\":false");
    for (shared_raw, _) in &outcomes {
        assert_eq!(
            &shared_raw.replace("\"cached\":true", "\"cached\":false"),
            reference
        );
    }

    let stats = handle.cache_stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (65, 63),
        "64 distinct solves + 1 shared solve; 63 waiters hit"
    );
    handle.shutdown();
}

#[test]
fn shutdown_answers_admitted_requests_before_stopping() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    let response = client.send_request(&family_request(8)).unwrap();
    assert_eq!(status_of(&response), "ok");
    handle.shutdown();
    // A second shutdown via drop is a no-op (the handle is gone), and the
    // port is released: binding it again succeeds.
}
