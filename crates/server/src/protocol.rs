//! Wire protocol of the scheduling daemon.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The framing layer enforces a payload ceiling so a hostile or buggy
//! client cannot make the daemon buffer an unbounded body; an oversized
//! frame is *drained* from the socket (bounded, chunked reads into a
//! throwaway buffer) and answered with a typed error, leaving the
//! connection usable for the next frame.
//!
//! A request selects the instance either **inline** (a full `dts-trace` v1
//! document under `"trace"`, read by the same strict
//! [`Trace::from_value`] as trace files, so a malformed inline trace gets
//! an `invalid-trace` reply) or **by corpus family** (a generator spec
//! under `"family"`), plus the heuristic to run and optional
//! execution-model, cost-model and capacity-factor overrides:
//!
//! ```json
//! {"family": {"family": "dense-la", "n_tasks": 64, "seed": 7, "rank": 0},
//!  "heuristic": "DOCPS", "model": "streams:2", "factor": 1.5}
//! ```
//!
//! The optional `"cost_model"` field carries either a full inline
//! dts-cost-model object or the `analytic` keyword (any case, as in
//! traces); it overrides
//! whatever cost model the trace embeds (with `"analytic"` forcing the
//! trace's native durations) and is part of the cache key.
//!
//! Requests are strict: they are read by the shared document reader of
//! [`dts_core::doc`], so an unknown or repeated key, at the top level or
//! in the family spec, is a `bad-request` reply naming the key, never a
//! request answered with defaults.
//!
//! Responses are either `{"status":"ok", "cached":…, "digest":…,
//! "result":…}` or `{"status":"error", "code":…, "message":…}`. Every
//! failure the daemon can detect maps to a stable machine-readable
//! [`ErrorCode`]; connections are never dropped in lieu of an error
//! reply.

use dts_chem::Trace;
use dts_core::doc::{self, At};
use dts_core::error::CoreError;
use dts_core::hash::{Digest128, StableHasher};
use dts_core::perfmodel::{self, CostModelSpec};
use dts_core::ExecutionModel;
use dts_heuristics::Heuristic;
use dts_workloads::{GeneratorConfig, WorkloadFamily};
use serde::{Serialize, Value};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame header size: a `u32` payload length in network byte order.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Stable machine-readable failure classes of the wire protocol.
///
/// The string form (see [`ErrorCode::as_str`]) is part of the protocol:
/// clients dispatch on it, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload was not a JSON object of the request shape.
    BadFrame,
    /// The frame length exceeded the server's payload ceiling.
    OversizedFrame,
    /// The request parsed as JSON but violated the schema (missing or
    /// conflicting fields, unknown family, non-finite factor, …).
    BadRequest,
    /// The `heuristic` name is not one of [`Heuristic::ALL`].
    UnknownHeuristic,
    /// The `model` string did not parse as an execution model.
    InvalidModel,
    /// The trace (inline or generated) was rejected by the core layer.
    InvalidTrace,
    /// The request names more tasks than the admission ceiling allows.
    TaskCeiling,
    /// The pending-request queue is full; retry later (load shed).
    QueueFull,
    /// The instance cannot be scheduled (e.g. a task exceeds capacity).
    Infeasible,
    /// Any other server-side failure.
    Internal,
    /// The `cost_model` spec was rejected by the dts-cost-model importer.
    InvalidCostModel,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownHeuristic => "unknown-heuristic",
            ErrorCode::InvalidModel => "invalid-model",
            ErrorCode::InvalidTrace => "invalid-trace",
            ErrorCode::TaskCeiling => "task-ceiling",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::Internal => "internal",
            ErrorCode::InvalidCostModel => "invalid-cost-model",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed error reply: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail (not part of the stable protocol).
    pub message: String,
}

impl ErrorReply {
    /// Builds a reply from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorReply {
            code,
            message: message.into(),
        }
    }

    /// Classifies a core-layer error into a wire code.
    pub fn from_core(err: &CoreError) -> Self {
        let code = match err {
            CoreError::EmptyInstance | CoreError::InvalidTrace(_) => ErrorCode::InvalidTrace,
            CoreError::InvalidCapacityFactor(_) => ErrorCode::BadRequest,
            CoreError::InvalidExecutionModel(_) => ErrorCode::InvalidModel,
            CoreError::InvalidCostModel(_) => ErrorCode::InvalidCostModel,
            CoreError::TaskExceedsCapacity { .. } | CoreError::Infeasible(_) => {
                ErrorCode::Infeasible
            }
            _ => ErrorCode::Internal,
        };
        ErrorReply::new(code, err.to_string())
    }

    /// Renders the reply as a response JSON payload.
    pub fn to_json(&self) -> String {
        let value = Value::Object(vec![
            ("status".to_string(), Value::Str("error".to_string())),
            (
                "code".to_string(),
                Value::Str(self.code.as_str().to_string()),
            ),
            ("message".to_string(), Value::Str(self.message.clone())),
        ]);
        render(&value)
    }
}

/// Renders an ok response around an already-rendered `result` payload.
///
/// The `result` string is spliced in verbatim, so a cache hit serves the
/// *exact bytes* of the cold solve — byte identity is structural, not a
/// property re-derived per request.
pub fn ok_response_json(result_json: &str, cached: bool, digest: Digest128) -> String {
    format!("{{\"status\":\"ok\",\"cached\":{cached},\"digest\":\"{digest}\",\"result\":{result_json}}}")
}

fn render(value: &Value) -> String {
    // The vendored renderer only fails on non-finite floats; protocol
    // values are strings, bools and integers, so this cannot trigger.
    serde_json::to_string(value).unwrap_or_else(|_| {
        "{\"status\":\"error\",\"code\":\"internal\",\"message\":\"render failure\"}".to_string()
    })
}

/// Where the instance of a request comes from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A full trace shipped in the request body.
    Inline(Trace),
    /// A deterministic corpus generator spec (family, size, seed, rank).
    Family {
        /// Generator configuration.
        config: GeneratorConfig,
        /// Process rank fed to the generator.
        rank: usize,
    },
}

/// A parsed, schema-valid scheduling request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Instance source: inline trace or generator spec.
    pub source: TraceSource,
    /// Heuristic to run.
    pub heuristic: Heuristic,
    /// Execution-model override; `None` follows the trace/instance default.
    pub model: Option<ExecutionModel>,
    /// Cost-model override; `None` follows whatever the trace embeds,
    /// `Some(Analytic)` forces the trace's native durations.
    pub cost_model: Option<CostModelSpec>,
    /// Memory-capacity factor (multiplies the minimum feasible capacity).
    pub factor: f64,
}

impl SolveRequest {
    /// Number of tasks the request names, for admission control. This is
    /// known *before* any generation or solving happens, so the ceiling
    /// check is O(1).
    pub fn task_count(&self) -> usize {
        match &self.source {
            TraceSource::Inline(trace) => trace.len(),
            TraceSource::Family { config, .. } => config.n_tasks,
        }
    }

    /// Content digest of the request: the cache key.
    ///
    /// Two requests get the same digest iff they name the same instance
    /// bytes, factor, heuristic and model — the exact inputs the solve
    /// depends on. Inline traces hash their canonical `dts-trace`
    /// rendering; family specs hash their parameters rather than the
    /// generated trace, so a cache hit skips generation too.
    pub fn digest(&self) -> Digest128 {
        let mut h = StableHasher::new();
        match &self.source {
            TraceSource::Inline(trace) => {
                h.write_str("trace");
                h.write_str(&render(&trace.to_value()));
            }
            TraceSource::Family { config, rank } => {
                h.write_str("family");
                h.write_str(config.family.name());
                h.write_u64(config.n_tasks as u64);
                h.write_u64(config.seed);
                match config.skew {
                    Some(s) => {
                        h.write_str("skew");
                        h.write_u64(s.to_bits());
                    }
                    None => h.write_str("no-skew"),
                }
                h.write_u64(*rank as u64);
            }
        }
        h.write_u64(self.factor.to_bits());
        h.write_str(self.heuristic.name());
        match self.model {
            Some(m) => h.write_str(&m.to_string()),
            None => h.write_str("-"),
        }
        match &self.cost_model {
            // Hash the canonical JSON rendering: two specs collide iff
            // they would materialize identical durations from the same
            // trace, which is exactly when sharing a cache entry is sound.
            Some(spec) => h.write_str(&render(&spec.to_value())),
            None => h.write_str("-"),
        }
        h.finish()
    }
}

/// The root of a request in reader messages: every shape violation in a
/// request or its family spec is a `bad-request`.
const REQUEST: At<'static, ErrorReply> = At::Root("request", bad_request);
const REQUEST_KEYS: [&str; 6] = [
    "trace",
    "family",
    "heuristic",
    "model",
    "cost_model",
    "factor",
];

fn bad_request(message: String) -> ErrorReply {
    ErrorReply::new(ErrorCode::BadRequest, message)
}

/// Syntax errors in a payload are bad frames.
impl From<serde_json::Error> for ErrorReply {
    fn from(err: serde_json::Error) -> Self {
        ErrorReply::new(
            ErrorCode::BadFrame,
            format!("payload is not valid JSON: {err}"),
        )
    }
}

/// Parses a request payload (already JSON-decoded) into a [`SolveRequest`].
///
/// # Errors
///
/// A typed [`ErrorReply`] for every schema violation: the caller sends it
/// on the wire instead of solving. An unknown or repeated key, in the
/// request or in its family spec, is a `bad-request` naming the key.
pub fn parse_request(value: &Value) -> Result<SolveRequest, ErrorReply> {
    let [trace, family, heuristic, model, cost_model, factor] =
        doc::keyed(value, &REQUEST_KEYS, REQUEST)?;
    let heuristic_name = doc::string(heuristic, "heuristic", REQUEST)?;
    let heuristic = Heuristic::from_name(heuristic_name).ok_or_else(|| {
        ErrorReply::new(
            ErrorCode::UnknownHeuristic,
            format!("unknown heuristic '{heuristic_name}'"),
        )
    })?;
    let model = match model {
        Some(_) => Some(
            ExecutionModel::parse(doc::string(model, "model", REQUEST)?)
                .map_err(|e| ErrorReply::from_core(&e))?,
        ),
        None => None,
    };
    let cost_model = cost_model
        .map(perfmodel::spec_from_value)
        .transpose()
        .map_err(|e| ErrorReply::from_core(&e))?;
    let factor = match factor {
        Some(_) => doc::number(factor, "factor", REQUEST)?,
        None => 1.0,
    };
    if !factor.is_finite() || factor < 0.0 {
        return Err(bad_request(format!(
            "capacity factor must be finite and non-negative, got {factor}"
        )));
    }
    let source = match (trace, family) {
        (Some(_), Some(_)) => {
            return Err(bad_request(
                "request must name exactly one of 'trace' or 'family', not both".to_string(),
            ))
        }
        (None, None) => {
            return Err(bad_request(
                "request must name exactly one of 'trace' or 'family'".to_string(),
            ))
        }
        (Some(trace), None) => TraceSource::Inline(
            Trace::from_value(trace)
                .map_err(|e| ErrorReply::new(ErrorCode::InvalidTrace, e.to_string()))?,
        ),
        (None, Some(spec)) => family_source(spec)?,
    };

    Ok(SolveRequest {
        source,
        heuristic,
        model,
        cost_model,
        factor,
    })
}

/// Reads the generator spec under a request's `family` key.
fn family_source(spec: &Value) -> Result<TraceSource, ErrorReply> {
    let at = REQUEST.key("family");
    let [family, n_tasks, seed, skew, rank] =
        doc::keyed(spec, &["family", "n_tasks", "seed", "skew", "rank"], at)?;
    let name = doc::string(family, "family", at)?;
    let family = WorkloadFamily::from_name(name)
        .ok_or_else(|| bad_request(format!("unknown workload family '{name}'")))?;
    let mut config = GeneratorConfig::new(family);
    if n_tasks.is_some() {
        config.n_tasks = doc::size(n_tasks, "n_tasks", at)?;
    }
    if seed.is_some() {
        config.seed = doc::uint(seed, "seed", at)?;
    }
    if skew.is_some() {
        config.skew = Some(doc::number(skew, "skew", at)?);
    }
    let rank = match rank {
        Some(_) => doc::size(rank, "rank", at)?,
        None => 0,
    };
    config
        .validate()
        .map_err(|e| bad_request(format!("invalid family spec: {e}")))?;
    Ok(TraceSource::Family { config, rank })
}

/// Outcome of reading one frame.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly before a new header.
    Eof,
    /// The announced length exceeded the ceiling; the body was drained
    /// and the connection is positioned at the next frame.
    Oversized(u64),
}

/// Reads one length-prefixed frame, enforcing `max_payload` bytes.
///
/// An announced length over the ceiling is consumed (in bounded chunks,
/// so memory stays O(chunk)) and reported as [`FrameRead::Oversized`] —
/// the caller can answer with a typed error and keep the connection.
///
/// # Errors
///
/// Propagates transport errors, including a connection cut mid-frame
/// (`UnexpectedEof`).
pub fn read_frame(reader: &mut impl Read, max_payload: usize) -> io::Result<FrameRead> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match reader.read(&mut header)? {
        0 => return Ok(FrameRead::Eof),
        n => reader.read_exact(&mut header[n..])?,
    }
    let len = u64::from(u32::from_be_bytes(header));
    if len > max_payload as u64 {
        let mut sink = io::sink();
        io::copy(&mut reader.take(len), &mut sink)?;
        return Ok(FrameRead::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(FrameRead::Payload(payload))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport errors; payloads over `u32::MAX` bytes are
/// rejected as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    // One coalesced write per frame: splitting the 4-byte header and the
    // payload into separate segments makes Nagle hold the payload until
    // the peer's delayed ACK (~40 ms per frame on loopback).
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Serializes a request back to its canonical JSON (used by the client
/// and the load generator; the server only parses).
pub fn request_to_value(req: &SolveRequest) -> Value {
    let mut fields = Vec::new();
    match &req.source {
        TraceSource::Inline(trace) => fields.push(("trace".to_string(), trace.to_value())),
        TraceSource::Family { config, rank } => {
            let mut spec = vec![
                (
                    "family".to_string(),
                    Value::Str(config.family.name().to_string()),
                ),
                ("n_tasks".to_string(), Value::UInt(config.n_tasks as u64)),
                ("seed".to_string(), Value::UInt(config.seed)),
            ];
            if let Some(skew) = config.skew {
                spec.push(("skew".to_string(), Value::Float(skew)));
            }
            spec.push(("rank".to_string(), Value::UInt(*rank as u64)));
            fields.push(("family".to_string(), Value::Object(spec)));
        }
    }
    fields.push((
        "heuristic".to_string(),
        Value::Str(req.heuristic.name().to_string()),
    ));
    if let Some(model) = req.model {
        fields.push(("model".to_string(), Value::Str(model.to_string())));
    }
    if let Some(cost_model) = &req.cost_model {
        fields.push(("cost_model".to_string(), cost_model.to_value()));
    }
    fields.push(("factor".to_string(), Value::Float(req.factor)));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::perfmodel::{ComputeBackend, LinearFit, LinkClass, RegressionModel};

    fn sample_cost_model() -> CostModelSpec {
        let fit = |alpha_us| LinearFit {
            alpha_us,
            beta_ps_per_byte: 2_000_000,
            samples: 4,
        };
        CostModelSpec::Regression(
            RegressionModel::new(
                vec![(LinkClass::HostToDevice, fit(10))],
                vec![(ComputeBackend::Cpu, fit(5))],
            )
            .unwrap(),
        )
    }

    fn family_request_value() -> Value {
        let spec = Value::Object(vec![
            ("family".to_string(), Value::Str("md".to_string())),
            ("n_tasks".to_string(), Value::UInt(8)),
            ("seed".to_string(), Value::UInt(3)),
        ]);
        Value::Object(vec![
            ("family".to_string(), spec),
            ("heuristic".to_string(), Value::Str("OS".to_string())),
        ])
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, b"{\"a\":1}"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor, 1 << 20).unwrap() {
            FrameRead::Payload(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_frames_are_drained_not_buffered() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x5a; 256]).unwrap();
        write_frame(&mut buf, b"next").unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, 16).unwrap() {
            FrameRead::Oversized(len) => assert_eq!(len, 256),
            other => panic!("unexpected {other:?}"),
        }
        // The stream is positioned at the next frame.
        match read_frame(&mut cursor, 16).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, b"next"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_a_transport_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn parse_accepts_family_requests_and_defaults() {
        let req = parse_request(&family_request_value()).unwrap();
        assert_eq!(req.heuristic.name(), "OS");
        assert_eq!(req.task_count(), 8);
        assert!(req.model.is_none());
        assert_eq!(req.factor, 1.0);
    }

    #[test]
    fn parse_rejects_schema_violations_with_typed_codes() {
        let cases: Vec<(Value, ErrorCode)> = vec![
            (Value::Object(vec![]), ErrorCode::BadRequest),
            (
                Value::Object(vec![(
                    "heuristic".to_string(),
                    Value::Str("NOPE".to_string()),
                )]),
                ErrorCode::UnknownHeuristic,
            ),
            (
                {
                    let mut v = family_request_value();
                    if let Value::Object(fields) = &mut v {
                        fields.push(("model".to_string(), Value::Str("warp-drive".to_string())));
                    }
                    v
                },
                ErrorCode::InvalidModel,
            ),
            (
                {
                    let mut v = family_request_value();
                    if let Value::Object(fields) = &mut v {
                        fields.push(("factor".to_string(), Value::Float(-1.0)));
                    }
                    v
                },
                ErrorCode::BadRequest,
            ),
            (
                Value::Object(vec![
                    ("heuristic".to_string(), Value::Str("OS".to_string())),
                    ("trace".to_string(), Value::Null),
                ]),
                ErrorCode::InvalidTrace,
            ),
        ];
        for (value, expected) in cases {
            let err = parse_request(&value).unwrap_err();
            assert_eq!(err.code, expected, "for {value:?}: {}", err.message);
        }

        // Misspelled and repeated keys, at the top level and in the
        // family spec, are bad requests naming the key; none of them is
        // answered with a default.
        let with_field = |key: &str, item: Value| {
            let mut v = family_request_value();
            if let Value::Object(fields) = &mut v {
                fields.push((key.to_string(), item));
            }
            v
        };
        let mut misnamed_spec = family_request_value();
        if let Value::Object(fields) = &mut misnamed_spec {
            if let Value::Object(spec) = &mut fields[0].1 {
                spec.push(("n_task".to_string(), Value::UInt(5000)));
            }
        }
        let strict: Vec<(Value, &str)> = vec![
            (with_field("facotr", Value::Float(0.5)), "`facotr`"),
            (
                with_field("heuristic", Value::Str("GG".to_string())),
                "repeats key `heuristic`",
            ),
            (misnamed_spec, "family has unknown key `n_task`"),
        ];
        for (value, needle) in strict {
            let err = parse_request(&value).unwrap_err();
            assert_eq!(
                err.code,
                ErrorCode::BadRequest,
                "for {value:?}: {}",
                err.message
            );
            assert!(
                err.message.contains(needle),
                "`{}` lacks {needle}",
                err.message
            );
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_every_input() {
        let base = parse_request(&family_request_value()).unwrap();
        let d0 = base.digest();
        assert_eq!(d0, base.digest(), "digest is deterministic");

        let mut other = base.clone();
        other.factor = 2.0;
        assert_ne!(d0, other.digest(), "factor changes the key");

        let mut other = base.clone();
        other.heuristic = Heuristic::from_name("GG").unwrap();
        assert_ne!(d0, other.digest(), "heuristic changes the key");

        let mut other = base.clone();
        other.model = Some(ExecutionModel::Duplex);
        assert_ne!(d0, other.digest(), "model changes the key");

        let mut other = base.clone();
        other.cost_model = Some(sample_cost_model());
        assert_ne!(d0, other.digest(), "cost model changes the key");

        let mut analytic = base.clone();
        analytic.cost_model = Some(CostModelSpec::Analytic);
        assert_ne!(
            other.digest(),
            analytic.digest(),
            "an analytic override keys differently from a fitted one"
        );

        let mut other = base.clone();
        if let TraceSource::Family { config, .. } = &mut other.source {
            config.seed += 1;
        }
        assert_ne!(d0, other.digest(), "seed changes the key");
    }

    #[test]
    fn request_value_round_trips_through_parse() {
        let mut req = parse_request(&family_request_value()).unwrap();
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());

        // With both override kinds set, including the analytic keyword.
        req.model = Some(ExecutionModel::Duplex);
        req.cost_model = Some(sample_cost_model());
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());

        req.cost_model = Some(CostModelSpec::Analytic);
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());
        assert_eq!(round.cost_model, Some(CostModelSpec::Analytic));

        // Every key the writer emits is one the strict reader allows,
        // the optional family `skew` and `rank` included.
        let mut config = GeneratorConfig::new(WorkloadFamily::from_name("dense-la").unwrap());
        config.skew = Some(1.25);
        req.source = TraceSource::Family { config, rank: 2 };
        let round = parse_request(&request_to_value(&req)).unwrap();
        assert_eq!(req.digest(), round.digest());
    }

    #[test]
    fn parse_rejects_bad_cost_models_with_a_typed_code() {
        let mut v = family_request_value();
        if let Value::Object(fields) = &mut v {
            fields.push((
                "cost_model".to_string(),
                Value::Str("warp-drive".to_string()),
            ));
        }
        let err = parse_request(&v).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidCostModel);
        assert!(err.message.contains("warp-drive"), "{}", err.message);
    }

    #[test]
    fn error_replies_render_typed_json() {
        let reply = ErrorReply::new(ErrorCode::QueueFull, "busy");
        let json = reply.to_json();
        let value: Value = serde_json::from_str(&json).unwrap();
        let at = At::Root("reply", |msg: String| msg);
        let [status, code, message] =
            doc::keyed(&value, &["status", "code", "message"], at).unwrap();
        assert_eq!(doc::string(status, "status", at), Ok("error"));
        assert_eq!(doc::string(code, "code", at), Ok("queue-full"));
        assert_eq!(doc::string(message, "message", at), Ok("busy"));
    }
}
