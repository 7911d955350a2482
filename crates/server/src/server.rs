//! The scheduling daemon: accept loop, admission control, batched solving.
//!
//! # Threading model
//!
//! * One **acceptor** thread owns the listening socket and spawns a
//!   connection thread per client.
//! * Each **connection** thread runs the frame loop: read a frame, parse
//!   and admit the request, enqueue a job, block on the job's reply
//!   channel, write the response frame. Protocol failures become typed
//!   error frames on the same connection — a client connection is never
//!   dropped in lieu of an error reply.
//! * One **scheduler** thread drains the job queue in batches of at most
//!   [`ServerConfig::batch_max`] and runs each batch through
//!   [`dts_core::pool::run_indexed_pool`], so concurrent requests share
//!   the solver thread pool instead of oversubscribing the machine with
//!   one solver thread per connection.
//!
//! # Admission control
//!
//! Three bounds keep memory use proportional to configuration, not to
//! offered load:
//!
//! * frames above [`ServerConfig::max_frame_bytes`] are drained and
//!   refused (`oversized-frame`) without buffering the payload;
//! * requests naming more than [`ServerConfig::max_tasks`] tasks are
//!   refused (`task-ceiling`) before any generation or solving;
//! * when [`ServerConfig::queue_depth`] jobs are already pending the
//!   request is shed immediately (`queue-full`) instead of queueing —
//!   the client can retry, and latency of admitted requests stays
//!   bounded.
//!
//! # Instance cache
//!
//! Admitted requests are answered through a [`SolveCache`] keyed by the
//! request content digest ([`SolveRequest::digest`]). The cached value is
//! the *rendered* result JSON, so a repeat request returns the exact
//! bytes of the original solve, and concurrent identical requests solve
//! exactly once (the cache's cell lock serializes them; see
//! `dts_core::cache`).

use crate::protocol::{
    ok_response_json, parse_request, read_frame, write_frame, ErrorCode, ErrorReply, FrameRead,
    SolveRequest, TraceSource,
};
use dts_core::cache::{CacheStats, SolveCache};
use dts_core::doc;
use dts_core::error::Result as CoreResult;
use dts_core::hash::Digest128;
use dts_core::metrics::ScheduleMetrics;
use dts_core::pool::run_indexed_pool;
use dts_heuristics::run_heuristic_with;
use dts_workloads::generate_trace;
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Tunables of a [`Server`]. `Default` is sized for tests and small
/// deployments; the CLI exposes the load-bearing knobs as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is
    /// available from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Solver threads per batch; 0 means the machine's available
    /// parallelism.
    pub threads: usize,
    /// Pending-job ceiling; requests beyond it are shed (`queue-full`).
    pub queue_depth: usize,
    /// Per-request task-count ceiling (`task-ceiling` beyond it).
    pub max_tasks: usize,
    /// Frame payload ceiling in bytes (`oversized-frame` beyond it).
    pub max_frame_bytes: usize,
    /// Entry bound of the solved-instance cache (LRU eviction).
    pub cache_entries: usize,
    /// Largest batch the scheduler hands to the solver pool at once.
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 256,
            max_tasks: 65_536,
            max_frame_bytes: 4 << 20,
            cache_entries: 512,
            batch_max: 64,
        }
    }
}

/// One admitted request waiting for the scheduler.
struct Job {
    request: SolveRequest,
    digest: Digest128,
    reply: mpsc::Sender<String>,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    cache: SolveCache<Digest128, Arc<str>>,
}

/// Recovers the guard from a poisoned std mutex: a solver panic must not
/// wedge the daemon, and every protected structure here is valid after
/// any partial update (queues of owned jobs, plain counters).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon entry point. See the module docs for the threading model.
pub struct Server;

impl Server {
    /// Binds the listener and starts the acceptor and scheduler threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let cache = SolveCache::new(config.cache_entries);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache,
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            scheduler: Some(scheduler),
        })
    }
}

/// A running daemon. Dropping the handle shuts the daemon down (pending
/// jobs are drained first; connection threads exit on their next read).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the solved-instance cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Stops the acceptor and scheduler and waits for them to exit.
    /// Already-admitted jobs are answered before the scheduler stops.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.work_ready.notify_all();
        // Unblock the acceptor: `incoming()` has no timeout, so poke it
        // with a throwaway connection that it drops on the shutdown check.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(stream) = stream {
            // Same rationale as the client side: request/response frames
            // are small, and Nagle turns each reply into a delayed-ACK
            // stall.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(shared);
            std::thread::spawn(move || connection_loop(&shared, stream));
        }
    }
}

fn connection_loop(shared: &Shared, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let response = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(FrameRead::Payload(payload)) => handle_payload(shared, &payload),
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Oversized(len)) => ErrorReply::new(
                ErrorCode::OversizedFrame,
                format!(
                    "frame of {len} bytes exceeds the {}-byte ceiling",
                    shared.config.max_frame_bytes
                ),
            )
            .to_json(),
            // Transport failure mid-frame: the socket is gone or out of
            // sync; there is no well-formed peer left to answer.
            Err(_) => return,
        };
        if write_frame(&mut writer, response.as_bytes()).is_err() {
            return;
        }
    }
}

/// Parses, admits and executes one request payload, always producing a
/// response payload (typed errors included).
fn handle_payload(shared: &Shared, payload: &[u8]) -> String {
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(e) => {
            return ErrorReply::new(ErrorCode::BadFrame, format!("payload is not UTF-8: {e}"))
                .to_json()
        }
    };
    let request = match doc::parse(text, parse_request) {
        Ok(request) => request,
        Err(reply) => return reply.to_json(),
    };
    if request.task_count() > shared.config.max_tasks {
        return ErrorReply::new(
            ErrorCode::TaskCeiling,
            format!(
                "request names {} tasks, per-request ceiling is {}",
                request.task_count(),
                shared.config.max_tasks
            ),
        )
        .to_json();
    }
    let digest = request.digest();
    let (reply, response) = mpsc::channel();
    {
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.config.queue_depth {
            return ErrorReply::new(
                ErrorCode::QueueFull,
                format!(
                    "{} requests pending, queue depth is {}; retry later",
                    queue.len(),
                    shared.config.queue_depth
                ),
            )
            .to_json();
        }
        queue.push_back(Job {
            request,
            digest,
            reply,
        });
        shared.work_ready.notify_one();
    }
    match response.recv() {
        Ok(response) => response,
        Err(_) => ErrorReply::new(ErrorCode::Internal, "scheduler dropped the request").to_json(),
    }
}

fn scheduler_loop(shared: &Arc<Shared>) {
    let threads = if shared.config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        shared.config.threads
    };
    loop {
        let batch: Vec<Job> = {
            let mut queue = lock(&shared.queue);
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let take = queue.len().min(shared.config.batch_max.max(1));
            queue.drain(..take).collect()
        };
        // Each pool job resolves to a response string — solve failures are
        // typed error payloads, never pool errors — so the `Err` arm only
        // fires if a solver panicked; those clients get `internal`.
        let results = run_indexed_pool(batch.len(), threads, |i| Ok(respond(shared, &batch[i])));
        match results {
            Ok(responses) => {
                for (job, response) in batch.iter().zip(responses) {
                    let _ = job.reply.send(response);
                }
            }
            Err(err) => {
                let reply =
                    ErrorReply::new(ErrorCode::Internal, format!("solver pool failed: {err}"))
                        .to_json();
                for job in &batch {
                    let _ = job.reply.send(reply.clone());
                }
            }
        }
    }
}

/// Answers one job through the cache; the returned string is a complete
/// response payload.
fn respond(shared: &Shared, job: &Job) -> String {
    let solved = shared.cache.get_or_solve(job.digest, || {
        solve_request(&job.request).map(|json| Arc::from(json.as_str()))
    });
    match solved {
        Ok((payload, cached)) => ok_response_json(&payload, cached, job.digest),
        Err(err) => ErrorReply::from_core(&err).to_json(),
    }
}

/// Resolves the trace, builds the instance, runs the heuristic and
/// renders the result object. The rendered string is what the cache
/// stores, so repeats are byte-identical by construction.
fn solve_request(request: &SolveRequest) -> CoreResult<String> {
    let mut trace = match &request.source {
        TraceSource::Inline(trace) => trace.clone(),
        TraceSource::Family { config, rank } => generate_trace(config, *rank)?,
    };
    if let Some(spec) = &request.cost_model {
        // Cost-model override: a fitted spec replaces whatever the trace
        // embeds, and an explicit `analytic` clears it — both before the
        // trace materializes durations into an instance.
        trace.cost_model = (!spec.is_analytic()).then(|| spec.clone());
    }
    let instance = trace.to_instance_scaled(request.factor)?;
    let model = match request.model {
        Some(model) => model,
        None => instance.model(),
    };
    let schedule = run_heuristic_with(&instance, request.heuristic, model)?;
    let metrics = ScheduleMetrics::of(&instance, &schedule);
    let result = Value::Object(vec![
        (
            "heuristic".to_string(),
            Value::Str(request.heuristic.name().to_string()),
        ),
        ("model".to_string(), Value::Str(model.to_string())),
        ("n_tasks".to_string(), Value::UInt(schedule.len() as u64)),
        (
            "makespan_us".to_string(),
            Value::UInt(metrics.makespan.ticks()),
        ),
        (
            "comm_idle_us".to_string(),
            Value::UInt(metrics.comm_idle.ticks()),
        ),
        (
            "comp_idle_us".to_string(),
            Value::UInt(metrics.comp_idle.ticks()),
        ),
        ("schedule".to_string(), schedule.to_value()),
    ]);
    Ok(serde_json::to_string(&result)?)
}
