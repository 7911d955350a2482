//! The `serve-mixed` workload: `dts serve` with default settings in its own
//! process, driven by a closed loop of min(2, nproc) connections from this
//! process. Each request carries an inline HF or CCSD rank trace; the seeded
//! mix repeats one key in four, so a quarter of the requests are cache hits.

use crate::check::{check_replies, parse_reply, Reply};
use crate::cli::{paper_suite_commands, paper_suite_files, TRACED_MIN_OPS};
use crate::layers::{layer_metrics, replay_solve};
use crate::mix::{MixedRequest, RequestKey, RequestMix, SERVE_HEURISTICS};
use crate::proc::{process_cpu, status_kib, Daemon};
use crate::report::{end_to_end, Cpu, Op};
use crate::spans::{Recorder, ROOT};
use crate::{timed_setup, Ctx, Outcome};
use dts_analysis::sweep::capacity_factors;
use dts_chem::Trace;
use dts_core::error::CoreError;
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_server::protocol::request_to_value;
use dts_server::{parse_request, Client, SolveRequest, TraceSource};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests every untraced run completes; the ratio mean covers this prefix
/// of the seeded sequence.
const MIN_REQUESTS: usize = 1000;
/// How often the daemon's CPU time is sampled for its within-run spread.
const CPU_SAMPLE: Duration = Duration::from_millis(500);

/// One request as the load generator saw it.
struct Record {
    op: Op,
    key: RequestKey,
    reply: Result<Reply, String>,
}

/// What the load-generator threads share.
struct LoadGen<'a> {
    ctx: &'a Ctx,
    addr: String,
    traces: Vec<Trace>,
    heuristics: Vec<Heuristic>,
    factors: Vec<f64>,
    mix: Mutex<RequestMix>,
    done: AtomicUsize,
    min_ops: usize,
    phase_start: Instant,
    epoch: Instant,
}

impl LoadGen<'_> {
    fn request(&self, key: RequestKey) -> SolveRequest {
        SolveRequest {
            source: TraceSource::Inline(self.traces[usize::from(key.trace)].clone()),
            heuristic: self.heuristics[usize::from(key.heuristic)],
            model: None,
            cost_model: None,
            factor: self.factors[usize::from(key.factor)],
        }
    }

    fn next(&self) -> MixedRequest {
        self.mix
            .lock()
            .expect("no load-generator thread panics holding the mix")
            .next()
            .expect("the request mix is endless")
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("cannot reach the daemon: {e}"))
    }

    /// One closed-loop connection: send, wait for the reply, repeat.
    fn drive(&self) -> Result<(Vec<Record>, Recorder), String> {
        let mut client = self.connect()?;
        let mut rec = Recorder::new(self.epoch);
        let mut records = Vec::new();
        while self.phase_start.elapsed().as_secs_f64() < self.ctx.seconds
            || self.done.load(Ordering::Relaxed) < self.min_ops
        {
            let next = self.next();
            let traced = self.ctx.trace && next.seq.is_multiple_of(2);
            let record = self.exchange(&mut client, next, traced.then_some(&mut rec))?;
            self.done.fetch_add(1, Ordering::Relaxed);
            let broken = record.reply.is_err();
            records.push(record);
            if broken {
                // A failed exchange may leave the connection mid-frame; a
                // daemon that no longer accepts connections ends the run.
                client = self.connect()?;
            }
        }
        Ok((records, rec))
    }

    /// Sends one request and reads its reply; with a recorder, the round
    /// trip is traced and the daemon's layer calls are replayed under it.
    fn exchange(
        &self,
        client: &mut Client,
        next: MixedRequest,
        rec: Option<&mut Recorder>,
    ) -> Result<Record, String> {
        let request = self.request(next.key);
        let start = Instant::now();
        let payload = serde_json::to_string(&request_to_value(&request))
            .map_err(|e| format!("cannot encode a request: {e}"))?;
        let encoded = Instant::now();
        let text = client.send_text(&payload);
        let replied = Instant::now();
        let value = text.as_ref().ok().map(|t| serde_json::from_str::<Value>(t));
        let end = Instant::now();
        let reply = match (&text, value) {
            (Ok(text), Some(Ok(value))) => parse_reply(text, &value),
            (Ok(_), _) => Err("reply is not JSON".to_string()),
            (Err(e), _) => Err(format!("transport: {e}")),
        };
        if let Err(why) = &reply {
            eprintln!("request {} failed: {why}", next.seq);
        }
        if let Some(rec) = rec {
            let op = next.seq;
            rec.record(op, ROOT, "server.client.encode", start, encoded);
            rec.record(op, ROOT, "server.reply_parse", replied, end);
            rec.record_root(op, "server.op", start, end);
            rec.count(op, "server.request_kb", payload.len() as f64 / 1024.0);
            if let Ok(text) = &text {
                rec.count(op, "server.reply_kb", text.len() as f64 / 1024.0);
            }
            let cold = matches!(&reply, Ok(r) if !r.cached);
            replay_daemon(rec, op, &payload, cold).map_err(|e| format!("replay: {e}"))?;
        }
        Ok(Record {
            op: Op {
                seq: next.seq,
                timed: true,
                wall_ms: (end - start).as_secs_f64() * 1e3,
                end_s: end.duration_since(self.phase_start).as_secs_f64(),
                ..Op::default()
            },
            key: next.key,
            reply,
        })
    }
}

/// Replays, in-process, the daemon's calls for one request payload: frame
/// parse, digest and (for a cache miss) the solve.
fn replay_daemon(rec: &mut Recorder, op: usize, payload: &str, cold: bool) -> Result<(), String> {
    let (request, _) = rec.time(op, ROOT, "server.protocol.parse", || {
        let value: Value = serde_json::from_str(payload).map_err(|e| e.to_string())?;
        parse_request(&value).map_err(|e| e.message)
    });
    let request = request?;
    rec.time(op, ROOT, "server.protocol.digest", || request.digest());
    if cold {
        let TraceSource::Inline(trace) = &request.source else {
            return Err("the workload sends inline traces only".to_string());
        };
        let solve = rec.reserve(op);
        let start = Instant::now();
        let (instance, _) = rec.time(op, solve, "chem.trace.to_instance", || {
            trace.to_instance_scaled(request.factor)
        });
        let instance = instance.map_err(|e| e.to_string())?;
        let schedule = replay_solve(rec, op, solve, &instance, request.heuristic)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(schedule);
        rec.record_as(op, solve, ROOT, "server.solve", start, Instant::now());
    }
    Ok(())
}

/// In-process reference of every key: (makespan, tasks, OMIM), computed on
/// two threads.
fn reference(
    load: &LoadGen<'_>,
    keys: &[RequestKey],
) -> Result<BTreeMap<RequestKey, (u64, u64, u64)>, String> {
    let solve = |chunk: &[RequestKey]| -> Result<Vec<_>, CoreError> {
        chunk
            .iter()
            .map(|&key| {
                let instance = load.traces[usize::from(key.trace)]
                    .to_instance_scaled(load.factors[usize::from(key.factor)])?;
                let heuristic = load.heuristics[usize::from(key.heuristic)];
                let makespan = run_heuristic(&instance, heuristic)?.makespan(&instance);
                let omim = johnson_makespan(&instance);
                Ok((key, (makespan.ticks(), instance.len() as u64, omim.ticks())))
            })
            .collect()
    };
    let half = keys.len().div_ceil(2);
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(|| solve(&keys[..half]));
        let second = solve(&keys[half..]);
        (first.join().expect("reference thread panicked"), second)
    });
    let mut all: BTreeMap<_, _> = first.map_err(|e| e.to_string())?.into_iter().collect();
    all.extend(second.map_err(|e| e.to_string())?);
    Ok(all)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, (dir, daemon, addr)) = timed_setup(ctx, |dir| {
        for args in paper_suite_commands(&dir) {
            ctx.dts_ok(&args)?;
        }
        let (daemon, line) = Daemon::spawn(&ctx.dts, &["serve", "--addr", "127.0.0.1:0"])
            .map_err(|e| format!("cannot start dts serve: {e}"))?;
        let addr = line
            .split_whitespace()
            .last()
            .ok_or("dts serve printed no address")?
            .to_string();
        Ok((dir, daemon, addr))
    })?;
    let (hf, ccsd) = paper_suite_files(&dir);
    let traces = hf
        .iter()
        .chain(&ccsd)
        .map(|path| Trace::load(path).map_err(|e| format!("cannot load {}: {e}", path.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let factors = capacity_factors();
    let now = Instant::now();
    let mut load = LoadGen {
        ctx,
        addr,
        mix: Mutex::new(RequestMix::new(ctx.seed, traces.len(), factors.len())),
        heuristics: SERVE_HEURISTICS
            .iter()
            .map(|name| Heuristic::from_name(name).expect("a known heuristic"))
            .collect(),
        traces,
        factors,
        done: AtomicUsize::new(0),
        min_ops: if ctx.trace {
            TRACED_MIN_OPS
        } else {
            MIN_REQUESTS
        },
        phase_start: now,
        epoch: now,
    };

    // The first request is untimed: it pays the daemon's first-touch costs.
    let mut client = load.connect()?;
    let first = load.next();
    let mut warm = load.exchange(&mut client, first, None)?;
    warm.op.timed = false;
    drop(client);

    let connections = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let pid = daemon.pid();
    let cpu_at = || process_cpu(pid).map_err(|e| format!("cannot read daemon CPU time: {e}"));
    let cpu_start = cpu_at()?;
    load.phase_start = Instant::now();
    let finished = AtomicUsize::new(0);
    let mut intervals = Vec::new();
    let results = std::thread::scope(|s| -> Result<Vec<_>, String> {
        let load = &load;
        let finished = &finished;
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(move || {
                    let result = load.drive();
                    finished.fetch_add(1, Ordering::SeqCst);
                    result
                })
            })
            .collect();
        let (mut last_cpu, mut last_done) = (cpu_start, 0);
        while finished.load(Ordering::SeqCst) < connections {
            std::thread::sleep(CPU_SAMPLE);
            let cpu = cpu_at()?;
            let done = load.done.load(Ordering::Relaxed);
            intervals.push((
                (cpu - last_cpu).as_secs_f64() * 1e3,
                (done - last_done) as f64,
            ));
            (last_cpu, last_done) = (cpu, done);
        }
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect())
    })?;
    let cpu_ms = (cpu_at()? - cpu_start).as_secs_f64() * 1e3;
    let daemon_rss_mb = status_kib(&pid.to_string(), "VmHWM")
        .map_err(|e| format!("cannot read daemon VmHWM: {e}"))? as f64
        / 1024.0;
    drop(daemon);

    let mut rec = Recorder::new(load.epoch);
    let mut records = vec![warm];
    for result in results {
        let (thread_records, thread_rec) = result?;
        records.extend(thread_records);
        rec.merge(thread_rec);
    }
    records.sort_by_key(|r| r.op.seq);

    let mut keys: Vec<RequestKey> = records.iter().map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let expected = reference(&load, &keys)?;
    let replies: Vec<_> = records.iter().map(|r| (r.key, r.reply.clone())).collect();
    let verdicts = check_replies(&replies, |key| expected[&key]);
    let hits = records
        .iter()
        .filter(|r| matches!(&r.reply, Ok(reply) if reply.cached))
        .count();
    let ops: Vec<Op> = records
        .into_iter()
        .zip(verdicts)
        .map(|(record, verdict)| {
            if let Err(why) = &verdict {
                eprintln!("request {} failed the check: {why}", record.op.seq);
            }
            Op {
                ratio: verdict.ok(),
                ..record.op
            }
        })
        .collect();

    let phase_s = ops
        .iter()
        .map(|o| o.end_s)
        .fold(f64::MIN_POSITIVE, f64::max);
    let metrics = if ctx.trace {
        ctx.write_spans(&rec)?;
        let walls = |traced: bool| -> Vec<f64> {
            ops.iter()
                .filter(|o| o.timed && o.seq.is_multiple_of(2) == traced)
                .map(|o| o.wall_ms)
                .collect()
        };
        layer_metrics(
            &rec,
            true,
            &walls(true),
            &walls(false),
            Some((hits, ops.len())),
        )
    } else {
        let cpu = Cpu::Daemon {
            total_ms: cpu_ms,
            intervals,
        };
        end_to_end(
            &setup_s,
            &ops,
            phase_s,
            &cpu,
            Some(daemon_rss_mb),
            MIN_REQUESTS,
        )
    };
    Ok(Outcome { ops, metrics })
}
