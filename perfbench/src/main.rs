//! The repository benchmark: drives the release `dts` binary through one
//! workload, checks every operation's output against an in-process
//! reference, and prints the workload's metrics.
//!
//! ```text
//! perfbench --dts <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists): `run-ingest`,
//! `run-decide`, `paper-sweep` and `serve-mixed`. With `--trace 0` the run
//! is untraced and reports the end-to-end metrics; with `--trace 1` it
//! replays the same inputs through each layer's public calls under spans
//! and reports the per-layer metrics. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod cli;
mod layers;
mod mix;
mod proc;
mod report;
mod serve;
mod spans;
mod stats;

use cli::CliWorkload;
use report::{Metric, Op};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions of a workload's setup; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Settings of one benchmark run.
pub struct Ctx {
    pub dts: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's inputs, removed at the end.
    pub work: PathBuf,
}

impl Ctx {
    /// Runs `dts args…` and requires it to succeed.
    pub fn dts_ok(&self, args: &[String]) -> Result<(), String> {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let child = proc::run_child(&self.dts, &refs, &self.stdout_file())
            .map_err(|e| format!("cannot run dts: {e}"))?;
        if child.success {
            Ok(())
        } else {
            Err(format!("dts {} failed", args.join(" ")))
        }
    }

    /// Where `dts` children write their stdout.
    pub fn stdout_file(&self) -> PathBuf {
        self.work.join("stdout.txt")
    }

    /// Writes the traced run's spans next to the scratch directory.
    pub fn write_spans(&self, rec: &Recorder) -> Result<(), String> {
        let dir = self.work.parent().unwrap_or(Path::new(".")).join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub ops: Vec<Op>,
    pub metrics: Vec<Metric>,
}

/// Runs a setup once untimed (warming the binary and the page cache), then
/// [`SETUP_REPS`] times timed, each into a fresh directory. Returns the
/// timed seconds and the last repetition's result; earlier results are
/// dropped (and their directories removed) outside the timed part.
pub fn timed_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(PathBuf) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut seconds = Vec::new();
    let mut kept: Option<(PathBuf, T)> = None;
    for rep in 0..=SETUP_REPS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let start = Instant::now();
        let value = setup(dir.clone())?;
        let elapsed = start.elapsed().as_secs_f64();
        if rep > 0 {
            seconds.push(elapsed);
        }
        if let Some((old_dir, old)) = kept.replace((dir, value)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (_, value) = kept.expect("at least one setup ran");
    Ok((seconds, value))
}

struct Args {
    dts: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut dts = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--dts" => dts = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        dts: dts.ok_or("missing --dts")?,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "run-ingest" => cli::run(ctx, CliWorkload::RunIngest),
        "run-decide" => cli::run(ctx, CliWorkload::RunDecide),
        "paper-sweep" => cli::run(ctx, CliWorkload::PaperSweep),
        "serve-mixed" => serve::run(ctx),
        other => Err(format!(
            "unknown workload '{other}'; expected run-ingest, run-decide, paper-sweep or serve-mixed"
        )),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        dts: args.dts,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))
        .and_then(|()| run(&ctx));
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(outcome) => {
            let header = format!(
                "perfbench workload={} seed={} seconds={} trace={}",
                ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
            );
            print!("{}", report::table(&header, &outcome.metrics, &outcome.ops));
            let (attempted, failed) = report::tally(&outcome.ops);
            println!("{}", report::json_line(attempted, failed, &outcome.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
