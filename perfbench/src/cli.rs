//! The CLI workloads: `run-ingest` and `run-decide` (`dts run` on one large
//! generated MD trace) and `paper-sweep` (`dts sweep` over the paper's HF
//! and CCSD 150-rank suites). Operations run one child at a time.

use crate::check::{self, RunSummary};
use crate::layers::{layer_metrics, replay_solve};
use crate::mix::{SweepInput, SweepOrder};
use crate::proc::{reset_peak_rss, run_child, status_kib};
use crate::report::{end_to_end, Cpu, Metric, Op};
use crate::spans::{Recorder, ROOT};
use crate::stats::min_samples_for_tail;
use crate::{timed_setup, Ctx, Outcome};
use dts_analysis::report::sweep_to_csv;
use dts_analysis::sweep::{run_trace_sweep, SweepConfig};
use dts_chem::Trace;
use dts_core::prelude::{CoreError, Instance, MemSize, Schedule, ScheduleMetrics, Time};
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tasks in the generated MD trace of the `run-*` workloads.
const MD_TASKS: &str = "50000";
/// Capacity factor of the `run-*` workloads.
const RUN_FACTOR: f64 = 1.5;
/// Ranks per kernel in the paper's full topology.
const PAPER_RANKS: usize = 150;
/// Fewest operations a traced run makes.
pub const TRACED_MIN_OPS: usize = 20;

/// One of the CLI workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CliWorkload {
    RunIngest,
    RunDecide,
    PaperSweep,
}

/// The operation inputs a workload's setup produced, with the in-process
/// reference output of each.
enum Inputs {
    Run {
        trace: PathBuf,
        heuristic: Heuristic,
        expected: RunSummary,
    },
    Sweep {
        order: SweepOrder,
        hf: Vec<PathBuf>,
        ccsd: Vec<PathBuf>,
        expected_hf: Vec<String>,
        expected_ccsd: Vec<String>,
    },
}

impl Inputs {
    /// Trace file, `dts` arguments and reference output of operation `seq`.
    fn op(&self, seq: usize) -> (&Path, Vec<String>, Expected<'_>) {
        match self {
            Inputs::Run {
                trace,
                heuristic,
                expected,
            } => (
                trace,
                vec![
                    "run".to_string(),
                    trace.display().to_string(),
                    heuristic.name().to_string(),
                    RUN_FACTOR.to_string(),
                ],
                Expected::Run(expected),
            ),
            Inputs::Sweep {
                order,
                hf,
                ccsd,
                expected_hf,
                expected_ccsd,
            } => {
                let (path, expected) = match order.input(seq) {
                    SweepInput::Hf(r) => (&hf[r], &expected_hf[r]),
                    SweepInput::Ccsd(r) => (&ccsd[r], &expected_ccsd[r]),
                };
                (
                    path,
                    vec!["sweep".to_string(), path.display().to_string()],
                    Expected::Sweep(expected),
                )
            }
        }
    }
}

enum Expected<'a> {
    Run(&'a RunSummary),
    Sweep(&'a str),
}

fn rank_files(dir: &Path, kernel: &str) -> Vec<PathBuf> {
    (0..PAPER_RANKS)
        .map(|r| dir.join(format!("{kernel}-rank{r:03}.json")))
        .collect()
}

fn load(path: &Path) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

fn reference_run(path: &Path, heuristic: Heuristic) -> Result<RunSummary, String> {
    let instance = load(path)?
        .to_instance_scaled(RUN_FACTOR)
        .map_err(|e| e.to_string())?;
    let makespan = run_heuristic(&instance, heuristic)
        .map_err(|e| e.to_string())?
        .makespan(&instance);
    let omim = johnson_makespan(&instance);
    Ok(RunSummary {
        heuristic: heuristic.name().to_string(),
        makespan_us: makespan.ticks(),
        omim_us: omim.ticks(),
        ratio: format!("{:.4}", makespan.ratio(omim)),
    })
}

/// The CSV `dts sweep` must print for each file, computed on two threads.
fn reference_sweeps(files: &[PathBuf]) -> Result<Vec<String>, String> {
    let half = files.len().div_ceil(2);
    let sweep = |chunk: &[PathBuf]| -> Result<Vec<String>, String> {
        chunk
            .iter()
            .map(|path| {
                let rows = run_trace_sweep(&load(path)?, &SweepConfig::default())
                    .map_err(|e| e.to_string())?;
                Ok(sweep_to_csv(&rows))
            })
            .collect()
    };
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(|| sweep(&files[..half]));
        let second = sweep(&files[half..]);
        (
            first.join().expect("reference sweep thread panicked"),
            second,
        )
    });
    let mut all = first?;
    all.extend(second?);
    Ok(all)
}

/// Generates the workload's traces; one call is one timed setup.
fn generate(ctx: &Ctx, workload: CliWorkload, dir: &Path) -> Result<(), String> {
    let dir_s = dir.display().to_string();
    let seed = ctx.seed.to_string();
    let runs: Vec<Vec<String>> = match workload {
        CliWorkload::RunIngest | CliWorkload::RunDecide => vec![vec![
            "generate".into(),
            "md".into(),
            dir_s,
            "1".into(),
            "--tasks".into(),
            MD_TASKS.into(),
            "--seed".into(),
            seed,
        ]],
        CliWorkload::PaperSweep => paper_suite_commands(dir),
    };
    for args in runs {
        ctx.dts_ok(&args)?;
    }
    Ok(())
}

/// `dts generate` commands writing the HF and CCSD 150-rank suites under
/// `dir/hf` and `dir/ccsd`.
pub fn paper_suite_commands(dir: &Path) -> Vec<Vec<String>> {
    ["hf", "ccsd"]
        .iter()
        .map(|kernel| {
            vec![
                "generate".to_string(),
                kernel.to_string(),
                dir.join(kernel).display().to_string(),
                PAPER_RANKS.to_string(),
            ]
        })
        .collect()
}

/// Paths of the paper suites written by [`paper_suite_commands`].
pub fn paper_suite_files(dir: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    (
        rank_files(&dir.join("hf"), "hf"),
        rank_files(&dir.join("ccsd"), "ccsd"),
    )
}

pub fn run(ctx: &Ctx, workload: CliWorkload) -> Result<Outcome, String> {
    let (setup_s, dir) = timed_setup(ctx, |dir| generate(ctx, workload, &dir).map(|()| dir))?;
    let inputs = match workload {
        CliWorkload::RunIngest | CliWorkload::RunDecide => {
            let heuristic = if workload == CliWorkload::RunIngest {
                Heuristic::OS
            } else {
                Heuristic::MAMR
            };
            let trace = dir.join("md-rank000.json");
            let expected = reference_run(&trace, heuristic)?;
            Inputs::Run {
                trace,
                heuristic,
                expected,
            }
        }
        CliWorkload::PaperSweep => {
            let (hf, ccsd) = paper_suite_files(&dir);
            Inputs::Sweep {
                order: SweepOrder::new(ctx.seed, hf.len(), ccsd.len()),
                expected_hf: reference_sweeps(&hf)?,
                expected_ccsd: reference_sweeps(&ccsd)?,
                hf,
                ccsd,
            }
        }
    };
    // The p90 needs 100 samples; the ratio mean covers a fixed prefix of
    // the seeded sequence, which every run completes. The traced run
    // reports medians only.
    let min_ops = match &inputs {
        _ if ctx.trace => TRACED_MIN_OPS,
        Inputs::Run { .. } => min_samples_for_tail(90),
        Inputs::Sweep { order, .. } => order.full_cover(),
    };

    let mut rec = Recorder::new(Instant::now());
    let mut ops = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let stdout_file = ctx.stdout_file();
    let mut phase_start = Instant::now();
    for seq in 0.. {
        // Operation 0 is untimed; `seq - 1` timed operations are done.
        let timed = seq > 0;
        if seq == 1 {
            phase_start = Instant::now();
        } else if seq > min_ops && phase_start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let (path, args, expected) = inputs.op(seq);
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let start = Instant::now();
        let child = run_child(&ctx.dts, &arg_refs, &stdout_file)
            .map_err(|e| format!("cannot run dts: {e}"))?;
        let end = Instant::now();
        let verdict = if !child.success {
            Err(format!("dts {} exited with an error", args[0]))
        } else {
            match expected {
                Expected::Run(e) => check::check_run(&child.stdout, e),
                Expected::Sweep(e) => check::check_sweep(&child.stdout, e),
            }
        };
        if let Err(why) = &verdict {
            eprintln!("operation {seq} failed: {why}");
        }
        let wall_ms = child.wall.as_secs_f64() * 1e3;
        ops.push(Op {
            seq,
            timed,
            wall_ms,
            end_s: end.duration_since(phase_start).as_secs_f64(),
            cpu_ms: Some(child.cpu.as_secs_f64() * 1e3),
            rss_mb: Some(child.maxrss_kib as f64 / 1024.0),
            ratio: verdict.ok(),
        });
        if ctx.trace && timed {
            // Even operations are replayed in-process under spans; odd ones
            // stay untraced, and the two p50s give the tracing overhead.
            if seq.is_multiple_of(2) {
                rec.record_root(seq, "cli.op", start, end);
                replay(&mut rec, seq, path, &inputs)?;
                traced_ms.push(wall_ms);
            } else {
                untraced_ms.push(wall_ms);
            }
        }
    }
    let phase_s = ops.last().map_or(0.0, |o| o.end_s).max(f64::MIN_POSITIVE);

    let metrics: Vec<Metric> = if ctx.trace {
        ctx.write_spans(&rec)?;
        layer_metrics(&rec, false, &traced_ms, &untraced_ms, None)
    } else {
        end_to_end(&setup_s, &ops, phase_s, &Cpu::Children, None, min_ops)
    };
    Ok(Outcome { ops, metrics })
}

/// Replays operation `seq` in-process, one span per layer call, in the
/// order the `dts` subcommand makes them.
fn replay(rec: &mut Recorder, seq: usize, path: &Path, inputs: &Inputs) -> Result<(), String> {
    let (text, _) = rec.time(seq, ROOT, "chem.trace.read", || {
        std::fs::read_to_string(path)
    });
    let text = text.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    rec.count(
        seq,
        "chem.trace.read_mb",
        text.len() as f64 / (1024.0 * 1024.0),
    );
    let reset = reset_peak_rss();
    let (trace, _) = rec.time(seq, ROOT, "chem.trace.parse", || Trace::from_json(&text));
    let trace = trace.map_err(|e| e.to_string())?;
    if reset {
        let hwm = status_kib("self", "VmHWM").map_err(|e| e.to_string())?;
        rec.count(seq, "chem.trace.parse_peak_rss_mb", hwm as f64 / 1024.0);
    }
    drop(text);
    let err = |e: CoreError| e.to_string();
    match inputs {
        Inputs::Run { heuristic, .. } => {
            let (instance, _) = rec.time(seq, ROOT, "chem.trace.to_instance", || {
                trace.to_instance_scaled(RUN_FACTOR)
            });
            let instance = instance.map_err(err)?;
            let (omim, _) = rec.time(seq, ROOT, "flowshop.omim", || johnson_makespan(&instance));
            let schedule = replay_solve(rec, seq, ROOT, &instance, *heuristic).map_err(err)?;
            rec.time(seq, ROOT, "core.metrics.render", || {
                render_run(&instance, *heuristic, &schedule, omim)
            });
        }
        Inputs::Sweep { .. } => {
            let config = SweepConfig::default();
            let (rows, sweep) = rec.time(seq, ROOT, "analysis.sweep", || {
                run_trace_sweep(&trace, &config)
            });
            let rows = rows.map_err(err)?;
            rec.count(seq, "analysis.cells_per_op", rows.len() as f64);
            // The calls run_trace_sweep makes, replayed beneath its span.
            let (unbounded, _) = rec.time(seq, sweep, "chem.trace.to_instance", || {
                trace.to_instance(MemSize::UNBOUNDED)
            });
            let unbounded = unbounded.map_err(err)?;
            rec.time(seq, sweep, "flowshop.omim", || johnson_makespan(&unbounded));
            for &factor in &config.factors {
                let (instance, _) = rec.time(seq, sweep, "chem.trace.to_instance", || {
                    trace.to_instance_scaled(factor)
                });
                let instance = instance.map_err(err)?;
                for &heuristic in &config.heuristics {
                    replay_solve(rec, seq, sweep, &instance, heuristic).map_err(err)?;
                }
            }
            rec.time(seq, ROOT, "core.metrics.render", || sweep_to_csv(&rows));
        }
    }
    Ok(())
}

/// What `dts run` prints, rendered from the schedule as it does.
fn render_run(
    instance: &Instance,
    heuristic: Heuristic,
    schedule: &Schedule,
    omim: Time,
) -> String {
    let metrics = ScheduleMetrics::of(instance, schedule);
    let mut out = String::new();
    let _ = writeln!(out, "heuristic          {heuristic}");
    let _ = writeln!(out, "model              {}", instance.model());
    let _ = writeln!(out, "cost model         {}", instance.cost_model());
    let _ = writeln!(
        out,
        "capacity           {} ({}x mc)",
        instance.capacity(),
        RUN_FACTOR
    );
    let _ = writeln!(out, "makespan           {} us", metrics.makespan.ticks());
    let _ = writeln!(out, "OMIM               {} us", omim.ticks());
    let _ = writeln!(
        out,
        "ratio to optimal   {:.4}",
        metrics.makespan.ratio(omim)
    );
    let _ = writeln!(
        out,
        "overlap fraction   {:.1} %",
        100.0 * metrics.overlap_fraction()
    );
    out
}
