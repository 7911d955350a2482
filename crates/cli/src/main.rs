//! `dts` — command-line interface for the transfer-sched workspace.
//!
//! Subcommands:
//!
//! * `dts generate <kernel-or-family> <dir> [n_ranks]` — generate a trace
//!   suite and write one `dts-trace` v1 file per rank (the only trace
//!   format every other subcommand reads). Besides the chemistry
//!   kernels `hf` and `ccsd`, the synthetic corpus families of
//!   `dts_workloads` are accepted (`md`, `dense-la`, `tie-heavy`,
//!   `memory-cliff`, `transfer-bound`) with `--tasks <n>`, `--seed <s>`
//!   and (dense-la only) `--skew <x>`;
//! * `dts characterize <trace.json>` — print the Fig. 8 workload
//!   characterization of a trace;
//! * `dts run <trace.json> <heuristic> [factor]` — run one heuristic on a
//!   trace at a memory capacity of `factor · mc` and print the result;
//! * `--model <spec>` on `generate` and `run` selects the execution model
//!   (`explicit`, `duplex`, `streams:<k>`, `implicit[:<eff>]`): `generate`
//!   stamps it into the trace files, `run` overrides whatever the trace
//!   carries;
//! * `dts sweep <trace.json>` — run every heuristic across the paper's
//!   capacity sweep and print CSV rows;
//! * `dts calibrate <trace.json>... [--backend <b>] [--out <file>]` — fit
//!   a cost model (regression or history) to the observed per-task
//!   durations of one or more traces, print a residual report, and
//!   optionally write a versioned dts-cost-model file;
//! * `--cost-model <file|analytic>` on `run`, `request` and `corpus`
//!   re-predicts every task duration through a saved model before
//!   scheduling (`analytic` forces the trace's native durations); `corpus`
//!   prints the re-predicted suite as a what-if view instead of diffing
//!   the golden file;
//! * `dts corpus [--update-golden] [--golden <path>]` — run the
//!   golden-metric scenario suite (every heuristic × every execution model
//!   over the full corpus) and diff it against the committed golden file;
//! * `dts serve [--addr <host:port>] [...]` — run the scheduling daemon
//!   (length-framed JSON over TCP, instance caching, admission control);
//!   it prints the bound address — `--addr 127.0.0.1:0` picks a free port;
//! * `dts request <addr> <trace.json|family> <heuristic> [factor]` — send
//!   one scheduling request to a running daemon and print the reply;
//! * `dts demo` — print the Gantt charts of the paper's Table 3–5 examples.

use dts_analysis::report::sweep_to_csv;
use dts_analysis::sweep::{capacity_factors, run_trace_sweep, SweepConfig};
use dts_chem::suite::{generate_partial_suite, SuiteConfig};
use dts_chem::{characterize, Kernel, Trace};
use dts_core::doc::{self, At};
use dts_core::gantt;
use dts_core::metrics::ScheduleMetrics;
use dts_core::perfmodel::{self, CalibrationObservations};
use dts_core::{CoreError, CostModel, CostModelSpec, ExecutionModel, MemSize, Task, Time};
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_server::{Client, Server, ServerConfig, SolveRequest, TraceSource};
use dts_workloads::corpus;
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use serde::Value;
use std::io::Write as _;
use std::process::ExitCode;

/// Extracts an optional `--model <spec>` / `--model=<spec>` flag from `args`
/// and returns the remaining positional arguments alongside the parsed
/// model. Bad specs (unknown names, `streams:0`, non-finite efficiencies)
/// surface as clean errors through [`ExecutionModel::parse`].
fn take_model_flag(args: &[String]) -> Result<(Vec<String>, Option<ExecutionModel>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut model = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let spec = if arg == "--model" {
            iter.next()
                .ok_or("--model expects a value (explicit, duplex, streams:<k>, implicit[:<eff>])")?
                .as_str()
        } else if let Some(value) = arg.strip_prefix("--model=") {
            value
        } else {
            rest.push(arg.clone());
            continue;
        };
        model = Some(ExecutionModel::parse(spec).map_err(|e| e.to_string())?);
    }
    Ok((rest, model))
}

/// Extracts an optional `--<name> <value>` / `--<name>=<value>` flag from
/// `args`, returning the remaining arguments and the raw value.
fn take_value_flag(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let long = format!("--{name}");
    let assign = format!("--{name}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if *arg == long {
            value = Some(
                iter.next()
                    .ok_or(format!("{long} expects a value"))?
                    .clone(),
            );
        } else if let Some(v) = arg.strip_prefix(&assign) {
            value = Some(v.to_string());
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, value))
}

/// Extracts an optional boolean `--<name>` flag from `args`.
fn take_bool_flag(args: &[String], name: &str) -> (Vec<String>, bool) {
    let long = format!("--{name}");
    let mut present = false;
    let rest = args
        .iter()
        .filter(|arg| {
            if **arg == long {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text, with every generator source enumerated: the chemistry
/// kernels first, then each synthetic family with its one-line shape
/// description from [`WorkloadFamily::description`].
fn usage() -> String {
    let mut families = String::new();
    for family in WorkloadFamily::ALL {
        families.push_str(&format!(
            "\x20   {:<15} {}\n",
            family.name(),
            family.description()
        ));
    }
    format!(
        "usage: dts <command>\n\
         \n\
         commands:\n\
         \x20 generate <source> <dir> [n_ranks]     generate a trace suite as dts-trace v1 files\n\
         \x20 characterize <trace.json>             print the workload characterization\n\
         \x20 run <trace.json> <heuristic> [factor] run one heuristic at factor x mc\n\
         \x20 sweep <trace.json>                    run all heuristics across the capacity sweep (CSV)\n\
         \x20 calibrate <trace.json>...             fit a cost model to observed task durations\n\
         \x20 corpus [--update-golden]              run the golden-metric scenario suite\n\
         \x20 serve [--addr <host:port>]            run the scheduling daemon\n\
         \x20 request <addr> <source> <heuristic> [factor]  query a running daemon\n\
         \x20 demo                                  print the paper's example schedules\n\
         \n\
         generate sources:\n\
         \x20   hf              Hartree-Fock chemistry kernel (the paper's workload)\n\
         \x20   ccsd            CCSD chemistry kernel (the paper's workload)\n\
         {families}\
         \n\
         options (generate, run):\n\
         \x20 --model <spec>  execution model: explicit | duplex | streams:<k> | implicit[:<eff>]\n\
         options (run, request, corpus):\n\
         \x20 --cost-model <file|analytic>  re-predict task durations through a saved cost model\n\
         options (generate, synthetic families only):\n\
         \x20 --tasks <n>     tasks per rank (default per family)\n\
         \x20 --seed <s>      base seed of the suite (default 0)\n\
         \x20 --skew <x>      Zipf exponent, dense-la only (default 1.2)\n\
         \x20 --bandwidth <b> derive comm times from task memory at <b> bytes/s (±2% jitter)\n\
         options (calibrate):\n\
         \x20 --backend <b>   fitted backend: regression (default) | history\n\
         \x20 --out <file>    write the fitted dts-cost-model file here\n\
         options (corpus):\n\
         \x20 --golden <path> golden file to diff against (default: the committed one)\n\
         \x20 --update-golden rewrite the golden file from this build (the only sanctioned change path)\n\
         options (serve):\n\
         \x20 --addr <host:port>    bind address (default 127.0.0.1:7421; port 0 picks a free port)\n\
         \x20 --threads <n>         solver threads per batch (default: available parallelism)\n\
         \x20 --queue-depth <n>     pending-request ceiling before load shedding (default 256)\n\
         \x20 --max-tasks <n>       per-request task-count ceiling (default 65536)\n\
         \x20 --cache-entries <n>   solved-instance cache bound (default 512)\n\
         options (request):\n\
         \x20 <source> is a trace JSON file or a synthetic family name\n\
         \x20 --model <spec>  execution-model override, as for run\n\
         \x20 --tasks/--seed/--skew/--rank  family parameters, as for generate\n"
    )
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (args, model) = take_model_flag(args)?;
    let (args, tasks_flag) = take_value_flag(&args, "tasks")?;
    let (args, seed_flag) = take_value_flag(&args, "seed")?;
    let (args, skew_flag) = take_value_flag(&args, "skew")?;
    let (args, bandwidth_flag) = take_value_flag(&args, "bandwidth")?;
    let source = args.first().map(String::as_str).unwrap_or("");
    let kernel = match source {
        "hf" => Some(Kernel::HartreeFock),
        "ccsd" => Some(Kernel::Ccsd),
        _ => None,
    };
    let family = WorkloadFamily::from_name(source);
    if kernel.is_none() && family.is_none() {
        let names: Vec<&str> = WorkloadFamily::ALL.iter().map(|f| f.name()).collect();
        return Err(format!(
            "unknown generator source '{source}'; expected hf, ccsd, {}",
            names.join(", ")
        ));
    }
    if kernel.is_some() {
        // The chemistry suites are fixed reproductions of the paper's
        // workload: their size comes from the topology argument and they
        // have no tunable shape, so the synthetic-family flags are a
        // usage error, not a silent no-op.
        for (flag, value) in [
            ("--tasks", &tasks_flag),
            ("--seed", &seed_flag),
            ("--skew", &skew_flag),
            ("--bandwidth", &bandwidth_flag),
        ] {
            if value.is_some() {
                return Err(format!(
                    "{flag} only applies to the synthetic families, not the '{source}' kernel"
                ));
            }
        }
    }
    let dir = args.get(1).ok_or("expected an output directory")?;
    let n_ranks: usize = args
        .get(2)
        .map(|s| s.parse().map_err(|_| "n_ranks must be an integer"))
        .transpose()?
        .unwrap_or(6);
    if n_ranks == 0 {
        return Err("n_ranks must be at least 1".into());
    }
    if let Some(family) = family {
        return generate_family_suite(
            family,
            dir,
            n_ranks,
            &tasks_flag,
            &seed_flag,
            &skew_flag,
            &bandwidth_flag,
            model,
        );
    }
    let kernel = kernel.unwrap_or(Kernel::HartreeFock);
    // Small 6-rank topology for quick suites, the paper's full 150-rank
    // topology beyond that. `generate_partial_suite` silently clamps to
    // the topology size, so reject a request even the full topology cannot
    // honor instead of quietly writing fewer files than asked for.
    let mut config = SuiteConfig::small();
    if n_ranks > config.topology.n_processes() {
        config = SuiteConfig::default();
    }
    let max_ranks = config.topology.n_processes();
    if n_ranks > max_ranks {
        return Err(format!(
            "{n_ranks} ranks requested, but the largest topology has only {max_ranks} \
             processes ({} nodes x {} workers)",
            config.topology.nodes, config.topology.workers_per_node
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut traces = generate_partial_suite(kernel, &config, n_ranks);
    if let Some(model) = model {
        // Stamp the requested execution model into every trace so later
        // `dts run` / `dts sweep` invocations honor it without repeating
        // the flag. `Explicit` is stamped too: it documents the choice.
        for trace in &mut traces {
            trace.model = Some(model);
        }
    }
    for trace in &traces {
        let path = format!(
            "{dir}/{}-rank{:03}.json",
            kernel.name().to_lowercase(),
            trace.rank
        );
        trace.save(&path).map_err(|e| e.to_string())?;
        println!(
            "wrote {path} ({} tasks, mc = {})",
            trace.len(),
            trace.min_capacity()
        );
    }
    println!(
        "generated {} of {n_ranks} requested ranks in {dir}",
        traces.len()
    );
    Ok(())
}

/// Generates `n_ranks` traces of a synthetic corpus family. The flags are
/// validated through [`GeneratorConfig::validate`], so `--skew` on a
/// family that does not support it fails with the same typed message the
/// library reports.
#[allow(clippy::too_many_arguments)]
fn generate_family_suite(
    family: WorkloadFamily,
    dir: &str,
    n_ranks: usize,
    tasks_flag: &Option<String>,
    seed_flag: &Option<String>,
    skew_flag: &Option<String>,
    bandwidth_flag: &Option<String>,
    model: Option<ExecutionModel>,
) -> Result<(), String> {
    let mut config = GeneratorConfig::new(family);
    if let Some(tasks) = tasks_flag {
        config.n_tasks = tasks
            .parse()
            .map_err(|_| format!("--tasks must be a positive integer, got '{tasks}'"))?;
    }
    if let Some(seed) = seed_flag {
        config.seed = seed
            .parse()
            .map_err(|_| format!("--seed must be a non-negative integer, got '{seed}'"))?;
    }
    if let Some(skew) = skew_flag {
        config.skew = Some(
            skew.parse()
                .map_err(|_| format!("--skew must be a number, got '{skew}'"))?,
        );
    }
    if let Some(bandwidth) = bandwidth_flag {
        config.bandwidth = Some(bandwidth.parse().map_err(|_| {
            format!("--bandwidth must be a positive number of bytes per second, got '{bandwidth}'")
        })?);
    }
    config.validate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for rank in 0..n_ranks {
        let mut trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        if let Some(model) = model {
            trace.model = Some(model);
        }
        let path = format!("{dir}/{}-rank{rank:03}.json", family.name());
        trace.save(&path).map_err(|e| e.to_string())?;
        println!(
            "wrote {path} ({} tasks, mc = {})",
            trace.len(),
            trace.min_capacity()
        );
    }
    println!("generated {n_ranks} {family} ranks in {dir}");
    Ok(())
}

/// Resolves a `--cost-model` argument: the literal `analytic` (any case)
/// or a path to a dts-cost-model file, strictly validated on load.
fn load_cost_model(arg: &str) -> Result<CostModelSpec, String> {
    if perfmodel::is_analytic_keyword(arg) {
        return Ok(CostModelSpec::Analytic);
    }
    perfmodel::import_model_file(std::path::Path::new(arg)).map_err(|e| e.to_string())
}

/// Stamps a cost-model override into a trace before it materializes an
/// instance: a fitted spec replaces whatever the trace embeds, and an
/// explicit `analytic` clears it (forcing the native durations).
fn apply_cost_model_override(trace: &mut Trace, arg: &str) -> Result<(), String> {
    let spec = load_cost_model(arg)?;
    trace.cost_model = (!spec.is_analytic()).then_some(spec);
    Ok(())
}

fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    let (args, backend_flag) = take_value_flag(args, "backend")?;
    let (args, out_flag) = take_value_flag(&args, "out")?;
    if args.is_empty() {
        return Err(
            "expected at least one trace file; usage: dts calibrate <trace.json>... \
             [--backend regression|history] [--out <file>]"
                .into(),
        );
    }
    let backend = backend_flag.as_deref().unwrap_or("regression");
    let mut observations = CalibrationObservations::default();
    for path in &args {
        let mut trace = load_trace(path)?;
        // Calibration reads the trace's *native* durations: an embedded
        // cost model would make the fit chase its own predictions.
        trace.cost_model = None;
        let instance = trace
            .to_instance_scaled(1.0)
            .map_err(|e| format!("cannot build an instance from {path}: {e}"))?;
        observations.extend(perfmodel::observations_of(&instance));
        println!("loaded             {path} ({} tasks)", instance.len());
    }
    let spec = match backend {
        "regression" => observations.fit_regression(),
        "history" => observations.fit_history(),
        other => {
            return Err(format!(
                "unknown backend '{other}'; expected regression or history"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    // Residual report: how well the fitted model re-predicts the very
    // observations it was fitted from, per observation kind. The scaled
    // integer fields keep the lines stable and greppable (100 bp = 1 %,
    // 1_000_000 ppm = perfect R^2).
    let probe = |bytes| {
        Task::new(
            "probe",
            Time::from_micros(0),
            Time::from_micros(0),
            MemSize::from_bytes(bytes),
        )
    };
    let transfer = perfmodel::fit_quality(&observations.transfer, |bytes| {
        spec.transfer_time(&probe(bytes), perfmodel::LinkClass::HostToDevice)
            .ticks()
    });
    let compute = perfmodel::fit_quality(&observations.compute, |bytes| {
        spec.compute_time(&probe(bytes), perfmodel::ComputeBackend::Cpu)
            .ticks()
    });
    println!("backend            {}", spec.backend_name());
    for (kind, report) in [("transfer fit", &transfer), ("compute fit", &compute)] {
        println!(
            "{kind:<18} samples={} skipped_zero={} mean_rel_err_bp={} r2_ppm={}",
            report.samples, report.skipped_zero, report.mean_rel_err_bp, report.r2_ppm
        );
    }
    if let Some(out) = out_flag {
        perfmodel::export_model_file(&spec, std::path::Path::new(&out))
            .map_err(|e| e.to_string())?;
        println!("wrote              {out}");
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let (args, update) = take_bool_flag(args, "update-golden");
    let (args, golden_flag) = take_value_flag(&args, "golden")?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    if let Some(stray) = args.first() {
        return Err(format!(
            "unexpected argument '{stray}'; usage: dts corpus [--update-golden] [--golden <path>] \
             [--cost-model <file|analytic>]"
        ));
    }
    if let Some(arg) = &cost_model_flag {
        let spec = load_cost_model(arg)?;
        if update {
            return Err(
                "--update-golden cannot be combined with --cost-model: the golden file \
                 pins the analytic baseline only"
                    .into(),
            );
        }
        if spec.is_analytic() {
            // `analytic` is exactly the golden configuration; fall through
            // to the normal golden diff below.
        } else {
            // What-if view: the same suite under re-predicted durations,
            // rendered in the golden format but never compared against
            // (or written to) the golden file.
            let current = corpus::run_corpus_with(Some(&spec)).map_err(|e| e.to_string())?;
            println!(
                "what-if corpus under the {} cost model ({} entries, not diffed against the golden):",
                spec.backend_name(),
                current.len()
            );
            print!("{}", corpus::render_golden(&current));
            return Ok(());
        }
    }
    let golden_path = golden_flag
        .map(std::path::PathBuf::from)
        .unwrap_or_else(corpus::default_golden_path);
    let current = corpus::run_corpus().map_err(|e| e.to_string())?;
    if update {
        std::fs::write(&golden_path, corpus::render_golden(&current)).map_err(|e| e.to_string())?;
        println!(
            "blessed {} corpus entries into {}",
            current.len(),
            golden_path.display()
        );
        return Ok(());
    }
    let golden_json = std::fs::read_to_string(&golden_path).map_err(|e| {
        format!(
            "cannot read golden file {}: {e}\n(run `dts corpus --update-golden` to create it)",
            golden_path.display()
        )
    })?;
    let golden = corpus::parse_golden(&golden_json).map_err(|e| e.to_string())?;
    let report = corpus::compare(&current, &golden);
    if report.is_clean() {
        println!(
            "corpus clean: {} entries match {}",
            current.len(),
            golden_path.display()
        );
        Ok(())
    } else {
        Err(format!("corpus drifted from golden:\n{}", report.render()))
    }
}

/// Parses a numeric flag value with a flag-specific error message.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag} expects a number, got '{value}'"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (args, addr_flag) = take_value_flag(args, "addr")?;
    let (args, threads_flag) = take_value_flag(&args, "threads")?;
    let (args, depth_flag) = take_value_flag(&args, "queue-depth")?;
    let (args, tasks_flag) = take_value_flag(&args, "max-tasks")?;
    let (args, cache_flag) = take_value_flag(&args, "cache-entries")?;
    if let Some(stray) = args.first() {
        return Err(format!(
            "unexpected argument '{stray}'; usage: dts serve [--addr <host:port>] \
             [--threads <n>] [--queue-depth <n>] [--max-tasks <n>] [--cache-entries <n>]"
        ));
    }
    let mut config = ServerConfig {
        addr: addr_flag.unwrap_or_else(|| "127.0.0.1:7421".to_string()),
        ..ServerConfig::default()
    };
    if let Some(v) = threads_flag {
        config.threads = parse_flag("threads", &v)?;
    }
    if let Some(v) = depth_flag {
        config.queue_depth = parse_flag("queue-depth", &v)?;
    }
    if let Some(v) = tasks_flag {
        config.max_tasks = parse_flag("max-tasks", &v)?;
    }
    if let Some(v) = cache_flag {
        config.cache_entries = parse_flag("cache-entries", &v)?;
    }
    let handle = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    // The bound address is the first line of output, so scripts (and the
    // e2e tests) can bind port 0 and discover the port.
    println!("dts serve listening on {}", handle.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // Serve until killed; the daemon threads own all the work.
    loop {
        std::thread::park();
    }
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    let (args, model) = take_model_flag(args)?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    let (args, tasks_flag) = take_value_flag(&args, "tasks")?;
    let (args, seed_flag) = take_value_flag(&args, "seed")?;
    let (args, skew_flag) = take_value_flag(&args, "skew")?;
    let (args, rank_flag) = take_value_flag(&args, "rank")?;
    let addr = args
        .first()
        .ok_or("expected a daemon address (host:port)")?;
    let source_arg = args
        .get(1)
        .ok_or("expected a trace file or a family name")?;
    let heuristic_name = args.get(2).ok_or("expected a heuristic name")?;
    let factor: f64 = args
        .get(3)
        .map(|s| s.parse().map_err(|_| "factor must be a number"))
        .transpose()?
        .unwrap_or(1.5);
    let heuristic = Heuristic::from_name(heuristic_name)
        .ok_or_else(|| format!("unknown heuristic '{heuristic_name}'"))?;

    let source = if let Some(family) = WorkloadFamily::from_name(source_arg) {
        let mut config = GeneratorConfig::new(family);
        if let Some(tasks) = &tasks_flag {
            config.n_tasks = parse_flag("tasks", tasks)?;
        }
        if let Some(seed) = &seed_flag {
            config.seed = parse_flag("seed", seed)?;
        }
        if let Some(skew) = &skew_flag {
            config.skew = Some(parse_flag("skew", skew)?);
        }
        let rank = match &rank_flag {
            Some(rank) => parse_flag("rank", rank)?,
            None => 0,
        };
        TraceSource::Family { config, rank }
    } else {
        for (flag, value) in [
            ("--tasks", &tasks_flag),
            ("--seed", &seed_flag),
            ("--skew", &skew_flag),
            ("--rank", &rank_flag),
        ] {
            if value.is_some() {
                return Err(format!("{flag} only applies to family requests"));
            }
        }
        // Mirror the daemon's typed error shape for a trace that cannot
        // even be loaded client-side: the bracketed code is the same
        // `invalid-trace` the daemon would answer with (`ErrorCode::
        // InvalidTrace`), so scripts dispatch on one spelling either way.
        TraceSource::Inline(Trace::load(source_arg).map_err(|e| {
            format!(
                "[{}] cannot load {source_arg}: {e}",
                dts_server::ErrorCode::InvalidTrace
            )
        })?)
    };

    let cost_model = match &cost_model_flag {
        // An explicit `analytic` is sent as `Some(Analytic)`: on the wire
        // it overrides (clears) whatever cost model the trace embeds,
        // which an absent field would leave in force.
        Some(arg) => Some(load_cost_model(arg)?),
        None => None,
    };
    let request = SolveRequest {
        source,
        heuristic,
        model,
        cost_model,
        factor,
    };
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    let response = client.send_request(&request).map_err(|e| e.to_string())?;
    print!("{}", render_response(&response)?);
    Ok(())
}

/// Renders a daemon reply; an error reply becomes the process error. The
/// reply is read with the strict document reader: an unknown, repeated or
/// missing key in either envelope or in `result` is a "malformed daemon
/// response" error naming the key.
fn render_response(response: &Value) -> Result<String, String> {
    fn malformed(msg: String) -> String {
        format!("malformed daemon response: {msg}")
    }
    let at = At::Root("reply", malformed);
    if !matches!(response.field("status"), Ok(Value::Str(s)) if s == "ok") {
        let [status, code, message] = doc::keyed(response, &["status", "code", "message"], at)?;
        let status = doc::string(status, "status", at)?;
        if status != "error" {
            let at = at.key("status");
            return Err(at.error(format!("{at} must be `ok` or `error`, got `{status}`")));
        }
        return Err(format!(
            "daemon error [{}]: {}",
            doc::string(code, "code", at)?,
            doc::string(message, "message", at)?
        ));
    }
    let [_, cached, digest, result] =
        doc::keyed(response, &["status", "cached", "digest", "result"], at)?;
    let cached = doc::boolean(cached, "cached", at)?;
    let digest = doc::string(digest, "digest", at)?;
    let result =
        result.ok_or_else(|| at.error(format!("{at} is missing required key `result`")))?;
    let at = at.key("result");
    let [heuristic, model, n_tasks, makespan, comm_idle, comp_idle, schedule] = doc::keyed(
        result,
        &[
            "heuristic",
            "model",
            "n_tasks",
            "makespan_us",
            "comm_idle_us",
            "comp_idle_us",
            "schedule",
        ],
        at,
    )?;
    doc::object(schedule, "schedule", at)?;
    Ok(format!(
        "status             ok\n\
         cached             {cached}\n\
         digest             {digest}\n\
         heuristic          {}\n\
         model              {}\n\
         tasks              {}\n\
         makespan           {} us\n\
         comm idle          {} us\n\
         comp idle          {} us\n",
        doc::string(heuristic, "heuristic", at)?,
        doc::string(model, "model", at)?,
        doc::uint(n_tasks, "n_tasks", at)?,
        doc::uint(makespan, "makespan_us", at)?,
        doc::uint(comm_idle, "comm_idle_us", at)?,
        doc::uint(comp_idle, "comp_idle_us", at)?,
    ))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expected a trace file")?;
    let trace = load_trace(path)?;
    let c = characterize(&trace).map_err(|e| e.to_string())?;
    println!("kernel             {}", trace.kernel);
    println!("rank               {}", trace.rank);
    println!("tasks              {}", c.n_tasks);
    println!("OMIM               {} us", c.omim.ticks());
    println!("sum comm / OMIM    {:.4}", c.sum_comm_ratio);
    println!("sum comp / OMIM    {:.4}", c.sum_comp_ratio);
    println!("max / OMIM         {:.4}", c.max_ratio);
    println!("sum / OMIM         {:.4}", c.sum_ratio);
    println!("max overlap gain   {:.1} %", 100.0 * c.max_overlap_gain());
    println!("mc                 {}", c.min_capacity);
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (args, model_override) = take_model_flag(args)?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    let path = args.first().ok_or("expected a trace file")?;
    let heuristic_name = args.get(1).ok_or("expected a heuristic name")?;
    let factor: f64 = args
        .get(2)
        .map(|s| s.parse().map_err(|_| "factor must be a number"))
        .transpose()?
        .unwrap_or(1.5);
    // `to_instance_scaled` reports this too, but catching it before the
    // trace is even loaded gives a faster failure with the same message.
    if !factor.is_finite() || factor < 0.0 {
        return Err(CoreError::InvalidCapacityFactor(factor.to_string()).to_string());
    }
    let heuristic = Heuristic::from_name(heuristic_name)
        .ok_or_else(|| format!("unknown heuristic '{heuristic_name}'"))?;
    let mut trace = load_trace(path)?;
    if let Some(arg) = &cost_model_flag {
        apply_cost_model_override(&mut trace, arg)?;
    }
    let mut instance = trace
        .to_instance_scaled(factor)
        .map_err(|e| e.to_string())?;
    if let Some(model) = model_override {
        instance = instance.with_model(model).map_err(|e| e.to_string())?;
    }
    let omim = johnson_makespan(&instance);
    let schedule = run_heuristic(&instance, heuristic).map_err(|e| e.to_string())?;
    let makespan = schedule.makespan(&instance);
    println!("heuristic          {heuristic}");
    println!("model              {}", instance.model());
    println!("cost model         {}", instance.cost_model());
    println!(
        "capacity           {} ({}x mc)",
        instance.capacity(),
        factor
    );
    println!("makespan           {} us", makespan.ticks());
    println!("OMIM               {} us", omim.ticks());
    println!("ratio to optimal   {:.4}", makespan.ratio(omim));
    let metrics = ScheduleMetrics::of(&instance, &schedule);
    println!(
        "overlap fraction   {:.1} %",
        100.0 * metrics.overlap_fraction()
    );
    println!("comm idle          {} us", metrics.comm_idle.ticks());
    println!("comp idle          {} us", metrics.comp_idle.ticks());
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expected a trace file")?;
    let trace = load_trace(path)?;
    let config = SweepConfig {
        heuristics: Heuristic::ALL.to_vec(),
        factors: capacity_factors(),
    };
    let rows = run_trace_sweep(&trace, &config).map_err(|e| e.to_string())?;
    print!("{}", sweep_to_csv(&rows));
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    for (label, instance) in [
        ("Table 3 (capacity 6)", dts_core::instances::table3()),
        ("Table 4 (capacity 6)", dts_core::instances::table4()),
        ("Table 5 (capacity 9)", dts_core::instances::table5()),
    ] {
        println!("== {label} ==");
        let omim = johnson_makespan(&instance);
        for heuristic in [Heuristic::OOSIM, Heuristic::MAMR, Heuristic::OOLCMR] {
            let schedule = run_heuristic(&instance, heuristic).map_err(|e| e.to_string())?;
            println!(
                "{} — makespan {} (OMIM {}):\n{}",
                heuristic,
                schedule.makespan(&instance),
                omim,
                gantt::render(
                    &instance,
                    &schedule,
                    gantt::GanttOptions {
                        width: 60,
                        with_table: false
                    }
                )
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"status":"ok","cached":true,"digest":"d1","result":{"heuristic":"OS","model":"explicit","n_tasks":2,"makespan_us":30,"comm_idle_us":4,"comp_idle_us":5,"schedule":{"entries":[]}}}"#;

    fn render(json: &str) -> Result<String, String> {
        render_response(&serde_json::from_str(json).unwrap())
    }

    #[test]
    fn replies_are_read_strictly() {
        let text = render(OK).unwrap();
        assert!(text.starts_with("status             ok\ncached             true\n"));
        assert!(text.ends_with("comp idle          5 us\n"));
        assert_eq!(
            render(r#"{"status":"error","code":"infeasible","message":"no"}"#).unwrap_err(),
            "daemon error [infeasible]: no"
        );
        for (json, needle) in [
            (
                OK.replace("\"digest\"", "\"digets\""),
                "unknown key `digets`",
            ),
            (
                OK.replace("\"n_tasks\":2", "\"n_tasks\":2,\"n_tasks\":3"),
                "result repeats key `n_tasks`",
            ),
            (
                OK.replace(",\"comp_idle_us\":5", ""),
                "result is missing required key `comp_idle_us`",
            ),
            (
                r#"{"status":"error","code":"x"}"#.to_string(),
                "missing required key `message`",
            ),
        ] {
            let err = render(&json).unwrap_err();
            assert!(
                err.starts_with("malformed daemon response: ") && err.contains(needle),
                "{json}: {err}"
            );
        }
    }
}
