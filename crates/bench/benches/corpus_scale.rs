//! Corpus scale: generator throughput and scheduling throughput on the
//! synthetic workload families.
//!
//! Three questions the HF/CCSD benches cannot answer:
//!
//! * how fast do the `dts_workloads` generators themselves produce
//!   traces at scale (they gate every corpus and property run),
//! * how fast does the one strict trace reader, `Trace::from_json`, read
//!   a generated MD trace back (ingest dominates a `dts run` on a large
//!   trace), and
//! * how does the decision engine behave on the corpus *shapes* — the
//!   near-uniform MD flood, the memory-cliff near-sequential regime, the
//!   transfer-bound link-contention regime — rather than on the paper's
//!   chemistry tiling?
//!
//! Smoke runs pin the 2k-task tier; full runs add the 20k tier. Set
//! `DTS_BENCH_SCALE_MAX` (tasks) to cap the largest tier attempted.

use criterion::{criterion_group, Criterion};
use dts_chem::Trace;
use dts_core::ExecutionModel;
use dts_heuristics::{run_heuristic_with, Heuristic};
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};

/// Same widened allowance as the other scale benches: allocator and cache
/// behavior dominates at tens of thousands of tasks.
const SCALE_NOISE_THRESHOLD: f64 = 6.0;

/// One representative heuristic per category tier: the submission-order
/// baseline, the strongest static order and the paper's best dynamic
/// variant.
const HEURISTICS: [Heuristic; 3] = [Heuristic::OS, Heuristic::LCMR, Heuristic::OOMAMR];

/// The corpus execution models with filename-safe labels (mirrors the
/// overlap_strategies bench).
const MODELS: [(&str, ExecutionModel); 4] = [
    ("explicit", ExecutionModel::Explicit),
    ("duplex", ExecutionModel::Duplex),
    ("streams4", ExecutionModel::Streams { k: 4 }),
    ("implicit", ExecutionModel::IMPLICIT_FULL),
];

fn user_cap() -> Option<usize> {
    std::env::var("DTS_BENCH_SCALE_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn max_tasks() -> usize {
    let default = if criterion::smoke_mode() {
        // 2k tasks per family keeps the whole family x heuristic x model
        // grid in tens of milliseconds per sample — cheap enough for the
        // CI smoke gate while still dominated by the decision loop.
        2_000
    } else {
        20_000
    };
    user_cap().unwrap_or(default)
}

/// The per-family capacity factors of the corpus scenarios, kept here in
/// bench-local form so a corpus-scenario change shows up as an explicit
/// bench diff rather than silently moving the baselines.
fn capacity_factor(family: WorkloadFamily) -> f64 {
    match family {
        WorkloadFamily::MdLike => 24.0,
        WorkloadFamily::DenseLa => 1.25,
        WorkloadFamily::TieHeavy => 2.0,
        WorkloadFamily::MemoryCliff => 1.0,
        WorkloadFamily::TransferBound => 1.5,
    }
}

fn bench(c: &mut Criterion) {
    let cap = max_tasks();
    for n_tasks in [2_000usize, 20_000] {
        if n_tasks > cap {
            println!("corpus_scale: skipping the {n_tasks}-task tier (cap {cap})");
            continue;
        }
        for family in WorkloadFamily::ALL {
            let mut config = GeneratorConfig::new(family);
            config.n_tasks = n_tasks;
            config.seed = 42;
            // Generator throughput: the full trace, including task
            // materialization and the family's shaping passes.
            c.bench_function(&format!("corpus/generate_{family}_{n_tasks}tasks"), |b| {
                b.iter(|| {
                    generate_trace(&config, 0)
                        .expect("seeded generation succeeds")
                        .len()
                })
            });
            let trace = generate_trace(&config, 0).expect("seeded generation succeeds");
            if family == WorkloadFamily::MdLike {
                // Reader throughput: parse plus every strict check, on the
                // many-small-tasks shape where ingest dominates a run.
                let json = trace.to_json().expect("generated traces are written");
                c.bench_function(&format!("corpus/read_{family}_{n_tasks}tasks"), |b| {
                    b.iter(|| {
                        Trace::from_json(&json)
                            .expect("written traces read back")
                            .len()
                    })
                });
            }
            let instance = trace
                .to_instance_scaled(capacity_factor(family))
                .expect("corpus factors are feasible");
            for heuristic in HEURISTICS {
                for (mname, model) in MODELS {
                    c.bench_function(
                        &format!(
                            "corpus/{family}_{}_{mname}_{n_tasks}tasks",
                            heuristic.name()
                        ),
                        |b| {
                            b.iter(|| {
                                run_heuristic_with(&instance, heuristic, model)
                                    .expect("heuristic runs")
                                    .makespan(&instance)
                            })
                        },
                    );
                }
            }
        }
    }
}

criterion_group! {
    name = benches;
    // Mirrors the other scale benches: five smoke samples for meaningful
    // confidence intervals, two full-run samples so the 20k tier finishes
    // in seconds.
    config = Criterion::default()
        .sample_size(if criterion::smoke_mode() { 5 } else { 2 })
        .noise_threshold(SCALE_NOISE_THRESHOLD);
    targets = bench
}
dts_bench::harness_main!("corpus_scale", benches);
