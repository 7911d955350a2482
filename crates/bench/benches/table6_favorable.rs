//! Table 6: favorable situations per heuristic category — mean ratio of the
//! best variant of each category as the memory capacity grows.

use criterion::{criterion_group, Criterion};
use dts_analysis::experiment::category_means;
use dts_bench::{bench_traces, quick_factors};
use dts_chem::Kernel;
use dts_heuristics::{run_heuristic, Heuristic, HeuristicCategory};

fn report() {
    for kernel in [Kernel::HartreeFock, Kernel::Ccsd] {
        let traces = bench_traces(kernel);
        let means = category_means(&traces, &quick_factors()).unwrap();
        println!(
            "Table 6 — {} mean ratio of each category by capacity factor",
            kernel.name()
        );
        for (factor, labels) in means {
            let line: Vec<String> = labels.iter().map(|(l, m)| format!("{l}={m:.4}")).collect();
            println!("  {factor:.3} x mc: {}", line.join("  "));
        }
    }
}

fn bench(c: &mut Criterion) {
    report();
    let trace = bench_traces(Kernel::Ccsd).into_iter().next().unwrap();
    let instance = trace.to_instance_scaled(1.25).unwrap();
    c.bench_function("table6/best_dynamic_ccsd", |b| {
        b.iter(|| {
            Heuristic::in_category(HeuristicCategory::Dynamic)
                .into_iter()
                .map(|h| run_heuristic(&instance, h).unwrap().makespan(&instance))
                .min()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
dts_bench::harness_main!("table6_favorable", benches);
