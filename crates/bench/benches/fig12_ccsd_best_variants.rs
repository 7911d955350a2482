//! Fig. 12: best variant of each heuristic category on the CCSD traces.

use criterion::{criterion_group, Criterion};
use dts_bench::{bench_traces, run_best_variant_experiment};
use dts_chem::Kernel;
use dts_heuristics::{run_heuristic, Heuristic, HeuristicCategory};

fn bench(c: &mut Criterion) {
    run_best_variant_experiment(Kernel::Ccsd, false);
    let trace = bench_traces(Kernel::Ccsd).into_iter().next().unwrap();
    let instance = trace.to_instance_scaled(1.5).unwrap();
    c.bench_function("fig12/best_static_dynamic_ccsd", |b| {
        b.iter(|| {
            Heuristic::in_category(HeuristicCategory::StaticDynamic)
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
dts_bench::harness_main!("fig12_ccsd_best_variants", benches);
