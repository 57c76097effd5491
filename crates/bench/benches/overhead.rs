//! End-to-end overhead microbenchmark: one representative catalog benchmark simulated
//! with no profiler, with DJXPerf at the evaluation period, and with DJXPerf monitoring
//! every allocation (S = 0) — the Criterion companion to the `fig4_overhead` and
//! `ablation_size_filter` harnesses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use djx_bench::{evaluation_profiler, EVALUATION_PERIOD};
use djx_workloads::runner::{run_profiled, run_unprofiled};
use djx_workloads::suite::suite_catalog;
use djx_workloads::suite::SyntheticAppWorkload;
use djxperf::ProfilerConfig;

fn workload() -> SyntheticAppWorkload {
    let bench = suite_catalog()
        .into_iter()
        .find(|b| b.name == "mnemonics")
        .expect("catalog entry");
    let mut w = bench.build();
    w.operations = 60; // keep each Criterion iteration short
    w
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_overhead");
    group.sample_size(10);
    let w = workload();

    group.bench_function("unprofiled", |b| b.iter(|| black_box(run_unprofiled(&w).stats.accesses)));

    group.bench_function(format!("djxperf_period_{EVALUATION_PERIOD}"), |b| {
        b.iter(|| black_box(run_profiled(&w, evaluation_profiler()).profile.total_samples()))
    });

    group.bench_function("djxperf_monitor_all_objects", |b| {
        b.iter(|| {
            black_box(
                run_profiled(&w, ProfilerConfig { size_filter: 0, ..evaluation_profiler() })
                    .profile
                    .total_samples(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
