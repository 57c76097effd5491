//! Figure 4 — DJXPerf's runtime (4a) and memory (4b) overheads over the 50-benchmark
//! catalog (Renaissance 0.10, Dacapo 9.12, SPECjvm2008), four application threads,
//! default size filter.
//!
//! Prints one row per benchmark with the measured runtime/memory overhead next to the
//! paper's numbers, and the geomean/median summary rows of the figure's caption
//! (paper: ~1.15× geomean / 1.08× median runtime, ~1.06× geomean / 1.05× median memory).
//!
//! Options:
//! * `--quick`     measure only every fourth benchmark (fast smoke run)
//! * `--reps N`    repetitions per benchmark (default 3, median wall time is used)

use djx_bench::prelude::*;
use djx_workloads::suite::suite_catalog;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_REPETITIONS);

    let config = evaluation_profiler();
    let catalog = suite_catalog();
    let selected: Vec<_> = catalog
        .iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 4 == 0)
        .map(|(_, b)| b)
        .collect();

    println!(
        "== Figure 4: profiler overhead over {} benchmarks ({} repetitions, period {}) ==\n",
        selected.len(),
        reps,
        EVALUATION_PERIOD
    );

    let mut table = Table::new(&[
        "benchmark",
        "suite",
        "runtime ovh",
        "paper 4a",
        "memory ovh",
        "paper 4b",
        "alloc callbacks",
        "samples",
    ]);
    let mut points = Vec::new();
    for bench in selected {
        let point = measure_overhead_point(bench, config, reps);
        table.row(&[
            point.name.clone(),
            point.suite.clone(),
            fmt_ratio(point.runtime_overhead),
            fmt_ratio(point.paper_runtime_overhead),
            fmt_ratio(point.memory_overhead),
            fmt_ratio(point.paper_memory_overhead),
            point.allocation_callbacks.to_string(),
            point.samples.to_string(),
        ]);
        points.push(point);
    }
    println!("{}", table.render());

    let summary = summarize_overhead(&points);
    let paper_runtime: Vec<f64> = points.iter().map(|p| p.paper_runtime_overhead).collect();
    let paper_memory: Vec<f64> = points.iter().map(|p| p.paper_memory_overhead).collect();
    println!(
        "Figure 4a (runtime): measured geomean {} / median {}   paper geomean {} / median {}",
        fmt_ratio(summary.runtime_geomean),
        fmt_ratio(summary.runtime_median),
        fmt_ratio(geometric_mean(&paper_runtime)),
        fmt_ratio(median(&paper_runtime)),
    );
    println!(
        "Figure 4b (memory):  measured geomean {} / median {}   paper geomean {} / median {}",
        fmt_ratio(summary.memory_geomean),
        fmt_ratio(summary.memory_median),
        fmt_ratio(geometric_mean(&paper_memory)),
        fmt_ratio(median(&paper_memory)),
    );

    // The paper attributes the >30% outliers to allocation-callback-heavy benchmarks;
    // verify the same correlation holds in the reproduction.
    let mut sorted = points.clone();
    sorted.sort_by(|a, b| b.runtime_overhead.partial_cmp(&a.runtime_overhead).unwrap());
    println!(
        "\nHighest measured runtime overheads (expected to be the allocation-heavy benchmarks):"
    );
    for p in sorted.iter().take(5) {
        println!(
            "  {:<22} {}  ({} allocation callbacks)",
            p.name,
            fmt_ratio(p.runtime_overhead),
            p.allocation_callbacks
        );
    }

    // The profiler's self-monitoring view of sample resolution: shard lookups (the
    // hot path) and read-only lookups, merged over every index shard and benchmark.
    let mut splay = LookupStats::default();
    for p in &points {
        splay.merge(&p.splay);
    }
    println!("\nObject-index resolution over the whole catalog: {splay}");
}
