//! Listings 1–2 (§1.1) — hot vs cold memory bloat.
//!
//! Profiles the batik `nvals` and lusearch `collector` kernels, prints each object's
//! share of sampled L1 misses and allocation count, and measures the whole-program
//! speedup of the singleton-pattern fix for both — reproducing the paper's point that
//! allocation frequency alone does not predict whether the optimization pays off.

use djx_bench::prelude::*;
use djx_workloads::bloat::{BatikNvalsWorkload, LusearchCollectorWorkload};

fn main() {
    let config = evaluation_profiler().with_period(256);
    let mut table = Table::new(&[
        "listing",
        "object",
        "allocations",
        "miss share",
        "paper miss share",
        "measured speedup",
        "paper speedup",
    ]);

    let batik = measure_case_study(
        "Listing 1: batik makeRoom",
        "float[] (nvals)",
        1.15,
        |v| Box::new(BatikNvalsWorkload::new(v)),
        config,
    );
    table.row(&[
        batik.name.clone(),
        batik.problem_class.clone(),
        batik.allocations.to_string(),
        fmt_percent(batik.object_fraction),
        "21%".to_string(),
        fmt_ratio(batik.measured_speedup),
        fmt_ratio(batik.paper_speedup),
    ]);

    let lusearch = measure_case_study(
        "Listing 2: lusearch search",
        "TopDocCollector",
        1.0,
        |v| Box::new(LusearchCollectorWorkload::new(v)),
        config,
    );
    table.row(&[
        lusearch.name.clone(),
        lusearch.problem_class.clone(),
        lusearch.allocations.to_string(),
        fmt_percent(lusearch.object_fraction),
        "<1%".to_string(),
        fmt_ratio(lusearch.measured_speedup),
        fmt_ratio(lusearch.paper_speedup),
    ]);

    println!("== Listings 1-2: memory bloat needs PMU metrics, not just allocation counts ==\n");
    println!("{}", table.render());
    println!(
        "Both objects are allocated thousands of times in loops; only the one with a\n\
         significant share of cache misses rewards the singleton-pattern optimization."
    );

    // Also show DJXPerf's report for the batik object, the paper's Listing 1 narrative.
    let run = run_profiled(&BatikNvalsWorkload::new(Variant::Baseline), config);
    println!("\nDJXPerf report for Listing 1 (baseline batik kernel):\n");
    println!(
        "{}",
        Report::query(&run.report, &run.methods).with_options(ReportOptions {
            top_objects: 2,
            top_contexts: 3,
            full_alloc_paths: true
        })
    );
}
