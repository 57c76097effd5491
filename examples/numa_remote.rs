//! NUMA locality detection (§4.3, §7.5, §7.6): find objects whose pages live on the
//! wrong node, apply the placement fix, and measure the improvement.
//!
//! ```text
//! cargo run --example numa_remote
//! ```

use djx_workloads::numa::{DruidBitmapWorkload, EclipseCollectionsWorkload};
use djx_workloads::runner::{run_profiled, run_session, speedup};
use djx_workloads::{Variant, Workload};
use djxperf::{ProfilerConfig, Query, RankBy, Report, ReportOptions};

fn study(
    name: &str,
    class_name: &str,
    paper_remote: &str,
    paper_speedup: &str,
    build: impl Fn(Variant) -> Box<dyn Workload>,
) {
    let config = ProfilerConfig::default().with_period(128);
    // One pass yields the object profile and the NUMA collector's traffic matrix.
    let baseline = run_session(build(Variant::Baseline).as_ref(), config);
    let optimized = run_profiled(build(Variant::Optimized).as_ref(), config);

    println!("== {name} ==");
    // The NUMA view: the node-to-node traffic matrix, then the objects ranked by
    // remote samples — a Query over the object profile, the one per-object ranking.
    let numa = baseline.session.numa_profile().expect("numa collector registered");
    let remote = Query::new()
        .rank_by(RankBy::RemoteSamples)
        .evaluate(&baseline.profile)
        .expect("an owned profile always evaluates");
    let options = ReportOptions { top_objects: 3, ..ReportOptions::default() };
    println!("{}", Report::numa_view(&numa, &remote, &baseline.methods).with_options(options));

    let base_obj = baseline.report.find_class(class_name);
    let opt_obj = optimized.report.find_class(class_name);
    let base_remote = base_obj.map(|o| o.remote_fraction).unwrap_or(0.0);
    let opt_remote = opt_obj.map(|o| o.remote_fraction).unwrap_or(0.0);
    println!(
        "remote fraction of {class_name}: baseline {:.1}% (paper: {paper_remote}) -> optimized {:.1}%",
        base_remote * 100.0,
        opt_remote * 100.0
    );
    println!(
        "remote DRAM accesses (machine-wide): {} -> {}",
        baseline.outcome.hierarchy.remote_dram_accesses,
        optimized.outcome.hierarchy.remote_dram_accesses
    );
    println!(
        "placement fix speedup: {:.2}x (paper: {paper_speedup})\n",
        speedup(&baseline.outcome, &optimized.outcome)
    );
}

fn main() {
    study(
        "Eclipse Collections: Integer[] result allocated/initialized by the master thread",
        "Integer[] (result)",
        "73.4% remote",
        "1.13x",
        |v| Box::new(EclipseCollectionsWorkload::new(v)),
    );
    study(
        "Apache Druid: BitSet bitmap initialized in the constructor, iterated by query threads",
        "long[] (bitmap)",
        ">50% remote",
        "1.75x",
        |v| Box::new(DruidBitmapWorkload::new(v)),
    );
    println!(
        "DJXPerf flags the objects by comparing, per PMU sample, the NUMA node owning the\n\
         touched page (move_pages) with the node of the sampling CPU (PERF_SAMPLE_CPU);\n\
         the fixes are interleaved allocation (Eclipse) and first-touch parallel\n\
         initialization (Druid)."
    );
}
