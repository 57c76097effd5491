//! Figure 1 — code-centric vs object-centric profiling of the same execution.
//!
//! Runs the synthetic Figure 1 access mix under one multi-collector session — a single
//! sampling stream feeding both the code-centric baseline collector and the
//! object-centric collector — and prints the two rankings side by side: the hottest
//! single instruction (`Ic`, ~24% of misses) versus the hottest object (`O1`, ~50% of
//! misses). Before the session API this comparison required attaching two independent
//! profilers, each with its own per-thread PMUs.

use djx_bench::prelude::*;
use djx_runtime::Runtime;
use djx_workloads::figure1::{expected_object_percent, Figure1Workload, FIGURE1_SITES};
use djxperf::Session;

fn main() {
    let workload = Figure1Workload::new();
    let mut rt = Runtime::new(workload.runtime_config());

    let session = Session::builder().period(8).collect_objects().collect_code().attach(&mut rt);

    workload.run(&mut rt).expect("figure 1 workload");
    rt.shutdown();

    println!("== Figure 1: the same execution, two attributions, one sampling pass ==\n");

    // (b) code-centric profiling.
    let code_profile = session.code_profile().expect("object collector registered");
    let mut code_table = Table::new(&["instruction", "paper share", "measured share"]);
    for location in code_profile.top_locations(10) {
        let name = location
            .leaf
            .map(|f| rt.methods().get(f.method).map(|m| m.name.clone()).unwrap_or_default())
            .unwrap_or_default();
        let paper = FIGURE1_SITES
            .iter()
            .find(|s| s.instruction == name)
            .map(|s| format!("{}%", s.percent))
            .unwrap_or_default();
        code_table.row(&[name, paper, fmt_percent(location.fraction)]);
    }
    println!("(b) code-centric profiling (perf-like):");
    println!("{}", code_table.render());

    // (c) object-centric profiling, from the same samples.
    let profile = session.object_profile().expect("object collector registered");
    let report = Query::new().evaluate(&profile).unwrap();
    let mut object_table = Table::new(&["object", "paper share", "measured share", "access sites"]);
    for obj in &report.groups {
        let paper = (1..=3)
            .find(|i| obj.label == format!("Object O{i}"))
            .map(|i| format!("{}%", expected_object_percent(i)))
            .unwrap_or_default();
        object_table.row(&[
            obj.label.clone(),
            paper,
            fmt_percent(obj.fraction_of_total),
            obj.contexts.len().to_string(),
        ]);
    }
    println!("(c) object-centric profiling (DJXPerf):");
    println!("{}", object_table.render());

    let hottest_code = fmt_percent(code_profile.hottest_location_fraction());
    let hottest_object = fmt_percent(report.hottest().map(|o| o.fraction_of_total).unwrap_or(0.0));
    println!(
        "hottest instruction: {hottest_code}   hottest object: {hottest_object}   (paper: 24% vs 50%)"
    );
    let on_anchor = hottest_code == "24.0%" && hottest_object == "50.0%";
    println!("\nFull object-centric report for the top object:\n");
    println!(
        "{}",
        Report::query(&report, rt.methods()).with_options(ReportOptions {
            top_objects: 1,
            top_contexts: 6,
            full_alloc_paths: true
        })
    );
    if !on_anchor {
        eprintln!("fig1_motivation: missed the paper anchor (hottest instruction 24.0%, hottest object 50.0%)");
        std::process::exit(1);
    }
}
