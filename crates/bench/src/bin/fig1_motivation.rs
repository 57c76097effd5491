//! Figure 1 — code-centric vs object-centric profiling of the same execution.
//!
//! Runs the synthetic Figure 1 access mix under one session — a single sampling stream
//! recorded once per sample — and prints two queries over that record side by side:
//! grouped by calling context, the code-centric baseline's hottest single instruction
//! (`Ic`, ~24% of misses), and grouped by object, the hottest object (`O1`, ~50% of
//! misses). Before the session API this comparison required attaching two independent
//! profilers, each with its own per-thread PMUs.

use djx_bench::prelude::*;
use djx_runtime::Runtime;
use djx_workloads::figure1::{expected_object_percent, Figure1Workload, FIGURE1_SITES};
use djxperf::{GroupBy, GroupKey, Session};

fn main() {
    let workload = Figure1Workload::new();
    let mut rt = Runtime::new(workload.runtime_config());

    let session = Session::builder().period(8).collect_objects().attach(&mut rt);

    workload.run(&mut rt).expect("figure 1 workload");
    rt.shutdown();

    println!("== Figure 1: the same execution, two attributions, one sampling pass ==\n");

    // (b) code-centric profiling.
    let profile = session.object_profile().expect("object collector registered");
    let code = Query::new().group_by(GroupBy::Context).top(10).evaluate(&profile).unwrap();
    let mut code_table = Table::new(&["instruction", "paper share", "measured share"]);
    for location in &code.groups {
        let GroupKey::Context(path) = &location.key else { unreachable!("a context query") };
        let name = path
            .last()
            .and_then(|f| rt.methods().get(f.method).map(|m| m.name.clone()))
            .unwrap_or_default();
        let paper = FIGURE1_SITES
            .iter()
            .find(|s| s.instruction == name)
            .map(|s| format!("{}%", s.percent))
            .unwrap_or_default();
        code_table.row(&[name, paper, fmt_percent(location.fraction_of_total)]);
    }
    println!("(b) code-centric profiling (perf-like):");
    println!("{}", code_table.render());

    // (c) object-centric profiling, from the same samples.
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

    let hottest_code = fmt_percent(code.hottest().map(|c| c.fraction_of_total).unwrap_or(0.0));
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
