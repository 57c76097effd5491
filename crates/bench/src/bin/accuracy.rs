//! §6 accuracy — DJXPerf re-detects the locality issues prior work reported.
//!
//! The paper checks five benchmarks with known issues (luindex, bloat, lusearch and
//! xalan from Dacapo 2006, plus SPECjbb2000) and finds all of them. Each accuracy
//! benchmark here injects the documented bloat object; the harness profiles the run and
//! reports at which rank DJXPerf surfaces the known issue.

use djx_bench::prelude::*;
use djx_workloads::suite::accuracy_benchmarks;

fn main() {
    let config = evaluation_profiler().with_period(256);
    let mut table = Table::new(&[
        "benchmark",
        "known issue (prior work)",
        "found",
        "rank",
        "miss share",
        "allocations",
    ]);

    let mut found_all = true;
    for bench in accuracy_benchmarks() {
        let run = run_profiled(&bench.build(), config);
        let position = run.report.groups.iter().position(|o| o.label == bench.known_issue_class);
        let found = position.is_some();
        found_all &= found;
        let (rank, share, allocs) = match position {
            Some(i) => {
                let o = &run.report.groups[i];
                (
                    (i + 1).to_string(),
                    fmt_percent(o.fraction_of_total),
                    o.metrics.allocations.to_string(),
                )
            }
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        table.row(&[
            bench.name.to_string(),
            bench.known_issue_class.to_string(),
            if found { "yes".to_string() } else { "NO".to_string() },
            rank,
            share,
            allocs,
        ]);
    }

    println!("== §6 accuracy: known locality issues re-detected ==\n");
    println!("{}", table.render());
    println!(
        "paper: all 5 issues reported by prior work are identified.  reproduction: {}",
        if found_all { "all 5 identified" } else { "NOT all identified" }
    );
    if !found_all {
        eprintln!("accuracy: missed the paper anchor (all 5 identified)");
        std::process::exit(1);
    }
}
