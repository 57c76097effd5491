//! Overhead behaviour (§6, Figure 4) and the size-filter / sampling-period knobs: the
//! profiler must observe without disturbing the workload, stay cheap, and expose the
//! trade-offs the paper describes.

use djx_workloads::runner::{run_profiled, run_unprofiled};
use djx_workloads::suite::suite_catalog;
use djx_workloads::Variant;
use djxperf::ProfilerConfig;

fn small_suite_workload(name: &str, operations: u64) -> djx_workloads::suite::SyntheticAppWorkload {
    let mut w = suite_catalog().iter().find(|b| b.name == name).unwrap().build();
    w.operations = operations;
    w
}

#[test]
fn profiling_does_not_perturb_the_simulated_execution() {
    let workload = small_suite_workload("page-rank", 100);
    let plain = run_unprofiled(&workload);
    let profiled = run_profiled(&workload, ProfilerConfig::default().with_period(512));
    // The profiler is an observer: the workload's own behaviour must be identical.
    assert_eq!(plain.stats.allocations, profiled.outcome.stats.allocations);
    assert_eq!(plain.stats.accesses, profiled.outcome.stats.accesses);
    assert_eq!(plain.stats.gc_cycles, profiled.outcome.stats.gc_cycles);
    assert_eq!(plain.modeled_cycles, profiled.outcome.modeled_cycles);
    assert_eq!(plain.hierarchy.l1_misses, profiled.outcome.hierarchy.l1_misses);
}

#[test]
fn wall_clock_overhead_stays_bounded() {
    // Wall-clock ratios are noisy in CI; the assertion is deliberately generous. The
    // calibrated numbers come from the pipeline benchmark (`perfbench/`, declared in
    // `BENCHMARK.json`) and from the `fig4_overhead` binary's stdout.
    let workload = small_suite_workload("mnemonics", 150);
    let plain: f64 =
        (0..3).map(|_| run_unprofiled(&workload).wall.as_secs_f64()).sum::<f64>() / 3.0;
    let profiled: f64 = (0..3)
        .map(|_| {
            run_profiled(&workload, ProfilerConfig::default().with_period(2048))
                .outcome
                .wall
                .as_secs_f64()
        })
        .sum::<f64>()
        / 3.0;
    let overhead = profiled / plain.max(f64::MIN_POSITIVE);
    assert!(overhead < 4.0, "profiling a run must not blow up its cost (got {overhead:.2}x)");
}

#[test]
fn memory_footprint_is_small_relative_to_the_workload_heap() {
    let workload = small_suite_workload("akka-uct", 150);
    let run = run_profiled(&workload, ProfilerConfig::default().with_period(2048));
    let heap = run.outcome.stats.peak_heap_used as f64;
    let profiler = run.profiler_bytes as f64;
    assert!(profiler > 0.0);
    assert!(
        profiler < 0.5 * heap,
        "profiler-resident bytes ({profiler:.0}) should stay well below the workload heap ({heap:.0})"
    );
}

#[test]
fn size_filter_trades_monitored_objects_for_work() {
    let workload = small_suite_workload("mnemonics", 80);
    let monitored = |filter: u64| {
        let run = run_profiled(
            &workload,
            ProfilerConfig::default().with_period(512).with_size_filter(filter),
        );
        let stats = run.profile.allocation_stats;
        assert_eq!(stats.callbacks, stats.monitored + stats.filtered);
        (stats.monitored, run.profiler_bytes)
    };
    let (all, bytes_all) = monitored(0);
    let (default, bytes_default) = monitored(1024);
    let (huge, _) = monitored(1 << 30);
    assert!(all > default, "S=0 monitors every allocation ({all} vs {default})");
    assert!(default > huge);
    assert_eq!(huge, 0);
    assert!(
        bytes_all >= bytes_default,
        "monitoring everything cannot shrink the profiler's footprint"
    );
}

#[test]
fn smaller_sampling_periods_collect_more_samples_with_the_same_ranking() {
    let workload = djx_workloads::bloat::BatikNvalsWorkload::new(Variant::Baseline).scaled(0.3);
    let coarse = run_profiled(&workload, ProfilerConfig::default().with_period(4096));
    let fine = run_profiled(&workload, ProfilerConfig::default().with_period(64));
    assert!(fine.profile.total_samples() > coarse.profile.total_samples() * 4);
    // Both periods agree on the problem object (statistical robustness of the ranking).
    assert_eq!(
        fine.report.hottest().map(|o| o.label.clone()),
        coarse.report.hottest().map(|o| o.label.clone()),
    );
}

#[test]
fn jittered_sampling_still_estimates_the_same_totals() {
    let workload = djx_workloads::bloat::BatikNvalsWorkload::new(Variant::Baseline).scaled(0.3);
    let plain = run_profiled(&workload, ProfilerConfig::default().with_period(128));
    let jittered =
        run_profiled(&workload, ProfilerConfig::default().with_period(128).with_jitter(true));
    let a = plain.report.total_weighted_events as f64;
    let b = jittered.report.total_weighted_events as f64;
    assert!(b > 0.5 * a && b < 2.0 * a, "jitter must not bias the estimate ({a} vs {b})");
}

#[test]
fn every_allocation_callback_is_accounted_for() {
    let workload = small_suite_workload("scrabble", 60);
    let run = run_profiled(&workload, ProfilerConfig::default().with_period(512));
    let stats = run.profile.allocation_stats;
    assert_eq!(stats.callbacks, run.outcome.stats.allocations);
    assert_eq!(stats.monitored + stats.filtered, stats.callbacks);
}
