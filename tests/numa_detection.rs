//! Object-level NUMA locality detection (§4.3) across the two NUMA case studies, plus
//! the behaviour of the remote-access metrics and the NUMA report rendering.

use djx_workloads::numa::{DruidBitmapWorkload, EclipseCollectionsWorkload};
use djx_workloads::runner::{run_profiled, run_session, ProfiledRun};
use djx_workloads::Variant;
use djxperf::{ProfilerConfig, Query, QueryResult, RankBy, Report, ReportOptions};

fn config() -> ProfilerConfig {
    ProfilerConfig::default().with_period(64)
}

/// The run's objects ranked by remote samples — the one per-object NUMA ranking.
fn remote_ranking(run: &ProfiledRun) -> QueryResult {
    Query::new().rank_by(RankBy::RemoteSamples).evaluate(&run.profile).unwrap()
}

/// The top-`top` NUMA report of a run profiled with [`run_session`].
fn numa_report(run: &ProfiledRun, top: usize) -> String {
    let numa = run.session.numa_profile().expect("numa collector registered");
    let options = ReportOptions { top_objects: top, ..ReportOptions::default() };
    Report::numa_view(&numa, &remote_ranking(run), &run.methods)
        .with_options(options)
        .to_string()
}

#[test]
fn eclipse_result_array_is_flagged_with_a_high_remote_fraction() {
    let run = run_session(&EclipseCollectionsWorkload::new(Variant::Baseline), config());
    let result = run.report.find_class("Integer[] (result)").expect("result array reported");
    assert!(
        result.remote_fraction > 0.5,
        "paper reports 73.4% remote; got {:.2}",
        result.remote_fraction
    );
    // The remote ranking puts it first and the NUMA report names it with its site.
    assert_eq!(remote_ranking(&run).groups[0].label, "Integer[] (result)");
    let text = numa_report(&run, 1);
    assert!(text.contains("Integer[] (result)  remote"));
    assert!(text.contains("Interval.toArray (Interval.java:758)"));
}

#[test]
fn eclipse_interleaved_allocation_halves_the_remote_fraction() {
    let base = run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), config());
    let opt = run_profiled(&EclipseCollectionsWorkload::new(Variant::Optimized), config());
    let base_remote = base.report.find_class("Integer[] (result)").unwrap().remote_fraction;
    let opt_remote = opt.report.find_class("Integer[] (result)").unwrap().remote_fraction;
    assert!(
        opt_remote < base_remote - 0.1,
        "interleaving must reduce the object's remote fraction: {base_remote:.2} -> {opt_remote:.2}"
    );
    assert!(
        opt.outcome.hierarchy.remote_dram_accesses < base.outcome.hierarchy.remote_dram_accesses,
        "machine-wide remote DRAM traffic must drop"
    );
}

#[test]
fn druid_bitmap_remote_accesses_disappear_with_first_touch_initialization() {
    let base = run_profiled(&DruidBitmapWorkload::new(Variant::Baseline), config());
    let opt = run_profiled(&DruidBitmapWorkload::new(Variant::Optimized), config());
    let base_bitmap = base.report.find_class("long[] (bitmap)").unwrap();
    let opt_bitmap = opt.report.find_class("long[] (bitmap)").unwrap();
    assert!(
        base_bitmap.remote_fraction > 0.4,
        "paper: >50% remote, got {:.2}",
        base_bitmap.remote_fraction
    );
    assert!(
        opt_bitmap.remote_fraction < base_bitmap.remote_fraction * 0.5,
        "the fix must cut the remote fraction sharply: {:.2} -> {:.2}",
        base_bitmap.remote_fraction,
        opt_bitmap.remote_fraction
    );
}

#[test]
fn local_workloads_report_no_remote_objects() {
    // A single-node-style workload (everything first-touched and read by the same
    // thread) must not be flagged.
    use djx_workloads::bloat::BatikNvalsWorkload;
    let run = run_session(&BatikNvalsWorkload::new(Variant::Baseline).scaled(0.2), config());
    for object in &run.report.groups {
        assert!(
            object.remote_fraction < 0.05,
            "{} should not look remote ({:.2})",
            object.label,
            object.remote_fraction
        );
    }
    let text = numa_report(&run, 3);
    assert!(text.contains("no monitored object shows remote accesses"), "{text}");
}

#[test]
fn remote_sample_counts_are_consistent_with_fractions() {
    let run = run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), config());
    for object in &run.report.groups {
        let m = &object.metrics;
        assert_eq!(m.remote_samples + m.local_samples, m.samples);
        let expected =
            if m.samples == 0 { 0.0 } else { m.remote_samples as f64 / m.samples as f64 };
        assert!((object.remote_fraction - expected).abs() < 1e-9);
    }
}
