//! The offline analyzer (§5.2), answered by `Query`: merging per-thread profiles of a
//! multi-threaded run, merging profiles from separate runs (multiple service
//! instances), and the ranking invariants the case studies rely on.

use djx_workloads::runner::run_profiled;
use djx_workloads::suite::suite_catalog;
use djx_workloads::Variant;
use djxperf::{BinaryChunkedSink, ObjectCentricProfile, ProfileSink, ProfilerConfig, Query};

fn multi_threaded_run() -> djx_workloads::runner::ProfiledRun {
    let mut workload = suite_catalog().iter().find(|b| b.name == "fj-kmeans").unwrap().build();
    workload.operations = 120;
    run_profiled(&workload, ProfilerConfig::default().with_period(256))
}

#[test]
fn per_thread_profiles_are_collected_for_every_application_thread() {
    let run = multi_threaded_run();
    assert_eq!(run.profile.threads.len(), 4, "one profile per application thread");
    let threads_with_samples = run.profile.threads.iter().filter(|t| t.samples > 0).count();
    assert!(threads_with_samples >= 3, "sampling covers the threads, got {threads_with_samples}");
}

#[test]
fn merging_coalesces_the_same_allocation_site_across_threads() {
    let run = multi_threaded_run();
    // Each thread allocates its own working set from the same call path; after the merge
    // there must be a single report entry carrying all four allocations.
    let working_set = run
        .report
        .find_class("long[] (working set)")
        .expect("working-set arrays sampled");
    assert_eq!(working_set.metrics.allocations, 4);
    let per_thread_samples: u64 = run
        .profile
        .threads
        .iter()
        .flat_map(|t| t.sites.values())
        .map(|s| s.total.samples)
        .sum();
    let merged_samples: u64 = run.report.groups.iter().map(|o| o.metrics.samples).sum();
    assert_eq!(per_thread_samples, merged_samples, "merging neither drops nor duplicates samples");
}

#[test]
fn report_totals_match_the_per_thread_totals() {
    let run = multi_threaded_run();
    let thread_total: u64 = run.profile.threads.iter().map(|t| t.samples).sum();
    assert_eq!(run.report.total_samples, thread_total);
    assert!(run.report.attributed_fraction() > 0.5, "most samples hit monitored objects");
}

#[test]
fn profiles_from_multiple_instances_merge_by_site_identity() {
    // Two independent runs of the same program (two "service instances" in the paper's
    // production scenario); their profile files are merged offline.
    let workload = djx_workloads::bloat::BatikNvalsWorkload::new(Variant::Baseline).scaled(0.15);
    let run_a = run_profiled(&workload, ProfilerConfig::default().with_period(64));
    let run_b = run_profiled(&workload, ProfilerConfig::default().with_period(64));

    let merged = Query::new()
        .evaluate(&[run_a.profile.clone(), run_b.profile.clone()][..])
        .unwrap();
    let single = Query::new().evaluate(&run_a.profile).unwrap();

    assert_eq!(merged.total_samples, run_a.profile.total_samples() + run_b.profile.total_samples());
    assert_eq!(
        merged.groups.len(),
        single.groups.len(),
        "the same sites must coalesce rather than duplicate"
    );
    let merged_nvals = merged.find_class("float[] (nvals)").unwrap();
    let a_nvals = Query::new().evaluate(&run_a.profile).unwrap();
    let b_nvals = Query::new().evaluate(&run_b.profile).unwrap();
    assert_eq!(
        merged_nvals.metrics.samples,
        a_nvals.find_class("float[] (nvals)").unwrap().metrics.samples
            + b_nvals.find_class("float[] (nvals)").unwrap().metrics.samples
    );

    // The same merge through profile files: one binary document per run.
    let sink = BinaryChunkedSink::new();
    let from_files: Vec<ObjectCentricProfile> = [&run_a.profile, &run_b.profile]
        .iter()
        .map(|profile| {
            let mut file = Vec::new();
            sink.write_profile(profile, &mut file).unwrap();
            sink.read_log_bytes(&file).unwrap()
        })
        .collect();
    let from_files = Query::new().evaluate(&from_files[..]).unwrap();
    assert_eq!(from_files.total_samples, merged.total_samples);
    assert_eq!(from_files.groups.len(), merged.groups.len());
}

#[test]
fn analysis_is_deterministic_for_a_given_profile() {
    let run = multi_threaded_run();
    let a = Query::new().evaluate(&run.profile).unwrap();
    let b = Query::new().evaluate(&run.profile).unwrap();
    assert_eq!(a.total_samples, b.total_samples);
    assert_eq!(a.groups.len(), b.groups.len());
    for (x, y) in a.groups.iter().zip(&b.groups) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.metrics, y.metrics);
    }
}
