//! End-to-end integration: runtime + profiler + profile files + analyzer + reports, on
//! the Listing 1 (batik) kernel, checking the whole §4–§5 pipeline holds together.

use std::collections::HashMap;

use djx_workloads::bloat::BatikNvalsWorkload;
use djx_workloads::runner::run_profiled;
use djx_workloads::Variant;
use djxperf::{
    AllocSiteId, BinaryChunkedSink, ObjectCentricProfile, ProfilerConfig, Query, Report, Session,
};

fn profiled_run() -> djx_workloads::runner::ProfiledRun {
    run_profiled(
        &BatikNvalsWorkload::new(Variant::Baseline).scaled(0.5),
        ProfilerConfig::default().with_period(64),
    )
}

#[test]
fn samples_are_conserved_between_threads_sites_and_unattributed_bucket() {
    let run = profiled_run();
    let profile = &run.profile;
    for thread in &profile.threads {
        let attributed: u64 = thread.sites.values().map(|total| total.samples).sum();
        assert_eq!(
            attributed + thread.unattributed.samples,
            thread.samples,
            "every sample is either attributed to a site or counted as unattributed"
        );
        // The (site, context) cells sum back to the site totals, and every cell's
        // site has a totals row.
        let mut by_cells: HashMap<AllocSiteId, u64> = HashMap::new();
        for (&(site, _), m) in &thread.contexts {
            assert!(thread.sites.contains_key(&site), "cell of site {site:?} has no totals row");
            *by_cells.entry(site).or_default() += m.samples;
        }
        for (site, total) in &thread.sites {
            assert_eq!(by_cells.get(site).copied().unwrap_or(0), total.samples);
        }
    }
    assert_eq!(profile.total_samples(), profile.threads.iter().map(|t| t.samples).sum::<u64>());
}

#[test]
fn report_fractions_are_well_formed_and_ordered() {
    let run = profiled_run();
    let report = &run.report;
    assert!(report.total_samples > 0);
    assert!(report.attributed_fraction() <= 1.0 + 1e-9);
    let mut previous = u64::MAX;
    let mut fraction_sum = 0.0;
    for object in &report.groups {
        assert!(object.metrics.weighted_events <= previous, "objects sorted hottest-first");
        previous = object.metrics.weighted_events;
        assert!((0.0..=1.0).contains(&object.fraction_of_total));
        assert!((0.0..=1.0).contains(&object.remote_fraction));
        fraction_sum += object.fraction_of_total;
        let ctx_sum: f64 = object.contexts.iter().map(|c| c.fraction_of_object).sum();
        if !object.contexts.is_empty() {
            assert!((ctx_sum - 1.0).abs() < 1e-6, "per-object context fractions sum to 1");
        }
    }
    assert!(fraction_sum <= 1.0 + 1e-6);
}

#[test]
fn sampling_estimate_tracks_ground_truth_miss_count() {
    let run = profiled_run();
    // Ground truth from the simulated hierarchy: L1 misses caused by loads are what the
    // sampled event counts. The statistical estimate (samples x period) must land in the
    // right ballpark (well within 2x at period 64 over tens of thousands of misses).
    let estimated = run.report.total_weighted_events as f64;
    let truth = run.outcome.hierarchy.l1_misses as f64;
    assert!(estimated > 0.3 * truth, "estimate {estimated} far below ground truth {truth}");
    assert!(estimated < 2.0 * truth, "estimate {estimated} far above ground truth {truth}");
}

#[test]
fn profile_file_round_trip_preserves_the_analysis() {
    let run = profiled_run();
    assert!(run.profile.to_text().starts_with("djxperf-profile v1"));
    let sink = BinaryChunkedSink::new();
    let mut file = Vec::new();
    sink.write_profile(&run.profile, &mut file).expect("writing to a Vec");

    let reparsed = sink.read_log_bytes(&file).expect("codec round trip");
    let analyze = |p: &ObjectCentricProfile| Query::new().evaluate(p).unwrap();
    let report_a = analyze(&run.profile);
    let report_b = analyze(&reparsed);
    assert_eq!(report_a.total_samples, report_b.total_samples);
    assert_eq!(report_a.groups.len(), report_b.groups.len());
    for (a, b) in report_a.groups.iter().zip(&report_b.groups) {
        assert_eq!(a.key, b.key, "same class and allocation path");
        assert_eq!(a.metrics, b.metrics);
    }
    // And the offline workflow replays the file into a queryable profile.
    let report_c = analyze(&BinaryChunkedSink::new().read_log_bytes(&file).unwrap());
    assert_eq!(report_c.total_samples, report_a.total_samples);
}

#[test]
fn rendered_report_names_the_problematic_object_and_its_source_location() {
    let run = profiled_run();
    let text = Report::query(&run.report, &run.methods).to_string();
    assert!(text.contains("float[] (nvals)"));
    assert!(text.contains("ExtendedGeneralPath.makeRoom (ExtendedGeneralPath.java:743)"));
    assert!(text.contains("% of sampled events"));
    assert!(text.contains("accessed from:"));
}

#[test]
fn detach_mode_profile_is_a_prefix_of_the_full_measurement() {
    use djx_runtime::{dsl, Runtime};
    use djx_workloads::Workload;

    let workload = BatikNvalsWorkload::new(Variant::Baseline).scaled(0.2);
    let mut rt = Runtime::new(workload.runtime_config());
    let session = Session::builder().period(64).collect_objects().attach(&mut rt);
    workload.run(&mut rt).unwrap();

    // Detach, keep the program running, and verify the snapshot is stable afterwards.
    let snapshot = session.object_profile().unwrap();
    assert!(session.detach(&mut rt));
    let class = rt.register_array_class("byte[] (post-detach)", 1);
    let t = rt.spawn_thread("late");
    let arr = rt.alloc_array(t, class, 64 * 1024).unwrap();
    dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
    let after = session.object_profile().unwrap();
    assert_eq!(snapshot.total_samples(), after.total_samples());
    assert_eq!(snapshot.allocation_stats, after.allocation_stats);
    assert!(after.sites.iter().all(|s| s.class_name != "byte[] (post-detach)"));
}
