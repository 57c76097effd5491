//! The unified session pipeline, end to end: one pass over a workload yields the
//! object-centric report, the code-centric report and the NUMA report; the
//! object-centric results are identical to an objects-only session on the same seeded
//! runtime; the binary `ProfileSink` round-trips the profiles of the workload suite,
//! and the render-only text and JSON sinks write their canonical renderings.

use djx_workloads::figure1::{expected_object_percent, Figure1Workload};
use djx_workloads::numa::EclipseCollectionsWorkload;
use djx_workloads::runner::{run_profiled, run_session};
use djx_workloads::{table1_case_studies, Variant};
use djxperf::report::describe_frame;
use djxperf::{
    BinaryChunkedSink, GroupKey, JsonSink, ProfileSink, ProfilerConfig, Query, RankBy, Report,
    TextSink,
};

fn config() -> ProfilerConfig {
    ProfilerConfig::default().with_period(64)
}

#[test]
fn one_session_pass_yields_all_three_reports_and_matches_the_legacy_path() {
    let workload = EclipseCollectionsWorkload::new(Variant::Baseline);
    let session = run_session(&workload, config());
    let objects_only = run_profiled(&workload, config());

    // Object-centric results are identical to an objects-only session: the canonical
    // profile file is bit-for-bit the same.
    assert_eq!(session.profile.to_text(), objects_only.profile.to_text());

    // All three views of the single pass render, and they name the same problem object
    // the paper's case study names.
    let object_text = Report::query(&session.report, &session.methods).to_string();
    assert!(object_text.contains("Integer[] (result)"));

    let numa = session.session.numa_profile().expect("numa collector registered");
    let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&session.profile).unwrap();
    let numa_text = Report::numa_view(&numa, &remote, &session.methods).to_string();
    assert!(numa_text.contains("Integer[] (result)"));
    assert!(numa_text.contains("Interval.toArray (Interval.java:758)"));

    let code = session.session.code_profile().expect("code collector registered");
    let code_text = Report::code_centric(&code, &session.methods).to_string();
    assert!(code_text.contains("code-centric"));
    assert!(code.total_samples > 0);

    // The top remote object is the case study's result array at its allocation site.
    let GroupKey::Object { class_name, alloc_path } = &remote.groups[0].key else {
        panic!("an object group")
    };
    assert_eq!(class_name, "Integer[] (result)");
    assert_eq!(
        describe_frame(alloc_path.last().unwrap(), &session.methods),
        "Interval.toArray (Interval.java:758)"
    );

    // The NUMA collector's traffic matrix shows actual cross-node traffic for this
    // two-node workload and agrees with the object profile: every sample lands in one
    // cell, and the off-diagonal cells hold exactly the remote samples of every site
    // plus the unattributed ones.
    assert!(numa.remote_samples() > 0);
    assert_eq!(numa.total_samples(), session.profile.total_samples());
    let object_remote: u64 = session
        .profile
        .threads
        .iter()
        .map(|t| {
            t.unattributed.remote_samples
                + t.sites.values().map(|s| s.total.remote_samples).sum::<u64>()
        })
        .sum();
    assert_eq!(numa.remote_samples(), object_remote);
}

#[test]
fn figure1_comparison_needs_only_one_run() {
    // Figure 1's point — the hottest *object* (O1, ~50%) dominates the hottest
    // *instruction* (Ic, ~24%) — previously required attaching two profilers. One
    // session pass produces both sides.
    let session = run_session(&Figure1Workload::new(), ProfilerConfig::default().with_period(8));

    let hottest_object = session.report.hottest().expect("objects sampled").fraction_of_total;
    let hottest_code = session.session.code_profile().unwrap().hottest_location_fraction();
    assert!(
        hottest_object > hottest_code,
        "object-centric aggregation must dominate: {hottest_object:.2} vs {hottest_code:.2}"
    );
    let expected_o1 = expected_object_percent(1) as f64 / 100.0;
    assert!(
        (hottest_object - expected_o1).abs() < 0.10,
        "O1 share {hottest_object:.2} tracks the paper's {expected_o1:.2}"
    );
    assert!(
        (hottest_code - 0.24).abs() < 0.10,
        "Ic share {hottest_code:.2} tracks the paper's 0.24"
    );
}

#[test]
fn text_and_json_sinks_round_trip_the_workload_suite() {
    for case in table1_case_studies() {
        let run = run_profiled(
            (case.build)(Variant::Baseline).as_ref(),
            ProfilerConfig::default().with_period(512),
        );
        let canonical = run.profile.to_text();
        // Text is render-only: the sink writes the canonical rendering.
        assert_eq!(TextSink.write_to_string(&run.profile), canonical, "{}", case.name);
        let sink = BinaryChunkedSink::new();
        let mut written = Vec::new();
        sink.write_profile(&run.profile, &mut written).expect("writing to a Vec");
        let parsed = sink
            .read_log_bytes(&written)
            .unwrap_or_else(|e| panic!("{}: binary sink failed: {e}", case.name));
        assert_eq!(parsed.to_text(), canonical, "{}: binary sink must round-trip", case.name);
        // JSON is write-only: it renders the round-tripped profile exactly as it
        // renders the original.
        assert_eq!(
            JsonSink::new().write_to_string(&parsed),
            JsonSink::new().write_to_string(&run.profile),
            "{}: JSON rendering after the binary round trip",
            case.name
        );
    }
}

#[test]
fn session_streams_snapshots_through_sinks_after_the_run() {
    let session = run_session(
        &EclipseCollectionsWorkload::new(Variant::Baseline),
        ProfilerConfig::default().with_period(128),
    );
    let mut out = Vec::new();
    session
        .session
        .stream_snapshot(&BinaryChunkedSink::new(), &mut out)
        .expect("streaming succeeds");
    let parsed = BinaryChunkedSink::new().read_log_bytes(&out).unwrap();
    assert_eq!(parsed.to_text(), session.profile.to_text());
    // Text and JSON stream the profile's render-only documents.
    for sink in [&TextSink as &dyn ProfileSink, &JsonSink::new()] {
        let mut out = Vec::new();
        session.session.stream_snapshot(sink, &mut out).expect("streaming succeeds");
        assert_eq!(String::from_utf8(out).unwrap(), sink.write_to_string(&session.profile));
    }
}

#[test]
fn analyzer_builder_views_agree_with_the_report_helpers() {
    let session = run_session(&EclipseCollectionsWorkload::new(Variant::Baseline), config());

    // The remote ranking names the case study's object first, noise floor or not.
    let remote = Query::new()
        .rank_by(RankBy::RemoteSamples)
        .min_samples(1)
        .evaluate(&session.profile)
        .unwrap();
    assert_eq!(remote.groups[0].label, "Integer[] (result)");
    assert_eq!(
        remote.groups[0].metrics,
        session.report.find_class("Integer[] (result)").unwrap().metrics
    );

    // Truncation keeps totals (fractions stay comparable across views).
    let top1 = Query::new().top(1).evaluate(&session.profile).unwrap();
    assert_eq!(top1.groups.len(), 1);
    assert_eq!(top1.total_samples, session.report.total_samples);
    assert_eq!(top1.groups[0].label, session.report.groups[0].label);
}
