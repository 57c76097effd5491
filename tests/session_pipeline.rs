//! The unified session pipeline, end to end: one pass over a workload yields the
//! object-centric report, the code-centric report and the NUMA report; the
//! object-centric results are identical to an objects-only session on the same seeded
//! runtime; the binary `ProfileSink` round-trips the profiles of the workload suite,
//! and the render-only text and JSON sinks write their canonical renderings.

use djx_workloads::figure1::{expected_object_percent, Figure1Workload};
use djx_workloads::numa::EclipseCollectionsWorkload;
use djx_workloads::runner::{run_profiled, run_session};
use djx_workloads::{table1_case_studies, Variant};
use djxperf::{
    BinaryChunkedSink, JsonSink, ProfileSink, ProfilerConfig, Query, RankBy, Report, TextSink,
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
    let numa_text = Report::numa_view(&numa, &session.methods).to_string();
    assert!(numa_text.contains("Integer[] (result)"));
    assert!(numa_text.contains("Interval.toArray (Interval.java:758)"));

    let code = session.session.code_profile().expect("code collector registered");
    let code_text = Report::code_centric(&code, &session.methods).to_string();
    assert!(code_text.contains("code-centric"));
    assert!(code.total_samples > 0);

    // The session's own NUMA view agrees with the query's remote ranking and shows
    // actual cross-node traffic for this two-node workload.
    assert!(numa.remote_fraction() > 0.0);
    assert!(numa.node_traffic.iter().any(|((cpu, page), _)| cpu != page));
    let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&session.profile).unwrap();
    assert_eq!(numa.ranked_remote()[0].0.class_name, remote.groups[0].label);
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

    // Remote ranking through the query builder matches the NUMA collector's ranking.
    let remote = Query::new()
        .rank_by(RankBy::RemoteSamples)
        .min_samples(1)
        .evaluate(&session.profile)
        .unwrap();
    let numa = session.session.numa_profile().unwrap();
    assert_eq!(remote.groups[0].label, numa.ranked_remote()[0].0.class_name);

    // Truncation keeps totals (fractions stay comparable across views).
    let top1 = Query::new().top(1).evaluate(&session.profile).unwrap();
    assert_eq!(top1.groups.len(), 1);
    assert_eq!(top1.total_samples, session.report.total_samples);
    assert_eq!(top1.groups[0].label, session.report.groups[0].label);
}
