//! The unified session pipeline, end to end: one pass over a workload yields the
//! object-centric report, the code-centric report and the NUMA report, each a query
//! over the one record; the object-centric results are identical to an objects-only
//! session on the same seeded runtime; the binary epoch log round-trips the profiles
//! of the workload suite, and the render-only text and JSON documents render them
//! canonically.

use djx_workloads::figure1::{expected_object_percent, Figure1Workload};
use djx_workloads::numa::{DruidBitmapWorkload, EclipseCollectionsWorkload};
use djx_workloads::runner::run_profiled;
use djx_workloads::{table1_case_studies, Variant};
use djxperf::report::describe_frame;
use djxperf::{
    BinaryChunkedSink, GroupBy, GroupKey, Locality, ProfilerConfig, Query, RankBy, Report,
};

fn config() -> ProfilerConfig {
    ProfilerConfig::default().with_period(64)
}

#[test]
fn one_session_pass_yields_all_three_reports_and_matches_the_legacy_path() {
    let workload = EclipseCollectionsWorkload::new(Variant::Baseline);
    let session = run_profiled(&workload, config());
    let rerun = run_profiled(&workload, config());

    // The pass is deterministic: a second run's canonical profile file is bit-for-bit
    // the same.
    assert_eq!(session.profile.to_text(), rerun.profile.to_text());

    // All three views of the single pass render, and they name the same problem object
    // the paper's case study names.
    let object_text = Report::query(&session.report, &session.methods).to_string();
    assert!(object_text.contains("Integer[] (result)"));

    let matrix = Query::new().group_by(GroupBy::NodePair).evaluate(&*session.session).unwrap();
    let matrix_text = Report::query(&matrix, &session.methods).to_string();
    assert!(matrix_text.contains("group by node_pair"));
    assert!(matrix_text.contains("node 1 -> node 0"));
    let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&session.profile).unwrap();
    let numa_text = Report::query(&remote, &session.methods).to_string();
    assert!(numa_text.contains("Integer[] (result)"));
    assert!(numa_text.contains("Interval.toArray (Interval.java:758)"));

    let code = Query::new().group_by(GroupBy::Context).evaluate(&*session.session).unwrap();
    let code_text = Report::query(&code, &session.methods).to_string();
    assert!(code_text.contains("group by context"));
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
}

#[test]
fn node_pair_cells_conserve_samples_and_refine_the_locality_split() {
    // On both NUMA case studies the traffic matrix shows actual cross-node traffic
    // and agrees with the per-object counts: every sample lands in one cell, the
    // off-diagonal cells hold exactly the `NumaNode` remote samples (every site's
    // plus the unattributed ones) and the diagonal exactly the local ones.
    for run in [
        run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), config()),
        run_profiled(&DruidBitmapWorkload::new(Variant::Baseline), config()),
    ] {
        let query = |axis| Query::new().group_by(axis).evaluate(&run.profile).unwrap();
        let (cells, localities) = (query(GroupBy::NodePair), query(GroupBy::NumaNode));
        let (mut diagonal, mut off_diagonal) = (0, 0);
        for cell in &cells.groups {
            let GroupKey::NodePair { cpu_node, page_node } = cell.key else {
                panic!("a node-pair group")
            };
            *if cpu_node == page_node { &mut diagonal } else { &mut off_diagonal } +=
                cell.metrics.samples;
        }
        let samples = |l| localities.find(&GroupKey::NumaNode(l)).map_or(0, |g| g.metrics.samples);
        assert!(off_diagonal > 0, "the baseline has cross-node traffic");
        assert_eq!(off_diagonal, samples(Locality::Remote));
        assert_eq!(diagonal, samples(Locality::Local));
        assert_eq!(diagonal + off_diagonal, cells.total_samples);
        assert_eq!(cells.total_samples, run.profile.total_samples());
    }
}

#[test]
fn figure1_comparison_needs_only_one_run() {
    // Figure 1's point — the hottest *object* (O1, ~50%) dominates the hottest
    // *instruction* (Ic, ~24%) — previously required attaching two profilers. One
    // session pass produces both sides.
    let session = run_profiled(&Figure1Workload::new(), ProfilerConfig::default().with_period(8));

    let hottest_object = session.report.hottest().expect("objects sampled").fraction_of_total;
    let code = Query::new()
        .group_by(GroupBy::Context)
        .top(1)
        .evaluate(&session.profile)
        .unwrap();
    let hottest_code = code.hottest().expect("contexts sampled").fraction_of_total;
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
        let sink = BinaryChunkedSink::new();
        let mut written = Vec::new();
        sink.write_profile(&run.profile, &mut written).expect("writing to a Vec");
        let parsed = sink
            .read_log_bytes(&written)
            .unwrap_or_else(|e| panic!("{}: binary sink failed: {e}", case.name));
        assert_eq!(parsed.to_text(), canonical, "{}: binary sink must round-trip", case.name);
        // JSON is write-only: a query renders the round-tripped profile exactly as
        // it renders the original.
        let json = |profile| Query::new().evaluate(profile).unwrap().to_json();
        assert_eq!(
            json(&parsed),
            json(&run.profile),
            "{}: JSON rendering after the binary round trip",
            case.name
        );
    }
}

#[test]
fn session_streams_snapshots_through_sinks_after_the_run() {
    let session = run_profiled(
        &EclipseCollectionsWorkload::new(Variant::Baseline),
        ProfilerConfig::default().with_period(128),
    );
    let after = session.session.object_profile().expect("object collector registered");
    let sink = BinaryChunkedSink::new();
    let mut out = Vec::new();
    sink.write_profile(&after, &mut out).expect("writing to a Vec");
    let parsed = sink.read_log_bytes(&out).unwrap();
    assert_eq!(parsed.to_text(), session.profile.to_text());
    // A read after the run renders the same render-only documents.
    assert_eq!(after.to_text(), session.profile.to_text());
    let json = |profile| Query::new().evaluate(profile).unwrap().to_json();
    assert_eq!(json(&after), json(&session.profile));
}

#[test]
fn analyzer_builder_views_agree_with_the_report_helpers() {
    let session = run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), config());

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
