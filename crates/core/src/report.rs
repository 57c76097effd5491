//! Textual rendering of analysis results — the stand-in for DJXPerf's Python GUI
//! (Figure 5 of the paper): a top-down view showing, for each problematic object, its
//! allocation site in source terms (`Class.method (File:line)`), its allocation call
//! path, and the access call paths ordered by their contribution to the object's
//! locality loss.
//!
//! The one entry point is [`Report`], a `Display`able view selected by constructor —
//! [`Report::query`] over any [`QueryResult`] (object-grouped results in the Figure 5
//! layout), [`Report::numa_view`] over the session's [`NumaProfile`] traffic matrix
//! plus a [`QueryResult`] ranked by
//! [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples), and
//! [`Report::code_centric`] over the perf-like baseline — so every rendering composes
//! with `println!`, `format!` and logging. Reports rank nothing themselves: the NUMA
//! view lists objects in the order its query result gives them.

use std::fmt::{self, Write as _};

use djx_runtime::{Frame, MethodRegistry};

use crate::codecentric::CodeCentricProfile;
use crate::query::{GroupBy, GroupKey, QueryGroup, QueryResult};
use crate::session::NumaProfile;

/// Renders one frame as `Class.method (File:line)` using the method registry — the same
/// symbolization JVMTI provides via method IDs, `GetLineNumberTable` and class queries.
pub fn describe_frame(frame: &Frame, methods: &MethodRegistry) -> String {
    match methods.get(frame.method) {
        Some(info) => format!(
            "{}.{} ({}:{})",
            info.class_name,
            info.name,
            info.file,
            info.line_for_bci(frame.bci)
        ),
        None => format!("<unknown method {}> (bci {})", frame.method.0, frame.bci),
    }
}

/// Renders a root-first call path, one frame per line, indented by `indent` spaces.
pub fn describe_path(path: &[Frame], methods: &MethodRegistry, indent: usize) -> String {
    if path.is_empty() {
        return format!("{:indent$}<no calling context>\n", "", indent = indent);
    }
    let mut out = String::new();
    for frame in path {
        let _ = writeln!(out, "{:indent$}{}", "", describe_frame(frame, methods), indent = indent);
    }
    out
}

/// Options controlling how much of the report is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// How many objects to show, hottest first.
    pub top_objects: usize,
    /// How many access contexts to show per object.
    pub top_contexts: usize,
    /// Show the full allocation call path (otherwise only the allocation site frame).
    pub full_alloc_paths: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self { top_objects: 10, top_contexts: 5, full_alloc_paths: true }
    }
}

/// One renderable view over analysis results: construct with [`Report::query`],
/// [`Report::code_centric`] or [`Report::numa_view`], tune with
/// [`Report::with_options`], and render via [`Display`](fmt::Display):
///
/// ```ignore
/// println!("{}", Report::query(&result, rt.methods()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Report<'a> {
    kind: ReportKind<'a>,
    methods: &'a MethodRegistry,
    options: ReportOptions,
}

#[derive(Debug, Clone, Copy)]
enum ReportKind<'a> {
    /// The code-centric (perf-like) baseline view (Figure 1b).
    CodeCentric(&'a CodeCentricProfile),
    /// The NUMA collector's node traffic matrix and the objects with remote samples.
    NumaView(&'a NumaProfile, &'a QueryResult),
    /// A query result, symbolized (object-grouped results in the Figure 5 layout;
    /// other groupings list their groups).
    Query(&'a QueryResult),
}

impl<'a> Report<'a> {
    /// The code-centric (perf-like) view used for the Figure 1 comparison.
    pub fn code_centric(profile: &'a CodeCentricProfile, methods: &'a MethodRegistry) -> Self {
        Self { kind: ReportKind::CodeCentric(profile), methods, options: ReportOptions::default() }
    }

    /// The NUMA view (§4.3): the collector's node-to-node traffic matrix, then the
    /// groups of `objects` with at least one remote sample, in the result's order.
    /// Pass a result grouped by object and ranked by
    /// [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples).
    pub fn numa_view(
        profile: &'a NumaProfile,
        objects: &'a QueryResult,
        methods: &'a MethodRegistry,
    ) -> Self {
        Self {
            kind: ReportKind::NumaView(profile, objects),
            methods,
            options: ReportOptions::default(),
        }
    }

    /// A symbolized view of a [`QueryResult`]: object-grouped results render in the
    /// Figure 5 layout (allocation site, allocation path, access contexts); site,
    /// thread and NUMA groupings list their ranked groups with resolved frames.
    pub fn query(result: &'a QueryResult, methods: &'a MethodRegistry) -> Self {
        Self { kind: ReportKind::Query(result), methods, options: ReportOptions::default() }
    }

    /// Replaces the rendering options.
    pub fn with_options(mut self, options: ReportOptions) -> Self {
        self.options = options;
        self
    }
}

impl fmt::Display for Report<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self.kind {
            ReportKind::CodeCentric(profile) => {
                render_code_centric_text(profile, self.methods, self.options.top_objects)
            }
            ReportKind::NumaView(profile, objects) => {
                render_numa_view_text(profile, objects, self.methods, self.options.top_objects)
            }
            ReportKind::Query(result) => render_query_text(result, self.methods, self.options),
        };
        f.write_str(&text)
    }
}

/// One ranked object in the Figure 5 layout: its class, share and locality, its
/// allocation path, and its hottest access contexts.
fn render_one_object(
    rank: usize,
    class_name: &str,
    alloc_path: &[Frame],
    object: &QueryGroup,
    methods: &MethodRegistry,
    options: ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "#{rank} {}  —  {:.1}% of sampled events ({} samples, {} allocations, {} bytes)",
        class_name,
        object.fraction_of_total * 100.0,
        object.metrics.samples,
        object.metrics.allocations,
        object.metrics.allocated_bytes
    );
    let _ = writeln!(
        out,
        "    locality: mean latency {:.0} cycles, remote accesses {:.1}%",
        object.metrics.mean_latency(),
        object.remote_fraction * 100.0
    );
    let _ = writeln!(out, "    allocated at:");
    if options.full_alloc_paths {
        out.push_str(&describe_path(alloc_path, methods, 8));
    } else if let Some(leaf) = alloc_path.last() {
        let _ = writeln!(out, "        {}", describe_frame(leaf, methods));
    } else {
        let _ = writeln!(out, "        <no calling context>");
    }
    let _ = writeln!(out, "    accessed from:");
    if object.contexts.is_empty() {
        let _ = writeln!(out, "        <no sampled access>");
    }
    for ctx in object.contexts.iter().take(options.top_contexts) {
        let _ = writeln!(
            out,
            "      - {:.1}% of this object's events ({} samples)",
            ctx.fraction_of_object * 100.0,
            ctx.metrics.samples
        );
        out.push_str(&describe_path(&ctx.path, methods, 10));
    }
    out
}

fn render_query_text(
    result: &QueryResult,
    methods: &MethodRegistry,
    options: ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== DJXPerf query report (group by {}, rank by {}) ==",
        result.group_by, result.rank_by
    );
    let _ = writeln!(
        out,
        "event {}  period {}  samples {}  attributed {:.1}%",
        result.event.hardware_name(),
        result.period,
        result.total_samples,
        result.attributed_fraction() * 100.0
    );
    if result.groups.is_empty() {
        let _ = writeln!(out, "(no group matched the query)");
        return out;
    }
    for (rank, group) in result.groups.iter().take(options.top_objects).enumerate() {
        match (&result.group_by, &group.key) {
            (GroupBy::Object, GroupKey::Object { class_name, alloc_path }) => {
                out.push_str(&render_one_object(
                    rank + 1,
                    class_name,
                    alloc_path,
                    group,
                    methods,
                    options,
                ));
            }
            _ => {
                let label = match &group.key {
                    GroupKey::Site(Some(frame)) => describe_frame(frame, methods),
                    _ => group.label.clone(),
                };
                let _ = writeln!(
                    out,
                    "#{} {}  —  {:.1}% of total ({} samples, remote {:.1}%)",
                    rank + 1,
                    label,
                    group.fraction_of_total * 100.0,
                    group.metrics.samples,
                    group.remote_fraction * 100.0
                );
                for ctx in group.contexts.iter().take(options.top_contexts) {
                    let _ = writeln!(
                        out,
                        "      - {:.1}% of this group's events ({} samples)",
                        ctx.fraction_of_object * 100.0,
                        ctx.metrics.samples
                    );
                    out.push_str(&describe_path(&ctx.path, methods, 10));
                }
            }
        }
    }
    out
}

fn render_code_centric_text(
    profile: &CodeCentricProfile,
    methods: &MethodRegistry,
    top: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== code-centric profile (perf-like) ==");
    let _ = writeln!(
        out,
        "event {}  period {}  samples {}",
        profile.event.hardware_name(),
        profile.period,
        profile.total_samples
    );
    for location in profile.top_locations(top) {
        let _ = writeln!(
            out,
            "{:5.1}%  {}",
            location.fraction * 100.0,
            location.describe_leaf(methods)
        );
    }
    out
}

fn render_numa_view_text(
    profile: &NumaProfile,
    objects: &QueryResult,
    methods: &MethodRegistry,
    top: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== DJXPerf NUMA session view ==");
    let _ = writeln!(
        out,
        "event {}  period {}  samples {}  remote {:.1}%",
        profile.event.hardware_name(),
        profile.period,
        profile.total_samples(),
        profile.remote_fraction() * 100.0
    );
    for ((cpu_node, page_node), samples) in &profile.node_traffic {
        let _ = writeln!(
            out,
            "  node {cpu_node} -> node {page_node}: {samples} samples{}",
            if cpu_node == page_node { "" } else { "  (remote)" }
        );
    }
    let mut remote = objects.groups.iter().filter(|g| g.metrics.remote_samples > 0).peekable();
    if remote.peek().is_none() {
        let _ = writeln!(out, "(no monitored object shows remote accesses)");
        return out;
    }
    for group in remote.take(top) {
        let metrics = &group.metrics;
        let _ = writeln!(
            out,
            "{}  remote {:.1}% ({} of {} samples)",
            group.label,
            metrics.remote_fraction() * 100.0,
            metrics.remote_samples,
            metrics.samples
        );
        if let GroupKey::Object { alloc_path, .. } = &group.key {
            let _ = writeln!(out, "    allocated at:");
            out.push_str(&describe_path(alloc_path, methods, 8));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_pmu::PmuEvent;
    use djx_runtime::MethodId;

    use crate::metrics::MetricVector;
    use crate::query::{AccessContext, RankBy};

    fn registry() -> MethodRegistry {
        let mut methods = MethodRegistry::new();
        methods.register(
            "ExtendedGeneralPath",
            "makeRoom",
            "ExtendedGeneralPath.java",
            &[(0, 740), (5, 743)],
        );
        methods.register("SAHashMap", "getNode", "SAHashMap.java", &[(0, 120)]);
        methods
    }

    fn object_metrics() -> MetricVector {
        MetricVector {
            allocations: 2478,
            allocated_bytes: 2478 * 2048,
            samples: 100,
            weighted_events: 100 * 512,
            latency_cycles: 100 * 180,
            remote_samples: 25,
            local_samples: 75,
            ..MetricVector::default()
        }
    }

    /// An object-grouped result with one `float[]` object.
    fn result() -> QueryResult {
        one_object("float[]", object_metrics())
    }

    /// An object-grouped result with one object of `class_name`.
    fn one_object(class_name: &str, metrics: MetricVector) -> QueryResult {
        QueryResult {
            event: PmuEvent::L1Miss,
            period: 512,
            group_by: GroupBy::Object,
            rank_by: RankBy::WeightedEvents,
            total_samples: 476,
            total_weighted_events: 476 * 512,
            attributed_weighted_events: 100 * 512,
            groups: vec![QueryGroup {
                key: GroupKey::Object {
                    class_name: class_name.into(),
                    alloc_path: vec![Frame::new(MethodId(0), 5)],
                },
                label: class_name.into(),
                metrics,
                fraction_of_total: 0.21,
                remote_fraction: metrics.remote_fraction(),
                contexts: vec![AccessContext {
                    path: vec![Frame::new(MethodId(1), 0)],
                    metrics,
                    fraction_of_object: 1.0,
                }],
            }],
        }
    }

    /// The traffic matrix of the same `float[]` object's samples.
    fn numa_profile() -> NumaProfile {
        NumaProfile {
            event: PmuEvent::L1Miss,
            period: 512,
            node_traffic: vec![((0, 0), 75), ((0, 1), 25)],
        }
    }

    #[test]
    fn frame_and_path_rendering_resolve_lines() {
        let methods = registry();
        let text = describe_frame(&Frame::new(MethodId(0), 7), &methods);
        assert_eq!(text, "ExtendedGeneralPath.makeRoom (ExtendedGeneralPath.java:743)");
        let unknown = describe_frame(&Frame::new(MethodId(42), 0), &methods);
        assert!(unknown.contains("unknown method"));
        let path =
            describe_path(&[Frame::new(MethodId(0), 0), Frame::new(MethodId(1), 0)], &methods, 2);
        assert!(path.contains("makeRoom"));
        assert!(path.contains("getNode"));
        assert!(describe_path(&[], &methods, 2).contains("no calling context"));
    }

    #[test]
    fn object_report_mentions_class_site_and_contexts() {
        let methods = registry();
        let text = Report::query(&result(), &methods).to_string();
        assert!(text.contains("float[]"));
        assert!(text.contains("21.0% of sampled events"));
        assert!(text.contains("2478 allocations"));
        assert!(text.contains("ExtendedGeneralPath.makeRoom (ExtendedGeneralPath.java:743)"));
        assert!(text.contains("SAHashMap.getNode"));
        assert!(text.contains("remote accesses 25.0%"));
    }

    #[test]
    fn compact_alloc_path_option_shows_only_the_leaf() {
        let methods = registry();
        let options = ReportOptions { full_alloc_paths: false, ..ReportOptions::default() };
        let text = Report::query(&result(), &methods).with_options(options).to_string();
        assert!(text.contains("makeRoom"));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let methods = registry();
        let empty = QueryResult { groups: vec![], ..result() };
        let text = Report::query(&empty, &methods).to_string();
        assert!(text.contains("no group matched the query"));
        let numa = NumaProfile { node_traffic: vec![], ..numa_profile() };
        let text = Report::numa_view(&numa, &empty, &methods).to_string();
        assert!(text.contains("no monitored object"));
    }

    #[test]
    fn numa_report_lists_remote_objects() {
        let methods = registry();
        let text = Report::numa_view(&numa_profile(), &result(), &methods).to_string();
        assert!(text.contains("float[]"));
        assert!(text.contains("remote 25.0%"));
        assert!(text.contains("makeRoom"));
    }

    #[test]
    fn report_display_subsumes_the_free_render_functions() {
        // `Display` is the one rendering entry point: default options are implied, and
        // options only narrow what is shown.
        let methods = registry();
        let result = result();
        let full = Report::query(&result, &methods).to_string();
        assert_eq!(
            full,
            Report::query(&result, &methods)
                .with_options(ReportOptions::default())
                .to_string()
        );
        let options = ReportOptions { top_objects: 1, top_contexts: 1, full_alloc_paths: false };
        let compact = Report::query(&result, &methods).with_options(options).to_string();
        assert!(compact.contains("float[]"));
        assert!(compact.len() <= full.len());
        assert_eq!(format!("{}", Report::query(&result, &methods)), full);
    }

    #[test]
    fn numa_view_report_renders_traffic_matrix_and_sites() {
        let methods = registry();
        let metrics = MetricVector {
            samples: 8,
            remote_samples: 6,
            local_samples: 2,
            ..MetricVector::default()
        };
        let profile = NumaProfile {
            event: PmuEvent::L1Miss,
            period: 512,
            node_traffic: vec![((0, 0), 2), ((0, 1), 6)],
        };
        let bitmap = one_object("long[] (bitmap)", metrics);
        let text = Report::numa_view(&profile, &bitmap, &methods).to_string();
        assert!(text.contains("NUMA session view"));
        assert!(text.contains("samples 8  remote 75.0%"));
        assert!(text.contains("node 0 -> node 1: 6 samples  (remote)"));
        assert!(text.contains("long[] (bitmap)  remote 75.0% (6 of 8 samples)"));
        assert!(text.contains("makeRoom"));

        // An object without remote samples is no NUMA finding.
        let local = MetricVector { remote_samples: 0, local_samples: 8, ..metrics };
        let text = Report::numa_view(&profile, &one_object("long[] (bitmap)", local), &methods)
            .to_string();
        assert!(text.contains("no monitored object shows remote accesses"));
        assert!(!text.contains("long[] (bitmap)"));
    }

    #[test]
    fn code_centric_report_renders_locations() {
        use crate::cct::Cct;
        let methods = registry();
        let mut cct = Cct::new();
        let node = cct.insert_path(&[Frame::new(MethodId(1), 0)]);
        cct.metrics_mut(node).weighted_events = 100;
        cct.metrics_mut(node).samples = 1;
        let profile =
            CodeCentricProfile { event: PmuEvent::L1Miss, period: 512, cct, total_samples: 1 };
        let options = ReportOptions { top_objects: 3, ..ReportOptions::default() };
        let text = Report::code_centric(&profile, &methods).with_options(options).to_string();
        assert!(text.contains("code-centric"));
        assert!(text.contains("SAHashMap.getNode:120"));
        assert!(text.contains("100.0%"));
    }
}
