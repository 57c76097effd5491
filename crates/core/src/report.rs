//! Textual rendering of analysis results — the stand-in for DJXPerf's Python GUI
//! (Figure 5 of the paper): a top-down view showing, for each problematic object, its
//! allocation site in source terms (`Class.method (File:line)`), its allocation call
//! path, and the access call paths ordered by their contribution to the object's
//! locality loss.
//!
//! The one entry point is [`Report::query`], a `Display`able view of any
//! [`QueryResult`] — object-grouped results in the Figure 5 layout, every other axis
//! as its ranked groups with symbolized frames — so every rendering composes with
//! `println!`, `format!` and logging. Every view is a query: the code-centric
//! baseline of Figure 1 is a [`GroupBy::Context`] result, the NUMA traffic matrix a
//! [`GroupBy::NodePair`] one, and the per-object NUMA ranking an object result
//! ranked by [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples). Reports
//! rank nothing themselves: they list groups in the order the result gives them.

use std::fmt::{self, Write as _};

use djx_runtime::{Frame, MethodRegistry};

use crate::query::{GroupBy, GroupKey, QueryGroup, QueryResult};

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
    /// How many groups to show, in the result's order.
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

/// The symbolized view of a [`QueryResult`]: construct with [`Report::query`], tune
/// with [`Report::with_options`], and render via [`Display`](fmt::Display):
///
/// ```
/// use djx_runtime::{dsl, Runtime, RuntimeConfig};
/// use djxperf::{Query, RankBy, Report, Session};
///
/// let mut rt = Runtime::new(RuntimeConfig::small());
/// let session = Session::builder().period(64).collect_objects().attach(&mut rt);
/// let class = rt.register_array_class("float[]", 4);
/// let method = dsl::MethodSpec::at_line("A", "run", "A.java", 7).register(&mut rt);
/// let thread = rt.spawn_thread("main");
/// dsl::bloat_loop(&mut rt, thread, class, method, 0, 50, 512, 16).unwrap();
/// rt.finish_thread(thread).unwrap();
/// rt.shutdown();
///
/// let result = Query::new().rank_by(RankBy::Samples).evaluate(&*session).unwrap();
/// let text = Report::query(&result, rt.methods()).to_string();
/// assert!(text.contains("#1 float[]  —  100.0% of sampled events"));
/// assert!(text.contains("A.run (A.java:7)"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Report<'a> {
    result: &'a QueryResult,
    methods: &'a MethodRegistry,
    options: ReportOptions,
}

impl<'a> Report<'a> {
    /// A symbolized view of a [`QueryResult`]: object-grouped results render in the
    /// Figure 5 layout (allocation site, allocation path, access contexts); the other
    /// axes list their ranked groups with resolved frames.
    pub fn query(result: &'a QueryResult, methods: &'a MethodRegistry) -> Self {
        Self { result, methods, options: ReportOptions::default() }
    }

    /// Replaces the rendering options.
    pub fn with_options(mut self, options: ReportOptions) -> Self {
        self.options = options;
        self
    }
}

impl fmt::Display for Report<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render_query_text(self.result, self.methods, self.options))
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
                    GroupKey::Context(path) => path
                        .last()
                        .map_or_else(|| group.label.clone(), |leaf| describe_frame(leaf, methods)),
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
                if let GroupKey::Context(path) = &group.key {
                    out.push_str(&describe_path(path, methods, 8));
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use djx_pmu::PmuEvent;
    use djx_runtime::MethodId;

    use djx_memsim::{AccessKind, NumaNode};
    use djx_runtime::ThreadId;

    use crate::metrics::MetricVector;
    use crate::object::{AllocSite, AllocSiteId};
    use crate::profile::{AllocationStats, ObjectCentricProfile, ThreadProfile};
    use crate::query::{AccessContext, Query, RankBy};

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

    /// A one-thread profile of `long[] (bitmap)` samples at `MethodId(1)`: `local`
    /// samples on node 0's pages and `remote` on node 1's, all from a node-0 CPU.
    fn bitmap_profile(local: u64, remote: u64) -> ObjectCentricProfile {
        let mut thread = ThreadProfile::new(ThreadId(1), "main");
        for i in 0..local + remote {
            let sample = djx_pmu::Sample {
                event: PmuEvent::L1Miss,
                thread_id: 1,
                cpu: 0,
                cpu_node: NumaNode(0),
                page_node: NumaNode(u32::from(i >= local)),
                effective_addr: 0,
                kind: AccessKind::Load,
                value: 1,
                latency: 100,
                counter_value: 0,
            };
            thread.record_sample(Some(AllocSiteId(0)), &[Frame::new(MethodId(1), 0)], &sample, 512);
        }
        ObjectCentricProfile {
            event: PmuEvent::L1Miss,
            period: 512,
            size_filter: 1024,
            sites: vec![AllocSite {
                id: AllocSiteId(0),
                class_name: "long[] (bitmap)".into(),
                call_path: vec![Frame::new(MethodId(0), 5)],
            }],
            threads: vec![thread],
            allocation_stats: AllocationStats::default(),
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
        let no_cells = Query::new().group_by(GroupBy::NodePair).evaluate(&bitmap_profile(0, 0));
        let text = Report::query(&no_cells.unwrap(), &methods).to_string();
        assert!(text.contains("no group matched the query"));
    }

    #[test]
    fn numa_report_lists_remote_objects() {
        let methods = registry();
        let remote = QueryResult { rank_by: RankBy::RemoteSamples, ..result() };
        let text = Report::query(&remote, &methods).to_string();
        assert!(text.contains("rank by remote_samples"));
        assert!(text.contains("float[]"));
        assert!(text.contains("remote accesses 25.0%"));
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
        let profile = bitmap_profile(2, 6);
        let matrix = Query::new().group_by(GroupBy::NodePair).evaluate(&profile).unwrap();
        let text = Report::query(&matrix, &methods).to_string();
        assert!(text.contains("group by node_pair"));
        assert!(text.contains("samples 8"));
        // Cells carry no weighted events, so the default ranking lists them by pair.
        assert!(text.contains("#1 node 0 -> node 0  —  25.0% of total (2 samples, remote 0.0%)"));
        assert!(text.contains("#2 node 0 -> node 1  —  75.0% of total (6 samples, remote 100.0%)"));
        let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&profile).unwrap();
        let text = Report::query(&remote, &methods).to_string();
        assert!(text.contains("#1 long[] (bitmap)"));
        assert!(text.contains("remote accesses 75.0%"));
        assert!(text.contains("(8 samples,"));
        assert!(text.contains("makeRoom"));

        // An object without remote samples is no NUMA finding: the matrix has no
        // off-diagonal cell, and the top remote object shows none.
        let local = bitmap_profile(8, 0);
        let matrix = Query::new().group_by(GroupBy::NodePair).evaluate(&local).unwrap();
        let text = Report::query(&matrix, &methods).to_string();
        assert!(text.contains("#1 node 0 -> node 0  —  100.0% of total (8 samples, remote 0.0%)"));
        assert!(!text.contains("#2"));
        let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&local).unwrap();
        assert_eq!(remote.hottest().unwrap().metrics.remote_samples, 0);
        assert!(Report::query(&remote, &methods).to_string().contains("remote accesses 0.0%"));
    }

    #[test]
    fn code_centric_report_renders_locations() {
        let methods = registry();
        let profile = bitmap_profile(1, 0);
        let code = Query::new().group_by(GroupBy::Context).evaluate(&profile).unwrap();
        let options = ReportOptions { top_objects: 3, ..ReportOptions::default() };
        let text = Report::query(&code, &methods).with_options(options).to_string();
        assert!(text.contains("group by context"));
        assert!(text.contains("#1 SAHashMap.getNode (SAHashMap.java:120)  —  100.0% of total"));
    }

    #[test]
    fn describe_leaf_resolves_names() {
        let mut methods = MethodRegistry::new();
        let m = methods.register("FFT", "transform_internal", "FFT.java", &[(0, 165), (10, 171)]);
        let context = |path: Vec<Frame>| QueryGroup {
            key: GroupKey::Context(path),
            label: String::new(),
            ..result().groups[0].clone()
        };
        let code = QueryResult {
            group_by: GroupBy::Context,
            groups: vec![context(vec![Frame::new(m, 12)]), context(vec![])],
            ..result()
        };
        let text = Report::query(&code, &methods).to_string();
        assert!(text.contains("#1 FFT.transform_internal (FFT.java:171)  —"), "{text}");
        assert!(text.contains("#2   —"), "an empty path keeps its label: {text}");
        assert!(text.contains("        <no calling context>\n"), "{text}");
    }
}
