//! The two views read off the object profile: the code-centric baseline (the "Linux
//! perf" stand-in) and the NUMA traffic matrix.
//!
//! Figure 1 of the paper contrasts *code-centric* profiling — PMU samples attributed
//! only to the instructions/calling contexts where they fired — with DJXPerf's
//! *object-centric* profiling, both from one set of samples. Here every sample is
//! recorded once, into its thread's [`ThreadProfile`](crate::profile::ThreadProfile):
//! its calling context's CCT node carries the sample's metrics whether or not an
//! object enclosed the address, and the thread's traffic matrix counts its
//! `(cpu_node, page_node)` pair. The views in this module are reads of that record —
//! [`CodeCentricProfile::from_profile`] merges the thread CCTs,
//! [`NumaProfile::from_profile`] sums the matrices — so a live
//! [`Session`](crate::session::Session), a replayed epoch log and a fleet fold answer
//! them alike. The evaluation harness reads [`CodeLocation`] rankings to regenerate
//! the Figure 1 comparison and the case-study discussions of why code-centric views
//! scatter an object's misses over many locations.

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, MethodRegistry};

use crate::cct::Cct;
use crate::fxhash::FxHashMap;
use crate::metrics::MetricVector;
use crate::profile::ObjectCentricProfile;

/// One ranked code location in a code-centric profile.
#[derive(Debug, Clone)]
pub struct CodeLocation {
    /// Full sampling calling context, root-first.
    pub path: Vec<Frame>,
    /// The innermost frame (the "instruction" the sample is charged to).
    pub leaf: Option<Frame>,
    /// Metrics attributed to this context.
    pub metrics: MetricVector,
    /// Fraction of all sampled events attributed to this context, in `[0, 1]`.
    pub fraction: f64,
}

impl CodeLocation {
    /// Renders the leaf as `Class.method:line` using the method registry.
    pub fn describe_leaf(&self, methods: &MethodRegistry) -> String {
        match self.leaf {
            Some(frame) => format!(
                "{}:{}",
                methods.qualified_name_of(frame.method),
                methods.line_of(frame.method, frame.bci)
            ),
            None => "<no context>".to_string(),
        }
    }
}

/// The code-centric view of a profile: every sample attributed solely to its
/// sampling calling context, with no notion of objects
/// ([`Session::code_profile`](crate::session::Session::code_profile)).
#[derive(Debug, Clone)]
pub struct CodeCentricProfile {
    /// Sampled event.
    pub event: PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// The calling context tree with per-context metrics.
    pub cct: Cct,
    /// Total samples collected.
    pub total_samples: u64,
}

impl CodeCentricProfile {
    /// Reads the view off an object profile: its thread CCTs merged top-down (§5.2)
    /// in thread order.
    pub fn from_profile(profile: &ObjectCentricProfile) -> Self {
        let mut cct = Cct::new();
        for thread in &profile.threads {
            cct.merge(&thread.cct);
        }
        Self {
            event: profile.event,
            period: profile.period,
            cct,
            total_samples: profile.total_samples(),
        }
    }

    /// The contexts ranked by attributed (weighted) events, hottest first, truncated to
    /// `top_n` entries (`usize::MAX` for all). Ties order by call path ascending, so
    /// the ranking does not depend on the order the CCT's nodes were created in.
    pub fn top_locations(&self, top_n: usize) -> Vec<CodeLocation> {
        let total: u64 = self.cct.nodes_with_metrics().map(|(_, _, m)| m.weighted_events).sum();
        let mut locations: Vec<CodeLocation> = self
            .cct
            .nodes_with_metrics()
            .map(|(_, path, m)| CodeLocation {
                leaf: path.last().copied(),
                path,
                metrics: *m,
                fraction: if total == 0 { 0.0 } else { m.weighted_events as f64 / total as f64 },
            })
            .collect();
        locations.sort_by(|a, b| {
            b.metrics
                .weighted_events
                .cmp(&a.metrics.weighted_events)
                .then_with(|| a.path.cmp(&b.path))
        });
        locations.truncate(top_n);
        locations
    }

    /// The hottest single location's fraction of all sampled events (0.0 when no sample
    /// was taken). Figure 1's point is that this number is far below the hottest
    /// *object's* fraction.
    pub fn hottest_location_fraction(&self) -> f64 {
        self.top_locations(1).first().map(|l| l.fraction).unwrap_or(0.0)
    }
}

/// The NUMA view of a profile: the node-to-node traffic matrix
/// ([`Session::numa_profile`](crate::session::Session::numa_profile)). A pair with
/// different nodes is a remote access
/// ([`Sample::is_remote_access`](djx_pmu::Sample::is_remote_access)).
/// Per-object remote and local counts live in the object profile's metrics; rank
/// objects by them with [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples).
#[derive(Debug, Clone)]
pub struct NumaProfile {
    /// Sampled event.
    pub event: PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// Samples per `(cpu_node, page_node)` pair, ordered by node pair.
    pub node_traffic: Vec<((u32, u32), u64)>,
}

impl NumaProfile {
    /// Reads the view off an object profile: its thread matrices summed, sorted by
    /// node pair.
    pub fn from_profile(profile: &ObjectCentricProfile) -> Self {
        let mut traffic: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for (pair, samples) in profile.threads.iter().flat_map(|t| &t.node_traffic) {
            *traffic.entry(*pair).or_insert(0) += samples;
        }
        let mut node_traffic: Vec<((u32, u32), u64)> = traffic.into_iter().collect();
        node_traffic.sort_unstable();
        Self { event: profile.event, period: profile.period, node_traffic }
    }

    /// Total samples in the matrix.
    pub fn total_samples(&self) -> u64 {
        self.node_traffic.iter().map(|(_, n)| n).sum()
    }

    /// Samples whose page lived on another node than the sampling CPU.
    pub fn remote_samples(&self) -> u64 {
        self.node_traffic
            .iter()
            .filter(|((cpu, page), _)| cpu != page)
            .map(|(_, n)| n)
            .sum()
    }

    /// Machine-wide fraction of samples that were remote accesses.
    pub fn remote_fraction(&self) -> f64 {
        match self.total_samples() {
            0 => 0.0,
            total => self.remote_samples() as f64 / total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
    use djx_runtime::{MemoryAccessEvent, MethodId, RuntimeListener, ThreadEvent, ThreadId};

    use crate::report::Report;
    use crate::session::Session;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    /// A session collecting only the code-centric view, driven directly as a listener.
    fn code_session(period: u64) -> Arc<Session> {
        Session::builder().period(period).collect_code().build()
    }

    fn drive(session: &Session, thread: u64, base: u64, count: u64, trace: &[Frame]) {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        for i in 0..count {
            let outcome = hier.access(MemoryAccess::load(0, base + i * 64, 8));
            session.on_memory_access(&MemoryAccessEvent {
                thread: ThreadId(thread),
                outcome,
                call_trace: trace,
                object: None,
            });
        }
    }

    #[test]
    fn samples_attach_to_code_contexts() {
        let session = code_session(4);
        session.on_thread_start(&ThreadEvent { thread: ThreadId(1), name: "main", cpu: 0 });
        let hot = [f(1, 0), f(2, 4)];
        let cold = [f(1, 0), f(3, 8)];
        drive(&session, 1, 0x10_0000, 512, &hot);
        drive(&session, 1, 0x20_0000, 64, &cold);

        assert!(session.total_samples() > 0);
        let profile = session.code_profile().unwrap();
        assert_eq!(profile.total_samples, session.total_samples());
        let top = profile.top_locations(10);
        assert!(top.len() >= 2);
        assert_eq!(top[0].path, hot.to_vec(), "hot context ranks first");
        assert_eq!(top[0].leaf, Some(f(2, 4)));
        assert!(top[0].fraction > top[1].fraction);
        let sum: f64 = top.iter().map(|l| l.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
        assert!(profile.hottest_location_fraction() > 0.5);
    }

    #[test]
    fn tied_locations_rank_by_path_whatever_the_insertion_order() {
        let mut methods = MethodRegistry::new();
        for name in ["a", "b", "c"] {
            methods.register("Tie", name, "Tie.java", &[(0, 1)]);
        }
        // Three equally hot contexts and one hotter one, as path → metrics.
        let contexts: Vec<(Vec<Frame>, u64)> = vec![
            (vec![f(0, 0), f(2, 0)], 10),
            (vec![f(1, 0)], 10),
            (vec![f(0, 0), f(1, 0)], 10),
            (vec![f(2, 0)], 30),
        ];
        let profile = |order: &mut dyn Iterator<Item = &(Vec<Frame>, u64)>| {
            let mut cct = Cct::new();
            for (path, weighted) in order {
                let node = cct.insert_path(path);
                cct.metrics_mut(node).weighted_events = *weighted;
                cct.metrics_mut(node).samples = 1;
            }
            CodeCentricProfile { event: PmuEvent::L1Miss, period: 1, cct, total_samples: 4 }
        };
        let forward = profile(&mut contexts.iter());
        let backward = profile(&mut contexts.iter().rev());
        let ranked = |p: &CodeCentricProfile| {
            p.top_locations(usize::MAX)
                .into_iter()
                .map(|l| (l.path, l.metrics, l.fraction))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranked(&forward), ranked(&backward));
        let paths: Vec<Vec<Frame>> = ranked(&forward).into_iter().map(|(p, _, _)| p).collect();
        assert_eq!(
            paths,
            vec![vec![f(2, 0)], vec![f(0, 0), f(1, 0)], vec![f(0, 0), f(2, 0)], vec![f(1, 0)]]
        );
        assert_eq!(
            Report::code_centric(&forward, &methods).to_string(),
            Report::code_centric(&backward, &methods).to_string()
        );
    }

    #[test]
    fn threads_without_start_event_are_handled() {
        let session = code_session(2);
        drive(&session, 9, 0x30_0000, 64, &[f(5, 0)]);
        assert!(session.total_samples() > 0);
    }

    #[test]
    fn thread_end_disables_sampling() {
        let session = code_session(1);
        session.on_thread_start(&ThreadEvent { thread: ThreadId(1), name: "t", cpu: 0 });
        drive(&session, 1, 0x10_0000, 16, &[]);
        let before = session.total_samples();
        session.on_thread_end(&ThreadEvent { thread: ThreadId(1), name: "t", cpu: 0 });
        drive(&session, 1, 0x10_0000, 16, &[]);
        assert_eq!(session.total_samples(), before);
    }

    #[test]
    fn empty_profile_has_no_locations() {
        let profile = code_session(100).code_profile().unwrap();
        assert!(profile.top_locations(5).is_empty());
        assert_eq!(profile.hottest_location_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = code_session(0);
    }

    #[test]
    fn describe_leaf_resolves_names() {
        let mut methods = MethodRegistry::new();
        let m = methods.register("FFT", "transform_internal", "FFT.java", &[(0, 165), (10, 171)]);
        let loc = CodeLocation {
            path: vec![Frame::new(m, 12)],
            leaf: Some(Frame::new(m, 12)),
            metrics: MetricVector::default(),
            fraction: 0.5,
        };
        assert_eq!(loc.describe_leaf(&methods), "FFT.transform_internal:171");
        let no_leaf = CodeLocation {
            path: vec![],
            leaf: None,
            metrics: MetricVector::default(),
            fraction: 0.0,
        };
        assert_eq!(no_leaf.describe_leaf(&methods), "<no context>");
    }
}
