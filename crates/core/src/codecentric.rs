//! The code-centric baseline view (the "Linux perf" stand-in).
//!
//! Figure 1 of the paper contrasts *code-centric* profiling — PMU samples attributed
//! only to the instructions/calling contexts where they fired — with DJXPerf's
//! *object-centric* profiling. A [`Session`](crate::session::Session) registered with
//! [`collect_code`](crate::session::SessionBuilder::collect_code) collects the baseline
//! through its [`CodeCentricCollector`](crate::session::CodeCentricCollector): the same
//! sampling stream as every other collector, with every sample attributed solely to
//! its sampling calling context and no notion of objects. This module holds the
//! resulting [`CodeCentricProfile`] and its ranked [`CodeLocation`]s, which the
//! evaluation harness reads to regenerate the Figure 1 comparison and the
//! case-study discussions of why code-centric views scatter an object's misses over
//! many locations.

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, MethodRegistry};

use crate::cct::Cct;
use crate::metrics::MetricVector;

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

/// The assembled code-centric view of a session
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
    /// The contexts ranked by attributed (weighted) events, hottest first, truncated to
    /// `top_n` entries (`usize::MAX` for all).
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
        locations.sort_by_key(|l| std::cmp::Reverse(l.metrics.weighted_events));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
    use djx_runtime::{MemoryAccessEvent, MethodId, RuntimeListener, ThreadEvent, ThreadId};

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
