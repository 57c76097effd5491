//! Measurement helpers used by the evaluation harnesses: run a workload with or without
//! the profiler attached, collect modeled execution time (for speedups), real wall-clock
//! time (for the profiler's runtime overhead), and memory footprints (for the memory
//! overhead), as §6 of the paper does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::HierarchyStats;
use djx_runtime::{MethodRegistry, Runtime, RuntimeStats};
use djxperf::{ObjectCentricProfile, ProfilerConfig, Query, QueryResult, Session};

use crate::Workload;

/// The outcome of one (unprofiled or profiled) workload run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workload name.
    pub name: String,
    /// Modeled execution cycles (memory latency + compute); the quantity speedups
    /// compare.
    pub modeled_cycles: u64,
    /// Real wall-clock time of the simulation loop; the quantity the profiler's runtime
    /// overhead compares, because the profiler does real work per event.
    pub wall: Duration,
    /// Runtime counters (allocations, GC cycles, accesses, peaks).
    pub stats: RuntimeStats,
    /// Ground-truth memory-hierarchy counters.
    pub hierarchy: HierarchyStats,
}

impl RunOutcome {
    /// Peak heap usage of the workload in bytes.
    pub fn peak_heap_bytes(&self) -> u64 {
        self.stats.peak_heap_used
    }
}

/// The outcome of a profiled run: measurement plus the profiler's output.
pub struct ProfiledRun {
    /// The run measurement (wall time includes the profiler's work).
    pub outcome: RunOutcome,
    /// The assembled object-centric profile.
    pub profile: ObjectCentricProfile,
    /// The merged, ranked analysis of that profile: objects by weighted events.
    pub report: QueryResult,
    /// The runtime's method registry, for symbolizing reports.
    pub methods: MethodRegistry,
    /// Approximate resident bytes of the profiler's data structures at the end of the
    /// run.
    pub profiler_bytes: usize,
    /// The session that profiled the run: lookup statistics, and the code-centric and
    /// NUMA views read off its object profile.
    pub session: Arc<Session>,
}

fn finish(name: &str, rt: &Runtime, wall: Duration) -> RunOutcome {
    RunOutcome {
        name: name.to_string(),
        modeled_cycles: rt.modeled_cycles(),
        wall,
        stats: rt.stats(),
        hierarchy: *rt.hierarchy().stats(),
    }
}

/// Runs a workload without any profiler attached (the "native execution" of §6).
///
/// # Panics
///
/// Panics if the workload itself fails; workloads in this crate are sized to their
/// runtime configuration and never fail.
pub fn run_unprofiled(workload: &dyn Workload) -> RunOutcome {
    let mut rt = Runtime::new(workload.runtime_config());
    let start = Instant::now();
    workload.run(&mut rt).expect("workload must run to completion");
    rt.shutdown();
    finish(&workload.name(), &rt, start.elapsed())
}

/// Runs a workload with DJXPerf attached from the start (launch mode) — the
/// configuration Figure 4's overhead measures — and returns both the measurement and
/// the profiler's output. The one pass answers all three views: the object profile,
/// and the code-centric and NUMA views read off it (Figure 1's comparison without a
/// second run).
///
/// # Panics
///
/// Panics if the workload itself fails.
pub fn run_profiled(workload: &dyn Workload, config: ProfilerConfig) -> ProfiledRun {
    let mut rt = Runtime::new(workload.runtime_config());
    let session = Session::builder().config(config).collect_objects().attach(&mut rt);
    let start = Instant::now();
    workload.run(&mut rt).expect("workload must run to completion");
    rt.shutdown();
    let wall = start.elapsed();

    let profile = session.object_profile().expect("object collector registered");
    let report = Query::new().evaluate(&profile).expect("an owned profile always evaluates");
    ProfiledRun {
        outcome: finish(&workload.name(), &rt, wall),
        profile,
        report,
        methods: rt.methods().clone(),
        profiler_bytes: session.memory_footprint_bytes(),
        session,
    }
}

/// The leaf allocation frame of an object-grouped query group (test helper).
#[cfg(test)]
pub(crate) fn alloc_leaf(group: &djxperf::QueryGroup) -> djx_runtime::Frame {
    match &group.key {
        djxperf::GroupKey::Object { alloc_path, .. } => {
            *alloc_path.last().expect("allocation path")
        }
        other => panic!("not an object group: {other:?}"),
    }
}

/// Whole-program speedup of `optimized` relative to `baseline`, computed over modeled
/// execution cycles (`>1` means the optimization helps).
pub fn speedup(baseline: &RunOutcome, optimized: &RunOutcome) -> f64 {
    if optimized.modeled_cycles == 0 {
        return 1.0;
    }
    baseline.modeled_cycles as f64 / optimized.modeled_cycles as f64
}

/// Runtime overhead of a profiled run relative to an unprofiled run of the same
/// workload, as a ratio of wall-clock times (`1.08` = 8% overhead).
pub fn runtime_overhead(unprofiled: &RunOutcome, profiled: &RunOutcome) -> f64 {
    let base = unprofiled.wall.as_secs_f64();
    if base == 0.0 {
        return 1.0;
    }
    profiled.wall.as_secs_f64() / base
}

/// Memory overhead of a profiled run: workload peak heap plus profiler-resident bytes,
/// relative to the workload peak heap alone.
pub fn memory_overhead(unprofiled: &RunOutcome, profiled: &ProfiledRun) -> f64 {
    let base = unprofiled.peak_heap_bytes().max(1) as f64;
    (profiled.outcome.peak_heap_bytes() as f64 + profiled.profiler_bytes as f64) / base
}

/// Geometric mean of a sequence of ratios (used for the Figure 4 summary rows).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (sum / values.len() as f64).exp()
}

/// Median of a sequence (used for the Figure 4 summary rows).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloat::BatikNvalsWorkload;
    use crate::Variant;
    use djxperf::GroupBy;

    #[test]
    fn unprofiled_and_profiled_runs_agree_on_workload_behaviour() {
        let workload = BatikNvalsWorkload::new(Variant::Baseline).scaled(0.1);
        let plain = run_unprofiled(&workload);
        let profiled = run_profiled(&workload, ProfilerConfig::default().with_period(64));
        // The profiler observes the run; it must not change what the workload does.
        assert_eq!(plain.stats.allocations, profiled.outcome.stats.allocations);
        assert_eq!(plain.stats.accesses, profiled.outcome.stats.accesses);
        assert_eq!(plain.modeled_cycles, profiled.outcome.modeled_cycles);
        assert!(profiled.profile.total_samples() > 0);
        assert!(profiled.report.hottest().is_some());
        assert!(profiled.profiler_bytes > 0);
        assert!(!profiled.methods.is_empty());
    }

    #[test]
    fn session_run_yields_all_views_and_matches_the_legacy_path() {
        let workload = BatikNvalsWorkload::new(Variant::Baseline).scaled(0.1);
        let config = ProfilerConfig::default().with_period(64);
        let rerun = run_profiled(&workload, config);
        let session = run_profiled(&workload, config);

        // A second pass reproduces the profile bit for bit, and the code-centric and
        // NUMA views read the same samples off it.
        assert_eq!(session.profile.to_text(), rerun.profile.to_text());
        assert_eq!(session.outcome.stats.accesses, rerun.outcome.stats.accesses);
        assert_eq!(session.outcome.modeled_cycles, rerun.outcome.modeled_cycles);
        let view = |axis| Query::new().group_by(axis).evaluate(&*session.session).unwrap();
        let (code, numa) = (view(GroupBy::Context), view(GroupBy::NodePair));
        let samples = |r: &QueryResult| r.groups.iter().map(|g| g.metrics.samples).sum::<u64>();
        assert_eq!(samples(&code), session.profile.total_samples());
        assert_eq!(samples(&numa), session.profile.total_samples());
        assert!(code.hottest().unwrap().fraction_of_total > 0.0);
        assert!(session.profiler_bytes > 0);
        assert_eq!(session.report.total_samples, rerun.report.total_samples);
    }

    #[test]
    fn speedup_and_overhead_ratios() {
        let fast = RunOutcome {
            name: "fast".into(),
            modeled_cycles: 50,
            wall: Duration::from_millis(10),
            stats: RuntimeStats::default(),
            hierarchy: HierarchyStats::default(),
        };
        let slow = RunOutcome {
            name: "slow".into(),
            modeled_cycles: 100,
            wall: Duration::from_millis(12),
            ..fast.clone()
        };
        assert!((speedup(&slow, &fast) - 2.0).abs() < 1e-12);
        assert!((runtime_overhead(&fast, &slow) - 1.2).abs() < 1e-9);
        let degenerate = RunOutcome { modeled_cycles: 0, ..fast.clone() };
        assert_eq!(speedup(&slow, &degenerate), 1.0);
    }

    #[test]
    fn geometric_mean_and_median() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
