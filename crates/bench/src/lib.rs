//! # djx-bench — evaluation harnesses
//!
//! One binary per table/figure of the paper's evaluation, plus Criterion
//! microbenchmarks for the profiler's hot data structures. The binaries print the same
//! rows/series the paper reports, so their stdout sits beside the paper's numbers (the
//! end-to-end and per-layer pipeline benchmark is `perfbench/`, declared in
//! `BENCHMARK.json`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_motivation` | Figure 1 (code-centric vs object-centric attribution) |
//! | `motivation_bloat` | Listings 1–2 (hot vs cold memory bloat, §1.1) |
//! | `fig4_overhead` | Figure 4a/4b (runtime and memory overhead over 50 benchmarks) |
//! | `accuracy` | §6 accuracy (five known locality issues re-detected) |
//! | `ablation_size_filter` | §6 "further discussions" (S = 0 vs S = 1 KiB) |
//! | `table1_case_studies` | Table 1 (case-study speedups) |
//! | `table2_insignificant` | Table 2 (insignificant-object optimizations) |
//!
//! This library holds the shared measurement and formatting helpers the binaries use.

use std::time::Duration;

use djx_workloads::runner::{
    geometric_mean, median, memory_overhead, run_profiled, run_unprofiled, speedup, ProfiledRun,
    RunOutcome,
};
use djx_workloads::{Variant, Workload};
use djxperf::ProfilerConfig;

/// Number of repetitions used by the overhead experiments. The paper runs each
/// benchmark 30 times on real hardware; the simulator is deterministic in its modeled
/// metrics, so repetitions only smooth wall-clock noise.
pub const DEFAULT_REPETITIONS: usize = 3;

/// Sampling period used by the simulated evaluation runs.
///
/// The paper samples every 5M L1 misses over multi-minute executions; the simulated
/// workloads execute 10⁵–10⁷ accesses, so the period is scaled to keep the paper's
/// "tens to hundreds of samples per thread" regime (see [`djxperf::DEFAULT_SAMPLE_PERIOD`]).
pub const EVALUATION_PERIOD: u64 = 2048;

/// The profiler configuration used by the evaluation harnesses.
pub fn evaluation_profiler() -> ProfilerConfig {
    ProfilerConfig::default().with_period(EVALUATION_PERIOD)
}

/// Formats a `1.23x`-style ratio.
pub fn fmt_ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage with one decimal.
pub fn fmt_percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a duration in milliseconds with two decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// A minimal fixed-width table printer for harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row. Rows shorter than the header are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The measured result of one overhead data point (one benchmark of Figure 4).
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Benchmark name.
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Measured runtime overhead (profiled wall / unprofiled wall).
    pub runtime_overhead: f64,
    /// Measured memory overhead ((heap + profiler bytes) / heap).
    pub memory_overhead: f64,
    /// Runtime overhead the paper reports for this benchmark.
    pub paper_runtime_overhead: f64,
    /// Memory overhead the paper reports for this benchmark.
    pub paper_memory_overhead: f64,
    /// Allocation callbacks the profiler handled (the overhead driver).
    pub allocation_callbacks: u64,
    /// PMU samples taken.
    pub samples: u64,
    /// Object-index lookup statistics (splaying and read-only lookups, merged over
    /// every shard) — the profiler's self-monitoring view of the resolution hot path.
    pub splay: djxperf::LookupStats,
}

/// Measures one benchmark of the Figure 4 catalog: `repetitions` unprofiled and
/// profiled runs, keeping the median wall time of each.
pub fn measure_overhead_point(
    bench: &djx_workloads::suite::SuiteBenchmark,
    config: ProfilerConfig,
    repetitions: usize,
) -> OverheadPoint {
    let workload = bench.build();
    let repetitions = repetitions.max(1);

    let mut plain_walls = Vec::new();
    let mut plain_last: Option<RunOutcome> = None;
    for _ in 0..repetitions {
        let outcome = run_unprofiled(&workload);
        plain_walls.push(outcome.wall.as_secs_f64());
        plain_last = Some(outcome);
    }
    let mut profiled_walls = Vec::new();
    let mut profiled_last: Option<ProfiledRun> = None;
    for _ in 0..repetitions {
        let run = run_profiled(&workload, config);
        profiled_walls.push(run.outcome.wall.as_secs_f64());
        profiled_last = Some(run);
    }

    let plain = plain_last.expect("at least one repetition");
    let profiled = profiled_last.expect("at least one repetition");
    let runtime = median(&profiled_walls) / median(&plain_walls).max(f64::MIN_POSITIVE);
    OverheadPoint {
        name: bench.name.to_string(),
        suite: bench.suite.to_string(),
        runtime_overhead: runtime,
        memory_overhead: memory_overhead(&plain, &profiled),
        paper_runtime_overhead: bench.paper_runtime_overhead,
        paper_memory_overhead: bench.paper_memory_overhead,
        allocation_callbacks: profiled.profile.allocation_stats.callbacks,
        samples: profiled.profile.total_samples(),
        splay: profiled.session.splay_lookup_stats(),
    }
}

/// Summary statistics over a set of overhead points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadSummary {
    /// Geometric-mean runtime overhead.
    pub runtime_geomean: f64,
    /// Median runtime overhead.
    pub runtime_median: f64,
    /// Geometric-mean memory overhead.
    pub memory_geomean: f64,
    /// Median memory overhead.
    pub memory_median: f64,
}

/// Summarizes overhead points the way the Figure 4 caption does (geomean + median).
pub fn summarize_overhead(points: &[OverheadPoint]) -> OverheadSummary {
    let runtime: Vec<f64> = points.iter().map(|p| p.runtime_overhead).collect();
    let memory: Vec<f64> = points.iter().map(|p| p.memory_overhead).collect();
    OverheadSummary {
        runtime_geomean: geometric_mean(&runtime),
        runtime_median: median(&runtime),
        memory_geomean: geometric_mean(&memory),
        memory_median: median(&memory),
    }
}

/// The measured result of one Table 1 / Table 2 case-study row.
#[derive(Debug, Clone)]
pub struct CaseStudyRow {
    /// Case-study name.
    pub name: String,
    /// Class name of the problematic object.
    pub problem_class: String,
    /// Fraction of sampled events attributed to that object in the baseline run.
    pub object_fraction: f64,
    /// Remote-access fraction of that object in the baseline run (NUMA cases).
    pub remote_fraction: f64,
    /// Times the object was allocated in the baseline run.
    pub allocations: u64,
    /// Whole-program modeled speedup of the optimized over the baseline variant.
    pub measured_speedup: f64,
    /// Speedup the paper reports.
    pub paper_speedup: f64,
}

/// Measures one case study: profiles the baseline (to locate the object), then compares
/// modeled execution time between the baseline and optimized variants.
pub fn measure_case_study(
    name: &str,
    problem_class: &str,
    paper_speedup: f64,
    build: impl Fn(Variant) -> Box<dyn Workload>,
    config: ProfilerConfig,
) -> CaseStudyRow {
    let baseline = build(Variant::Baseline);
    let optimized = build(Variant::Optimized);

    let profiled = run_profiled(baseline.as_ref(), config);
    let object = profiled.report.find_class(problem_class);

    let base_outcome = run_unprofiled(baseline.as_ref());
    let opt_outcome = run_unprofiled(optimized.as_ref());

    CaseStudyRow {
        name: name.to_string(),
        problem_class: problem_class.to_string(),
        object_fraction: object.map(|o| o.fraction_of_total).unwrap_or(0.0),
        remote_fraction: object.map(|o| o.remote_fraction).unwrap_or(0.0),
        allocations: object.map(|o| o.metrics.allocations).unwrap_or(0),
        measured_speedup: speedup(&base_outcome, &opt_outcome),
        paper_speedup,
    }
}

/// Runtime-overhead measurement for the size-filter ablation: wall-clock ratio of a
/// profiled run with the given filter to an unprofiled run.
pub fn measure_filter_overhead(
    workload: &dyn Workload,
    size_filter: u64,
    repetitions: usize,
) -> (f64, u64) {
    let config = ProfilerConfig { size_filter, ..evaluation_profiler() };
    let repetitions = repetitions.max(1);
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let mut monitored = 0;
    for _ in 0..repetitions {
        plain.push(run_unprofiled(workload).wall.as_secs_f64());
        let run = run_profiled(workload, config);
        monitored = run.profile.allocation_stats.monitored;
        profiled.push(run.outcome.wall.as_secs_f64());
    }
    (median(&profiled) / median(&plain).max(f64::MIN_POSITIVE), monitored)
}

/// Convenience re-export bundle used by the harness binaries.
pub mod prelude {
    pub use super::{
        evaluation_profiler, fmt_ms, fmt_percent, fmt_ratio, measure_case_study,
        measure_filter_overhead, measure_overhead_point, summarize_overhead, CaseStudyRow,
        OverheadPoint, OverheadSummary, Table, DEFAULT_REPETITIONS, EVALUATION_PERIOD,
    };
    pub use djx_workloads::runner::{
        geometric_mean, median, memory_overhead, run_profiled, run_session, run_unprofiled,
        runtime_overhead, speedup,
    };
    pub use djx_workloads::{table1_case_studies, Variant, Workload};
    pub use djxperf::{LookupStats, ProfilerConfig, Query, Report, ReportOptions};
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_workloads::bloat::BatikNvalsWorkload;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["benchmark", "overhead"]);
        assert!(t.is_empty());
        t.row(&["akka-uct".to_string(), "1.71x".to_string()]);
        t.row(&["dotty".to_string()]);
        let text = t.render();
        assert_eq!(t.len(), 2);
        assert!(text.contains("benchmark"));
        assert!(text.contains("akka-uct"));
        assert!(text.contains("1.71x"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(1.234), "1.23x");
        assert_eq!(fmt_percent(0.215), "21.5%");
        assert!(fmt_ms(Duration::from_micros(1500)).starts_with("1.50"));
    }

    #[test]
    fn overhead_summary_over_synthetic_points() {
        let mk = |r: f64, m: f64| OverheadPoint {
            name: "x".into(),
            suite: "s".into(),
            runtime_overhead: r,
            memory_overhead: m,
            paper_runtime_overhead: r,
            paper_memory_overhead: m,
            allocation_callbacks: 0,
            samples: 0,
            splay: djxperf::LookupStats::default(),
        };
        let points = vec![mk(1.0, 1.0), mk(1.21, 1.1)];
        let summary = summarize_overhead(&points);
        assert!((summary.runtime_geomean - 1.1).abs() < 0.01);
        assert!((summary.runtime_median - 1.105).abs() < 0.01);
        assert!(summary.memory_geomean > 1.0);
    }

    #[test]
    fn case_study_measurement_produces_consistent_row() {
        let row = measure_case_study(
            "batik",
            "float[] (nvals)",
            1.15,
            |v| Box::new(BatikNvalsWorkload::new(v).scaled(0.1)),
            evaluation_profiler().with_period(64),
        );
        assert_eq!(row.problem_class, "float[] (nvals)");
        assert!(row.object_fraction > 0.0);
        assert!(row.allocations > 0);
        assert!(row.measured_speedup > 1.0);
    }

    #[test]
    fn filter_overhead_monitors_fewer_objects_with_a_larger_filter() {
        let workload = BatikNvalsWorkload::new(Variant::Baseline).scaled(0.05);
        let (_ovh_all, monitored_all) = measure_filter_overhead(&workload, 0, 1);
        let (_ovh_huge, monitored_huge) = measure_filter_overhead(&workload, 1 << 30, 1);
        assert!(monitored_all > monitored_huge);
        assert_eq!(monitored_huge, 0);
    }
}
