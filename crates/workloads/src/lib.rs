//! # djx-workloads — synthetic workloads and case-study kernels
//!
//! The paper evaluates DJXPerf on real Java/Scala programs: the Dacapo, Renaissance,
//! SPECjvm2008 and Java Grande benchmark suites plus more than twenty real-world
//! applications (FindBugs, ObjectLayout, Eclipse Collections, Apache Druid, …). Those
//! programs cannot run on the simulated runtime, so this crate re-creates the *access
//! patterns* the paper diagnoses in them — allocation-in-loop memory bloat, large-stride
//! loop nests, repeatedly grown arrays, NUMA-unfriendly master-initialize/worker-read
//! data — as parameterized kernels driven through [`djx_runtime::Runtime`]. Every case
//! study comes in a *baseline* and an *optimized* [`Variant`], mirroring the paper's
//! before/after measurements, and a catalog of suite benchmarks
//! ([`suite`]) feeds the overhead experiment (Figure 4).
//!
//! | module | paper material |
//! |---|---|
//! | [`bloat`] | Listings 1–2 (batik `nvals`, lusearch `collector`), §1.1 |
//! | [`figure1`] | Figure 1 (code-centric vs object-centric attribution) |
//! | [`fft`] | §7.4 SPECjvm2008 Scimark.fft.large |
//! | [`objectlayout`] | §7.1 ObjectLayout SAHashMap |
//! | [`findbugs`] | §7.2 FindBugs 3.0.1 |
//! | [`scala_stm`] | §7.3 Renaissance scala-stm-bench7 `_wDispatch` growth |
//! | [`numa`] | §7.5 Eclipse Collections, §7.6 Apache Druid |
//! | [`insignificant`] | Table 2 (cold-bloat objects whose optimization does not pay) |
//! | [`suite`] | Figure 4 benchmark catalog (Renaissance / Dacapo / SPECjvm2008) |
//! | [`runner`] | measurement helpers: modeled speedups, wall-clock overhead |

use djx_runtime::{Runtime, RuntimeConfig};

pub mod bloat;
pub mod fft;
pub mod figure1;
pub mod findbugs;
pub mod insignificant;
pub mod numa;
pub mod objectlayout;
pub mod runner;
pub mod scala_stm;
pub mod suite;

pub use runner::{run_profiled, run_unprofiled, speedup, ProfiledRun, RunOutcome};

/// Which side of a case study to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// The code as the paper found it (the problematic pattern).
    #[default]
    Baseline,
    /// The code after applying the optimization DJXPerf guided.
    Optimized,
}

impl Variant {
    /// Both variants, baseline first.
    pub const BOTH: [Variant; 2] = [Variant::Baseline, Variant::Optimized];

    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Optimized => "optimized",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A runnable synthetic workload.
///
/// Workloads register their own classes and methods, spawn their own (logical) threads,
/// perform their accesses through the runtime, and finish every thread before returning,
/// so a profiler attached as a listener observes a complete program execution.
pub trait Workload: Send + Sync {
    /// Human-readable name (`"batik-nvals"`, `"scimark.fft.large"`, …).
    fn name(&self) -> String;

    /// The runtime configuration the workload wants (heap size, machine geometry).
    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation()
    }

    /// Executes the workload against a runtime built from [`Workload::runtime_config`].
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (heap exhaustion, invalid accesses); a correctly sized
    /// workload never fails.
    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()>;
}

/// A named case study: the workload pair (baseline/optimized) plus the facts from the
/// paper the reproduction checks against.
pub struct CaseStudy {
    /// Case-study name as used in Table 1.
    pub name: &'static str,
    /// The application/benchmark the paper analyzed.
    pub source: &'static str,
    /// Class name of the problematic object DJXPerf is expected to surface.
    pub problem_class: &'static str,
    /// Whole-program speedup the paper reports for the optimization (point estimate).
    pub paper_speedup: f64,
    /// What kind of inefficiency the case exhibits.
    pub kind: CaseKind,
    /// Builds the workload for a variant.
    pub build: fn(Variant) -> Box<dyn Workload>,
}

/// Classification of a case study's inefficiency, following Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Allocation-in-loop memory bloat with hot accesses.
    Bloat,
    /// Poor spatial/temporal locality of accesses to one data structure.
    Locality,
    /// Repeatedly regrown/copied data structure.
    Growth,
    /// NUMA remote-access imbalance.
    Numa,
}

impl CaseKind {
    /// Table-1-style description of the inefficiency.
    pub fn description(self) -> &'static str {
        match self {
            CaseKind::Bloat => "excessive memory usage in nested loops",
            CaseKind::Locality => "problematic data with high L1 cache misses",
            CaseKind::Growth => "frequent reallocation from a too-small initial size",
            CaseKind::Numa => "NUMA remote access",
        }
    }
}

/// Every Table 1 case study reproduced in this crate, in the paper's order.
pub fn table1_case_studies() -> Vec<CaseStudy> {
    vec![
        CaseStudy {
            name: "ObjectLayout 1.0.5",
            source: "SAHashMapBench",
            problem_class: "int[] (intAddressableElements)",
            paper_speedup: 1.45,
            kind: CaseKind::Bloat,
            build: |v| Box::new(objectlayout::ObjectLayoutWorkload::new(v)),
        },
        CaseStudy {
            name: "FindBugs 3.0.1",
            source: "jfreechart 1.0.19",
            problem_class: "char[] (buf)",
            paper_speedup: 1.11,
            kind: CaseKind::Bloat,
            build: |v| Box::new(findbugs::FindBugsWorkload::new(v)),
        },
        CaseStudy {
            name: "Renaissance scala-stm-bench7",
            source: "AccessHistory.scala:619",
            problem_class: "int[] (_wDispatch)",
            paper_speedup: 1.12,
            kind: CaseKind::Growth,
            build: |v| Box::new(scala_stm::ScalaStmWorkload::new(v)),
        },
        CaseStudy {
            name: "SPECjvm2008 Scimark.fft.large",
            source: "FFT.transform_internal",
            problem_class: "double[] (data)",
            paper_speedup: 2.37,
            kind: CaseKind::Locality,
            build: |v| Box::new(fft::FftWorkload::new(v)),
        },
        CaseStudy {
            name: "Eclipse Collections",
            source: "Interval.toArray / InternalArrayIterate",
            problem_class: "Integer[] (result)",
            paper_speedup: 1.13,
            kind: CaseKind::Numa,
            build: |v| Box::new(numa::EclipseCollectionsWorkload::new(v)),
        },
        CaseStudy {
            name: "Apache Druid",
            source: "WrappedImmutableBitSetBitmap",
            problem_class: "long[] (bitmap)",
            paper_speedup: 1.75,
            kind: CaseKind::Numa,
            build: |v| Box::new(numa::DruidBitmapWorkload::new(v)),
        },
        CaseStudy {
            name: "Dacapo 9.12 batik (Listing 1)",
            source: "ExtendedGeneralPath.makeRoom",
            problem_class: "float[] (nvals)",
            paper_speedup: 1.15,
            kind: CaseKind::Bloat,
            build: |v| Box::new(bloat::BatikNvalsWorkload::new(v)),
        },
        CaseStudy {
            name: "Dacapo 9.12 lusearch (Listing 2)",
            source: "IndexSearcher.search",
            problem_class: "TopDocCollector",
            paper_speedup: 1.0,
            kind: CaseKind::Bloat,
            build: |v| Box::new(bloat::LusearchCollectorWorkload::new(v)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Baseline.label(), "baseline");
        assert_eq!(Variant::Optimized.to_string(), "optimized");
        assert_eq!(Variant::BOTH.len(), 2);
        assert_eq!(Variant::default(), Variant::Baseline);
    }

    #[test]
    fn case_kind_descriptions_are_nonempty() {
        for kind in [CaseKind::Bloat, CaseKind::Locality, CaseKind::Growth, CaseKind::Numa] {
            assert!(!kind.description().is_empty());
        }
    }

    #[test]
    fn table1_catalog_is_complete_and_buildable() {
        let cases = table1_case_studies();
        assert_eq!(cases.len(), 8);
        for case in &cases {
            assert!(case.paper_speedup >= 1.0);
            let baseline = (case.build)(Variant::Baseline);
            let optimized = (case.build)(Variant::Optimized);
            assert!(!baseline.name().is_empty());
            assert_eq!(baseline.name(), optimized.name(), "name is variant-independent");
        }
    }
}
