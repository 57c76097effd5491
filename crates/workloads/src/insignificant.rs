//! Table 2 — attempts to optimize *insignificant* objects.
//!
//! Every code base in Table 2 has a textbook memory-bloat pattern: an object allocated
//! over and over inside a loop, with instances whose lifetimes never overlap. Prior
//! bloat detectors, which rank by allocation frequency, would all flag them. DJXPerf's
//! point is that the PMU metrics show these objects account for (almost) no cache
//! misses, so hoisting them — although perfectly safe — yields no measurable speedup.
//! This module reproduces those nine kernels: each allocates the paper's object at the
//! paper's source location the (scaled) number of times, touches it just a little, and
//! spends its time elsewhere.

use crate::bloat::{AllocSiteSpec, BloatKernel};
use crate::{Variant, Workload};

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct InsignificantCase {
    /// Application / benchmark name as listed in Table 2.
    pub application: &'static str,
    /// Problematic allocation site (file and line from the table).
    pub file: &'static str,
    /// Method owning the allocation site.
    pub method: &'static str,
    /// Declaring class.
    pub class_name: &'static str,
    /// Source line of the allocation.
    pub line: u32,
    /// Allocation count the paper reports.
    pub paper_allocations: u64,
    /// Allocation count used by the (scaled-down) simulation.
    pub simulated_allocations: u64,
}

impl InsignificantCase {
    /// Builds the workload for a variant (baseline allocates in the loop, optimized
    /// hoists the allocation).
    pub fn build(&self, variant: Variant) -> BloatKernel {
        BloatKernel {
            name: format!("table2-{}", self.application),
            bloat_class: format!("{} (cold)", self.class_name),
            elem_size: 8,
            array_len: 256, // 2 KiB: monitored, but barely touched
            iterations: self.simulated_allocations,
            touches_per_iter: 2,
            background_loads: 400,
            background_len: 64 * 1024,
            cpu_cycles_per_iter: 25_000,
            alloc_site: AllocSiteSpec::new(self.class_name, self.method, self.file, self.line),
            variant,
        }
    }
}

/// The nine Table 2 rows.
pub fn table2_cases() -> Vec<InsignificantCase> {
    vec![
        InsignificantCase {
            application: "NPB 3.0 SP",
            file: "SP.java",
            method: "adi",
            class_name: "SP",
            line: 2086,
            paper_allocations: 400,
            simulated_allocations: 400,
        },
        InsignificantCase {
            application: "Dacapo 2006 chart",
            file: "Datasets.java",
            method: "createDataset",
            class_name: "Datasets",
            line: 397,
            paper_allocations: 3760,
            simulated_allocations: 1000,
        },
        InsignificantCase {
            application: "Dacapo 2006 antlr",
            file: "Preprocessor.java",
            method: "literals",
            class_name: "Preprocessor",
            line: 564,
            paper_allocations: 2840,
            simulated_allocations: 1000,
        },
        InsignificantCase {
            application: "Dacapo 2006 luindex",
            file: "DocumentWriter.java",
            method: "invertDocument",
            class_name: "DocumentWriter",
            line: 206,
            paper_allocations: 3055,
            simulated_allocations: 1000,
        },
        InsignificantCase {
            application: "Dacapo 9.12 lusearch",
            file: "IndexSearcher.java",
            method: "search",
            class_name: "IndexSearcher",
            line: 98,
            paper_allocations: 15179,
            simulated_allocations: 1200,
        },
        InsignificantCase {
            application: "Dacapo 9.12 lusearch-fix",
            file: "FastCharStream.java",
            method: "refill",
            class_name: "FastCharStream",
            line: 54,
            paper_allocations: 225_060,
            simulated_allocations: 1500,
        },
        InsignificantCase {
            application: "Dacapo 9.12 batik",
            file: "ExtendedGeneralPath.java",
            method: "makeRoom",
            class_name: "ExtendedGeneralPath",
            line: 743,
            paper_allocations: 2470,
            simulated_allocations: 1000,
        },
        InsignificantCase {
            application: "SPECjbb2000",
            file: "StockLevelTransaction.java",
            method: "process",
            class_name: "StockLevelTransaction",
            line: 173,
            paper_allocations: 116_376,
            simulated_allocations: 1500,
        },
        InsignificantCase {
            application: "JGFMonteCarloBench 2.0",
            file: "RatePath.java",
            method: "getPrices",
            class_name: "RatePath",
            line: 296,
            paper_allocations: 60_000,
            simulated_allocations: 1200,
        },
    ]
}

/// Convenience: builds the workload for one row by application name.
pub fn build_by_name(application: &str, variant: Variant) -> Option<Box<dyn Workload>> {
    table2_cases()
        .into_iter()
        .find(|c| c.application == application)
        .map(|c| Box::new(c.build(variant)) as Box<dyn Workload>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_profiled, run_unprofiled, speedup};
    use djxperf::ProfilerConfig;

    #[test]
    fn table2_has_nine_rows_matching_the_paper() {
        let cases = table2_cases();
        assert_eq!(cases.len(), 9);
        for case in &cases {
            assert!(case.paper_allocations >= case.simulated_allocations);
            assert!(case.line > 0);
        }
        assert!(build_by_name("NPB 3.0 SP", Variant::Baseline).is_some());
        assert!(build_by_name("nonexistent", Variant::Baseline).is_none());
    }

    #[test]
    fn cold_objects_have_negligible_miss_shares() {
        // Spot-check two rows; the table harness covers all nine.
        for case in table2_cases().into_iter().take(2) {
            let workload = case.build(Variant::Baseline).scaled(0.3);
            let run = run_profiled(&workload, ProfilerConfig::default().with_period(64));
            let class = format!("{} (cold)", case.class_name);
            let fraction =
                run.report.find_class(&class).map(|o| o.fraction_of_total).unwrap_or(0.0);
            assert!(
                fraction < 0.08,
                "{}: the cold object must stay insignificant, got {fraction:.3}",
                case.application
            );
        }
    }

    #[test]
    fn optimizing_a_cold_object_yields_no_speedup() {
        let case = &table2_cases()[4]; // lusearch
        let base = run_unprofiled(&case.build(Variant::Baseline).scaled(0.3));
        let opt = run_unprofiled(&case.build(Variant::Optimized).scaled(0.3));
        let s = speedup(&base, &opt);
        assert!(
            (0.97..1.04).contains(&s),
            "hoisting the cold object must not change performance, got {s:.3}"
        );
        assert!(base.stats.allocations > opt.stats.allocations + 100, "yet the bloat is real");
    }
}
