//! Memory-bloat kernels: the motivating examples of §1.1.
//!
//! Listing 1 (Dacapo batik): `ExtendedGeneralPath.makeRoom` allocates a `float[]`
//! (`nvals`) on every invocation — 2478 times — and the program then works over the
//! fresh array. Because every iteration touches brand-new cache lines, the array
//! accounts for ~21% of the program's L1 misses, and hoisting the allocation out of the
//! loop (the singleton pattern) yields a 1.15× whole-program speedup.
//!
//! Listing 2 (Dacapo lusearch): `IndexSearcher.search` allocates a `TopDocCollector`
//! 15179 times, but the collector is barely touched compared to the index data the
//! search actually scans; it accounts for <1% of misses and hoisting it yields no
//! speedup. The pair demonstrates why allocation frequency alone (what prior bloat
//! detectors rank by) is not enough and the PMU metrics DJXPerf attaches to each object
//! are needed.
//!
//! Both kernels share the same structure: a per-iteration *bloat object* worked over
//! with a read-modify-write pass (one load + one store per cache line), interleaved with
//! *background work* — scattered probes over a shared index array — standing in for the
//! rest of the application. The baseline allocates the bloat object inside the loop; the
//! optimized variant applies the singleton pattern.

use djx_runtime::{dsl, ObjRef, Runtime, RuntimeConfig, ThreadId};

use crate::{Variant, Workload};

/// Source location of an allocation site, used to register methods with realistic
/// class/method/file/line names.
#[derive(Debug, Clone)]
pub struct AllocSiteSpec {
    /// Declaring class of the allocating method.
    pub class_name: String,
    /// Allocating method name.
    pub method: String,
    /// Source file.
    pub file: String,
    /// Source line of the allocation.
    pub line: u32,
}

impl AllocSiteSpec {
    /// Creates a site spec.
    pub fn new(class_name: &str, method: &str, file: &str, line: u32) -> Self {
        Self {
            class_name: class_name.to_string(),
            method: method.to_string(),
            file: file.to_string(),
            line,
        }
    }
}

/// A parameterized allocation-in-loop kernel with background work.
#[derive(Debug, Clone)]
pub struct BloatKernel {
    /// Workload name.
    pub name: String,
    /// Class name of the bloat object (what DJXPerf should report).
    pub bloat_class: String,
    /// Element size of the bloat array in bytes.
    pub elem_size: u64,
    /// Length of the bloat array in elements.
    pub array_len: u64,
    /// Loop iterations (allocation count in the baseline variant).
    pub iterations: u64,
    /// Cache lines of the bloat object touched (load + store) per iteration.
    pub touches_per_iter: u64,
    /// Scattered background probes per iteration over the shared index.
    pub background_loads: u64,
    /// Shared index size in 8-byte elements.
    pub background_len: u64,
    /// Pure compute cycles charged per iteration.
    pub cpu_cycles_per_iter: u64,
    /// Where the bloat object is allocated.
    pub alloc_site: AllocSiteSpec,
    /// Baseline (allocate per iteration) or optimized (singleton).
    pub variant: Variant,
}

impl BloatKernel {
    /// Scales the iteration count by `factor` (at least one iteration), for fast unit
    /// tests and ablations.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.iterations = ((self.iterations as f64 * factor).round() as u64).max(1);
        self
    }

    /// Lines (64-byte units) of the bloat array.
    fn lines_in_array(&self) -> u64 {
        (self.array_len * self.elem_size).div_ceil(64).max(1)
    }

    fn touch_object(
        &self,
        rt: &mut Runtime,
        thread: ThreadId,
        obj: &ObjRef,
    ) -> djx_runtime::Result<()> {
        // One load + one store per touched cache line: a read-modify-write pass like the
        // processing the motivating applications perform over their buffers.
        let elems_per_line = (64 / self.elem_size).max(1);
        let lines = self.lines_in_array();
        for t in 0..self.touches_per_iter {
            let idx = ((t % lines) * elems_per_line) % self.array_len.max(1);
            rt.load_elem(thread, obj, idx)?;
            rt.store_elem(thread, obj, idx)?;
        }
        Ok(())
    }
}

impl Workload for BloatKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let bloat_class = rt.register_array_class(&self.bloat_class, self.elem_size);
        let index_class = rt.register_array_class("long[] (index)", 8);

        let run_method = dsl::thread_run_method(rt);
        let outer = rt.register_method("Driver", "iterate", "Driver.java", &[(0, 40)]);
        let alloc_method = rt.register_method(
            &self.alloc_site.class_name,
            &self.alloc_site.method,
            &self.alloc_site.file,
            &[(0, self.alloc_site.line)],
        );
        let process = rt.register_method(
            &self.alloc_site.class_name,
            "process",
            &self.alloc_site.file,
            &[(0, self.alloc_site.line + 10)],
        );
        let search = rt.register_method("IndexReader", "scan", "IndexReader.java", &[(0, 210)]);

        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, run_method, 0)?;

        // The shared index the "rest of the application" works over.
        let index = rt.alloc_array(thread, index_class, self.background_len)?;
        dsl::init_array(rt, thread, &index)?;

        // Optimized variant: the singleton object is allocated once, outside the loop.
        let singleton = if self.variant == Variant::Optimized {
            Some(dsl::with_frame(rt, thread, alloc_method, 0, |rt| {
                rt.alloc_array(thread, bloat_class, self.array_len)
            })?)
        } else {
            None
        };

        rt.push_frame(thread, outer, 0)?;
        for iteration in 0..self.iterations {
            let obj = match &singleton {
                Some(obj) => obj.clone(),
                None => dsl::with_frame(rt, thread, alloc_method, 0, |rt| {
                    rt.alloc_array(thread, bloat_class, self.array_len)
                })?,
            };

            dsl::with_frame(rt, thread, process, 0, |rt| self.touch_object(rt, thread, &obj))?;

            dsl::with_frame(rt, thread, search, 0, |rt| {
                dsl::scattered_loads(rt, thread, &index, self.background_loads, iteration)
            })?;
            rt.cpu_work(thread, self.cpu_cycles_per_iter);

            if singleton.is_none() {
                rt.release(&obj)?;
            }
        }
        rt.pop_frame(thread)?;

        if let Some(obj) = singleton {
            rt.release(&obj)?;
        }
        rt.release(&index)?;
        rt.pop_frame(thread)?;
        rt.finish_thread(thread)?;
        Ok(())
    }
}

/// Listing 1: the batik `nvals` hot-bloat kernel.
#[derive(Debug, Clone)]
pub struct BatikNvalsWorkload(BloatKernel);

impl BatikNvalsWorkload {
    /// Creates the workload in the given variant.
    pub fn new(variant: Variant) -> Self {
        Self(BloatKernel {
            name: "batik-nvals (Listing 1)".to_string(),
            bloat_class: "float[] (nvals)".to_string(),
            elem_size: 4,
            array_len: 2048, // 8 KiB: 128 cache lines of fresh data per iteration
            iterations: 600,
            touches_per_iter: 120,
            background_loads: 450,
            background_len: 64 * 1024, // 512 KiB shared index
            // Compute the optimization does not touch, calibrated so the modeled
            // speedup lands near the paper's 1.15×.
            cpu_cycles_per_iter: 110_000,
            alloc_site: AllocSiteSpec::new(
                "ExtendedGeneralPath",
                "makeRoom",
                "ExtendedGeneralPath.java",
                743,
            ),
            variant,
        })
    }

    /// Scales the iteration count (for quick tests).
    pub fn scaled(self, factor: f64) -> Self {
        Self(self.0.scaled(factor))
    }
}

impl Workload for BatikNvalsWorkload {
    fn name(&self) -> String {
        self.0.name()
    }
    fn runtime_config(&self) -> RuntimeConfig {
        self.0.runtime_config()
    }
    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        self.0.run(rt)
    }
}

/// Listing 2: the lusearch `collector` cold-bloat kernel.
#[derive(Debug, Clone)]
pub struct LusearchCollectorWorkload(BloatKernel);

impl LusearchCollectorWorkload {
    /// Creates the workload in the given variant.
    pub fn new(variant: Variant) -> Self {
        Self(BloatKernel {
            name: "lusearch-collector (Listing 2)".to_string(),
            bloat_class: "TopDocCollector".to_string(),
            elem_size: 8,
            array_len: 256, // 2 KiB: monitored at the default S, but barely touched
            iterations: 1500,
            touches_per_iter: 3,
            background_loads: 500,
            background_len: 64 * 1024,
            cpu_cycles_per_iter: 40_000,
            alloc_site: AllocSiteSpec::new("IndexSearcher", "search", "IndexSearcher.java", 98),
            variant,
        })
    }

    /// Scales the iteration count (for quick tests).
    pub fn scaled(self, factor: f64) -> Self {
        Self(self.0.scaled(factor))
    }
}

impl Workload for LusearchCollectorWorkload {
    fn name(&self) -> String {
        self.0.name()
    }
    fn runtime_config(&self) -> RuntimeConfig {
        self.0.runtime_config()
    }
    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        self.0.run(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{alloc_leaf, run_profiled, run_unprofiled, speedup};
    use djxperf::ProfilerConfig;

    fn quick_config() -> ProfilerConfig {
        ProfilerConfig::default().with_period(64)
    }

    #[test]
    fn batik_baseline_allocates_per_iteration_and_optimized_does_not() {
        let baseline = run_unprofiled(&BatikNvalsWorkload::new(Variant::Baseline).scaled(0.1));
        let optimized = run_unprofiled(&BatikNvalsWorkload::new(Variant::Optimized).scaled(0.1));
        // Baseline: one nvals per iteration plus the index; optimized: 2 allocations.
        assert_eq!(baseline.stats.allocations, 60 + 1);
        assert_eq!(optimized.stats.allocations, 2);
        assert!(baseline.hierarchy.l1_misses > optimized.hierarchy.l1_misses);
    }

    #[test]
    fn batik_optimization_yields_a_speedup() {
        let baseline = run_unprofiled(&BatikNvalsWorkload::new(Variant::Baseline).scaled(0.25));
        let optimized = run_unprofiled(&BatikNvalsWorkload::new(Variant::Optimized).scaled(0.25));
        let s = speedup(&baseline, &optimized);
        assert!(s > 1.05, "hot bloat removal must pay off, got {s:.3}");
        assert!(s < 2.0, "speedup should stay moderate (other work dominates), got {s:.3}");
    }

    #[test]
    fn batik_profile_ranks_nvals_with_a_significant_share() {
        let run =
            run_profiled(&BatikNvalsWorkload::new(Variant::Baseline).scaled(0.4), quick_config());
        let nvals = run.report.find_class("float[] (nvals)").expect("nvals must be in the report");
        assert!(
            nvals.fraction_of_total > 0.08,
            "nvals should account for a significant share of misses, got {:.3}",
            nvals.fraction_of_total
        );
        assert!(nvals.metrics.allocations > 100);
        // The allocation site resolves to makeRoom at line 743.
        let leaf = alloc_leaf(nvals);
        let info = run.methods.get(leaf.method).unwrap();
        assert_eq!(info.name, "makeRoom");
        assert_eq!(info.line_for_bci(leaf.bci), 743);
    }

    #[test]
    fn lusearch_collector_is_insignificant_and_optimization_does_not_pay() {
        let run = run_profiled(
            &LusearchCollectorWorkload::new(Variant::Baseline).scaled(0.4),
            quick_config(),
        );
        let collector = run.report.find_class("TopDocCollector");
        let fraction = collector.map(|c| c.fraction_of_total).unwrap_or(0.0);
        assert!(
            fraction < 0.05,
            "the collector must account for almost no misses, got {fraction:.3}"
        );

        let baseline =
            run_unprofiled(&LusearchCollectorWorkload::new(Variant::Baseline).scaled(0.25));
        let optimized =
            run_unprofiled(&LusearchCollectorWorkload::new(Variant::Optimized).scaled(0.25));
        let s = speedup(&baseline, &optimized);
        assert!(
            (0.95..1.05).contains(&s),
            "cold-bloat removal must not change performance materially, got {s:.3}"
        );
        // But the allocation count difference is dramatic — frequency alone misleads.
        assert!(baseline.stats.allocations > optimized.stats.allocations + 300);
    }

    #[test]
    fn hot_and_cold_bloat_contrast_matches_the_paper() {
        let batik =
            run_profiled(&BatikNvalsWorkload::new(Variant::Baseline).scaled(0.25), quick_config());
        let lusearch = run_profiled(
            &LusearchCollectorWorkload::new(Variant::Baseline).scaled(0.25),
            quick_config(),
        );
        let nvals_share = batik
            .report
            .find_class("float[] (nvals)")
            .map(|o| o.fraction_of_total)
            .unwrap_or(0.0);
        let collector_share = lusearch
            .report
            .find_class("TopDocCollector")
            .map(|o| o.fraction_of_total)
            .unwrap_or(0.0);
        assert!(
            nvals_share > collector_share + 0.05,
            "nvals ({nvals_share:.3}) must dominate the collector ({collector_share:.3})"
        );
    }

    #[test]
    fn scaling_changes_iteration_count_only() {
        let full = BatikNvalsWorkload::new(Variant::Baseline);
        let tiny = BatikNvalsWorkload::new(Variant::Baseline).scaled(0.01);
        assert_eq!(tiny.0.iterations, 6);
        assert_eq!(full.0.iterations, 600);
        assert_eq!(tiny.0.array_len, full.0.array_len);
    }
}
