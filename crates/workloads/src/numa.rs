//! NUMA case studies: §7.5 Eclipse Collections and §7.6 Apache Druid.
//!
//! Both cases share the same structure: one thread allocates and initializes a large
//! array, so first-touch page placement puts every page on that thread's NUMA node; the
//! array is then read by worker threads spread over both sockets, and the workers on the
//! other node pay remote-access latency for every DRAM access. DJXPerf detects the
//! pattern by comparing, per sample, the node owning the page (the `move_pages` query)
//! with the node of the sampling CPU (`PERF_SAMPLE_CPU`), and reports the object with
//! its remote-access fraction (§4.3).
//!
//! * **Eclipse Collections** (`Interval.toArray` → `InternalArrayIterate.
//!   batchFastListCollect`): 73.4% of the sampled accesses to the `Integer[] result`
//!   array are remote; allocating the array interleaved across nodes cuts remote
//!   accesses by 41% and improves throughput 1.13×.
//! * **Apache Druid** (`WrappedImmutableBitSetBitmap`): more than half of the accesses
//!   to the `bitmap` are remote; parallelizing allocation/initialization so each thread
//!   first-touches its own part cuts remote accesses by 47% and improves throughput
//!   1.75×.
//!
//! The simulated machine for these workloads keeps the paper's two-node topology but
//! shrinks the shared L3 so that the (laptop-scale) arrays do not become fully cache
//! resident — preserving the array-larger-than-LLC relationship of the original runs.

use djx_memsim::{CacheConfig, HierarchyConfig, PlacementPolicy};
use djx_runtime::{dsl, ObjRef, Runtime, RuntimeConfig};

use crate::{Variant, Workload};

/// A two-node machine whose last-level cache is small relative to the workload arrays.
fn numa_machine() -> HierarchyConfig {
    let mut config = HierarchyConfig::broadwell_like();
    config.l3 = CacheConfig::new("L3", 1024 * 1024, 16);
    config
}

fn numa_runtime_config() -> RuntimeConfig {
    RuntimeConfig::evaluation().with_hierarchy(numa_machine())
}

/// §7.5 — Eclipse Collections `Interval.toArray` / `batchFastListCollect`.
#[derive(Debug, Clone)]
pub struct EclipseCollectionsWorkload {
    /// Elements of the `Integer[] result` array.
    pub elements: u64,
    /// Scan passes each worker performs over the array.
    pub passes: u64,
    /// Number of worker threads (the paper saturates the machine; one worker stays on
    /// the allocating node, the rest run on the remote node).
    pub workers: usize,
    /// Baseline (master-initialized, first touch on one node) or optimized (interleaved
    /// allocation via the libnuma JNI shim).
    pub variant: Variant,
}

impl EclipseCollectionsWorkload {
    /// Configuration producing the paper's regime: a multi-page array larger than the
    /// last-level cache, read by workers on both nodes.
    pub fn new(variant: Variant) -> Self {
        Self { elements: 256 * 1024, passes: 2, workers: 4, variant }
    }

    /// Scales the number of scan passes for quick tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.passes = ((self.passes as f64 * factor).round() as u64).max(1);
        self
    }
}

impl Workload for EclipseCollectionsWorkload {
    fn name(&self) -> String {
        "eclipse-collections-interval".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        numa_runtime_config()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let integer_array = rt.register_array_class("Integer[] (result)", 8);
        let run_method = dsl::thread_run_method(rt);
        let to_array = rt.register_method("Interval", "toArray", "Interval.java", &[(0, 758)]);
        let collect = rt.register_method(
            "InternalArrayIterate",
            "batchFastListCollect",
            "InternalArrayIterate.java",
            &[(0, 242), (3, 245)],
        );

        // The master thread (node 0) allocates and initializes the result array.
        let master = rt.spawn_thread_on_cpu("main", 0);
        rt.push_frame(master, run_method, 0)?;
        let result: ObjRef = dsl::with_frame(rt, master, to_array, 0, |rt| {
            rt.alloc_array(master, integer_array, self.elements)
        })?;
        dsl::init_array(rt, master, &result)?;

        if self.variant == Variant::Optimized {
            // The paper's fix: allocate the problematic object interleaved on all NUMA
            // nodes through the libnuma `numa_alloc_interleaved` JNI wrapper.
            rt.place_object(result.id, PlacementPolicy::Interleaved)?;
        }

        // Workers: one stays on the allocating node, the rest run on the remote node.
        let cpus = rt.hierarchy().cpu_count();
        let mut workers = Vec::new();
        for w in 0..self.workers {
            let cpu = if w == 0 { 1 } else { cpus / 2 + (w - 1) % (cpus / 2) };
            let t = rt.spawn_thread_on_cpu(&format!("worker-{w}"), cpu);
            rt.push_frame(t, run_method, 0)?;
            workers.push(t);
        }

        // `batchFastListCollect` hands each worker a batch (partition) of the interval;
        // every worker walks its batch (one load per cache line) `passes` times.
        let lines = self.elements / 8;
        let batch = lines / workers.len() as u64;
        for _pass in 0..self.passes {
            for (w, &worker) in workers.iter().enumerate() {
                let start = w as u64 * batch;
                dsl::with_frame(rt, worker, collect, 3, |rt| {
                    for line in start..(start + batch).min(lines) {
                        rt.load_elem(worker, &result, line * 8)?;
                        rt.cpu_work(worker, 3);
                    }
                    Ok(())
                })?;
            }
        }

        for worker in workers {
            rt.pop_frame(worker)?;
            rt.finish_thread(worker)?;
        }
        rt.release(&result)?;
        rt.pop_frame(master)?;
        rt.finish_thread(master)?;
        Ok(())
    }
}

/// §7.6 — Apache Druid `WrappedImmutableBitSetBitmap` iteration.
#[derive(Debug, Clone)]
pub struct DruidBitmapWorkload {
    /// 8-byte words of the bitmap.
    pub words: u64,
    /// Scan passes each worker performs over its partition.
    pub passes: u64,
    /// Number of worker threads (split evenly across the two nodes).
    pub workers: usize,
    /// Baseline (constructor-initialized on one node) or optimized (each worker
    /// first-touches its own partition).
    pub variant: Variant,
}

impl DruidBitmapWorkload {
    /// Configuration mirroring the BitmapIterationBenchmark run.
    pub fn new(variant: Variant) -> Self {
        Self { words: 256 * 1024, passes: 3, workers: 4, variant }
    }

    /// Scales the number of scan passes for quick tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.passes = ((self.passes as f64 * factor).round() as u64).max(1);
        self
    }
}

impl Workload for DruidBitmapWorkload {
    fn name(&self) -> String {
        "druid-bitmap-iteration".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        numa_runtime_config()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let bitset = rt.register_array_class("long[] (bitmap)", 8);
        let run_method = dsl::thread_run_method(rt);
        let ctor = rt.register_method(
            "WrappedImmutableBitSetBitmap",
            "<init>",
            "WrappedImmutableBitSetBitmap.java",
            &[(0, 37)],
        );
        let next = rt.register_method(
            "WrappedImmutableBitSetBitmap",
            "next",
            "WrappedImmutableBitSetBitmap.java",
            &[(0, 118), (2, 120)],
        );

        let master = rt.spawn_thread_on_cpu("main", 0);
        rt.push_frame(master, run_method, 0)?;
        let bitmap =
            dsl::with_frame(rt, master, ctor, 0, |rt| rt.alloc_array(master, bitset, self.words))?;

        // Spawn workers split across the two nodes; each owns one partition.
        let cpus = rt.hierarchy().cpu_count();
        let per_node = cpus / 2;
        let mut workers = Vec::new();
        for w in 0..self.workers {
            let cpu = if w % 2 == 0 { w / 2 % per_node } else { per_node + w / 2 % per_node };
            let t = rt.spawn_thread_on_cpu(&format!("query-{w}"), cpu);
            rt.push_frame(t, run_method, 0)?;
            workers.push(t);
        }
        let partition = self.words / self.workers as u64;

        match self.variant {
            Variant::Baseline => {
                // The constructor thread initializes the whole bitmap: every page is
                // first-touched on node 0.
                dsl::with_frame(rt, master, ctor, 0, |rt| dsl::init_array(rt, master, &bitmap))?;
            }
            Variant::Optimized => {
                // The fix: initialization is parallelized so each worker first-touches
                // the partition it will later iterate.
                for (w, &worker) in workers.iter().enumerate() {
                    let start = w as u64 * partition;
                    dsl::with_frame(rt, worker, ctor, 0, |rt| {
                        for i in start..start + partition {
                            rt.store_elem(worker, &bitmap, i)?;
                        }
                        Ok(())
                    })?;
                }
            }
        }

        // Each worker iterates its partition (`next()` walks set bits word by word).
        for _pass in 0..self.passes {
            for (w, &worker) in workers.iter().enumerate() {
                let start = w as u64 * partition;
                dsl::with_frame(rt, worker, next, 2, |rt| {
                    for i in (start..start + partition).step_by(8) {
                        rt.load_elem(worker, &bitmap, i)?;
                        rt.cpu_work(worker, 4);
                    }
                    Ok(())
                })?;
            }
        }

        for worker in workers {
            rt.pop_frame(worker)?;
            rt.finish_thread(worker)?;
        }
        rt.release(&bitmap)?;
        rt.pop_frame(master)?;
        rt.finish_thread(master)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{alloc_leaf, run_profiled, speedup};
    use djxperf::ProfilerConfig;
    use djxperf::{Query, RankBy};

    fn numa_profiler() -> ProfilerConfig {
        ProfilerConfig::default().with_period(64)
    }

    #[test]
    fn eclipse_baseline_shows_mostly_remote_accesses_on_the_result_array() {
        let run =
            run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), numa_profiler());
        let result = run
            .report
            .find_class("Integer[] (result)")
            .expect("result array must be reported");
        assert!(
            result.remote_fraction > 0.5,
            "most sampled accesses must be remote (paper: 73.4%), got {:.2}",
            result.remote_fraction
        );
        let remote_ranked =
            Query::new().rank_by(RankBy::RemoteSamples).evaluate(&run.profile).unwrap();
        assert_eq!(remote_ranked.groups[0].label, "Integer[] (result)");
    }

    #[test]
    fn eclipse_interleaving_cuts_remote_accesses_and_improves_throughput() {
        let base =
            run_profiled(&EclipseCollectionsWorkload::new(Variant::Baseline), numa_profiler());
        let opt =
            run_profiled(&EclipseCollectionsWorkload::new(Variant::Optimized), numa_profiler());
        let base_remote = base.outcome.hierarchy.remote_dram_accesses;
        let opt_remote = opt.outcome.hierarchy.remote_dram_accesses;
        assert!(
            (opt_remote as f64) < 0.8 * base_remote as f64,
            "interleaving must cut remote DRAM accesses (paper: -41%): {opt_remote} vs {base_remote}"
        );
        let s = speedup(&base.outcome, &opt.outcome);
        assert!(s > 1.03, "the paper reports 1.13x, got {s:.3}");
    }

    #[test]
    fn druid_baseline_is_majority_remote_and_fix_localizes_accesses() {
        let base = run_profiled(&DruidBitmapWorkload::new(Variant::Baseline), numa_profiler());
        let bitmap = base.report.find_class("long[] (bitmap)").expect("bitmap must be reported");
        assert!(
            bitmap.remote_fraction > 0.4,
            "more than half the accesses should be remote, got {:.2}",
            bitmap.remote_fraction
        );

        let opt = run_profiled(&DruidBitmapWorkload::new(Variant::Optimized), numa_profiler());
        let base_remote = base.outcome.hierarchy.remote_dram_accesses;
        let opt_remote = opt.outcome.hierarchy.remote_dram_accesses;
        assert!(
            (opt_remote as f64) < 0.6 * base_remote as f64,
            "first-touch parallel init must cut remote accesses (paper: -47%): {opt_remote} vs {base_remote}"
        );
        let s = speedup(&base.outcome, &opt.outcome);
        assert!(s > 1.05, "the paper reports 1.75x; the direction must hold, got {s:.3}");
    }

    #[test]
    fn scaled_variants_run_quickly_and_keep_the_allocation_site() {
        let run =
            run_profiled(&DruidBitmapWorkload::new(Variant::Baseline).scaled(0.4), numa_profiler());
        let bitmap = run.report.find_class("long[] (bitmap)");
        assert!(bitmap.is_some());
        let leaf = alloc_leaf(bitmap.unwrap());
        let info = run.methods.get(leaf.method).unwrap();
        assert_eq!(info.class_name, "WrappedImmutableBitSetBitmap");
        assert_eq!(info.line_for_bci(leaf.bci), 37);
    }
}
