//! §7.1 — ObjectLayout 1.0.5 (SAHashMap benchmark).
//!
//! DJXPerf reports four problematic objects accounting for 84% of the program's cache
//! misses; the one discussed in detail is the `intAddressableElements` array allocated
//! at line 292 of `AbstractStructuredArrayBase.allocateInternalStorage`, which is
//! repeatedly invoked (217 times) when `newInstance` creates structured arrays inside a
//! loop. Every instance is probed through `SAHashMap.getNode`, and because each instance
//! occupies fresh memory, the probes keep missing. Hoisting the allocations (the
//! instances' lifetimes do not overlap, so the singleton pattern is safe) cuts total
//! cache misses by 76% and improves throughput 1.45×.
//!
//! The kernel allocates three internal arrays per `newInstance` — the element storage,
//! the bucket table and the key array (the paper's "three other problematic objects" are
//! optimized the same way) — probes them through `getNode`, and interleaves a modest
//! amount of non-problematic work.

use djx_runtime::{dsl, ObjRef, Runtime, RuntimeConfig, ThreadId};

use crate::{Variant, Workload};

/// The ObjectLayout SAHashMap kernel.
#[derive(Debug, Clone)]
pub struct ObjectLayoutWorkload {
    /// Number of `newInstance` invocations (217 in the paper's run).
    pub instances: u64,
    /// Elements of the `intAddressableElements` array (4-byte ints).
    pub elements: u64,
    /// `getNode` probes per instance.
    pub probes: u64,
    /// Baseline or hoisted-allocation variant.
    pub variant: Variant,
}

impl ObjectLayoutWorkload {
    /// The configuration mirroring the paper's SAHashMap input.
    pub fn new(variant: Variant) -> Self {
        Self { instances: 217, elements: 4 * 1024, probes: 1200, variant }
    }

    /// Scales the instance count for quick tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.instances = ((self.instances as f64 * factor).round() as u64).max(1);
        self
    }

    fn probe(
        rt: &mut Runtime,
        thread: ThreadId,
        storage: &ObjRef,
        buckets: &ObjRef,
        keys: &ObjRef,
        probes: u64,
        seed: u64,
    ) -> djx_runtime::Result<()> {
        // SAHashMap.getNode: hash → bucket → key compare → element read.
        let mut x: u64 = seed ^ 0x2545f4914f6cdd1d;
        for _ in 0..probes {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let h = x >> 33;
            rt.load_elem(thread, buckets, h % buckets.len().max(1))?;
            rt.load_elem(thread, keys, h % keys.len().max(1))?;
            rt.load_elem(thread, storage, h % storage.len().max(1))?;
            rt.cpu_work(thread, 6);
        }
        Ok(())
    }
}

impl Workload for ObjectLayoutWorkload {
    fn name(&self) -> String {
        "objectlayout-sahashmap".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let int_array = rt.register_array_class("int[] (intAddressableElements)", 4);
        let bucket_array = rt.register_array_class("Object[] (buckets)", 8);
        let key_array = rt.register_array_class("long[] (keys)", 8);

        let run_method = dsl::thread_run_method(rt);
        let bench = rt.register_method("SAHashMapBench", "run", "SAHashMapBench.java", &[(0, 85)]);
        let new_instance = rt.register_method(
            "StructuredArray",
            "newInstance",
            "StructuredArray.java",
            &[(0, 120)],
        );
        let allocate = rt.register_method(
            "AbstractStructuredArrayBase",
            "allocateInternalStorage",
            "AbstractStructuredArrayBase.java",
            &[(0, 292)],
        );
        let get_node = rt.register_method("SAHashMap", "getNode", "SAHashMap.java", &[(0, 135)]);

        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, run_method, 0)?;
        rt.push_frame(thread, bench, 0)?;

        let allocate_all = |rt: &mut Runtime| -> djx_runtime::Result<(ObjRef, ObjRef, ObjRef)> {
            dsl::with_frame(rt, thread, new_instance, 0, |rt| {
                dsl::with_frame(rt, thread, allocate, 0, |rt| {
                    let storage = rt.alloc_array(thread, int_array, self.elements)?;
                    let buckets = rt.alloc_array(thread, bucket_array, self.elements / 8)?;
                    let keys = rt.alloc_array(thread, key_array, self.elements / 8)?;
                    Ok((storage, buckets, keys))
                })
            })
        };

        // Optimized: one structured array reused for every "instance" (singleton).
        let singleton =
            if self.variant == Variant::Optimized { Some(allocate_all(rt)?) } else { None };

        for instance in 0..self.instances {
            let (storage, buckets, keys) = match &singleton {
                Some((s, b, k)) => (s.clone(), b.clone(), k.clone()),
                None => allocate_all(rt)?,
            };

            dsl::with_frame(rt, thread, get_node, 0, |rt| {
                Self::probe(rt, thread, &storage, &buckets, &keys, self.probes, instance)
            })?;
            // Non-problematic work between instances (hashing, comparisons, the parts of
            // the benchmark whose cost the optimization does not change). Its size is
            // calibrated so the modeled speedup lands near the paper's 1.45×.
            rt.cpu_work(thread, 150_000);

            if singleton.is_none() {
                rt.release(&storage)?;
                rt.release(&buckets)?;
                rt.release(&keys)?;
            }
        }

        if let Some((s, b, k)) = singleton {
            rt.release(&s)?;
            rt.release(&b)?;
            rt.release(&k)?;
        }
        rt.pop_frame(thread)?;
        rt.pop_frame(thread)?;
        rt.finish_thread(thread)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{alloc_leaf, run_profiled, run_unprofiled, speedup};
    use djxperf::ProfilerConfig;

    #[test]
    fn baseline_allocates_three_arrays_per_instance() {
        let base = run_unprofiled(&ObjectLayoutWorkload::new(Variant::Baseline).scaled(0.1));
        let opt = run_unprofiled(&ObjectLayoutWorkload::new(Variant::Optimized).scaled(0.1));
        assert_eq!(base.stats.allocations, 22 * 3);
        assert_eq!(opt.stats.allocations, 3);
        assert_eq!(base.stats.accesses, opt.stats.accesses, "same probe work in both variants");
    }

    #[test]
    fn hoisting_cuts_misses_and_improves_throughput() {
        let base = run_unprofiled(&ObjectLayoutWorkload::new(Variant::Baseline).scaled(0.5));
        let opt = run_unprofiled(&ObjectLayoutWorkload::new(Variant::Optimized).scaled(0.5));
        let miss_reduction =
            1.0 - opt.hierarchy.l1_misses as f64 / base.hierarchy.l1_misses.max(1) as f64;
        assert!(
            miss_reduction > 0.4,
            "the paper reports a 76% miss reduction; got {:.0}%",
            miss_reduction * 100.0
        );
        let s = speedup(&base, &opt);
        assert!(s > 1.1, "the paper reports 1.45x; the shape must hold, got {s:.2}");
    }

    #[test]
    fn the_structured_array_objects_dominate_the_profile() {
        let run = run_profiled(
            &ObjectLayoutWorkload::new(Variant::Baseline).scaled(0.5),
            ProfilerConfig::default().with_period(128),
        );
        // The paper: four problematic objects account for 84% of cache misses. Here the
        // three per-instance arrays play that role.
        let top3 = run.report.top_n_fraction(3);
        assert!(top3 > 0.6, "top objects must dominate (paper: 84%), got {top3:.2}");
        let storage = run
            .report
            .find_class("int[] (intAddressableElements)")
            .expect("element storage must be reported");
        let leaf = alloc_leaf(storage);
        let method = run.methods.get(leaf.method).unwrap();
        assert_eq!(method.name, "allocateInternalStorage");
        assert_eq!(method.line_for_bci(leaf.bci), 292);
        assert!(storage.metrics.allocations >= 100);
    }
}
