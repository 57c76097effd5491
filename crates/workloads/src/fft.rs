//! §7.4 — SPECjvm2008 Scimark.fft.large.
//!
//! DJXPerf reports that the `data` array of the FFT accounts for 75.5% of the program's
//! cache misses, with the problematic accesses at FFT.java:171–175 inside
//! `transform_internal`'s three-level loop nest: the innermost loop advances `b` by
//! `2 * dual` elements, and `dual` doubles every outer iteration, so the stride becomes
//! large and spatial locality collapses. Interchanging the `a` and `b` loops makes the
//! innermost accesses nearly consecutive, cutting program cache misses by ~70% and
//! yielding a 2.37× speedup.
//!
//! This kernel implements the *actual* butterfly index arithmetic of the Scimark FFT for
//! both loop orders, driving every `data[...]` access through the simulated memory
//! hierarchy, so the locality contrast emerges from the real access pattern rather than
//! from a synthetic stand-in.

use djx_runtime::{dsl, Runtime, RuntimeConfig, ThreadId};

use crate::{Variant, Workload};

/// The Scimark FFT kernel.
#[derive(Debug, Clone)]
pub struct FftWorkload {
    /// log2 of the number of complex points.
    pub log2_n: u32,
    /// Baseline (paper's loop order) or optimized (interchanged loops).
    pub variant: Variant,
}

impl FftWorkload {
    /// The "large input" configuration used by the case study: 2^15 complex points, a
    /// 512 KiB `data` array that exceeds the private caches.
    pub fn new(variant: Variant) -> Self {
        Self { log2_n: 15, variant }
    }

    /// A smaller transform for quick tests.
    pub fn small(variant: Variant) -> Self {
        Self { log2_n: 11, variant }
    }

    /// Number of complex points.
    pub fn n(&self) -> u64 {
        1 << self.log2_n
    }

    /// One butterfly: the loads and stores of FFT.java lines 171–175.
    fn butterfly(
        rt: &mut Runtime,
        thread: ThreadId,
        data: &djx_runtime::ObjRef,
        b: u64,
        a: u64,
        dual: u64,
    ) -> djx_runtime::Result<()> {
        let i = 2 * (b + a);
        let j = 2 * (b + a + dual);
        // double z1_real = data[j]; double z1_imag = data[j+1];
        rt.load_elem(thread, data, j)?;
        rt.load_elem(thread, data, j + 1)?;
        // ... data[j] = data[i] - wd_real; data[j+1] = data[i+1] - wd_imag;
        rt.load_elem(thread, data, i)?;
        rt.store_elem(thread, data, j)?;
        rt.load_elem(thread, data, i + 1)?;
        rt.store_elem(thread, data, j + 1)?;
        // The twiddle-factor arithmetic between the accesses.
        rt.cpu_work(thread, 12);
        Ok(())
    }
}

impl Workload for FftWorkload {
    fn name(&self) -> String {
        "scimark.fft.large".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        // The data array must not fit the private caches; the default Broadwell-like
        // geometry (32 KiB L1 / 256 KiB L2) together with a 2^15-point transform
        // (512 KiB of doubles) gives the paper's regime.
        RuntimeConfig::evaluation()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let n = self.n();
        let double_array = rt.register_array_class("double[] (data)", 8);
        let run_method = dsl::thread_run_method(rt);
        let make_data = rt.register_method("kernel", "RandomVector", "kernel.java", &[(0, 42)]);
        let transform = rt.register_method(
            "FFT",
            "transform_internal",
            "FFT.java",
            &[(0, 165), (4, 171), (8, 174)],
        );

        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, run_method, 0)?;

        // The benchmark harness builds the 2n-element interleaved complex array.
        let data = dsl::with_frame(rt, thread, make_data, 0, |rt| {
            rt.alloc_array(thread, double_array, 2 * n)
        })?;
        dsl::init_array(rt, thread, &data)?;

        dsl::with_frame(rt, thread, transform, 4, |rt| {
            let logn = self.log2_n as u64;
            let mut dual = 1u64;
            for _bit in 0..logn {
                match self.variant {
                    Variant::Baseline => {
                        // for (a = 1; a < dual; a++) for (b = 0; b < n; b += 2*dual)
                        for a in 1..dual {
                            let mut b = 0;
                            while b < n {
                                Self::butterfly(rt, thread, &data, b, a, dual)?;
                                b += 2 * dual;
                            }
                        }
                        // The a == 0 column of the stage (handled separately in Scimark).
                        let mut b = 0;
                        while b < n {
                            Self::butterfly(rt, thread, &data, b, 0, dual)?;
                            b += 2 * dual;
                        }
                    }
                    Variant::Optimized => {
                        // Loop interchange: b outer, a inner — consecutive `a` values
                        // touch consecutive elements, restoring spatial locality.
                        let mut b = 0;
                        while b < n {
                            for a in 0..dual.max(1) {
                                Self::butterfly(rt, thread, &data, b, a, dual)?;
                            }
                            b += 2 * dual;
                        }
                    }
                }
                dual *= 2;
            }
            Ok(())
        })?;

        rt.release(&data)?;
        rt.pop_frame(thread)?;
        rt.finish_thread(thread)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_profiled, run_unprofiled, speedup};
    use djxperf::ProfilerConfig;

    #[test]
    fn both_variants_perform_the_same_number_of_butterflies() {
        let base = run_unprofiled(&FftWorkload::small(Variant::Baseline));
        let opt = run_unprofiled(&FftWorkload::small(Variant::Optimized));
        assert_eq!(base.stats.accesses, opt.stats.accesses, "interchange preserves the work");
        assert_eq!(base.stats.allocations, opt.stats.allocations);
    }

    #[test]
    fn loop_interchange_reduces_misses_and_yields_a_speedup() {
        let base = run_unprofiled(&FftWorkload::new(Variant::Baseline));
        let opt = run_unprofiled(&FftWorkload::new(Variant::Optimized));
        assert!(
            opt.hierarchy.l1_misses * 2 < base.hierarchy.l1_misses,
            "interchange must cut misses substantially: {} vs {}",
            opt.hierarchy.l1_misses,
            base.hierarchy.l1_misses
        );
        let s = speedup(&base, &opt);
        assert!(s > 1.3, "the paper reports 2.37x; the shape (clearly >1) must hold, got {s:.2}");
    }

    #[test]
    fn data_array_dominates_the_object_centric_profile() {
        let run = run_profiled(
            &FftWorkload::new(Variant::Baseline),
            ProfilerConfig::default().with_period(256),
        );
        let data = run.report.find_class("double[] (data)").expect("data array sampled");
        assert!(
            data.fraction_of_total > 0.5,
            "the data array must dominate misses (paper: 75.5%), got {:.2}",
            data.fraction_of_total
        );
        // The hottest access context sits inside transform_internal.
        let hottest_ctx = &data.contexts[0];
        let leaf = hottest_ctx.path.last().unwrap();
        assert_eq!(run.methods.get(leaf.method).unwrap().name, "transform_internal");
    }
}
