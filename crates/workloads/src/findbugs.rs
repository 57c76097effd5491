//! §7.2 — FindBugs 3.0.1 analyzing jfreechart.
//!
//! DJXPerf reports two objects that together account for ~32% of the program's cache
//! misses: the `char[] buf` allocated at `ClassParserUsingASM.parse` line 642 once per
//! parsed class, and the `IdentityHashMap` allocated in `analyzeMethod` (reached through
//! `Detector2.visitClass`, Listing 4) once per analyzed method. Both are allocated inside
//! loops, their instances' lifetimes never overlap, and hoisting them (singleton pattern)
//! halves peak memory (1.8 GB → 0.9 GB) and yields a 1.11× speedup.

use djx_runtime::{dsl, Runtime, RuntimeConfig};

use crate::{Variant, Workload};

/// The FindBugs class-analysis kernel.
#[derive(Debug, Clone)]
pub struct FindBugsWorkload {
    /// Number of classes parsed.
    pub classes: u64,
    /// Methods analyzed per class.
    pub methods_per_class: u64,
    /// Baseline or hoisted-allocation variant.
    pub variant: Variant,
}

impl FindBugsWorkload {
    /// Configuration mirroring the jfreechart run.
    pub fn new(variant: Variant) -> Self {
        Self { classes: 300, methods_per_class: 5, variant }
    }

    /// Scales the number of parsed classes for quick tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.classes = ((self.classes as f64 * factor).round() as u64).max(1);
        self
    }
}

impl Workload for FindBugsWorkload {
    fn name(&self) -> String {
        "findbugs-jfreechart".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let char_array = rt.register_array_class("char[] (buf)", 2);
        let map_class = rt.register_array_class("IdentityHashMap", 8);
        let bytes_class = rt.register_array_class("byte[] (classfile)", 1);

        let run_method = dsl::thread_run_method(rt);
        let analyze_app =
            rt.register_method("FindBugs2", "analyzeApplication", "FindBugs2.java", &[(0, 111)]);
        let set_app_class = rt.register_method(
            "AnalysisCache",
            "setAppClassList",
            "AnalysisCache.java",
            &[(0, 634)],
        );
        let parse = rt.register_method(
            "ClassParserUsingASM",
            "parse",
            "ClassParserUsingASM.java",
            &[(0, 640), (2, 642)],
        );
        let analyze_method = rt.register_method(
            "FindBugs2",
            "analyzeMethod",
            "FindBugs2.java",
            &[(0, 117), (2, 119)],
        );
        let visit = rt.register_method("Detector2", "visitClass", "Detector2.java", &[(0, 114)]);

        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, run_method, 0)?;
        rt.push_frame(thread, analyze_app, 0)?;

        // The shared pool of class-file bytes FindBugs keeps scanning (512 KiB).
        let classfile = rt.alloc_array(thread, bytes_class, 512 * 1024)?;
        dsl::init_array(rt, thread, &classfile)?;

        // Optimized variant: both problematic objects become singletons.
        let hoisted = if self.variant == Variant::Optimized {
            let buf = dsl::with_frame(rt, thread, parse, 2, |rt| {
                rt.alloc_array(thread, char_array, 1024)
            })?;
            let map = dsl::with_frame(rt, thread, analyze_method, 2, |rt| {
                rt.alloc_array(thread, map_class, 512)
            })?;
            Some((buf, map))
        } else {
            None
        };

        for class_index in 0..self.classes {
            // setAppClassList → getXClass → parse: the char[1024] buffer.
            let buf = match &hoisted {
                Some((buf, _)) => buf.clone(),
                None => dsl::with_frame(rt, thread, set_app_class, 0, |rt| {
                    dsl::with_frame(rt, thread, parse, 2, |rt| {
                        rt.alloc_array(thread, char_array, 1024)
                    })
                })?,
            };
            // Parsing fills and re-reads the buffer (read-modify-write per line).
            dsl::with_frame(rt, thread, parse, 2, |rt| {
                for line in 0..32u64 {
                    rt.load_elem(thread, &buf, line * 32)?;
                    rt.store_elem(thread, &buf, line * 32)?;
                }
                Ok(())
            })?;

            for _method_index in 0..self.methods_per_class {
                let map = match &hoisted {
                    Some((_, map)) => map.clone(),
                    None => dsl::with_frame(rt, thread, visit, 0, |rt| {
                        dsl::with_frame(rt, thread, analyze_method, 2, |rt| {
                            rt.alloc_array(thread, map_class, 512)
                        })
                    })?,
                };
                // The detector probes the per-method map while walking instructions.
                dsl::with_frame(rt, thread, analyze_method, 2, |rt| {
                    for line in 0..64u64 {
                        rt.load_elem(thread, &map, (line * 8) % map.len())?;
                        rt.store_elem(thread, &map, (line * 8) % map.len())?;
                    }
                    Ok(())
                })?;
                if hoisted.is_none() {
                    rt.release(&map)?;
                }
            }

            // The rest of the analysis: scanning class-file bytes and pure compute.
            dsl::with_frame(rt, thread, visit, 0, |rt| {
                dsl::scattered_loads(rt, thread, &classfile, 400 + (class_index % 7), class_index)
            })?;
            rt.cpu_work(thread, 600_000);

            if hoisted.is_none() {
                rt.release(&buf)?;
            }
        }

        if let Some((buf, map)) = hoisted {
            rt.release(&buf)?;
            rt.release(&map)?;
        }
        rt.release(&classfile)?;
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
    fn allocation_counts_differ_between_variants() {
        let base = run_unprofiled(&FindBugsWorkload::new(Variant::Baseline).scaled(0.1));
        let opt = run_unprofiled(&FindBugsWorkload::new(Variant::Optimized).scaled(0.1));
        // Baseline: classfile + per-class buf + per-method map.
        assert_eq!(base.stats.allocations, 1 + 30 + 30 * 5);
        assert_eq!(opt.stats.allocations, 3);
        assert_eq!(base.stats.accesses, opt.stats.accesses);
    }

    #[test]
    fn hoisting_reduces_misses_and_yields_a_modest_speedup() {
        let base = run_unprofiled(&FindBugsWorkload::new(Variant::Baseline).scaled(0.5));
        let opt = run_unprofiled(&FindBugsWorkload::new(Variant::Optimized).scaled(0.5));
        assert!(base.hierarchy.l1_misses > opt.hierarchy.l1_misses);
        let s = speedup(&base, &opt);
        assert!(s > 1.03, "the paper reports 1.11x, got {s:.3}");
        assert!(s < 1.4, "the speedup stays modest, got {s:.3}");
    }

    #[test]
    fn both_problematic_objects_appear_near_the_top_of_the_profile() {
        let run = run_profiled(
            &FindBugsWorkload::new(Variant::Baseline).scaled(0.5),
            ProfilerConfig::default().with_period(64),
        );
        let buf = run.report.find_class("char[] (buf)").expect("buf must be reported");
        let map = run.report.find_class("IdentityHashMap").expect("map must be reported");
        let combined = buf.fraction_of_total + map.fraction_of_total;
        assert!(
            combined > 0.1,
            "the two objects should account for a noticeable share (paper: 32%), got {combined:.2}"
        );
        let buf_leaf = alloc_leaf(buf);
        let info = run.methods.get(buf_leaf.method).unwrap();
        assert_eq!(info.class_name, "ClassParserUsingASM");
        assert_eq!(info.line_for_bci(buf_leaf.bci), 642);
    }
}
