//! Figure 1 — code-centric vs object-centric attribution.
//!
//! The figure shows an access sequence over three objects through ten instructions with
//! the following shares of the program's cache misses:
//!
//! | instruction | object | share |
//! |---|---|---|
//! | Ia | O1 | 4% |
//! | Ib | O2 | 8% |
//! | Ic | O3 | 24% |
//! | Id | O1 | 8% |
//! | Ie | O1 | 10% |
//! | If | O2 | 12% |
//! | Ig | O1 | 8% |
//! | Ih | O1 | 12% |
//! | Ii | O1 | 8% |
//! | Ij | O2 | 6% |
//!
//! Code-centric profiling therefore ranks `Ic` (24%) first, while object-centric
//! profiling aggregates the scattered accesses and ranks `O1` (50%) first — the point of
//! the figure. This workload reproduces exactly those proportions: each "instruction" is
//! a distinct method/BCI that performs a number of cold-line loads inside its object
//! proportional to its share.

use djx_runtime::{dsl, Runtime, RuntimeConfig};

use crate::Workload;

/// One access site of the Figure 1 sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure1Site {
    /// Instruction label (`"Ia"` … `"Ij"`).
    pub instruction: &'static str,
    /// Object index the instruction touches (1, 2 or 3).
    pub object: usize,
    /// Share of the program's cache misses, in percent.
    pub percent: u64,
}

/// The ten access sites of Figure 1 in program order.
pub const FIGURE1_SITES: [Figure1Site; 10] = [
    Figure1Site { instruction: "Ia", object: 1, percent: 4 },
    Figure1Site { instruction: "Ib", object: 2, percent: 8 },
    Figure1Site { instruction: "Ic", object: 3, percent: 24 },
    Figure1Site { instruction: "Id", object: 1, percent: 8 },
    Figure1Site { instruction: "Ie", object: 1, percent: 10 },
    Figure1Site { instruction: "If", object: 2, percent: 12 },
    Figure1Site { instruction: "Ig", object: 1, percent: 8 },
    Figure1Site { instruction: "Ih", object: 1, percent: 12 },
    Figure1Site { instruction: "Ii", object: 1, percent: 8 },
    Figure1Site { instruction: "Ij", object: 2, percent: 6 },
];

/// Expected per-object shares implied by [`FIGURE1_SITES`] (percent, indexed by object
/// number 1–3).
pub fn expected_object_percent(object: usize) -> u64 {
    FIGURE1_SITES.iter().filter(|s| s.object == object).map(|s| s.percent).sum()
}

/// The Figure 1 workload.
#[derive(Debug, Clone)]
pub struct Figure1Workload {
    /// Cache lines of cold misses generated per percentage point.
    pub lines_per_percent: u64,
}

impl Default for Figure1Workload {
    fn default() -> Self {
        Self::new()
    }
}

impl Figure1Workload {
    /// Creates the workload with enough resolution for stable sampling (100 cold lines
    /// per percentage point → 10,000 misses total).
    pub fn new() -> Self {
        Self { lines_per_percent: 100 }
    }
}

impl Workload for Figure1Workload {
    fn name(&self) -> String {
        "figure1-motivation".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        let run_method = dsl::thread_run_method(rt);
        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, run_method, 0)?;

        // Allocate the three objects, each sized to the lines its instructions consume.
        let mut objects = Vec::new();
        for object in 1..=3usize {
            let class = rt.register_array_class(&format!("Object O{object}"), 8);
            let alloc_method = rt.register_method(
                "App",
                &format!("allocateO{object}"),
                "App.java",
                &[(0, 10 + object as u32)],
            );
            let lines = expected_object_percent(object) * self.lines_per_percent;
            let elems = lines * 8; // 8 elements of 8 bytes per 64-byte line
            let obj = dsl::with_frame(rt, thread, alloc_method, 0, |rt| {
                rt.alloc_array(thread, class, elems)
            })?;
            objects.push(obj);
        }

        // Each instruction reads its own, previously untouched region of its object —
        // every load is a cold cache miss, so miss shares equal access shares.
        let mut cursor = [0u64; 4];
        for (index, site) in FIGURE1_SITES.iter().enumerate() {
            let method =
                rt.register_method("App", site.instruction, "App.java", &[(0, 100 + index as u32)]);
            let obj = &objects[site.object - 1];
            let lines = site.percent * self.lines_per_percent;
            let start_line = cursor[site.object];
            cursor[site.object] += lines;
            dsl::with_frame(rt, thread, method, 0, |rt| {
                for line in start_line..start_line + lines {
                    rt.load_elem(thread, obj, line * 8)?;
                }
                Ok(())
            })?;
        }

        for obj in &objects {
            rt.release(obj)?;
        }
        rt.pop_frame(thread)?;
        rt.finish_thread(thread)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_profiled, run_unprofiled};
    use djxperf::{GroupBy, GroupKey, ProfilerConfig, Query};

    #[test]
    fn shares_in_the_table_sum_to_one_hundred_percent() {
        let total: u64 = FIGURE1_SITES.iter().map(|s| s.percent).sum();
        assert_eq!(total, 100);
        assert_eq!(expected_object_percent(1), 50);
        assert_eq!(expected_object_percent(2), 26);
        assert_eq!(expected_object_percent(3), 24);
    }

    #[test]
    fn every_access_is_a_cold_miss() {
        let outcome = run_unprofiled(&Figure1Workload::new());
        // 100 lines per percent × 100 percent = 10,000 loads, all missing L1.
        assert_eq!(outcome.stats.accesses, 10_000);
        assert_eq!(outcome.hierarchy.l1_misses, 10_000);
    }

    #[test]
    fn object_centric_view_ranks_o1_first_with_half_the_misses() {
        let run = run_profiled(&Figure1Workload::new(), ProfilerConfig::default().with_period(8));
        let top = run.report.hottest().unwrap();
        assert_eq!(top.label, "Object O1");
        assert!(
            (0.40..0.60).contains(&top.fraction_of_total),
            "O1 should carry ~50% of misses, got {:.2}",
            top.fraction_of_total
        );
        // O1's misses are scattered over six access sites.
        assert_eq!(top.contexts.len(), 6);
    }

    #[test]
    fn code_centric_view_ranks_ic_first_with_a_quarter_of_the_misses() {
        let run = run_profiled(&Figure1Workload::new(), ProfilerConfig::default().with_period(8));
        let code = Query::new().group_by(GroupBy::Context).top(1).evaluate(&run.profile).unwrap();
        let top_code = code.hottest().unwrap();
        let GroupKey::Context(path) = &top_code.key else { panic!("a context group") };
        let leaf = path.last().unwrap();
        assert_eq!(run.methods.get(leaf.method).unwrap().name, "Ic");
        assert!(
            (0.18..0.30).contains(&top_code.fraction_of_total),
            "Ic should carry ~24% of misses, got {:.2}",
            top_code.fraction_of_total
        );

        // The hottest object beats the hottest instruction by roughly 2x, which is the
        // argument Figure 1 makes for object-centric profiling.
        let top_object = run.report.hottest().unwrap();
        assert!(top_object.fraction_of_total > top_code.fraction_of_total + 0.15);
    }
}
