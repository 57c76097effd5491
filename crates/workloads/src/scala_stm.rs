//! §7.3 — Renaissance 0.10 scala-stm-bench7.
//!
//! DJXPerf pinpoints the `_wDispatch` array of ScalaSTM's `AccessHistory` (grown at
//! AccessHistory.scala line 619) as a problematic object accounting for ~25% of total
//! cache misses: the array starts at a capacity of only 8, so `grow()` — allocate a new
//! array of twice the capacity and copy the old one over — runs over and over as a
//! transaction's write set fills up. Increasing the initial capacity (to 512 in the
//! paper's fix) cuts array creation and copying by 79% and yields a 1.12× speedup.
//!
//! The kernel models one STM thread executing transactions: each transaction appends a
//! write-set's worth of entries into `_wDispatch` (growing it on demand from the initial
//! capacity), performs stmbench7-style operations over a large shared structure, and
//! finally walks the dispatch array at commit.

use djx_runtime::{dsl, ObjRef, Runtime, RuntimeConfig, ThreadId};

use crate::{Variant, Workload};

/// The scala-stm-bench7 write-set growth kernel.
#[derive(Debug, Clone)]
pub struct ScalaStmWorkload {
    /// Number of transactions executed.
    pub transactions: u64,
    /// Entries appended to the write set per transaction.
    pub writes_per_txn: u64,
    /// Initial `_wDispatch` capacity in the baseline variant (8 in ScalaSTM).
    pub baseline_capacity: u64,
    /// Initial capacity after the fix (512 in the paper).
    pub optimized_capacity: u64,
    /// Baseline or enlarged-initial-capacity variant.
    pub variant: Variant,
}

impl ScalaStmWorkload {
    /// Configuration mirroring the paper's 60-repetition run (scaled to simulation
    /// size).
    pub fn new(variant: Variant) -> Self {
        Self {
            transactions: 1200,
            writes_per_txn: 600,
            baseline_capacity: 8,
            optimized_capacity: 512,
            variant,
        }
    }

    /// Scales the transaction count for quick tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.transactions = ((self.transactions as f64 * factor).round() as u64).max(1);
        self
    }

    fn initial_capacity(&self) -> u64 {
        match self.variant {
            Variant::Baseline => self.baseline_capacity,
            Variant::Optimized => self.optimized_capacity,
        }
    }
}

/// Counters describing how much regrowth the run performed (exposed for tests and the
/// case-study harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrowthStats {
    /// `grow()` invocations (array creations beyond the initial one).
    pub grows: u64,
    /// Elements copied by all `grow()` invocations.
    pub elements_copied: u64,
}

impl ScalaStmWorkload {
    /// Runs the workload and additionally returns the growth counters.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_with_stats(&self, rt: &mut Runtime) -> djx_runtime::Result<GrowthStats> {
        let int_array = rt.register_array_class("int[] (_wDispatch)", 4);
        let graph_class = rt.register_array_class("long[] (stmbench7 graph)", 8);

        let run_method = dsl::thread_run_method(rt);
        let txn_method =
            rt.register_method("StmBench7", "transaction", "StmBench7.scala", &[(0, 210)]);
        let record =
            rt.register_method("AccessHistory", "recordWrite", "AccessHistory.scala", &[(0, 602)]);
        let grow = rt.register_method(
            "AccessHistory",
            "grow",
            "AccessHistory.scala",
            &[(0, 615), (4, 619)],
        );
        let commit = rt.register_method("InTxnImpl", "commit", "InTxnImpl.scala", &[(0, 410)]);

        let thread = rt.spawn_thread("stm-worker");
        rt.push_frame(thread, run_method, 0)?;

        // The shared stmbench7 object graph the operations traverse (4 MiB).
        let graph = rt.alloc_array(thread, graph_class, 512 * 1024)?;
        dsl::init_array(rt, thread, &graph)?;

        let mut stats = GrowthStats::default();
        let mut scan_offset = 0u64;

        for _txn in 0..self.transactions {
            // A fresh write-set dispatch array per transaction, at the initial capacity.
            let mut capacity = self.initial_capacity();
            let mut dispatch: ObjRef = dsl::with_frame(rt, thread, grow, 4, |rt| {
                rt.alloc_array(thread, int_array, capacity)
            })?;
            let mut size = 0u64;

            dsl::with_frame(rt, thread, txn_method, 0, |rt| {
                for _w in 0..self.writes_per_txn {
                    if size == capacity {
                        // _wCapacity *= 2; _wDispatch = new Array[Int](_wCapacity); copy.
                        capacity *= 2;
                        let bigger = dsl::with_frame(rt, thread, grow, 4, |rt| {
                            rt.alloc_array(thread, int_array, capacity)
                        })?;
                        Self::copy_array(rt, thread, &dispatch, &bigger, size)?;
                        stats.grows += 1;
                        stats.elements_copied += size;
                        rt.release(&dispatch)?;
                        dispatch = bigger;
                    }
                    dsl::with_frame(rt, thread, record, 0, |rt| {
                        rt.store_elem(thread, &dispatch, size)
                    })?;
                    size += 1;
                }
                Ok(())
            })?;

            // stmbench7 operations over the shared graph between filling and committing
            // the write set (this is what evicts the dispatch array from the L1).
            let chunk = 600u64;
            for i in 0..chunk {
                rt.load_elem(thread, &graph, (scan_offset + i * 8) % graph.len())?;
            }
            scan_offset = (scan_offset + chunk * 8) % graph.len();
            rt.cpu_work(thread, 30_000);

            // Commit: walk the dispatch array.
            dsl::with_frame(rt, thread, commit, 0, |rt| {
                for i in 0..size {
                    rt.load_elem(thread, &dispatch, i)?;
                }
                Ok(())
            })?;

            rt.release(&dispatch)?;
        }

        rt.release(&graph)?;
        rt.pop_frame(thread)?;
        rt.finish_thread(thread)?;
        Ok(stats)
    }

    fn copy_array(
        rt: &mut Runtime,
        thread: ThreadId,
        from: &ObjRef,
        to: &ObjRef,
        len: u64,
    ) -> djx_runtime::Result<()> {
        for i in 0..len {
            rt.load_elem(thread, from, i)?;
            rt.store_elem(thread, to, i)?;
        }
        Ok(())
    }
}

impl Workload for ScalaStmWorkload {
    fn name(&self) -> String {
        "renaissance-scala-stm-bench7".to_string()
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::evaluation()
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        self.run_with_stats(rt).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{alloc_leaf, run_profiled, run_unprofiled, speedup};
    use djx_runtime::RuntimeConfig as RtConfig;
    use djxperf::ProfilerConfig;

    #[test]
    fn growth_counters_shrink_with_the_larger_initial_capacity() {
        let mut rt = djx_runtime::Runtime::new(RtConfig::evaluation());
        let base_stats = ScalaStmWorkload::new(Variant::Baseline)
            .scaled(0.05)
            .run_with_stats(&mut rt)
            .unwrap();
        let mut rt2 = djx_runtime::Runtime::new(RtConfig::evaluation());
        let opt_stats = ScalaStmWorkload::new(Variant::Optimized)
            .scaled(0.05)
            .run_with_stats(&mut rt2)
            .unwrap();
        assert!(base_stats.grows > opt_stats.grows);
        assert!(base_stats.elements_copied > opt_stats.elements_copied);
        // The paper reports array creation/copy reduced by 79%.
        let creation_reduction = 1.0 - opt_stats.grows as f64 / base_stats.grows as f64;
        assert!(
            creation_reduction > 0.6,
            "creation should drop sharply, got {:.0}%",
            creation_reduction * 100.0
        );
    }

    #[test]
    fn enlarging_the_initial_capacity_yields_a_modest_speedup() {
        let base = run_unprofiled(&ScalaStmWorkload::new(Variant::Baseline).scaled(0.25));
        let opt = run_unprofiled(&ScalaStmWorkload::new(Variant::Optimized).scaled(0.25));
        assert!(base.stats.allocations > opt.stats.allocations);
        let s = speedup(&base, &opt);
        assert!(s > 1.02, "the paper reports 1.12x, got {s:.3}");
        assert!(s < 1.5, "the speedup stays modest, got {s:.3}");
    }

    #[test]
    fn wdispatch_is_a_top_object_in_the_profile() {
        let run = run_profiled(
            &ScalaStmWorkload::new(Variant::Baseline).scaled(0.25),
            ProfilerConfig::default().with_period(128),
        );
        let dispatch = run
            .report
            .find_class("int[] (_wDispatch)")
            .expect("_wDispatch must be reported");
        assert!(
            dispatch.fraction_of_total > 0.03,
            "_wDispatch should carry a visible share of misses, got {:.3}",
            dispatch.fraction_of_total
        );
        let leaf = alloc_leaf(dispatch);
        let info = run.methods.get(leaf.method).unwrap();
        assert_eq!(info.name, "grow");
        assert_eq!(info.line_for_bci(leaf.bci), 619);
        // It ranks among the top few objects.
        let rank = run.report.groups.iter().position(|o| o.label == "int[] (_wDispatch)").unwrap();
        assert!(rank < 3, "expected a top-3 object, got rank {rank}");
    }
}
