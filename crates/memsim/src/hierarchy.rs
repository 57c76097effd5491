//! The full memory hierarchy: per-CPU L1/L2/TLB, a shared L3, NUMA placement and the
//! latency model, driven one access at a time.

use crate::access::{AccessKind, AccessOutcome, MemoryAccess};
use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::numa::{NumaNode, PagePlacement, PlacementPolicy};
use crate::stats::HierarchyStats;
use crate::tlb::Tlb;
use crate::{Addr, CpuId};

/// Per-CPU private state: L1, L2 and the data TLB.
#[derive(Debug, Clone)]
struct CpuCaches {
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
}

/// A complete simulated memory hierarchy for one machine.
///
/// Accesses are simulated with [`MemoryHierarchy::access`]; the result describes which
/// levels missed, where the page lives, and the modeled latency. The hierarchy also keeps
/// aggregate [`HierarchyStats`] used by the evaluation harnesses as ground truth.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    cpus: Vec<CpuCaches>,
    l3: Cache,
    placement: PagePlacement,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let cpus = (0..config.cpus)
            .map(|_| CpuCaches {
                l1: Cache::new(config.l1.clone()),
                l2: Cache::new(config.l2.clone()),
                tlb: Tlb::new(config.tlb),
            })
            .collect();
        Self {
            l3: Cache::new(config.l3.clone()),
            placement: PagePlacement::new(config.numa.clone()),
            cpus,
            stats: HierarchyStats::default(),
            config,
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Aggregate statistics over every access simulated so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Read access to the NUMA page-placement table (for `move_pages`-style queries).
    pub fn placement(&self) -> &PagePlacement {
        &self.placement
    }

    /// Number of logical CPUs in the simulated machine.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// The NUMA node a CPU belongs to.
    pub fn node_of_cpu(&self, cpu: CpuId) -> NumaNode {
        self.config.numa.node_of_cpu(cpu)
    }

    /// Simulates one memory access and returns its outcome.
    ///
    /// CPU identifiers beyond the configured CPU count are folded onto the available
    /// CPUs (`cpu % cpu_count`) so that workloads with more logical threads than CPUs
    /// still simulate meaningfully.
    pub fn access(&mut self, access: MemoryAccess) -> AccessOutcome {
        let cpu = access.cpu % self.cpus.len();
        let cpu_node = self.config.numa.node_of_cpu(cpu);
        let page_node = self.placement.touch(access.addr, cpu);

        let caches = &mut self.cpus[cpu];
        let tlb_miss = !caches.tlb.access(access.addr);
        let l1_hit = caches.l1.access(access.addr);
        // A strictly inclusive lookup order: only consult lower levels on a miss.
        let (l1_miss, l2_miss, l3_miss) = if l1_hit {
            (false, false, false)
        } else {
            let l2_hit = caches.l2.access(access.addr);
            if l2_hit {
                (true, false, false)
            } else {
                let l3_hit = self.l3.access(access.addr);
                (true, true, !l3_hit)
            }
        };

        let remote = page_node != cpu_node;
        let latency =
            self.config
                .latency
                .latency(l1_miss, l2_miss, l3_miss, tlb_miss, remote && l3_miss);

        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Load => self.stats.loads += 1,
            AccessKind::Store => self.stats.stores += 1,
        }
        self.stats.l1_misses += l1_miss as u64;
        self.stats.l2_misses += l2_miss as u64;
        self.stats.l3_misses += l3_miss as u64;
        self.stats.tlb_misses += tlb_miss as u64;
        self.stats.remote_page_accesses += remote as u64;
        self.stats.remote_dram_accesses += (remote && l3_miss) as u64;
        self.stats.total_latency += latency;

        AccessOutcome {
            access: MemoryAccess { cpu, ..access },
            l1_miss,
            l2_miss,
            l3_miss,
            tlb_miss,
            cpu_node,
            page_node,
            latency,
        }
    }

    /// Flushes every cache and TLB (but keeps NUMA placement and statistics). Used
    /// between benchmark repetitions to start from a cold hierarchy.
    pub fn flush_caches(&mut self) {
        for c in &mut self.cpus {
            c.l1.flush();
            c.l2.flush();
            c.tlb.flush();
        }
        self.l3.flush();
    }

    /// Resets aggregate statistics (cache contents are left untouched).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Places every page of `[start, start+len)` according to `policy`, overriding any
    /// earlier placement. Convenience wrapper over [`PagePlacement::place_range`].
    pub fn place_range(&mut self, start: Addr, len: u64, policy: PlacementPolicy, cpu: CpuId) {
        self.placement.place_range(start, len, policy, cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CACHE_LINE_SIZE, PAGE_SIZE};

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn repeated_access_is_an_l1_hit() {
        let mut h = tiny();
        let a = h.access(MemoryAccess::load(0, 0x5000, 8));
        assert!(a.l1_miss && a.l2_miss && a.l3_miss);
        let b = h.access(MemoryAccess::load(0, 0x5000, 8));
        assert!(!b.l1_miss && !b.l2_miss && !b.l3_miss);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn l1_of_other_cpu_is_private() {
        let mut h = tiny();
        h.access(MemoryAccess::load(0, 0x5000, 8));
        // Another CPU misses its private L1/L2 but hits the shared L3.
        let o = h.access(MemoryAccess::load(1, 0x5000, 8));
        assert!(o.l1_miss && o.l2_miss);
        assert!(!o.l3_miss, "line was installed in the shared L3 by CPU 0");
    }

    #[test]
    fn strided_sweep_misses_more_than_sequential_sweep() {
        let cfg = HierarchyConfig::broadwell_like();
        let elems = 64 * 1024u64; // 512 KiB of f64 > L1+L2
        let base = 0x100_0000u64;

        let mut seq = MemoryHierarchy::new(cfg.clone());
        for i in 0..elems {
            seq.access(MemoryAccess::load(0, base + i * 8, 8));
        }
        let mut strided = MemoryHierarchy::new(cfg);
        let stride = 64u64; // touch one element per cache line repeatedly over a big range
        for rep in 0..8u64 {
            for i in 0..(elems / 8) {
                strided.access(MemoryAccess::load(0, base + (i * stride * 8 + rep * 8), 8));
            }
        }
        assert!(
            strided.stats().l1_miss_ratio() > seq.stats().l1_miss_ratio(),
            "strided {} vs sequential {}",
            strided.stats().l1_miss_ratio(),
            seq.stats().l1_miss_ratio()
        );
    }

    #[test]
    fn remote_access_detected_with_first_touch() {
        let mut h = tiny();
        // CPU 0 (node 0) first-touches the page.
        h.access(MemoryAccess::store(0, 0x9000, 8));
        // CPU 2 is on node 1 in the tiny topology (2 CPUs per node).
        let out = h.access(MemoryAccess::load(2, 0x9000, 8));
        assert_eq!(out.cpu_node, NumaNode(1));
        assert_eq!(out.page_node, NumaNode(0));
        assert!(out.is_remote_page());
    }

    #[test]
    fn remote_dram_latency_exceeds_local_dram_latency() {
        let cfg = HierarchyConfig::tiny();
        let lat = cfg.latency;
        let mut h = MemoryHierarchy::new(cfg);
        // Local: CPU 0 touches and immediately misses to DRAM (cold).
        let local = h.access(MemoryAccess::load(0, 0x10_0000, 8));
        // Remote: page first touched by node 0, accessed cold from node 1 CPU.
        h.access(MemoryAccess::store(0, 0x20_0000, 8));
        h.flush_caches();
        let remote = h.access(MemoryAccess::load(2, 0x20_0000, 8));
        assert!(remote.is_remote_dram_access());
        assert!(remote.latency >= local.latency);
        assert_eq!(remote.latency, lat.remote_dram + lat.tlb_miss_penalty);
    }

    #[test]
    fn cpu_ids_fold_onto_available_cpus() {
        let mut h = tiny(); // 4 CPUs
        let out = h.access(MemoryAccess::load(13, 0x1000, 8));
        assert_eq!(out.access.cpu, 13 % 4);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut h = tiny();
        for i in 0..100u64 {
            h.access(MemoryAccess::load(0, 0x4_0000 + i * CACHE_LINE_SIZE, 8));
        }
        assert_eq!(h.stats().accesses, 100);
        assert!(h.stats().l1_misses > 0);
        assert!(h.stats().total_latency > 0);
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
    }

    #[test]
    fn flush_caches_keeps_placement() {
        let mut h = tiny();
        h.access(MemoryAccess::store(3, 0x7000, 8));
        let node = h.placement().node_of_page(0x7000);
        h.flush_caches();
        assert_eq!(h.placement().node_of_page(0x7000), node);
        let out = h.access(MemoryAccess::load(3, 0x7000, 8));
        assert!(out.l1_miss, "caches are cold after a flush");
    }

    #[test]
    fn interleaved_placement_spreads_pages() {
        let mut h = tiny();
        h.place_range(0x0, 4 * PAGE_SIZE, PlacementPolicy::Interleaved, 0);
        let nodes: Vec<_> =
            (0..4).map(|i| h.placement().node_of_page(i * PAGE_SIZE).unwrap()).collect();
        assert_eq!(nodes[0], nodes[2]);
        assert_eq!(nodes[1], nodes[3]);
        assert_ne!(nodes[0], nodes[1]);
    }

    #[test]
    fn loads_and_stores_counted_separately() {
        let mut h = tiny();
        h.access(MemoryAccess::load(0, 0x1000, 8));
        h.access(MemoryAccess::store(0, 0x1000, 8));
        h.access(MemoryAccess::store(0, 0x1008, 8));
        assert_eq!(h.stats().loads, 1);
        assert_eq!(h.stats().stores, 2);
    }
}
