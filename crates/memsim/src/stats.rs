//! Aggregate statistics kept by the memory hierarchy.

/// Counters aggregated over every access the hierarchy has simulated.
///
/// These are the "ground truth" that the evaluation harness compares the profiler's
/// sampled, attributed metrics against (accuracy experiments), and that the workload
/// speedup model is derived from (total latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total number of accesses simulated.
    pub accesses: u64,
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Accesses that missed L1.
    pub l1_misses: u64,
    /// Accesses that missed L2.
    pub l2_misses: u64,
    /// Accesses that missed L3 (reached DRAM).
    pub l3_misses: u64,
    /// Accesses that missed the data TLB.
    pub tlb_misses: u64,
    /// DRAM accesses served by a remote NUMA node.
    pub remote_dram_accesses: u64,
    /// Accesses whose page resides on a node different from the issuing CPU's node,
    /// regardless of where the access was served from.
    pub remote_page_accesses: u64,
    /// Sum of modeled access latencies (cycles).
    pub total_latency: u64,
}

impl HierarchyStats {
    /// L1 miss ratio over all accesses, or 0.0 when no access has been simulated.
    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses, self.accesses)
    }

    /// L3 (DRAM) miss ratio over all accesses.
    pub fn l3_miss_ratio(&self) -> f64 {
        ratio(self.l3_misses, self.accesses)
    }

    /// Fraction of DRAM accesses that were remote.
    pub fn remote_dram_ratio(&self) -> f64 {
        ratio(self.remote_dram_accesses, self.l3_misses)
    }

    /// Fraction of all accesses whose page was remote to the issuing CPU.
    pub fn remote_page_ratio(&self) -> f64 {
        ratio(self.remote_page_accesses, self.accesses)
    }

    /// Average access latency in cycles, or 0.0 when no access has been simulated.
    pub fn average_latency(&self) -> f64 {
        ratio(self.total_latency, self.accesses)
    }

    /// Merges another stats block into this one (used when combining per-CPU partitions).
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.accesses += other.accesses;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.l3_misses += other.l3_misses;
        self.tlb_misses += other.tlb_misses;
        self.remote_dram_accesses += other.remote_dram_accesses;
        self.remote_page_accesses += other.remote_page_accesses;
        self.total_latency += other.total_latency;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominator() {
        let s = HierarchyStats::default();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        assert_eq!(s.remote_dram_ratio(), 0.0);
        assert_eq!(s.average_latency(), 0.0);
    }

    #[test]
    fn ratios_compute_fractions() {
        let s = HierarchyStats {
            accesses: 100,
            loads: 80,
            stores: 20,
            l1_misses: 25,
            l2_misses: 10,
            l3_misses: 5,
            tlb_misses: 2,
            remote_dram_accesses: 4,
            remote_page_accesses: 10,
            total_latency: 1000,
        };
        assert!((s.l1_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.l3_miss_ratio() - 0.05).abs() < 1e-12);
        assert!((s.remote_dram_ratio() - 0.8).abs() < 1e-12);
        assert!((s.remote_page_ratio() - 0.1).abs() < 1e-12);
        assert!((s.average_latency() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a =
            HierarchyStats { accesses: 1, l1_misses: 1, total_latency: 4, ..Default::default() };
        let b =
            HierarchyStats { accesses: 2, l1_misses: 1, total_latency: 8, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.accesses, 3);
        assert_eq!(a.l1_misses, 2);
        assert_eq!(a.total_latency, 12);
    }
}
