//! Precise memory events the simulated PMU can count and sample.

use djx_memsim::{AccessKind, AccessOutcome};

/// A precise, memory-related PMU event.
///
/// Each variant corresponds to a hardware event DJXPerf can program (§3 and §5.1 of the
/// paper); [`PmuEvent::hardware_name`] returns the Intel-style event string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PmuEvent {
    /// Retired loads that missed the L1 data cache
    /// (`MEM_LOAD_UOPS_RETIRED:L1_MISS`) — DJXPerf's default event.
    L1Miss,
    /// Retired loads that missed the L2 cache (`MEM_LOAD_UOPS_RETIRED:L2_MISS`).
    L2Miss,
    /// Retired loads that missed the L3 cache (`MEM_LOAD_UOPS_RETIRED:L3_MISS`).
    L3Miss,
    /// Data-TLB load misses (`DTLB_LOAD_MISSES:MISS_CAUSES_A_WALK`).
    DtlbMiss,
    /// Loads with their access latency (`MEM_TRANS_RETIRED:LOAD_LATENCY`); the counter
    /// advances by one per load whose latency meets the configured threshold, and the
    /// sample carries the latency.
    LoadLatency {
        /// Minimum latency (cycles) for a load to count, mirroring the `ldlat` threshold.
        threshold: u64,
    },
    /// All retired memory loads (`MEM_UOPS_RETIRED:ALL_LOADS`).
    Loads,
    /// All retired memory stores (`MEM_UOPS_RETIRED:ALL_STORES`).
    Stores,
    /// Loads and stores served by remote DRAM
    /// (`MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM`).
    RemoteDram,
}

impl PmuEvent {
    /// The default event DJXPerf presets: L1 cache misses.
    pub const DEFAULT: PmuEvent = PmuEvent::L1Miss;

    /// The Intel-style hardware event name used in the paper.
    pub fn hardware_name(&self) -> &'static str {
        match self {
            PmuEvent::L1Miss => "MEM_LOAD_UOPS_RETIRED:L1_MISS",
            PmuEvent::L2Miss => "MEM_LOAD_UOPS_RETIRED:L2_MISS",
            PmuEvent::L3Miss => "MEM_LOAD_UOPS_RETIRED:L3_MISS",
            PmuEvent::DtlbMiss => "DTLB_LOAD_MISSES:MISS_CAUSES_A_WALK",
            PmuEvent::LoadLatency { .. } => "MEM_TRANS_RETIRED:LOAD_LATENCY",
            PmuEvent::Loads => "MEM_UOPS_RETIRED:ALL_LOADS",
            PmuEvent::Stores => "MEM_UOPS_RETIRED:ALL_STORES",
            PmuEvent::RemoteDram => "MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM",
        }
    }

    /// How much this event's counter advances for the given access outcome (0 when the
    /// event did not occur).
    pub fn increment_for(&self, outcome: &AccessOutcome) -> u64 {
        let is_load = outcome.access.kind == AccessKind::Load;
        let occurred = match self {
            PmuEvent::L1Miss => is_load && outcome.l1_miss,
            PmuEvent::L2Miss => is_load && outcome.l2_miss,
            PmuEvent::L3Miss => is_load && outcome.l3_miss,
            PmuEvent::DtlbMiss => is_load && outcome.tlb_miss,
            PmuEvent::LoadLatency { threshold } => is_load && outcome.latency >= *threshold,
            PmuEvent::Loads => is_load,
            PmuEvent::Stores => outcome.access.kind == AccessKind::Store,
            PmuEvent::RemoteDram => outcome.is_remote_dram_access(),
        };
        occurred as u64
    }

    /// The metric value a sample of this event carries for the given outcome (for most
    /// events this is 1; for [`PmuEvent::LoadLatency`] it is the access latency).
    pub fn sample_value(&self, outcome: &AccessOutcome) -> u64 {
        match self {
            PmuEvent::LoadLatency { .. } => outcome.latency,
            _ => 1,
        }
    }

    /// All events with their default configuration, useful for enumeration in tools and
    /// tests.
    pub fn all() -> [PmuEvent; 8] {
        [
            PmuEvent::L1Miss,
            PmuEvent::L2Miss,
            PmuEvent::L3Miss,
            PmuEvent::DtlbMiss,
            PmuEvent::LoadLatency { threshold: 30 },
            PmuEvent::Loads,
            PmuEvent::Stores,
            PmuEvent::RemoteDram,
        ]
    }
}

impl Default for PmuEvent {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for PmuEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hardware_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{MemoryAccess, NumaNode};

    fn outcome(
        kind: AccessKind,
        l1: bool,
        l2: bool,
        l3: bool,
        tlb: bool,
        remote: bool,
    ) -> AccessOutcome {
        AccessOutcome {
            access: MemoryAccess { cpu: 0, addr: 0x1000, size: 8, kind },
            l1_miss: l1,
            l2_miss: l2,
            l3_miss: l3,
            tlb_miss: tlb,
            cpu_node: NumaNode(0),
            page_node: NumaNode(if remote { 1 } else { 0 }),
            latency: if l3 { 300 } else { 4 },
        }
    }

    #[test]
    fn default_event_is_l1_miss() {
        assert_eq!(PmuEvent::default(), PmuEvent::L1Miss);
        assert_eq!(PmuEvent::DEFAULT.hardware_name(), "MEM_LOAD_UOPS_RETIRED:L1_MISS");
    }

    #[test]
    fn l1_miss_counts_only_load_misses() {
        let hit = outcome(AccessKind::Load, false, false, false, false, false);
        let miss = outcome(AccessKind::Load, true, false, false, false, false);
        let store_miss = outcome(AccessKind::Store, true, true, true, false, false);
        assert_eq!(PmuEvent::L1Miss.increment_for(&hit), 0);
        assert_eq!(PmuEvent::L1Miss.increment_for(&miss), 1);
        assert_eq!(PmuEvent::L1Miss.increment_for(&store_miss), 0);
    }

    #[test]
    fn load_latency_respects_threshold() {
        let dram = outcome(AccessKind::Load, true, true, true, false, false);
        let l1 = outcome(AccessKind::Load, false, false, false, false, false);
        let ev = PmuEvent::LoadLatency { threshold: 100 };
        assert_eq!(ev.increment_for(&dram), 1);
        assert_eq!(ev.increment_for(&l1), 0);
        assert_eq!(ev.sample_value(&dram), 300);
    }

    #[test]
    fn loads_and_stores_split_by_kind() {
        let load = outcome(AccessKind::Load, false, false, false, false, false);
        let store = outcome(AccessKind::Store, false, false, false, false, false);
        assert_eq!(PmuEvent::Loads.increment_for(&load), 1);
        assert_eq!(PmuEvent::Loads.increment_for(&store), 0);
        assert_eq!(PmuEvent::Stores.increment_for(&store), 1);
        assert_eq!(PmuEvent::Stores.increment_for(&load), 0);
    }

    #[test]
    fn remote_dram_requires_dram_and_node_mismatch() {
        let remote = outcome(AccessKind::Load, true, true, true, false, true);
        let local = outcome(AccessKind::Load, true, true, true, false, false);
        let cached_remote = outcome(AccessKind::Load, true, true, false, false, true);
        assert_eq!(PmuEvent::RemoteDram.increment_for(&remote), 1);
        assert_eq!(PmuEvent::RemoteDram.increment_for(&local), 0);
        assert_eq!(PmuEvent::RemoteDram.increment_for(&cached_remote), 0);
    }

    #[test]
    fn tlb_event_counts_walks() {
        let walk = outcome(AccessKind::Load, false, false, false, true, false);
        assert_eq!(PmuEvent::DtlbMiss.increment_for(&walk), 1);
    }

    #[test]
    fn display_uses_hardware_name() {
        assert_eq!(PmuEvent::L3Miss.to_string(), "MEM_LOAD_UOPS_RETIRED:L3_MISS");
        assert_eq!(
            PmuEvent::LoadLatency { threshold: 3 }.to_string(),
            "MEM_TRANS_RETIRED:LOAD_LATENCY"
        );
    }

    #[test]
    fn all_lists_every_event_once() {
        let all = PmuEvent::all();
        assert_eq!(all.len(), 8);
        let mut names: Vec<_> = all.iter().map(|e| e.hardware_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn sample_value_defaults_to_one() {
        let miss = outcome(AccessKind::Load, true, false, false, false, false);
        assert_eq!(PmuEvent::L1Miss.sample_value(&miss), 1);
    }
}
