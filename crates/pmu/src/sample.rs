//! PEBS-style precise samples delivered on counter overflow.

use djx_memsim::{AccessKind, AccessOutcome, Addr, CpuId, NumaNode};

use crate::event::PmuEvent;
use crate::ThreadId;

/// One precise sample, the analogue of a PEBS record delivered to DJXPerf's signal
/// handler on counter overflow.
///
/// It carries everything §4 of the paper relies on: the *effective address* of the
/// sampled access (used for the object-index lookup), the CPU that issued it
/// (`PERF_SAMPLE_CPU`, used for NUMA-locality detection), the owning node of the touched
/// page (the `move_pages` query result), the metric value and the access latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The event whose counter overflowed.
    pub event: PmuEvent,
    /// The thread whose virtual PMU produced the sample.
    pub thread_id: ThreadId,
    /// Logical CPU the access was issued from.
    pub cpu: CpuId,
    /// NUMA node of that CPU.
    pub cpu_node: NumaNode,
    /// NUMA node owning the page containing [`Sample::effective_addr`].
    pub page_node: NumaNode,
    /// Effective (virtual) address touched by the sampled access.
    pub effective_addr: Addr,
    /// Whether the sampled access was a load or a store.
    pub kind: AccessKind,
    /// Metric value carried by the sample (1 for count events, latency in cycles for the
    /// load-latency event).
    pub value: u64,
    /// Modeled latency of the sampled access in cycles.
    pub latency: u64,
    /// Value of the overflowed counter *including* this sample, i.e. how many events had
    /// been counted when the sample fired.
    pub counter_value: u64,
}

impl Sample {
    /// Builds a sample for `event` from an access outcome.
    pub fn from_outcome(
        event: PmuEvent,
        thread_id: ThreadId,
        outcome: &AccessOutcome,
        counter_value: u64,
    ) -> Self {
        Self {
            event,
            thread_id,
            cpu: outcome.access.cpu,
            cpu_node: outcome.cpu_node,
            page_node: outcome.page_node,
            effective_addr: outcome.access.addr,
            kind: outcome.access.kind,
            value: event.sample_value(outcome),
            latency: outcome.latency,
            counter_value,
        }
    }

    /// `true` when the sampled access touched a page whose owning node differs from the
    /// issuing CPU's node — the condition DJXPerf uses to report a remote access (§4.3).
    pub fn is_remote_access(&self) -> bool {
        self.cpu_node != self.page_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::MemoryAccess;

    fn outcome() -> AccessOutcome {
        AccessOutcome {
            access: MemoryAccess::load(3, 0xdead_beef, 8),
            l1_miss: true,
            l2_miss: true,
            l3_miss: true,
            tlb_miss: false,
            cpu_node: NumaNode(0),
            page_node: NumaNode(1),
            latency: 350,
        }
    }

    #[test]
    fn from_outcome_copies_pebs_fields() {
        let s = Sample::from_outcome(PmuEvent::L1Miss, 42, &outcome(), 17);
        assert_eq!(s.thread_id, 42);
        assert_eq!(s.cpu, 3);
        assert_eq!(s.effective_addr, 0xdead_beef);
        assert_eq!(s.kind, AccessKind::Load);
        assert_eq!(s.value, 1);
        assert_eq!(s.latency, 350);
        assert_eq!(s.counter_value, 17);
        assert!(s.is_remote_access());
    }

    #[test]
    fn load_latency_sample_carries_latency_as_value() {
        let s = Sample::from_outcome(PmuEvent::LoadLatency { threshold: 30 }, 1, &outcome(), 1);
        assert_eq!(s.value, 350);
    }

    #[test]
    fn local_sample_is_not_remote() {
        let mut o = outcome();
        o.page_node = NumaNode(0);
        let s = Sample::from_outcome(PmuEvent::L1Miss, 1, &o, 1);
        assert!(!s.is_remote_access());
    }
}
