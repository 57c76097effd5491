//! Differential test of the countdown PMU against the per-access counter walk.
//!
//! The reference is the PMU as a counter walk: every access adds each programmed
//! event's increment to its [`EventCounter`] and emits a sample whenever `add` reports
//! an overflow. [`ThreadPmu`] counts down lock-free and touches its counters only on
//! overflow; over arbitrary outcome streams, event sets, jitter settings and
//! disable/enable toggles it must emit the identical sample sequence — event, address,
//! `counter_value`, every other field, and order — and end with identical counters.

use djx_memsim::{AccessKind, AccessOutcome, MemoryAccess, NumaNode};
use djx_pmu::{EventCounter, PmuEvent, Sample, ThreadPmu};
use proptest::prelude::*;

/// The per-access counter walk.
struct WalkedPmu {
    thread_id: u64,
    counters: Vec<(PmuEvent, EventCounter)>,
    enabled: bool,
}

impl WalkedPmu {
    fn new(thread_id: u64, events: &[(PmuEvent, u64)], jitter: bool) -> Self {
        let counters = events
            .iter()
            .map(|(ev, period)| (*ev, EventCounter::with_jitter(*period, jitter, thread_id)))
            .collect();
        Self { thread_id, counters, enabled: true }
    }

    fn observe(&mut self, outcome: &AccessOutcome) -> Vec<Sample> {
        let mut fired = Vec::new();
        if !self.enabled {
            return fired;
        }
        for (ev, counter) in &mut self.counters {
            let inc = ev.increment_for(outcome);
            if inc > 0 && counter.add(inc) {
                fired.push(Sample::from_outcome(*ev, self.thread_id, outcome, counter.total()));
            }
        }
        fired
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(AccessOutcome),
    Disable,
    Enable,
}

/// One op: mostly accesses whose outcome flags come from the bits of `flags`, with
/// occasional disable/enable toggles.
fn op((selector, flags, latency, line): (u8, u8, u64, u64)) -> Op {
    match selector {
        0..=2 => Op::Disable,
        3..=5 => Op::Enable,
        _ => {
            let bit = |i: u32| flags & (1 << i) != 0;
            let kind = if bit(0) { AccessKind::Store } else { AccessKind::Load };
            Op::Access(AccessOutcome {
                access: MemoryAccess { cpu: 0, addr: 0x4000_0000 + line * 64, size: 8, kind },
                l1_miss: bit(1),
                l2_miss: bit(2),
                l3_miss: bit(3),
                tlb_miss: bit(4),
                cpu_node: NumaNode(0),
                page_node: NumaNode(u32::from(bit(5))),
                latency,
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn countdown_pmu_emits_the_counter_walks_samples(
        programmed in prop::collection::vec((0usize..8, 1u64..24), 1..4),
        jitter in any::<bool>(),
        thread_id in 0u64..1000,
        ops in prop::collection::vec((0u8..100, any::<u8>(), 0u64..400, 0u64..4096), 0..1500),
    ) {
        let events: Vec<(PmuEvent, u64)> =
            programmed.iter().map(|&(ev, period)| (PmuEvent::all()[ev], period)).collect();
        let mut walked = WalkedPmu::new(thread_id, &events, jitter);
        let pmu = ThreadPmu::new(thread_id, &events, jitter);
        for (step, raw) in ops.into_iter().enumerate() {
            match op(raw) {
                Op::Disable => {
                    walked.enabled = false;
                    pmu.disable();
                }
                Op::Enable => {
                    walked.enabled = true;
                    pmu.enable();
                }
                Op::Access(outcome) => {
                    let expected = walked.observe(&outcome);
                    let mut fired = Vec::new();
                    pmu.observe(&outcome, |samples| {
                        assert!(!samples.is_empty(), "overflow callback without samples");
                        fired.extend_from_slice(samples);
                    });
                    prop_assert_eq!(fired, expected, "step {}", step);
                }
            }
            prop_assert_eq!(pmu.is_enabled(), walked.enabled);
        }
        let counters = pmu.counters();
        prop_assert_eq!(counters.len(), walked.counters.len());
        for ((ev, counter), (walked_ev, walked_counter)) in counters.iter().zip(&walked.counters) {
            prop_assert_eq!(ev, walked_ev);
            prop_assert_eq!(counter.total(), walked_counter.total());
            prop_assert_eq!(counter.overflows(), walked_counter.overflows());
            prop_assert_eq!(counter.armed(), walked_counter.armed());
        }
        prop_assert_eq!(
            pmu.samples_emitted(),
            walked.counters.iter().map(|(_, c)| c.overflows()).sum::<u64>()
        );
    }
}
