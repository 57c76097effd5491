//! Statistical and property tests for the sampling PMU: sampled counts must be an
//! unbiased estimator of the true event counts (sampled · period ≈ true count).

use djx_memsim::{HierarchyConfig, HierarchyStats, MemoryAccess, MemoryHierarchy};
use djx_pmu::{PerfEventBuilder, PmuEvent, ThreadPmu};
use proptest::prelude::*;

/// Drives a strided read over `accesses` lines through a PMU programmed by `builder`
/// and returns (samples, pmu, the hierarchy's ground-truth statistics).
fn strided_run_with(
    builder: PerfEventBuilder,
    accesses: u64,
) -> (Vec<djx_pmu::Sample>, ThreadPmu, HierarchyStats) {
    let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
    let pmu = builder.open_for_thread(1);
    let mut samples = Vec::new();
    for i in 0..accesses {
        let o = hier.access(MemoryAccess::load(0, 0x20_0000 + i * 64, 8));
        pmu.observe(&o, |fired| samples.extend_from_slice(fired));
    }
    (samples, pmu, *hier.stats())
}

/// [`strided_run_with`] sampling L1 misses. Every access is a load, so the hierarchy's
/// `l1_misses` is the true L1-miss-load count.
fn strided_run(
    period: u64,
    accesses: u64,
    jitter: bool,
) -> (Vec<djx_pmu::Sample>, ThreadPmu, HierarchyStats) {
    strided_run_with(
        PerfEventBuilder::new(PmuEvent::L1Miss).sample_period(period).jitter(jitter),
        accesses,
    )
}

/// The exact count of `event` on `pmu`'s programmed counter.
fn counted(pmu: &ThreadPmu, event: PmuEvent) -> u64 {
    let counters = pmu.counters();
    counters
        .iter()
        .find(|(ev, _)| *ev == event)
        .expect("event is programmed")
        .1
        .total()
}

#[test]
fn sampled_count_times_period_estimates_true_count() {
    let period = 16;
    let (samples, pmu, truth) = strided_run(period, 20_000, false);
    let true_count = truth.l1_misses;
    assert_eq!(counted(&pmu, PmuEvent::L1Miss), true_count);
    let estimate = samples.len() as u64 * period;
    let error = (estimate as f64 - true_count as f64).abs() / true_count as f64;
    assert!(error < 0.01, "estimate {estimate} vs true {true_count} (error {error})");
}

#[test]
fn jittered_sampling_remains_unbiased() {
    let period = 32;
    let (samples, pmu, truth) = strided_run(period, 50_000, true);
    let true_count = truth.l1_misses;
    assert_eq!(counted(&pmu, PmuEvent::L1Miss), true_count);
    let estimate = samples.len() as u64 * period;
    let error = (estimate as f64 - true_count as f64).abs() / true_count as f64;
    assert!(error < 0.05, "estimate {estimate} vs true {true_count} (error {error})");
}

#[test]
fn higher_period_produces_fewer_samples() {
    let (coarse, _, _) = strided_run(100, 10_000, false);
    let (fine, _, _) = strided_run(10, 10_000, false);
    assert!(fine.len() > coarse.len() * 5);
}

#[test]
fn samples_only_reference_missing_loads() {
    // With an L1-sized working set, the second sweep has no misses, so all samples'
    // addresses must come from the first (cold) sweep region order.
    let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
    let pmu = PerfEventBuilder::new(PmuEvent::L1Miss).sample_period(1).open_for_thread(1);
    let lines = 8u64;
    let mut cold_samples = 0usize;
    for i in 0..lines {
        let o = hier.access(MemoryAccess::load(0, 0x9000 + i * 64, 8));
        pmu.observe(&o, |fired| cold_samples += fired.len());
    }
    let mut warm_samples = 0usize;
    for _ in 0..4 {
        for i in 0..lines {
            let o = hier.access(MemoryAccess::load(0, 0x9000 + i * 64, 8));
            pmu.observe(&o, |fired| warm_samples += fired.len());
        }
    }
    assert_eq!(cold_samples, lines as usize);
    assert_eq!(warm_samples, 0);
}

proptest! {
    /// For any period and trace length, the number of samples equals ⌊true count / period⌋
    /// when jitter is disabled.
    #[test]
    fn sample_count_is_floor_of_count_over_period(period in 1u64..64, accesses in 1u64..2000) {
        let (samples, pmu, truth) = strided_run(period, accesses, false);
        let true_count = truth.l1_misses;
        prop_assert_eq!(counted(&pmu, PmuEvent::L1Miss), true_count);
        prop_assert_eq!(samples.len() as u64, true_count / period);
    }

    /// The PMU never fabricates events: with every event programmed at once, each
    /// counter's total is bounded by the number of accesses observed.
    #[test]
    fn counts_bounded_by_accesses(accesses in 1u64..1500, period in 1u64..32) {
        let builder = PmuEvent::all()[1..]
            .iter()
            .fold(PerfEventBuilder::new(PmuEvent::all()[0]).sample_period(period), |b, ev| {
                b.add_event(*ev)
            });
        let (_, pmu, _) = strided_run_with(builder, accesses);
        let counters = pmu.counters();
        prop_assert_eq!(counters.len(), PmuEvent::all().len());
        for (_, counter) in &counters {
            prop_assert!(counter.total() <= accesses);
        }
        prop_assert_eq!(counted(&pmu, PmuEvent::Loads), accesses);
    }
}
