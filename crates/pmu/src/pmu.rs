//! The per-thread virtual PMU: a set of programmed counters observing a thread's
//! memory-access outcomes and emitting precise samples on overflow.

use djx_memsim::AccessOutcome;

use crate::counter::EventCounter;
use crate::event::PmuEvent;
use crate::sample::Sample;
use crate::ThreadId;

/// Counting-mode read-out of every event a [`ThreadPmu`] observed, regardless of whether
/// the event was programmed for sampling. Used as ground truth in accuracy tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuCounts {
    counts: [u64; PmuEvent::KIND_COUNT],
}

impl PmuCounts {
    /// The total count observed for `event` (0 if never observed).
    pub fn count(&self, event: PmuEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Iterates over `(hardware event name, count)` pairs of events observed at least
    /// once, in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        PmuEvent::all()
            .into_iter()
            .filter(move |ev| self.counts[ev.index()] > 0)
            .map(move |ev| (ev.hardware_name(), self.counts[ev.index()]))
    }

    fn add(&mut self, event: PmuEvent, increment: u64) {
        self.counts[event.index()] += increment;
    }

    /// Merges another count block into this one.
    pub fn merge(&mut self, other: &PmuCounts) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
    }
}

/// Most events one [`ThreadPmu`] can sample at once — the analogue of a core's
/// programmable counters (eight per core on the Intel parts DJXPerf targets).
pub const MAX_SAMPLED_EVENTS: usize = 8;

/// A per-thread virtual PMU.
///
/// DJXPerf programs the PMU of every Java thread when JVMTI reports the thread start
/// (§4.1); this type is what that programming produces in the simulation. Up to
/// [`MAX_SAMPLED_EVENTS`] events are opened in sampling mode; [`ThreadPmu::observe`]
/// plays the role of the hardware counting retired memory operations, and returns the
/// samples whose counters overflowed on this access (the "signal handler" payload).
#[derive(Debug, Clone)]
pub struct ThreadPmu {
    thread_id: ThreadId,
    sampled: Vec<(PmuEvent, EventCounter)>,
    /// The samples the last observed access produced. Each counter overflows at most
    /// once per access, so the capacity reserved for one sample per programmed event
    /// is never exceeded and observing never allocates.
    fired: Vec<Sample>,
    counts: PmuCounts,
    enabled: bool,
}

impl ThreadPmu {
    /// Creates a PMU for `thread_id` with the given sampled events and periods. Jitter is
    /// applied when `jitter` is true (seeded by the thread id, so runs are reproducible).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SAMPLED_EVENTS`] events are programmed.
    pub fn new(thread_id: ThreadId, events: &[(PmuEvent, u64)], jitter: bool) -> Self {
        assert!(
            events.len() <= MAX_SAMPLED_EVENTS,
            "a PMU samples at most {MAX_SAMPLED_EVENTS} events, {} programmed",
            events.len()
        );
        let sampled = events
            .iter()
            .map(|(ev, period)| (*ev, EventCounter::with_jitter(*period, jitter, thread_id)))
            .collect();
        Self {
            thread_id,
            sampled,
            fired: Vec::with_capacity(events.len()),
            counts: PmuCounts::default(),
            enabled: true,
        }
    }

    /// The thread this PMU belongs to.
    pub fn thread_id(&self) -> ThreadId {
        self.thread_id
    }

    /// Whether the PMU currently counts and samples.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stops counting and sampling (the `ioctl(PERF_EVENT_IOC_DISABLE)` analogue, used on
    /// thread termination or profiler detach).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Resumes counting and sampling.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Events this PMU samples, with their periods.
    pub fn sampled_events(&self) -> impl Iterator<Item = (PmuEvent, u64)> + '_ {
        self.sampled.iter().map(|(ev, c)| (*ev, c.period()))
    }

    /// Counting-mode totals for every event (including events not programmed for
    /// sampling).
    pub fn counts(&self) -> &PmuCounts {
        &self.counts
    }

    /// Total number of samples emitted so far across all programmed events.
    pub fn samples_emitted(&self) -> u64 {
        self.sampled.iter().map(|(_, c)| c.overflows()).sum()
    }

    /// Observes one access outcome: advances counting-mode totals for every event and
    /// the sampling counters for the programmed events, returning a sample per counter
    /// that overflowed — at most one per programmed event. The samples live in a buffer
    /// the PMU reuses for every access, so observing never allocates.
    ///
    /// Returns no samples when the PMU is disabled.
    pub fn observe(&mut self, outcome: &AccessOutcome) -> &[Sample] {
        self.fired.clear();
        if !self.enabled {
            return &self.fired;
        }
        // Counting mode: track every known event so accuracy tests can compare the
        // sampled attribution against the full counts.
        for ev in PmuEvent::all() {
            self.counts.add(ev, ev.increment_for(outcome));
        }

        for (ev, counter) in &mut self.sampled {
            let inc = ev.increment_for(outcome);
            if inc > 0 && counter.add(inc) {
                self.fired.push(Sample::from_outcome(
                    *ev,
                    self.thread_id,
                    outcome,
                    counter.total(),
                ));
            }
        }
        &self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};

    fn run_strided(pmu: &mut ThreadPmu, accesses: u64) -> Vec<Sample> {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut out = Vec::new();
        for i in 0..accesses {
            let o = hier.access(MemoryAccess::load(0, 0x100_000 + i * 64, 8));
            out.extend(pmu.observe(&o));
        }
        out
    }

    #[test]
    fn samples_fire_at_the_programmed_period() {
        let mut pmu = ThreadPmu::new(9, &[(PmuEvent::L1Miss, 10)], false);
        let samples = run_strided(&mut pmu, 1000);
        // Every strided cold access is an L1 miss → ~100 samples.
        let l1_total = pmu.counts().count(PmuEvent::L1Miss);
        assert!(l1_total >= 900, "strided accesses should mostly miss, got {l1_total}");
        assert_eq!(samples.len() as u64, l1_total / 10);
        assert!(samples.iter().all(|s| s.thread_id == 9));
        assert!(samples.iter().all(|s| s.event == PmuEvent::L1Miss));
    }

    #[test]
    fn counting_mode_tracks_all_events() {
        let mut pmu = ThreadPmu::new(1, &[(PmuEvent::L1Miss, 1000)], false);
        run_strided(&mut pmu, 64);
        assert_eq!(pmu.counts().count(PmuEvent::Loads), 64);
        assert!(pmu.counts().count(PmuEvent::DtlbMiss) > 0);
        assert_eq!(pmu.counts().count(PmuEvent::Stores), 0);
    }

    #[test]
    fn disabled_pmu_is_silent() {
        let mut pmu = ThreadPmu::new(2, &[(PmuEvent::L1Miss, 1)], false);
        pmu.disable();
        assert!(!pmu.is_enabled());
        let samples = run_strided(&mut pmu, 100);
        assert!(samples.is_empty());
        assert_eq!(pmu.counts().count(PmuEvent::Loads), 0);
        pmu.enable();
        let samples = run_strided(&mut pmu, 100);
        assert!(!samples.is_empty());
    }

    #[test]
    fn multiple_events_sample_independently() {
        let mut pmu = ThreadPmu::new(3, &[(PmuEvent::Loads, 7), (PmuEvent::L1Miss, 13)], false);
        let samples = run_strided(&mut pmu, 200);
        let loads = samples.iter().filter(|s| s.event == PmuEvent::Loads).count() as u64;
        let misses = samples.iter().filter(|s| s.event == PmuEvent::L1Miss).count() as u64;
        assert_eq!(loads, pmu.counts().count(PmuEvent::Loads) / 7);
        assert_eq!(misses, pmu.counts().count(PmuEvent::L1Miss) / 13);
        assert_eq!(pmu.samples_emitted(), loads + misses);
    }

    #[test]
    #[should_panic(expected = "at most 8 events")]
    fn more_events_than_counters_rejected() {
        let events = [(PmuEvent::Loads, 1); MAX_SAMPLED_EVENTS + 1];
        let _ = ThreadPmu::new(5, &events, false);
    }

    #[test]
    fn sample_addresses_come_from_the_access_stream() {
        let mut pmu = ThreadPmu::new(4, &[(PmuEvent::Loads, 5)], false);
        let samples = run_strided(&mut pmu, 50);
        assert!(samples
            .iter()
            .all(|s| (0x100_000..0x100_000 + 50 * 64).contains(&s.effective_addr)));
    }

    #[test]
    fn pmu_counts_merge() {
        let mut a = PmuCounts::default();
        let mut b = PmuCounts::default();
        a.add(PmuEvent::Loads, 5);
        b.add(PmuEvent::Loads, 3);
        b.add(PmuEvent::Stores, 2);
        a.merge(&b);
        assert_eq!(a.count(PmuEvent::Loads), 8);
        assert_eq!(a.count(PmuEvent::Stores), 2);
        assert_eq!(a.iter().count(), 2);
    }
}
