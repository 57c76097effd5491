//! A `perf_event_open`-style configuration facade.
//!
//! DJXPerf programs PMUs through the Linux `perf_event_open(2)` system call and its
//! `ioctl`s. This module mirrors that interface shape (an attribute builder that is
//! "opened" for a thread) so the profiler code in `djxperf` reads like the original
//! JVMTI agent.

use crate::event::PmuEvent;
use crate::pmu::ThreadPmu;
use crate::ThreadId;

/// Default sampling period used by the paper's evaluation (5M events).
pub const DEFAULT_SAMPLE_PERIOD: u64 = 5_000_000;

/// Builder mirroring a `perf_event_attr`: which precise event to program, the sampling
/// period, and whether the period is jittered.
///
/// # Example
///
/// ```
/// use djx_pmu::{PerfEventBuilder, PmuEvent};
///
/// let pmu = PerfEventBuilder::new(PmuEvent::L1Miss)
///     .sample_period(4096)
///     .jitter(true)
///     .open_for_thread(1);
/// assert_eq!(pmu.sampled_events().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PerfEventBuilder {
    events: Vec<(PmuEvent, u64)>,
    period: u64,
    jitter: bool,
}

impl PerfEventBuilder {
    /// Starts a builder programming `event` at the default sampling period.
    pub fn new(event: PmuEvent) -> Self {
        Self {
            events: vec![(event, DEFAULT_SAMPLE_PERIOD)],
            period: DEFAULT_SAMPLE_PERIOD,
            jitter: false,
        }
    }

    /// Sets the sampling period (events per sample) for every event programmed so far
    /// and for events added later.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn sample_period(mut self, period: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        self.period = period;
        for (_, p) in &mut self.events {
            *p = period;
        }
        self
    }

    /// Adds an additional event, sampled at the current period.
    pub fn add_event(mut self, event: PmuEvent) -> Self {
        self.events.push((event, self.period));
        self
    }

    /// Adds an additional event with its own period.
    pub fn add_event_with_period(mut self, event: PmuEvent, period: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        self.events.push((event, period));
        self
    }

    /// Enables or disables period jitter (randomized re-arm within ±25 % of the period).
    pub fn jitter(mut self, jitter: bool) -> Self {
        self.jitter = jitter;
        self
    }

    /// Events currently programmed, with their periods.
    pub fn events(&self) -> &[(PmuEvent, u64)] {
        &self.events
    }

    /// "Opens" the configured events for a thread, returning its virtual PMU. The
    /// analogue of calling `perf_event_open` with this attribute for a specific TID and
    /// enabling the fd.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SAMPLED_EVENTS`](crate::MAX_SAMPLED_EVENTS) events are
    /// programmed.
    pub fn open_for_thread(&self, thread_id: ThreadId) -> ThreadPmu {
        ThreadPmu::new(thread_id, &self.events, self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_period_matches_paper_evaluation() {
        let b = PerfEventBuilder::new(PmuEvent::L1Miss);
        assert_eq!(b.events(), &[(PmuEvent::L1Miss, DEFAULT_SAMPLE_PERIOD)]);
    }

    #[test]
    fn sample_period_applies_to_existing_events() {
        let b = PerfEventBuilder::new(PmuEvent::L1Miss).sample_period(1000);
        assert_eq!(b.events(), &[(PmuEvent::L1Miss, 1000)]);
    }

    #[test]
    fn added_events_inherit_current_period() {
        let b = PerfEventBuilder::new(PmuEvent::L1Miss)
            .sample_period(500)
            .add_event(PmuEvent::DtlbMiss)
            .add_event_with_period(PmuEvent::RemoteDram, 9);
        assert_eq!(
            b.events(),
            &[(PmuEvent::L1Miss, 500), (PmuEvent::DtlbMiss, 500), (PmuEvent::RemoteDram, 9)]
        );
    }

    #[test]
    fn open_binds_thread_id() {
        let pmu = PerfEventBuilder::new(PmuEvent::L1Miss).open_for_thread(77);
        assert_eq!(pmu.thread_id(), 77);
        assert!(pmu.is_enabled());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = PerfEventBuilder::new(PmuEvent::L1Miss).sample_period(0);
    }
}
