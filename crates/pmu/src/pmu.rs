//! The per-thread virtual PMU: a set of programmed counters observing a thread's
//! memory-access outcomes and emitting precise samples on overflow.
//!
//! # A countdown in the thread, an interrupt on overflow
//!
//! Real PMUs count in hardware; the profiler's software runs only when a counter
//! overflows. [`ThreadPmu`] is split the same way:
//!
//! * the **countdown** — per programmed counter, the events remaining until its next
//!   overflow, in an atomic word the owning thread advances with a relaxed `load` and
//!   `store`: no lock, no read-modify-write, and an access whose events do not occur
//!   touches nothing but that load;
//! * the **overflow part** — each counter's [`EventCounter`] (period, jitter RNG,
//!   totals, overflow count), the sample buffer and the enable flag, behind a lock
//!   taken only when a countdown would reach zero, on enable/disable, and by readers.
//!
//! When a countdown would reach zero, the overflow part first folds the increments the
//! countdown counted since it was armed into the counter ([`EventCounter::fold`]), then
//! adds the overflowing access ([`EventCounter::add`]) and re-arms the countdown from
//! the counter. Every sample therefore carries the event, `counter_value` and overflow
//! point a counter walked on every access would give it, and the jitter periods are
//! drawn in the same order.
//!
//! # One driver per thread at a time
//!
//! The countdown has a single writer: one logical thread's accesses must be observed by
//! one OS thread at a time, as JVMTI (a thread's callbacks run on that thread) and
//! `djx_runtime` (every logical thread is driven by the runtime's caller) guarantee. A
//! caller that breaks the contract loses increments — two racing drivers can store the
//! same decremented value — but never corrupts memory or samples: overflows stay
//! serialized by the lock, and every countdown word carries the generation of the arm
//! it counts down from, so a stale store from before a re-arm is recognized at the next
//! overflow and discarded instead of shortening the new countdown. Every overflow is
//! thus backed by a full armed distance of events observed since the arm it fires
//! from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use djx_memsim::AccessOutcome;

use crate::counter::EventCounter;
use crate::event::PmuEvent;
use crate::sample::Sample;
use crate::ThreadId;

/// Most events one [`ThreadPmu`] can sample at once — the analogue of a core's
/// programmable counters (eight per core on the Intel parts DJXPerf targets).
pub const MAX_SAMPLED_EVENTS: usize = 8;

/// Low bits of a countdown word: the events remaining until the counter overflows.
const REMAINING_BITS: u32 = 40;
const REMAINING_MASK: u64 = (1 << REMAINING_BITS) - 1;
/// High bits: the generation of the arm the countdown started from (wrapping).
const GENERATION_MASK: u64 = u64::MAX >> REMAINING_BITS;
/// Largest programmable period: jitter stretches an arm to 1.25× the period, which
/// must still fit the remaining-events bits of a countdown word.
const MAX_PERIOD: u64 = 1 << 38;

/// A counter's lock-protected state: the counter itself, and the generation its
/// countdown word was last armed with.
#[derive(Debug)]
struct Armed {
    counter: EventCounter,
    generation: u64,
}

impl Armed {
    /// The countdown word for `remaining` events under the current generation.
    fn word(&self, remaining: u64) -> u64 {
        self.generation << REMAINING_BITS | remaining
    }

    /// Starts a new generation: countdown stores from before it are stale.
    fn next_generation(&mut self) {
        self.generation = (self.generation + 1) & GENERATION_MASK;
    }

    /// The events a countdown word has left to count, when the word counts down from
    /// the current arm; `None` for a parked word, or a stale one a racing driver
    /// stored from before the arm.
    fn remaining(&self, word: u64) -> Option<u64> {
        let remaining = word & REMAINING_MASK;
        (word >> REMAINING_BITS == self.generation
            && (1..=self.counter.armed()).contains(&remaining))
        .then_some(remaining)
    }

    /// The counter caught up with a countdown word: the folded total plus the events
    /// counted since the arm (none when the word is stale or parked).
    fn synced(&self, word: u64) -> EventCounter {
        let mut counter = self.counter.clone();
        if let Some(remaining) = self.remaining(word) {
            counter.fold(remaining);
        }
        counter
    }
}

/// The part of a [`ThreadPmu`] behind its lock.
#[derive(Debug)]
struct Overflow {
    /// Parallel to [`ThreadPmu::programmed`].
    counters: Vec<Armed>,
    /// The samples the last overflow produced. Each counter overflows at most once per
    /// access, so the capacity reserved for one sample per programmed event is never
    /// exceeded and overflowing never allocates.
    fired: Vec<Sample>,
    enabled: bool,
}

/// A per-thread virtual PMU.
///
/// DJXPerf programs the PMU of every Java thread when JVMTI reports the thread start
/// (§4.1); this type is what that programming produces in the simulation. Up to
/// [`MAX_SAMPLED_EVENTS`] events are opened in sampling mode; [`ThreadPmu::observe`]
/// plays the role of the hardware counting retired memory operations, and hands the
/// samples whose counters overflowed on an access to a callback (the "signal handler"
/// payload). Observing takes `&self`: the countdown is lock-free and the overflow part
/// locks itself (see the [module documentation](self), which also states the
/// one-driver-per-thread contract).
#[derive(Debug)]
pub struct ThreadPmu {
    thread_id: ThreadId,
    /// Programmed events with their periods; the first `len` entries are live.
    programmed: [(PmuEvent, u64); MAX_SAMPLED_EVENTS],
    len: usize,
    /// Per programmed counter: arm generation and events remaining until overflow.
    countdowns: [AtomicU64; MAX_SAMPLED_EVENTS],
    overflow: Mutex<Overflow>,
}

impl ThreadPmu {
    /// Creates a PMU for `thread_id` with the given sampled events and periods. Jitter is
    /// applied when `jitter` is true (seeded by the thread id, so runs are reproducible).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SAMPLED_EVENTS`] events are programmed, or if a period
    /// is zero or above 2³⁸.
    pub fn new(thread_id: ThreadId, events: &[(PmuEvent, u64)], jitter: bool) -> Self {
        assert!(
            events.len() <= MAX_SAMPLED_EVENTS,
            "a PMU samples at most {MAX_SAMPLED_EVENTS} events, {} programmed",
            events.len()
        );
        let mut programmed = [(PmuEvent::DEFAULT, 0); MAX_SAMPLED_EVENTS];
        programmed[..events.len()].copy_from_slice(events);
        let counters: Vec<Armed> = events
            .iter()
            .map(|&(_, period)| {
                assert!(period <= MAX_PERIOD, "sampling period {period} exceeds 2^38");
                Armed {
                    counter: EventCounter::with_jitter(period, jitter, thread_id),
                    generation: 0,
                }
            })
            .collect();
        let countdowns = std::array::from_fn(|i| {
            AtomicU64::new(counters.get(i).map_or(0, |c| c.word(c.counter.armed())))
        });
        Self {
            thread_id,
            programmed,
            len: events.len(),
            countdowns,
            overflow: Mutex::new(Overflow {
                counters,
                fired: Vec::with_capacity(events.len()),
                enabled: true,
            }),
        }
    }

    /// The overflow part. A panic inside an overflow callback leaves the state
    /// consistent (samples are pushed only after their counter re-armed), so a
    /// poisoned lock is simply taken over.
    fn lock(&self) -> MutexGuard<'_, Overflow> {
        self.overflow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The thread this PMU belongs to.
    pub fn thread_id(&self) -> ThreadId {
        self.thread_id
    }

    /// Whether the PMU currently counts and samples.
    pub fn is_enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Stops counting and sampling (the `ioctl(PERF_EVENT_IOC_DISABLE)` analogue, used on
    /// thread termination or profiler detach). The events counted so far are folded
    /// into the counters and every countdown is parked at zero, so the next event
    /// reaches the overflow part, which ignores it until [`ThreadPmu::enable`].
    pub fn disable(&self) {
        let mut overflow = self.lock();
        if !overflow.enabled {
            return;
        }
        overflow.enabled = false;
        for (armed, countdown) in overflow.counters.iter_mut().zip(&self.countdowns) {
            armed.counter = armed.synced(countdown.load(Ordering::Relaxed));
            armed.next_generation();
            countdown.store(armed.word(0), Ordering::Relaxed);
        }
    }

    /// Resumes counting and sampling where [`ThreadPmu::disable`] left each counter.
    pub fn enable(&self) {
        let mut overflow = self.lock();
        if overflow.enabled {
            return;
        }
        overflow.enabled = true;
        for (armed, countdown) in overflow.counters.iter_mut().zip(&self.countdowns) {
            armed.next_generation();
            countdown.store(armed.word(armed.counter.armed()), Ordering::Relaxed);
        }
    }

    /// Events this PMU samples, with their periods.
    pub fn sampled_events(&self) -> impl Iterator<Item = (PmuEvent, u64)> + '_ {
        self.programmed[..self.len].iter().copied()
    }

    /// Each programmed counter, in programming order, caught up with the events its
    /// countdown counted so far — [`EventCounter::total`] is the event's exact count.
    pub fn counters(&self) -> Vec<(PmuEvent, EventCounter)> {
        let overflow = self.lock();
        overflow
            .counters
            .iter()
            .zip(&self.programmed)
            .zip(&self.countdowns)
            .map(|((armed, (event, _)), countdown)| {
                (*event, armed.synced(countdown.load(Ordering::Relaxed)))
            })
            .collect()
    }

    /// Total number of samples emitted so far across all programmed events.
    pub fn samples_emitted(&self) -> u64 {
        self.lock().counters.iter().map(|armed| armed.counter.overflows()).sum()
    }

    /// Observes one access outcome: advances the countdown of every programmed event
    /// the access incremented, and when one would reach zero, runs the overflow part,
    /// which calls `on_overflow` — under the PMU's lock — with a sample per counter that
    /// overflowed (at most one per programmed event). The samples live in a buffer the
    /// PMU reuses, so observing never allocates. `on_overflow` must not call back into
    /// this PMU.
    ///
    /// A disabled PMU counts nothing and never calls `on_overflow`.
    #[inline]
    pub fn observe(&self, outcome: &AccessOutcome, on_overflow: impl FnOnce(&[Sample])) {
        let mut pending = 0u32;
        for (i, ((event, _), countdown)) in
            self.programmed[..self.len].iter().zip(&self.countdowns).enumerate()
        {
            let increment = event.increment_for(outcome);
            if increment == 0 {
                continue;
            }
            let word = countdown.load(Ordering::Relaxed);
            if increment < word & REMAINING_MASK {
                countdown.store(word - increment, Ordering::Relaxed);
            } else {
                pending |= 1 << i;
            }
        }
        if pending != 0 {
            self.overflow(outcome, pending, on_overflow);
        }
    }

    /// The overflow part of [`ThreadPmu::observe`] for the counters in `pending` (a bit
    /// per programmed counter whose countdown would reach zero). Each one is re-checked
    /// under the lock: a driver racing in breach of the one-driver contract may have
    /// moved its countdown since.
    #[cold]
    #[inline(never)]
    fn overflow(
        &self,
        outcome: &AccessOutcome,
        mut pending: u32,
        on_overflow: impl FnOnce(&[Sample]),
    ) {
        let mut guard = self.lock();
        let Overflow { counters, fired, enabled } = &mut *guard;
        fired.clear();
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let (event, _) = self.programmed[i];
            let (armed, countdown) = (&mut counters[i], &self.countdowns[i]);
            if !*enabled {
                // Re-park, in case a racing driver's store un-parked the countdown.
                countdown.store(armed.word(0), Ordering::Relaxed);
                continue;
            }
            let word = countdown.load(Ordering::Relaxed);
            let Some(remaining) = armed.remaining(word) else {
                // A store from before the last arm: the events it counted are lost.
                countdown.store(armed.word(armed.counter.armed()), Ordering::Relaxed);
                continue;
            };
            let increment = event.increment_for(outcome);
            if increment < remaining {
                countdown.store(word - increment, Ordering::Relaxed);
                continue;
            }
            armed.counter.fold(remaining);
            armed.counter.add(increment);
            armed.next_generation();
            countdown.store(armed.word(armed.counter.armed()), Ordering::Relaxed);
            fired.push(Sample::from_outcome(event, self.thread_id, outcome, armed.counter.total()));
        }
        if !fired.is_empty() {
            on_overflow(fired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};

    fn run_strided(pmu: &ThreadPmu, accesses: u64) -> Vec<Sample> {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut out = Vec::new();
        for i in 0..accesses {
            let o = hier.access(MemoryAccess::load(0, 0x100_000 + i * 64, 8));
            pmu.observe(&o, |fired| out.extend_from_slice(fired));
        }
        out
    }

    /// The exact count of `event` on `pmu`'s programmed counter.
    fn total(pmu: &ThreadPmu, event: PmuEvent) -> u64 {
        let counters = pmu.counters();
        let (_, counter) = counters.iter().find(|(ev, _)| *ev == event).expect("programmed");
        counter.total()
    }

    #[test]
    fn samples_fire_at_the_programmed_period() {
        let pmu = ThreadPmu::new(9, &[(PmuEvent::L1Miss, 10)], false);
        let samples = run_strided(&pmu, 1000);
        // Every strided cold access is an L1 miss → ~100 samples.
        let l1_total = total(&pmu, PmuEvent::L1Miss);
        assert!(l1_total >= 900, "strided accesses should mostly miss, got {l1_total}");
        assert_eq!(samples.len() as u64, l1_total / 10);
        assert!(samples.iter().all(|s| s.thread_id == 9));
        assert!(samples.iter().all(|s| s.event == PmuEvent::L1Miss));
    }

    #[test]
    fn disabled_pmu_is_silent() {
        let pmu = ThreadPmu::new(2, &[(PmuEvent::L1Miss, 1)], false);
        pmu.disable();
        assert!(!pmu.is_enabled());
        let samples = run_strided(&pmu, 100);
        assert!(samples.is_empty());
        assert_eq!(total(&pmu, PmuEvent::L1Miss), 0, "a disabled PMU counts nothing");
        pmu.enable();
        let samples = run_strided(&pmu, 100);
        assert!(!samples.is_empty());
    }

    #[test]
    fn multiple_events_sample_independently() {
        let pmu = ThreadPmu::new(3, &[(PmuEvent::Loads, 7), (PmuEvent::L1Miss, 13)], false);
        let samples = run_strided(&pmu, 200);
        let loads = samples.iter().filter(|s| s.event == PmuEvent::Loads).count() as u64;
        let misses = samples.iter().filter(|s| s.event == PmuEvent::L1Miss).count() as u64;
        assert_eq!(total(&pmu, PmuEvent::Loads), 200, "every strided access is a load");
        assert_eq!(loads, total(&pmu, PmuEvent::Loads) / 7);
        assert_eq!(misses, total(&pmu, PmuEvent::L1Miss) / 13);
        assert_eq!(pmu.samples_emitted(), loads + misses);
    }

    #[test]
    #[should_panic(expected = "at most 8 events")]
    fn more_events_than_counters_rejected() {
        let events = [(PmuEvent::Loads, 1); MAX_SAMPLED_EVENTS + 1];
        let _ = ThreadPmu::new(5, &events, false);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^38")]
    fn periods_beyond_the_countdown_width_rejected() {
        let _ = ThreadPmu::new(5, &[(PmuEvent::Loads, MAX_PERIOD + 1)], false);
    }

    #[test]
    fn sample_addresses_come_from_the_access_stream() {
        let pmu = ThreadPmu::new(4, &[(PmuEvent::Loads, 5)], false);
        let samples = run_strided(&pmu, 50);
        assert!(samples
            .iter()
            .all(|s| (0x100_000..0x100_000 + 50 * 64).contains(&s.effective_addr)));
    }

    #[test]
    fn counters_fold_the_countdown_without_perturbing_it() {
        let pmu = ThreadPmu::new(6, &[(PmuEvent::Loads, 16)], true);
        let before = run_strided(&pmu, 500);
        // Reading totals mid-run is side-effect free: the run continues exactly as an
        // unread PMU's would.
        assert_eq!(total(&pmu, PmuEvent::Loads), 500);
        let after = run_strided(&pmu, 500);
        let unread = ThreadPmu::new(6, &[(PmuEvent::Loads, 16)], true);
        let mut expected = run_strided(&unread, 500);
        expected.extend(run_strided(&unread, 500));
        assert_eq!([before, after].concat(), expected);
        assert_eq!(total(&pmu, PmuEvent::Loads), 1000);
    }

    #[test]
    fn racing_drivers_lose_increments_but_never_overcount() {
        // Two OS threads breaking the one-driver contract on the same PMU: samples
        // stay bounded by the events observed, and every sample is well-formed.
        let pmu = ThreadPmu::new(8, &[(PmuEvent::Loads, 4)], false);
        let accesses_per_driver = 20_000u64;
        let start = std::sync::Barrier::new(2);
        let samples: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let drivers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        run_strided(&pmu, accesses_per_driver)
                    })
                })
                .collect();
            drivers.into_iter().map(|d| d.join().unwrap()).collect()
        });
        let fired = samples.iter().map(Vec::len).sum::<usize>() as u64;
        assert!(fired > 0);
        assert!(fired <= 2 * accesses_per_driver / 4, "{fired} samples from 40k loads");
        assert_eq!(pmu.samples_emitted(), fired);
        assert!(samples.iter().flatten().all(|s| s.thread_id == 8 && s.event == PmuEvent::Loads));
        assert!(total(&pmu, PmuEvent::Loads) <= 2 * accesses_per_driver);
    }
}
