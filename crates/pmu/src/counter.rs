//! A single virtual hardware counter with sampling-period overflow.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One virtual PMU counter programmed in sampling mode.
///
/// The counter accumulates event increments; every time the accumulated count reaches
/// the sampling period, it "overflows" — the hardware analogue of delivering an
/// interrupt — and re-arms itself. An optional period jitter re-randomizes the distance
/// to the next overflow within ±25 % of the nominal period, which avoids lock-step
/// resonance between the sampling period and periodic program behaviour (the same reason
/// profilers randomize perf periods).
///
/// A [`ThreadPmu`](crate::ThreadPmu) does not call [`EventCounter::add`] per access:
/// the owning thread counts down [`EventCounter::armed`] on its own, and the counter is
/// touched only when that countdown would reach zero — [`EventCounter::fold`] first
/// catches it up with the increments counted so far, then [`EventCounter::add`]
/// overflows it.
#[derive(Debug, Clone)]
pub struct EventCounter {
    period: u64,
    jitter: bool,
    rng: SmallRng,
    /// Total events counted since creation, up to the last fold or add.
    total: u64,
    /// Events remaining until the next overflow.
    until_overflow: u64,
    /// Number of overflows (samples) generated so far.
    overflows: u64,
}

impl EventCounter {
    /// Creates a counter with the given sampling period and no jitter.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> Self {
        Self::with_jitter(period, false, 0)
    }

    /// Creates a counter with optional period jitter; `seed` makes the jitter sequence
    /// deterministic per thread.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_jitter(period: u64, jitter: bool, seed: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        let mut counter = Self {
            period,
            jitter,
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            total: 0,
            until_overflow: period,
            overflows: 0,
        };
        counter.until_overflow = counter.next_period();
        counter
    }

    fn next_period(&mut self) -> u64 {
        if self.jitter {
            let quarter = (self.period / 4).max(1);
            let lo = self.period.saturating_sub(quarter).max(1);
            let hi = self.period + quarter;
            self.rng.gen_range(lo..=hi)
        } else {
            self.period
        }
    }

    /// Nominal sampling period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Total number of events counted, as of the last [`EventCounter::fold`] or
    /// [`EventCounter::add`].
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of overflows generated so far.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Events still to count before the next overflow.
    pub fn armed(&self) -> u64 {
        self.until_overflow
    }

    /// Catches the counter up with a countdown that started at [`EventCounter::armed`]
    /// and now stands at `remaining`: the events counted in between are added to the
    /// total, and `remaining` becomes the distance to the next overflow. Never
    /// overflows.
    ///
    /// # Panics
    ///
    /// Panics if `remaining` is zero or above [`EventCounter::armed`].
    pub fn fold(&mut self, remaining: u64) {
        assert!(
            (1..=self.until_overflow).contains(&remaining),
            "countdown {remaining} outside 1..={}",
            self.until_overflow
        );
        self.total += self.until_overflow - remaining;
        self.until_overflow = remaining;
    }

    /// Adds `increment` events to the counter. Returns `true` if the counter overflowed
    /// (at least once) as a consequence, in which case it has been re-armed.
    pub fn add(&mut self, increment: u64) -> bool {
        if increment == 0 {
            return false;
        }
        self.total += increment;
        let mut overflowed = false;
        let mut remaining = increment;
        while remaining >= self.until_overflow {
            remaining -= self.until_overflow;
            self.until_overflow = self.next_period();
            self.overflows += 1;
            overflowed = true;
        }
        self.until_overflow -= remaining;
        overflowed
    }

    /// Resets the counter to its freshly-armed state, clearing totals and overflows.
    pub fn reset(&mut self) {
        self.total = 0;
        self.overflows = 0;
        self.until_overflow = self.next_period();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflows_every_period_events() {
        let mut c = EventCounter::new(5);
        let mut samples = 0;
        for _ in 0..50 {
            if c.add(1) {
                samples += 1;
            }
        }
        assert_eq!(samples, 10);
        assert_eq!(c.total(), 50);
        assert_eq!(c.overflows(), 10);
    }

    #[test]
    fn zero_increment_never_overflows() {
        let mut c = EventCounter::new(1);
        assert!(!c.add(0));
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn large_increment_can_overflow_multiple_times() {
        let mut c = EventCounter::new(10);
        assert!(c.add(35));
        assert_eq!(c.overflows(), 3);
        // 5 events remain toward the next overflow; 5 more trigger it.
        assert!(c.add(5));
        assert_eq!(c.overflows(), 4);
    }

    #[test]
    fn period_one_samples_every_event() {
        let mut c = EventCounter::new(1);
        for _ in 0..7 {
            assert!(c.add(1));
        }
        assert_eq!(c.overflows(), 7);
    }

    #[test]
    fn reset_rearms_counter() {
        let mut c = EventCounter::new(4);
        c.add(3);
        c.reset();
        assert_eq!(c.total(), 0);
        assert!(!c.add(3));
        assert!(c.add(1));
    }

    #[test]
    fn jittered_counter_still_samples_roughly_at_rate() {
        let mut c = EventCounter::with_jitter(100, true, 42);
        for _ in 0..100_000 {
            c.add(1);
        }
        let samples = c.overflows();
        // 100k events at a nominal period of 100 → ~1000 samples, allow ±25 %.
        assert!((750..=1250).contains(&samples), "samples = {samples}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = EventCounter::with_jitter(10, true, seed);
            (0..1000).map(|_| c.add(1)).filter(|b| *b).count()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = EventCounter::new(0);
    }
}
