//! Signal-handler-safe synchronization for the sample-ingestion hot path.
//!
//! DJXPerf resolves and attributes samples inside the PMU overflow **signal handler**
//! (§4.1/§5.1 of the paper); a signal handler cannot block on a futex-backed mutex
//! (the interrupted thread might hold it — instant self-deadlock), which is why the
//! original tool guards the shared splay tree with a *spin lock*. [`SpinLock`] is that
//! primitive: a pure test-and-set spin lock with no parking fallback.
//!
//! A pure spin lock is only a sane choice when contention is designed away — a
//! preempted lock holder on an oversubscribed machine makes every spinner burn its
//! timeslice. That is exactly the contract of the sharded ingestion pipeline (see
//! [`crate::session`]): every hot-path lock (an index shard, a per-thread state
//! slot) is private to one thread in the common case, so the spin fast path is one
//! uncontended swap — cheaper than a mutex — and the pathological spin case is
//! reserved for genuine cross-thread collisions (a shard two threads sample into, a
//! slot a snapshot is retiring), which the sharding makes rare and short.
//!
//! Cold paths that run in normal thread context (the allocation agent's bookkeeping,
//! the site registry) keep using blocking mutexes; use [`SpinLock`] only where the
//! signal-handler constraint applies and the access pattern is contention-free by
//! construction.
//!
//! # Epochs: lock-free staleness detection
//!
//! [`Epoch`] is the second hot-path primitive: a monotonically increasing generation
//! counter that a writer bumps (while holding whatever lock protects the guarded
//! structure) on every mutation, and that readers sample *without* any lock. A reader
//! that recorded the epoch at publication time can later validate a cached derivative
//! of the structure with one atomic load: if the epoch still matches, no mutation
//! completed in between, so the cached value is current; if it moved, the cache entry
//! is stale by construction and the reader falls back to the locked path.
//!
//! Two subsystems are built on this:
//!
//! * the per-shard epochs of [`SharedObjectIndex`](crate::agent::SharedObjectIndex),
//!   which make the per-thread object-resolution caches safe across GC relocation —
//!   a cache hit is one `Acquire` load, no shard lock, no splay;
//! * the snapshot retirement of the per-thread collector state in [`crate::session`],
//!   where each snapshot advances an epoch and moves the accumulated state of the
//!   closing epoch into a retired buffer that is cloned *outside* every sampling lock.
//!
//! Bumps use `Release` and validations `Acquire`, so any reader that has a
//! happens-before edge from a mutation's completion (a lock release, a published
//! generation, a thread join) is guaranteed to observe the bump and miss its stale
//! cache entry. A reader racing the mutation itself may still use the value published
//! *before* the mutation — indistinguishable from having resolved an instant earlier,
//! which is the same linearization any locked lookup would give it.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A monotonically increasing generation counter for lock-free staleness checks. See
/// the [module documentation](self) for the protocol.
#[derive(Debug, Default)]
pub struct Epoch(AtomicU64);

impl Epoch {
    /// Creates an epoch counter at generation zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Advances the epoch, invalidating every value cached under the previous
    /// generation. Call with the guarded structure's lock held, *before* mutating, so
    /// the bump is in the counter's modification order by the time the mutation starts.
    /// Returns the new generation.
    #[inline]
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Release) + 1
    }

    /// The current generation, for recording next to a value derived from the guarded
    /// structure. Call with the structure's lock held so the generation is stable.
    #[inline]
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Lock-free validation: `true` when `recorded` is still the current generation,
    /// i.e. no mutation completed since the value was cached. `Acquire` pairs with the
    /// `Release` bump.
    #[inline]
    pub fn validate(&self, recorded: u64) -> bool {
        self.0.load(Ordering::Acquire) == recorded
    }
}

/// A test-and-set spin lock. See the [module documentation](self) for when (not) to
/// use it.
#[derive(Default)]
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides the exclusion `UnsafeCell` needs; `T: Send` is required
// because the value moves between threads, exactly as for `std::sync::Mutex`.
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates a spin lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self { locked: AtomicBool::new(false), value: UnsafeCell::new(value) }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, spinning until it is available.
    #[inline]
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        // Fast path: one uncontended swap.
        while self.locked.swap(true, Ordering::Acquire) {
            // Contended: spin read-only (no cache-line invalidation storm) until the
            // lock looks free, then retry the swap.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        SpinLockGuard { lock: self }
    }

    /// Acquires the lock like [`SpinLock::lock`], but yields the timeslice after a
    /// bounded spin when the lock stays contended.
    ///
    /// For **normal thread context** callers (snapshot readers, the export drainer)
    /// contending with a sampling thread that may have been *preempted inside* the
    /// lock: on an oversubscribed machine a pure spin burns exactly the timeslice the
    /// preempted holder needs to finish, while yielding hands it the CPU immediately.
    /// The sampling hot path must keep using [`SpinLock::lock`] — its uncontended
    /// fast path is identical, and a signal handler has nothing useful to yield to.
    #[inline]
    pub fn lock_yielding(&self) -> SpinLockGuard<'_, T> {
        while self.locked.swap(true, Ordering::Acquire) {
            let mut spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                if spins < 128 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    spins = 0;
                    std::thread::yield_now();
                }
            }
        }
        SpinLockGuard { lock: self }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self.locked.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(SpinLockGuard { lock: self })
        }
    }

    /// Mutable access without locking (the borrow checker guarantees exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLock<T> {
    /// Never spins: shows `<locked>` when the lock is held elsewhere.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("SpinLock").field("data", &&*guard).finish(),
            None => f.debug_struct("SpinLock").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`SpinLock::lock`].
pub struct SpinLockGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T: ?Sized> Deref for SpinLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves the lock is held exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for SpinLockGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLockGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let lock = SpinLock::new(1u32);
        *lock.lock() += 41;
        assert_eq!(*lock.lock(), 42);
        assert_eq!(lock.into_inner(), 42);
    }

    #[test]
    fn try_lock_reports_contention() {
        let lock = SpinLock::new(0u8);
        let guard = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(guard);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = SpinLock::new(5u64);
        *lock.get_mut() = 7;
        assert_eq!(*lock.lock(), 7);
    }

    #[test]
    fn debug_formats_without_spinning() {
        let lock = SpinLock::new(3u8);
        assert!(format!("{lock:?}").contains('3'));
        let guard = lock.lock();
        assert!(format!("{lock:?}").contains("<locked>"));
        drop(guard);
    }

    #[test]
    fn epoch_bump_invalidates_recorded_generations() {
        let epoch = Epoch::new();
        let recorded = epoch.current();
        assert!(epoch.validate(recorded));
        assert_eq!(epoch.bump(), recorded + 1);
        assert!(!epoch.validate(recorded), "a bump invalidates earlier generations");
        assert!(epoch.validate(epoch.current()));
    }

    #[test]
    fn epoch_is_monotonic_under_threads() {
        let epoch = Arc::new(Epoch::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let next = epoch.bump();
                        assert!(next > last, "bumps must strictly increase");
                        last = next;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(epoch.current(), 40_000);
    }

    #[test]
    fn exclusion_under_threads() {
        let lock = Arc::new(SpinLock::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.lock(), 40_000);
    }
}
