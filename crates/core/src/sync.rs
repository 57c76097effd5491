//! Signal-handler-safe synchronization for the sample-ingestion hot path.
//!
//! DJXPerf resolves and attributes samples inside the PMU overflow **signal handler**
//! (§4.1/§5.1 of the paper); a signal handler cannot block on a futex-backed mutex
//! (the interrupted thread might hold it — instant self-deadlock), which is why the
//! original tool guards its shared splay tree with a *spin lock*. [`SpinLock`] is that
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
//! Every acquisition is `Acquire` and every guard drop `Release`, so a holder sees
//! everything the previous holder wrote before it dropped its guard.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

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
