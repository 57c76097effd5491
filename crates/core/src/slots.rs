//! Per-thread slots reached without a hash or a lock.
//!
//! Every table the session keeps per profiled thread — the thread's PMU, the record's
//! open delta — is a [`ThreadSlots`]: one slot per thread, registered on first sight
//! and never moved or freed while the table lives.
//! The runtime issues dense thread ids (the simulated runtime counts from 1; JVMTI
//! threads map to Linux TIDs, which stay below 2²²), so the table indexes slots by the
//! id itself: finding a thread's slot is two acquire loads — the id's segment, then
//! its cell — with no hashing, no probing and no lock. Only registering a thread locks
//! and allocates.
//!
//! Segment `k` holds the cells of the `2^k` ids `2^k − 1 ..= 2^(k+1) − 2` and is
//! allocated when the first of them registers, so memory grows with the ids seen: a
//! run whose threads are numbered 1..=n allocates fewer than `2n` cells of two words
//! each, plus one boxed slot per registered thread. Ids above `2^24 − 2` have no cell.

use std::fmt;
use std::sync::OnceLock;

use djx_runtime::ThreadId;
use parking_lot::Mutex;

/// Number of segments; ids up to `2^SEGMENTS − 2` have a cell.
const SEGMENTS: usize = 24;

/// One cell: the slot of one thread id, once registered.
type Cell<T> = OnceLock<Box<T>>;

/// Per-thread slots indexed by [`ThreadId`] (see the [module documentation](self)).
pub(crate) struct ThreadSlots<T> {
    segments: [OnceLock<Box<[Cell<T>]>>; SEGMENTS],
    /// Registered threads in first-seen order. The lock also serializes registration.
    order: Mutex<Vec<ThreadId>>,
}

/// The segment and the cell within it that hold `thread`'s slot, or `None` for an id
/// beyond the table.
#[inline]
fn locate(thread: ThreadId) -> Option<(usize, usize)> {
    let n = thread.0.checked_add(1)?;
    let segment = n.ilog2() as usize;
    (segment < SEGMENTS).then(|| (segment, (n - (1 << segment)) as usize))
}

impl<T> Default for ThreadSlots<T> {
    fn default() -> Self {
        Self { segments: std::array::from_fn(|_| OnceLock::new()), order: Mutex::new(Vec::new()) }
    }
}

impl<T> ThreadSlots<T> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The thread's slot, if the thread is registered. Lock-free and hash-free.
    #[inline]
    pub(crate) fn get(&self, thread: ThreadId) -> Option<&T> {
        let (segment, cell) = locate(thread)?;
        self.segments[segment].get()?.get(cell)?.get().map(|slot| &**slot)
    }

    /// The thread's slot, registering it with `init` on first sight; the flag is `true`
    /// when this call registered the thread.
    #[inline]
    pub(crate) fn get_or_register(&self, thread: ThreadId, init: impl FnOnce() -> T) -> (&T, bool) {
        match self.get(thread) {
            Some(slot) => (slot, false),
            None => self.register(thread, init),
        }
    }

    /// Registers `thread` unless a racing caller got there first: the only step that
    /// locks or allocates.
    ///
    /// # Panics
    ///
    /// Panics if the id is beyond the table (above `2^24 − 2`).
    #[cold]
    fn register(&self, thread: ThreadId, init: impl FnOnce() -> T) -> (&T, bool) {
        let (segment, cell) = locate(thread).unwrap_or_else(|| {
            panic!("{thread} is beyond the per-thread slot table (ids up to 2^{SEGMENTS} - 2)")
        });
        let mut order = self.order.lock();
        let cells = self.segments[segment]
            .get_or_init(|| (0..1usize << segment).map(|_| OnceLock::new()).collect());
        let mut registered = false;
        let slot = cells[cell].get_or_init(|| {
            registered = true;
            Box::new(init())
        });
        if registered {
            order.push(thread);
        }
        (slot, registered)
    }

    /// Number of registered threads.
    pub(crate) fn len(&self) -> usize {
        self.order.lock().len()
    }

    /// The registered threads' slots in first-seen order. Threads registering while
    /// the iterator runs may be left out.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ThreadId, &T)> {
        let threads = self.order.lock().clone();
        threads
            .into_iter()
            .filter_map(|thread| self.get(thread).map(|slot| (thread, slot)))
    }

    /// Resident bytes of the table and its slots' inline state (heap state a slot owns
    /// is its owner's to count).
    pub(crate) fn approx_bytes(&self) -> usize {
        let cells: usize = self.segments.iter().filter_map(OnceLock::get).map(|s| s.len()).sum();
        cells * std::mem::size_of::<Cell<T>>() + self.len() * std::mem::size_of::<T>()
    }
}

impl<T: fmt::Debug> fmt::Debug for ThreadSlots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ids_map_to_distinct_cells_segment_by_segment() {
        assert_eq!(locate(ThreadId(0)), Some((0, 0)));
        assert_eq!(locate(ThreadId(1)), Some((1, 0)));
        assert_eq!(locate(ThreadId(2)), Some((1, 1)));
        assert_eq!(locate(ThreadId(3)), Some((2, 0)));
        assert_eq!(locate(ThreadId(6)), Some((2, 3)));
        assert_eq!(locate(ThreadId(7)), Some((3, 0)));
        assert_eq!(locate(ThreadId((1 << SEGMENTS) - 2)), Some((SEGMENTS - 1, (1 << 23) - 1)));
        assert_eq!(locate(ThreadId((1 << SEGMENTS) - 1)), None);
        assert_eq!(locate(ThreadId(u64::MAX)), None);
    }

    #[test]
    fn registration_happens_once_and_keeps_first_seen_order() {
        let slots = ThreadSlots::new();
        assert!(slots.get(ThreadId(5)).is_none());
        assert_eq!(slots.get_or_register(ThreadId(5), || 50), (&50, true));
        assert_eq!(slots.get_or_register(ThreadId(5), || 99), (&50, false));
        assert_eq!(slots.get_or_register(ThreadId(1), || 10), (&10, true));
        assert_eq!(slots.get_or_register(ThreadId(0), || 0), (&0, true));
        assert_eq!(slots.get(ThreadId(1)), Some(&10));
        assert!(slots.get(ThreadId(2)).is_none(), "a neighbouring cell stays empty");
        assert_eq!(slots.len(), 3);
        let seen: Vec<_> = slots.iter().map(|(t, v)| (t.0, *v)).collect();
        assert_eq!(seen, vec![(5, 50), (1, 10), (0, 0)]);
    }

    #[test]
    fn memory_grows_with_the_ids_seen() {
        let slots: ThreadSlots<u64> = ThreadSlots::new();
        assert_eq!(slots.approx_bytes(), 0, "an empty table allocates nothing");
        for id in 1..=4 {
            slots.get_or_register(ThreadId(id), || id);
        }
        // Ids 1..=4 live in segments 1 and 2: six cells.
        let per_cell = std::mem::size_of::<Cell<u64>>();
        assert_eq!(slots.approx_bytes(), 6 * per_cell + 4 * std::mem::size_of::<u64>());
    }

    #[test]
    #[should_panic(expected = "beyond the per-thread slot table")]
    fn ids_beyond_the_table_are_rejected() {
        ThreadSlots::new().get_or_register(ThreadId(u64::MAX), || ());
    }

    #[test]
    fn racing_registrations_agree_on_one_slot() {
        let slots = Arc::new(ThreadSlots::new());
        let registered: usize = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|i| {
                    let slots = Arc::clone(&slots);
                    scope.spawn(move || {
                        (0..64u64).filter(|id| slots.get_or_register(ThreadId(*id), || i).1).count()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(registered, 64, "each id registers exactly once");
        assert_eq!(slots.len(), 64);
        let mut ids: Vec<u64> = slots.iter().map(|(t, _)| t.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }
}
