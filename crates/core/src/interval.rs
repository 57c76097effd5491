//! A flat, sorted interval index over `[start, end)` address ranges.
//!
//! DJXPerf keeps the memory ranges of all monitored Java objects in a splay tree
//! (§4.2): every PMU sample's effective address is looked up to find the enclosing
//! object, and the structure is updated when the garbage collector moves or reclaims
//! objects. The paper picks a splay tree for the temporal locality of PMU samples: the
//! most recently touched objects bubble up to the root.
//!
//! This reproduction does not use a splay tree. On the `miss-dense` perfbench workload
//! (site-fanout, period 8), samples spread over thousands of objects, so the locality
//! a splay tree exploits is thin: each splay-tree lookup ran 8.4 top-down splay
//! steps — each a rotation, a write to the shared tree — for 527 ns of resolution per
//! sample. (Those lookups were the misses of a per-thread resolution cache, since
//! deleted, that served 0.41 of the samples.) An [`IntervalIndex`] instead holds a shard's intervals in two parallel
//! arrays sorted by start address and answers a lookup with one read-only binary
//! search. A garbage collection reaches it as one [`IntervalIndex::rebuild`] per shard
//! rather than a remove and an insert per moved object; per-move updates are what
//! made an earlier B-tree index lose ~3x at GC end. Traced `miss-dense` runs on a
//! 2-vCPU machine measured, splay tree → sorted arrays: `session.per_sample_ns`
//! 1,032–1,098 → 811–834, `session.gc_end.ns` 410–441 µs → 315–325 µs (now including
//! the collection's reclaims), and `session.footprint_bytes` 656,704–672,161 →
//! 560,024–565,841 (64 bytes per splay node against 40 per array slot).
//!
//! The index stores *disjoint* intervals; the heap guarantees objects never overlap.
//! Lookups are by point containment (`start <= addr < end`).

use std::cell::Cell;

use djx_memsim::Addr;

/// Lookup counters of one index — or, summed, of a whole sharded index.
///
/// Shard lookups ([`IntervalIndex::lookup`]) are the sample-resolution path: every
/// sample is exactly one lookup, and a hit is a sample inside a monitored object.
/// Read-only queries ([`IntervalIndex::find`]) are counted separately so that
/// inspection paths (snapshot inspection, diagnostics, the GC-end identity probes)
/// remain visible in the profiler's self-monitoring statistics without inflating the
/// sample path's count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Shard lookups performed.
    pub lookups: u64,
    /// Shard lookups that found an enclosing interval.
    pub hits: u64,
    /// Read-only queries performed.
    pub read_lookups: u64,
    /// Read-only queries that found an enclosing interval.
    pub read_hits: u64,
    /// Always 0: the per-thread resolution cache these counted was deleted. The field
    /// stays until the pipeline benchmark that reads it drops it.
    pub cache_lookups: u64,
    /// Always 0, like [`LookupStats::cache_lookups`].
    pub cache_hits: u64,
}

impl LookupStats {
    /// Sums another stat block into this one (shard merging).
    pub fn merge(&mut self, other: &LookupStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.read_lookups += other.read_lookups;
        self.read_hits += other.read_hits;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
    }

    /// Fraction of shard lookups that hit, in `[0, 1]`.
    pub fn hit_fraction(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

impl std::fmt::Display for LookupStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lookups={} hits={} ({:.1}%) read_lookups={} read_hits={}",
            self.lookups,
            self.hits,
            self.hit_fraction() * 100.0,
            self.read_lookups,
            self.read_hits
        )
    }
}

/// One stored interval and its associated value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive start address.
    pub start: Addr,
    /// Exclusive end address.
    pub end: Addr,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` (empty or inverted intervals are never valid object
    /// ranges).
    pub fn new(start: Addr, end: Addr) -> Self {
        assert!(end > start, "interval end {end:#x} must be greater than start {start:#x}");
        Self { start, end }
    }

    /// `true` when `addr` lies inside the interval.
    pub fn contains(&self, addr: Addr) -> bool {
        (self.start..self.end).contains(&addr)
    }

    /// Length of the interval in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `false` always — intervals cannot be empty by construction. Provided for
    /// completeness with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Spare capacity the arrays keep or grow by, as a fraction `1 / GROWTH_DIVISOR` of
/// their length: shards grow slowly between collections (bump allocation appends a
/// few intervals each), so doubling would mostly reserve memory never used.
const GROWTH_DIVISOR: usize = 8;

/// A sorted array of disjoint address intervals.
///
/// `starts` is searched with [`slice::partition_point`]; `entries[i]` holds the end and
/// value of the interval starting at `starts[i]`. Keeping the starts apart packs eight
/// search keys per cache line. See the [module documentation](self) for why this
/// replaces the paper's splay tree.
#[derive(Debug)]
pub struct IntervalIndex<T> {
    starts: Vec<Addr>,
    entries: Vec<(Addr, T)>,
    lookups: u64,
    hits: u64,
    // `find` takes `&self`; the read-side counters use interior mutability so read-only
    // queries stay read-only for the index itself.
    read_lookups: Cell<u64>,
    read_hits: Cell<u64>,
}

impl<T> Default for IntervalIndex<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IntervalIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            starts: Vec::new(),
            entries: Vec::new(),
            lookups: 0,
            hits: 0,
            read_lookups: Cell::new(0),
            read_hits: Cell::new(0),
        }
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when the index stores no interval.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Shard lookups performed via [`IntervalIndex::lookup`].
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found an enclosing interval.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read-only queries performed via [`IntervalIndex::find`].
    pub fn read_lookups(&self) -> u64 {
        self.read_lookups.get()
    }

    /// Read-only queries that found an enclosing interval.
    pub fn read_hits(&self) -> u64 {
        self.read_hits.get()
    }

    /// All lookup counters as one block (see [`LookupStats`]).
    pub fn stats(&self) -> LookupStats {
        LookupStats {
            lookups: self.lookups,
            hits: self.hits,
            read_lookups: self.read_lookups.get(),
            read_hits: self.read_hits.get(),
            cache_lookups: 0,
            cache_hits: 0,
        }
    }

    /// Position of the last interval starting at or below `addr` — the only one that
    /// can contain it — or `None` when every interval starts above `addr`.
    #[inline]
    fn predecessor(&self, addr: Addr) -> Option<usize> {
        self.starts.partition_point(|&start| start <= addr).checked_sub(1)
    }

    /// Position of the interval containing `addr`.
    #[inline]
    fn position(&self, addr: Addr) -> Option<usize> {
        self.predecessor(addr).filter(|&i| addr < self.entries[i].0)
    }

    #[inline]
    fn at(&self, i: usize) -> (Interval, &T) {
        let (end, value) = &self.entries[i];
        (Interval { start: self.starts[i], end: *end }, value)
    }

    /// Inserts an interval with its value. Intervals must be disjoint from every other
    /// stored interval; inserting an interval whose start lies inside an existing one
    /// replaces that entry in place (the new range and value win), which is what the
    /// profiler wants when an allocation reuses the address range of a reclaimed
    /// object it never saw die. One binary search either way.
    ///
    /// Returns the replaced interval and value, if any.
    pub fn insert(&mut self, interval: Interval, value: T) -> Option<(Interval, T)> {
        let at = self.predecessor(interval.start);
        match at {
            Some(i) if interval.start < self.entries[i].0 => {
                let old_start = std::mem::replace(&mut self.starts[i], interval.start);
                let (old_end, old) = std::mem::replace(&mut self.entries[i], (interval.end, value));
                Some((Interval { start: old_start, end: old_end }, old))
            }
            _ => {
                let i = at.map_or(0, |i| i + 1);
                if self.starts.len() == self.starts.capacity() {
                    let more = self.starts.len() / GROWTH_DIVISOR + 4;
                    self.starts.reserve_exact(more);
                    self.entries.reserve_exact(more);
                }
                self.starts.insert(i, interval.start);
                self.entries.insert(i, (interval.end, value));
                None
            }
        }
    }

    /// Looks up the interval containing `addr` (the sample-resolution path), counted
    /// under [`IntervalIndex::lookups`]. Returns the interval and a reference to its
    /// value.
    #[inline]
    pub fn lookup(&mut self, addr: Addr) -> Option<(Interval, &T)> {
        self.lookups += 1;
        let i = self.position(addr)?;
        self.hits += 1;
        Some(self.at(i))
    }

    /// Read-only containment query, counted in the read-side statistics
    /// ([`IntervalIndex::read_lookups`] / [`IntervalIndex::read_hits`]) so inspection
    /// paths remain visible apart from sample resolution.
    pub fn find(&self, addr: Addr) -> Option<(Interval, &T)> {
        self.read_lookups.set(self.read_lookups.get() + 1);
        let i = self.position(addr)?;
        self.read_hits.set(self.read_hits.get() + 1);
        Some(self.at(i))
    }

    /// Removes the interval containing `addr`, returning it and its value.
    pub fn remove(&mut self, addr: Addr) -> Option<(Interval, T)> {
        let i = self.position(addr)?;
        let start = self.starts.remove(i);
        let (end, value) = self.entries.remove(i);
        Some((Interval { start, end }, value))
    }

    /// Applies a batch of removals and insertions at once: every interval whose start
    /// is in `removed` is dropped and `added` is merged in, in one pass that writes the
    /// surviving and added intervals, in order, into freshly sized arrays. An added
    /// interval sharing its start with a stored one sorts after it, so lookups resolve
    /// to the added one.
    ///
    /// `removed` must be sorted ascending. This is how a garbage collection's moves and
    /// reclaims reach a shard: a remove and an insert per moved object would shift the
    /// arrays once per move.
    pub fn rebuild(&mut self, removed: &[Addr], mut added: Vec<(Interval, T)>)
    where
        T: Copy,
    {
        debug_assert!(removed.windows(2).all(|w| w[0] <= w[1]), "removed must be sorted");
        if removed.is_empty() && added.is_empty() {
            return;
        }
        added.sort_by_key(|(interval, _)| interval.start);
        let len = (self.len() + added.len()).saturating_sub(removed.len());
        let mut starts = Vec::with_capacity(len + len / GROWTH_DIVISOR);
        let mut entries = Vec::with_capacity(starts.capacity());
        let mut removed = removed.iter().copied().peekable();
        let mut added = added.into_iter().peekable();
        for (&start, &entry) in self.starts.iter().zip(&self.entries) {
            while let Some((interval, value)) = added.next_if(|(iv, _)| iv.start < start) {
                starts.push(interval.start);
                entries.push((interval.end, value));
            }
            while removed.next_if(|&r| r < start).is_some() {}
            if removed.peek() != Some(&start) {
                starts.push(start);
                entries.push(entry);
            }
        }
        for (interval, value) in added {
            starts.push(interval.start);
            entries.push((interval.end, value));
        }
        self.starts = starts;
        self.entries = entries;
    }

    /// Removes every stored interval and releases the arrays' storage.
    pub fn clear(&mut self) {
        self.starts = Vec::new();
        self.entries = Vec::new();
    }

    /// Iteration over `(interval, value)` pairs in ascending start address.
    pub fn iter(&self) -> impl Iterator<Item = (Interval, &T)> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Approximate resident size of the index in bytes: the allocated capacity of both
    /// arrays (used by the memory-overhead accounting of the evaluation).
    pub fn approx_bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<Addr>()
            + self.entries.capacity() * std::mem::size_of::<(Addr, T)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(ranges: &[(u64, u64)]) -> IntervalIndex<usize> {
        let mut t = IntervalIndex::new();
        for (i, (s, e)) in ranges.iter().enumerate() {
            t.insert(Interval::new(*s, *e), i);
        }
        t
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(0x100, 0x140);
        assert!(iv.contains(0x100));
        assert!(iv.contains(0x13f));
        assert!(!iv.contains(0x140));
        assert!(!iv.contains(0xff));
        assert_eq!(iv.len(), 0x40);
        assert!(!iv.is_empty());
    }

    #[test]
    #[should_panic(expected = "greater than start")]
    fn empty_interval_rejected() {
        let _ = Interval::new(0x100, 0x100);
    }

    #[test]
    fn insert_and_lookup_by_containment() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100), (0x200, 0x240)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0x53).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup(0xfe).map(|(_, v)| *v), Some(1));
        assert_eq!(t.lookup(0x200).map(|(_, v)| *v), Some(2));
        assert_eq!(t.lookup(0x60), None, "end is exclusive");
        assert_eq!(t.lookup(0x150), None, "gap between intervals");
        assert_eq!(t.lookups(), 5);
        assert_eq!(t.hits(), 3);
    }

    #[test]
    fn find_is_read_only_and_agrees_with_lookup() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100)]);
        for addr in [0x0u64, 0x30, 0x5f, 0x60, 0x7f, 0x80, 0xff, 0x100] {
            let by_find = t.find(addr).map(|(_, v)| *v);
            let by_lookup = t.lookup(addr).map(|(_, v)| *v);
            assert_eq!(by_find, by_lookup, "addr {addr:#x}");
        }
        assert_eq!(t.find(0x30).map(|(i, _)| i), Some(Interval::new(0x00, 0x60)));
    }

    #[test]
    fn read_lookups_are_counted_separately_from_splaying_lookups() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100)]);
        assert_eq!(t.read_lookups(), 0);
        t.find(0x30); // hit
        t.find(0x70); // miss
        t.find(0x90); // hit
        assert_eq!(t.read_lookups(), 3);
        assert_eq!(t.read_hits(), 2);
        assert_eq!(t.lookups(), 0, "find never counts as a shard lookup");
        t.lookup(0x30);
        let stats = t.stats();
        assert_eq!(
            stats,
            LookupStats {
                lookups: 1,
                hits: 1,
                read_lookups: 3,
                read_hits: 2,
                ..Default::default()
            }
        );
        assert!((stats.hit_fraction() - 1.0).abs() < 1e-12);
        let mut merged = stats;
        merged.merge(&LookupStats {
            lookups: 1,
            hits: 0,
            read_lookups: 2,
            read_hits: 1,
            cache_lookups: 4,
            cache_hits: 3,
        });
        assert_eq!(
            merged,
            LookupStats {
                lookups: 2,
                hits: 1,
                read_lookups: 5,
                read_hits: 3,
                cache_lookups: 4,
                cache_hits: 3,
            }
        );
        let text = merged.to_string();
        assert!(text.contains("lookups=2"));
        assert!(text.contains("read_lookups=5"));
        assert_eq!(LookupStats::default().hit_fraction(), 0.0);
    }

    #[test]
    fn remove_then_lookup_misses() {
        let mut t = tree_with(&[(0x00, 0x60), (0x80, 0x100), (0x200, 0x240)]);
        let (iv, v) = t.remove(0x90).unwrap();
        assert_eq!(iv, Interval::new(0x80, 0x100));
        assert_eq!(v, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(0x90), None);
        assert_eq!(t.lookup(0x30).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup(0x210).map(|(_, v)| *v), Some(2));
        assert_eq!(t.remove(0x90), None, "double remove is a miss");
    }

    #[test]
    fn insert_with_start_inside_existing_replaces() {
        let mut t = IntervalIndex::new();
        t.insert(Interval::new(0x100, 0x200), 1);
        // An allocation reusing memory the profiler still thinks belongs to value 1.
        let old = t.insert(Interval::new(0x100, 0x180), 2);
        assert_eq!(old, Some((Interval::new(0x100, 0x200), 1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x150).map(|(_, v)| *v), Some(2));
        assert_eq!(t.lookup(0x190), None, "the range shrank to the new object's size");
        // A start strictly inside the stored range replaces it too.
        let old = t.insert(Interval::new(0x140, 0x160), 3);
        assert_eq!(old, Some((Interval::new(0x100, 0x180), 2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x110), None, "the range moved to the new object's start");
        assert_eq!(t.lookup(0x150).map(|(_, v)| *v), Some(3));
    }

    #[test]
    fn move_pattern_remove_and_reinsert() {
        // A single relocation outside a collection batch: remove by old address,
        // insert the new range.
        let mut t = IntervalIndex::new();
        t.insert(Interval::new(0x1000, 0x1100), "obj");
        let (_, v) = t.remove(0x1000).unwrap();
        t.insert(Interval::new(0x2000, 0x2100), v);
        assert_eq!(t.lookup(0x1050), None);
        assert_eq!(t.lookup(0x2050).map(|(_, v)| *v), Some("obj"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_by_start() {
        let ranges: Vec<(u64, u64)> =
            (0..50u64).rev().map(|i| (i * 0x100, i * 0x100 + 0x80)).collect();
        let mut t = tree_with(&ranges);
        // Lookups leave the order as it is.
        for i in [3u64, 47, 12, 0, 30] {
            t.lookup(i * 0x100 + 1);
        }
        let starts: Vec<u64> = t.iter().map(|(iv, _)| iv.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert_eq!(starts.len(), 50);
    }

    #[test]
    fn clear_empties_the_tree() {
        let mut t = tree_with(&[(0x0, 0x10), (0x20, 0x30)]);
        assert!(t.approx_bytes() > 0);
        t.clear();
        assert_eq!(t.approx_bytes(), 0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(0x5), None);
    }

    #[test]
    fn many_disjoint_intervals_stay_consistent() {
        let n = 2000u64;
        let mut t = IntervalIndex::new();
        for i in 0..n {
            t.insert(Interval::new(i * 64, i * 64 + 64), i);
        }
        assert_eq!(t.len() as u64, n);
        // Every address maps to its interval.
        for i in (0..n).step_by(37) {
            assert_eq!(t.lookup(i * 64 + 13).map(|(_, v)| *v), Some(i));
        }
        // Remove every third interval.
        for i in (0..n).step_by(3) {
            assert!(t.remove(i * 64).is_some());
        }
        for i in 0..n {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.lookup(i * 64 + 1).map(|(_, v)| *v), expect, "interval {i}");
        }
    }

    #[test]
    fn adversarial_sequential_lookups_do_not_overflow_stack() {
        // Strictly ascending insertion (bump allocation) appends at the tail; lookups
        // at both ends stay correct and nothing recurses.
        let n = 50_000u64;
        let mut t = IntervalIndex::new();
        for i in 0..n {
            t.insert(Interval::new(i * 16, i * 16 + 16), i);
        }
        assert_eq!(t.lookup(0).map(|(_, v)| *v), Some(0));
        assert_eq!(t.lookup((n - 1) * 16).map(|(_, v)| *v), Some(n - 1));
        drop(t);
    }

    #[test]
    fn rebuild_drops_and_merges_in_one_pass() {
        let mut t = tree_with(&[(0x000, 0x100), (0x100, 0x200), (0x300, 0x400), (0x500, 0x600)]);
        // A sliding collection: 0x100 is reclaimed, 0x300 slides down to 0x100 and
        // 0x500 to 0x200; an unknown object lands at 0x700.
        t.rebuild(
            &[0x100, 0x300, 0x500],
            vec![
                (Interval::new(0x200, 0x300), 3),
                (Interval::new(0x700, 0x780), 9),
                (Interval::new(0x100, 0x200), 2),
            ],
        );
        let entries: Vec<(Interval, usize)> = t.iter().map(|(iv, v)| (iv, *v)).collect();
        assert_eq!(
            entries,
            vec![
                (Interval::new(0x000, 0x100), 0),
                (Interval::new(0x100, 0x200), 2),
                (Interval::new(0x200, 0x300), 3),
                (Interval::new(0x700, 0x780), 9),
            ]
        );
        assert_eq!(t.lookup(0x350), None, "the slid-away range is cold");
        assert_eq!(t.lookup(0x1ff).map(|(_, v)| *v), Some(2));
        // Starts that are not stored are ignored; an empty batch changes nothing.
        t.rebuild(&[0x080, 0x900], Vec::new());
        assert_eq!(t.len(), 4);
        // An added interval sharing a stored start resolves ahead of it.
        t.rebuild(&[], vec![(Interval::new(0x700, 0x740), 10)]);
        assert_eq!(t.lookup(0x710).map(|(_, v)| *v), Some(10));
    }

    #[test]
    fn rebuild_into_an_empty_index_sorts_the_batch() {
        let mut t: IntervalIndex<u64> = IntervalIndex::new();
        let added: Vec<(Interval, u64)> = (0..100u64)
            .rev()
            .map(|i| (Interval::new(i * 0x40, i * 0x40 + 0x20), i))
            .collect();
        t.rebuild(&[], added);
        assert_eq!(t.len(), 100);
        for i in 0..100u64 {
            assert_eq!(t.find(i * 0x40 + 0x10).map(|(_, v)| *v), Some(i));
            assert_eq!(t.find(i * 0x40 + 0x30), None);
        }
    }
}
