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
