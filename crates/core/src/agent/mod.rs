//! The allocation agent and the state it shares with the sampling side.
//!
//! DJXPerf is built from a *Java agent* (lightweight ASM bytecode instrumentation that
//! intercepts object allocations) and a *JVMTI agent* (native code that programs PMUs
//! per thread and handles their overflow signals) — §4.1 of the paper. In this
//! reproduction the Java-agent side lives here as [`AllocationAgent`], which subscribes
//! to the runtime's allocation, GC, move and reclaim events and maintains the shared
//! index of monitored objects. The JVMTI side — per-thread PMUs, sample resolution
//! through the index, and recording into the object record — is owned by
//! [`Session`](crate::session::Session), which combines both into one
//! [`RuntimeListener`](djx_runtime::RuntimeListener).
//!
//! # The sharded object index
//!
//! The paper calls the concurrent splay tree of monitored objects "the only data
//! structure shared among threads" (§5.1) and protects it with a spin lock. A single
//! lock is exactly where a multi-threaded workload serializes: every PMU overflow on
//! every thread resolves its effective address through the index. [`SharedObjectIndex`]
//! therefore shards the address space over `N` (power-of-two) independent
//! [`IntervalIndex`]es — flat arrays sorted by start address, not the paper's splay
//! tree (the [`crate::interval`] module documentation gives the measurements) — each
//! behind its own [`SpinLock`] (the signal-handler-safe primitive the overflow path
//! requires; see [`crate::sync`]):
//!
//! * the address space is cut into fixed 8 KiB *regions*
//!   ([`SharedObjectIndex::REGION_SHIFT`]) that interleave round-robin across shards,
//!   so neighbouring objects land on different shards and per-thread allocation
//!   clusters spread out;
//! * an object whose `[start, end)` range spans several regions is inserted into
//!   **every shard its range touches** (the record is a small `Copy` value), so a
//!   point lookup only ever needs the one shard owning the queried address;
//! * single mutations (an allocation, a reclaim outside a collection) take shard locks
//!   strictly one at a time: removal resolves the full interval from the queried
//!   address's shard first, then drops the remaining copies shard by shard;
//! * a garbage collection's relocations and reclaims (§4.5) are applied as one batch
//!   (`SharedObjectIndex::apply_collection`): every touched shard is locked in
//!   ascending order, its epoch bumped once and its array rebuilt once. Samplers,
//!   batch resolution and single mutations never hold two shard locks, so the ordered
//!   multi-lock cannot deadlock, and a sampler sees either all of a collection or
//!   none of it;
//! * [`SharedObjectIndex::live_objects`] counts distinct objects via an atomic
//!   counter, and [`SharedObjectIndex::lookup_stats`] /
//!   [`SharedObjectIndex::approx_bytes`] merge the per-shard statistics.
//!
//! The common-case sample resolution (`lookup`) thus touches exactly one shard lock,
//! uncontended as long as two threads are not sampling addresses in the same region —
//! which is the point: per-thread allocation sites mean per-thread address ranges.
//!
//! # Three-level sample resolution: thread cache → shard → miss
//!
//! Sharding removes *contention*, but every resolution still pays one lock round-trip
//! and a binary search, even when a thread samples the same hot object thousands of
//! times in a row, which is precisely the distribution object-centric profiling
//! exploits (a handful of hot objects absorb most samples). The hot path therefore
//! runs in three levels:
//!
//! 1. **Per-thread [`ResolutionCache`]** — a small direct-mapped table, private to the
//!    sampling thread, mapping 8 KiB address regions to the enclosing
//!    `(Interval, MonitoredObject)`. A hit is an array probe plus one atomic epoch
//!    load: **no shard lock, no shared-memory write**.
//! 2. **Shard index** — a cache miss falls through to the owning shard (one
//!    [`SpinLock`], one read-only binary search), and refills the cache slot on a hit.
//!    The paper's splay tree would rotate — write — the shared tree on this path.
//! 3. **Miss** — addresses outside every monitored object resolve to `None`; misses
//!    are never cached (a region can gain an object at any time).
//!
//! Correctness across mutation comes from a per-shard [`Epoch`]: every insert, removal
//! and GC batch bumps the epoch of each shard it touches *under that shard's lock,
//! before mutating*. A cache entry records the shard epoch at fill time and is valid
//! only while the epoch still matches, so a stale resolution after a GC move is
//! impossible by construction — the move bumped the epoch, the entry mismatches, the
//! thread falls back to the shard. Cache probes and hits are self-monitored through
//! [`LookupStats::cache_lookups`] / [`LookupStats::cache_hits`].
//!
//! Note that these **shard mutation epochs** are independent of the session's
//! **collector buffer epochs** (the units [`crate::export`] streams): a shard epoch
//! versions *index state* for cache invalidation, while a buffer epoch partitions
//! *collector state* for pause-free snapshots and incremental export. An export drain
//! never touches a shard epoch, so continuous streaming cannot thrash the resolution
//! caches — the two protocols share the [`Epoch`] primitive and nothing else.

mod allocation;

pub use allocation::{AllocationAgent, AllocationConfig, DEFAULT_SIZE_FILTER};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use djx_memsim::Addr;

use crate::interval::{Interval, IntervalIndex, LookupStats};
use crate::object::{AllocSiteRegistry, MonitoredObject};
use crate::sync::{Epoch, SpinLock, SpinLockGuard};

/// Default number of shards of a [`SharedObjectIndex`]. Power of two, sized so that a
/// handful of profiled threads rarely collide on a shard without making per-shard
/// arrays long.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One address shard: a sorted interval index behind a signal-handler-safe lock, plus
/// the mutation epoch that keeps per-thread resolution caches honest.
#[derive(Debug, Default)]
struct Shard {
    /// The shard's interval index. Shard locks are [`SpinLock`]s: sample resolution
    /// runs in signal-handler context (§5.1), and sharding keeps each lock uncontended
    /// in the common case — see [`crate::sync`].
    index: SpinLock<IntervalIndex<MonitoredObject>>,
    /// Bumped under the shard lock, *before* every index mutation. A cache entry filled
    /// under epoch `E` is valid only while the epoch still reads `E` (see
    /// [`ResolutionCache`]).
    epoch: Epoch,
}

/// State shared between the two agents: the sharded interval index of monitored-object
/// address ranges (see the [module documentation](self) for the sharding scheme) and the
/// allocation-site registry.
#[derive(Debug)]
pub struct SharedObjectIndex {
    /// One interval index + mutation epoch per address shard.
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; routing is `(addr >> REGION_SHIFT) & mask`.
    mask: u64,
    /// Number of distinct live monitored objects (copies excluded).
    live: AtomicUsize,
    /// Interned allocation sites.
    pub sites: Mutex<AllocSiteRegistry>,
}

impl Default for SharedObjectIndex {
    fn default() -> Self {
        Self::sharded(DEFAULT_SHARD_COUNT)
    }
}

impl SharedObjectIndex {
    /// Region granularity: addresses are routed to shards by `addr >> REGION_SHIFT`.
    /// 8 KiB regions keep the copy factor low (a monitored object of the default 1 KiB
    /// size filter touches 1–2 regions) while spreading consecutive allocations across
    /// shards.
    pub const REGION_SHIFT: u32 = 13;

    /// Creates an empty shared index with [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates an empty shared index with `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, not a power of two, or greater than 64 (shard sets
    /// are tracked as a 64-bit mask).
    pub fn with_shards(shards: usize) -> Arc<Self> {
        Arc::new(Self::sharded(shards))
    }

    fn sharded(shards: usize) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two() && shards <= 64,
            "shard count must be a power of two in 1..=64, got {shards}"
        );
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            mask: (shards - 1) as u64,
            live: AtomicUsize::new(0),
            sites: Mutex::new(AllocSiteRegistry::default()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `addr`.
    #[inline]
    pub fn shard_of(&self, addr: Addr) -> usize {
        ((addr >> Self::REGION_SHIFT) & self.mask) as usize
    }

    /// The set of shards an interval touches, as a bitmask over shard indices (the
    /// constructor caps shard counts at 64; spanning intervals saturate to all shards).
    fn shard_set(&self, interval: Interval) -> u64 {
        let all = if self.shards.len() == 64 { u64::MAX } else { (1u64 << self.shards.len()) - 1 };
        let first = interval.start >> Self::REGION_SHIFT;
        let last = (interval.end - 1) >> Self::REGION_SHIFT;
        if last - first >= self.mask {
            return all;
        }
        let mut set = 0u64;
        for region in first..=last {
            set |= 1u64 << (region & self.mask);
        }
        set
    }

    /// The shard indices of `set`, ascending.
    fn shards_in(mut set: u64) -> impl Iterator<Item = usize> {
        std::iter::from_fn(move || {
            let shard = (set != 0).then(|| set.trailing_zeros() as usize)?;
            set &= set - 1;
            Some(shard)
        })
    }

    /// Runs a **mutation** on one shard under its lock, bumping the shard's epoch
    /// before the index is touched so per-thread cache entries filled under the
    /// previous epoch can never resolve through the mutated state.
    fn mutate_shard<R>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut IntervalIndex<MonitoredObject>) -> R,
    ) -> R {
        let s = &self.shards[shard];
        let mut index = s.index.lock();
        s.epoch.bump();
        f(&mut index)
    }

    /// Current mutation epoch of the shard owning `addr` (diagnostics and tests; cache
    /// validation reads the epoch internally).
    pub fn epoch_of(&self, addr: Addr) -> u64 {
        self.shards[self.shard_of(addr)].epoch.current()
    }

    /// Inserts a monitored object under its address range, placing one copy of the
    /// record in every shard the range touches.
    ///
    /// An existing entry whose range contains `interval.start` (an allocation reusing
    /// the range of an object whose reclamation the profiler missed) is replaced — in
    /// *all* of its shards, so no stale copy survives — and returned. Each shard is
    /// searched once: where both objects have a copy the new one takes the old one's
    /// slot, since nothing else can lie between them.
    pub fn insert(&self, interval: Interval, value: MonitoredObject) -> Option<MonitoredObject> {
        let primary = self.shard_of(interval.start);
        let old = self.mutate_shard(primary, |index| index.insert(interval, value));
        let new_set = self.shard_set(interval);
        let old_set = old.map_or(0, |(old_interval, _)| self.shard_set(old_interval));
        for shard in Self::shards_in((new_set | old_set) & !(1u64 << primary)) {
            self.mutate_shard(shard, |index| {
                if new_set & (1u64 << shard) != 0 {
                    index.insert(interval, value);
                } else if let Some((old_interval, _)) = old {
                    index.remove(old_interval.start);
                }
            });
        }
        if old.is_none() {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        old.map(|(_, mo)| mo)
    }

    /// Removes the monitored object whose range contains `addr`, dropping every shard
    /// copy, and returns its interval and record.
    ///
    /// Shard locks are taken strictly one at a time: the owning shard resolves the full
    /// interval, then the remaining copies are removed shard by shard.
    pub fn remove(&self, addr: Addr) -> Option<(Interval, MonitoredObject)> {
        let primary = self.shard_of(addr);
        // Bump before probing: even a miss costs only spurious cache refills, and a hit
        // must invalidate before the entry leaves the index.
        let (interval, value) = self.mutate_shard(primary, |index| index.remove(addr))?;
        for shard in Self::shards_in(self.shard_set(interval) & !(1u64 << primary)) {
            self.mutate_shard(shard, |index| index.remove(interval.start));
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
        Some((interval, value))
    }

    /// Applies one garbage collection to the index as a single batch: every object in
    /// `removed` (distinct stored intervals — the collection's reclaimed objects and the
    /// old ranges of its moved ones) loses all of its copies, and every record in
    /// `added` (the moved objects' new ranges) gains one in each shard it touches.
    ///
    /// Every touched shard is locked in ascending index order and its epoch bumped once
    /// before any of them changes; each is then rebuilt with one
    /// [`IntervalIndex::rebuild`]. Nothing else ever holds two shard locks, so the
    /// ordered acquisition cannot deadlock, and a concurrent sampler resolves either
    /// entirely through the pre-collection index or entirely through the new one.
    pub(crate) fn apply_collection(
        &self,
        removed: &[Interval],
        added: Vec<(Interval, MonitoredObject)>,
    ) {
        // Room for each shard's even share of the batch, twice over for objects that
        // straddle two regions.
        let shards = self.shards.len();
        let mut removed_in: Vec<Vec<Addr>> =
            (0..shards).map(|_| Vec::with_capacity(2 * removed.len() / shards)).collect();
        let mut added_in: Vec<Vec<(Interval, MonitoredObject)>> =
            (0..shards).map(|_| Vec::with_capacity(2 * added.len() / shards)).collect();
        let mut touched = 0u64;
        for &interval in removed {
            let set = self.shard_set(interval);
            touched |= set;
            for shard in Self::shards_in(set) {
                removed_in[shard].push(interval.start);
            }
        }
        for &(interval, value) in &added {
            let set = self.shard_set(interval);
            touched |= set;
            for shard in Self::shards_in(set) {
                added_in[shard].push((interval, value));
            }
        }
        let mut locked: Vec<(usize, SpinLockGuard<'_, IntervalIndex<MonitoredObject>>)> =
            Vec::with_capacity(touched.count_ones() as usize);
        for shard in Self::shards_in(touched) {
            let s = &self.shards[shard];
            let index = s.index.lock();
            s.epoch.bump();
            locked.push((shard, index));
        }
        for (shard, index) in &mut locked {
            let starts = &mut removed_in[*shard];
            starts.sort_unstable();
            index.rebuild(starts, std::mem::take(&mut added_in[*shard]));
        }
        self.live.fetch_add(added.len(), Ordering::Relaxed);
        self.live.fetch_sub(removed.len(), Ordering::Relaxed);
    }

    /// Resolves `addr` to its enclosing monitored object (the sample-resolution path:
    /// one shard lock, one binary search).
    pub fn lookup(&self, addr: Addr) -> Option<(Interval, MonitoredObject)> {
        self.shards[self.shard_of(addr)]
            .index
            .lock()
            .lookup(addr)
            .map(|(iv, mo)| (iv, *mo))
    }

    /// Read-only resolution of `addr`, counted under the read-side lookup statistics so
    /// inspection paths stay apart from sample resolution.
    pub fn find(&self, addr: Addr) -> Option<(Interval, MonitoredObject)> {
        self.shards[self.shard_of(addr)]
            .index
            .lock()
            .find(addr)
            .map(|(iv, mo)| (iv, *mo))
    }

    /// Resolves a batch of sampled addresses to their enclosing objects' allocation
    /// sites, locking **only the shards the batch actually touches** and reusing the
    /// shard guard across consecutive same-shard addresses (overflow batches exhibit
    /// strong spatial locality, so the common case is one lock acquisition per batch).
    pub fn resolve_batch<'a>(
        &self,
        addrs: impl Iterator<Item = &'a Addr>,
        out: &mut impl Extend<Option<crate::object::AllocSiteId>>,
    ) {
        let mut guard = ShardGuard::new(self);
        out.extend(
            addrs.map(|&addr| guard.index(self.shard_of(addr)).lookup(addr).map(|(_, mo)| mo.site)),
        );
    }

    /// Resolves a batch of sampled addresses through the caller's per-thread
    /// [`ResolutionCache`] first, falling back to the owning shard (and refilling the
    /// cache) on a miss — the three-level hot path of the
    /// [module documentation](self). Cache hits take **no shard lock**; misses reuse
    /// the shard guard across consecutive same-shard addresses exactly like
    /// [`SharedObjectIndex::resolve_batch`].
    pub fn resolve_batch_cached<'a>(
        &self,
        cache: &mut ResolutionCache,
        addrs: impl Iterator<Item = &'a Addr>,
        out: &mut impl Extend<Option<crate::object::AllocSiteId>>,
    ) {
        let mut guard = ShardGuard::new(self);
        out.extend(addrs.map(|&addr| {
            let region = addr >> Self::REGION_SHIFT;
            let shard_index = (region & self.mask) as usize;
            let shard = &self.shards[shard_index];
            cache.lookups += 1;
            let slot = (region & cache.mask) as usize;
            if let Some(entry) = &cache.entries[slot] {
                if entry.region == region
                    && entry.interval.contains(addr)
                    && shard.epoch.validate(entry.epoch)
                {
                    cache.hits += 1;
                    return Some(entry.value.site);
                }
            }
            let index = guard.index(shard_index);
            // The lock is held, so the epoch recorded next to the refilled entry is
            // exactly the epoch the resolved value was read under.
            let epoch = shard.epoch.current();
            let (interval, mo) = index.lookup(addr)?;
            cache.entries[slot] = Some(CacheEntry { region, epoch, interval, value: *mo });
            Some(mo.site)
        }));
    }

    /// Number of live monitored objects (distinct objects, not shard copies).
    pub fn live_objects(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Number of interned allocation sites.
    pub fn site_count(&self) -> usize {
        self.sites.lock().len()
    }

    /// Lookup statistics merged over every shard.
    pub fn lookup_stats(&self) -> LookupStats {
        let mut stats = LookupStats::default();
        for shard in self.shards.iter() {
            stats.merge(&shard.index.lock().stats());
        }
        stats
    }

    /// Approximate resident bytes of the shared structures (shard copies included —
    /// they are real memory).
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index.lock().approx_bytes()).sum::<usize>()
            + self.sites.lock().approx_bytes()
    }
}

/// Batch-resolution shard-guard reuse: keeps the most recent shard's lock held across
/// consecutive same-shard addresses (overflow batches exhibit strong spatial locality,
/// so the common case is one lock acquisition per batch) and switches shards by
/// dropping the held guard *before* acquiring the next — shard locks are never nested.
struct ShardGuard<'a> {
    shared: &'a SharedObjectIndex,
    held: Option<(usize, SpinLockGuard<'a, IntervalIndex<MonitoredObject>>)>,
}

impl<'a> ShardGuard<'a> {
    fn new(shared: &'a SharedObjectIndex) -> Self {
        Self { shared, held: None }
    }

    /// The locked index of `shard`, reusing the held guard when it is the same shard.
    fn index(&mut self, shard: usize) -> &mut IntervalIndex<MonitoredObject> {
        if !matches!(&self.held, Some((held, _)) if *held == shard) {
            self.held = None; // drop the previous guard before taking the next
            self.held = Some((shard, self.shared.shards[shard].index.lock()));
        }
        &mut self.held.as_mut().expect("installed above").1
    }
}

// ---------------------------------------------------------------------------------------
// Per-thread resolution cache
// ---------------------------------------------------------------------------------------

/// Default number of slots of a [`ResolutionCache`]. Power of two; 256 slots × one
/// 8 KiB region each cover a 2 MiB working set of hot objects in ~12 KiB of
/// thread-private memory.
pub const DEFAULT_RESOLUTION_CACHE_SLOTS: usize = 256;

/// One filled slot of a [`ResolutionCache`].
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    /// Region tag: `addr >> REGION_SHIFT` of the cached address.
    region: u64,
    /// The owning shard's mutation epoch when the entry was filled (read under the
    /// shard lock). The entry is valid only while the epoch still matches.
    epoch: u64,
    /// Address range of the cached monitored object.
    interval: Interval,
    /// The monitored object itself (a small `Copy` record).
    value: MonitoredObject,
}

/// A per-thread, direct-mapped front cache for sample resolution (level 1 of the
/// three-level hot path; see the [module documentation](self)).
///
/// Slots are indexed by address region (`addr >> REGION_SHIFT`, the same granularity
/// the index shards route by), so repeat samples on a hot object probe the same slot.
/// A probe hits when the slot's region tag matches, the cached interval contains the
/// address, and the owning shard's [`Epoch`] still matches the epoch recorded at fill
/// time — the shard-side bump-before-mutate protocol makes a stale hit after an
/// insert, free or GC relocation impossible by construction.
///
/// The cache is **not** shared: each sampling thread owns one, so probes and refills
/// require no synchronization beyond the single epoch load.
#[derive(Debug)]
pub struct ResolutionCache {
    entries: Box<[Option<CacheEntry>]>,
    /// `entries.len() - 1`; slot routing is `region & mask`.
    mask: u64,
    lookups: u64,
    hits: u64,
}

impl Default for ResolutionCache {
    fn default() -> Self {
        Self::new(DEFAULT_RESOLUTION_CACHE_SLOTS)
    }
}

impl ResolutionCache {
    /// Creates an empty cache with `slots` direct-mapped slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or not a power of two.
    pub fn new(slots: usize) -> Self {
        assert!(
            slots > 0 && slots.is_power_of_two(),
            "resolution cache slots must be a non-zero power of two, got {slots}"
        );
        Self {
            entries: vec![None; slots].into_boxed_slice(),
            mask: (slots - 1) as u64,
            lookups: 0,
            hits: 0,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Probe/hit counters, as the cache-side fields of a [`LookupStats`].
    pub fn stats(&self) -> LookupStats {
        LookupStats { cache_lookups: self.lookups, cache_hits: self.hits, ..Default::default() }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }

    /// Approximate resident bytes of the cache (memory-overhead accounting).
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Option<CacheEntry>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AllocSiteId;
    use djx_runtime::ObjectId;

    fn mo(id: u64) -> MonitoredObject {
        MonitoredObject { object: ObjectId(id), site: AllocSiteId(0), size: 0x2000 }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = SharedObjectIndex::with_shards(3);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn shard_counts_beyond_the_bitmask_width_rejected() {
        // Shard sets are 64-bit masks; a 128-shard index would silently alias shards.
        let _ = SharedObjectIndex::with_shards(128);
    }

    #[test]
    fn sixty_four_shards_work_end_to_end() {
        let index = SharedObjectIndex::with_shards(64);
        // An object in region 70 exercises shard indices above 63 pre-masking.
        let start = 70 << SharedObjectIndex::REGION_SHIFT;
        index.insert(Interval::new(start, start + 0x2000), mo(1));
        assert_eq!(index.lookup(start + 0x100).map(|(_, m)| m.object), Some(ObjectId(1)));
        assert!(index.remove(start).is_some());
        assert_eq!(index.live_objects(), 0);
        assert!(index.lookup(start + 0x100).is_none());
    }

    #[test]
    fn lookup_routes_to_the_owning_shard() {
        let index = SharedObjectIndex::with_shards(4);
        // Four objects, one per 8 KiB region → one per shard.
        for i in 0..4u64 {
            index.insert(Interval::new(i * 0x2000, i * 0x2000 + 0x1000), mo(i));
        }
        assert_eq!(index.live_objects(), 4);
        for i in 0..4u64 {
            assert_eq!(index.shard_of(i * 0x2000), i as usize);
            let (_, found) = index.lookup(i * 0x2000 + 0x800).unwrap();
            assert_eq!(found.object, ObjectId(i));
        }
        assert!(index.lookup(0x1800).is_none(), "gap between objects");
        let stats = index.lookup_stats();
        assert_eq!(stats.lookups, 5);
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn spanning_objects_resolve_from_every_region_they_touch() {
        let index = SharedObjectIndex::with_shards(4);
        // One object covering three regions (and thus three shards).
        index.insert(Interval::new(0x1000, 0x1000 + 3 * 0x2000), mo(7));
        assert_eq!(index.live_objects(), 1, "copies do not inflate the live count");
        for addr in [0x1000u64, 0x2000, 0x4000, 0x6000, 0x1000 + 3 * 0x2000 - 1] {
            let (iv, found) = index.lookup(addr).expect("every touched region resolves");
            assert_eq!(found.object, ObjectId(7));
            assert_eq!(iv, Interval::new(0x1000, 0x7000));
        }
        assert!(index.lookup(0x7000).is_none(), "end is exclusive in every shard");
        // Removal by a mid-object address drops every copy.
        let (iv, removed) = index.remove(0x4800).unwrap();
        assert_eq!(removed.object, ObjectId(7));
        assert_eq!(iv, Interval::new(0x1000, 0x7000));
        assert_eq!(index.live_objects(), 0);
        for addr in [0x1000u64, 0x2000, 0x4000, 0x6000] {
            assert!(index.lookup(addr).is_none(), "no stale copy at {addr:#x}");
        }
    }

    #[test]
    fn huge_objects_saturate_to_all_shards() {
        let index = SharedObjectIndex::with_shards(2);
        // Spans far more regions than shards.
        index.insert(Interval::new(0, 64 * 0x2000), mo(1));
        assert_eq!(index.live_objects(), 1);
        assert!(index.lookup(63 * 0x2000).is_some());
        assert!(index.remove(0).is_some());
        assert!(index.lookup(0x2000).is_none());
    }

    #[test]
    fn address_reuse_replaces_every_stale_copy() {
        let index = SharedObjectIndex::with_shards(4);
        // A spanning object whose reclamation the profiler misses...
        index.insert(Interval::new(0x0, 0x6000), mo(1));
        // ...then a smaller allocation reuses the start of the range.
        let old = index.insert(Interval::new(0x0, 0x1000), mo(2));
        assert_eq!(old.map(|m| m.object), Some(ObjectId(1)));
        assert_eq!(index.live_objects(), 1);
        assert_eq!(index.lookup(0x800).map(|(_, m)| m.object), Some(ObjectId(2)));
        // The dead object's copies in later shards must be gone too.
        assert!(index.lookup(0x2800).is_none());
        assert!(index.lookup(0x4800).is_none());
    }

    #[test]
    fn find_is_read_only_and_counted_separately() {
        let index = SharedObjectIndex::with_shards(4);
        index.insert(Interval::new(0x2000, 0x3000), mo(3));
        assert_eq!(index.find(0x2800).map(|(_, m)| m.object), Some(ObjectId(3)));
        assert!(index.find(0x9000).is_none());
        let stats = index.lookup_stats();
        assert_eq!(stats.read_lookups, 2);
        assert_eq!(stats.read_hits, 1);
        assert_eq!(stats.lookups, 0);
    }

    #[test]
    fn resolve_batch_reuses_the_shard_guard_for_clustered_addresses() {
        let index = SharedObjectIndex::with_shards(4);
        index.insert(Interval::new(0x0, 0x1000), mo(1));
        index.insert(Interval::new(0x2000, 0x3000), mo(2));
        let addrs = [0x10u64, 0x20, 0x30, 0x2800, 0x1800];
        let mut out = Vec::new();
        index.resolve_batch(addrs.iter(), &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Some(AllocSiteId(0)));
        assert_eq!(out[3], Some(AllocSiteId(0)));
        assert_eq!(out[4], None);
        assert_eq!(index.lookup_stats().lookups, 5);
    }

    #[test]
    fn mutations_bump_the_touched_shards_epochs() {
        let index = SharedObjectIndex::with_shards(4);
        let addr = 0x2000u64; // region 1 → shard 1
        let before = index.epoch_of(addr);
        index.insert(Interval::new(0x2000, 0x3000), mo(1));
        let after_insert = index.epoch_of(addr);
        assert!(after_insert > before, "insert bumps the owning shard");
        assert_eq!(index.epoch_of(0x0), 0, "untouched shards keep their epoch");
        index.remove(0x2000);
        assert!(index.epoch_of(addr) > after_insert, "remove bumps again");
    }

    #[test]
    fn cached_resolution_skips_the_shard_after_the_first_miss() {
        let index = SharedObjectIndex::with_shards(4);
        index.insert(Interval::new(0x2000, 0x6000), mo(9));
        let mut cache = ResolutionCache::new(64);
        let mut out = Vec::new();
        let addrs = [0x2100u64, 0x2200, 0x2300, 0x2400]; // all in region 1
        index.resolve_batch_cached(&mut cache, addrs.iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(0)); 4]);
        let stats = index.lookup_stats();
        assert_eq!(stats.lookups, 1, "only the first probe reaches the shard");
        let cache_stats = cache.stats();
        assert_eq!(cache_stats.cache_lookups, 4);
        assert_eq!(cache_stats.cache_hits, 3);
        // The spanning tail of the same object lives in region 2 → its own slot.
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x4100u64, 0x4200].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(0)); 2]);
        assert_eq!(index.lookup_stats().lookups, 2, "one more shard lookup for the new region");
        assert_eq!(cache.stats().cache_hits, 4);
    }

    #[test]
    fn misses_are_never_cached() {
        let index = SharedObjectIndex::with_shards(4);
        let mut cache = ResolutionCache::new(64);
        let mut out = Vec::new();
        index.resolve_batch_cached(&mut cache, [0x2100u64, 0x2100].iter(), &mut out);
        assert_eq!(out, vec![None, None]);
        assert_eq!(cache.stats().cache_hits, 0);
        // The region gains an object; the next probe must see it.
        index.insert(Interval::new(0x2000, 0x3000), mo(3));
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x2100u64].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(0))]);
    }

    #[test]
    fn epoch_invalidation_prevents_stale_hits_across_free_and_relocation() {
        let index = SharedObjectIndex::with_shards(4);
        index.insert(Interval::new(0x2000, 0x3000), mo(1));
        let mut cache = ResolutionCache::new(64);
        let mut out = Vec::new();
        index.resolve_batch_cached(&mut cache, [0x2100u64].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(0))]);

        // Free: the cached entry must invalidate, not resolve the dead object.
        index.remove(0x2000);
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x2100u64].iter(), &mut out);
        assert_eq!(out, vec![None], "freed object must not resolve from the cache");

        // Relocation (remove + insert elsewhere): old range cold, new range resolves.
        index.insert(Interval::new(0x2000, 0x3000), mo(2));
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x2100u64].iter(), &mut out);
        let (_, moved) = index.remove(0x2000).unwrap();
        index.insert(Interval::new(0x8000, 0x9000), moved);
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x2100u64, 0x8100].iter(), &mut out);
        assert_eq!(out[0], None, "old range must not resolve after the move");
        assert_eq!(out[1], Some(AllocSiteId(0)), "new range resolves");
    }

    #[test]
    fn cache_agrees_with_uncached_resolution_under_slot_aliasing() {
        // A 2-slot cache over many regions: constant slot collisions must only cost
        // hits, never correctness.
        let index = SharedObjectIndex::with_shards(4);
        for i in 0..16u64 {
            index.insert(Interval::new(i * 0x2000, i * 0x2000 + 0x1000), mo(i));
        }
        let mut cache = ResolutionCache::new(2);
        let addrs: Vec<u64> = (0..64u64).map(|i| (i % 16) * 0x2000 + (i % 0x1000)).collect();
        let mut cached = Vec::new();
        index.resolve_batch_cached(&mut cache, addrs.iter(), &mut cached);
        let mut plain = Vec::new();
        index.resolve_batch(addrs.iter(), &mut plain);
        assert_eq!(cached, plain);
    }

    #[test]
    fn a_collection_rebuilds_each_touched_shard_once() {
        use djx_runtime::{
            AllocationEvent, ClassId, Frame, GcEvent, GcId, MethodId, ObjectMoveEvent,
            ObjectReclaimEvent, RuntimeListener, ThreadId,
        };

        let index = SharedObjectIndex::with_shards(4);
        let agent = AllocationAgent::new(AllocationConfig::default(), index.clone());
        // 32 objects of 4 KiB, two per 8 KiB region, each with its own site (site i).
        const SIZE: u64 = 0x1000;
        for i in 0..32u64 {
            let trace = [Frame::new(MethodId(i as u32), 0)];
            agent.on_object_alloc(&AllocationEvent {
                object: ObjectId(i),
                class: ClassId(0),
                class_name: "long[]",
                start: i * SIZE,
                size: SIZE,
                thread: ThreadId(1),
                call_trace: &trace,
            });
        }
        // A cache entry for object 21, filled before the collection.
        let probe = 21 * SIZE + 8;
        let mut cache = ResolutionCache::new(64);
        let mut out = Vec::new();
        index.resolve_batch_cached(&mut cache, [probe].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(21))]);
        let before: Vec<u64> = (0..4u64).map(|shard| index.epoch_of(shard * 0x2000)).collect();

        // A sliding collection: every fourth object dies, the 24 survivors slide down.
        let gc = GcEvent { gc: GcId(1), heap_used: 0, objects_moved: 0, objects_reclaimed: 0 };
        agent.on_gc_start(&gc);
        let mut compact = 0;
        for i in 0..32u64 {
            if i % 4 == 0 {
                agent.on_object_reclaim(&ObjectReclaimEvent {
                    gc: GcId(1),
                    object: ObjectId(i),
                    addr: i * SIZE,
                    size: SIZE,
                    class: ClassId(0),
                });
                continue;
            }
            agent.on_object_move(&ObjectMoveEvent {
                gc: GcId(1),
                object: ObjectId(i),
                old_addr: i * SIZE,
                new_addr: compact,
                size: SIZE,
            });
            compact += SIZE;
        }
        // Nothing is applied before the collection ends.
        assert_eq!(index.live_objects(), 32);
        assert_eq!(index.lookup(0).map(|(_, m)| m.object), Some(ObjectId(0)));
        agent.on_gc_end(&gc);

        for (shard, epoch) in before.iter().enumerate() {
            assert_eq!(index.epoch_of(shard as u64 * 0x2000), epoch + 1, "shard {shard}");
        }
        let stats = agent.stats();
        assert_eq!((stats.relocations, stats.reclamations), (24, 8));
        assert_eq!(index.live_objects(), 24);
        // The pre-collection cache entry is refused: the address now holds object 29
        // (29 - 29 / 4 - 1 = 21), resolved through the shard.
        let lookups = index.lookup_stats().lookups;
        out.clear();
        index.resolve_batch_cached(&mut cache, [probe].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(29))]);
        assert_eq!(cache.stats().cache_hits, 0);
        assert_eq!(index.lookup_stats().lookups, lookups + 1);
        // Every survivor resolves at its new address, and the vacated tail is cold.
        for (slot, i) in (0..32u64).filter(|i| i % 4 != 0).enumerate() {
            let (iv, mo) = index.lookup(slot as u64 * SIZE + 0x10).expect("survivor resolves");
            assert_eq!((iv.start, mo.object), (slot as u64 * SIZE, ObjectId(i)));
        }
        assert!(index.lookup(24 * SIZE).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_slot_count_must_be_a_power_of_two() {
        let _ = ResolutionCache::new(3);
    }

    #[test]
    fn cache_clear_and_bytes() {
        let mut cache = ResolutionCache::default();
        assert_eq!(cache.slots(), DEFAULT_RESOLUTION_CACHE_SLOTS);
        assert!(cache.approx_bytes() > 0);
        let index = SharedObjectIndex::with_shards(2);
        index.insert(Interval::new(0x0, 0x1000), mo(1));
        let mut out = Vec::new();
        index.resolve_batch_cached(&mut cache, [0x100u64, 0x200].iter(), &mut out);
        assert_eq!(cache.stats().cache_hits, 1);
        cache.clear();
        out.clear();
        index.resolve_batch_cached(&mut cache, [0x100u64].iter(), &mut out);
        assert_eq!(out, vec![Some(AllocSiteId(0))]);
        assert_eq!(cache.stats().cache_hits, 1, "counters survive clear, entries do not");
    }

    #[test]
    fn approx_bytes_counts_shard_copies() {
        let small = SharedObjectIndex::with_shards(1);
        let sharded = SharedObjectIndex::with_shards(8);
        small.insert(Interval::new(0x0, 0x6000), mo(1));
        sharded.insert(Interval::new(0x0, 0x6000), mo(1));
        assert!(small.approx_bytes() > 0);
        assert!(
            sharded.approx_bytes() >= small.approx_bytes(),
            "copies are accounted as real memory"
        );
    }
}
