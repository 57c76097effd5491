//! The allocation ("Java") agent.
//!
//! Mirrors §4.1/§4.5 of the paper: ASM instrumentation of `new`/`newarray`/`anewarray`/
//! `multianewarray` delivers every object allocation (pointer, type, size, allocation
//! call path); the agent filters allocations smaller than the configurable size `S`
//! (1 KiB by default) and inserts monitored objects into the shared interval index. The
//! paper keeps them in a splay tree; this reproduction uses sorted arrays per shard
//! (see [`crate::interval`] for why). GC-time relocations are batched in a per-collection
//! relocation map (the `memmove`-interposition + MXBean-notification scheme) and so
//! are the reclaims delivered during the collection (the `finalize`-interception
//! scheme); at GC end both are applied in one rebuild per touched shard.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use djx_memsim::Addr;
use djx_runtime::{
    AllocationEvent, GcEvent, ObjectId, ObjectMoveEvent, ObjectReclaimEvent, RuntimeListener,
};

use crate::fxhash::FxBuildHasher;
use crate::interval::Interval;
use crate::object::{AllocSiteId, MonitoredObject};
use crate::profile::AllocationStats;

use super::SharedObjectIndex;

/// Default size filter `S`: allocations smaller than 1 KiB are not monitored, matching
/// the paper's default trade-off between overhead and insight.
pub const DEFAULT_SIZE_FILTER: u64 = 1024;

/// Configuration of the allocation agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationConfig {
    /// Minimum monitored allocation size in bytes (`S`). Zero monitors every object.
    pub size_filter: u64,
    /// When `true`, objects first seen when the collector moves them (because the
    /// profiler attached after they were allocated) are inserted into the index
    /// under an unattributed site instead of being ignored — unless they are smaller
    /// than `size_filter`: the agent keeps no record of the allocations it filtered,
    /// so it re-applies the filter to the size every move and reclaim event carries,
    /// and an object it never saw allocated is judged by that size alone.
    pub attach_mode: bool,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        Self { size_filter: DEFAULT_SIZE_FILTER, attach_mode: false }
    }
}

/// One pending relocation recorded between GC start and GC end.
#[derive(Debug, Clone, Copy)]
struct PendingMove {
    object: ObjectId,
    old_addr: Addr,
    new_addr: Addr,
    size: u64,
}

/// The GC side of the agent: only GC callbacks take its mutex.
#[derive(Debug, Default)]
struct AllocationState {
    /// `true` between `on_gc_start` and `on_gc_end`: reclaims delivered meanwhile wait
    /// in `reclaimed` and are applied with the collection's moves.
    collecting: bool,
    /// The per-collection relocation map (§4.5): moves are batched here and applied to
    /// the index when the collection finishes.
    relocation_map: Vec<PendingMove>,
    /// Addresses of the objects the current collection reclaimed.
    reclaimed: Vec<Addr>,
    relocations: u64,
    unknown_moves: u64,
    reclamations: u64,
}

/// The allocation agent. See the [`crate::agent`] module documentation.
///
/// The allocation callback takes no agent lock: its counters are relaxed atomics,
/// and the per-(thread, site) allocation counts live in the allocating thread's own
/// profile (the session records them there with the site this callback returns).
#[derive(Debug)]
pub struct AllocationAgent {
    config: AllocationConfig,
    shared: Arc<SharedObjectIndex>,
    callbacks: AtomicU64,
    monitored: AtomicU64,
    filtered: AtomicU64,
    state: Mutex<AllocationState>,
}

impl AllocationAgent {
    /// Creates an agent over the shared object index.
    pub fn new(config: AllocationConfig, shared: Arc<SharedObjectIndex>) -> Self {
        Self {
            config,
            shared,
            callbacks: AtomicU64::new(0),
            monitored: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            state: Mutex::new(AllocationState::default()),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> AllocationConfig {
        self.config
    }

    /// Counters describing what the agent has seen so far.
    pub fn stats(&self) -> AllocationStats {
        let state = self.state.lock();
        AllocationStats {
            callbacks: self.callbacks.load(Ordering::Relaxed),
            monitored: self.monitored.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
            relocations: state.relocations,
            unknown_moves: state.unknown_moves,
            reclamations: state.reclamations,
        }
    }

    /// Approximate resident bytes of the agent's private state (memory-overhead
    /// accounting; the shared index is accounted separately).
    pub fn approx_bytes(&self) -> usize {
        let state = self.state.lock();
        state.relocation_map.len() * std::mem::size_of::<PendingMove>()
            + state.reclaimed.len() * std::mem::size_of::<Addr>()
    }

    /// One allocation callback: inserts a monitored object into the shared index and
    /// returns its interned site, or `None` when the size filter rejects the object.
    /// Takes no agent lock; the caller records the allocation against the site.
    pub fn on_object_alloc(&self, event: &AllocationEvent<'_>) -> Option<AllocSiteId> {
        self.callbacks.fetch_add(1, Ordering::Relaxed);
        if self.filters(event.size) {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.monitored.fetch_add(1, Ordering::Relaxed);
        let site = self.shared.sites.lock().intern(event.class_name, event.call_trace);
        self.shared.insert(
            Interval::new(event.start, event.start + event.size),
            MonitoredObject { object: event.object, site, size: event.size },
        );
        Some(site)
    }

    /// `true` for objects the size filter keeps out of the index. Allocation, move and
    /// reclaim events all carry the object's size, so the filter is re-applied to each
    /// instead of remembering which objects it rejected.
    fn filters(&self, size: u64) -> bool {
        size < self.config.size_filter
    }

    /// Applies the pending collection — its reclaims, then its moves — to the index as
    /// one batch ([`SharedObjectIndex::apply_collection`]).
    ///
    /// Every reclaim and every move's identity is resolved against the index as it
    /// stood before the collection, with read-only probes: a move applies only when
    /// its old address still holds the same object (a stale view — the profiler never
    /// saw this object's allocation, and the old range now belongs to someone else —
    /// must not disturb the live owner) and that object was not reclaimed. A
    /// mark-compact pass moves each object at most once, so no move depends on another
    /// one of the same collection.
    fn apply_collection(&self, state: &mut AllocationState) {
        state.collecting = false;
        if state.relocation_map.is_empty() && state.reclaimed.is_empty() {
            return;
        }
        let mut removed = Vec::new();
        let mut gone: HashSet<Addr, FxBuildHasher> = HashSet::with_capacity_and_hasher(
            state.reclaimed.len() + 2 * state.relocation_map.len(),
            FxBuildHasher::default(),
        );
        for addr in std::mem::take(&mut state.reclaimed) {
            if let Some((interval, _)) = self.shared.find(addr) {
                if gone.insert(interval.start) {
                    removed.push(interval);
                    state.reclamations += 1;
                }
            }
        }
        let moves = std::mem::take(&mut state.relocation_map);
        let mut added = Vec::with_capacity(moves.len());
        for mv in moves {
            let new_range = Interval::new(mv.new_addr, mv.new_addr + mv.size);
            let owner = self
                .shared
                .find(mv.old_addr)
                .filter(|(interval, mo)| mo.object == mv.object && !gone.contains(&interval.start));
            match owner {
                Some((interval, mo)) => {
                    gone.insert(interval.start);
                    removed.push(interval);
                    added.push((new_range, mo));
                    state.relocations += 1;
                }
                None if self.config.attach_mode => {
                    // Attach mode missed the allocation; insert the new range directly
                    // under the unattributed site, as §4.5 prescribes.
                    let site = self.shared.sites.lock().intern_unattributed();
                    added.push((
                        new_range,
                        MonitoredObject { object: mv.object, site, size: mv.size },
                    ));
                    state.unknown_moves += 1;
                }
                None => {}
            }
        }
        // A surviving entry containing a new range's start is stale (its reclaim never
        // arrived): it gives way, exactly as on allocation. A start inside a range this
        // collection already vacates finds that range, which `gone` already holds.
        let stale: Vec<Interval> = added
            .iter()
            .filter_map(|(interval, _)| self.shared.find(interval.start))
            .filter_map(|(stale, _)| gone.insert(stale.start).then_some(stale))
            .collect();
        removed.extend(stale);
        self.shared.apply_collection(&removed, added);
    }
}

impl RuntimeListener for AllocationAgent {
    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        AllocationAgent::on_object_alloc(self, event);
    }

    fn on_gc_start(&self, _event: &GcEvent) {
        self.state.lock().collecting = true;
    }

    fn on_object_move(&self, event: &ObjectMoveEvent) {
        if self.filters(event.size) {
            return;
        }
        // Updating the index on every memmove would be costly; record the move in the
        // relocation map and batch-apply at GC end (§4.5).
        self.state.lock().relocation_map.push(PendingMove {
            object: event.object,
            old_addr: event.old_addr,
            new_addr: event.new_addr,
            size: event.size,
        });
    }

    fn on_gc_end(&self, _event: &GcEvent) {
        let mut state = self.state.lock();
        self.apply_collection(&mut state);
    }

    fn on_object_reclaim(&self, event: &ObjectReclaimEvent) {
        if self.filters(event.size) {
            return;
        }
        let mut state = self.state.lock();
        if state.collecting {
            state.reclaimed.push(event.addr);
        } else if self.shared.remove(event.addr).is_some() {
            state.reclamations += 1;
        }
    }

    fn on_vm_end(&self) {
        // Apply a collection that never delivered its end notification (e.g. the
        // program exited mid-GC).
        let mut state = self.state.lock();
        self.apply_collection(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_runtime::{ClassId, Frame, GcId, MethodId, ThreadId};

    fn alloc_event<'a>(
        object: u64,
        start: Addr,
        size: u64,
        class_name: &'a str,
        trace: &'a [Frame],
    ) -> AllocationEvent<'a> {
        AllocationEvent {
            object: ObjectId(object),
            class: ClassId(0),
            class_name,
            start,
            size,
            thread: ThreadId(1),
            call_trace: trace,
        }
    }

    fn agent(config: AllocationConfig) -> (AllocationAgent, Arc<SharedObjectIndex>) {
        let shared = SharedObjectIndex::new();
        (AllocationAgent::new(config, shared.clone()), shared)
    }

    #[test]
    fn monitored_allocation_is_inserted_and_interned() {
        let (agent, shared) = agent(AllocationConfig::default());
        let trace = [Frame::new(MethodId(3), 5)];
        let site = agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &trace));

        assert_eq!(site, Some(AllocSiteId(0)));
        assert_eq!(shared.live_objects(), 1);
        assert_eq!(shared.site_count(), 1);
        let mo = shared.lookup(0x17ff).unwrap().1;
        assert_eq!(mo.object, ObjectId(1));
        assert_eq!(mo.size, 2048);
        let stats = agent.stats();
        assert_eq!(stats.callbacks, 1);
        assert_eq!(stats.monitored, 1);
        assert_eq!(stats.filtered, 0);
    }

    #[test]
    fn size_filter_skips_small_objects() {
        let (agent, shared) = agent(AllocationConfig { size_filter: 1024, attach_mode: false });
        assert_eq!(agent.on_object_alloc(&alloc_event(1, 0x1000, 64, "small", &[])), None);
        assert!(agent.on_object_alloc(&alloc_event(2, 0x2000, 4096, "big[]", &[])).is_some());
        assert_eq!(shared.live_objects(), 1);
        let stats = agent.stats();
        assert_eq!(stats.filtered, 1);
        assert_eq!(stats.monitored, 1);
        assert!(shared.lookup(0x1000).is_none());
        assert!(shared.lookup(0x2000).is_some());
    }

    #[test]
    fn size_filter_zero_monitors_everything() {
        let (agent, shared) = agent(AllocationConfig { size_filter: 0, attach_mode: false });
        for i in 0..10u64 {
            agent.on_object_alloc(&alloc_event(i, 0x1000 + i * 0x100, 32, "tiny", &[]));
        }
        assert_eq!(shared.live_objects(), 10);
        assert_eq!(agent.stats().filtered, 0);
    }

    #[test]
    fn same_call_path_shares_a_site() {
        let (agent, shared) = agent(AllocationConfig::default());
        let trace = [Frame::new(MethodId(1), 5), Frame::new(MethodId(2), 9)];
        let first = agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &trace));
        let second = agent.on_object_alloc(&alloc_event(2, 0x2000, 2048, "float[]", &trace));
        assert_eq!(shared.site_count(), 1, "objects from one site share the call path");
        assert_eq!(shared.live_objects(), 2);
        assert_eq!((first, second), (Some(AllocSiteId(0)), Some(AllocSiteId(0))));
    }

    #[test]
    fn moves_are_batched_and_applied_at_gc_end() {
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &[]));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(1),
            old_addr: 0x1000,
            new_addr: 0x8000,
            size: 2048,
        });
        // Before the GC-end notification the tree still maps the old range.
        assert!(shared.lookup(0x1400).is_some());
        assert!(shared.lookup(0x8400).is_none());

        agent.on_gc_end(&GcEvent {
            gc: GcId(1),
            heap_used: 0,
            objects_moved: 1,
            objects_reclaimed: 0,
        });
        assert!(shared.lookup(0x1400).is_none());
        let mo = shared.lookup(0x8400).unwrap().1;
        assert_eq!(mo.object, ObjectId(1));
        assert_eq!(agent.stats().relocations, 1);
    }

    #[test]
    fn overlapping_slide_moves_keep_one_consistent_entry() {
        // Sliding compaction: the new range overlaps the old one (the remove-first
        // ordering this case requires must not corrupt the disjointness invariant).
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x2000, 0x2000, "slide[]", &[]));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(1),
            old_addr: 0x2000,
            new_addr: 0x1000,
            size: 0x2000,
        });
        agent.on_gc_end(&GcEvent {
            gc: GcId(1),
            heap_used: 0,
            objects_moved: 1,
            objects_reclaimed: 0,
        });
        assert_eq!(shared.live_objects(), 1);
        let mo = shared.lookup(0x1800).unwrap().1;
        assert_eq!(mo.object, ObjectId(1));
        // The non-overlapping tail of the old range no longer resolves.
        assert!(shared.lookup(0x3800).is_none());
        assert_eq!(agent.stats().relocations, 1);
    }

    #[test]
    fn stale_move_leaves_the_unrelated_owner_untouched() {
        // The old address now belongs to a different object (the profiler's view was
        // stale); the move must not disturb the live owner, and without attach mode the
        // unknown object stays untracked.
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(5, 0x1000, 2048, "owner[]", &[]));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(9), // never allocated through the agent
            old_addr: 0x1000,
            new_addr: 0x8000,
            size: 2048,
        });
        agent.on_gc_end(&GcEvent {
            gc: GcId(1),
            heap_used: 0,
            objects_moved: 1,
            objects_reclaimed: 0,
        });
        assert_eq!(shared.lookup(0x1400).unwrap().1.object, ObjectId(5));
        assert!(shared.lookup(0x8400).is_none());
        assert_eq!(agent.stats().relocations, 0);
        assert_eq!(agent.stats().unknown_moves, 0);
        // The identity probe is visible in the read-side statistics.
        assert!(shared.lookup_stats().read_lookups > 0);
    }

    #[test]
    fn moves_of_filtered_objects_are_ignored() {
        let (agent, shared) = agent(AllocationConfig { size_filter: 1024, attach_mode: true });
        agent.on_object_alloc(&alloc_event(1, 0x1000, 64, "tiny", &[]));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(1),
            old_addr: 0x1000,
            new_addr: 0x9000,
            size: 64,
        });
        agent.on_gc_end(&GcEvent {
            gc: GcId(1),
            heap_used: 0,
            objects_moved: 1,
            objects_reclaimed: 0,
        });
        assert_eq!(shared.live_objects(), 0);
        assert_eq!(agent.stats().unknown_moves, 0);
    }

    #[test]
    fn unknown_moves_inserted_only_in_attach_mode() {
        for (attach, expected_live, expected_unknown) in [(false, 0usize, 0u64), (true, 1, 1)] {
            let (agent, shared) =
                agent(AllocationConfig { size_filter: 1024, attach_mode: attach });
            // No allocation was ever reported for object 7 (attached too late).
            agent.on_object_move(&ObjectMoveEvent {
                gc: GcId(1),
                object: ObjectId(7),
                old_addr: 0x5000,
                new_addr: 0x6000,
                size: 4096,
            });
            agent.on_gc_end(&GcEvent {
                gc: GcId(1),
                heap_used: 0,
                objects_moved: 1,
                objects_reclaimed: 0,
            });
            assert_eq!(shared.live_objects(), expected_live, "attach={attach}");
            assert_eq!(agent.stats().unknown_moves, expected_unknown);
            if attach {
                let mo = shared.lookup(0x6100).unwrap().1;
                let sites = shared.sites.lock();
                assert!(sites.get(mo.site).unwrap().is_unattributed());
            }
        }
    }

    #[test]
    fn unknown_moves_below_the_size_filter_are_skipped_in_attach_mode() {
        // The agent keeps no record of filtered allocations, so an unknown object is
        // judged by the size its move carries: a small one stays untracked even in
        // attach mode, a large one is inserted under the unattributed site.
        let (agent, shared) = agent(AllocationConfig { size_filter: 1024, attach_mode: true });
        for (object, old_addr, size) in [(7u64, 0x5000, 512u64), (8, 0x9000, 1024)] {
            agent.on_object_move(&ObjectMoveEvent {
                gc: GcId(1),
                object: ObjectId(object),
                old_addr,
                new_addr: old_addr + 0x1000,
                size,
            });
        }
        agent.on_gc_end(&GcEvent {
            gc: GcId(1),
            heap_used: 0,
            objects_moved: 2,
            objects_reclaimed: 0,
        });
        assert!(shared.lookup(0x6100).is_none(), "the 512-byte object stays untracked");
        assert_eq!(shared.lookup(0xa100).unwrap().1.object, ObjectId(8));
        assert_eq!(shared.live_objects(), 1);
        assert_eq!(agent.stats().unknown_moves, 1);
    }

    #[test]
    fn reclamation_removes_from_tree() {
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &[]));
        agent.on_object_reclaim(&ObjectReclaimEvent {
            gc: GcId(1),
            object: ObjectId(1),
            addr: 0x1000,
            size: 2048,
            class: ClassId(0),
        });
        assert_eq!(shared.live_objects(), 0);
        assert_eq!(agent.stats().reclamations, 1);
        // Reclaiming an unknown object is a no-op.
        agent.on_object_reclaim(&ObjectReclaimEvent {
            gc: GcId(1),
            object: ObjectId(9),
            addr: 0xdead,
            size: 64,
            class: ClassId(0),
        });
        assert_eq!(agent.stats().reclamations, 1);
    }

    fn gc_event(gc: u64) -> GcEvent {
        GcEvent { gc: GcId(gc), heap_used: 0, objects_moved: 0, objects_reclaimed: 0 }
    }

    #[test]
    fn reclaims_during_a_collection_apply_at_its_end() {
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &[]));
        let before = agent.approx_bytes();
        agent.on_gc_start(&gc_event(1));
        agent.on_object_reclaim(&ObjectReclaimEvent {
            gc: GcId(1),
            object: ObjectId(1),
            addr: 0x1000,
            size: 2048,
            class: ClassId(0),
        });
        assert_eq!(shared.live_objects(), 1, "applied with the collection, not before");
        assert!(agent.approx_bytes() > before, "the pending reclaim is agent state");
        agent.on_gc_end(&gc_event(1));
        assert_eq!(shared.live_objects(), 0);
        assert!(shared.lookup(0x1400).is_none());
        assert_eq!(agent.stats().reclamations, 1);
        assert_eq!(agent.approx_bytes(), before);
    }

    #[test]
    fn a_move_onto_a_stale_entry_replaces_every_copy_of_it() {
        // Object 1 spans three regions (three shards) and its reclaim never arrives; a
        // collection then slides object 2 into the middle of its range.
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 0x4000, "stale[]", &[]));
        agent.on_object_alloc(&alloc_event(2, 0x9000, 0x1000, "live[]", &[]));
        agent.on_gc_start(&gc_event(1));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(2),
            old_addr: 0x9000,
            new_addr: 0x2000,
            size: 0x1000,
        });
        agent.on_gc_end(&gc_event(1));
        assert_eq!(shared.lookup(0x2100).unwrap().1.object, ObjectId(2));
        for addr in [0x1100u64, 0x4100, 0x9100] {
            assert!(shared.lookup(addr).is_none(), "{addr:#x} must not resolve");
        }
        assert_eq!(shared.live_objects(), 1);
        let stats = agent.stats();
        assert_eq!((stats.relocations, stats.reclamations), (1, 0));
    }

    #[test]
    fn address_reuse_after_missed_reclaim_replaces_stale_entry() {
        // If the profiler somehow misses a reclamation (the paper's correctness concern
        // in §4.5), a new allocation reusing the range must win the index entry so
        // samples are not attributed to the dead object.
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "old[]", &[]));
        agent.on_object_alloc(&alloc_event(2, 0x1000, 2048, "new[]", &[]));
        assert_eq!(shared.live_objects(), 1);
        let mo = shared.lookup(0x1400).unwrap().1;
        assert_eq!(mo.object, ObjectId(2));
    }

    #[test]
    fn vm_end_flushes_pending_relocations() {
        let (agent, shared) = agent(AllocationConfig::default());
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &[]));
        agent.on_object_move(&ObjectMoveEvent {
            gc: GcId(1),
            object: ObjectId(1),
            old_addr: 0x1000,
            new_addr: 0x4000,
            size: 2048,
        });
        agent.on_vm_end();
        assert!(shared.lookup(0x4100).is_some());
    }

    #[test]
    fn approx_bytes_reflects_state_growth() {
        let (agent, _shared) = agent(AllocationConfig { size_filter: 1024, attach_mode: false });
        let before = agent.approx_bytes();
        // Filtered allocations (and their reclaims) leave no state behind.
        for i in 0..100u64 {
            agent.on_object_alloc(&alloc_event(i, 0x1000 + i * 0x100, 64, "tiny", &[]));
        }
        assert_eq!(agent.approx_bytes(), before);
        for i in 0..100u64 {
            agent.on_object_reclaim(&ObjectReclaimEvent {
                gc: GcId(1),
                object: ObjectId(i),
                addr: 0x1000 + i * 0x100,
                size: 64,
                class: ClassId(0),
            });
        }
        assert_eq!(agent.approx_bytes(), before);
        assert_eq!(agent.stats().filtered, 100);
        // Monitored allocations keep no per-allocation state in the agent either (their
        // counts live in the allocating thread's profile); pending relocations do, until
        // the collection ends and applies them.
        for i in 0..10u64 {
            let trace = [Frame::new(MethodId(i as u32), 0)];
            let addr = 0x10_0000 + i * 0x1000;
            agent.on_object_alloc(&alloc_event(100 + i, addr, 2048, "big[]", &trace));
            agent.on_object_move(&ObjectMoveEvent {
                gc: GcId(2),
                object: ObjectId(100 + i),
                old_addr: addr,
                new_addr: addr + 0x100_0000,
                size: 2048,
            });
        }
        assert!(agent.approx_bytes() > before);
        agent.on_gc_end(&GcEvent {
            gc: GcId(2),
            heap_used: 0,
            objects_moved: 10,
            objects_reclaimed: 0,
        });
        assert_eq!(agent.approx_bytes(), before);
        assert_eq!(agent.stats().relocations, 10);
    }
}
