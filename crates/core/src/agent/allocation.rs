//! The allocation ("Java") agent.
//!
//! Mirrors §4.1/§4.5 of the paper: ASM instrumentation of `new`/`newarray`/`anewarray`/
//! `multianewarray` delivers every object allocation (pointer, type, size, allocation
//! call path); the agent filters allocations smaller than the configurable size `S`
//! (1 KiB by default), inserts monitored objects into the shared interval splay tree,
//! batches GC-time relocations in a per-collection relocation map and applies them at GC
//! end (the `memmove`-interposition + MXBean-notification scheme), and removes reclaimed
//! objects (the `finalize`-interception scheme).

use std::sync::Arc;

use parking_lot::Mutex;

use djx_memsim::Addr;
use djx_runtime::{
    AllocationEvent, GcEvent, ObjectId, ObjectMoveEvent, ObjectReclaimEvent, RuntimeListener,
    ThreadId,
};

use crate::fxhash::FxHashMap;
use crate::object::{AllocSiteId, MonitoredObject};
use crate::profile::AllocationStats;
use crate::splay::Interval;

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
    /// profiler attached after they were allocated) are inserted into the splay tree
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

#[derive(Debug, Default)]
struct AllocationState {
    /// The per-collection relocation map (§4.5): moves are batched here and applied to
    /// the splay tree when the collection finishes.
    relocation_map: Vec<PendingMove>,
    /// Per (allocating thread, site) allocation counts and bytes, merged into the
    /// thread profiles when the final profile is assembled.
    allocations: FxHashMap<(ThreadId, AllocSiteId), (u64, u64)>,
    stats: AllocationStats,
}

/// The allocation agent. See the [`crate::agent`] module documentation.
#[derive(Debug)]
pub struct AllocationAgent {
    config: AllocationConfig,
    shared: Arc<SharedObjectIndex>,
    state: Mutex<AllocationState>,
}

impl AllocationAgent {
    /// Creates an agent over the shared object index.
    pub fn new(config: AllocationConfig, shared: Arc<SharedObjectIndex>) -> Self {
        Self { config, shared, state: Mutex::new(AllocationState::default()) }
    }

    /// The agent's configuration.
    pub fn config(&self) -> AllocationConfig {
        self.config
    }

    /// Counters describing what the agent has seen so far.
    pub fn stats(&self) -> AllocationStats {
        self.state.lock().stats
    }

    /// Snapshot of per-(thread, site) allocation counts and bytes.
    pub fn allocations_by_thread(&self) -> Vec<(ThreadId, AllocSiteId, u64, u64)> {
        let state = self.state.lock();
        let mut v: Vec<_> = state
            .allocations
            .iter()
            .map(|((t, s), (count, bytes))| (*t, *s, *count, *bytes))
            .collect();
        v.sort_unstable_by_key(|(t, s, _, _)| (*t, *s));
        v
    }

    /// Approximate resident bytes of the agent's private state (memory-overhead
    /// accounting; the shared splay tree is accounted separately).
    pub fn approx_bytes(&self) -> usize {
        let state = self.state.lock();
        state.relocation_map.len() * std::mem::size_of::<PendingMove>()
            + state.allocations.len()
                * (std::mem::size_of::<(ThreadId, AllocSiteId)>()
                    + std::mem::size_of::<(u64, u64)>())
    }

    /// `true` for objects the size filter keeps out of the index. Allocation, move and
    /// reclaim events all carry the object's size, so the filter is re-applied to each
    /// instead of remembering which objects it rejected.
    fn filters(&self, size: u64) -> bool {
        size < self.config.size_filter
    }

    fn apply_relocations(&self, state: &mut AllocationState) {
        if state.relocation_map.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.relocation_map);
        for mv in pending {
            // Identity check via a read-only probe: a stale view (the profiler never
            // saw this object's allocation, and the old range now belongs to someone
            // else) must not disturb whatever live object owns the range. `find` also
            // keeps the probe out of the hot-path splay statistics.
            let monitored = self
                .shared
                .find(mv.old_addr)
                .filter(|(_, mo)| mo.object == mv.object)
                .map(|(_, mo)| mo);
            match monitored {
                Some(mo) => {
                    let new_range = Interval::new(mv.new_addr, mv.new_addr + mv.size);
                    let overlaps =
                        mv.new_addr < mv.old_addr + mv.size && mv.old_addr < mv.new_addr + mv.size;
                    if overlaps {
                        // Sliding compaction: the ranges overlap, so the old entry must
                        // come out first to keep each shard tree's intervals disjoint.
                        self.shared.remove(mv.old_addr);
                        self.shared.insert(new_range, mo);
                    } else {
                        // Disjoint move: publish the new range before retiring the old
                        // one, so a concurrently sampling thread resolves the object at
                        // every instant of the move (both ranges name the same site).
                        self.shared.insert(new_range, mo);
                        self.shared.remove(mv.old_addr);
                    }
                    state.stats.relocations += 1;
                }
                None if self.config.attach_mode => {
                    // Attach mode missed the allocation; insert the new range directly
                    // under the unattributed site, as §4.5 prescribes.
                    let site = self.shared.sites.lock().intern_unattributed();
                    self.shared.insert(
                        Interval::new(mv.new_addr, mv.new_addr + mv.size),
                        MonitoredObject { object: mv.object, site, size: mv.size },
                    );
                    state.stats.unknown_moves += 1;
                }
                None => {}
            }
        }
    }
}

impl RuntimeListener for AllocationAgent {
    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        let mut state = self.state.lock();
        state.stats.callbacks += 1;
        if self.filters(event.size) {
            state.stats.filtered += 1;
            return;
        }
        state.stats.monitored += 1;

        let site = self.shared.sites.lock().intern(event.class_name, event.call_trace);
        let entry = state.allocations.entry((event.thread, site)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += event.size;

        self.shared.insert(
            Interval::new(event.start, event.start + event.size),
            MonitoredObject { object: event.object, site, size: event.size },
        );
    }

    fn on_object_move(&self, event: &ObjectMoveEvent) {
        if self.filters(event.size) {
            return;
        }
        // Updating the splay tree on every memmove would be costly; record the move in
        // the relocation map and batch-apply at GC end (§4.5).
        self.state.lock().relocation_map.push(PendingMove {
            object: event.object,
            old_addr: event.old_addr,
            new_addr: event.new_addr,
            size: event.size,
        });
    }

    fn on_gc_end(&self, _event: &GcEvent) {
        let mut state = self.state.lock();
        self.apply_relocations(&mut state);
    }

    fn on_object_reclaim(&self, event: &ObjectReclaimEvent) {
        if self.filters(event.size) {
            return;
        }
        let mut state = self.state.lock();
        if self.shared.remove(event.addr).is_some() {
            state.stats.reclamations += 1;
        }
    }

    fn on_vm_end(&self) {
        // Apply any moves from a collection that never delivered its end notification
        // (e.g. the program exited mid-GC).
        let mut state = self.state.lock();
        self.apply_relocations(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_runtime::{ClassId, Frame, GcId, MethodId};

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
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &trace));

        assert_eq!(shared.live_objects(), 1);
        assert_eq!(shared.site_count(), 1);
        let mo = shared.lookup(0x17ff).unwrap().1;
        assert_eq!(mo.object, ObjectId(1));
        assert_eq!(mo.size, 2048);
        let stats = agent.stats();
        assert_eq!(stats.callbacks, 1);
        assert_eq!(stats.monitored, 1);
        assert_eq!(stats.filtered, 0);
        let allocs = agent.allocations_by_thread();
        assert_eq!(allocs, vec![(ThreadId(1), AllocSiteId(0), 1, 2048)]);
    }

    #[test]
    fn size_filter_skips_small_objects() {
        let (agent, shared) = agent(AllocationConfig { size_filter: 1024, attach_mode: false });
        agent.on_object_alloc(&alloc_event(1, 0x1000, 64, "small", &[]));
        agent.on_object_alloc(&alloc_event(2, 0x2000, 4096, "big[]", &[]));
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
        agent.on_object_alloc(&alloc_event(1, 0x1000, 2048, "float[]", &trace));
        agent.on_object_alloc(&alloc_event(2, 0x2000, 2048, "float[]", &trace));
        assert_eq!(shared.site_count(), 1, "objects from one site share the call path");
        assert_eq!(shared.live_objects(), 2);
        assert_eq!(agent.allocations_by_thread(), vec![(ThreadId(1), AllocSiteId(0), 2, 4096)]);
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

    #[test]
    fn address_reuse_after_missed_reclaim_replaces_stale_entry() {
        // If the profiler somehow misses a reclamation (the paper's correctness concern
        // in §4.5), a new allocation reusing the range must win the splay-tree entry so
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
        // Monitored allocations grow the per-(thread, site) allocation table.
        for i in 0..10u64 {
            let trace = [Frame::new(MethodId(i as u32), 0)];
            agent.on_object_alloc(&alloc_event(
                100 + i,
                0x10_0000 + i * 0x1000,
                2048,
                "big[]",
                &trace,
            ));
        }
        assert!(agent.approx_bytes() > before);
    }
}
