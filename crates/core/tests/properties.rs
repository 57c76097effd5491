//! Property-based tests over the profiler's core data structures: the interval index,
//! the sharded object index and the allocation agent's batched collections are checked
//! against a naive model, the calling context tree against path
//! round-trips and merge conservation, the metric vector against merge algebra, the
//! binary profile codec against arbitrary profiles, and the render-only text form
//! against every single-field mutation (it must tell any two profiles apart). Streamed
//! sessions are checked against a sequential replay, and their code-centric and NUMA
//! queries against an independent reference profiler with a PMU of its own, fed the
//! same accesses. Query evaluation — cold, folded and live, every axis — is checked
//! against a naive reference evaluator.

use std::collections::HashMap;

use proptest::prelude::*;

use djx_memsim::{AccessKind, NumaNode};
use djx_pmu::{PerfEventBuilder, PmuEvent, Sample, ThreadPmu};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcEvent, GcId, MethodId, ObjectId, ObjectMoveEvent,
    ObjectReclaimEvent, RuntimeListener, ThreadId,
};
use djxperf::{
    AccessContext, AllocSite, AllocSiteId, AllocSiteRegistry, AllocationAgent, AllocationConfig,
    AllocationStats, BinaryChunkedSink, Cct, DeltaFold, GroupBy, GroupKey, Interval, IntervalIndex,
    LiveFold, Locality, MetricVector, MonitoredObject, MultiSource, ObjectCentricProfile,
    ProfileDelta, ProfilerConfig, Query, QueryGroup, QueryResult, RankBy, SharedObjectIndex,
    ThreadDelta, ThreadProfile,
};

// --------------------------------------------------------------------------------------
// Interval index vs a naive model
// --------------------------------------------------------------------------------------

/// Operations over disjoint, slot-aligned intervals (the way heap objects behave).
#[derive(Debug, Clone)]
enum TreeOp {
    Insert { slot: u64, len: u64, value: u64 },
    Remove { slot: u64 },
    Lookup { slot: u64, offset: u64 },
}

const SLOT_SIZE: u64 = 0x1000;
const SLOTS: u64 = 64;

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0..SLOTS, 1..SLOT_SIZE, any::<u64>()).prop_map(|(slot, len, value)| TreeOp::Insert {
            slot,
            len,
            value
        }),
        (0..SLOTS).prop_map(|slot| TreeOp::Remove { slot }),
        (0..SLOTS, 0..SLOT_SIZE).prop_map(|(slot, offset)| TreeOp::Lookup { slot, offset }),
    ]
}

/// The address → object half of a naive profiler: every monitored object as a
/// `(range, record)` pair, resolved by linear scan. The reference the sharded index
/// and the allocation agent's collections are checked against.
#[derive(Debug, Default)]
struct NaiveIndex {
    entries: Vec<(Interval, MonitoredObject)>,
}

impl NaiveIndex {
    fn lookup(&self, addr: u64) -> Option<(Interval, MonitoredObject)> {
        self.entries.iter().find(|(interval, _)| interval.contains(addr)).copied()
    }

    fn remove(&mut self, addr: u64) -> Option<(Interval, MonitoredObject)> {
        let at = self.entries.iter().position(|(interval, _)| interval.contains(addr))?;
        Some(self.entries.swap_remove(at))
    }

    /// Replaces the entry containing `interval.start`, if any, like an allocation
    /// reusing the range of an object whose reclaim was missed.
    fn insert(&mut self, interval: Interval, mo: MonitoredObject) -> Option<MonitoredObject> {
        let old = self.remove(interval.start).map(|(_, old)| old);
        self.entries.push((interval, mo));
        old
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The interval index agrees with a hash-map model under arbitrary
    /// insert/remove/lookup sequences over disjoint intervals, and its iteration stays
    /// sorted.
    #[test]
    fn splay_tree_matches_naive_model(ops in prop::collection::vec(tree_op(), 1..200)) {
        let mut tree: IntervalIndex<u64> = IntervalIndex::new();
        // Model: slot -> (length, value).
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();

        for op in ops {
            match op {
                TreeOp::Insert { slot, len, value } => {
                    let start = slot * SLOT_SIZE;
                    let replaced = tree.insert(Interval::new(start, start + len), value);
                    let model_replaced = model.insert(slot, (len, value));
                    prop_assert_eq!(replaced.map(|(iv, v)| (iv.len(), v)), model_replaced);
                }
                TreeOp::Remove { slot } => {
                    let removed = tree.remove(slot * SLOT_SIZE).map(|(iv, v)| (iv.len(), v));
                    let model_removed = model.remove(&slot);
                    prop_assert_eq!(removed, model_removed);
                }
                TreeOp::Lookup { slot, offset } => {
                    let found = tree.lookup(slot * SLOT_SIZE + offset).map(|(_, v)| *v);
                    let expected = model
                        .get(&slot)
                        .filter(|(len, _)| offset < *len)
                        .map(|(_, v)| *v);
                    prop_assert_eq!(found, expected);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }

        // Iteration is sorted by start address and covers exactly the model.
        let entries: Vec<(u64, u64)> = tree.iter().map(|(iv, v)| (iv.start, *v)).collect();
        let mut starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&starts, &sorted);
        starts.dedup();
        prop_assert_eq!(starts.len(), model.len());
    }

    /// The sharded object index agrees with the naive model under arbitrary
    /// insert/remove/lookup sequences — including objects that span several shard
    /// regions — and its distinct-object count matches.
    #[test]
    fn sharded_index_matches_single_tree(
        ops in prop::collection::vec(tree_op(), 1..200),
        shards in (0u32..5).prop_map(|i| 1usize << i),
    ) {
        // Span shard regions: scale slots up to 2 regions each so intervals regularly
        // cross region (and thus shard) boundaries.
        let scale = 2 * (1u64 << 13) / SLOT_SIZE;
        let index = SharedObjectIndex::with_shards(shards);
        let mut reference = NaiveIndex::default();

        for op in ops {
            match op {
                TreeOp::Insert { slot, len, value } => {
                    let start = slot * SLOT_SIZE * scale;
                    let interval = Interval::new(start, start + len * scale);
                    let mo = MonitoredObject {
                        object: ObjectId(value),
                        site: AllocSiteId((value % 7) as u32),
                        size: len * scale,
                    };
                    let replaced = index.insert(interval, mo).map(|m| m.object);
                    let expected = reference.insert(interval, mo).map(|m| m.object);
                    prop_assert_eq!(replaced, expected);
                }
                TreeOp::Remove { slot } => {
                    let addr = slot * SLOT_SIZE * scale;
                    let removed = index.remove(addr).map(|(iv, m)| (iv, m.object));
                    let expected = reference.remove(addr).map(|(iv, m)| (iv, m.object));
                    prop_assert_eq!(removed, expected);
                }
                TreeOp::Lookup { slot, offset } => {
                    let addr = slot * SLOT_SIZE * scale + offset * scale;
                    let found = index.lookup(addr).map(|(iv, m)| (iv, m.object));
                    let by_find = index.find(addr).map(|(iv, m)| (iv, m.object));
                    let expected = reference.lookup(addr).map(|(iv, m)| (iv, m.object));
                    prop_assert_eq!(found, expected);
                    prop_assert_eq!(by_find, expected);
                }
            }
            prop_assert_eq!(index.live_objects(), reference.len());
        }
    }

    /// Batch resolution ([`SharedObjectIndex::resolve_batch`], the sample path) agrees
    /// with the naive model under arbitrary interleavings of insert, free, relocation
    /// and resolution. Every check resolves a multi-address batch, so the shard guard
    /// is reused across same-shard addresses and switched between shards, and a freed
    /// or moved object never resolves at its old range.
    #[test]
    fn batch_resolution_matches_naive_index_under_insert_free_relocate(
        ops in prop::collection::vec(
            prop_oneof![
                (0..SLOTS, 1..SLOT_SIZE, any::<u64>())
                    .prop_map(|(slot, len, value)| TreeOp::Insert { slot, len, value }),
                (0..SLOTS).prop_map(|slot| TreeOp::Remove { slot }),
                // The lookup arm appears twice: resolution is the common operation.
                (0..SLOTS, 0..SLOT_SIZE).prop_map(|(slot, offset)| TreeOp::Lookup {
                    slot,
                    offset
                }),
                (0..SLOTS, 0..SLOT_SIZE).prop_map(|(slot, offset)| TreeOp::Lookup {
                    slot,
                    offset
                }),
            ],
            1..250,
        ),
        relocations in prop::collection::vec((0..SLOTS, 0..SLOTS), 0..40),
        shards in (0u32..5).prop_map(|i| 1usize << i),
    ) {
        // Scale slots to two shard regions each so objects span shards regularly.
        let scale = 2 * (1u64 << 13) / SLOT_SIZE;
        let index = SharedObjectIndex::with_shards(shards);
        let mut reference = NaiveIndex::default();
        let mut relocations = relocations.into_iter();
        let mut resolved = 0u64;

        let mut resolve = |addrs: &[u64]| -> Vec<Option<u32>> {
            let mut out = Vec::new();
            index.resolve_batch(addrs.iter(), &mut out);
            resolved += addrs.len() as u64;
            out.into_iter().map(|site| site.map(|site| site.0)).collect()
        };
        let expect = |reference: &NaiveIndex, addrs: &[u64]| -> Vec<Option<u32>> {
            addrs.iter().map(|&addr| reference.lookup(addr).map(|(_, m)| m.site.0)).collect()
        };

        for op in ops {
            match op {
                TreeOp::Insert { slot, len, value } => {
                    let start = slot * SLOT_SIZE * scale;
                    let end = start + len * scale;
                    let interval = Interval::new(start, end);
                    let mo = MonitoredObject {
                        object: ObjectId(value),
                        site: AllocSiteId(value as u32),
                        size: len * scale,
                    };
                    index.insert(interval, mo);
                    reference.insert(interval, mo);
                    // The freshly inserted object resolves immediately at both ends.
                    let batch = [start, end - 1, end];
                    let got = resolve(&batch);
                    prop_assert_eq!(got[..2].to_vec(), vec![Some(value as u32); 2]);
                    prop_assert_eq!(got, expect(&reference, &batch));
                }
                TreeOp::Remove { slot } => {
                    let addr = slot * SLOT_SIZE * scale;
                    let removed = index.remove(addr).map(|(_, m)| m.object);
                    let expected = reference.remove(addr).map(|(_, m)| m.object);
                    prop_assert_eq!(removed, expected);
                    // A freed object never resolves again.
                    let batch = [addr, addr + 1, addr + SLOT_SIZE * scale];
                    let got = resolve(&batch);
                    prop_assert_eq!(got[0], None);
                    prop_assert_eq!(got, expect(&reference, &batch));
                }
                TreeOp::Lookup { slot, offset } => {
                    let addr = slot * SLOT_SIZE * scale + offset * scale;
                    // Neighbouring slots share the address's shard or cross into the
                    // next one, so the batch both reuses and switches the guard.
                    let batch = [addr, addr + scale, addr + SLOT_SIZE * scale, addr];
                    prop_assert_eq!(resolve(&batch), expect(&reference, &batch));
                    // Interleave a relocation after some resolutions: move the object
                    // owning `from` (if any) to slot `to` with a single remove+insert.
                    if let Some((from, to)) = relocations.next() {
                        let from_addr = from * SLOT_SIZE * scale;
                        if let Some((iv, mo)) = reference.remove(from_addr) {
                            let moved = index.remove(from_addr).map(|(i, m)| (i, m.object));
                            prop_assert_eq!(moved, Some((iv, mo.object)));
                            let to_addr = to * SLOT_SIZE * scale;
                            // Clear the destination first (the heap would).
                            index.remove(to_addr);
                            reference.remove(to_addr);
                            let new_iv = Interval::new(to_addr, to_addr + iv.len());
                            index.insert(new_iv, mo);
                            reference.insert(new_iv, mo);
                            // Old range is cold, new range resolves — immediately.
                            let batch = [from_addr, to_addr, new_iv.end - 1];
                            let got = resolve(&batch);
                            prop_assert_eq!(got[1], Some(mo.site.0));
                            prop_assert_eq!(got, expect(&reference, &batch));
                        }
                    }
                }
            }
            prop_assert_eq!(index.live_objects(), reference.len());
        }
        // Every resolved address was one shard lookup.
        prop_assert_eq!(index.lookup_stats().lookups, resolved);
    }

    /// `find` (read-only, separately counted) and `lookup` always agree.
    #[test]
    fn splay_find_and_lookup_agree(
        slots in prop::collection::btree_set(0..SLOTS, 1..32),
        probes in prop::collection::vec((0..SLOTS, 0..SLOT_SIZE), 1..64),
    ) {
        let mut tree: IntervalIndex<u64> = IntervalIndex::new();
        for &slot in &slots {
            let start = slot * SLOT_SIZE;
            tree.insert(Interval::new(start, start + SLOT_SIZE / 2), slot);
        }
        for (slot, offset) in probes {
            let addr = slot * SLOT_SIZE + offset;
            let by_find = tree.find(addr).map(|(_, v)| *v);
            let by_lookup = tree.lookup(addr).map(|(_, v)| *v);
            prop_assert_eq!(by_find, by_lookup);
        }
    }
}

// --------------------------------------------------------------------------------------
// Allocation-agent collections vs the naive model
// --------------------------------------------------------------------------------------

/// One step of a simulated heap the allocation agent observes.
#[derive(Debug, Clone)]
enum HeapOp {
    /// Bump-allocate an object; `seen: false` models an object allocated before the
    /// profiler attached, whose allocation the agent never hears of.
    Alloc { size: u64, seen: bool },
    /// Reclaim an object right away, outside any collection.
    Free { pick: usize },
    /// An object dies; the next collection reclaims it.
    Kill { pick: usize },
    /// Resolve an address relative to an object's start (possibly past its end).
    Lookup { pick: usize, offset: u64 },
    /// A collection: a sliding mark-compact pass (moves overlap their old ranges when
    /// the slide is shorter than the object, and reuse reclaimed ranges) or an
    /// evacuation to fresh space (disjoint moves). `reclaims_first` delivers the
    /// reclaims before the moves instead of after.
    Collect { evacuate: bool, reclaims_first: bool },
}

/// Object sizes: one below the size filter, the rest spanning up to three 8 KiB
/// regions (and thus shards).
const HEAP_SIZES: [u64; 5] = [0x200, 0x800, 0x1000, 0x3000, 0x5000];
const HEAP_FILTER: u64 = 0x400;
const HEAP_BASE: u64 = 0x10_0000;

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0..HEAP_SIZES.len(), 0u32..4)
            .prop_map(|(i, seen)| HeapOp::Alloc { size: HEAP_SIZES[i], seen: seen != 0 }),
        (0..HEAP_SIZES.len(), 0u32..4)
            .prop_map(|(i, seen)| HeapOp::Alloc { size: HEAP_SIZES[i], seen: seen != 0 }),
        any::<usize>().prop_map(|pick| HeapOp::Free { pick }),
        any::<usize>().prop_map(|pick| HeapOp::Kill { pick }),
        any::<usize>().prop_map(|pick| HeapOp::Kill { pick }),
        (any::<usize>(), 0..0x6000u64).prop_map(|(pick, offset)| HeapOp::Lookup { pick, offset }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(evacuate, reclaims_first)| HeapOp::Collect { evacuate, reclaims_first }),
    ]
}

#[derive(Debug, Clone, Copy)]
struct HeapObject {
    id: u64,
    start: u64,
    size: u64,
    dead: bool,
}

/// The naive model of one collection: reclaims first, then every move resolved against
/// the index as it stood before any move — a move applies when its old address still
/// holds the same object — then the new ranges inserted.
fn naive_collection(
    model: &mut NaiveIndex,
    stats: &mut AllocationStats,
    reclaims: &[(u64, u64)],
    moves: &[(HeapObject, u64)],
    attach: bool,
    unattributed: AllocSiteId,
) {
    for &(addr, size) in reclaims {
        if size >= HEAP_FILTER && model.remove(addr).is_some() {
            stats.reclamations += 1;
        }
    }
    let resolved: Vec<(HeapObject, u64, Option<MonitoredObject>)> = moves
        .iter()
        .filter(|(object, _)| object.size >= HEAP_FILTER)
        .map(|&(object, new)| {
            let owner = model
                .lookup(object.start)
                .filter(|(_, mo)| mo.object == ObjectId(object.id))
                .map(|(_, mo)| mo);
            (object, new, owner)
        })
        .collect();
    for (object, _, owner) in &resolved {
        if owner.is_some() {
            model.remove(object.start);
        }
    }
    for (object, new, owner) in resolved {
        let range = Interval::new(new, new + object.size);
        match owner {
            Some(mo) => {
                model.insert(range, mo);
                stats.relocations += 1;
            }
            None if attach => {
                let mo = MonitoredObject {
                    object: ObjectId(object.id),
                    site: unattributed,
                    size: object.size,
                };
                model.insert(range, mo);
                stats.unknown_moves += 1;
            }
            None => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Collections driven through the allocation agent's GC callbacks — applied as one
    /// batch per collection — leave the sharded index resolving every address exactly
    /// like the naive model, with the same live count and the same relocation,
    /// unknown-move and reclamation counters. Covers sliding (overlapping) and
    /// evacuating (disjoint) moves, reclaims whose range a moved object reuses,
    /// objects the agent never saw allocated, and attach-mode unknown moves.
    #[test]
    fn agent_collections_match_naive_model(
        ops in prop::collection::vec(heap_op(), 1..120),
        shards in (0u32..4).prop_map(|i| 1usize << i),
        attach in any::<bool>(),
    ) {
        let shared = SharedObjectIndex::with_shards(shards);
        let config = AllocationConfig { size_filter: HEAP_FILTER, attach_mode: attach };
        let agent = AllocationAgent::new(config, shared.clone());
        let unattributed = shared.sites.lock().intern_unattributed();
        let mut model = NaiveIndex::default();
        let mut stats = AllocationStats::default();
        let mut heap: Vec<HeapObject> = Vec::new();
        let (mut top, mut next_id, mut gc) = (HEAP_BASE, 0u64, 0u64);

        let resolves_alike = |model: &NaiveIndex, addr: u64| -> Result<(), TestCaseError> {
            let got = shared.lookup(addr);
            let expected = model.lookup(addr);
            prop_assert_eq!(got, expected, "address {:#x}", addr);
            Ok(())
        };

        for op in ops {
            match op {
                HeapOp::Alloc { size, seen } => {
                    let object = HeapObject { id: next_id, start: top, size, dead: false };
                    next_id += 1;
                    top += size;
                    heap.push(object);
                    if seen {
                        let trace = [Frame::new(MethodId((object.id % 5) as u32), 0)];
                        let site = agent.on_object_alloc(&AllocationEvent {
                            object: ObjectId(object.id),
                            class: ClassId(0),
                            class_name: "long[]",
                            start: object.start,
                            size,
                            thread: ThreadId(1),
                            call_trace: &trace,
                        });
                        prop_assert_eq!(site.is_some(), size >= HEAP_FILTER);
                        if let Some(site) = site {
                            let mo = MonitoredObject { object: ObjectId(object.id), site, size };
                            model.insert(Interval::new(object.start, object.start + size), mo);
                        }
                    }
                }
                HeapOp::Free { pick } if !heap.is_empty() => {
                    let object = heap.remove(pick % heap.len());
                    agent.on_object_reclaim(&ObjectReclaimEvent {
                        gc: GcId(gc),
                        object: ObjectId(object.id),
                        addr: object.start,
                        size: object.size,
                        class: ClassId(0),
                    });
                    naive_collection(&mut model, &mut stats, &[(object.start, object.size)], &[], attach, unattributed);
                }
                HeapOp::Kill { pick } if !heap.is_empty() => {
                    let len = heap.len();
                    heap[pick % len].dead = true;
                }
                HeapOp::Lookup { pick, offset } => {
                    let base = if heap.is_empty() { HEAP_BASE } else { heap[pick % heap.len()].start };
                    resolves_alike(&model, base + offset)?;
                }
                HeapOp::Collect { evacuate, reclaims_first } => {
                    gc += 1;
                    let mut compact = if evacuate { top } else { HEAP_BASE };
                    let mut reclaims = Vec::new();
                    let mut moves = Vec::new();
                    let mut survivors = Vec::new();
                    for object in heap.drain(..) {
                        if object.dead {
                            reclaims.push((object.start, object.size));
                            continue;
                        }
                        if compact != object.start {
                            moves.push((object, compact));
                        }
                        survivors.push(HeapObject { start: compact, ..object });
                        compact += object.size;
                    }
                    heap = survivors;
                    top = top.max(compact);

                    let event = GcEvent { gc: GcId(gc), heap_used: 0, objects_moved: 0, objects_reclaimed: 0 };
                    agent.on_gc_start(&event);
                    let deliver_reclaims = || {
                        for &(addr, size) in &reclaims {
                            agent.on_object_reclaim(&ObjectReclaimEvent {
                                gc: GcId(gc),
                                object: ObjectId(0),
                                addr,
                                size,
                                class: ClassId(0),
                            });
                        }
                    };
                    if reclaims_first {
                        deliver_reclaims();
                    }
                    for &(object, new_addr) in &moves {
                        agent.on_object_move(&ObjectMoveEvent {
                            gc: GcId(gc),
                            object: ObjectId(object.id),
                            old_addr: object.start,
                            new_addr,
                            size: object.size,
                        });
                    }
                    if !reclaims_first {
                        deliver_reclaims();
                    }
                    // Until the collection ends, the index still shows the heap before it.
                    for &(object, _) in &moves {
                        resolves_alike(&model, object.start)?;
                    }
                    agent.on_gc_end(&event);
                    naive_collection(&mut model, &mut stats, &reclaims, &moves, attach, unattributed);

                    // After it, every surviving object and every vacated range resolves
                    // like the model.
                    for object in heap.iter().chain(moves.iter().map(|(object, _)| object)) {
                        resolves_alike(&model, object.start)?;
                        resolves_alike(&model, object.start + object.size - 1)?;
                    }
                    for &(addr, size) in &reclaims {
                        resolves_alike(&model, addr)?;
                        resolves_alike(&model, addr + size - 1)?;
                    }
                }
                _ => {}
            }
            prop_assert_eq!(shared.live_objects(), model.len());
            let agent_stats = agent.stats();
            prop_assert_eq!(
                (agent_stats.relocations, agent_stats.unknown_moves, agent_stats.reclamations),
                (stats.relocations, stats.unknown_moves, stats.reclamations)
            );
        }
    }
}

// --------------------------------------------------------------------------------------
// Delta streaming vs sequential replay
// --------------------------------------------------------------------------------------

/// One step of a profiled run interleaved with export-drainer pulls.
#[derive(Debug, Clone)]
enum StreamOp {
    /// Allocate a monitored object in a heap slot (skipped when occupied).
    Alloc { slot: u64 },
    /// Reclaim the slot's object (skipped when empty).
    Free { slot: u64 },
    /// GC-relocate the object from one slot to another (skipped unless `from` is
    /// occupied and `to` free), applied at GC end like the real agent.
    Relocate { from: u64, to: u64 },
    /// One memory access inside the slot (samples per the session period).
    Access { slot: u64, offset: u64 },
    /// An explicit drainer pull: close the epoch and stream its delta.
    Pull,
}

const STREAM_SLOTS: u64 = 16;
const STREAM_OBJECT_SIZE: u64 = 4096;

fn stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        (0..STREAM_SLOTS).prop_map(|slot| StreamOp::Alloc { slot }),
        (0..STREAM_SLOTS).prop_map(|slot| StreamOp::Free { slot }),
        ((0..STREAM_SLOTS), (0..STREAM_SLOTS))
            .prop_map(|(from, to)| StreamOp::Relocate { from, to }),
        // Accesses are the common operation: three arms so most steps sample.
        ((0..STREAM_SLOTS), (0..STREAM_OBJECT_SIZE / 8))
            .prop_map(|(slot, offset)| StreamOp::Access { slot, offset }),
        ((0..STREAM_SLOTS), (0..STREAM_OBJECT_SIZE / 8))
            .prop_map(|(slot, offset)| StreamOp::Access { slot, offset }),
        ((0..STREAM_SLOTS), (0..STREAM_OBJECT_SIZE / 8))
            .prop_map(|(slot, offset)| StreamOp::Access { slot, offset }),
        Just(StreamOp::Pull),
    ]
}

/// The code-centric and NUMA views as an independent naive profiler computes them:
/// one PMU per thread, programmed like the session's and fed the same accesses, with
/// every sample recorded at its call path in a CCT of its own and its
/// `(cpu_node, page_node)` pair counted — the reference the session's views, read
/// off the object profile, must equal. A PMU seeds its jitter by thread id, so its
/// samples equal the session's: the check covers the sampler as well as the record.
struct ReferenceViews {
    pmu: PerfEventBuilder,
    period: u64,
    pmus: HashMap<ThreadId, ThreadPmu>,
    cct: Cct,
    traffic: HashMap<(u32, u32), u64>,
}

impl ReferenceViews {
    /// An empty reference programmed from `config`; threads get a PMU on first sight.
    fn new(config: ProfilerConfig) -> Self {
        Self {
            pmu: PerfEventBuilder::new(config.event)
                .sample_period(config.period)
                .jitter(config.jitter),
            period: config.period,
            pmus: HashMap::new(),
            cct: Cct::new(),
            traffic: HashMap::new(),
        }
    }

    /// Counts one access on its thread's PMU and records the samples it fires.
    fn observe(&mut self, event: &djx_runtime::MemoryAccessEvent<'_>) {
        let Self { pmu, period, pmus, cct, traffic } = self;
        let thread_pmu =
            pmus.entry(event.thread).or_insert_with(|| pmu.open_for_thread(event.thread.0));
        thread_pmu.observe(&event.outcome, |samples| {
            for sample in samples {
                let node = cct.insert_path(event.call_trace);
                cct.metrics_mut(node).record_sample(sample, *period);
                *traffic.entry((sample.cpu_node.0, sample.page_node.0)).or_insert(0) += 1;
            }
        });
    }

    /// Checks the `Context` and `NodePair` queries over `source` against the
    /// recorded contexts and traffic.
    fn check(&self, source: &dyn djxperf::ProfileSource) -> Result<(), TestCaseError> {
        let code = Query::new().group_by(GroupBy::Context).evaluate(source).unwrap();
        prop_assert_eq!(context_rows(&code), contexts(&self.cct), "code-centric contexts");
        let mut traffic: Vec<((u32, u32), u64)> =
            self.traffic.iter().map(|(p, n)| (*p, *n)).collect();
        traffic.sort_unstable();
        let numa = Query::new().group_by(GroupBy::NodePair).evaluate(source).unwrap();
        prop_assert_eq!(node_cells(&numa), traffic, "NUMA traffic matrix");
        Ok(())
    }
}

/// A `Context` query's `(path, metrics)` rows, by path.
fn context_rows(code: &QueryResult) -> Vec<(Vec<Frame>, MetricVector)> {
    let mut rows: Vec<_> = code
        .groups
        .iter()
        .map(|g| match &g.key {
            GroupKey::Context(path) => (path.clone(), g.metrics),
            other => panic!("not a context group: {other:?}"),
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// A `NodePair` query's `(cell, samples)` rows, by cell; each cell's samples are
/// all local on the diagonal and all remote off it.
fn node_cells(numa: &QueryResult) -> Vec<((u32, u32), u64)> {
    let mut cells: Vec<_> = numa
        .groups
        .iter()
        .map(|g| match g.key {
            GroupKey::NodePair { cpu_node, page_node } => {
                let m = &g.metrics;
                let split = if cpu_node == page_node { m.local_samples } else { m.remote_samples };
                assert_eq!(split, m.samples, "a cell is all local or all remote");
                ((cpu_node, page_node), m.samples)
            }
            ref other => panic!("not a node-pair group: {other:?}"),
        })
        .collect();
    cells.sort_unstable();
    cells
}

/// The object and code-centric (`GroupBy::Context`) queries over `source`, rendered
/// as text and JSON.
fn object_and_context_renders(source: &dyn djxperf::ProfileSource) -> Vec<String> {
    [Query::new(), Query::new().group_by(GroupBy::Context)]
        .iter()
        .flat_map(|query| {
            let result = query.evaluate(source).expect("the source evaluates");
            [result.to_text(), result.to_json()]
        })
        .collect()
}

/// A fresh fold of the delta frames decoded from the front of a growing epoch log;
/// decoding stops at the first frame still being written.
fn fold_of_written_frames(log: &[u8], config: ProfilerConfig) -> DeltaFold {
    let mut fold = DeltaFold::with_header(config.event, config.period, config.size_filter);
    let mut frames = djxperf::BinaryFrameReader::new(log);
    while let Ok(Some(djxperf::LogRecord::Delta(delta))) = frames.next_record() {
        fold.absorb_ordered(&delta).expect("the written frames fold in order");
    }
    fold
}

/// A CCT's `(path, metrics)` pairs, by path: node ids are tree-local.
fn contexts(cct: &Cct) -> Vec<(Vec<Frame>, MetricVector)> {
    let mut contexts: Vec<_> = cct.nodes_with_metrics().map(|(_, path, m)| (path, *m)).collect();
    contexts.sort_by(|a, b| a.0.cmp(&b.0));
    contexts
}

/// Replays one interleaving of heap/access/pull operations into a streaming
/// session (binary epoch log) and a never-drained reference session, finishes the
/// stream, and returns `(streaming session, reference session, epoch log, the
/// reference views fed the same accesses)`. Shared by the fold-identity and the
/// query-identity properties below.
type StreamRun =
    (std::sync::Arc<djxperf::Session>, std::sync::Arc<djxperf::Session>, Vec<u8>, ReferenceViews);

fn run_stream_ops(ops: Vec<StreamOp>) -> Result<StreamRun, TestCaseError> {
    use std::sync::Arc;
    use std::time::Duration;

    use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
    use djx_runtime::{
        AllocationEvent, ClassId, GcEvent, GcId, MemoryAccessEvent, ObjectId, ObjectMoveEvent,
        ObjectReclaimEvent, RuntimeListener,
    };
    use djxperf::{DrainPolicy, Session, SharedBuffer};

    let buffer = SharedBuffer::new();
    // Long tick: the proptest's explicit pulls (and its snapshots) drive the epoch
    // boundaries; the drainer still writes them.
    let streaming: Arc<Session> = Session::builder()
        .period(4)
        .size_filter(1024)
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().tick(Duration::from_secs(60)),
        )
        .build();
    let reference = Session::builder().period(4).size_filter(1024).collect_objects().build();
    let sessions = [&streaming, &reference];
    let mut views = ReferenceViews::new(streaming.config());

    // Live watches on the streaming session, one per query shape: after every
    // pull each must render byte-identically to a cold evaluation over the live
    // fold's snapshot (the incremental-vs-recompute identity of the live module).
    use djxperf::{GroupBy, Query, RankBy};
    let shapes = [
        Query::new(),
        Query::new().rank_by(RankBy::Samples).min_samples(1),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().rank_by(RankBy::RemoteFraction).top(2).min_samples(1),
        Query::new().rank_by(RankBy::Samples).top(1),
    ];
    let live_fold = streaming.live_fold().expect("the streaming session has a live fold");
    let mut watches: Vec<djxperf::LiveQuery> = shapes.iter().map(|q| q.watch(&live_fold)).collect();

    let thread = ThreadId(1);
    let call_trace = [Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)];
    // Accesses fire at three contexts: the allocating one, a sibling, and the root.
    let access_traces: [&[Frame]; 3] =
        [&call_trace, &[Frame::new(MethodId(1), 0), Frame::new(MethodId(3), 8)], &[]];
    let slot_addr = |slot: u64| 0x4000_0000 + slot * STREAM_OBJECT_SIZE;
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
    let mut slots: HashMap<u64, ObjectId> = HashMap::new();
    let mut next_object = 1u64;
    let mut next_gc = 1u64;

    for op in ops {
        match op {
            StreamOp::Alloc { slot } => {
                if slots.contains_key(&slot) {
                    continue;
                }
                let object = ObjectId(next_object);
                next_object += 1;
                for session in sessions {
                    session.on_object_alloc(&AllocationEvent {
                        object,
                        class: ClassId(0),
                        class_name: "prop[]",
                        start: slot_addr(slot),
                        size: STREAM_OBJECT_SIZE,
                        thread,
                        call_trace: &call_trace,
                    });
                }
                slots.insert(slot, object);
            }
            StreamOp::Free { slot } => {
                let Some(object) = slots.remove(&slot) else { continue };
                for session in sessions {
                    session.on_object_reclaim(&ObjectReclaimEvent {
                        gc: GcId(next_gc),
                        object,
                        addr: slot_addr(slot),
                        size: STREAM_OBJECT_SIZE,
                        class: ClassId(0),
                    });
                }
                next_gc += 1;
            }
            StreamOp::Relocate { from, to } => {
                if from == to || !slots.contains_key(&from) || slots.contains_key(&to) {
                    continue;
                }
                let object = slots.remove(&from).unwrap();
                let gc = GcId(next_gc);
                next_gc += 1;
                for session in sessions {
                    session.on_object_move(&ObjectMoveEvent {
                        gc,
                        object,
                        old_addr: slot_addr(from),
                        new_addr: slot_addr(to),
                        size: STREAM_OBJECT_SIZE,
                    });
                    session.on_gc_end(&GcEvent {
                        gc,
                        heap_used: 0,
                        objects_moved: 1,
                        objects_reclaimed: 0,
                    });
                }
                slots.insert(to, object);
            }
            StreamOp::Access { slot, offset } => {
                // One shared outcome, replayed into both sessions and the reference
                // views, so the PMU streams are bit-identical.
                let addr = slot_addr(slot) + offset * 8;
                let event = MemoryAccessEvent {
                    thread,
                    outcome: hierarchy.access(MemoryAccess::load(0, addr, 8)),
                    call_trace: access_traces[(offset % 3) as usize],
                    object: None,
                };
                for session in sessions {
                    session.on_memory_access(&event);
                }
                views.observe(&event);
            }
            StreamOp::Pull => {
                prop_assert!(streaming.flush_export(), "the stream accepts pulls");
                let snapshot = live_fold.snapshot();
                for (query, lq) in shapes.iter().zip(&mut watches) {
                    let live = lq.current();
                    let cold = query.evaluate(&snapshot).expect("cold evaluation succeeds");
                    prop_assert_eq!(
                        live.result.to_text(),
                        cold.to_text(),
                        "after a pull, the watch and a cold evaluation render identically"
                    );
                    prop_assert_eq!(live.result.to_json(), cold.to_json());
                }
                // The session's profile is its producer fold: it renders like a
                // fresh fold of the frames written so far, and like a live fold
                // attached now, which is that fold itself.
                let renders = object_and_context_renders(&*streaming);
                let attached = streaming.live_fold().expect("the stream is running");
                prop_assert_eq!(&object_and_context_renders(&attached), &renders);
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                loop {
                    let written = fold_of_written_frames(&buffer.contents(), streaming.config());
                    if object_and_context_renders(&written.assemble()) == renders {
                        break;
                    }
                    prop_assert!(
                        std::time::Instant::now() < deadline,
                        "the written frames never fold to the session's profile"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    let stats = streaming.finish_export().expect("the stream finishes cleanly");
    prop_assert_eq!(
        stats.samples_streamed,
        streaming.total_samples(),
        "every sample is in exactly one streamed delta"
    );
    prop_assert_eq!(streaming.total_samples(), reference.total_samples());

    // Finishing the stream closes the live fold; every watch renders the terminal
    // state, still byte-identical to cold evaluation.
    prop_assert!(live_fold.is_finished(), "finish_export closes the live fold");
    let terminal = live_fold.snapshot();
    for (query, lq) in shapes.iter().zip(&mut watches) {
        let live = lq.current();
        prop_assert!(live.finished, "a finished fold marks its watches finished");
        let cold = query.evaluate(&terminal).expect("terminal evaluation succeeds");
        prop_assert_eq!(live.result.to_text(), cold.to_text());
        prop_assert_eq!(live.result.to_json(), cold.to_json());
    }

    Ok((streaming, reference, buffer.contents(), views))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of insert/free/relocate/access with drainer pulls streams a
    /// delta log that folds to the same profile a sequential, never-drained replay of
    /// the identical event sequence produces — and draining never perturbs the
    /// streaming session's own profile either. The epoch partition must be invisible.
    #[test]
    fn streamed_deltas_fold_like_a_sequential_replay_under_insert_free_relocate(
        ops in prop::collection::vec(stream_op(), 1..120),
    ) {

        let (streaming, reference, log, views) = run_stream_ops(ops)?;
        let reference_text = reference.object_profile().unwrap().to_text();
        prop_assert_eq!(
            &streaming.object_profile().unwrap().to_text(),
            &reference_text,
            "epoch pulls must not perturb the streaming session's own profile"
        );
        let replayed = BinaryChunkedSink::new().read_log_bytes(&log).expect("the epoch log replays");
        prop_assert_eq!(
            &replayed.to_text(),
            &reference_text,
            "folded stream must equal the sequential replay"
        );
        // The code-centric and NUMA views, live and replayed, equal what the
        // independent reference profiler recorded from the same accesses.
        views.check(&*streaming)?;
        views.check(&replayed)?;
        // Record → retire → encode → decode → fold keeps the cells summing to the
        // site totals, on the replayed log and on the session's own fold.
        assert_cells_sum_to_site_totals(&replayed)?;
        assert_cells_sum_to_site_totals(&streaming.object_profile().unwrap())?;
    }

    /// The query layer's cross-source identity under the same arbitrary
    /// interleavings: one `Query` evaluated against the live streaming session,
    /// against the never-drained reference session, and against the replayed epoch
    /// log renders byte-identically — the capture path is invisible to queries.
    #[test]
    fn query_over_live_session_equals_query_over_replayed_log(
        ops in prop::collection::vec(stream_op(), 1..120),
    ) {
        let (streaming, reference, log, _) = run_stream_ops(ops)?;
        let replayed = BinaryChunkedSink::new().read_log_bytes(&log).expect("the epoch log replays");
        let queries = [
            Query::new(),
            Query::new().rank_by(RankBy::Samples).min_samples(1),
            Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
            Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Samples),
        ];
        for query in queries {
            let live = query.evaluate(&*streaming).expect("live session evaluates");
            let from_reference = query.evaluate(&*reference).expect("reference evaluates");
            let from_log = query.evaluate(&replayed).expect("replayed log evaluates");
            prop_assert_eq!(
                &live.to_text(),
                &from_log.to_text(),
                "live == replayed log for {:?}", &query
            );
            prop_assert_eq!(
                &live.to_json(),
                &from_log.to_json(),
                "live == replayed log (json) for {:?}", &query
            );
            prop_assert_eq!(
                &from_reference.to_text(),
                &from_log.to_text(),
                "reference == replayed log for {:?}", &query
            );
        }
    }
}

// --------------------------------------------------------------------------------------
// Calling context tree
// --------------------------------------------------------------------------------------

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (0u32..40, 0u32..16).prop_map(|(m, bci)| Frame::new(MethodId(m), bci * 4))
}

fn path_strategy() -> impl Strategy<Value = Vec<Frame>> {
    prop::collection::vec(frame_strategy(), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Inserting a path and reading it back returns the same path, and re-insertion is
    /// idempotent (same node id, no growth).
    #[test]
    fn cct_path_round_trip(paths in prop::collection::vec(path_strategy(), 1..40)) {
        let mut cct = Cct::new();
        let mut ids = Vec::new();
        for path in &paths {
            let id = cct.insert_path(path);
            prop_assert_eq!(&cct.path_of(id), path);
            ids.push(id);
        }
        let size = cct.len();
        for (path, id) in paths.iter().zip(&ids) {
            prop_assert_eq!(cct.insert_path(path), *id);
        }
        prop_assert_eq!(cct.len(), size, "re-insertion must not create nodes");
    }

    /// Merging CCTs conserves metric totals and path identities.
    #[test]
    fn cct_merge_conserves_metrics(
        paths_a in prop::collection::vec(path_strategy(), 1..25),
        paths_b in prop::collection::vec(path_strategy(), 1..25),
    ) {
        let build = |paths: &[Vec<Frame>]| {
            let mut cct = Cct::new();
            for (i, p) in paths.iter().enumerate() {
                let id = cct.insert_path(p);
                cct.metrics_mut(id).record_allocation((i + 1) as u64);
            }
            cct
        };
        let a = build(&paths_a);
        let b = build(&paths_b);
        let total = |cct: &Cct| -> (u64, u64) {
            cct.node_ids().fold((0, 0), |(allocs, bytes), id| {
                let m = cct.metrics(id);
                (allocs + m.allocations, bytes + m.allocated_bytes)
            })
        };
        let (a_allocs, a_bytes) = total(&a);
        let (b_allocs, b_bytes) = total(&b);

        let mut merged = a.clone();
        let mapping = merged.merge(&b);
        let (m_allocs, m_bytes) = total(&merged);
        prop_assert_eq!(m_allocs, a_allocs + b_allocs);
        prop_assert_eq!(m_bytes, a_bytes + b_bytes);
        for id in b.node_ids() {
            prop_assert_eq!(merged.path_of(mapping[id.0 as usize]), b.path_of(id));
        }
    }
}

// --------------------------------------------------------------------------------------
// Metric vectors
// --------------------------------------------------------------------------------------

fn sample_strategy() -> impl Strategy<Value = Sample> {
    (any::<bool>(), any::<bool>(), 1u64..1000, 0u32..2).prop_map(
        |(store, remote, latency, node)| Sample {
            event: PmuEvent::L1Miss,
            thread_id: 1,
            cpu: 0,
            cpu_node: NumaNode(node),
            page_node: NumaNode(if remote { 1 - node } else { node }),
            effective_addr: 0x1000,
            kind: if store { AccessKind::Store } else { AccessKind::Load },
            value: 1,
            latency,
            counter_value: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding samples one by one and merging partial vectors give the same totals
    /// (merge is associative/commutative over disjoint sample partitions).
    #[test]
    fn metric_merge_equals_sequential_fold(
        samples in prop::collection::vec(sample_strategy(), 1..60),
        split in 0usize..60,
        period in 1u64..10_000,
    ) {
        let split = split.min(samples.len());
        let mut all = MetricVector::new();
        for s in &samples {
            all.record_sample(s, period);
        }
        let mut left = MetricVector::new();
        let mut right = MetricVector::new();
        for s in &samples[..split] {
            left.record_sample(s, period);
        }
        for s in &samples[split..] {
            right.record_sample(s, period);
        }
        let mut merged_lr = left;
        merged_lr.merge(&right);
        let mut merged_rl = right;
        merged_rl.merge(&left);
        prop_assert_eq!(merged_lr, all);
        prop_assert_eq!(merged_rl, all);
        prop_assert_eq!(all.samples as usize, samples.len());
        prop_assert_eq!(all.local_samples + all.remote_samples, all.samples);
        prop_assert_eq!(all.load_samples + all.store_samples, all.samples);
    }
}

// --------------------------------------------------------------------------------------
// Profile codec
// --------------------------------------------------------------------------------------

/// Class names with the characters the text rendering must escape: spaces, tabs,
/// line breaks and backslashes.
fn class_name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9 .\\[\\]\t\n\r\\\\]{0,18}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary profiles survive the binary codec: a replayed document analyzes
    /// identically and renders to the same text.
    #[test]
    fn profile_codec_round_trips(
        class_names in prop::collection::vec(class_name_strategy(), 1..4),
        alloc_paths in prop::collection::vec(path_strategy(), 1..4),
        samples in prop::collection::vec((0usize..4, path_strategy(), sample_strategy()), 0..40),
        period in 1u64..100_000,
    ) {
        // Build the site table from the generated names/paths.
        let site_count = class_names.len().min(alloc_paths.len());
        let sites: Vec<AllocSite> = (0..site_count)
            .map(|i| AllocSite {
                id: AllocSiteId(i as u32),
                class_name: class_names[i].clone(),
                call_path: alloc_paths[i].clone(),
            })
            .collect();

        // One index past the site table records the sample unattributed.
        let mut thread = ThreadProfile::new(ThreadId(1), "prop thread");
        for (site_index, path, sample) in &samples {
            let index = site_index % (site_count + 1);
            let site = (index < site_count).then_some(AllocSiteId(index as u32));
            thread.record_sample(site, path, sample, period);
        }
        thread.record_allocation(AllocSiteId(0), 4096);

        let profile = ObjectCentricProfile {
            event: PmuEvent::L1Miss,
            period,
            size_filter: 1024,
            sites,
            threads: vec![thread],
            allocation_stats: AllocationStats { callbacks: 10, monitored: 5, filtered: 5, ..Default::default() },
        };

        let sink = BinaryChunkedSink::new();
        let mut doc = Vec::new();
        sink.write_profile(&profile, &mut doc).expect("writing to a Vec cannot fail");
        let parsed = sink.read_log_bytes(&doc).expect("round trip");
        prop_assert_eq!(parsed.to_text(), profile.to_text(), "serialization is a fixed point");
        // Node metrics and the traffic matrix cross the codec: both views read back.
        let view = |axis, p: &ObjectCentricProfile| Query::new().group_by(axis).evaluate(p).unwrap();
        prop_assert_eq!(
            context_rows(&view(GroupBy::Context, &parsed)),
            contexts(&profile.threads[0].cct)
        );
        prop_assert_eq!(
            node_cells(&view(GroupBy::NodePair, &parsed)),
            node_cells(&view(GroupBy::NodePair, &profile))
        );

        let analyze = |p: &ObjectCentricProfile| djxperf::Query::new().evaluate(p).unwrap();
        let a = analyze(&profile);
        let b = analyze(&parsed);
        prop_assert_eq!(a.total_samples, b.total_samples);
        prop_assert_eq!(a.total_weighted_events, b.total_weighted_events);
        prop_assert_eq!(a.groups.len(), b.groups.len());
        for (x, y) in a.groups.iter().zip(&b.groups) {
            prop_assert_eq!(&x.label, &y.label);
            prop_assert_eq!(x.metrics, y.metrics);
        }
    }
}

// --------------------------------------------------------------------------------------
// Sink backends on multi-thread profiles with the attach-mode unattributed site
// --------------------------------------------------------------------------------------

/// A thread's `(site, context)` cells as `(site, call path, metrics)`, sorted:
/// CCT node ids are tree-local, call paths are not.
fn cells_by_path(thread: &ThreadProfile) -> Vec<(AllocSiteId, Vec<Frame>, MetricVector)> {
    let mut cells: Vec<_> = thread
        .contexts
        .iter()
        .map(|(&(s, c), m)| (s, thread.cct.path_of(c), *m))
        .collect();
    cells.sort_by(|x, y| (x.0, &x.1).cmp(&(y.0, &y.1)));
    cells
}

/// Checks the record's invariant on every thread: every cell's site has a totals
/// row, and each row's sample fields are the sum of its site's cells (the
/// allocation fields belong to the row alone).
fn assert_cells_sum_to_site_totals(
    profile: &ObjectCentricProfile,
) -> Result<(), proptest::prelude::TestCaseError> {
    for thread in &profile.threads {
        let mut sums: HashMap<AllocSiteId, MetricVector> = HashMap::new();
        for (&(site, _), m) in &thread.contexts {
            prop_assert!(thread.sites.contains_key(&site), "cell of {:?} has no totals row", site);
            sums.entry(site).or_default().merge(m);
        }
        for (site, total) in &thread.sites {
            let samples_only = MetricVector { allocations: 0, allocated_bytes: 0, ..*total };
            prop_assert_eq!(sums.get(site).copied().unwrap_or_default(), samples_only);
        }
    }
    Ok(())
}

/// Checks that a reparsed profile reproduces the original's site totals, its
/// `(site, context)` cells (compared by call path) and `AllocationStats` exactly.
fn assert_profiles_equivalent(
    original: &ObjectCentricProfile,
    reparsed: &ObjectCentricProfile,
) -> Result<(), proptest::prelude::TestCaseError> {
    prop_assert_eq!(reparsed.event, original.event);
    prop_assert_eq!(reparsed.period, original.period);
    prop_assert_eq!(reparsed.size_filter, original.size_filter);
    prop_assert_eq!(reparsed.allocation_stats, original.allocation_stats);
    prop_assert_eq!(&reparsed.sites, &original.sites);
    prop_assert_eq!(reparsed.threads.len(), original.threads.len());
    for (a, b) in reparsed.threads.iter().zip(&original.threads) {
        prop_assert_eq!(a.thread, b.thread);
        prop_assert_eq!(&a.thread_name, &b.thread_name);
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.unattributed, b.unattributed);
        prop_assert_eq!(&a.sites, &b.sites);
        // Context node ids are tree-local; compare cells by call path.
        prop_assert_eq!(cells_by_path(a), cells_by_path(b));
    }
    Ok(())
}

/// A multi-thread profile over the generated sites and samples, with the attach-mode
/// unattributed site interned through the real registry so its identity matches
/// production behaviour. Every thread records an allocation at that site; samples
/// cycle through the real sites *and* the unattributed one.
fn multi_thread_profile(
    class_names: &[String],
    alloc_paths: &[Vec<Frame>],
    samples_per_thread: &[Vec<(usize, Vec<Frame>, Sample)>],
    unknown_moves: u64,
    period: u64,
) -> ObjectCentricProfile {
    let mut registry = AllocSiteRegistry::new();
    let site_count = class_names.len().min(alloc_paths.len());
    for i in 0..site_count {
        registry.intern(&class_names[i], &alloc_paths[i]);
    }
    let unattributed_site = registry.intern_unattributed();
    let sites = registry.since(0);

    let mut threads = Vec::new();
    for (t, samples) in samples_per_thread.iter().enumerate() {
        let mut thread = ThreadProfile::new(ThreadId(t as u64 + 1), &format!("worker {t}"));
        for (site_index, path, sample) in samples {
            let site = AllocSiteId((site_index % (site_count + 1)) as u32);
            thread.record_sample(Some(site), path, sample, period);
        }
        thread.record_allocation(unattributed_site, 0);
        threads.push(thread);
    }

    ObjectCentricProfile {
        event: PmuEvent::RemoteDram,
        period,
        size_filter: 1024,
        sites,
        threads,
        allocation_stats: AllocationStats {
            callbacks: 40,
            monitored: 30,
            filtered: 10,
            relocations: 3,
            unknown_moves,
            reclamations: 2,
        },
    }
}

/// Field accessors over every [`MetricVector`] counter.
const METRIC_COUNTERS: [fn(&mut MetricVector) -> &mut u64; 9] = [
    |m| &mut m.samples,
    |m| &mut m.weighted_events,
    |m| &mut m.latency_cycles,
    |m| &mut m.local_samples,
    |m| &mut m.remote_samples,
    |m| &mut m.load_samples,
    |m| &mut m.store_samples,
    |m| &mut m.allocations,
    |m| &mut m.allocated_bytes,
];

/// Field accessors over every [`AllocationStats`] counter.
const ALLOCATION_COUNTERS: [fn(&mut AllocationStats) -> &mut u64; 6] = [
    |s| &mut s.callbacks,
    |s| &mut s.monitored,
    |s| &mut s.filtered,
    |s| &mut s.relocations,
    |s| &mut s.unknown_moves,
    |s| &mut s.reclamations,
];

/// Moves one access context of the first site with a non-empty context path to
/// the same path with its leaf frame's BCI bumped. Returns `false` when no
/// thread has such a context.
fn bump_a_context_frame(profile: &mut ObjectCentricProfile) -> bool {
    for thread in &mut profile.threads {
        let cct = &mut thread.cct;
        let Some((cell, mut path)) = thread
            .contexts
            .keys()
            .map(|&(site, ctx)| ((site, ctx), cct.path_of(ctx)))
            .find(|(_, path)| !path.is_empty())
        else {
            continue;
        };
        let metrics = thread.contexts.remove(&cell).expect("cell listed above");
        let leaf = path.last_mut().expect("non-empty path");
        *leaf = Frame::new(leaf.method, leaf.bci.wrapping_add(1));
        let bumped = (cell.0, cct.insert_path(&path));
        thread.contexts.entry(bumped).or_default().merge(&metrics);
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-thread profiles — including the attach-mode unattributed site — survive
    /// the binary sink with identical site totals, `(site, context)` cells and `AllocationStats`.
    #[test]
    fn sink_backends_round_trip_multi_thread_profiles(
        class_names in prop::collection::vec(class_name_strategy(), 1..3),
        alloc_paths in prop::collection::vec(path_strategy(), 1..3),
        samples_per_thread in prop::collection::vec(
            prop::collection::vec((0usize..4, path_strategy(), sample_strategy()), 0..25),
            1..4,
        ),
        unknown_moves in 0u64..5,
        period in 1u64..100_000,
    ) {
        let profile = multi_thread_profile(
            &class_names,
            &alloc_paths,
            &samples_per_thread,
            unknown_moves,
            period,
        );
        prop_assert!(profile.sites.iter().any(|s| s.is_unattributed()));

        let sink = BinaryChunkedSink::new();
        let mut written = Vec::new();
        sink.write_profile(&profile, &mut written).expect("writing to a Vec cannot fail");
        let reparsed = sink.read_log_bytes(&written).expect("sink round trip");
        assert_profiles_equivalent(&profile, &reparsed)?;
        assert_cells_sum_to_site_totals(&reparsed)?;
        // Re-serialization through the same sink is a fixed point.
        let mut rewritten = Vec::new();
        sink.write_profile(&reparsed, &mut rewritten).expect("writing to a Vec cannot fail");
        prop_assert_eq!(rewritten, written);
    }

    /// `to_text` is the profile equality the tests rely on, so it must be
    /// lossless: every single-field mutation of a profile changes its rendering.
    #[test]
    fn every_single_field_mutation_changes_to_text(
        class_names in prop::collection::vec(class_name_strategy(), 1..3),
        alloc_paths in prop::collection::vec(path_strategy(), 1..3),
        samples_per_thread in prop::collection::vec(
            prop::collection::vec((0usize..4, path_strategy(), sample_strategy()), 0..25),
            1..4,
        ),
        unknown_moves in 0u64..5,
        period in 1u64..100_000,
    ) {
        let profile = multi_thread_profile(
            &class_names,
            &alloc_paths,
            &samples_per_thread,
            unknown_moves,
            period,
        );
        let rendered = profile.to_text();
        let changes = |what: &str, mutate: &dyn Fn(&mut ObjectCentricProfile) -> bool| {
            let mut mutated = profile.clone();
            if mutate(&mut mutated) {
                prop_assert!(
                    mutated.to_text() != rendered,
                    "mutating the {what} left to_text unchanged"
                );
            }
            Ok(())
        };

        for (i, counter) in METRIC_COUNTERS.iter().enumerate() {
            changes(&format!("site total counter {i}"), &|p| {
                let total = p.threads[0].sites.values_mut().next().expect("allocation site");
                *counter(total) += 1;
                true
            })?;
            changes(&format!("access context counter {i}"), &|p| {
                let entry = p.threads.iter_mut().find_map(|t| t.contexts.values_mut().next());
                entry.map(|m| *counter(m) += 1).is_some()
            })?;
            changes(&format!("unattributed counter {i}"), &|p| {
                *counter(&mut p.threads[0].unattributed) += 1;
                true
            })?;
            changes(&format!("context node counter {i}"), &|p| {
                p.threads.iter_mut().any(|t| {
                    let node = t.cct.nodes_with_metrics().next().map(|(id, _, _)| id);
                    node.map(|id| *counter(t.cct.metrics_mut(id)) += 1).is_some()
                })
            })?;
        }
        for (i, counter) in ALLOCATION_COUNTERS.iter().enumerate() {
            changes(&format!("allocation stats counter {i}"), &|p| {
                *counter(&mut p.allocation_stats) += 1;
                true
            })?;
        }
        changes("class name", &|p| {
            p.sites[0].class_name.push('\t');
            true
        })?;
        changes("site call-path frame", &|p| {
            let Some(frame) = p.sites.iter_mut().find_map(|s| s.call_path.last_mut()) else {
                return false;
            };
            *frame = Frame::new(frame.method, frame.bci.wrapping_add(1));
            true
        })?;
        changes("access context-path frame", &bump_a_context_frame)?;
        changes("traffic count", &|p| {
            let count = p.threads.iter_mut().find_map(|t| t.node_traffic.values_mut().next());
            count.map(|n| *n += 1).is_some()
        })?;
        changes("traffic node pair", &|p| {
            p.threads.iter_mut().any(|t| {
                let Some((&(cpu, page), &n)) = t.node_traffic.iter().next() else {
                    return false;
                };
                t.node_traffic.remove(&(cpu, page));
                *t.node_traffic.entry((cpu, page ^ 2)).or_insert(0) += n;
                true
            })
        })?;
        changes("thread id", &|p| {
            p.threads[0].thread = ThreadId(p.threads[0].thread.0 + 1);
            true
        })?;
        changes("thread name", &|p| {
            p.threads[0].thread_name.push(' ');
            true
        })?;
        changes("thread samples", &|p| {
            p.threads[0].samples += 1;
            true
        })?;
        changes("event", &|p| {
            let current = p.event.hardware_name();
            p.event = PmuEvent::all()
                .into_iter()
                .find(|e| e.hardware_name() != current)
                .expect("more than one event");
            true
        })?;
        changes("period", &|p| {
            p.period += 1;
            true
        })?;
        changes("size filter", &|p| {
            p.size_filter += 1;
            true
        })?;
    }
}

// --------------------------------------------------------------------------------------
// Query evaluation vs a naive reference evaluator
// --------------------------------------------------------------------------------------

const REF_CLASSES: [&str; 3] = ["A[]", "B[]", "C"];
const REF_EPOCHS: usize = 3;

/// Frames from a small alphabet, so allocation leaves and access paths collide.
fn small_frame() -> impl Strategy<Value = Frame> {
    (0u32..3, 0u32..2).prop_map(|(m, bci)| Frame::new(MethodId(m), bci))
}

fn small_path() -> impl Strategy<Value = Vec<Frame>> {
    prop::collection::vec(small_frame(), 0..4)
}

/// One generated stream: per site a class index and allocation path, then per
/// sample `(epoch, thread, site index, access path, sample)` (a site index past the
/// table records the sample unattributed), then per allocation `(epoch, thread,
/// site index, bytes)`.
type StreamSpec = (
    Vec<(usize, Vec<Frame>)>,
    Vec<(usize, u64, usize, Vec<Frame>, Sample)>,
    Vec<(usize, u64, usize, u64)>,
);

fn stream_spec() -> impl Strategy<Value = StreamSpec> {
    (
        prop::collection::vec((0usize..3, small_path()), 1..5),
        prop::collection::vec(
            (0..REF_EPOCHS, 1u64..5, 0usize..6, small_path(), sample_strategy()),
            0..30,
        ),
        prop::collection::vec((0..REF_EPOCHS, 1u64..5, 0usize..5, 1u64..4096), 0..6),
    )
}

/// The fragment of thread `t` among an epoch's `threads`, created on first use. A
/// thread's first fragment in stream `s` carries its name (thread 4 is unnamed),
/// later ones the `<attached>` placeholder; `seen` lists the stream's threads in
/// first-seen order, which is their sequence.
fn fragment<'a>(
    threads: &'a mut Vec<ThreadDelta>,
    seen: &mut Vec<u64>,
    s: usize,
    t: u64,
) -> &'a mut ThreadProfile {
    let i = match threads.iter().position(|td| td.profile.thread == ThreadId(t)) {
        Some(i) => i,
        None => {
            let name = match seen.contains(&t) {
                true => "<attached>".to_string(),
                false if t == 4 => String::new(),
                false => format!("w{t}.{s}"),
            };
            if !seen.contains(&t) {
                seen.push(t);
            }
            let seq = seen.iter().position(|x| *x == t).expect("seen above") as u64;
            threads.push(ThreadDelta { seq, profile: ThreadProfile::new(ThreadId(t), &name) });
            threads.len() - 1
        }
    };
    &mut threads[i].profile
}

/// Builds stream `s` as its epoch deltas. Each delta carries the sites interned
/// since the previous one, and its rows reference only sites known by then.
fn stream_deltas(s: usize, (sites, samples, allocs): &StreamSpec) -> Vec<ProfileDelta> {
    let table: Vec<AllocSite> = sites
        .iter()
        .enumerate()
        .map(|(i, (class, path))| AllocSite {
            id: AllocSiteId(i as u32),
            class_name: REF_CLASSES[*class].to_string(),
            call_path: path.clone(),
        })
        .collect();
    let known = |epoch: usize| (table.len() * (epoch + 1)).div_ceil(REF_EPOCHS);
    let mut seen = Vec::new();
    (0..REF_EPOCHS)
        .map(|epoch| {
            let (base, end) = (epoch.checked_sub(1).map_or(0, known), known(epoch));
            let mut threads = Vec::new();
            for (_, t, site, path, sample) in samples.iter().filter(|x| x.0 == epoch) {
                let site = (*site < table.len()).then(|| AllocSiteId((*site % end) as u32));
                fragment(&mut threads, &mut seen, s, *t).record_sample(
                    site,
                    path,
                    sample,
                    10 + s as u64,
                );
            }
            for (_, t, site, bytes) in allocs.iter().filter(|x| x.0 == epoch) {
                fragment(&mut threads, &mut seen, s, *t)
                    .record_allocation(AllocSiteId((*site % end) as u32), *bytes);
            }
            threads.sort_by_key(|td| (td.seq, td.profile.thread));
            let sites = table[base..end].to_vec();
            ProfileDelta { epoch: epoch as u64 + 1, threads, site_base: base, sites }
        })
        .collect()
}

/// What a query asks, as both the real builder and the reference read it.
#[derive(Debug, Clone)]
struct QuerySpec {
    group_by: GroupBy,
    rank_by: RankBy,
    top: Option<usize>,
    min_samples: u64,
    classes: Vec<String>,
    frames: Vec<Frame>,
    threads: Vec<ThreadId>,
}

impl QuerySpec {
    fn query(&self) -> Query {
        let mut q = Query::new().group_by(self.group_by).rank_by(self.rank_by);
        q = self.top.map_or(q.clone(), |top| q.top(top)).min_samples(self.min_samples);
        q = self.classes.iter().fold(q, |q, c| q.filter_class(c.clone()));
        q = self.frames.iter().fold(q, |q, f| q.filter_site(*f));
        self.threads.iter().fold(q, |q, t| q.filter_thread(*t))
    }
}

fn reference_rank(rank_by: RankBy, a: &MetricVector, b: &MetricVector) -> std::cmp::Ordering {
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let count = |f: fn(&MetricVector) -> u64| f(a).cmp(&f(b));
    let real = |f: &dyn Fn(&MetricVector) -> f64| f(a).total_cmp(&f(b));
    match rank_by {
        RankBy::WeightedEvents => count(|m| m.weighted_events),
        RankBy::Samples => count(|m| m.samples),
        RankBy::RemoteSamples => count(|m| m.remote_samples),
        RankBy::Latency => count(|m| m.latency_cycles),
        RankBy::Allocations => count(|m| m.allocations),
        RankBy::AllocatedBytes => count(|m| m.allocated_bytes),
        RankBy::RemoteFraction => real(&|m| m.remote_fraction()),
        RankBy::MeanLatency => real(&|m| m.mean_latency()),
        RankBy::EventsPerAllocation => real(&|m| ratio(m.weighted_events, m.allocations)),
        RankBy::EventsPerByte => real(&|m| ratio(m.weighted_events, m.allocated_bytes)),
    }
}

/// The naive reference evaluator: one map from group key to (first-seen label,
/// metrics, contexts keyed by `Cct::path_of`), a full sort with the documented tie
/// chain (rank descending, weighted events descending, key ascending), then `top`.
/// Context groups come from the passing threads' CCTs merged into one tree, the way
/// the offline analyzer coalesces per-thread profiles (§5.2).
fn reference_evaluate(spec: &QuerySpec, profiles: &[ObjectCentricProfile]) -> QueryResult {
    type Acc = (String, MetricVector, HashMap<Vec<Frame>, MetricVector>);
    let mut out = QueryResult {
        event: PmuEvent::L1Miss,
        period: 1,
        group_by: spec.group_by,
        rank_by: spec.rank_by,
        total_samples: 0,
        total_weighted_events: 0,
        attributed_weighted_events: 0,
        groups: Vec::new(),
    };
    let mut groups: HashMap<GroupKey, Acc> = HashMap::new();
    let mut add =
        |key: GroupKey, name: &str, m: &MetricVector, ctxs: Vec<(Vec<Frame>, MetricVector)>| {
            let label = match &key {
                GroupKey::Object { class_name, .. } => class_name.clone(),
                GroupKey::Site(Some(f)) => format!("{}:{}", f.method.0, f.bci),
                GroupKey::Site(None) => "<no allocation context>".to_string(),
                GroupKey::Thread(t) if name.is_empty() => format!("thread {}", t.0),
                GroupKey::Thread(_) => name.to_string(),
                GroupKey::NumaNode(l) => l.to_string(),
                GroupKey::Context(path) => match path.last() {
                    Some(f) => format!("{}:{}", f.method.0, f.bci),
                    None => "<no calling context>".to_string(),
                },
                GroupKey::NodePair { cpu_node, page_node } => {
                    format!("node {cpu_node} -> node {page_node}")
                }
            };
            let acc = groups
                .entry(key)
                .or_insert_with(|| (label, MetricVector::default(), HashMap::new()));
            acc.1.merge(m);
            for (path, cm) in ctxs {
                acc.2.entry(path).or_default().merge(&cm);
            }
        };
    let localities = |m: &MetricVector| {
        [(Locality::Local, m.local_samples), (Locality::Remote, m.remote_samples)]
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(l, n)| {
                let mut v = MetricVector { samples: n, ..MetricVector::default() };
                *match l {
                    Locality::Local => &mut v.local_samples,
                    Locality::Remote => &mut v.remote_samples,
                } = n;
                (GroupKey::NumaNode(l), v)
            })
            .collect::<Vec<_>>()
    };
    let filtered = !spec.classes.is_empty() || !spec.frames.is_empty();
    let mut merged = Cct::new();
    for profile in profiles {
        (out.event, out.period) = (profile.event, profile.period);
        for thread in &profile.threads {
            let (t, name) = (thread.thread, thread.thread_name.as_str());
            let thread_ok = spec.threads.is_empty() || spec.threads.contains(&t);
            out.total_samples += thread.samples;
            out.total_weighted_events += thread.unattributed.weighted_events;
            if thread_ok && !filtered {
                match spec.group_by {
                    GroupBy::Thread => add(GroupKey::Thread(t), name, &thread.unattributed, vec![]),
                    GroupBy::NumaNode => localities(&thread.unattributed)
                        .into_iter()
                        .for_each(|(k, v)| add(k, "", &v, vec![])),
                    GroupBy::Context => {
                        merged.merge(&thread.cct);
                    }
                    GroupBy::NodePair => {
                        for (&(cpu_node, page_node), &n) in &thread.node_traffic {
                            let mut v = MetricVector { samples: n, ..MetricVector::default() };
                            *if cpu_node == page_node {
                                &mut v.local_samples
                            } else {
                                &mut v.remote_samples
                            } = n;
                            if n > 0 {
                                add(GroupKey::NodePair { cpu_node, page_node }, "", &v, vec![]);
                            }
                        }
                    }
                    GroupBy::Object | GroupBy::Site => {}
                }
            }
            for (id, total) in &thread.sites {
                let Some(site) = profile.sites.get(id.0 as usize) else { continue };
                out.total_weighted_events += total.weighted_events;
                out.attributed_weighted_events += total.weighted_events;
                let leaf = site.call_path.last().copied();
                if !thread_ok
                    || !(spec.classes.is_empty() || spec.classes.contains(&site.class_name))
                    || !(spec.frames.is_empty() || leaf.is_some_and(|f| spec.frames.contains(&f)))
                {
                    continue;
                }
                let ctxs = thread
                    .contexts
                    .iter()
                    .filter(|((cell_site, _), _)| cell_site == id)
                    .map(|(&(_, c), m)| (thread.cct.path_of(c), *m))
                    .collect();
                let key = match spec.group_by {
                    GroupBy::Object => GroupKey::Object {
                        class_name: site.class_name.clone(),
                        alloc_path: site.call_path.clone(),
                    },
                    GroupBy::Site => GroupKey::Site(leaf),
                    GroupBy::Thread => GroupKey::Thread(t),
                    GroupBy::NumaNode => {
                        localities(total).into_iter().for_each(|(k, v)| add(k, "", &v, vec![]));
                        continue;
                    }
                    GroupBy::Context | GroupBy::NodePair => continue,
                };
                add(key, name, total, ctxs);
            }
        }
    }
    for (_, path, m) in merged.nodes_with_metrics() {
        add(GroupKey::Context(path), "", m, vec![]);
    }
    let mut ranked: Vec<_> =
        groups.into_iter().filter(|(_, a)| a.1.samples >= spec.min_samples).collect();
    ranked.sort_by(|(ka, a), (kb, b)| {
        reference_rank(spec.rank_by, &b.1, &a.1)
            .then(b.1.weighted_events.cmp(&a.1.weighted_events))
            .then(ka.cmp(kb))
    });
    ranked.truncate(spec.top.unwrap_or(usize::MAX));
    let (total, of): (u64, fn(&MetricVector) -> u64) = match spec.group_by {
        GroupBy::NumaNode | GroupBy::NodePair => (out.total_samples, |m| m.samples),
        _ => (out.total_weighted_events, |m| m.weighted_events),
    };
    let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    for (key, (label, metrics, ctxs)) in ranked {
        let mut contexts: Vec<AccessContext> = ctxs
            .into_iter()
            .map(|(path, m)| AccessContext {
                path,
                metrics: m,
                fraction_of_object: share(m.weighted_events, metrics.weighted_events),
            })
            .collect();
        contexts.sort_by(|a, b| {
            b.metrics
                .weighted_events
                .cmp(&a.metrics.weighted_events)
                .then(a.path.cmp(&b.path))
        });
        out.groups.push(QueryGroup {
            key,
            label,
            fraction_of_total: share(of(&metrics), total),
            remote_fraction: metrics.remote_fraction(),
            metrics,
            contexts,
        });
    }
    out
}

/// The query filters of one case: each is empty half the time.
fn query_filters() -> impl Strategy<Value = (Option<usize>, u64, u8, Vec<Frame>, u8)> {
    (
        prop_oneof![Just(None), (0usize..5).prop_map(Some)],
        0u64..3,
        prop_oneof![Just(0u8), 1u8..8],
        prop_oneof![Just(Vec::new()), prop::collection::vec(small_frame(), 1..3)],
        prop_oneof![Just(0u8), 1u8..16],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `GroupBy` × `RankBy`, under generated `top`, noise floor and thread,
    /// class and site filters, renders the naive reference evaluator's text and JSON
    /// through every evaluation path: cold `Query::evaluate` over the profile
    /// sequence, a `MultiSource` fold of the profiles, and — per stream, at every
    /// epoch — a `LiveQuery` fed the stream's deltas.
    #[test]
    fn every_evaluation_path_matches_the_reference_evaluator(
        streams in prop::collection::vec(stream_spec(), 1..4),
        filters in query_filters(),
    ) {
        let (top, min_samples, class_mask, frames, thread_mask) = filters;
        let deltas: Vec<Vec<ProfileDelta>> =
            streams.iter().enumerate().map(|(s, spec)| stream_deltas(s, spec)).collect();
        let profiles: Vec<ObjectCentricProfile> = deltas
            .iter()
            .enumerate()
            .map(|(s, stream)| {
                let event = PmuEvent::all()[s % PmuEvent::all().len()];
                let mut fold = DeltaFold::with_header(event, 10 + s as u64, 1024);
                stream.iter().for_each(|d| fold.absorb_ordered(d).expect("generated in order"));
                fold.assemble()
            })
            .collect();
        let axes = [
            GroupBy::Object,
            GroupBy::Site,
            GroupBy::Thread,
            GroupBy::NumaNode,
            GroupBy::Context,
            GroupBy::NodePair,
        ];
        let specs: Vec<QuerySpec> = axes
            .into_iter()
            .flat_map(|group_by| RankBy::all().map(|rank_by| (group_by, rank_by)))
            .map(|(group_by, rank_by)| QuerySpec {
                group_by,
                rank_by,
                top,
                min_samples,
                classes: (0..3).filter(|i| class_mask >> i & 1 == 1).map(|i| REF_CLASSES[i].to_string()).collect(),
                frames: frames.clone(),
                threads: (1..5).filter(|t| thread_mask >> (t - 1) & 1 == 1).map(ThreadId).collect(),
            })
            .collect();
        let multi = profiles.iter().fold(MultiSource::new(), |m, p| m.with(p));
        for spec in &specs {
            let reference = reference_evaluate(spec, &profiles);
            for (path, result) in [
                ("cold", spec.query().evaluate(&profiles[..]).unwrap()),
                ("multi-source", spec.query().evaluate(&multi).unwrap()),
            ] {
                prop_assert_eq!(result.to_text(), reference.to_text(), "{} text for {:?}", path, spec);
                prop_assert_eq!(result.to_json(), reference.to_json(), "{} json for {:?}", path, spec);
            }
        }
        for (s, stream) in deltas.iter().enumerate() {
            let event = PmuEvent::all()[s % PmuEvent::all().len()];
            let fold = LiveFold::with_meta(event, 10 + s as u64, 1024);
            let mut watches: Vec<_> = specs.iter().map(|spec| spec.query().watch(&fold)).collect();
            for delta in stream {
                fold.absorb(delta).expect("generated in order");
                let snapshot = [fold.snapshot()];
                for (spec, watch) in specs.iter().zip(&mut watches) {
                    let reference = reference_evaluate(spec, &snapshot);
                    let live = watch.current().result;
                    prop_assert_eq!(live.to_text(), reference.to_text(), "live text for {:?}", spec);
                    prop_assert_eq!(live.to_json(), reference.to_json(), "live json for {:?}", spec);
                }
            }
        }
    }
}
