//! Property-based tests over the profiler's core data structures: the interval splay
//! tree is checked against a naive model, the calling context tree against path
//! round-trips and merge conservation, the metric vector against merge algebra, the
//! binary profile codec against arbitrary profiles, and the render-only text form
//! against every single-field mutation (it must tell any two profiles apart).

use std::collections::HashMap;

use proptest::prelude::*;

use djx_memsim::{AccessKind, NumaNode};
use djx_pmu::{PmuEvent, Sample};
use djx_runtime::{Frame, MethodId, ThreadId};
use djxperf::{
    AllocSite, AllocSiteId, AllocSiteRegistry, AllocationStats, BinaryChunkedSink, Cct, EpochLog,
    Interval, IntervalSplayTree, MetricVector, ObjectCentricProfile, ProfileSink, ThreadProfile,
};

// --------------------------------------------------------------------------------------
// Interval splay tree vs a naive model
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The splay tree agrees with a hash-map model under arbitrary insert/remove/lookup
    /// sequences over disjoint intervals, and its iteration stays sorted.
    #[test]
    fn splay_tree_matches_naive_model(ops in prop::collection::vec(tree_op(), 1..200)) {
        let mut tree: IntervalSplayTree<u64> = IntervalSplayTree::new();
        // Model: slot -> (length, value).
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();

        for op in ops {
            match op {
                TreeOp::Insert { slot, len, value } => {
                    let start = slot * SLOT_SIZE;
                    let replaced = tree.insert(Interval::new(start, start + len), value);
                    let model_replaced = model.insert(slot, (len, value)).map(|(_, v)| v);
                    prop_assert_eq!(replaced, model_replaced);
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

        // In-order iteration is sorted by start address and covers exactly the model.
        let entries: Vec<(u64, u64)> = tree.iter().map(|(iv, v)| (iv.start, *v)).collect();
        let mut starts: Vec<u64> = entries.iter().map(|(s, _)| *s).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&starts, &sorted);
        starts.dedup();
        prop_assert_eq!(starts.len(), model.len());
    }

    /// The sharded object index agrees with a single reference splay tree under
    /// arbitrary insert/remove/lookup sequences — including objects that span several
    /// shard regions — and its distinct-object count matches.
    #[test]
    fn sharded_index_matches_single_tree(
        ops in prop::collection::vec(tree_op(), 1..200),
        shards in (0u32..5).prop_map(|i| 1usize << i),
    ) {
        use djxperf::{MonitoredObject, SharedObjectIndex};
        use djx_runtime::ObjectId;

        // Span shard regions: scale slots up to 2 regions each so intervals regularly
        // cross region (and thus shard) boundaries.
        let scale = 2 * (1u64 << 13) / SLOT_SIZE;
        let index = SharedObjectIndex::with_shards(shards);
        let mut reference: IntervalSplayTree<MonitoredObject> = IntervalSplayTree::new();

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

    /// Cached resolution through a per-thread [`ResolutionCache`] agrees with a single
    /// reference splay tree under arbitrary interleavings of insert, free, GC
    /// relocation and resolution — the epoch-invalidation property: a mutation bumps
    /// the touched shards' epochs, so a cache entry can never resolve to a freed or
    /// moved object, no matter how the operations interleave or how small the cache.
    #[test]
    fn cached_resolution_matches_single_tree_under_insert_free_relocate(
        ops in prop::collection::vec(
            prop_oneof![
                (0..SLOTS, 1..SLOT_SIZE, any::<u64>())
                    .prop_map(|(slot, len, value)| TreeOp::Insert { slot, len, value }),
                (0..SLOTS).prop_map(|slot| TreeOp::Remove { slot }),
                // The lookup arm appears twice: resolution is the common operation,
                // and repeat resolutions are what fill and re-validate the cache.
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
        cache_slots in (1u32..7).prop_map(|i| 1usize << i),
    ) {
        use djxperf::{MonitoredObject, ResolutionCache, SharedObjectIndex};
        use djx_runtime::ObjectId;

        // Scale slots to two shard regions each so objects span shards regularly.
        let scale = 2 * (1u64 << 13) / SLOT_SIZE;
        let index = SharedObjectIndex::with_shards(shards);
        let mut reference: IntervalSplayTree<MonitoredObject> = IntervalSplayTree::new();
        // One persistent cache across the whole interleaving, as a sampling thread
        // would keep; small slot counts force aliasing evictions.
        let mut cache = ResolutionCache::new(cache_slots);
        let mut relocations = relocations.into_iter();

        let resolve = |cache: &mut ResolutionCache, addr: u64| -> Option<u32> {
            let mut out = Vec::new();
            index.resolve_batch_cached(cache, [addr].iter(), &mut out);
            out[0].map(|site| site.0)
        };

        for op in ops {
            match op {
                TreeOp::Insert { slot, len, value } => {
                    let start = slot * SLOT_SIZE * scale;
                    let interval = Interval::new(start, start + len * scale);
                    let mo = MonitoredObject {
                        object: ObjectId(value),
                        site: AllocSiteId(value as u32),
                        size: len * scale,
                    };
                    index.insert(interval, mo);
                    reference.insert(interval, mo);
                    // The freshly inserted object resolves immediately, even if the
                    // cache held the slot's previous occupant.
                    prop_assert_eq!(resolve(&mut cache, start), Some(value as u32));
                }
                TreeOp::Remove { slot } => {
                    let addr = slot * SLOT_SIZE * scale;
                    let removed = index.remove(addr).map(|(_, m)| m.object);
                    let expected = reference.remove(addr).map(|(_, m)| m.object);
                    prop_assert_eq!(removed, expected);
                    // A freed object must never resolve from a stale cache entry.
                    prop_assert_eq!(resolve(&mut cache, addr), None);
                }
                TreeOp::Lookup { slot, offset } => {
                    let addr = slot * SLOT_SIZE * scale + offset * scale;
                    let expected = reference.lookup(addr).map(|(_, m)| m.site.0);
                    prop_assert_eq!(resolve(&mut cache, addr), expected);
                    // Interleave a GC relocation after some resolutions: move the
                    // object owning `from` (if any) to slot `to`, exactly the
                    // remove+insert the allocation agent performs at GC end.
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
                            prop_assert_eq!(
                                resolve(&mut cache, from_addr),
                                reference.lookup(from_addr).map(|(_, m)| m.site.0)
                            );
                            prop_assert_eq!(resolve(&mut cache, to_addr), Some(mo.site.0));
                        }
                    }
                }
            }
            prop_assert_eq!(index.live_objects(), reference.len());
        }
        // The cache did real work: every resolution probed it.
        prop_assert!(cache.stats().cache_lookups > 0);
    }

    /// `find` (read-only) and `lookup` (splaying) always agree.
    #[test]
    fn splay_find_and_lookup_agree(
        slots in prop::collection::btree_set(0..SLOTS, 1..32),
        probes in prop::collection::vec((0..SLOTS, 0..SLOT_SIZE), 1..64),
    ) {
        let mut tree: IntervalSplayTree<u64> = IntervalSplayTree::new();
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

/// Replays one interleaving of heap/access/pull operations into a streaming
/// session (binary epoch log) and a never-drained reference session, finishes the
/// stream, and returns `(streaming session, reference session, epoch log)`.
/// Shared by the fold-identity and the query-identity properties below.
type StreamRun = (std::sync::Arc<djxperf::Session>, std::sync::Arc<djxperf::Session>, Vec<u8>);

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
            DrainPolicy::new().capacity(4).tick(Duration::from_secs(60)),
        )
        .build();
    let reference = Session::builder().period(4).size_filter(1024).collect_objects().build();
    let sessions = [&streaming, &reference];

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
    let live_fold = streaming.live_fold().expect("the streaming session taps its export");
    let mut watches: Vec<djxperf::LiveQuery> = shapes.iter().map(|q| q.watch(&live_fold)).collect();

    let thread = ThreadId(1);
    let call_trace = [Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)];
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
                // One shared outcome, replayed into both sessions, so the PMU
                // streams are bit-identical.
                let addr = slot_addr(slot) + offset * 8;
                let outcome = hierarchy.access(MemoryAccess::load(0, addr, 8));
                for session in sessions {
                    session.on_memory_access(&MemoryAccessEvent {
                        thread,
                        outcome,
                        call_trace: &call_trace,
                        object: None,
                    });
                }
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

    Ok((streaming, reference, buffer.contents()))
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

        let (streaming, reference, log) = run_stream_ops(ops)?;
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
        prop_assert_eq!(
            &EpochLog::replay(&log).expect("query-source replay").profile().to_text(),
            &reference_text,
            "the query source must replay through the same reader"
        );
    }

    /// The query layer's cross-source identity under the same arbitrary
    /// interleavings: one `Query` evaluated against the live streaming session,
    /// against the never-drained reference session, and against the replayed epoch
    /// log renders byte-identically — the capture path is invisible to queries.
    #[test]
    fn query_over_live_session_equals_query_over_replayed_log(
        ops in prop::collection::vec(stream_op(), 1..120),
    ) {
        use djxperf::{EpochLog, GroupBy, Query, RankBy};

        let (streaming, reference, log) = run_stream_ops(ops)?;
        let replayed = EpochLog::replay(&log).expect("the epoch log replays");
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

        let mut thread = ThreadProfile::new(ThreadId(1), "prop thread");
        for (site_index, path, sample) in &samples {
            let site = AllocSiteId((site_index % site_count) as u32);
            thread.record_attributed(site, path, sample, period);
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

/// Checks that a reparsed profile reproduces the original's `SiteMetrics` (totals and
/// per-context breakdowns, compared by call path) and `AllocationStats` exactly.
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
        prop_assert_eq!(a.sites.len(), b.sites.len());
        for (site_id, original_metrics) in &b.sites {
            let reparsed_metrics = &a.sites[site_id];
            prop_assert_eq!(reparsed_metrics.total, original_metrics.total);
            // Context node ids are tree-local; compare breakdowns by call path.
            let by_path = |thread: &ThreadProfile, sm: &djxperf::SiteMetrics| {
                let mut v: Vec<(Vec<Frame>, MetricVector)> =
                    sm.by_context.iter().map(|(ctx, m)| (thread.cct.path_of(*ctx), *m)).collect();
                v.sort_by(|x, y| x.0.cmp(&y.0));
                v
            };
            prop_assert_eq!(by_path(a, reparsed_metrics), by_path(b, original_metrics));
        }
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
    let sites = registry.snapshot();

    let mut threads = Vec::new();
    for (t, samples) in samples_per_thread.iter().enumerate() {
        let mut thread = ThreadProfile::new(ThreadId(t as u64 + 1), &format!("worker {t}"));
        for (site_index, path, sample) in samples {
            let site = AllocSiteId((site_index % (site_count + 1)) as u32);
            thread.record_attributed(site, path, sample, period);
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
        for sm in thread.sites.values_mut() {
            let Some((ctx, mut path)) = sm
                .by_context
                .keys()
                .map(|ctx| (*ctx, cct.path_of(*ctx)))
                .find(|(_, path)| !path.is_empty())
            else {
                continue;
            };
            let metrics = sm.by_context.remove(&ctx).expect("context listed above");
            let leaf = path.last_mut().expect("non-empty path");
            *leaf = Frame::new(leaf.method, leaf.bci.wrapping_add(1));
            sm.by_context.entry(cct.insert_path(&path)).or_default().merge(&metrics);
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-thread profiles — including the attach-mode unattributed site — survive
    /// the binary sink with identical `SiteMetrics` and `AllocationStats`.
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
                let site = p.threads[0].sites.values_mut().next().expect("allocation site");
                *counter(&mut site.total) += 1;
                true
            })?;
            changes(&format!("access context counter {i}"), &|p| {
                let entry = p
                    .threads
                    .iter_mut()
                    .flat_map(|t| t.sites.values_mut())
                    .find_map(|sm| sm.by_context.values_mut().next());
                entry.map(|m| *counter(m) += 1).is_some()
            })?;
            changes(&format!("unattributed counter {i}"), &|p| {
                *counter(&mut p.threads[0].unattributed) += 1;
                true
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
