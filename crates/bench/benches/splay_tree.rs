//! Microbenchmarks for the object index (§4.2 / §5.1).
//!
//! The index sits on the hot path of every PMU sample (one lookup per sample) and
//! absorbs every monitored allocation, move and reclaim. The paper uses a splay tree;
//! this reproduction uses a flat [`IntervalIndex`] per shard (see the
//! `djxperf::interval` module documentation). The lookup group compares it under a
//! temporally clustered address stream (the case a splay tree is chosen for), a
//! uniformly random stream, and a `BTreeMap` range-query baseline. The update group times one garbage collection of 1,000 moves through the
//! allocation agent — applied as one rebuild per shard — against the same 1,000 moves
//! applied one at a time as a probe, a remove and an insert each, the per-move pattern
//! that made a B-tree index lose at GC end.

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use djx_runtime::{
    AllocationEvent, ClassId, GcEvent, GcId, ObjectId, ObjectMoveEvent, ObjectReclaimEvent,
    RuntimeListener, ThreadId,
};
use djxperf::{AllocationAgent, AllocationConfig, Interval, IntervalIndex, SharedObjectIndex};

const OBJECTS: u64 = 10_000;
const OBJECT_SIZE: u64 = 4096;
const BASE: u64 = 0x1000_0000;

fn build_tree() -> IntervalIndex<u64> {
    let mut tree = IntervalIndex::new();
    for i in 0..OBJECTS {
        let start = BASE + i * OBJECT_SIZE;
        tree.insert(Interval::new(start, start + OBJECT_SIZE), i);
    }
    tree
}

fn build_btree() -> BTreeMap<u64, (u64, u64)> {
    (0..OBJECTS)
        .map(|i| {
            let start = BASE + i * OBJECT_SIZE;
            (start, (start + OBJECT_SIZE, i))
        })
        .collect()
}

/// A deterministic pseudo-random sequence of object indices.
fn lcg_indices(count: usize) -> Vec<u64> {
    let mut x = 0x243f6a8885a308d3u64;
    (0..count)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % OBJECTS
        })
        .collect()
}

/// A clustered sequence: long runs of lookups hitting the same few hot objects, the way
/// real PMU samples cluster on the currently hot data.
fn clustered_indices(count: usize) -> Vec<u64> {
    let mut indices = Vec::with_capacity(count);
    let mut hot = 17u64;
    for i in 0..count {
        if i % 64 == 0 {
            hot = (hot * 31 + 7) % OBJECTS;
        }
        indices.push(hot);
    }
    indices
}

fn addr_of(index: u64) -> u64 {
    BASE + index * OBJECT_SIZE + (index % 64) * 8
}

fn bench_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("splay_tree_lookup");
    group.sample_size(20);

    let random = lcg_indices(10_000);
    let clustered = clustered_indices(10_000);

    group.bench_function("index_clustered_stream", |b| {
        b.iter_batched(
            build_tree,
            |mut tree| {
                let mut hits = 0u64;
                for &i in &clustered {
                    hits += u64::from(tree.lookup(addr_of(i)).is_some());
                }
                black_box(hits)
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("index_random_stream", |b| {
        b.iter_batched(
            build_tree,
            |mut tree| {
                let mut hits = 0u64;
                for &i in &random {
                    hits += u64::from(tree.lookup(addr_of(i)).is_some());
                }
                black_box(hits)
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("btreemap_range_baseline", |b| {
        let map = build_btree();
        b.iter(|| {
            let mut hits = 0u64;
            for &i in &random {
                let addr = addr_of(i);
                if let Some((_, (end, _))) = map.range(..=addr).next_back() {
                    hits += u64::from(addr < *end);
                }
            }
            black_box(hits)
        })
    });

    group.finish();
}

/// Moves of one sliding compaction over the first `MOVED + MOVED / 9` objects: every
/// tenth object dies and the survivors slide down to close the gaps, so exactly
/// `MOVED` objects move. Returns `(reclaimed indices, (index, new address) moves)`.
const MOVED: u64 = 1_000;

fn compaction() -> (Vec<u64>, Vec<(u64, u64)>) {
    let mut reclaimed = Vec::new();
    let mut moves = Vec::new();
    let mut dead = 0;
    for i in 0.. {
        if moves.len() as u64 == MOVED {
            break;
        }
        if i % 10 == 0 {
            reclaimed.push(i);
            dead += 1;
        } else {
            moves.push((i, BASE + (i - dead) * OBJECT_SIZE));
        }
    }
    (reclaimed, moves)
}

/// An agent over a populated 16-shard index, as a session builds it.
fn build_agent_over(shared: &Arc<SharedObjectIndex>) -> AllocationAgent {
    let agent = AllocationAgent::new(AllocationConfig::default(), shared.clone());
    for i in 0..OBJECTS {
        agent.on_object_alloc(&AllocationEvent {
            object: ObjectId(i),
            class: ClassId(0),
            class_name: "long[]",
            start: BASE + i * OBJECT_SIZE,
            size: OBJECT_SIZE,
            thread: ThreadId(1),
            call_trace: &[],
        });
    }
    agent
}

fn build_agent() -> AllocationAgent {
    build_agent_over(&SharedObjectIndex::new())
}

fn build_index() -> Arc<SharedObjectIndex> {
    let shared = SharedObjectIndex::new();
    build_agent_over(&shared);
    shared
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("splay_tree_update");
    group.sample_size(20);

    group.bench_function("insert_10k_objects", |b| b.iter(|| black_box(build_tree().len())));

    let (reclaimed, moves) = compaction();
    let gc = GcEvent { gc: GcId(1), heap_used: 0, objects_moved: 0, objects_reclaimed: 0 };

    group.bench_function("gc_batch_1000_moves", |b| {
        // The agent path: the collection's moves and reclaims are recorded as they are
        // delivered and applied at GC end with one rebuild per touched shard.
        b.iter_batched(
            build_agent,
            |agent| {
                agent.on_gc_start(&gc);
                for &(i, new_addr) in &moves {
                    agent.on_object_move(&ObjectMoveEvent {
                        gc: GcId(1),
                        object: ObjectId(i),
                        old_addr: BASE + i * OBJECT_SIZE,
                        new_addr,
                        size: OBJECT_SIZE,
                    });
                }
                for &i in &reclaimed {
                    agent.on_object_reclaim(&ObjectReclaimEvent {
                        gc: GcId(1),
                        object: ObjectId(i),
                        addr: BASE + i * OBJECT_SIZE,
                        size: OBJECT_SIZE,
                        class: ClassId(0),
                    });
                }
                agent.on_gc_end(&gc);
                black_box(agent.stats().relocations)
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("per_move_remove_insert_1000", |b| {
        // The dead end the batch replaces: reclaims removed one by one, then every move
        // probed, removed and re-inserted on its own.
        b.iter_batched(
            build_index,
            |shared| {
                for &i in &reclaimed {
                    shared.remove(BASE + i * OBJECT_SIZE);
                }
                for &(i, new_addr) in &moves {
                    let old_addr = BASE + i * OBJECT_SIZE;
                    if let Some((_, mo)) = shared.find(old_addr) {
                        shared.remove(old_addr);
                        shared.insert(Interval::new(new_addr, new_addr + OBJECT_SIZE), mo);
                    }
                }
                black_box(shared.live_objects())
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_lookups, bench_updates);
criterion_main!(benches);
