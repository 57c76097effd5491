//! Concurrent resolution stress tests: no reader may ever resolve a **stale** object
//! through the shared index once a mutation of that index is visible to it.
//!
//! The construction publishes a monotonically increasing *generation* with a
//! `Release` store after each mutation (an address reuse, a move between two ranges,
//! or a whole garbage collection applied through the allocation agent); reader threads
//! `Acquire`-load the generation and resolve through
//! [`SharedObjectIndex::resolve_batch`], the sample path. The publication edge makes
//! the mutation visible to the reader, so resolving anything the published mutation
//! already replaced, moved away or reclaimed is exactly the stale-resolution bug the
//! shard locks must rule out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcEvent, GcId, MethodId, ObjectId, ObjectMoveEvent,
    ObjectReclaimEvent, RuntimeListener, ThreadId,
};
use djxperf::{
    AllocSiteId, AllocationAgent, AllocationConfig, Interval, MonitoredObject, SharedObjectIndex,
};

const MUTATIONS: u64 = 20_000;
const READERS: usize = 3;

fn mo(generation: u64) -> MonitoredObject {
    MonitoredObject {
        object: ObjectId(generation),
        site: AllocSiteId(generation as u32),
        size: 0x2000,
    }
}

fn resolve(index: &SharedObjectIndex, addrs: &[u64]) -> Vec<Option<AllocSiteId>> {
    let mut out = Vec::with_capacity(addrs.len());
    index.resolve_batch(addrs.iter(), &mut out);
    out
}

/// Minimum probes every reader must perform *after* the last mutation before the
/// stress run is allowed to end: guarantees each reader raced the mutation phase or —
/// on a scheduler that starved it — at least probed a quiescent index repeatedly, so
/// the post-run hit assertions are deterministic, not timing-dependent.
const QUIESCENT_PROBES: u64 = 100;

/// Runs `READERS` reader threads against `mutate`, which is called on this thread once
/// per generation `1..=generations`; each generation is published after its mutation
/// returns. Each reader calls `probe(reader, published)` in a loop; the probe asserts
/// what the published generation rules out and returns how many of its addresses
/// resolved. Returns the summed resolved count of every reader.
fn run_stress(
    generations: u64,
    mut mutate: impl FnMut(u64),
    probe: impl Fn(usize, u64) -> u64 + Sync,
) -> u64 {
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let progress: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (published, done, progress, probe) = (&published, &done, &progress, &probe);
                scope.spawn(move || {
                    let mut resolved = 0;
                    while !done.load(Ordering::Acquire) {
                        // The Acquire load creates the happens-before edge from every
                        // mutation completed before `generation` was published.
                        resolved += probe(r, published.load(Ordering::Acquire));
                        progress[r].fetch_add(1, Ordering::Release);
                    }
                    resolved
                })
            })
            .collect();

        for generation in 1..=generations {
            mutate(generation);
            published.store(generation, Ordering::Release);
        }
        // Let every reader probe the now-quiescent index a while before stopping. A
        // reader whose assertion failed has finished; its panic surfaces at the join.
        let targets: Vec<u64> =
            progress.iter().map(|p| p.load(Ordering::Acquire) + QUIESCENT_PROBES).collect();
        for ((p, target), reader) in progress.iter().zip(targets).zip(&readers) {
            while p.load(Ordering::Acquire) < target && !reader.is_finished() {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        readers.into_iter().map(|reader| reader.join().unwrap()).sum()
    })
}

/// A probe of one range per reader: anything it resolves must be of a generation at
/// least the published one.
fn never_below_published<'a>(
    index: &'a SharedObjectIndex,
    ranges: &'a [u64],
) -> impl Fn(usize, u64) -> u64 + Sync + 'a {
    move |r, generation| {
        let base = ranges[r % ranges.len()];
        match resolve(index, &[base + 0x100])[0] {
            Some(site) => {
                let resolved = u64::from(site.0);
                assert!(
                    resolved >= generation,
                    "stale resolution: observed generation {resolved} after generation \
                     {generation} was published"
                );
                1
            }
            None => 0,
        }
    }
}

#[test]
fn address_reuse_never_resolves_to_a_dead_generation() {
    // The §4.5 correctness concern, concurrently: an allocation reuses the address
    // range of a freed object. Once generation g is published, resolving the range
    // must never return a generation below g — the free and the reinsertion both
    // happened under the shard lock the reader takes.
    let base = 0x4000u64;
    let index = SharedObjectIndex::with_shards(4);
    index.insert(Interval::new(base, base + 0x2000), mo(0));
    let resolved = run_stress(
        MUTATIONS,
        |generation| {
            index.remove(base);
            index.insert(Interval::new(base, base + 0x2000), mo(generation));
        },
        never_below_published(&index, &[base]),
    );
    assert_eq!(index.lookup(base + 0x100).unwrap().1.object, ObjectId(MUTATIONS));
    assert!(resolved > 0, "the quiescent probes resolve the surviving generation");
}

#[test]
fn gc_moves_between_ranges_never_expose_a_stale_generation() {
    // Relocation, concurrently: generation g lives in range g % 2 (the agent's
    // insert + remove move pattern migrates the record across shards). Readers probe
    // both ranges; any resolved generation below the published one is a stale
    // resolution across a move.
    let ranges = [0x10_0000u64, 0x20_0000];
    let index = SharedObjectIndex::with_shards(8);
    index.insert(Interval::new(ranges[0], ranges[0] + 0x2000), mo(0));
    let resolved = run_stress(
        MUTATIONS,
        |generation| {
            let from = ranges[(generation - 1) as usize % 2];
            let to = ranges[generation as usize % 2];
            // Publish the new generation's range before retiring the old one, like the
            // allocation agent's disjoint-move path, then bump the id by reinserting.
            index.insert(Interval::new(to, to + 0x2000), mo(generation));
            index.remove(from);
        },
        never_below_published(&index, &ranges),
    );
    let survivor = index.lookup(ranges[(MUTATIONS % 2) as usize] + 0x100).unwrap().1;
    assert_eq!(survivor.object, ObjectId(MUTATIONS));
    assert!(resolved > 0, "the quiescent probes resolve the surviving generation");
}

/// Collections the agent-driven arm applies.
const COLLECTIONS: u64 = 5_000;
/// Long-lived objects every collection moves.
const MOVERS: u64 = 4;
/// Each object owns a two-region slot and spans both regions, so it has a copy in two
/// shards; consecutive slots sit on different shards.
const SLOT: u64 = 0x4000;
const OBJECT_SIZE: u64 = 0x3000;
const HEAP_BASE: u64 = 0x100_0000;

/// Where mover `k` lives after collection `gc`: every collection moves every mover to a
/// range no object ever held before, `MOVERS + 1` slots (ten regions) away, so each
/// move changes shards and a vacated range is never reused.
fn mover_addr(k: u64, gc: u64) -> u64 {
    HEAP_BASE + (gc * (MOVERS + 1) + k) * SLOT
}

/// Where the object collection `gc` reclaims was allocated (also never reused).
fn victim_addr(gc: u64) -> u64 {
    HEAP_BASE + (gc * (MOVERS + 1) + MOVERS) * SLOT
}

fn alloc(agent: &AllocationAgent, object: u64, start: u64, method: u32) -> AllocSiteId {
    let trace = [Frame::new(MethodId(method), 0)];
    agent
        .on_object_alloc(&AllocationEvent {
            object: ObjectId(object),
            class: ClassId(0),
            class_name: "long[]",
            start,
            size: OBJECT_SIZE,
            thread: ThreadId(1),
            call_trace: &trace,
        })
        .expect("objects pass the size filter")
}

#[test]
fn published_collections_never_expose_moved_or_reclaimed_objects() {
    // Whole collections, concurrently: collection g moves every mover to a fresh range
    // on other shards and reclaims the object allocated just before it, and the agent
    // applies both at GC end in one rebuild per touched shard. Once g is published, a
    // reader must resolve nothing at the ranges g vacated, and a mover's current
    // range resolves to nothing but that mover's site.
    let index = SharedObjectIndex::with_shards(8);
    let agent = AllocationAgent::new(AllocationConfig::default(), Arc::clone(&index));
    let sites: Vec<AllocSiteId> =
        (0..MOVERS).map(|k| alloc(&agent, k + 1, mover_addr(k, 0), k as u32)).collect();

    let resolved = run_stress(
        COLLECTIONS,
        |gc| {
            alloc(&agent, MOVERS + gc, victim_addr(gc), MOVERS as u32);
            let event =
                GcEvent { gc: GcId(gc), heap_used: 0, objects_moved: 0, objects_reclaimed: 0 };
            agent.on_gc_start(&event);
            for k in 0..MOVERS {
                agent.on_object_move(&ObjectMoveEvent {
                    gc: GcId(gc),
                    object: ObjectId(k + 1),
                    old_addr: mover_addr(k, gc - 1),
                    new_addr: mover_addr(k, gc),
                    size: OBJECT_SIZE,
                });
            }
            agent.on_object_reclaim(&ObjectReclaimEvent {
                gc: GcId(gc),
                object: ObjectId(MOVERS + gc),
                addr: victim_addr(gc),
                size: OBJECT_SIZE,
                class: ClassId(0),
            });
            agent.on_gc_end(&event);
        },
        |r, gc| {
            if gc == 0 {
                return 0;
            }
            // Both regions of every range collection `gc` vacated, then each mover's
            // current range; readers start at different movers so batches differ.
            let mut vacated: Vec<u64> = (0..MOVERS).map(|k| mover_addr(k, gc - 1)).collect();
            vacated.push(victim_addr(gc));
            let turn = r % vacated.len();
            vacated.rotate_left(turn);
            let mut addrs: Vec<u64> =
                vacated.iter().flat_map(|&a| [a + 0x10, a + OBJECT_SIZE - 0x10]).collect();
            addrs.extend((0..MOVERS).map(|k| mover_addr(k, gc) + 0x10));
            let out = resolve(&index, &addrs);
            let (old, current) = out.split_at(2 * vacated.len());
            for (addr, site) in addrs.iter().zip(old) {
                assert_eq!(
                    *site, None,
                    "{addr:#x} resolved to {site:?} after collection {gc} vacated it"
                );
            }
            for (k, site) in current.iter().enumerate() {
                // A later collection may already have moved the mover on.
                if let Some(site) = site {
                    assert_eq!(*site, sites[k], "mover {k} resolved to another object");
                }
            }
            current.iter().flatten().count() as u64
        },
    );

    let stats = agent.stats();
    assert_eq!((stats.relocations, stats.reclamations), (MOVERS * COLLECTIONS, COLLECTIONS));
    assert_eq!(index.live_objects(), MOVERS as usize);
    for (k, site) in sites.iter().enumerate() {
        let (interval, mo) =
            index.lookup(mover_addr(k as u64, COLLECTIONS) + 0x10).expect("mover resolves");
        assert_eq!(
            (interval.start, mo.object, mo.site),
            (mover_addr(k as u64, COLLECTIONS), ObjectId(k as u64 + 1), *site)
        );
    }
    assert!(resolved > 0, "the quiescent probes resolve the movers");
}
