//! Multi-thread stress test of the sharded sample-ingestion pipeline.
//!
//! Four OS threads drive one [`Session`] concurrently through its listener interface —
//! the same call pattern a real profiler sees, where every thread's PMU overflow handler
//! runs on that thread. The test asserts the two properties the sharded index and the
//! per-thread collector state must preserve under concurrency:
//!
//! 1. **Zero lost samples**: every sample emitted by any thread's PMU is present in the
//!    merged profiles of every collector.
//! 2. **Merge fidelity**: the concurrently built per-thread profiles merge to exactly
//!    the profiles a single-threaded replay of the same event log produces — the
//!    interleaving of threads must not change any attributed metric.

use std::sync::Arc;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{ObjectCentricProfile, Session};

const THREADS: u64 = 4;
const OBJECTS_PER_THREAD: u64 = 64;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES_PER_THREAD: u64 = 40_000;
const PERIOD: u64 = 64;

/// One thread's replayable slice of the event log: its allocations and its precomputed
/// access outcomes. Outcomes are generated per thread from a deterministic seed, so the
/// concurrent run and the sequential replay observe byte-identical streams.
struct ThreadLog {
    thread: ThreadId,
    allocs: Vec<(ObjectId, u64)>, // (object, start address)
    outcomes: Vec<djx_memsim::AccessOutcome>,
    call_trace: Vec<Frame>,
}

fn heap_base(thread: u64) -> u64 {
    // Disjoint per-thread arenas: threads only access their own objects, so attribution
    // is independent of how allocations from different threads interleave.
    0x1000_0000 + thread * 0x100_0000
}

fn build_logs() -> Vec<ThreadLog> {
    (0..THREADS)
        .map(|t| {
            let thread = ThreadId(t + 1);
            let allocs: Vec<(ObjectId, u64)> = (0..OBJECTS_PER_THREAD)
                .map(|i| (ObjectId(t * OBJECTS_PER_THREAD + i + 1), heap_base(t) + i * OBJECT_SIZE))
                .collect();
            // Each thread gets its own hierarchy (per-thread caches) and its own PCG
            // stream, offset by the thread index.
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x853c49e6748fea9bu64 ^ (t.wrapping_mul(0x9e3779b97f4a7c15));
            let outcomes = (0..ACCESSES_PER_THREAD)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let obj = (x >> 33) % OBJECTS_PER_THREAD;
                    let addr = heap_base(t) + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    hierarchy.access(MemoryAccess::load(0, addr, 8))
                })
                .collect();
            let call_trace =
                vec![Frame::new(MethodId(1), 0), Frame::new(MethodId((10 + t) as u32), 4)];
            ThreadLog { thread, allocs, outcomes, call_trace }
        })
        .collect()
}

fn replay_allocs(session: &Session, log: &ThreadLog) {
    for (object, start) in &log.allocs {
        session.on_object_alloc(&AllocationEvent {
            object: *object,
            class: ClassId(0),
            class_name: "stress[]",
            start: *start,
            size: OBJECT_SIZE,
            thread: log.thread,
            call_trace: &log.call_trace,
        });
    }
}

fn replay_accesses(session: &Session, log: &ThreadLog) {
    for outcome in &log.outcomes {
        session.on_memory_access(&MemoryAccessEvent {
            thread: log.thread,
            outcome: *outcome,
            call_trace: &log.call_trace,
            object: None,
        });
    }
}

fn new_session() -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .collect_objects()
        .collect_code()
        .collect_numa()
        .build()
}

/// Renders the profile with threads in id order, so comparisons are independent of the
/// first-seen order concurrency happens to produce.
fn canonical_text(mut profile: ObjectCentricProfile) -> String {
    profile.threads.sort_by_key(|p| p.thread);
    profile.to_text()
}

#[test]
fn concurrent_ingestion_loses_no_samples_and_merges_like_a_sequential_replay() {
    let logs = Arc::new(build_logs());

    // Concurrent run: all allocations first (the log's program order), then every
    // thread replays its accesses from its own OS thread.
    let concurrent = new_session();
    for log in logs.iter() {
        replay_allocs(&concurrent, log);
    }
    std::thread::scope(|scope| {
        for i in 0..logs.len() {
            let session = Arc::clone(&concurrent);
            let logs = Arc::clone(&logs);
            scope.spawn(move || replay_accesses(&session, &logs[i]));
        }
    });

    // Sequential replay of the same event log on a fresh session.
    let sequential = new_session();
    for log in logs.iter() {
        replay_allocs(&sequential, log);
    }
    for log in logs.iter() {
        replay_accesses(&sequential, log);
    }

    // -- Zero lost samples -------------------------------------------------------------
    let total = concurrent.total_samples();
    assert!(total > 0, "the workload must actually sample");
    assert_eq!(concurrent.thread_count(), THREADS as usize);

    let object = concurrent.object_profile().expect("object collector registered");
    let code = concurrent.code_profile().expect("code collector registered");
    let numa = concurrent.numa_profile().expect("numa collector registered");
    assert_eq!(object.total_samples(), total, "object-centric view dropped samples");
    assert_eq!(code.total_samples, total, "code-centric view dropped samples");
    assert_eq!(numa.total_samples(), total, "NUMA view dropped samples");

    // The PMU ground truth agrees between the runs: same streams, same counts — and
    // both count exactly the L1-missing loads the streams hold.
    let l1_missing_loads = logs
        .iter()
        .flat_map(|log| &log.outcomes)
        .filter(|o| o.l1_miss && o.access.kind == djx_memsim::AccessKind::Load)
        .count() as u64;
    assert_eq!(concurrent.event_totals(), vec![(PmuEvent::L1Miss, l1_missing_loads)]);
    assert_eq!(concurrent.event_totals(), sequential.event_totals());
    assert_eq!(total, sequential.total_samples());

    // -- Merge fidelity ----------------------------------------------------------------
    // Per-thread object profiles must be identical to the sequential replay's, metric
    // for metric (thread order canonicalized: first-seen order under concurrency is
    // scheduling-dependent, the per-thread contents must not be).
    let sequential_object = sequential.object_profile().unwrap();
    assert_eq!(
        canonical_text(object),
        canonical_text(sequential_object),
        "concurrent merge must equal a single-threaded replay"
    );

    // The NUMA traffic matrix is commutative sums, sorted: exact equality. (Per-site
    // remote counts live in the object profile compared above.)
    let sequential_numa = sequential.numa_profile().unwrap();
    assert_eq!(numa.node_traffic, sequential_numa.node_traffic);

    // The code-centric CCTs may assign node ids in different merge orders; compare the
    // path → metrics mapping instead.
    let mut concurrent_paths: Vec<_> =
        code.cct.nodes_with_metrics().map(|(_, path, m)| (path, *m)).collect();
    let sequential_code = sequential.code_profile().unwrap();
    let mut sequential_paths: Vec<_> = sequential_code
        .cct
        .nodes_with_metrics()
        .map(|(_, path, m)| (path, *m))
        .collect();
    concurrent_paths.sort_by(|a, b| a.0.cmp(&b.0));
    sequential_paths.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(concurrent_paths, sequential_paths);

    // The index saw every object, and every sample resolved through either a thread's
    // private cache or a shard lookup — the two partition the hot path.
    assert_eq!(concurrent.live_monitored_objects(), (THREADS * OBJECTS_PER_THREAD) as usize);
    let stats = concurrent.splay_lookup_stats();
    assert!(concurrent.resolution_cache_enabled());
    assert_eq!(stats.resolutions(), total, "cache hits + shard lookups cover every sample");
    assert_eq!(stats.hits + stats.cache_hits, total, "every access lands inside an object");
    assert_eq!(stats.cache_lookups, total, "every sample probes its thread's cache first");
    assert!(
        stats.cache_hits > stats.lookups,
        "hot objects must mostly resolve from the cache ({} cache hits, {} shard lookups)",
        stats.cache_hits,
        stats.lookups
    );
}

#[test]
fn disabling_the_resolution_cache_preserves_profiles_exactly() {
    // The cache is a pure fast path: profiles with and without it are bit-identical.
    let logs = Arc::new(build_logs());
    let cached = new_session();
    let uncached = Session::builder()
        .period(PERIOD)
        .resolution_cache(false)
        .collect_objects()
        .collect_code()
        .collect_numa()
        .build();
    for log in logs.iter() {
        replay_allocs(&cached, log);
        replay_allocs(&uncached, log);
    }
    for log in logs.iter() {
        replay_accesses(&cached, log);
        replay_accesses(&uncached, log);
    }
    assert_eq!(
        canonical_text(cached.object_profile().unwrap()),
        canonical_text(uncached.object_profile().unwrap())
    );
    let uncached_stats = uncached.splay_lookup_stats();
    assert!(!uncached.resolution_cache_enabled());
    assert_eq!(uncached_stats.cache_lookups, 0, "no cache, no probes");
    assert_eq!(uncached_stats.lookups, uncached.total_samples());
}

#[test]
fn continuous_snapshots_never_lose_samples_and_merge_like_a_sequential_replay() {
    // The pause-free snapshot path: a snapshot retires each collector's open buffer
    // epoch (an O(1) take from each thread slot) instead of cloning state under the
    // sampling locks. Snapshotting *continuously* while four threads ingest must
    // therefore (a) keep every intermediate view internally consistent, (b) lose no
    // samples, and (c) leave the final profiles byte-identical to a sequential replay
    // that was never snapshotted — delta retirement must be exact.
    let logs = Arc::new(build_logs());
    let session = new_session();
    for log in logs.iter() {
        replay_allocs(&session, log);
    }
    let mut observed_snapshots = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..logs.len())
            .map(|i| {
                let s = Arc::clone(&session);
                let logs = Arc::clone(&logs);
                scope.spawn(move || replay_accesses(&s, &logs[i]))
            })
            .collect();
        // Snapshot in a tight loop until every ingestion thread is done — every
        // iteration retires the collectors' open epochs mid-run.
        while !workers.iter().all(|w| w.is_finished()) {
            let snapshot = session.snapshot();
            let object = snapshot.object.expect("object collector registered");
            assert_eq!(
                object.total_samples(),
                object.threads.iter().map(|t| t.samples).sum::<u64>(),
                "snapshot view is internally consistent"
            );
            assert!(
                snapshot.total_samples <= session.total_samples(),
                "a snapshot never reports samples from the future"
            );
            observed_snapshots += 1;
        }
    });
    assert!(observed_snapshots > 0, "at least one snapshot raced the ingestion");
    assert!(
        session.snapshot_retirements() >= observed_snapshots,
        "every snapshot retires a buffer epoch"
    );

    // Zero lost samples.
    let final_snapshot = session.snapshot();
    assert_eq!(final_snapshot.total_samples, session.total_samples());
    assert_eq!(final_snapshot.object.as_ref().unwrap().total_samples(), session.total_samples());
    assert_eq!(final_snapshot.code.as_ref().unwrap().total_samples, session.total_samples());
    assert_eq!(final_snapshot.numa.as_ref().unwrap().total_samples(), session.total_samples());

    // Merge fidelity: identical to a never-snapshotted sequential replay.
    let sequential = new_session();
    for log in logs.iter() {
        replay_allocs(&sequential, log);
    }
    for log in logs.iter() {
        replay_accesses(&sequential, log);
    }
    assert_eq!(
        canonical_text(final_snapshot.object.unwrap()),
        canonical_text(sequential.object_profile().unwrap()),
        "continuous snapshotting must not perturb the final object profile"
    );
    let sequential_numa = sequential.numa_profile().unwrap();
    let numa = final_snapshot.numa.unwrap();
    assert_eq!(numa.node_traffic, sequential_numa.node_traffic);
    let mut concurrent_paths: Vec<_> = final_snapshot
        .code
        .as_ref()
        .unwrap()
        .cct
        .nodes_with_metrics()
        .map(|(_, path, m)| (path, *m))
        .collect();
    let sequential_code = sequential.code_profile().unwrap();
    let mut sequential_paths: Vec<_> = sequential_code
        .cct
        .nodes_with_metrics()
        .map(|(_, path, m)| (path, *m))
        .collect();
    concurrent_paths.sort_by(|a, b| a.0.cmp(&b.0));
    sequential_paths.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(concurrent_paths, sequential_paths);
}

#[test]
fn one_thread_id_driven_from_two_os_threads_loses_counts_but_never_consistency() {
    // A caller breaking the one-driver-per-thread contract: two OS threads replay the
    // same thread's stream under the same `ThreadId` at once. Increments may be lost
    // to the racing countdown stores, but nothing may panic or deadlock, no overflow
    // may be fabricated, and every view must still account for every sample taken.
    let logs = build_logs();
    let log = &logs[0];
    let session = new_session();
    replay_allocs(&session, log);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                replay_accesses(&session, log);
            });
        }
    });

    let l1_missing_loads = log
        .outcomes
        .iter()
        .filter(|o| o.l1_miss && o.access.kind == djx_memsim::AccessKind::Load)
        .count() as u64;
    let total = session.total_samples();
    assert!(total > 0, "the racing drivers must still sample");
    assert!(
        total <= 2 * l1_missing_loads / PERIOD,
        "{total} samples from 2 × {l1_missing_loads} events at period {PERIOD}"
    );
    let [(PmuEvent::L1Miss, counted)] = session.event_totals()[..] else {
        panic!("one programmed event");
    };
    assert!(counted <= 2 * l1_missing_loads, "{counted} events counted");
    assert_eq!(session.thread_count(), 1);

    let object = session.object_profile().expect("object collector registered");
    assert_eq!(object.threads.len(), 1);
    assert_eq!(object.total_samples(), total, "object-centric view dropped samples");
    assert_eq!(session.code_profile().unwrap().total_samples, total, "code view dropped samples");
    assert_eq!(session.numa_profile().unwrap().total_samples(), total, "NUMA view dropped samples");
    assert_eq!(session.splay_lookup_stats().resolutions(), total);
}
