//! Multi-thread stress test of the sharded sample-ingestion pipeline.
//!
//! Four OS threads drive one [`Session`] concurrently through its listener interface —
//! the same call pattern a real profiler sees, where every thread's PMU overflow handler
//! runs on that thread. The test asserts the two properties the sharded index and the
//! per-thread record must preserve under concurrency:
//!
//! 1. **Zero lost samples**: every sample emitted by any thread's PMU is present in
//!    every view of the merged profiles.
//! 2. **Merge fidelity**: the concurrently built per-thread profiles merge to exactly
//!    the profiles a single-threaded replay of the same event log produces — the
//!    interleaving of threads must not change any attributed metric — and the
//!    code-centric and NUMA queries over them equal what an independent reference
//!    profiler — its own per-thread PMUs fed the same accesses, every sample recorded
//!    at its call path — saw.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::{PerfEventBuilder, PmuEvent, ThreadPmu};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    Cct, GroupBy, GroupKey, MetricVector, ObjectCentricProfile, ProfilerConfig, Query, QueryResult,
    Session,
};

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
    for_each_access(log, |event| session.on_memory_access(event));
}

/// Replays the thread's accesses into `session` and, access by access, into `views`.
fn replay_accesses_with(session: &Session, views: &ReferenceViews, log: &ThreadLog) {
    for_each_access(log, |event| {
        session.on_memory_access(event);
        views.observe(event);
    });
}

/// Hands `f` the thread's accesses as the runtime would report them.
fn for_each_access(log: &ThreadLog, mut f: impl FnMut(&MemoryAccessEvent<'_>)) {
    for outcome in &log.outcomes {
        f(&MemoryAccessEvent {
            thread: log.thread,
            outcome: *outcome,
            call_trace: &log.call_trace,
            object: None,
        });
    }
}

fn new_session() -> Arc<Session> {
    Session::builder().period(PERIOD).collect_objects().build()
}

/// The code-centric and NUMA views of a profile: its `Context` and `NodePair` queries.
fn code_and_numa(profile: &ObjectCentricProfile) -> (QueryResult, QueryResult) {
    let view = |axis| Query::new().group_by(axis).evaluate(profile).expect("an owned profile");
    (view(GroupBy::Context), view(GroupBy::NodePair))
}

/// Samples over every group of a query result.
fn grouped_samples(result: &QueryResult) -> u64 {
    result.groups.iter().map(|g| g.metrics.samples).sum()
}

/// The code-centric and NUMA views as an independent naive profiler computes them:
/// one PMU per thread, programmed like the session's and fed the same accesses, with
/// every sample recorded at its call path in a CCT of its own and its
/// `(cpu_node, page_node)` pair counted. A PMU seeds its jitter by thread id, so its
/// samples equal the session's: the check covers the sampler as well as the record.
struct ReferenceViews {
    period: u64,
    pmus: HashMap<ThreadId, ThreadPmu>,
    cct: Mutex<Cct>,
    traffic: Mutex<HashMap<(u32, u32), u64>>,
}

impl ReferenceViews {
    /// A PMU per thread of `logs`, programmed from `config`.
    fn new(config: ProfilerConfig, logs: &[ThreadLog]) -> Self {
        let pmu = PerfEventBuilder::new(config.event)
            .sample_period(config.period)
            .jitter(config.jitter);
        Self {
            period: config.period,
            pmus: logs.iter().map(|log| (log.thread, pmu.open_for_thread(log.thread.0))).collect(),
            cct: Mutex::default(),
            traffic: Mutex::default(),
        }
    }

    /// Counts one access on its thread's PMU and records the samples it fires.
    fn observe(&self, event: &MemoryAccessEvent<'_>) {
        self.pmus[&event.thread].observe(&event.outcome, |samples| {
            let (mut cct, mut traffic) = (self.cct.lock().unwrap(), self.traffic.lock().unwrap());
            for sample in samples {
                let node = cct.insert_path(event.call_trace);
                cct.metrics_mut(node).record_sample(sample, self.period);
                *traffic.entry((sample.cpu_node.0, sample.page_node.0)).or_insert(0) += 1;
            }
        });
    }

    /// Checks a `Context` query (`code`) and a `NodePair` query (`numa`) against
    /// the recorded contexts and traffic.
    fn check(&self, code: &QueryResult, numa: &QueryResult) {
        let (cct, traffic) = (self.cct.lock().unwrap(), self.traffic.lock().unwrap());
        let mut reference: Vec<_> =
            cct.nodes_with_metrics().map(|(_, path, m)| (path, *m)).collect();
        reference.sort_by(|a, b| a.0.cmp(&b.0));
        let mut rows: Vec<(Vec<Frame>, MetricVector)> = code
            .groups
            .iter()
            .map(|g| match &g.key {
                GroupKey::Context(path) => (path.clone(), g.metrics),
                other => panic!("not a context group: {other:?}"),
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(rows, reference, "code-centric contexts");
        let mut traffic: Vec<((u32, u32), u64)> = traffic.iter().map(|(p, n)| (*p, *n)).collect();
        traffic.sort_unstable();
        let mut cells: Vec<((u32, u32), u64)> = numa
            .groups
            .iter()
            .map(|g| match g.key {
                GroupKey::NodePair { cpu_node, page_node } => {
                    let m = &g.metrics;
                    let split =
                        if cpu_node == page_node { m.local_samples } else { m.remote_samples };
                    assert_eq!(split, m.samples, "a cell is all local or all remote");
                    ((cpu_node, page_node), m.samples)
                }
                ref other => panic!("not a node-pair group: {other:?}"),
            })
            .collect();
        cells.sort_unstable();
        assert_eq!(cells, traffic, "NUMA traffic matrix");
    }
}

/// A session and a [`ReferenceViews`] programmed like it for the threads of `logs`.
fn session_with_reference(logs: &[ThreadLog]) -> (Arc<Session>, ReferenceViews) {
    let session = new_session();
    let views = ReferenceViews::new(session.config(), logs);
    (session, views)
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
    let (concurrent, views) = session_with_reference(&logs);
    for log in logs.iter() {
        replay_allocs(&concurrent, log);
    }
    std::thread::scope(|scope| {
        for i in 0..logs.len() {
            let (session, views) = (Arc::clone(&concurrent), &views);
            let logs = Arc::clone(&logs);
            scope.spawn(move || replay_accesses_with(&session, views, &logs[i]));
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
    let (code, numa) = code_and_numa(&object);
    assert_eq!(object.total_samples(), total, "object-centric view dropped samples");
    assert_eq!(grouped_samples(&code), total, "code-centric view dropped samples");
    assert_eq!(grouped_samples(&numa), total, "NUMA view dropped samples");

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

    // The text above renders the code-centric contexts and the traffic matrix too;
    // both views also equal what the reference profiler recorded concurrently.
    views.check(&code, &numa);

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
    // The pause-free snapshot path: a snapshot retires the record's open buffer
    // epoch (an O(1) take from each thread slot) instead of cloning state under the
    // sampling locks. Snapshotting *continuously* while four threads ingest must
    // therefore (a) keep every intermediate view internally consistent, (b) lose no
    // samples, and (c) leave the final profiles byte-identical to a sequential replay
    // that was never snapshotted — delta retirement must be exact.
    let logs = Arc::new(build_logs());
    let (session, views) = session_with_reference(&logs);
    for log in logs.iter() {
        replay_allocs(&session, log);
    }
    let mut observed_snapshots = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..logs.len())
            .map(|i| {
                let (s, views) = (Arc::clone(&session), &views);
                let logs = Arc::clone(&logs);
                scope.spawn(move || replay_accesses_with(&s, views, &logs[i]))
            })
            .collect();
        // Snapshot in a tight loop until every ingestion thread is done — every
        // iteration retires the record's open epochs mid-run.
        while !workers.iter().all(|w| w.is_finished()) {
            let object = session.object_profile().expect("object collector registered");
            assert_eq!(
                object.total_samples(),
                object.threads.iter().map(|t| t.samples).sum::<u64>(),
                "snapshot view is internally consistent"
            );
            // The three views read one retirement: they count the same samples.
            let (code, numa) = code_and_numa(&object);
            assert_eq!(grouped_samples(&code), object.total_samples());
            assert_eq!(grouped_samples(&numa), object.total_samples());
            assert!(
                object.total_samples() <= session.total_samples(),
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
    let final_object = session.object_profile().expect("object collector registered");
    let (final_code, final_numa) = code_and_numa(&final_object);
    assert_eq!(final_object.total_samples(), session.total_samples());
    assert_eq!(grouped_samples(&final_code), session.total_samples());
    assert_eq!(grouped_samples(&final_numa), session.total_samples());

    // Merge fidelity: identical to a never-snapshotted sequential replay.
    let sequential = new_session();
    for log in logs.iter() {
        replay_allocs(&sequential, log);
    }
    for log in logs.iter() {
        replay_accesses(&sequential, log);
    }
    assert_eq!(
        canonical_text(final_object),
        canonical_text(sequential.object_profile().unwrap()),
        "continuous snapshotting must not perturb the final object profile"
    );
    views.check(&final_code, &final_numa);
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
    let (code, numa) = code_and_numa(&object);
    assert_eq!(grouped_samples(&code), total, "code view dropped samples");
    assert_eq!(grouped_samples(&numa), total, "NUMA view dropped samples");
    assert_eq!(session.splay_lookup_stats().resolutions(), total);
}
