//! Integration tests of the subscription-first live query layer
//! (`djxperf::query::live`): a [`LiveFold`] follows the epoch-retired delta stream
//! and registered [`LiveQuery`] watches render **byte-identically** to cold
//! [`Query::evaluate`] calls over the fold's snapshots — under concurrent
//! ingestion, over replayed log bytes, and across mid-run attachment.

use std::sync::Arc;
use std::time::Duration;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::query::live::LiveFold;
use djxperf::query::{GroupBy, Query, RankBy};
use djxperf::{BinaryChunkedSink, DrainPolicy, JsonSink, ProfileSink, Session, SharedBuffer};

const THREADS: u64 = 4;
const OBJECTS_PER_THREAD: u64 = 24;
const OBJECT_SIZE: u64 = 8 * 1024;
const PERIOD: u64 = 32;

struct ThreadLog {
    thread: ThreadId,
    allocs: Vec<(ObjectId, u64)>,
    outcomes: Vec<djx_memsim::AccessOutcome>,
    call_trace: Vec<Frame>,
}

fn build_logs(threads: u64, accesses: u64) -> Vec<ThreadLog> {
    (0..threads)
        .map(|t| {
            let base = 0x2000_0000 + t * 0x100_0000;
            let allocs: Vec<(ObjectId, u64)> = (0..OBJECTS_PER_THREAD)
                .map(|i| (ObjectId(t * OBJECTS_PER_THREAD + i + 1), base + i * OBJECT_SIZE))
                .collect();
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x9e3779b97f4a7c15u64 ^ t.wrapping_mul(0x853c49e6748fea9b);
            let outcomes = (0..accesses)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let obj = (x >> 33) % OBJECTS_PER_THREAD;
                    let addr = base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    hierarchy.access(MemoryAccess::load(0, addr, 8))
                })
                .collect();
            ThreadLog {
                thread: ThreadId(t + 1),
                allocs,
                outcomes,
                call_trace: vec![
                    Frame::new(MethodId(1), 0),
                    Frame::new(MethodId(10 + t as u32), 4),
                ],
            }
        })
        .collect()
}

fn replay_allocs(session: &Session, log: &ThreadLog) {
    for (object, start) in &log.allocs {
        session.on_object_alloc(&AllocationEvent {
            object: *object,
            class: ClassId(0),
            class_name: "live[]",
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

fn query_shapes() -> Vec<Query> {
    vec![
        Query::new(),
        Query::new().rank_by(RankBy::Samples).min_samples(1),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Samples),
        Query::new().top(3),
        Query::new().rank_by(RankBy::RemoteFraction).top(2).min_samples(1),
    ]
}

/// Asserts one watch renders byte-identically to a cold evaluation over the fold's
/// snapshot. Under concurrent ingestion the pair (render, snapshot) is only
/// meaningful when no epoch was folded in between, which the watch's version
/// exposes: render → snapshot → render, and the check applies when the version did
/// not move. Returns whether the check applied.
fn check_identity(
    query: &Query,
    lq: &mut djxperf::query::live::LiveQuery,
    fold: &LiveFold,
) -> bool {
    let before = lq.current();
    let snapshot = fold.snapshot();
    let after = lq.current();
    if before.version != after.version {
        return false;
    }
    let cold = query.evaluate(&snapshot).expect("cold evaluation succeeds");
    assert_eq!(
        before.result.to_text(),
        cold.to_text(),
        "live render must be byte-identical to a cold evaluation over the fold snapshot"
    );
    assert_eq!(before.result.to_json(), cold.to_json(), "JSON rendering must match too");
    true
}

#[test]
fn live_watches_track_the_stream_under_concurrent_ingestion() {
    let logs = Arc::new(build_logs(THREADS, 12_000));
    let buffer = SharedBuffer::new();
    let session: Arc<Session> = Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().tick(Duration::from_millis(1)),
        )
        .build();
    for log in logs.iter() {
        replay_allocs(&session, log);
    }

    let fold = session.live_fold().expect("the streaming session offers a live fold");
    let queries = query_shapes();
    let mut watches: Vec<_> = queries.iter().map(|q| q.watch(&fold)).collect();

    let mut applied = 0usize;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..logs.len())
            .map(|i| {
                let s = Arc::clone(&session);
                let logs = Arc::clone(&logs);
                scope.spawn(move || replay_accesses(&s, &logs[i]))
            })
            .collect();
        while !workers.iter().all(|w| w.is_finished()) {
            for (query, lq) in queries.iter().zip(watches.iter_mut()) {
                if check_identity(query, lq, &fold) {
                    applied += 1;
                }
            }
        }
    });

    // Quiesce: the workers are done, but the drainer retires their last epochs
    // asynchronously. Wait until the fold has absorbed every sample the session
    // took — then nothing is in flight and the identity check always applies.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        session.flush_export();
        let (folded, taken) = (fold.snapshot().total_samples(), session.total_samples());
        if folded == taken {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "fold never caught up: {folded}/{taken}");
        std::thread::sleep(Duration::from_millis(2));
    }
    for (query, lq) in queries.iter().zip(watches.iter_mut()) {
        assert!(check_identity(query, lq, &fold), "no epochs move on a quiesced stream");
        applied += 1;
    }
    assert!(applied > 0, "the identity check must have applied at least once");
    assert!(!fold.is_finished());
    assert!(fold.deltas() > 0, "the tap saw streamed epochs");

    session.finish_export().expect("the stream finishes cleanly");
    assert!(fold.is_finished(), "the terminal flush closes the fold");

    // At finish the fold snapshot IS the terminal profile (loss-free streaming), so
    // every watch's final render equals a cold evaluation of the session's profile.
    let terminal = session.object_profile().expect("object collector registered");
    for (query, lq) in queries.iter().zip(watches.iter_mut()) {
        let live = lq.current();
        assert!(live.finished);
        let cold = query.evaluate(&terminal).expect("cold evaluation succeeds");
        assert_eq!(live.result.to_text(), cold.to_text());
        assert_eq!(live.result.to_json(), cold.to_json());
        assert!(lq.next_epoch().is_none(), "a finished, fully observed watch drains");
    }
}

#[test]
fn a_watch_attached_mid_run_is_seeded_with_the_past() {
    let logs = build_logs(2, 6_000);
    let buffer = SharedBuffer::new();
    let session: Arc<Session> = Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().capacity(4).tick(Duration::from_secs(60)),
        )
        .build();
    for log in &logs {
        replay_allocs(&session, log);
    }

    // First half ingests (and retires epochs) before any fold exists.
    replay_accesses(&session, &logs[0]);
    session.flush_export();

    let query = Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples);
    let mut lq = session.watch(&query).expect("watch attaches mid-run");
    let seeded = lq.current();
    assert!(
        seeded.result.groups.iter().any(|g| g.metrics.samples > 0),
        "the watch is seeded with epochs retired before it attached"
    );

    // Second half arrives after attachment.
    replay_accesses(&session, &logs[1]);
    session.finish_export().expect("the stream finishes cleanly");

    let terminal = session.object_profile().expect("object collector registered");
    let live = lq.current();
    assert!(live.finished);
    assert_eq!(live.result.to_text(), query.evaluate(&terminal).unwrap().to_text());
    assert_eq!(live.result.to_json(), query.evaluate(&terminal).unwrap().to_json());
}

#[test]
fn a_watch_after_the_stream_finished_renders_the_terminal_state() {
    let logs = build_logs(2, 4_000);
    let buffer = SharedBuffer::new();
    let session: Arc<Session> = Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(Box::new(buffer.clone()), DrainPolicy::new())
        .build();
    for log in &logs {
        replay_allocs(&session, log);
        replay_accesses(&session, log);
    }
    session.finish_export().expect("the stream finishes cleanly");

    let query = Query::new().top(5);
    let mut lq = session.watch(&query).expect("a watch still attaches after the finish");
    assert!(lq.is_finished());
    let live = lq.current();
    let terminal = session.object_profile().expect("object collector registered");
    assert_eq!(live.result.to_text(), query.evaluate(&terminal).unwrap().to_text());
    assert!(lq.next_epoch().is_none());
}

#[test]
fn a_fold_fed_replayed_log_bytes_matches_the_cold_replay() {
    let logs = build_logs(THREADS, 8_000);
    let buffer = SharedBuffer::new();
    let session: Arc<Session> = Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().capacity(4).tick(Duration::from_secs(60)),
        )
        .build();
    for log in &logs {
        replay_allocs(&session, log);
    }
    // Interleave ingestion with flushes so the log carries many epochs.
    for log in &logs {
        replay_accesses(&session, log);
        session.flush_export();
    }
    session.finish_export().expect("the stream finishes cleanly");
    let terminal = session.object_profile().expect("object collector registered");

    // Feed the raw log bytes in awkward chunk sizes — the tail decoder must
    // reassemble frames split at arbitrary boundaries.
    let bytes = buffer.contents();
    let fold = LiveFold::new();
    let queries = query_shapes();
    let mut watches: Vec<_> = queries.iter().map(|q| q.watch(&fold)).collect();
    for chunk in bytes.chunks(97) {
        fold.feed(chunk).expect("the log bytes replay cleanly");
        for (query, lq) in queries.iter().zip(watches.iter_mut()) {
            assert!(check_identity(query, lq, &fold), "single-threaded: always applies");
        }
    }
    assert!(fold.is_finished(), "the log's finish record closes the fold");

    for (query, lq) in queries.iter().zip(watches.iter_mut()) {
        let live = lq.current();
        let cold = query.evaluate(&terminal).expect("cold evaluation succeeds");
        assert_eq!(
            live.result.to_text(),
            cold.to_text(),
            "a fold fed the epoch log renders the terminal profile"
        );
    }
}

#[test]
fn a_fold_fed_binary_log_bytes_matches_the_json_replay() {
    // The binary epoch log is the transport, JSON a write-only render target: a
    // fold fed the log bytes renders exactly what a query over the terminal
    // profile renders, and the JSON document is refused on read-back.
    let logs = build_logs(2, 6_000);
    let buffer = SharedBuffer::new();
    let session: Arc<Session> = Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().capacity(4).tick(Duration::from_secs(60)),
        )
        .build();
    for log in &logs {
        replay_allocs(&session, log);
    }
    for log in &logs {
        replay_accesses(&session, log);
        session.flush_export();
    }
    session.finish_export().expect("finish");
    let terminal = session.object_profile().expect("object collector registered");
    let json = JsonSink::new().write_to_string(&terminal);
    let err = BinaryChunkedSink::new()
        .read_log_bytes(json.as_bytes())
        .expect_err("JSON is render-only");
    assert!(err.message.contains("render-only"), "{err}");

    let query = Query::new().top(8);
    let fold = LiveFold::new();
    let mut lq = query.watch(&fold);
    for chunk in buffer.contents().chunks(61) {
        fold.feed(chunk).expect("the log bytes replay cleanly");
    }
    assert!(fold.is_finished());
    let live = lq.current().result;
    let cold = query.evaluate(&terminal).expect("cold evaluation succeeds");
    assert_eq!(live.to_text(), cold.to_text(), "the log and the terminal profile describe one run");
    assert_eq!(live.to_json(), cold.to_json());
}

// -----------------------------------------------------------------------------------
// Truncated watches: a shrinking ratio rank and a count-rank overtake.
// -----------------------------------------------------------------------------------

fn numa_sample(addr: u64, remote: bool) -> djx_pmu::Sample {
    djx_pmu::Sample {
        event: djx_pmu::PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: djx_memsim::NumaNode(0),
        page_node: djx_memsim::NumaNode(u32::from(remote)),
        effective_addr: addr,
        kind: djx_memsim::AccessKind::Load,
        value: 1,
        latency: 100,
        counter_value: 1,
    }
}

fn topk_sites() -> Vec<djxperf::AllocSite> {
    ["A[]", "B[]", "C[]"]
        .iter()
        .enumerate()
        .map(|(i, name)| djxperf::AllocSite {
            id: djxperf::AllocSiteId(i as u32),
            class_name: name.to_string(),
            call_path: vec![Frame::new(MethodId(i as u32 + 1), 0)],
        })
        .collect()
}

/// One hand-built epoch delta: `(site, remote, count)` sample batches on thread 1.
fn topk_delta(epoch: u64, batches: &[(u32, bool, u64)]) -> djxperf::ProfileDelta {
    let path = [Frame::new(MethodId(9), 0)];
    let mut fragment = djxperf::ThreadProfile::new(ThreadId(1), "main");
    for &(site, remote, count) in batches {
        for _ in 0..count {
            fragment.record_attributed(
                djxperf::AllocSiteId(site),
                &path,
                &numa_sample(0x1000 + u64::from(site) * 0x100, remote),
                1,
            );
        }
    }
    djxperf::ProfileDelta {
        epoch,
        threads: vec![djxperf::ThreadDelta { seq: 0, profile: fragment }],
    }
}

/// A ratio rank can *decrease*: local traffic dilutes a site's remote fraction until a
/// site outside the top 2 overtakes it. The truncated watch must drop it and still
/// render byte-identically to a cold evaluation.
#[test]
fn top_k_follows_a_decreasing_ratio_rank_out_of_the_heap() {
    let fold = LiveFold::new();
    fold.provide_sites(topk_sites());
    let query = Query::new().rank_by(RankBy::RemoteFraction).top(2).min_samples(1);
    let mut lq = query.watch(&fold);

    // Epoch 1: A is 100% remote, B 50%, C 25% — the top-2 is [A, B].
    fold.absorb(&topk_delta(
        1,
        &[(0, true, 2), (1, true, 1), (1, false, 1), (2, true, 1), (2, false, 3)],
    ))
    .expect("epoch 1 folds");
    check_identity(&query, &mut lq, &fold);
    let labels: Vec<String> = lq.current().result.groups.iter().map(|g| g.label.clone()).collect();
    assert_eq!(labels, ["A[]", "B[]"]);

    // Epoch 2: fourteen local accesses dilute A to 2/16 = 12.5% remote, below C's
    // 25% — A leaves the top 2 it was a member of, C takes its place.
    fold.absorb(&topk_delta(2, &[(0, false, 14)])).expect("epoch 2 folds");
    check_identity(&query, &mut lq, &fold);
    let labels: Vec<String> = lq.current().result.groups.iter().map(|g| g.label.clone()).collect();
    assert_eq!(labels, ["B[]", "C[]"], "the diluted site left the top-2");
}

/// Monotone count ranks only ever grow: a cold site overtaking the weakest member
/// must push it out of the top 2, again byte-identical to cold.
#[test]
fn top_k_eviction_when_a_hotter_site_overtakes_a_member() {
    let fold = LiveFold::new();
    fold.provide_sites(topk_sites());
    let query = Query::new().rank_by(RankBy::Samples).top(2).min_samples(1);
    let mut lq = query.watch(&fold);

    fold.absorb(&topk_delta(1, &[(0, false, 5), (1, false, 4), (2, false, 1)]))
        .expect("epoch 1 folds");
    check_identity(&query, &mut lq, &fold);
    let labels: Vec<String> = lq.current().result.groups.iter().map(|g| g.label.clone()).collect();
    assert_eq!(labels, ["A[]", "B[]"]);

    fold.absorb(&topk_delta(2, &[(2, false, 10)])).expect("epoch 2 folds");
    check_identity(&query, &mut lq, &fold);
    let labels: Vec<String> = lq.current().result.groups.iter().map(|g| g.label.clone()).collect();
    assert_eq!(labels, ["C[]", "A[]"], "the overtaken member was evicted");
}
