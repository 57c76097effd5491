//! Integration tests of the unified query layer (`djxperf::query`): one `Query`
//! evaluated over every `ProfileSource` shape must answer identically whenever the
//! sources describe the same samples.
//!
//! The load-bearing scenario is the **multi-log fold** (the cross-machine merge
//! path): N sessions profile disjoint thread sets concurrently, each streaming its
//! own replayable binary epoch log, while one union session ingests
//! everything. A `MultiSource` query over the N replayed logs must render
//! byte-identically to the same query over the union session — across grouping
//! axes and ranking metrics, in text and JSON.

use std::sync::Arc;
use std::time::Duration;

use djx_memsim::{AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    BinaryChunkedSink, BinaryFrameReader, DrainPolicy, GroupBy, LogRecord, MultiSource,
    ObjectCentricProfile, Query, RankBy, Session, SharedBuffer,
};

const PROCESSES: u64 = 3;
const OBJECTS_PER_PROCESS: u64 = 24;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES_PER_PROCESS: u64 = 30_000;
const PERIOD: u64 = 16;

/// One simulated process: a disjoint thread id, its own arena, class and call trace.
struct ProcessLog {
    thread: ThreadId,
    class_name: String,
    call_trace: Vec<Frame>,
    base: u64,
    outcomes: Vec<AccessOutcome>,
}

fn build_process_logs() -> Vec<ProcessLog> {
    (0..PROCESSES)
        .map(|p| {
            let base = 0x1000_0000 + p * 0x1000_0000;
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x853c49e6748fea9bu64 ^ p.wrapping_mul(0x9e3779b97f4a7c15);
            let outcomes = (0..ACCESSES_PER_PROCESS)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let obj = (x >> 33) % OBJECTS_PER_PROCESS;
                    let addr = base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    hierarchy.access(MemoryAccess::load(0, addr, 8))
                })
                .collect();
            ProcessLog {
                thread: ThreadId(p + 1),
                class_name: format!("proc{p}[]"),
                call_trace: vec![
                    Frame::new(MethodId(p as u32 + 1), 0),
                    Frame::new(MethodId(10 + p as u32), 4),
                ],
                base,
                outcomes,
            }
        })
        .collect()
}

fn replay_allocs(session: &Session, log: &ProcessLog) {
    for i in 0..OBJECTS_PER_PROCESS {
        session.on_object_alloc(&AllocationEvent {
            object: ObjectId(log.thread.0 * OBJECTS_PER_PROCESS + i + 1),
            class: ClassId(0),
            class_name: &log.class_name,
            start: log.base + i * OBJECT_SIZE,
            size: OBJECT_SIZE,
            thread: log.thread,
            call_trace: &log.call_trace,
        });
    }
}

fn replay_accesses(session: &Session, log: &ProcessLog) {
    for outcome in &log.outcomes {
        session.on_memory_access(&MemoryAccessEvent {
            thread: log.thread,
            outcome: *outcome,
            call_trace: &log.call_trace,
            object: None,
        });
    }
}

fn streaming_session(buffer: &SharedBuffer) -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .index_shards(8)
        .stream_to_binary(
            Box::new(buffer.clone()),
            DrainPolicy::new().tick(Duration::from_millis(1)),
        )
        .build()
}

/// Runs N concurrent streaming sessions over disjoint thread ids plus one union
/// session ingesting everything; returns the union session and the N epoch logs.
fn run_union_and_per_process_logs() -> (Arc<Session>, Vec<Vec<u8>>) {
    let logs = build_process_logs();
    let buffers: Vec<SharedBuffer> = (0..PROCESSES).map(|_| SharedBuffer::new()).collect();
    let sessions: Vec<Arc<Session>> = buffers.iter().map(streaming_session).collect();
    let union = Session::builder().period(PERIOD).index_shards(8).collect_objects().build();

    // Allocations first (site tables are interned in deterministic order), then the
    // access streams — each process on its own OS thread, every session racing its
    // drainer, the union session ingesting all three streams concurrently.
    for (session, log) in sessions.iter().zip(&logs) {
        replay_allocs(session, log);
        replay_allocs(&union, log);
    }
    std::thread::scope(|scope| {
        for (session, log) in sessions.iter().zip(&logs) {
            scope.spawn(|| {
                replay_accesses(session, log);
                replay_accesses(&union, log);
            });
        }
    });

    let mut streamed = 0;
    for session in &sessions {
        streamed += session.finish_export().expect("stream finishes cleanly").samples_streamed;
    }
    assert_eq!(streamed, union.total_samples(), "disjoint processes partition the union");
    (union, buffers.iter().map(SharedBuffer::contents).collect())
}

#[test]
fn multi_log_fold_is_byte_identical_to_the_union_session() {
    let (union, logs) = run_union_and_per_process_logs();
    let replayed: Vec<ObjectCentricProfile> = logs
        .iter()
        .map(|log| BinaryChunkedSink::new().read_log_bytes(log).expect("log replays"))
        .collect();
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }
    assert_eq!(fold.len(), PROCESSES as usize);

    // The identity must hold across grouping axes and ranking metrics — text and
    // JSON renderings both.
    let queries = [
        Query::new(),
        Query::new().rank_by(RankBy::Samples),
        Query::new().rank_by(RankBy::EventsPerByte),
        Query::new().group_by(GroupBy::Site),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Samples),
        Query::new().filter_class("proc1[]"),
        Query::new().min_samples(5).top(2),
    ];
    for query in queries {
        let from_union = query.evaluate(&*union).expect("union session evaluates");
        let from_fold = query.evaluate(&fold).expect("fold evaluates");
        assert_eq!(from_fold.to_text(), from_union.to_text(), "text identity for {query:?}");
        assert_eq!(from_fold.to_json(), from_union.to_json(), "json identity for {query:?}");
        assert_eq!(from_union.total_samples, union.total_samples());
    }

    // The fold carries every process's hot class.
    let ranked = Query::new().evaluate(&fold).unwrap();
    for p in 0..PROCESSES {
        assert!(
            ranked.find_class(&format!("proc{p}[]")).is_some(),
            "process {p} visible in the fold"
        );
    }
}

#[test]
fn every_source_shape_answers_one_query_identically() {
    let (union, logs) = run_union_and_per_process_logs();
    let query = Query::new().rank_by(RankBy::WeightedEvents);

    let live = query.evaluate(&*union).unwrap();
    let snapshot = union.object_profile().unwrap();
    let from_snapshot = query.evaluate(&snapshot).unwrap();
    let from_slice = query.evaluate(std::slice::from_ref(&snapshot)).unwrap();
    let replayed: Vec<ObjectCentricProfile> = logs
        .iter()
        .map(|l| BinaryChunkedSink::new().read_log_bytes(l).unwrap())
        .collect();
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }
    let from_fold = query.evaluate(&fold).unwrap();

    for (name, result) in [
        ("snapshot", &from_snapshot),
        ("slice-of-snapshots", &from_slice),
        ("multi-log fold", &from_fold),
    ] {
        assert_eq!(result.to_text(), live.to_text(), "{name} == live text");
        assert_eq!(result.to_json(), live.to_json(), "{name} == live json");
    }
    // Session::query is the same evaluation.
    assert_eq!(union.query(&query).unwrap().to_text(), live.to_text());
}

#[test]
fn truncated_or_reordered_logs_cannot_masquerade_as_sources() {
    let (_union, logs) = run_union_and_per_process_logs();
    let log = &logs[0];
    // Drop the finish frame: the replay must refuse.
    let mut reader = BinaryFrameReader::new(log.as_slice());
    let mut finish_at = 0;
    while let Some(record) = reader.next_record().expect("the log decodes") {
        if matches!(record, LogRecord::Finish(_)) {
            break;
        }
        finish_at = reader.byte_offset() as usize;
    }
    assert!(finish_at > 0, "the log carries delta frames before its finish");
    assert!(
        BinaryChunkedSink::new().read_log_bytes(&log[..finish_at]).is_err(),
        "truncated stream rejected"
    );
    assert!(BinaryChunkedSink::new().read_log_bytes(b"not a log").is_err());
    // Text and JSON are render-only: neither replays.
    let profile = BinaryChunkedSink::new().read_log_bytes(log).unwrap();
    let json = Query::new().evaluate(&profile).unwrap().to_json();
    for (name, render) in [("text", profile.to_text()), ("JSON", json)] {
        let err = BinaryChunkedSink::new().read_log_bytes(render.as_bytes()).expect_err(name);
        assert!(err.message.contains("render-only"), "{name}: {err}");
    }
}
