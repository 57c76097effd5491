//! The unified query layer end to end: one `Query`, four `ProfileSource`s, identical
//! answers.
//!
//! ```text
//! cargo run --example query
//! ```
//!
//! The walkthrough simulates the cross-machine merge workflow the query redesign
//! unlocks: two "processes" each profile their own half of a workload and stream a
//! replayable binary epoch log, while an aggregator session observes the
//! union of both event streams (and streams its own log). One `Query` — rank objects
//! by weighted L1 misses — is then evaluated against
//!
//! 1. the **live aggregator session** (first mid-run, racing ingestion, then after
//!    the run quiesced),
//! 2. the aggregator's **terminal snapshot** (an owned `ObjectCentricProfile`),
//! 3. the aggregator's **replayed epoch log** (`BinaryChunkedSink::read_log_bytes`), and
//! 4. a **`MultiSource` fold of the two per-process logs** — N machines, N logs, one
//!    answer.
//!
//! The final four results must render **byte-identically** (text and JSON): group
//! identities are source-independent, so how the samples were captured is invisible
//! to the query. The example asserts exactly that.

use std::sync::Arc;
use std::time::Duration;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    BinaryChunkedSink, DrainPolicy, GroupBy, MultiSource, Query, RankBy, Session, SharedBuffer,
};

/// One simulated process: a thread hammering a few monitored arrays.
struct Process {
    thread: ThreadId,
    class_name: &'static str,
    call_trace: Vec<Frame>,
    base: u64,
}

const OBJECTS: u64 = 8;
const OBJECT_SIZE: u64 = 8 * 1024;
/// Process A works three times as hard as process B, so the ranking has a clear
/// winner only a cross-process view can attribute correctly.
const ACCESSES: [u64; 2] = [90_000, 30_000];

fn processes() -> Vec<Process> {
    vec![
        Process {
            thread: ThreadId(1),
            class_name: "float[] (nvals)",
            call_trace: vec![Frame::new(MethodId(1), 5), Frame::new(MethodId(2), 9)],
            base: 0x1000_0000,
        },
        Process {
            thread: ThreadId(2),
            class_name: "long[] (bitmap)",
            call_trace: vec![Frame::new(MethodId(3), 2), Frame::new(MethodId(4), 7)],
            base: 0x5000_0000,
        },
    ]
}

/// Replays a process's allocations into every listed session.
fn alloc_into(process: &Process, sessions: &[&Arc<Session>]) {
    for i in 0..OBJECTS {
        let start = process.base + i * OBJECT_SIZE;
        for session in sessions {
            session.on_object_alloc(&AllocationEvent {
                object: ObjectId(process.thread.0 * OBJECTS + i + 1),
                class: ClassId(0),
                class_name: process.class_name,
                start,
                size: OBJECT_SIZE,
                thread: process.thread,
                call_trace: &process.call_trace,
            });
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Each process streams its own replayable epoch log; the aggregator both serves
    // live queries and streams a log of the union.
    let log_a = SharedBuffer::new();
    let log_b = SharedBuffer::new();
    let log_all = SharedBuffer::new();
    let stream_session = |buffer: &SharedBuffer| {
        Session::builder()
            .period(64)
            .index_shards(8)
            .stream_to_binary(
                Box::new(buffer.clone()),
                DrainPolicy::new().tick(Duration::from_millis(2)),
            )
            .build()
    };
    let session_a = stream_session(&log_a);
    let session_b = stream_session(&log_b);
    let aggregator = stream_session(&log_all);

    let procs = processes();
    let per_process: [&Arc<Session>; 2] = [&session_a, &session_b];
    for (process, own) in procs.iter().zip(per_process) {
        alloc_into(process, &[own, &aggregator]);
    }

    // The query under test: hottest objects by estimated L1 misses. One value,
    // evaluated against every source below.
    let query = Query::new().group_by(GroupBy::Object).rank_by(RankBy::WeightedEvents).top(10);

    // Ingest both processes' access streams — each sample goes to the owning
    // process's session and to the aggregator — and race a live query against the
    // half-ingested aggregator on the way.
    let mut mid_run_hottest = String::new();
    for (step, (process, own)) in procs.iter().zip(per_process).enumerate() {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
        let accesses = ACCESSES[step];
        let mut x = 0x9e3779b97f4a7c15u64 ^ process.thread.0;
        for i in 0..accesses {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Hot-object skew: most accesses hit the first two arrays.
            let obj = if x.is_multiple_of(8) { (x >> 33) % OBJECTS } else { (x >> 33) % 2 };
            let addr = process.base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
            let outcome = hierarchy.access(MemoryAccess::load(0, addr, 8));
            for session in [own, &aggregator] {
                session.on_memory_access(&MemoryAccessEvent {
                    thread: process.thread,
                    outcome,
                    call_trace: &process.call_trace,
                    object: None,
                });
            }
            if step == 0 && i == accesses / 2 {
                // A query racing ingestion: evaluates a pause-free snapshot of
                // whatever has been attributed so far — sampling never stops.
                let racing = query.evaluate(&*aggregator)?;
                let hot = racing.hottest().expect("mid-run samples exist");
                mid_run_hottest = hot.label.clone();
                println!(
                    "mid-run (racing ingestion): {} samples so far, hottest {} at {:.1}%",
                    racing.total_samples,
                    hot.label,
                    hot.fraction_of_total * 100.0
                );
            }
        }
    }

    // Quiesce every stream: the logs now carry each session's whole run.
    for session in [&session_a, &session_b, &aggregator] {
        session.finish_export()?;
    }

    // Source 1: the live session (post-run, but still answering queries).
    let live = query.evaluate(&*aggregator)?;
    // Source 2: an owned terminal snapshot.
    let snapshot = aggregator.object_profile().expect("object collector registered");
    let from_snapshot = query.evaluate(&snapshot)?;
    // Source 3: the aggregator's epoch log, replayed (DeltaFold under the hood).
    let replayed = BinaryChunkedSink::new().read_log_bytes(&log_all.contents())?;
    let from_log = query.evaluate(&replayed)?;
    // Source 4: the cross-machine path — fold the two per-process logs.
    let replay_a = BinaryChunkedSink::new().read_log_bytes(&log_a.contents())?;
    let replay_b = BinaryChunkedSink::new().read_log_bytes(&log_b.contents())?;
    let fold = MultiSource::new().with(&replay_a).with(&replay_b);
    let from_fold = query.evaluate(&fold)?;

    println!("\n{live}");

    // The whole point: byte-identical answers, no matter where the data came from.
    assert_eq!(live.to_text(), from_snapshot.to_text(), "live == snapshot");
    assert_eq!(live.to_text(), from_log.to_text(), "live == replayed log");
    assert_eq!(live.to_text(), from_fold.to_text(), "live == 2-log fold");
    assert_eq!(live.to_json(), from_fold.to_json(), "identical JSON renderings too");
    assert_eq!(live.hottest().unwrap().label, mid_run_hottest, "the hot object was hot all along");

    println!(
        "query answered identically over: live session, snapshot, replayed log, {}-log fold \
         ({} samples, hottest {})",
        fold.len(),
        live.total_samples,
        live.hottest().unwrap().label
    );
    Ok(())
}
