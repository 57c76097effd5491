//! Fleet profiling end to end: three producer "processes" stream epoch deltas over
//! loopback TCP into one aggregator daemon, which answers the full `Query` API over
//! the merged fleet — byte-identically to a single-process `MultiSource` fold of
//! the same producers' epoch logs.
//!
//! ```text
//! cargo run --example fleet
//! ```
//!
//! The walkthrough:
//!
//! 1. bind a [`FleetAggregator`] on a loopback port;
//! 2. start three producer sessions, each streaming through a socket-backed
//!    [`FleetSink`] (`SessionBuilder::stream_to_fleet`) **and** writing the same
//!    events to a local binary epoch log — the comparison baseline;
//! 3. mid-run, drop producer 0's connection: the sink reconnects, resumes from the
//!    acknowledged epoch, and nothing is lost or double-counted;
//! 4. query the fleet both in-process (`aggregator.query`) and over the wire
//!    (`FleetClient`), and assert every rendering is **byte-identical** to the same
//!    query over a `MultiSource` fold of the three local logs.

use std::sync::Arc;
use std::time::Duration;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    BinaryChunkedSink, DrainPolicy, FleetAggregator, FleetClient, FleetSink, GroupBy, MultiSource,
    Query, RankBy, Session, SharedBuffer,
};

const PRODUCERS: u64 = 3;
const OBJECTS: u64 = 12;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES: u64 = 40_000;
const PERIOD: u64 = 32;
const SIZE_FILTER: u64 = 1024;

/// One simulated producer process: a disjoint thread, arena, class and call trace.
struct Producer {
    thread: ThreadId,
    class_name: String,
    call_trace: Vec<Frame>,
    base: u64,
}

fn producers() -> Vec<Producer> {
    (0..PRODUCERS)
        .map(|p| Producer {
            thread: ThreadId(p + 1),
            class_name: format!("shard{p}[]"),
            call_trace: vec![
                Frame::new(MethodId(p as u32 + 1), 0),
                Frame::new(MethodId(20 + p as u32), 3),
            ],
            base: 0x1000_0000 + p * 0x1000_0000,
        })
        .collect()
}

fn alloc_into(producer: &Producer, sessions: &[&Arc<Session>]) {
    for i in 0..OBJECTS {
        for session in sessions {
            session.on_object_alloc(&AllocationEvent {
                object: ObjectId(producer.thread.0 * OBJECTS + i + 1),
                class: ClassId(0),
                class_name: &producer.class_name,
                start: producer.base + i * OBJECT_SIZE,
                size: OBJECT_SIZE,
                thread: producer.thread,
                call_trace: &producer.call_trace,
            });
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The daemon: one listener, one running fold per producer, query service on the
    // same socket.
    let aggregator = FleetAggregator::bind("127.0.0.1:0")?;
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    println!("aggregator listening on {addr}");

    let policy = || DrainPolicy::new().tick(Duration::from_millis(2));
    let procs = producers();

    // Per producer: a socket-backed fleet session plus a local epoch-log session
    // fed the same events — the single-process baseline the fleet must match.
    let sinks: Vec<Arc<FleetSink>> = (0..PRODUCERS)
        .map(|p| {
            Ok(Arc::new(FleetSink::connect(
                &addr,
                &format!("shard{p}"),
                PmuEvent::DEFAULT,
                PERIOD,
                SIZE_FILTER,
            )?))
        })
        .collect::<std::io::Result<_>>()?;
    let fleet_sessions: Vec<Arc<Session>> = sinks
        .iter()
        .map(|sink| {
            Session::builder()
                .period(PERIOD)
                .index_shards(8)
                .size_filter(SIZE_FILTER)
                .stream_to_fleet(Arc::clone(sink), policy())
                .build()
        })
        .collect();
    let buffers: Vec<SharedBuffer> = (0..PRODUCERS).map(|_| SharedBuffer::new()).collect();
    let log_sessions: Vec<Arc<Session>> = buffers
        .iter()
        .map(|buffer| {
            Session::builder()
                .period(PERIOD)
                .index_shards(8)
                .size_filter(SIZE_FILTER)
                .stream_to_binary(Box::new(buffer.clone()), policy())
                .build()
        })
        .collect();

    for (p, producer) in procs.iter().enumerate() {
        alloc_into(producer, &[&fleet_sessions[p], &log_sessions[p]]);
    }

    // Each producer ingests on its own OS thread, racing its drainer and the
    // socket. Producer 0 loses its connection mid-run — the reconnect/backfill
    // path runs as part of the example.
    std::thread::scope(|scope| {
        for (p, producer) in procs.iter().enumerate() {
            let (fleet, log) = (&fleet_sessions[p], &log_sessions[p]);
            let sink = &sinks[p];
            scope.spawn(move || {
                let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
                let mut x = 0x9e3779b97f4a7c15u64 ^ producer.thread.0;
                for i in 0..ACCESSES {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let obj = if x.is_multiple_of(8) { (x >> 33) % OBJECTS } else { (x >> 33) % 2 };
                    let addr = producer.base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    let outcome = hierarchy.access(MemoryAccess::load(0, addr, 8));
                    for session in [fleet, log] {
                        session.on_memory_access(&MemoryAccessEvent {
                            thread: producer.thread,
                            outcome,
                            call_trace: &producer.call_trace,
                            object: None,
                        });
                    }
                    if p == 0 && i == ACCESSES / 2 {
                        sink.disconnect();
                    }
                }
            });
        }
    });

    // Quiesce: every stream delivers its terminal finish frame (retried until the
    // aggregator acknowledges it as final).
    for session in fleet_sessions.iter().chain(&log_sessions) {
        session.finish_export()?;
    }
    let stats = sinks[0].stats();
    assert!(stats.connects >= 2, "producer 0 reconnected after the mid-run drop");
    println!(
        "producer 0 survived a mid-run disconnect: {} connects, {} frames delivered, last ack epoch {}",
        stats.connects, stats.frames_sent, stats.acked_epoch
    );
    for status in aggregator.status() {
        assert!(status.finished && !status.truncated, "{} delivered loss-free", status.producer);
        println!(
            "  {}: {} deltas, {} samples, {} resumes, {} duplicates dropped",
            status.producer, status.deltas, status.samples, status.resumes, status.duplicates
        );
    }

    // The single-process baseline: fold the three local logs.
    let mut replayed = Vec::new();
    for buffer in &buffers {
        replayed.push(BinaryChunkedSink::new().read_log_bytes(&buffer.contents())?);
    }
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }

    // One set of queries, three answer paths: MultiSource fold, the aggregator's
    // in-process view, and a FleetClient over the wire. All byte-identical.
    let mut client = FleetClient::connect(&addr)?;
    let queries = [
        Query::new().top(5),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Samples),
    ];
    for query in &queries {
        let from_fold = query.evaluate(&fold)?;
        let from_view = aggregator.query(query)?;
        let remote = client.query(query)?;
        assert_eq!(from_view.to_text(), from_fold.to_text(), "fleet view == fold (text)");
        assert_eq!(from_view.to_json(), from_fold.to_json(), "fleet view == fold (json)");
        assert_eq!(remote.text, from_fold.to_text(), "wire == fold (text)");
        assert_eq!(remote.json, from_fold.to_json(), "wire == fold (json)");
    }

    let headline = aggregator.query(&queries[0])?;
    println!("\n{headline}");
    println!(
        "fleet of {} producers answered {} queries byte-identically to the {}-log fold \
         ({} samples total)",
        PRODUCERS,
        queries.len(),
        fold.len(),
        headline.total_samples
    );
    Ok(())
}
