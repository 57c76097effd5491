//! Fleet fault-tolerance soak: kill the aggregator **twice** mid-run — under a
//! seeded, deterministic [`FaultPlan`] injecting drops, delays and corrupted
//! acks — and prove the recovered fleet still answers queries byte-identically
//! to an uninterrupted single-process baseline.
//!
//! ```text
//! cargo run --example fleet_soak
//! ```
//!
//! The walkthrough:
//!
//! 1. bind a WAL-backed [`FleetAggregator`] (`FsyncPolicy::EveryFrame`) with a
//!    seeded `FaultPlan` that drops frame 2, corrupts the ack of frame 5 and
//!    delays frame 7 — the producers' ack deadlines and jittered backoff absorb
//!    all three;
//! 2. three producer sessions stream through socket-backed [`FleetSink`]s with
//!    tiny memory budgets and disk spill, while twin sessions write the same
//!    events to local epoch logs (the comparison baseline);
//! 3. after a third of the workload the aggregator is killed (`shutdown` +
//!    drop — everything acknowledged is in the WAL, everything else is still
//!    buffered producer-side); part of the next third lands **during the
//!    outage**, overflowing the memory budget into the spill tier;
//! 4. `FleetAggregator::recover(dir)` replays the WALs and rebinds the same
//!    address; the producers' backoff loops find it, re-handshake, and backfill
//!    — duplicates of already-recovered epochs are re-acked, not re-folded;
//! 5. steps 3–4 repeat for a **second** kill/restart (this incarnation gets its
//!    own fault plan), then the streams finish;
//! 6. the final fleet — having survived two crashes and injected faults — must
//!    render every query byte-identically (text and JSON, in-process and over
//!    the wire) to a `MultiSource` fold of the three pristine local logs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::{AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    BackoffPolicy, DrainPolicy, EpochLog, FaultPlan, FleetAggregator, FleetClient, FleetSink,
    FsyncPolicy, GroupBy, MultiSource, Query, RankBy, Session, SharedBuffer,
};

const PRODUCERS: u64 = 3;
const OBJECTS: u64 = 16;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES: u64 = 24_000;
const PERIOD: u64 = 32;
const SIZE_FILTER: u64 = 1024;

/// One simulated producer process: a disjoint thread, arena, class, call trace
/// and a **precomputed** deterministic access stream, so the fleet session and
/// its local-log twin ingest identical events.
struct Producer {
    thread: ThreadId,
    class_name: String,
    call_trace: Vec<Frame>,
    base: u64,
    outcomes: Vec<AccessOutcome>,
}

fn producers() -> Vec<Producer> {
    (0..PRODUCERS)
        .map(|p| {
            let base = 0x1000_0000 + p * 0x1000_0000;
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x853c49e6748fea9bu64 ^ p.wrapping_mul(0x9e3779b97f4a7c15);
            let outcomes = (0..ACCESSES)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let obj = (x >> 33) % OBJECTS;
                    let addr = base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    hierarchy.access(MemoryAccess::load(0, addr, 8))
                })
                .collect();
            Producer {
                thread: ThreadId(p + 1),
                class_name: format!("soak{p}[]"),
                call_trace: vec![
                    Frame::new(MethodId(p as u32 + 1), 0),
                    Frame::new(MethodId(30 + p as u32), 5),
                ],
                base,
                outcomes,
            }
        })
        .collect()
}

/// Scratch directory removed on drop (and pre-cleaned from any earlier run).
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("djxperf-soak-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir creates");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn replay_allocs(session: &Session, producer: &Producer) {
    for i in 0..OBJECTS {
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

fn replay_accesses(session: &Session, producer: &Producer, range: std::ops::Range<usize>) {
    for outcome in &producer.outcomes[range] {
        session.on_memory_access(&MemoryAccessEvent {
            thread: producer.thread,
            outcome: *outcome,
            call_trace: &producer.call_trace,
            object: None,
        });
    }
}

/// Rebinds an aggregator on the address a previous incarnation owned; retried
/// because the OS may hold the port briefly after the old listener closes.
fn rebind<F: FnMut() -> std::io::Result<FleetAggregator>>(mut bind: F) -> FleetAggregator {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match bind() {
            Ok(aggregator) => return aggregator,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebinding the aggregator port: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Ingest `range` of every producer's stream into both its fleet session and
/// its local-log twin, flushed in `chunks` pieces so multiple epoch frames form
/// (and, during an outage, pile into the bounded buffer and spill tier).
fn ingest(
    fleet: &[Arc<Session>],
    local: &[Arc<Session>],
    procs: &[Producer],
    range: std::ops::Range<usize>,
    chunks: usize,
) {
    let span = range.end - range.start;
    for c in 0..chunks {
        let lo = range.start + c * span / chunks;
        let hi = range.start + (c + 1) * span / chunks;
        for p in 0..PRODUCERS as usize {
            replay_accesses(&fleet[p], &procs[p], lo..hi);
            replay_accesses(&local[p], &procs[p], lo..hi);
            fleet[p].flush_export();
        }
    }
}

/// Waits until the aggregator has folded every sample each producer session has
/// taken so far and no producer has frames pending. Counting samples (not just
/// an empty sink buffer) waits out the export drainer too, which hands its
/// queued deltas to the sink asynchronously. `flush_pending` drives the
/// delivery: an idle sink retries buffered frames only when asked (normally the
/// next delta or the finish asks), so a fault that hit a phase's **last** frame
/// heals here instead of waiting for more traffic.
fn quiesce(
    sessions: &[Arc<Session>],
    sinks: &[Arc<FleetSink>],
    aggregator: &FleetAggregator,
    what: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let drained = sinks.iter().all(|s| s.flush_pending() == 0);
        let status = aggregator.status();
        let folded = status.len() == PRODUCERS as usize
            && status
                .iter()
                .zip(sessions)
                .all(|(s, session)| s.samples == session.total_samples());
        if drained && folded {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: producers never quiesced");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wal_dir = Scratch::new("wal");
    let spill_dir = Scratch::new("spill");

    // Incarnation 1: durable (append-before-ack, fsync per frame) and hostile —
    // the seeded fault plan drops frame 2 outright, corrupts the ack of frame 5
    // (the producer rejects it, severs, and the duplicate pre-check re-acks on
    // reconnect) and delays frame 7.
    let mut aggregator = FleetAggregator::builder()
        .wal(&wal_dir.0, FsyncPolicy::EveryFrame)
        .fault_plan(FaultPlan::new().drop_at(2).corrupt_at(5).delay_at(7, Duration::from_millis(2)))
        .bind("127.0.0.1:0")?;
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    println!("aggregator (incarnation 1) listening on {addr}, WAL at {}", wal_dir.0.display());

    let procs = producers();
    // Tiny memory budgets force the outages through the spill tier; short ack
    // deadlines and fast seeded backoff keep the soak brisk and deterministic.
    let sinks: Vec<Arc<FleetSink>> = (0..PRODUCERS)
        .map(|p| {
            Ok(Arc::new(
                FleetSink::builder(&format!("soak{p}"), PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
                    .ack_deadline(Some(Duration::from_millis(500)))
                    .backoff(
                        BackoffPolicy::new()
                            .initial(Duration::from_millis(2))
                            .max(Duration::from_millis(50))
                            .seed(p + 1),
                    )
                    .buffer_budget_bytes(512)
                    .spill_dir(&spill_dir.0)
                    .connect(&addr)?,
            ))
        })
        .collect::<std::io::Result<_>>()?;
    let policy = || DrainPolicy::new().capacity(8).coalesce().tick(Duration::from_millis(1));
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
    for p in 0..PRODUCERS as usize {
        replay_allocs(&fleet_sessions[p], &procs[p]);
        replay_allocs(&log_sessions[p], &procs[p]);
    }

    let third = ACCESSES as usize / 3;

    // --- Phase 1: first third under the (faulty) first incarnation. ---
    ingest(&fleet_sessions, &log_sessions, &procs, 0..third, 2);
    quiesce(&fleet_sessions, &sinks, &aggregator, "incarnation 1");
    for s in aggregator.status() {
        assert!(s.wal_bytes > 0, "{} logged frames before the first kill", s.producer);
    }

    // --- Kill #1; part of phase 2 lands during the outage. ---
    aggregator.shutdown();
    drop(aggregator);
    println!("kill #1: aggregator gone; producers buffer and spill through the outage");
    ingest(&fleet_sessions, &log_sessions, &procs, third..third + third / 2, 6);

    let mut aggregator = rebind(|| {
        FleetAggregator::recover(&wal_dir.0)
            .expect("WAL directory replays")
            .fault_plan(FaultPlan::new().drop_at(1).delay_at(3, Duration::from_millis(1)))
            .bind(&addr)
    });
    let report = aggregator.recovery_report().expect("recovered incarnations carry a report");
    println!("restart #1 recovered:");
    for row in &report.producers {
        println!(
            "  {}: {} frames replayed through epoch {}{}",
            row.producer,
            row.frames,
            row.last_epoch,
            if row.torn_tail.is_some() { " (torn tail truncated)" } else { "" },
        );
        assert!(row.frames > 0 && row.last_epoch > 0 && !row.finished);
    }
    ingest(&fleet_sessions, &log_sessions, &procs, third + third / 2..2 * third, 2);
    quiesce(&fleet_sessions, &sinks, &aggregator, "incarnation 2");

    // --- Kill #2; part of phase 3 lands during the second outage. ---
    aggregator.shutdown();
    drop(aggregator);
    println!("kill #2: down again mid-stream");
    ingest(&fleet_sessions, &log_sessions, &procs, 2 * third..2 * third + third / 2, 6);

    let aggregator = rebind(|| {
        FleetAggregator::recover(&wal_dir.0)
            .expect("WAL directory replays again")
            .bind(&addr)
    });
    let report = aggregator.recovery_report().expect("second recovery report");
    println!(
        "restart #2 recovered {} producers, {} frames total",
        report.producers.len(),
        report.producers.iter().map(|r| r.frames).sum::<u64>(),
    );
    ingest(&fleet_sessions, &log_sessions, &procs, 2 * third + third / 2..ACCESSES as usize, 2);

    // Quiesce: every stream delivers its terminal finish frame.
    for session in fleet_sessions.iter().chain(&log_sessions) {
        session.finish_export()?;
    }
    for (p, sink) in sinks.iter().enumerate() {
        let stats = sink.stats();
        assert!(stats.connects >= 3, "producer {p} reconnected after both kills: {stats:?}");
        assert_eq!(stats.pending_frames, 0, "producer {p} delivered every buffered frame");
        assert_eq!(stats.dropped_epochs, 0, "the default policy never drops");
        println!(
            "producer {p}: {} connects, {} frames sent, {} spilled, backoff reached {} ms",
            stats.connects, stats.frames_sent, stats.spilled_frames, stats.reconnect_backoff_ms
        );
    }
    for s in aggregator.status() {
        assert!(s.finished && !s.truncated, "{} delivered loss-free", s.producer);
        assert!(s.resumes >= 1, "{} resumed into a recovered fold", s.producer);
    }

    // The uninterrupted single-process baseline: fold the three pristine logs.
    let mut replayed = Vec::new();
    for buffer in &buffers {
        replayed.push(EpochLog::replay(&buffer.contents())?);
    }
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }

    // Byte identity across two crashes, two recoveries and seven injected
    // faults — in-process and over the wire.
    let mut client = FleetClient::connect(&addr)?;
    let queries = [
        Query::new().top(5),
        Query::new().rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::Site),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
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
        "soak OK: {} producers, 2 aggregator kills, {} queries byte-identical to the \
         uninterrupted fold ({} samples total)",
        PRODUCERS,
        queries.len(),
        headline.total_samples
    );
    Ok(())
}
