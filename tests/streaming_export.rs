//! Integration tests of the asynchronous delta-streaming export pipeline
//! (`djxperf::export`): a background drainer streams every epoch-retired
//! [`ProfileDelta`] through a [`ProfileSink`] while ingestion keeps running.
//!
//! The load-bearing property is **loss-free, order-preserving replay**: folding the
//! streamed deltas (here by replaying the binary [`BinaryChunkedSink`] epoch log) must
//! reproduce a profile *byte-identical* to the session's terminal
//! [`Session::object_profile`] — under
//! concurrent ingestion racing the drainer, under a pending delta that merges deltas,
//! behind a sink that stalls, and across user-driven snapshots that retire epochs
//! mid-stream.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    BinaryChunkedSink, DrainPolicy, FinishRecord, ObjectCentricProfile, ProfileDelta, ProfileSink,
    Session, SharedBuffer,
};

const THREADS: u64 = 4;
const OBJECTS_PER_THREAD: u64 = 32;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES_PER_THREAD: u64 = 20_000;
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
            let base = 0x1000_0000 + t * 0x100_0000;
            let allocs: Vec<(ObjectId, u64)> = (0..OBJECTS_PER_THREAD)
                .map(|i| (ObjectId(t * OBJECTS_PER_THREAD + i + 1), base + i * OBJECT_SIZE))
                .collect();
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x853c49e6748fea9bu64 ^ t.wrapping_mul(0x9e3779b97f4a7c15);
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
            class_name: "stream[]",
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

fn streaming_session(policy: DrainPolicy, buffer: &SharedBuffer) -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .collect_objects()
        .stream_to_binary(Box::new(buffer.clone()), policy)
        .build()
}

/// Replays the captured epoch log and checks it folds byte-identically to the
/// session's terminal profile.
fn assert_log_replays_terminal(buffer: &SharedBuffer, terminal: &ObjectCentricProfile) {
    let replayed = BinaryChunkedSink::new()
        .read_log_bytes(&buffer.contents())
        .expect("the epoch log replays");
    assert_eq!(
        replayed.to_text(),
        terminal.to_text(),
        "folding the streamed deltas must be byte-identical to the terminal snapshot"
    );
}

#[test]
fn streamed_deltas_fold_byte_identically_under_concurrent_ingestion() {
    let logs = Arc::new(build_logs(THREADS, ACCESSES_PER_THREAD));
    let buffer = SharedBuffer::new();
    // A fast tick so the drainer genuinely races the ingesting threads.
    let session = streaming_session(DrainPolicy::new().tick(Duration::from_millis(1)), &buffer);
    for log in logs.iter() {
        replay_allocs(&session, log);
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..logs.len())
            .map(|i| {
                let s = Arc::clone(&session);
                let logs = Arc::clone(&logs);
                scope.spawn(move || replay_accesses(&s, &logs[i]))
            })
            .collect();
        // User-driven snapshots retire epochs mid-stream; their deltas must be routed
        // into the stream, not discarded.
        while !workers.iter().all(|w| w.is_finished()) {
            let object = session.object_profile().expect("object collector registered");
            assert_eq!(
                object.total_samples(),
                object.threads.iter().map(|t| t.samples).sum::<u64>(),
                "mid-stream snapshots stay internally consistent"
            );
        }
    });

    assert!(session.export_active());
    let stats = session.finish_export().expect("the stream finishes cleanly");
    assert!(!session.export_active());
    assert!(stats.deltas_streamed > 0, "the drainer streamed deltas while ingestion ran");
    assert_eq!(
        stats.samples_streamed,
        session.total_samples(),
        "loss-free: every sample ingested is in exactly one streamed delta"
    );

    // The terminal snapshot taken after the finish is the replay reference.
    let terminal = session.object_profile().expect("object collector registered");
    assert_eq!(terminal.total_samples(), session.total_samples());
    assert_log_replays_terminal(&buffer, &terminal);
}

#[test]
fn coalesce_backpressure_folds_but_never_loses() {
    let logs = build_logs(2, 4_000);
    let buffer = SharedBuffer::new();
    let session = streaming_session(DrainPolicy::new().tick(Duration::from_secs(60)), &buffer);
    for log in &logs {
        replay_allocs(&session, log);
    }
    std::thread::scope(|scope| {
        for log in &logs {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for chunk in log.outcomes.chunks(128) {
                    for outcome in chunk {
                        session.on_memory_access(&MemoryAccessEvent {
                            thread: log.thread,
                            outcome: *outcome,
                            call_trace: &log.call_trace,
                            object: None,
                        });
                    }
                    // Concurrent flushes race each other and the drainer; a delta
                    // still pending takes the merge, so none of them ever waits.
                    session.flush_export();
                }
            });
        }
    });
    let stats = session.finish_export().unwrap();
    assert_eq!(stats.blocked, 0, "no push ever waits");
    assert_eq!(
        stats.samples_streamed,
        session.total_samples(),
        "coalescing folds deltas, it never drops samples"
    );
    let terminal = session.object_profile().unwrap();
    assert_log_replays_terminal(&buffer, &terminal);
}

#[test]
fn rapid_finishes_never_drop_the_terminal_record() {
    // Regression for a shutdown race: an earlier finish_export queued the closing
    // delta and the terminal item and only then marked the stream closed. A drainer
    // whose pop loop had just seen an empty queue could observe `closed` and exit
    // without one final drain, silently dropping both items — the log then carries no finish
    // record and replay rejects it despite a clean reported finish. Finishing right
    // after an ingestion burst, against a very fast tick, races exactly that window;
    // iterate to give the interleaving many chances to land.
    let logs = build_logs(1, 500);
    for _ in 0..64 {
        let buffer = SharedBuffer::new();
        let session =
            streaming_session(DrainPolicy::new().tick(Duration::from_micros(50)), &buffer);
        replay_allocs(&session, &logs[0]);
        replay_accesses(&session, &logs[0]);
        let stats = session.finish_export().expect("the stream finishes cleanly");
        assert_eq!(
            stats.samples_streamed,
            session.total_samples(),
            "loss-free across shutdown: every ingested sample was streamed"
        );
        let terminal = session.object_profile().unwrap();
        assert_log_replays_terminal(&buffer, &terminal);
    }
}

#[test]
fn finish_is_idempotent_and_post_finish_flushes_are_noops() {
    let logs = build_logs(1, 2_000);
    let buffer = SharedBuffer::new();
    let session = streaming_session(DrainPolicy::new(), &buffer);
    replay_allocs(&session, &logs[0]);
    replay_accesses(&session, &logs[0]);
    let first = session.finish_export().unwrap();
    let second = session.finish_export().unwrap();
    assert_eq!(first, second, "a later finish replays the first outcome");
    assert!(!session.flush_export(), "flushing a finished stream is a no-op");
    assert_eq!(session.export_stats(), Some(first));
    // Profiles remain readable (plain snapshot path) after the stream closed.
    let log_len = buffer.len();
    let terminal = session.object_profile().unwrap();
    assert!(terminal.total_samples() > 0);
    assert_eq!(buffer.len(), log_len, "post-finish reads write nothing");
    assert_log_replays_terminal(&buffer, &terminal);
}

#[test]
fn dropping_a_streaming_session_finishes_the_stream() {
    let logs = build_logs(1, 2_000);
    let buffer = SharedBuffer::new();
    let terminal_text;
    {
        let session = streaming_session(DrainPolicy::new(), &buffer);
        replay_allocs(&session, &logs[0]);
        replay_accesses(&session, &logs[0]);
        terminal_text = session.object_profile().unwrap().to_text();
        // No explicit finish: dropping the last reference must drain-on-drop.
    }
    let replayed = BinaryChunkedSink::new()
        .read_log_bytes(&buffer.contents())
        .expect("drop flushed a complete log");
    assert_eq!(replayed.to_text(), terminal_text);
}

#[test]
fn session_without_export_reports_unsupported() {
    let session = Session::builder().collect_objects().build();
    assert!(!session.export_active());
    assert_eq!(session.export_stats(), None);
    assert!(!session.flush_export());
    let err = session.finish_export().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::Unsupported);
}

#[test]
fn sink_without_delta_support_surfaces_at_finish() {
    /// A sink that refuses every delta with an error of a fixed kind.
    struct RefusingSink;
    impl ProfileSink for RefusingSink {
        fn on_delta(
            &self,
            _epoch: u64,
            _delta: &ProfileDelta,
            _out: &mut dyn io::Write,
        ) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "this sink refuses deltas"))
        }
        fn on_finish(&self, _record: &FinishRecord, _out: &mut dyn io::Write) -> io::Result<()> {
            Ok(())
        }
    }

    let logs = build_logs(1, 2_000);
    let buffer = SharedBuffer::new();
    let session = Session::builder()
        .period(PERIOD)
        .stream_to(Arc::new(RefusingSink), Box::new(buffer.clone()), DrainPolicy::new())
        .build();
    replay_allocs(&session, &logs[0]);
    replay_accesses(&session, &logs[0]);
    session.flush_export();
    let err = session.finish_export().expect_err("the refused delta surfaces at finish");
    assert_eq!(err.kind(), io::ErrorKind::Unsupported, "the sink's error kind survives finish");
    assert!(err.to_string().contains("refuses deltas"), "unexpected error: {err}");
    // Replayed finishes keep the kind too (the first error is cached as
    // kind+message).
    let replayed = session.finish_export().unwrap_err();
    assert_eq!(replayed.kind(), io::ErrorKind::Unsupported);
    assert!(replayed.to_string().contains("refuses deltas"), "{replayed}");
}

#[test]
fn a_finish_racing_sampling_checksums_exactly_the_streamed_deltas() {
    // The finish record's sample total must count the session's producer fold —
    // every delta on the wire — and not the samples the workers keep adding to their open
    // slots while the stream closes. Each round finishes a stream once both workers
    // have replayed their whole log once, with both still replaying.
    let logs = build_logs(2, 4_000);
    for round in 0..4 {
        let buffer = SharedBuffer::new();
        let session = streaming_session(DrainPolicy::new().tick(Duration::from_millis(1)), &buffer);
        for log in &logs {
            replay_allocs(&session, log);
        }
        let stop = AtomicBool::new(false);
        let first_passes = AtomicUsize::new(0);
        let stats = std::thread::scope(|scope| {
            for log in &logs {
                let (session, stop, first_passes) = (&session, &stop, &first_passes);
                scope.spawn(move || {
                    replay_accesses(session, log);
                    first_passes.fetch_add(1, Ordering::Release);
                    while !stop.load(Ordering::Relaxed) {
                        replay_accesses(session, log);
                    }
                });
            }
            while first_passes.load(Ordering::Acquire) < logs.len() {
                std::thread::yield_now();
            }
            let stats = session.finish_export();
            stop.store(true, Ordering::Relaxed);
            stats.expect("the stream finishes while the workers sample")
        });
        let replayed = BinaryChunkedSink::new()
            .read_log_bytes(&buffer.contents())
            .unwrap_or_else(|e| panic!("round {round}: the log fails its checksum: {e}"));
        assert_eq!(stats.samples_streamed, replayed.total_samples(), "round {round}");
        assert!(stats.samples_streamed > 0, "round {round}");
        assert!(session.total_samples() >= stats.samples_streamed, "round {round}");
    }
}

#[test]
fn panicking_sink_surfaces_at_finish_instead_of_hanging() {
    // A sink that panics mid-stream kills the drainer thread, so nothing ever takes
    // the pending delta again. Producers never wait for the drainer, and the panic must
    // surface as finish_export's error — not as a session that hangs on drop.
    struct PanickingSink;
    impl ProfileSink for PanickingSink {
        fn on_delta(
            &self,
            _epoch: u64,
            _delta: &ProfileDelta,
            _out: &mut dyn io::Write,
        ) -> io::Result<()> {
            panic!("sink exploded mid-stream");
        }
        fn on_finish(&self, _record: &FinishRecord, _out: &mut dyn io::Write) -> io::Result<()> {
            Ok(())
        }
    }

    let logs = build_logs(1, 2_000);
    let buffer = SharedBuffer::new();
    // The flushes after the panic merge into the one pending delta, which no
    // drainer takes any more; a retirement that waited for the drainer would hang.
    let session = Session::builder()
        .period(PERIOD)
        .stream_to(
            Arc::new(PanickingSink),
            Box::new(buffer.clone()),
            DrainPolicy::new().tick(Duration::from_millis(1)),
        )
        .build();
    replay_allocs(&session, &logs[0]);
    replay_accesses(&session, &logs[0]);
    for _ in 0..4 {
        session.flush_export();
    }
    let err = session.finish_export().expect_err("the drainer panic must surface");
    assert!(err.to_string().contains("panicked"), "unexpected error: {err}");
    // Repeated finishes replay the failure; profiles stay readable.
    assert!(session.finish_export().is_err());
    assert!(session.object_profile().unwrap().total_samples() > 0);
}

#[test]
fn a_stuck_sink_never_stalls_a_producer() {
    // The drainer sits inside the sink's on_delta until the test releases it, so
    // the pending delta is never taken while four threads flush 50 times each.
    // Every flush must return while the sink is still held: each merges its delta
    // into the pending one instead of waiting for the drainer.
    struct StuckSink {
        entered: AtomicBool,
        released: AtomicBool,
    }
    impl ProfileSink for StuckSink {
        fn on_delta(
            &self,
            epoch: u64,
            delta: &ProfileDelta,
            out: &mut dyn io::Write,
        ) -> io::Result<()> {
            self.entered.store(true, Ordering::Release);
            while !self.released.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            BinaryChunkedSink.on_delta(epoch, delta, out)
        }
        fn on_finish(&self, record: &FinishRecord, out: &mut dyn io::Write) -> io::Result<()> {
            BinaryChunkedSink.on_finish(record, out)
        }
    }

    const FLUSHES: usize = 50;
    const ACCESSES: u64 = 4_000;
    let logs = build_logs(THREADS, ACCESSES);
    let buffer = SharedBuffer::new();
    let sink =
        Arc::new(StuckSink { entered: AtomicBool::new(false), released: AtomicBool::new(false) });
    let session = Session::builder()
        .period(PERIOD)
        .stream_to(sink.clone(), Box::new(buffer.clone()), DrainPolicy::new())
        .build();
    for log in &logs {
        replay_allocs(&session, log);
    }
    // Get the drainer stuck in the sink before the producers start.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sink.entered.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "the drainer never reached the sink");
        replay_accesses(&session, &logs[0]);
        session.flush_export();
    }

    let total = logs.len() * FLUSHES;
    let returned = AtomicUsize::new(0);
    let returned_while_held = std::thread::scope(|scope| {
        for log in &logs {
            let (session, returned) = (&session, &returned);
            scope.spawn(move || {
                for chunk in log.outcomes.chunks(ACCESSES as usize / FLUSHES) {
                    for outcome in chunk {
                        session.on_memory_access(&MemoryAccessEvent {
                            thread: log.thread,
                            outcome: *outcome,
                            call_trace: &log.call_trace,
                            object: None,
                        });
                    }
                    session.flush_export();
                    returned.fetch_add(1, Ordering::Release);
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while returned.load(Ordering::Acquire) < total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Counted before the release: these flushes returned with the sink held.
        let held = returned.load(Ordering::Acquire);
        sink.released.store(true, Ordering::Release);
        held
    });
    assert_eq!(returned_while_held, total, "every flush returned while the sink was stuck");

    let stats = session.finish_export().expect("the stream finishes once the sink moves");
    assert!(stats.coalesced > 0, "the pending delta merged deltas: {stats:?}");
    assert_eq!(stats.blocked, 0, "no push ever waits");
    assert_eq!(stats.samples_streamed, session.total_samples());
    assert_eq!(
        stats.deltas_streamed, 2,
        "the delta the sink held, then one merge of everything flushed meanwhile: {stats:?}"
    );
    let terminal = session.object_profile().unwrap();
    assert_log_replays_terminal(&buffer, &terminal);
}

#[test]
fn snapshot_retirements_are_monotonic_across_concurrent_snapshots() {
    // Regression for the `snapshot_retirements` counter: its single Relaxed load must
    // observe a monotonically non-decreasing sequence from every thread, no matter
    // how many snapshots race — each retirement increments it under the producer
    // fold's lock, so going backwards would mean a torn or double-counted drain.
    let logs = Arc::new(build_logs(THREADS, 8_000));
    let session = Session::builder().period(PERIOD).collect_objects().build();
    for log in logs.iter() {
        replay_allocs(&session, log);
    }
    let snapshots_per_observer = 200u64;
    std::thread::scope(|scope| {
        for i in 0..logs.len() {
            let s = Arc::clone(&session);
            let logs = Arc::clone(&logs);
            scope.spawn(move || replay_accesses(&s, &logs[i]));
        }
        for _ in 0..3 {
            let s = Arc::clone(&session);
            scope.spawn(move || {
                let mut last = s.snapshot_retirements();
                for _ in 0..snapshots_per_observer {
                    let _ = s.object_profile();
                    let seen = s.snapshot_retirements();
                    assert!(seen >= last, "retirement counter went backwards: {seen} after {last}");
                    assert!(seen > last, "a snapshot must close at least one epoch");
                    last = seen;
                }
            });
        }
    });
    assert!(
        session.snapshot_retirements() >= 3 * snapshots_per_observer,
        "every observed snapshot retired an epoch"
    );
}

#[test]
fn coalescing_deltas_first_equals_folding_them_in_order() {
    // ProfileDelta::merge_from is the shared exactness argument for replay folding
    // *and* export coalescing: folding [d1, d2, d3] one by one must equal folding
    // [d1, merge(d2, d3)] — so a coalesced stream replays identically to an exact one.
    use djx_memsim::{AccessKind, NumaNode};
    use djxperf::{AllocSiteId, DeltaFold, ThreadDelta, ThreadProfile};

    let sample = |addr: u64| djx_pmu::Sample {
        event: djx_pmu::PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(0),
        effective_addr: addr,
        kind: AccessKind::Load,
        value: 1,
        latency: 100,
        counter_value: 1,
    };
    let frame = |m: u32| Frame::new(MethodId(m), 0);
    let fragment = |thread: u64, seq: u64, name: &str, addrs: &[u64]| {
        let mut profile = ThreadProfile::new(ThreadId(thread), name);
        for &addr in addrs {
            profile.record_sample(
                Some(AllocSiteId((addr % 3) as u32)),
                &[frame(1), frame((addr % 5) as u32 + 2)],
                &sample(addr),
                PERIOD,
            );
        }
        ThreadDelta { seq, profile }
    };
    let sites = |ids: std::ops::Range<u32>| -> Vec<djxperf::AllocSite> {
        ids.map(|i| djxperf::AllocSite {
            id: AllocSiteId(i),
            class_name: format!("C{i}[]"),
            call_path: vec![frame(9), frame(i)],
        })
        .collect()
    };
    // d1 defines sites 0 and 1, d3 site 2: each delta carries the sites interned
    // since the previous one.
    let d1 = ProfileDelta {
        epoch: 1,
        threads: vec![fragment(1, 0, "main", &[0x10, 0x11]), fragment(2, 1, "worker", &[0x20])],
        site_base: 0,
        sites: sites(0..2),
    };
    let d2 = ProfileDelta {
        epoch: 2,
        threads: vec![fragment(1, 0, "<attached>", &[0x12, 0x13, 0x14])],
        site_base: 2,
        sites: Vec::new(),
    };
    let d3 = ProfileDelta {
        epoch: 3,
        threads: vec![fragment(2, 1, "<attached>", &[0x21, 0x22]), fragment(3, 2, "late", &[0x30])],
        site_base: 2,
        sites: sites(2..3),
    };

    let render = |fold: DeltaFold| fold.assemble().to_text();
    let header = || DeltaFold::with_header(djx_pmu::PmuEvent::L1Miss, PERIOD, 1024);
    let mut sequential = header();
    for d in [&d1, &d2, &d3] {
        sequential.absorb(d);
    }
    assert_eq!(sequential.deltas(), 3);
    assert_eq!(sequential.last_epoch(), Some(3));

    let mut coalesced_tail = d2.clone();
    coalesced_tail.merge_from(&d3);
    assert_eq!(coalesced_tail.epoch, 3, "coalescing keeps the latest epoch");
    assert_eq!(
        (coalesced_tail.site_base, coalesced_tail.sites.len()),
        (2, 1),
        "coalescing concatenates the site suffixes"
    );
    let mut coalesced = header();
    coalesced.absorb(&d1);
    coalesced.absorb(&coalesced_tail);

    assert_eq!(sequential.sites(), &sites(0..3)[..]);
    assert_eq!(render(sequential), render(coalesced));
}
