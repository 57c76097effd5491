//! Integration tests of the fleet profiling subsystem (`djxperf::fleet`): N
//! producer processes streaming epoch deltas over loopback sockets into one
//! aggregator daemon, whose merged view answers the full `Query` API.
//!
//! The load-bearing identity: a query against the aggregator over ≥3 loopback
//! producers — including after a disconnect/reconnect cycle — must render
//! **byte-identically** (text and JSON) to the same query over a single-process
//! `MultiSource` fold of the same producers' epoch logs. Same frames, same fold,
//! same assembly, one codepath.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::{AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_pmu::PmuEvent;
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{
    AllocSite, AllocSiteId, AllocationStats, BackoffPolicy, BinaryChunkedSink, DeltaFold,
    DrainPolicy, EpochLog, FaultPlan, FleetAggregator, FleetClient, FleetSink, FsyncPolicy,
    GroupBy, MultiSource, ObjectCentricProfile, OverflowPolicy, ProfileDelta, ProfileSink, Query,
    RankBy, Session, SharedBuffer, ThreadDelta, ThreadProfile,
};

const PROCESSES: u64 = 3;
const OBJECTS_PER_PROCESS: u64 = 24;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES_PER_PROCESS: u64 = 30_000;
const PERIOD: u64 = 16;
const SIZE_FILTER: u64 = 1024;

/// One simulated producer process: a disjoint thread id, its own arena, class and
/// call trace.
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

fn replay_accesses(session: &Session, log: &ProcessLog, range: std::ops::Range<usize>) {
    for outcome in &log.outcomes[range] {
        session.on_memory_access(&MemoryAccessEvent {
            thread: log.thread,
            outcome: *outcome,
            call_trace: &log.call_trace,
            object: None,
        });
    }
}

fn drain_policy() -> DrainPolicy {
    DrainPolicy::new().capacity(8).coalesce().tick(Duration::from_millis(1))
}

fn fleet_session(sink: &Arc<FleetSink>) -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .index_shards(8)
        .size_filter(SIZE_FILTER)
        .stream_to_fleet(Arc::clone(sink), drain_policy())
        .build()
}

fn log_session(buffer: &SharedBuffer) -> Arc<Session> {
    Session::builder()
        .period(PERIOD)
        .index_shards(8)
        .size_filter(SIZE_FILTER)
        .stream_to_binary(Box::new(buffer.clone()), drain_policy())
        .build()
}

fn connect_sink(addr: &str, producer: &str) -> Arc<FleetSink> {
    Arc::new(
        FleetSink::connect(addr, producer, PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
            .expect("producer connects to the loopback aggregator"),
    )
}

#[test]
fn fleet_query_is_byte_identical_to_multisource_fold() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let logs = build_process_logs();

    // Per process: one session streaming over the socket, one streaming the same
    // events into a local epoch log — the single-process comparison baseline.
    let sinks: Vec<Arc<FleetSink>> =
        (0..PROCESSES).map(|p| connect_sink(&addr, &format!("proc{p}"))).collect();
    let fleet_sessions: Vec<Arc<Session>> = sinks.iter().map(fleet_session).collect();
    let buffers: Vec<SharedBuffer> = (0..PROCESSES).map(|_| SharedBuffer::new()).collect();
    let log_sessions: Vec<Arc<Session>> = buffers.iter().map(log_session).collect();

    for p in 0..PROCESSES as usize {
        replay_allocs(&fleet_sessions[p], &logs[p]);
        replay_allocs(&log_sessions[p], &logs[p]);
    }
    // Each process on its own OS thread, racing its drainer. Producer 0 loses its
    // connection mid-run: the sink must reconnect and resume from the acked epoch.
    let half = ACCESSES_PER_PROCESS as usize / 2;
    std::thread::scope(|scope| {
        for p in 0..PROCESSES as usize {
            let (fleet, log_sess, log) = (&fleet_sessions[p], &log_sessions[p], &logs[p]);
            let sink = &sinks[p];
            scope.spawn(move || {
                replay_accesses(fleet, log, 0..half);
                replay_accesses(log_sess, log, 0..half);
                if p == 0 {
                    sink.disconnect();
                }
                replay_accesses(fleet, log, half..ACCESSES_PER_PROCESS as usize);
                replay_accesses(log_sess, log, half..ACCESSES_PER_PROCESS as usize);
            });
        }
    });
    let mut streamed = 0;
    for session in fleet_sessions.iter().chain(&log_sessions) {
        streamed += session.finish_export().expect("stream finishes cleanly").samples_streamed;
    }
    assert!(streamed > 0, "the workload produced samples");

    // The faulted producer reconnected: a second connect on the sink, a resume on
    // the aggregator — and no producer ended truncated.
    assert!(sinks[0].stats().connects >= 2, "producer 0 reconnected");
    let status = aggregator.status();
    assert_eq!(status.len(), PROCESSES as usize);
    assert!(status.iter().any(|s| s.producer == "proc0" && s.resumes >= 1));
    for s in &status {
        assert!(s.finished, "{} finished", s.producer);
        assert!(!s.truncated, "{} not truncated", s.producer);
    }

    // The single-process baseline: a MultiSource fold over the replayed logs.
    let replayed: Vec<EpochLog> = buffers
        .iter()
        .map(|b| EpochLog::replay(&b.contents()).expect("log replays"))
        .collect();
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }

    // Byte identity across grouping axes, ranking metrics and filters — in-process
    // view and over-the-wire client both, text and JSON renderings both.
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
    let mut client = FleetClient::connect(&addr).expect("client connects");
    for query in queries {
        let from_fold = query.evaluate(&fold).expect("fold evaluates");
        let from_fleet = aggregator.query(&query).expect("fleet view evaluates");
        assert_eq!(from_fleet.to_text(), from_fold.to_text(), "text identity for {query:?}");
        assert_eq!(from_fleet.to_json(), from_fold.to_json(), "json identity for {query:?}");
        let remote = client.query(&query).expect("wire query answers");
        assert_eq!(remote.text, from_fold.to_text(), "wire text identity for {query:?}");
        assert_eq!(remote.json, from_fold.to_json(), "wire json identity for {query:?}");
    }

    // The wire status matches the in-process status.
    assert_eq!(client.status().expect("wire status answers"), aggregator.status());
}

#[test]
fn crashed_producer_stays_queryable_flagged_truncated() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let logs = build_process_logs();
    let half = ACCESSES_PER_PROCESS as usize / 2;

    // The union baseline sees what the fleet actually received: producers 0 and 1
    // in full, the crashed producer 2 only up to the crash point. Producer 2 runs
    // without allocations on both sides so its partial fold and the union describe
    // its samples identically (unattributed — a partial fold has no site table).
    let union = Session::builder().period(PERIOD).index_shards(8).collect_objects().build();
    for log in &logs[..2] {
        replay_allocs(&union, log);
    }

    for (p, log) in logs[..2].iter().enumerate() {
        let sink = connect_sink(&addr, &format!("proc{p}"));
        let session = fleet_session(&sink);
        replay_allocs(&session, log);
        replay_accesses(&session, log, 0..ACCESSES_PER_PROCESS as usize);
        replay_accesses(&union, log, 0..ACCESSES_PER_PROCESS as usize);
        session.finish_export().expect("healthy producers finish");
    }

    // Producer 2: lose the connection mid-stream once (reconnect path), then crash
    // for good before any finish frame.
    let sink = connect_sink(&addr, "proc2");
    let session = fleet_session(&sink);
    let quarter = half / 2;
    replay_accesses(&session, &logs[2], 0..quarter);
    // The connection drops mid-stream; the samples still to come force the sink to
    // reconnect and resume from the acked epoch.
    sink.disconnect();
    replay_accesses(&session, &logs[2], quarter..half);
    replay_accesses(&union, &logs[2], 0..half);
    session.flush_export();

    // Wait until everything replayed so far is folded fleet-side (the target is
    // deterministic: the union session holds exactly the same events).
    let target = union.total_samples();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let samples: u64 = aggregator.status().iter().map(|s| s.samples).sum();
        if samples == target {
            break;
        }
        assert!(Instant::now() < deadline, "aggregator never caught up: {samples}/{target}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let resumed = aggregator.status().iter().any(|s| s.producer == "proc2" && s.resumes >= 1);
    assert!(resumed, "producer 2 reconnected before crashing");

    // The crash: the link is severed, the session dies without a finish frame.
    sink.sever();
    drop(session);

    // The aggregator learns of the crash when its connection handler reads the
    // closed socket — asynchronously, so wait for that before reading the flags.
    let deadline = Instant::now() + Duration::from_secs(10);
    let dead = loop {
        let status = aggregator.status();
        let dead = status.into_iter().find(|s| s.producer == "proc2").expect("producer 2 known");
        if !dead.connected {
            break dead;
        }
        assert!(Instant::now() < deadline, "producer 2's disconnect was never noticed");
        std::thread::sleep(Duration::from_millis(2));
    };

    // No silent loss: the dead producer's partial fold stays queryable, flagged.
    assert!(!dead.finished);
    assert!(dead.truncated);
    assert!(dead.samples > 0, "the partial fold kept the pre-crash samples");
    let view = aggregator.view();
    assert!(view.any_truncated());
    assert_eq!(view.total_samples(), union.total_samples(), "every folded sample is visible");
    assert_eq!(
        view.producers()
            .iter()
            .map(|p| (p.producer.as_str(), p.truncated))
            .collect::<Vec<_>>(),
        vec![("proc0", false), ("proc1", false), ("proc2", true)],
    );

    // And the fleet query equals the union session over what actually arrived.
    let query = Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples);
    let from_union = query.evaluate(&*union).expect("union evaluates");
    let from_fleet = aggregator.query(&query).expect("fleet evaluates");
    assert_eq!(from_fleet.to_text(), from_union.to_text(), "text identity after the crash");
    assert_eq!(from_fleet.to_json(), from_union.to_json(), "json identity after the crash");
}

/// A raw-socket probe speaking the wire protocol by hand. Its control-frame
/// encoder and reply decoder are written from the `djxperf::wire` module-doc
/// tables alone (frame layout, kind bytes, varint rule, control payloads), which
/// checks that the documented layout is implementable from the docs.
struct RawProducer {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// An aggregator reply, as the probe decodes it.
#[derive(Debug, PartialEq, Eq)]
enum Reply {
    Ack { epoch: u64, terminal: bool },
    Error(String),
}

fn ack(epoch: u64) -> Reply {
    Reply::Ack { epoch, terminal: false }
}

/// Unsigned LEB128.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// 32-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(0x811c_9dc5, |hash, &b| (hash ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// A frame header: magic `DF 4A 58 42`, version 1, kind, little-endian length.
fn frame_header(kind: u8, len: u32) -> Vec<u8> {
    let mut frame = vec![0xDF, 0x4A, 0x58, 0x42, 0x01, kind];
    frame.extend_from_slice(&len.to_le_bytes());
    frame
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = frame_header(kind, payload.len() as u32);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame
}

/// A hello (kind `0x03`) speaking protocol `version`, with zero loss counters.
fn hello_frame(producer: &str, version: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, version);
    put_string(&mut payload, producer);
    put_string(&mut payload, PmuEvent::DEFAULT.hardware_name());
    for value in [PERIOD, SIZE_FILTER, 0, 0, 0] {
        put_varint(&mut payload, value);
    }
    frame(0x03, &payload)
}

/// Reads one varint at `*pos`.
fn take_varint(payload: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let byte = payload[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

impl RawProducer {
    fn connect(addr: &str) -> RawProducer {
        let writer = TcpStream::connect(addr).expect("probe connects");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("probe read timeout");
        let reader = BufReader::new(writer.try_clone().expect("probe clones"));
        RawProducer { writer, reader }
    }

    /// Sends `bytes` and decodes the aggregator's one reply frame.
    fn round_trip(&mut self, bytes: &[u8]) -> Reply {
        self.writer.write_all(bytes).expect("probe writes");
        let mut header = [0u8; 10];
        self.reader.read_exact(&mut header).expect("probe reads a reply header");
        assert_eq!(header[..5], [0xDF, 0x4A, 0x58, 0x42, 0x01], "reply frame magic + version");
        let len = u32::from_le_bytes(header[6..].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len + 4];
        self.reader.read_exact(&mut payload).expect("probe reads a reply payload");
        let checksum = payload.split_off(len);
        assert_eq!(checksum, fnv1a(&payload).to_le_bytes(), "reply checksum");
        let mut pos = 0;
        let reply = match header[5] {
            0x04 => {
                let epoch = take_varint(&payload, &mut pos);
                let terminal = take_varint(&payload, &mut pos) == 1;
                Reply::Ack { epoch, terminal }
            }
            0x05 => {
                let len = take_varint(&payload, &mut pos) as usize;
                pos += len;
                Reply::Error(String::from_utf8(payload[pos - len..pos].to_vec()).expect("UTF-8"))
            }
            kind => panic!("unexpected reply kind {kind:#04x}"),
        };
        assert_eq!(pos, payload.len(), "the reply payload is consumed exactly");
        reply
    }

    fn hello_version(&mut self, producer: &str, version: u64) -> Reply {
        self.round_trip(&hello_frame(producer, version))
    }

    fn hello(&mut self, producer: &str) -> Reply {
        self.hello_version(producer, 3)
    }

    /// Asserts the aggregator closed the connection after its last reply.
    fn assert_closed(&mut self) {
        let mut rest = Vec::new();
        self.reader
            .read_to_end(&mut rest)
            .expect("the aggregator closes the connection");
        assert!(rest.is_empty(), "nothing follows the error record: {rest:?}");
    }
}

/// The message of an error reply.
fn error_message(reply: Reply) -> String {
    match reply {
        Reply::Error(message) => message,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// A binary delta frame, encoded exactly as a producer's sink encodes it.
fn delta_frame(epoch: u64, thread: u64, samples: u64) -> Vec<u8> {
    let mut profile = ThreadProfile::new(ThreadId(thread), "probe");
    profile.samples = samples;
    let delta = ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }] };
    let mut bytes = Vec::new();
    BinaryChunkedSink::new()
        .on_delta(epoch, &delta, &mut bytes)
        .expect("delta serializes");
    bytes
}

#[test]
fn aggregator_deduplicates_replayed_epochs() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().unwrap().to_string();
    let mut probe = RawProducer::connect(&addr);
    assert_eq!(probe.hello("dup"), ack(0));
    assert_eq!(probe.round_trip(&delta_frame(1, 9, 4)), ack(1));
    assert_eq!(probe.round_trip(&delta_frame(2, 9, 6)), ack(2));
    // A replayed backfill overlap: folded once, dropped and re-acked the second
    // time — never double-counted.
    assert_eq!(probe.round_trip(&delta_frame(2, 9, 6)), ack(2));
    assert_eq!(probe.round_trip(&delta_frame(1, 9, 4)), ack(2));
    let status = aggregator.status();
    assert_eq!(status[0].deltas, 2);
    assert_eq!(status[0].duplicates, 2);
    assert_eq!(status[0].samples, 10);
    // A reconnecting producer resumes from the acked epoch.
    let mut reborn = RawProducer::connect(&addr);
    assert_eq!(reborn.hello("dup"), ack(2));
}

#[test]
fn aggregator_rejects_checksum_mismatch_and_orphan_frames() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().unwrap().to_string();

    // Epoch frames before a hello are refused.
    let mut orphan = RawProducer::connect(&addr);
    error_message(orphan.round_trip(&delta_frame(1, 9, 4)));
    orphan.assert_closed();

    // A finish whose sample count disagrees with the folded stream is refused —
    // lost deltas cannot be papered over by a finish frame.
    let mut probe = RawProducer::connect(&addr);
    probe.hello("mismatch");
    probe.round_trip(&delta_frame(1, 9, 4));
    // The finish of an *empty* session counts 0 total samples — the folded stream
    // counts 4.
    let empty = Session::builder().period(PERIOD).collect_objects().build();
    let mut finish = Vec::new();
    BinaryChunkedSink::new()
        .on_finish(&empty.object_profile().unwrap(), &mut finish)
        .expect("finish serializes");
    error_message(probe.round_trip(&finish));
    probe.assert_closed();
    let status = aggregator.status();
    let row = status.iter().find(|s| s.producer == "mismatch").unwrap();
    assert!(!row.finished, "the mismatched finish was not folded");
}

#[test]
fn v1_hellos_and_json_epoch_records_get_an_error_and_a_close() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().unwrap().to_string();

    // A version-2 producer's JSON hello line is not a frame: a binary error
    // frame answers it, then the connection closes.
    let mut json = RawProducer::connect(&addr);
    let reply = json.round_trip(
        format!(
            "{{\"record\":\"hello\",\"format\":\"djxperf-fleet\",\"version\":2,\
             \"producer\":\"old\",\"event\":\"{}\",\"period\":{PERIOD},\
             \"size_filter\":{SIZE_FILTER}}}\n",
            PmuEvent::DEFAULT.hardware_name()
        )
        .as_bytes(),
    );
    assert!(error_message(reply).contains("magic"));
    json.assert_closed();

    // A binary hello of another protocol version is turned away too.
    let mut v2 = RawProducer::connect(&addr);
    let message = error_message(v2.hello_version("old", 2));
    assert!(message.contains("unsupported fleet version 2"), "{message}");
    v2.assert_closed();

    // A JSON delta line after a valid hello is refused, never folded.
    let mut probe = RawProducer::connect(&addr);
    assert_eq!(probe.hello("json"), ack(0));
    let reply =
        probe.round_trip(b"{\"record\":\"delta\",\"epoch\":1,\"samples\":0,\"threads\":[]}\n");
    assert!(error_message(reply).contains("magic"));
    probe.assert_closed();
    let status = aggregator.status();
    assert_eq!(status.len(), 1, "the refused producers never registered");
    assert_eq!((status[0].producer.as_str(), status[0].deltas), ("json", 0));
}

#[test]
fn oversized_control_line_is_refused_and_the_aggregator_keeps_serving() {
    // The wire's one inbound cap (16 MiB) bounds control frames too: a length
    // prefix one byte over it is refused from the header alone, before any
    // payload is read or buffered.
    const CAP: u32 = 16 << 20;
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().unwrap().to_string();
    let mut hostile = RawProducer::connect(&addr);
    let message = error_message(hostile.round_trip(&frame_header(0x03, CAP + 1)));
    assert!(message.contains("cap"), "{message}");
    hostile.assert_closed();

    // The aggregator survived: a second producer is still served.
    let mut probe = RawProducer::connect(&addr);
    assert_eq!(probe.hello("after"), ack(0));
    assert_eq!(probe.round_trip(&delta_frame(1, 9, 4)), ack(1));
}

/// A scratch directory that cleans itself up.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("djxperf-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir creates");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fast_backoff(seed: u64) -> BackoffPolicy {
    BackoffPolicy::new()
        .initial(Duration::from_millis(1))
        .max(Duration::from_millis(20))
        .seed(seed)
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

/// The tentpole acceptance path: kill the aggregator mid-stream, restart it with
/// `recover(dir)`, let the producers reconnect and backfill (spilling to disk
/// through the outage) — the final fleet query must render byte-identically to an
/// uninterrupted single-process `MultiSource` fold of the same workload.
#[test]
fn aggregator_kill_restart_with_wal_recovery_is_byte_identical() {
    let wal_dir = TempDir::new("wal-recovery");
    let spill_dir = TempDir::new("spill-recovery");
    let mut aggregator = FleetAggregator::builder()
        .wal(&wal_dir.0, FsyncPolicy::EveryFrame)
        .bind("127.0.0.1:0")
        .expect("durable aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let logs = build_process_logs();

    // A tiny memory budget so the outage exercises the spill tier, fast backoff
    // so the test is not dominated by reconnect sleeps.
    let sinks: Vec<Arc<FleetSink>> = (0..PROCESSES)
        .map(|p| {
            Arc::new(
                FleetSink::builder(&format!("proc{p}"), PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
                    .ack_deadline(Some(Duration::from_millis(500)))
                    .backoff(fast_backoff(p + 1))
                    .buffer_budget_bytes(512)
                    .spill_dir(&spill_dir.0)
                    .connect(&addr)
                    .expect("producer connects"),
            )
        })
        .collect();
    let fleet_sessions: Vec<Arc<Session>> = sinks.iter().map(fleet_session).collect();
    let buffers: Vec<SharedBuffer> = (0..PROCESSES).map(|_| SharedBuffer::new()).collect();
    let log_sessions: Vec<Arc<Session>> = buffers.iter().map(log_session).collect();
    for p in 0..PROCESSES as usize {
        replay_allocs(&fleet_sessions[p], &logs[p]);
        replay_allocs(&log_sessions[p], &logs[p]);
    }

    // Phase 1: half the workload lands while the first aggregator is alive; wait
    // until every producer has at least one acknowledged (and thus WAL-logged)
    // frame so the kill point is genuinely mid-stream.
    let half = ACCESSES_PER_PROCESS as usize / 2;
    for p in 0..PROCESSES as usize {
        replay_accesses(&fleet_sessions[p], &logs[p], 0..half);
        replay_accesses(&log_sessions[p], &logs[p], 0..half);
        fleet_sessions[p].flush_export();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !aggregator.status().iter().all(|s| s.samples > 0) {
        assert!(Instant::now() < deadline, "first aggregator never folded all producers");
        std::thread::sleep(Duration::from_millis(2));
    }
    for s in aggregator.status() {
        assert!(s.wal_bytes > 0, "{} has WAL bytes before the kill", s.producer);
    }

    // The kill. Everything not yet acknowledged is still buffered producer-side;
    // everything acknowledged is in the WAL.
    aggregator.shutdown();
    drop(aggregator);

    // Phase 2: the rest of the workload lands during the outage, flushed in
    // chunks so multiple epoch frames pile up and overflow the 512-byte memory
    // budget into the spill tier.
    let chunk = (ACCESSES_PER_PROCESS as usize - half) / 8;
    for c in 0..8 {
        let range = (half + c * chunk)..if c == 7 {
            ACCESSES_PER_PROCESS as usize
        } else {
            half + (c + 1) * chunk
        };
        for p in 0..PROCESSES as usize {
            replay_accesses(&fleet_sessions[p], &logs[p], range.clone());
            replay_accesses(&log_sessions[p], &logs[p], range.clone());
            fleet_sessions[p].flush_export();
        }
    }
    assert!(
        sinks.iter().any(|s| s.stats().spilled_frames > 0),
        "the outage overflowed at least one producer into the spill tier"
    );
    assert!(sinks.iter().all(|s| s.stats().dropped_epochs == 0), "the default policy never drops");

    // The restart: replay the WALs, rebind the same address, let the producers'
    // backoff loops find it again.
    let restarted =
        rebind(|| FleetAggregator::recover(&wal_dir.0).expect("WAL directory replays").bind(&addr));
    let report = restarted.recovery_report().expect("recovered aggregators carry a report");
    assert_eq!(report.producers.len(), PROCESSES as usize);
    for row in &report.producers {
        assert!(row.frames > 0, "{} recovered frames from its WAL", row.producer);
        assert!(row.last_epoch > 0);
        assert!(!row.finished, "the kill came before any finish frame");
    }

    for session in fleet_sessions.iter().chain(&log_sessions) {
        session.finish_export().expect("streams finish after the recovery");
    }
    for sink in &sinks {
        let stats = sink.stats();
        assert!(stats.connects >= 2, "every producer reconnected: {stats:?}");
        assert_eq!(stats.pending_frames, 0, "every buffered frame was delivered");
        assert!(stats.reconnect_backoff_ms > 0, "reconnects went through the backoff gate");
    }
    let status = restarted.status();
    assert_eq!(status.len(), PROCESSES as usize);
    for s in &status {
        assert!(s.finished, "{} finished", s.producer);
        assert!(!s.truncated, "{} not truncated", s.producer);
        assert!(s.resumes >= 1, "{} resumed into the recovered fold", s.producer);
        assert_eq!(s.dropped_epochs, 0);
        assert!(s.wal_bytes > 0);
        assert!(s.spilled_frames > 0 || s.reconnect_backoff_ms > 0);
    }

    // Byte identity against the uninterrupted single-process baseline.
    let replayed: Vec<EpochLog> = buffers
        .iter()
        .map(|b| EpochLog::replay(&b.contents()).expect("log replays"))
        .collect();
    let mut fold = MultiSource::new();
    for log in &replayed {
        fold.push(log);
    }
    let mut client = FleetClient::connect(&addr).expect("client connects to the restart");
    for query in [
        Query::new(),
        Query::new().rank_by(RankBy::Samples),
        Query::new().group_by(GroupBy::Site),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
    ] {
        let from_fold = query.evaluate(&fold).expect("fold evaluates");
        let from_fleet = restarted.query(&query).expect("recovered fleet evaluates");
        assert_eq!(from_fleet.to_text(), from_fold.to_text(), "text identity for {query:?}");
        assert_eq!(from_fleet.to_json(), from_fold.to_json(), "json identity for {query:?}");
        let remote = client.query(&query).expect("wire query answers");
        assert_eq!(remote.text, from_fold.to_text(), "wire text identity for {query:?}");
    }
}

fn probe_delta(epoch: u64, samples: u64) -> ProfileDelta {
    let mut profile = ThreadProfile::new(ThreadId(7), "probe");
    profile.samples = samples;
    ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }] }
}

/// A complete WAL header line that does not parse is an error naming the file,
/// never a skip: skipping would let the producer's reconnect truncate the file
/// and lose its acknowledged frames. Only a header cut before its newline (a
/// crash mid-create) is skipped.
#[test]
fn recover_refuses_a_complete_but_unparseable_header() {
    let dir = TempDir::new("wal-bad-header");
    let mut bytes = b"not a header\n".to_vec();
    BinaryChunkedSink::new()
        .on_delta(1, &probe_delta(1, 5), &mut bytes)
        .expect("encodes");
    let path = dir.0.join("stranger.wal");
    std::fs::write(&path, &bytes).expect("write the WAL");
    let err = FleetAggregator::recover(&dir.0).expect_err("an unreadable header is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("stranger.wal"), "{err}");
    assert_eq!(std::fs::read(&path).expect("WAL reads"), bytes, "the file is left untouched");

    std::fs::write(&path, b"djxperf-wal v2 producer=torn").expect("write the WAL");
    let builder = FleetAggregator::recover(&dir.0).expect("a torn header is skipped");
    assert!(builder.recovery_report().expect("report").producers.is_empty());
}

/// A thread's later fragments carry the `<attached>` placeholder; a live watch
/// labels the thread with its first-seen name, across an aggregator restart too
/// (the names come back with the WAL), exactly as cold evaluation does.
#[test]
fn live_thread_labels_keep_the_first_seen_name() {
    let dir = TempDir::new("wal-thread-names");
    let mut first = FleetAggregator::builder()
        .wal(&dir.0, FsyncPolicy::Never)
        .bind("127.0.0.1:0")
        .expect("durable bind");
    let addr = first.local_addr().expect("tcp aggregator").to_string();
    let mut out = std::io::sink();
    let sink = connect_sink(&addr, "unit");
    sink.on_delta(1, &probe_delta(1, 5), &mut out).expect("delta 1");
    first.shutdown();
    drop(first);

    let second = FleetAggregator::recover(&dir.0)
        .expect("recovery replays")
        .bind("127.0.0.1:0")
        .expect("recovered bind");
    // The Thread group appears only with the terminal allocation row (the class
    // filter keeps the unattributed samples out), so its label is decided after
    // the `<attached>` fragment arrived.
    let query = Query::new().group_by(GroupBy::Thread).filter_class("float[]");
    let mut watch = second.watch(&query);
    let sink = connect_sink(&second.local_addr().expect("tcp aggregator").to_string(), "unit");
    let mut attached = probe_delta(2, 3);
    attached.threads[0].profile.thread_name = "<attached>".into();
    sink.on_delta(2, &attached, &mut out).expect("delta 2");
    let site = AllocSite {
        id: AllocSiteId(0),
        class_name: "float[]".into(),
        call_path: vec![Frame::new(MethodId(1), 0)],
    };
    let mut thread = ThreadProfile::new(ThreadId(7), "probe");
    thread.samples = 8;
    thread.record_allocation(site.id, 2048);
    let terminal = ObjectCentricProfile {
        event: PmuEvent::DEFAULT,
        period: PERIOD,
        size_filter: SIZE_FILTER,
        sites: vec![site],
        threads: vec![thread],
        allocation_stats: AllocationStats::default(),
    };
    sink.on_finish(&terminal, &mut out).expect("finish");

    let live = watch.current().result;
    assert_eq!(live.groups.len(), 1);
    assert_eq!(live.groups[0].label, "probe");
    assert_eq!(live.to_text(), second.query(&query).expect("cold evaluates").to_text());
}

/// An I/O failure reading one WAL fails recovery with an error naming that file.
#[test]
fn recover_names_the_file_in_io_errors() {
    let dir = TempDir::new("wal-io-error");
    std::fs::create_dir(dir.0.join("unreadable.wal")).expect("a directory named like a WAL");
    let err = FleetAggregator::recover(&dir.0).expect_err("a WAL that cannot be read");
    assert!(err.to_string().contains("unreadable.wal"), "{err}");
}

/// Producer names travel through the WAL header line escaped, so recovery
/// gives back names with spaces, tabs, line breaks and backslashes exactly.
#[test]
fn recover_round_trips_awkward_producer_names() {
    let dir = TempDir::new("wal-names");
    let names = ["web 1", "tab\there", "new\nline", "back\\slash", "cr\r\\s", ""];
    let mut aggregator = FleetAggregator::builder()
        .wal(&dir.0, FsyncPolicy::Never)
        .bind("127.0.0.1:0")
        .expect("durable bind");
    let addr = aggregator.local_addr().unwrap().to_string();
    for (i, name) in names.iter().enumerate() {
        let sink = FleetSink::connect(&addr, name, PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
            .expect("producer connects");
        sink.on_delta(1, &probe_delta(1, i as u64 + 1), &mut std::io::sink())
            .expect("delta");
        assert_eq!(sink.stats().acked_epoch, 1, "{name:?} was folded and logged");
    }
    aggregator.shutdown();
    let builder = FleetAggregator::recover(&dir.0).expect("recovery replays");
    let mut recovered: Vec<&str> = builder
        .recovery_report()
        .expect("report")
        .producers
        .iter()
        .map(|p| p.producer.as_str())
        .collect();
    let mut expected = names.to_vec();
    recovered.sort_unstable();
    expected.sort_unstable();
    assert_eq!(recovered, expected);
}

/// A peer that accepts and never answers: the client's reply wait is bounded by
/// the producers' acknowledgement deadline (5 s) instead of hanging forever.
#[test]
fn fleet_client_times_out_on_a_silent_aggregator() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let silent = std::thread::spawn(move || listener.accept().map(|(stream, _)| stream));
    let mut client = FleetClient::connect(&addr).expect("client connects");
    let start = Instant::now();
    assert!(client.query(&Query::new()).is_err(), "a silent peer fails the query");
    assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
    drop(silent.join());
}

/// The chosen-loss path: a producer with `DropOldestEpochsFlaggedLossy` outlives
/// an outage bigger than its buffer; the drops are counted, declared in the next
/// hello, and the aggregator accepts the (now checksum-unmeetable) finish while
/// flagging the producer truncated.
#[test]
fn lossy_overflow_policy_drops_oldest_and_flags_truncation() {
    let mut aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let sink = FleetSink::builder("lossy", PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
        .overflow(OverflowPolicy::DropOldestEpochsFlaggedLossy)
        .buffer_budget_bytes(200)
        .ack_deadline(Some(Duration::from_millis(250)))
        .backoff(fast_backoff(42))
        .finish_deadline(Duration::from_secs(20))
        .connect(&addr)
        .expect("producer connects");
    let mut out = std::io::sink();
    let mut fold = DeltaFold::new();

    // A few acknowledged epochs, then an outage long enough (in frames) that the
    // 200-byte buffer must shed its oldest epochs.
    for epoch in 1..=3u64 {
        let delta = probe_delta(epoch, epoch);
        fold.absorb_ordered(&delta).unwrap();
        sink.on_delta(epoch, &delta, &mut out).expect("live delta ships");
    }
    aggregator.shutdown();
    drop(aggregator);
    for epoch in 4..=20u64 {
        let delta = probe_delta(epoch, epoch);
        fold.absorb_ordered(&delta).unwrap();
        sink.on_delta(epoch, &delta, &mut out).expect("lossy policy never blocks");
    }
    let stats = sink.stats();
    assert!(stats.dropped_epochs > 0, "the outage forced drops: {stats:?}");
    assert_eq!(stats.spilled_frames, 0, "the lossy policy never touches disk");

    // The aggregator returns (fresh — what it acked before dying is gone too; the
    // producer declared itself lossy so the finish is still accepted).
    let restarted = rebind(|| FleetAggregator::bind(&addr));
    let declared = fold.total_samples();
    let profile = fold.assemble(
        PmuEvent::DEFAULT,
        PERIOD,
        SIZE_FILTER,
        Vec::new(),
        std::iter::empty(),
        AllocationStats::default(),
    );
    sink.on_finish(&profile, &mut out).expect("the lossy finish is accepted");

    let status = restarted.status();
    let row = status.iter().find(|s| s.producer == "lossy").expect("producer known");
    assert!(row.finished, "the lossy stream still finished");
    assert!(row.truncated, "chosen loss is flagged, never silent");
    assert!(row.dropped_epochs > 0, "the hello carried the drop count");
    assert!(row.samples < declared, "the fold holds less than the producer sampled");
    let view = restarted.view();
    assert!(view.any_truncated());
    assert_eq!(view.total_samples(), row.samples);
    restarted
        .query(&Query::new().rank_by(RankBy::Samples))
        .expect("lossy folds stay queryable");
}

/// Satellite regression: an aggregator that accepts TCP (and answers the hello)
/// but never acknowledges an epoch frame must not wedge the drainer — the ack
/// deadline fails the frame back into the buffer, snapshots keep working, and
/// the finish deadline surfaces the loss instead of hanging forever.
#[test]
fn hung_aggregator_never_wedges_the_drainer() {
    let aggregator = FleetAggregator::builder()
        .fault_plan(FaultPlan::new().black_hole_from(1))
        .bind("127.0.0.1:0")
        .expect("black-holed aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let sink = Arc::new(
        FleetSink::builder("hung", PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
            .ack_deadline(Some(Duration::from_millis(100)))
            .finish_deadline(Duration::from_millis(500))
            .backoff(fast_backoff(9))
            .connect(&addr)
            .expect("the handshake itself is served"),
    );
    let session = fleet_session(&sink);
    let logs = build_process_logs();
    replay_allocs(&session, &logs[0]);
    replay_accesses(&session, &logs[0], 0..4000);

    // The drainer is live behind a hung peer: profile reads return promptly.
    let started = Instant::now();
    let samples = session.total_samples();
    assert!(samples > 0, "the session kept attributing samples");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "a profile read must not wait on the hung peer"
    );

    // The finish cannot be delivered; the deadline turns that into an error —
    // bounded and explicit, never a hang, and the frames are still buffered.
    let started = Instant::now();
    let finish = session.finish_export();
    assert!(finish.is_err(), "an unacknowledged finish is reported, not ignored");
    assert!(started.elapsed() < Duration::from_secs(60), "the finish deadline bounds the shutdown");
    let stats = sink.stats();
    assert_eq!(stats.frames_sent, 0, "the black hole acknowledged nothing");
    assert!(stats.pending_frames > 0, "undelivered frames fail back into the buffer");
    assert_eq!(stats.acked_epoch, 0);

    // The aggregator saw the producer (hello served) but folded nothing.
    let row = &aggregator.status()[0];
    assert_eq!(row.producer, "hung");
    assert_eq!(row.samples, 0);
    assert!(!row.finished);
}

/// Sink-side deterministic fault injection: a scheduled connection drop, a
/// corrupted frame (rejected by the aggregator's checksum) and a delayed frame —
/// the stream heals around all three with zero loss.
#[test]
fn sink_fault_plan_heals_losslessly() {
    let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let sink = FleetSink::builder("faulty", PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
        .fault_plan(FaultPlan::new().drop_at(2).corrupt_at(4).delay_at(6, Duration::from_millis(5)))
        .ack_deadline(Some(Duration::from_millis(500)))
        .backoff(fast_backoff(5))
        .finish_deadline(Duration::from_secs(20))
        .connect(&addr)
        .expect("producer connects");
    let mut out = std::io::sink();
    let mut fold = DeltaFold::new();
    for epoch in 1..=8u64 {
        let delta = probe_delta(epoch, 10 + epoch);
        fold.absorb_ordered(&delta).unwrap();
        sink.on_delta(epoch, &delta, &mut out)
            .expect("faults are absorbed, not surfaced");
    }
    let declared = fold.total_samples();
    let profile = fold.assemble(
        PmuEvent::DEFAULT,
        PERIOD,
        SIZE_FILTER,
        Vec::new(),
        std::iter::empty(),
        AllocationStats::default(),
    );
    sink.on_finish(&profile, &mut out).expect("the finish lands after the faults");

    let stats = sink.stats();
    assert!(stats.connects >= 2, "the dropped connection forced a reconnect: {stats:?}");
    assert_eq!(stats.pending_frames, 0);
    let row = &aggregator.status()[0];
    assert!(row.finished && !row.truncated);
    assert_eq!(row.samples, declared, "zero loss through the fault schedule");
}

/// Aggregator-side corruption: the acknowledgement of frame 2 goes out with a
/// flipped checksum byte. The producer's frame parser rejects it, the producer
/// drops the connection, and the reconnect handshake trims the frame the
/// aggregator had already folded — nothing is lost or double-counted.
#[test]
fn corrupted_acks_fail_their_checksum_at_the_producer() {
    let aggregator = FleetAggregator::builder()
        .fault_plan(FaultPlan::new().corrupt_at(2))
        .bind("127.0.0.1:0")
        .expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let sink = FleetSink::builder("acked", PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
        .backoff(fast_backoff(9))
        .connect(&addr)
        .expect("producer connects");
    let mut out = std::io::sink();
    for epoch in 1..=2u64 {
        sink.on_delta(epoch, &probe_delta(epoch, epoch), &mut out).expect("delta");
    }
    let stats = sink.stats();
    assert_eq!((stats.connects, stats.frames_sent, stats.pending_frames), (1, 1, 1), "{stats:?}");
    assert_eq!(aggregator.status()[0].deltas, 2, "the frame behind the bad ack was folded");
    // The next delivery reconnects; the hello ack trims the already-folded frame.
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.flush_pending() > 0 {
        assert!(Instant::now() < deadline, "the producer never reconnected");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = sink.stats();
    assert_eq!((stats.connects, stats.frames_trimmed), (2, 1), "{stats:?}");
    let row = &aggregator.status()[0];
    assert_eq!((row.deltas, row.samples, row.duplicates), (2, 3, 0));
}

#[cfg(unix)]
#[test]
fn fleet_over_unix_domain_sockets() {
    let path = std::env::temp_dir().join(format!("djxperf-fleet-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut aggregator = FleetAggregator::bind_unix(&path).expect("unix aggregator binds");
    let sink = Arc::new(
        FleetSink::connect_unix(&path, "unix-proc", PmuEvent::DEFAULT, PERIOD, SIZE_FILTER)
            .expect("unix producer connects"),
    );
    let session = fleet_session(&sink);
    let logs = build_process_logs();
    replay_allocs(&session, &logs[0]);
    replay_accesses(&session, &logs[0], 0..ACCESSES_PER_PROCESS as usize);
    session.finish_export().expect("unix stream finishes");

    let mut client = FleetClient::connect_unix(&path).expect("unix client connects");
    let status = client.status().expect("unix status answers");
    assert_eq!(status.len(), 1);
    assert!(status[0].finished);
    let local = aggregator.query(&Query::new()).unwrap();
    let remote = client.query(&Query::new()).expect("unix query answers");
    assert_eq!(remote.text, local.to_text());
    assert_eq!(remote.json, local.to_json());
    drop(client);
    aggregator.shutdown();
    assert!(!path.exists(), "the socket file is removed on shutdown");
}

/// Waits until nothing is in flight between the producers and the aggregator:
/// each producer's status row reports every sample its session took, and its sink
/// has no frame left to deliver. `Session::flush_export` only enqueues a delta —
/// the drainer delivers it later — so without this a frame can land between a
/// live render and the cold query it is compared with.
fn quiesce(aggregator: &FleetAggregator, producers: &[(&str, &Session, &FleetSink)]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    for &(name, session, sink) in producers {
        session.flush_export();
        loop {
            let taken = session.total_samples();
            let status = aggregator.status();
            let folded = status.iter().find(|s| s.producer == name).map_or(0, |s| s.samples);
            // `flush_pending` also delivers frames a failed attempt left buffered.
            if folded == taken && sink.flush_pending() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "{name} never quiesced: {folded}/{taken} folded");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Renders every live watch and asserts byte-identity (text and JSON) against a
/// cold `aggregator.query` over the same merged view. Callers [`quiesce`] first,
/// so the comparison is exact.
fn assert_watch_identity(aggregator: &FleetAggregator, watches: &mut [djxperf::LiveQuery]) {
    for lq in watches.iter_mut() {
        let live = lq.current();
        let cold = aggregator.query(lq.query()).expect("aggregator answers the cold query");
        assert_eq!(live.result.to_text(), cold.to_text());
        assert_eq!(live.result.to_json(), cold.to_json());
    }
}

#[test]
fn live_fleet_watches_stay_identical_across_reconnect() {
    let mut aggregator = FleetAggregator::bind("127.0.0.1:0").expect("aggregator binds");
    let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
    let logs = build_process_logs();

    let shapes = [
        Query::new(),
        Query::new().group_by(GroupBy::Thread).rank_by(RankBy::Samples),
        Query::new().top(3),
        Query::new().rank_by(RankBy::RemoteFraction).top(2).min_samples(1),
    ];
    // Watches registered before any producer has even said hello.
    let mut early: Vec<djxperf::LiveQuery> = shapes.iter().map(|q| aggregator.watch(q)).collect();

    let sink0 = connect_sink(&addr, "proc0");
    let sink1 = connect_sink(&addr, "proc1");
    let session0 = fleet_session(&sink0);
    let session1 = fleet_session(&sink1);
    replay_allocs(&session0, &logs[0]);
    replay_allocs(&session1, &logs[1]);

    let producers01 = [("proc0", &*session0, &*sink0), ("proc1", &*session1, &*sink1)];
    let half = ACCESSES_PER_PROCESS as usize / 2;
    replay_accesses(&session0, &logs[0], 0..half);
    replay_accesses(&session1, &logs[1], 0..half / 2);
    quiesce(&aggregator, &producers01);
    assert_watch_identity(&aggregator, &mut early);

    // A watch attached mid-run is seeded with everything already folded.
    let mut late: Vec<djxperf::LiveQuery> = shapes.iter().map(|q| aggregator.watch(q)).collect();
    assert_watch_identity(&aggregator, &mut late);

    // Sever producer 0 mid-run; the next flush reconnects and backfills. Replayed
    // duplicate frames are pre-dropped and never reach the watches.
    sink0.disconnect();
    replay_accesses(&session0, &logs[0], half..ACCESSES_PER_PROCESS as usize);
    quiesce(&aggregator, &producers01);
    assert!(sink0.stats().connects >= 2, "the severed producer reconnected");
    assert_watch_identity(&aggregator, &mut early);
    assert_watch_identity(&aggregator, &mut late);

    // Producer 0 finishes: its site table arrives and the deferred rows replay.
    session0.finish_export().expect("producer 0 finishes");
    quiesce(&aggregator, &producers01);
    assert_watch_identity(&aggregator, &mut early);

    // A third producer joins mid-watch (fleet meta refresh), streams, finishes.
    let sink2 = connect_sink(&addr, "proc2");
    let session2 = fleet_session(&sink2);
    replay_allocs(&session2, &logs[2]);
    replay_accesses(&session2, &logs[2], 0..ACCESSES_PER_PROCESS as usize);
    session2.finish_export().expect("producer 2 finishes");
    quiesce(&aggregator, &producers01);
    quiesce(&aggregator, &[("proc2", &*session2, &*sink2)]);
    assert_watch_identity(&aggregator, &mut early);
    assert_watch_identity(&aggregator, &mut late);

    replay_accesses(&session1, &logs[1], half / 2..ACCESSES_PER_PROCESS as usize);
    session1.finish_export().expect("producer 1 finishes");
    quiesce(&aggregator, &producers01);
    assert_watch_identity(&aggregator, &mut early);
    assert_watch_identity(&aggregator, &mut late);

    let final_version = early[0].current().version;
    assert!(final_version > 1, "the early watch observed incremental updates");
    assert!(!early[0].current().finished, "producers finishing does not end a fleet watch");

    drop(session0);
    drop(session1);
    drop(session2);
    aggregator.shutdown();
    for lq in early.iter_mut().chain(late.iter_mut()) {
        while lq.next_epoch().is_some() {}
        assert!(lq.is_finished(), "shutdown marks every fleet watch finished");
    }
}
