//! Hostile bytes against the one frame parser, through its one driver
//! (`BinaryFrameReader`), over whole slices and over a reader that returns one
//! byte per call, as a socket may: arbitrary bytes, payloads of extreme varints
//! behind a valid header, and one-byte mutations and truncations of a valid frame
//! of every kind. The parser must never panic, never let a length prefix or count
//! size an allocation, and name the byte offset of every defect it reports.
//!
//! The one profile reader (`BinaryChunkedSink::read_log_bytes`) gets arbitrary
//! bytes and the render-only text document: it must refuse all of them, naming
//! text render-only. WAL recovery gets write-ahead logs with a valid header and a
//! hostile body, and header lines of random bytes: it must never panic, and every
//! error must name the file.
//!
//! Control frames are built by a small encoder written from the `djxperf::wire`
//! module-doc tables; the log drivers decode them fully before refusing them, so
//! every payload decoder is exercised — including the cap on a query's filter
//! lists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read};

use proptest::prelude::*;

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, MethodId, ThreadId};
use djxperf::{
    AllocSite, AllocSiteId, AllocationStats, BinaryChunkedSink, BinaryFrameReader, DeltaFold,
    FinishRecord, FleetAggregator, MetricVector, ObjectCentricProfile, ProfileDelta, ProfileSink,
    ThreadDelta, ThreadProfile,
};

// --------------------------------------------------------------------------------------
// Allocation measurement
// --------------------------------------------------------------------------------------

/// Forwards to the system allocator, recording the largest single allocation the
/// current thread makes while [`peak_allocation`] is measuring.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| {
        if let Some(max) = peak.get() {
            peak.set(Some(max.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; `note` only touches a
// const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f`; returns the largest single allocation it made on this thread.
fn peak_allocation(f: impl FnOnce()) -> usize {
    PEAK.with(|peak| peak.set(Some(0)));
    f();
    PEAK.with(|peak| peak.replace(None)).unwrap_or(0)
}

/// The inputs below are at most a few KiB, so a decode allocating more than this
/// was sized by a length prefix or a count, not by the bytes actually present.
const HOSTILE_ALLOC_BOUND: usize = 1 << 20;

/// The frame payload cap (16 MiB) from the frame-layout table.
const CAP: u32 = 16 << 20;

// --------------------------------------------------------------------------------------
// A frame encoder from the module docs
// --------------------------------------------------------------------------------------

const HEADER_LEN: usize = 10;

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

fn fnv1a(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(0x811c_9dc5, |hash, &b| (hash ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0xDF, 0x4A, 0x58, 0x42, djxperf::wire::BINARY_VERSION, kind];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame
}

/// Recomputes the checksum of a frame whose payload was edited, so the edit
/// reaches the payload decoders instead of stopping at the checksum.
fn reseal(frame: &mut [u8]) {
    if frame.len() >= HEADER_LEN + 4 {
        let end = frame.len();
        let checksum = fnv1a(&frame[HEADER_LEN..end - 4]).to_le_bytes();
        frame[end - 4..].copy_from_slice(&checksum);
    }
}

/// One varint-and-string payload per control kind, `0x03` to `0x09`.
fn control_frames() -> Vec<Vec<u8>> {
    let mut hello = Vec::new();
    put_varint(&mut hello, 3);
    put_string(&mut hello, "web 1");
    put_string(&mut hello, PmuEvent::DEFAULT.hardware_name());
    for value in [64, 1024, 2, 1, 300] {
        put_varint(&mut hello, value);
    }
    let ack = [0xAC, 0x02, 0x01];
    let mut error = Vec::new();
    put_string(&mut error, "refused");
    let mut query = Vec::new();
    put_string(&mut query, "site");
    put_string(&mut query, "latency");
    for value in [2, 1, 5, 1] {
        put_varint(&mut query, value);
    }
    put_string(&mut query, "float[]");
    for value in [1, 3, 7, 1, 9] {
        put_varint(&mut query, value);
    }
    let mut result = Vec::new();
    put_string(&mut result, "table\n");
    put_string(&mut result, "{}");
    let mut status = Vec::new();
    put_varint(&mut status, 1);
    put_string(&mut status, "web 1");
    for value in [1, 0, 1, 3, 4, 300, 1, 2, 5, 900, 1000, 6, 0, 150] {
        put_varint(&mut status, value);
    }
    vec![
        frame(0x03, &hello),
        frame(0x04, &ack),
        frame(0x05, &error),
        frame(0x06, &query),
        frame(0x07, &[]),
        frame(0x08, &result),
        frame(0x09, &status),
    ]
}

/// A valid frame of every kind: a delta, a finish, and each control record.
fn frames_of_every_kind() -> Vec<Vec<u8>> {
    let mut profile = ThreadProfile::new(ThreadId(7), "worker λ");
    profile.samples = 3;
    for site in [2u32, 5] {
        let ctx = profile
            .cct
            .insert_path(&[Frame::new(MethodId(1), 4), Frame::new(MethodId(2), 9)]);
        let total = MetricVector { samples: 1, ..MetricVector::default() };
        profile.sites.insert(AllocSiteId(site), total);
        profile.contexts.insert((AllocSiteId(site), ctx), total);
    }
    profile.record_allocation(AllocSiteId(2), 4096);
    let sites = (0..6)
        .map(|i| AllocSite {
            id: AllocSiteId(i),
            class_name: format!("float[] #{i}"),
            call_path: vec![Frame::new(MethodId(i), 1)],
        })
        .collect();
    let delta = ProfileDelta {
        epoch: 1,
        threads: vec![ThreadDelta { seq: 0, profile }],
        site_base: 0,
        sites,
    };
    let mut fold = DeltaFold::with_header(PmuEvent::DEFAULT, 64, 1024);
    fold.absorb_ordered(&delta).unwrap();
    let terminal = fold.assemble();
    let sink = BinaryChunkedSink::new();
    let (mut delta_frame, mut finish_frame) = (Vec::new(), Vec::new());
    sink.on_delta(1, &delta, &mut delta_frame).unwrap();
    sink.on_finish(&FinishRecord::of_profile(&terminal), &mut finish_frame).unwrap();
    let mut frames = vec![delta_frame, finish_frame];
    frames.extend(control_frames());
    frames
}

// --------------------------------------------------------------------------------------
// The property
// --------------------------------------------------------------------------------------

/// `true` when the parser's own error text anchors the defect to a byte: the
/// frame-relative (`frame byte N`) or payload-relative (`payload byte N`) offset.
fn names_byte_offset(message: &str) -> bool {
    ["frame byte ", "payload byte "].iter().any(|anchor| {
        message
            .match_indices(anchor)
            .any(|(at, _)| message[at + anchor.len()..].starts_with(|c: char| c.is_ascii_digit()))
    })
}

/// A reader that returns at most one byte per call: every frame arrives in short
/// reads, as it may from a socket.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Reads frames until the end of `input` or the first error, which is returned.
fn first_error(input: impl BufRead) -> Option<String> {
    let mut reader = BinaryFrameReader::new(input);
    loop {
        match reader.next_record() {
            Ok(Some(_)) => {}
            Ok(None) => return None,
            Err(e) => return Some(e.message),
        }
    }
}

/// Drives `bytes` through the frame reader, as one slice and one byte per read.
fn check_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut errors = Vec::new();
    let peak = peak_allocation(|| {
        errors.extend(first_error(bytes));
        errors.extend(first_error(BufReader::new(Trickle(bytes))));
    });
    prop_assert!(
        peak <= HOSTILE_ALLOC_BOUND,
        "{} input bytes made a {peak}-byte allocation",
        bytes.len()
    );
    for message in errors {
        prop_assert!(names_byte_offset(&message), "error names no byte offset: {message}");
    }
    Ok(())
}

#[test]
fn every_kind_decodes_and_control_frames_are_refused_in_a_log() {
    let frames = frames_of_every_kind();
    for log_frame in &frames[..2] {
        let mut reader = BinaryFrameReader::new(log_frame.as_slice());
        assert!(reader.next_record().unwrap().is_some());
    }
    // The doc-built control frames pass header, checksum and payload decoding;
    // the log driver then refuses them by kind.
    for control in &frames[2..] {
        let err = BinaryFrameReader::new(control.as_slice()).next_record().unwrap_err();
        assert!(err.message.contains("control frame has no place in an epoch log"), "{err}");
    }
}

#[test]
fn a_length_prefix_at_the_cap_allocates_only_what_arrives() {
    for valid in frames_of_every_kind() {
        let mut claimed = valid.clone();
        claimed[6..10].copy_from_slice(&CAP.to_le_bytes());
        let peak = peak_allocation(|| {
            let trickled = BufReader::new(Trickle(&claimed));
            for err in [first_error(claimed.as_slice()), first_error(trickled)] {
                let err = err.expect("a frame short of its claimed length is refused");
                assert!(err.contains("truncated mid-payload"), "{err}");
            }
        });
        assert!(peak < 64 << 10, "a 16 MiB length claim allocated {peak} bytes");
        // One byte over the cap is refused from the header alone.
        claimed[6..10].copy_from_slice(&(CAP + 1).to_le_bytes());
        let err = BinaryFrameReader::new(&claimed[..HEADER_LEN]).next_record().unwrap_err();
        assert!(err.message.contains("cap") && names_byte_offset(&err.message), "{err}");
    }
}

/// A query frame whose class-name, site-frame and thread-id lists hold
/// `classes`, `frames` and `threads` entries.
fn query_frame(classes: usize, frames: usize, threads: usize) -> Vec<u8> {
    let mut query = Vec::new();
    put_string(&mut query, "object");
    put_string(&mut query, "samples");
    put_varint(&mut query, 0);
    put_varint(&mut query, 0);
    put_varint(&mut query, classes as u64);
    for _ in 0..classes {
        put_string(&mut query, "a");
    }
    put_varint(&mut query, frames as u64);
    for i in 0..frames {
        put_varint(&mut query, i as u64);
        put_varint(&mut query, 1);
    }
    put_varint(&mut query, threads as u64);
    for i in 0..threads {
        put_varint(&mut query, i as u64);
    }
    frame(0x06, &query)
}

/// The error the log driver reports for `frame`: a query that decodes is refused
/// by kind, one over a filter cap by the cap.
fn query_error(frame: &[u8]) -> String {
    BinaryFrameReader::new(frame).next_record().unwrap_err().message
}

#[test]
fn a_query_claiming_a_million_class_names_is_refused() {
    let err = query_error(&query_frame(1_000_000, 0, 0));
    let cap = djxperf::wire::MAX_QUERY_FILTER_LEN;
    assert!(err.contains(&format!("1000000 class-name filters, over the cap of {cap}")), "{err}");
    assert!(names_byte_offset(&err), "{err}");
    for (frames, threads, list) in [(cap + 1, 0, "site-frame"), (0, cap + 1, "thread-id")] {
        let err = query_error(&query_frame(0, frames, threads));
        assert!(err.contains(&format!("{} {list} filters", cap + 1)), "{err}");
    }
}

#[test]
fn a_query_at_the_filter_cap_still_decodes() {
    let cap = djxperf::wire::MAX_QUERY_FILTER_LEN;
    let err = query_error(&query_frame(cap, cap, cap));
    assert!(err.contains("control frame has no place in an epoch log"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_parser_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..12,
        framed in any::<bool>(),
    ) {
        check_hostile(&bytes)?;
        // The same bytes as the payload behind a valid header of any kind,
        // checksum intact, so they reach the payload decoders.
        if framed {
            check_hostile(&frame(kind, &bytes))?;
        }
    }

    #[test]
    fn frame_parser_survives_varint_soup(
        kind in 1u8..10,
        values in prop::collection::vec((any::<u64>(), 0u32..64, any::<bool>()), 0..40),
    ) {
        // Well-formed varints of every magnitude — near zero and near u64::MAX —
        // so counts, lengths and ids that would overflow offset or id arithmetic
        // reach each decoder past the checksum.
        let mut payload = Vec::new();
        for (value, shift, from_top) in values {
            let value = value >> shift;
            put_varint(&mut payload, if from_top { u64::MAX - value } else { value });
        }
        check_hostile(&frame(kind, &payload))?;
    }

    #[test]
    fn frame_parser_survives_mutated_and_truncated_frames(
        which in 0usize..9,
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let frames = frames_of_every_kind();
        let valid = &frames[which % frames.len()];
        let mut mutated = valid.clone();
        mutated[at % valid.len()] = value;
        check_hostile(&mutated)?;
        reseal(&mut mutated);
        check_hostile(&mutated)?;
        let mut truncated = valid[..cut % valid.len()].to_vec();
        check_hostile(&truncated)?;
        reseal(&mut truncated);
        check_hostile(&truncated)?;
    }
}

// --------------------------------------------------------------------------------------
// The one profile reader
// --------------------------------------------------------------------------------------

/// Feeds `bytes` to the profile reader, which must refuse it. Returns the reader's
/// error message.
fn check_refused(bytes: &[u8]) -> Result<String, TestCaseError> {
    let read = BinaryChunkedSink::new().read_log_bytes(bytes);
    prop_assert!(read.is_err(), "read_log_bytes accepted {} hostile bytes", bytes.len());
    Ok(read.err().map(|e| e.message).unwrap_or_default())
}

/// Arbitrary names, with control characters, whitespace and replacement
/// characters the rendering must handle.
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..16)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A profile with arbitrary names and counters, to render as text.
fn render_profile(names: &[String], samples: u64, event: usize) -> ObjectCentricProfile {
    let sites = names
        .iter()
        .enumerate()
        .map(|(i, name)| AllocSite {
            id: AllocSiteId(i as u32),
            class_name: name.clone(),
            call_path: vec![Frame::new(MethodId(i as u32), 3)],
        })
        .collect();
    let threads = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut thread = ThreadProfile::new(ThreadId(i as u64), name);
            thread.samples = samples;
            thread.record_allocation(AllocSiteId(i as u32), samples);
            thread
        })
        .collect();
    ObjectCentricProfile {
        event: PmuEvent::all()[event % PmuEvent::all().len()],
        period: samples.max(1),
        size_filter: samples,
        sites,
        threads,
        allocation_stats: AllocationStats { callbacks: samples, ..Default::default() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn profile_reader_refuses_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_refused(&bytes)?;
    }

    #[test]
    fn profile_reader_refuses_text_and_json_renders(
        names in prop::collection::vec(name_strategy(), 0..4),
        samples in any::<u64>(),
        event in 0usize..8,
    ) {
        let render = render_profile(&names, samples, event).to_text();
        let message = check_refused(render.as_bytes())?;
        prop_assert!(
            message.contains("render-only"),
            "the text render is not named render-only: {}",
            message
        );
    }
}

// --------------------------------------------------------------------------------------
// WAL recovery
// --------------------------------------------------------------------------------------

/// A scratch WAL directory, removed on drop.
struct WalDir(std::path::PathBuf);

impl WalDir {
    fn new(tag: &str) -> WalDir {
        let path =
            std::env::temp_dir().join(format!("djxperf-hostile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir creates");
        WalDir(path)
    }

    /// Writes `bytes` as the directory's one WAL file and runs recovery over it.
    /// Recovery must not panic, must allocate no more than [`HOSTILE_ALLOC_BOUND`] at
    /// once, and an error must name the file.
    fn recover(&self, bytes: &[u8]) -> Result<bool, TestCaseError> {
        let name = "hostile.wal";
        std::fs::write(self.0.join(name), bytes).expect("WAL writes");
        let mut outcome = None;
        let peak = peak_allocation(|| outcome = Some(FleetAggregator::recover(&self.0)));
        prop_assert!(
            peak <= HOSTILE_ALLOC_BOUND,
            "recovering {} WAL bytes made a {peak}-byte allocation",
            bytes.len()
        );
        match outcome.expect("recovery ran") {
            Ok(_) => Ok(true),
            Err(e) => {
                prop_assert!(e.to_string().contains(name), "error names no file: {}", e);
                Ok(false)
            }
        }
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A valid WAL header line, written from the fleet module's WAL format.
const WAL_HEADER: &str = "djxperf-wal v4 producer=web\\s1 event=MEM_LOAD_UOPS_RETIRED:L1_MISS \
                          period=64 size_filter=1024\n";

#[test]
fn a_valid_wal_recovers() {
    let dir = WalDir::new("valid-wal");
    let mut wal = WAL_HEADER.as_bytes().to_vec();
    for frame in &frames_of_every_kind()[..2] {
        wal.extend_from_slice(frame);
    }
    let builder = FleetAggregator::recover(&dir.0).expect("an empty directory recovers");
    assert!(builder.recovery_report().expect("report").producers.is_empty());
    std::fs::write(dir.0.join("hostile.wal"), &wal).expect("WAL writes");
    let builder = FleetAggregator::recover(&dir.0).expect("a valid WAL recovers");
    let report = builder.recovery_report().expect("report");
    assert_eq!(report.producers.len(), 1);
    assert_eq!(report.producers[0].producer, "web 1");
    assert!(report.producers[0].finished && report.producers[0].torn_tail.is_none());
}

#[test]
fn a_wal_frame_claiming_the_cap_allocates_only_what_arrives() {
    let dir = WalDir::new("wal-cap");
    let mut claimed = frames_of_every_kind().swap_remove(0);
    claimed[6..10].copy_from_slice(&CAP.to_le_bytes());
    // The header line, then a frame header claiming a 16 MiB payload followed by
    // only a few of its bytes.
    let wal = [WAL_HEADER.as_bytes(), &claimed[..HEADER_LEN + 8]].concat();
    dir.recover(&wal).expect("recovery stays within the allocation bound");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wal_recovery_survives_hostile_bodies(
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
        extra in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = WalDir::new("wal-body");
        let frames = frames_of_every_kind();
        let mut body: Vec<u8> = frames[..2].concat();
        let mut wal = WAL_HEADER.as_bytes().to_vec();
        // One byte mutated anywhere in the body.
        let mut mutated = body.clone();
        mutated[at % body.len()] = value;
        dir.recover(&[&wal[..], &mutated].concat())?;
        // The body cut short, then followed by arbitrary bytes.
        body.truncate(cut % body.len());
        dir.recover(&[&wal[..], &body].concat())?;
        body.extend_from_slice(&extra);
        dir.recover(&[&wal[..], &body].concat())?;
        // A control frame where a log holds only epoch frames.
        wal.extend_from_slice(&frames[2 + at % (frames.len() - 2)]);
        dir.recover(&wal)?;
    }

    #[test]
    fn wal_recovery_refuses_a_header_line_of_random_bytes(
        header in prop::collection::vec(any::<u8>(), 0..96),
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let dir = WalDir::new("wal-header");
        let body = frames_of_every_kind()[..2].concat();
        // Random bytes up to the newline: a complete header line that does not
        // parse is an error, never a skip.
        let line: Vec<u8> = header.into_iter().filter(|b| *b != b'\n').collect();
        let recovered = dir.recover(&[&line[..], b"\n", &body].concat())?;
        prop_assert!(!recovered, "a header line of random bytes was accepted");
        // One byte of a valid header line mutated: recovery may accept what still
        // parses, but never panics and names the file in any error.
        let mut mutated = WAL_HEADER.as_bytes().to_vec();
        let at = at % (mutated.len() - 1);
        mutated[at] = value;
        dir.recover(&[&mutated[..], &body].concat())?;
    }
}
