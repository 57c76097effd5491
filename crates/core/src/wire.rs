//! Binary frames: the **one** format the profiler reads back. Every replayable
//! delta stream the profiler emits — [`BinaryChunkedSink`] logs, the fleet wire
//! ([`crate::fleet`]) and the aggregator's write-ahead log — is a sequence of the
//! frames specified here: the [`LogRecord`] stream (deltas + one terminal finish),
//! encoded as length-prefixed, checksummed binary frames. The fleet's control
//! records (hello, acknowledgements, queries, results, status) are frames of the
//! same layout with their own kind bytes, so a fleet connection is one frame
//! stream in both directions. Text and JSON are render targets only
//! ([`TextSink`](crate::sink::TextSink) and [`JsonSink`](crate::sink::JsonSink)
//! snapshots, [`QueryResult::to_json`](crate::query::QueryResult::to_json)); the
//! profiler never parses either.
//!
//! One frame parser serves every source, through thin drivers: the pull-driven
//! [`BinaryFrameReader`] (files, sockets — anything [`BufRead`]), the
//! push-driven [`FrameTail`] (byte chunks of a log still being written), and the
//! fleet's producer, client and aggregator connections. Folding the epoch frames
//! through [`DeltaFold`] reproduces the streaming session's terminal profile
//! **byte-identically** (as rendered by [`ObjectCentricProfile::to_text`], the
//! query layer, and every other consumer).
//!
//! # Frame layout
//!
//! Every frame is self-contained and self-verifying:
//!
//! | field | size | value |
//! |---|---|---|
//! | magic | 4 bytes | `DF 4A 58 42` (`0xDF` then `"JXB"`; `0xDF 0x4A` is never valid UTF-8, so binary logs cannot be mistaken for text) |
//! | version | 1 byte | `0x01` ([`BINARY_VERSION`]) |
//! | kind | 1 byte | one of the kinds below |
//! | payload length | 4 bytes | `u32`, little-endian, length of the payload that follows — at most 16 MiB, the one bound on every inbound read: writers refuse larger frames, readers reject a larger prefix before reading the payload |
//! | payload | *length* bytes | varint-encoded record body (below) |
//! | checksum | 4 bytes | `u32`, little-endian, FNV-1a (32-bit: offset basis `0x811c9dc5`, prime `0x01000193`) over the payload bytes |
//!
//! | kind | record | where it travels |
//! |---|---|---|
//! | `0x01` | delta | epoch logs, WAL, producer → aggregator |
//! | `0x02` | finish | epoch logs, WAL, producer → aggregator |
//! | `0x03` | hello | producer → aggregator, first frame of a producer connection |
//! | `0x04` | ack | aggregator → producer |
//! | `0x05` | error | aggregator → producer or client, followed by a close |
//! | `0x06` | query | client → aggregator |
//! | `0x07` | status request | client → aggregator (empty payload) |
//! | `0x08` | result | aggregator → client |
//! | `0x09` | status | aggregator → client |
//!
//! Epoch logs hold delta and finish frames only; a control frame in a log is a
//! parse error. Every parse error names the byte offset it found the defect at.
//!
//! # Varint rule
//!
//! All integers in a payload are unsigned LEB128: little-endian groups of 7 bits,
//! high bit set on every byte except the last. Values `0..=127` take one byte —
//! which covers most ids, counts and per-epoch metric values in practice.
//!
//! # Delta payload (kind `0x01`)
//!
//! | field | encoding |
//! |---|---|
//! | epoch | varint (absolute — every frame stands alone, so a reconnect backfill can resume anywhere) |
//! | thread count | varint |
//! | per thread: seq | varint (the fragment's first-seen order key) |
//! | … thread id | varint |
//! | … thread name | varint byte length + UTF-8 bytes |
//! | … samples | varint |
//! | … unattributed metrics | metric vector (below) |
//! | … site count | varint |
//! | … per site: site id | varint, **delta-encoded**: the first site's id is absolute, every subsequent one stores the difference from the previous id (sites are sorted ascending, so the deltas stay small) |
//! | … … total metrics | metric vector |
//! | … … context count | varint |
//! | … … per context: call path | varint frame count, then per frame: method id varint + BCI varint (contexts sorted by path, the codec-wide canonical order) |
//! | … … … metrics | metric vector |
//!
//! A **metric vector** is nine varints in declaration order: samples, weighted
//! events, latency cycles, local samples, remote samples, load samples, store
//! samples, allocations, allocated bytes.
//!
//! # Finish payload (kind `0x02`)
//!
//! | field | encoding |
//! |---|---|
//! | event | varint byte length + UTF-8 hardware event name |
//! | period, size filter, total samples | varints (`total_samples` is the end-to-end loss checksum) |
//! | allocation stats | six varints: callbacks, monitored, filtered, relocations, unknown moves, reclamations |
//! | site count | varint |
//! | per site: class name | varint byte length + UTF-8 bytes (site ids are implicit — dense and ascending from 0) |
//! | … call path | varint frame count + method/BCI varint pairs |
//! | alloc row count | varint |
//! | per row | four varints: thread id, site id, allocation count, allocated bytes |
//!
//! # Control payloads (kinds `0x03`–`0x09`)
//!
//! Strings are a varint byte length + UTF-8 bytes; flags are varints, `0` or `1`.
//!
//! | kind | payload fields, in order |
//! |---|---|
//! | hello | protocol version varint (`3`); producer name string; event name string; period, size filter varints; then the producer's loss/backoff counters: spilled frames, dropped epochs, backoff milliseconds varints |
//! | ack | epoch varint (the fold's last epoch); final flag (`1` only for the ack of the finish frame) |
//! | error | message string |
//! | query | group-by name string; rank-by name string; min samples varint; top flag, followed by the top varint when the flag is `1`; class count varint + class strings; site frames as a call path (frame count + method/BCI varint pairs); thread count varint + thread id varints |
//! | status request | empty |
//! | result | text rendering string; JSON rendering string |
//! | status | producer count varint; per producer: name string; connected, finished, truncated flags; deltas, last epoch, samples, resumes, duplicates, frames received, bytes received, WAL bytes, spilled frames, dropped epochs, reconnect backoff ms varints |
//!
//! # Reading a profile back
//!
//! [`BinaryChunkedSink::read_log_bytes`] is the one function that turns bytes into
//! a profile; [`EpochLog`](crate::query::EpochLog) wraps it as a query source.
//! Input without the frame magic — a text or JSON render — is refused with an
//! error saying those formats are render-only.
//!
//! ```
//! use djxperf::{BinaryChunkedSink, BinaryFrameReader, DeltaFold, LogRecord, ProfileSink};
//! use djxperf::{ProfileDelta, ThreadDelta, ThreadProfile};
//! use djx_runtime::ThreadId;
//!
//! let mut profile = ThreadProfile::new(ThreadId(7), "worker");
//! profile.samples = 3;
//! let delta = ProfileDelta { epoch: 1, threads: vec![ThreadDelta { seq: 0, profile }] };
//!
//! let mut log = Vec::new();
//! BinaryChunkedSink::new().on_delta(1, &delta, &mut log).unwrap();
//!
//! let mut reader = BinaryFrameReader::new(log.as_slice());
//! let mut fold = DeltaFold::new();
//! while let Some(record) = reader.next_record().unwrap() {
//!     if let LogRecord::Delta(delta) = record {
//!         fold.absorb_ordered(&delta).unwrap();
//!     }
//! }
//! assert_eq!(fold.total_samples(), 3);
//! ```

use std::io::{self, BufRead, Read, Write};
use std::str::FromStr;

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, MethodId, ThreadId};

use crate::fleet::{ProducerStatus, FLEET_VERSION};
use crate::metrics::MetricVector;
use crate::object::{AllocSite, AllocSiteId};
use crate::profile::{
    event_from_name, AllocationStats, DeltaFold, ObjectCentricProfile, ProfileDelta,
    ProfileParseError, ThreadDelta, ThreadProfile,
};
use crate::query::{GroupBy, Query, RankBy};
use crate::sink::{FinishRecord, LogRecord, ProfileSink};

/// The four magic bytes opening every binary frame: `0xDF` then `"JXB"`. The
/// leading pair `0xDF 0x4A` is never valid UTF-8, so a binary log can always be
/// told apart from the text formats by its first bytes.
pub const BINARY_MAGIC: [u8; 4] = [0xDF, 0x4A, 0x58, 0x42];

/// Current version of the binary frame layout.
pub const BINARY_VERSION: u8 = 1;

/// Frame kind byte: a streamed epoch delta.
const KIND_DELTA: u8 = 1;

/// Frame kind byte: the terminal finish record.
const KIND_FINISH: u8 = 2;

/// Frame kind bytes of the fleet control records (see [`Control`]).
const KIND_HELLO: u8 = 3;
const KIND_ACK: u8 = 4;
const KIND_ERROR: u8 = 5;
const KIND_QUERY: u8 = 6;
const KIND_STATUS_REQUEST: u8 = 7;
const KIND_RESULT: u8 = 8;
const KIND_STATUS: u8 = 9;

/// Fixed frame header size: magic + version + kind + payload length.
const HEADER_LEN: usize = 10;

/// The one bound on every inbound read: the payload of a frame of any kind —
/// epoch log, WAL, and both directions of a fleet connection. Readers reject a
/// larger length prefix before reading the payload, so a corrupt or hostile
/// header cannot make a reader allocate more than this; writers refuse to emit a
/// frame readers would reject.
pub(crate) const MAX_PAYLOAD_LEN: usize = 16 << 20;

// ---------------------------------------------------------------------------------------
// Checksum and varint primitives
// ---------------------------------------------------------------------------------------

/// 32-bit FNV-1a — cheap, dependency-free, and plenty to catch the torn writes
/// and bit flips a frame checksum is for. The fleet also hashes producer names
/// with it (WAL file names, default backoff seeds).
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Appends an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a call path: frame count, then method/BCI varint pairs.
fn put_path(out: &mut Vec<u8>, path: &[Frame]) {
    put_varint(out, path.len() as u64);
    for frame in path {
        put_varint(out, u64::from(frame.method.0));
        put_varint(out, u64::from(frame.bci));
    }
}

/// Appends the nine metric-vector varints.
fn put_metrics(out: &mut Vec<u8>, m: &MetricVector) {
    put_varint(out, m.samples);
    put_varint(out, m.weighted_events);
    put_varint(out, m.latency_cycles);
    put_varint(out, m.local_samples);
    put_varint(out, m.remote_samples);
    put_varint(out, m.load_samples);
    put_varint(out, m.store_samples);
    put_varint(out, m.allocations);
    put_varint(out, m.allocated_bytes);
}

/// Cursor over one frame's payload; every error carries the payload byte offset so
/// corruption reports point at the defect, not just the frame.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ProfileParseError {
        ProfileParseError {
            frame: 0,
            message: format!("payload byte {}: {}", self.pos, message.into()),
        }
    }

    fn varint(&mut self) -> Result<u64, ProfileParseError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("varint runs past the end of the payload"));
            };
            self.pos += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn varint_u32(&mut self) -> Result<u32, ProfileParseError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.error(format!("integer {v} exceeds u32 range")))
    }

    /// A `0`/`1` varint.
    fn flag(&mut self) -> Result<bool, ProfileParseError> {
        match self.varint()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.error(format!("flag value {v} is neither 0 nor 1"))),
        }
    }

    fn string(&mut self) -> Result<String, ProfileParseError> {
        let len = self.varint()?;
        let end = usize::try_from(len).ok().and_then(|len| self.pos.checked_add(len));
        let Some(bytes) = end.and_then(|end| self.bytes.get(self.pos..end)) else {
            return Err(self.error(format!("string of {len} bytes runs past the payload end")));
        };
        let s = std::str::from_utf8(bytes)
            .map_err(|e| self.error(format!("string is not UTF-8: {e}")))?
            .to_string();
        self.pos += bytes.len();
        Ok(s)
    }

    fn path(&mut self) -> Result<Vec<Frame>, ProfileParseError> {
        let frames = self.varint()? as usize;
        let mut path = Vec::with_capacity(frames.min(64));
        for _ in 0..frames {
            let method = MethodId(self.varint_u32()?);
            let bci = self.varint_u32()?;
            path.push(Frame::new(method, bci));
        }
        Ok(path)
    }

    fn metrics(&mut self) -> Result<MetricVector, ProfileParseError> {
        Ok(MetricVector {
            samples: self.varint()?,
            weighted_events: self.varint()?,
            latency_cycles: self.varint()?,
            local_samples: self.varint()?,
            remote_samples: self.varint()?,
            load_samples: self.varint()?,
            store_samples: self.varint()?,
            allocations: self.varint()?,
            allocated_bytes: self.varint()?,
        })
    }

    fn finish(self) -> Result<(), ProfileParseError> {
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing bytes after the record payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------------------
// Record payload encode/decode
// ---------------------------------------------------------------------------------------

fn encode_delta_payload(epoch: u64, threads: &[ThreadDelta]) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    put_varint(&mut p, epoch);
    put_varint(&mut p, threads.len() as u64);
    for td in threads {
        put_varint(&mut p, td.seq);
        put_varint(&mut p, td.profile.thread.0);
        put_string(&mut p, &td.profile.thread_name);
        put_varint(&mut p, td.profile.samples);
        put_metrics(&mut p, &td.profile.unattributed);
        let mut site_ids: Vec<_> = td.profile.sites.keys().copied().collect();
        site_ids.sort_unstable();
        put_varint(&mut p, site_ids.len() as u64);
        let mut prev = 0u64;
        for (j, sid) in site_ids.iter().enumerate() {
            let id = u64::from(sid.0);
            // Delta-encoded within the frame: ascending ids shrink to tiny varints.
            put_varint(&mut p, if j == 0 { id } else { id - prev });
            prev = id;
            let sm = &td.profile.sites[sid];
            put_metrics(&mut p, &sm.total);
            // Canonical context order (by call path).
            let mut contexts: Vec<(Vec<Frame>, &MetricVector)> =
                sm.by_context.iter().map(|(ctx, m)| (td.profile.cct.path_of(*ctx), m)).collect();
            contexts.sort_by(|a, b| a.0.cmp(&b.0));
            put_varint(&mut p, contexts.len() as u64);
            for (path, m) in contexts {
                put_path(&mut p, &path);
                put_metrics(&mut p, m);
            }
        }
    }
    p
}

fn decode_delta_payload(payload: &[u8]) -> Result<ProfileDelta, ProfileParseError> {
    let mut r = PayloadReader::new(payload);
    let epoch = r.varint()?;
    let thread_count = r.varint()? as usize;
    let mut threads = Vec::with_capacity(thread_count.min(1024));
    for _ in 0..thread_count {
        let seq = r.varint()?;
        let thread = ThreadId(r.varint()?);
        let name = r.string()?;
        let mut profile = ThreadProfile::new(thread, &name);
        profile.samples = r.varint()?;
        profile.unattributed = r.metrics()?;
        let site_count = r.varint()? as usize;
        let mut prev = 0u64;
        for j in 0..site_count {
            let delta_id = r.varint()?;
            let id = if j == 0 { Some(delta_id) } else { prev.checked_add(delta_id) };
            let Some(site) = id.and_then(|id| u32::try_from(id).ok()) else {
                return Err(r.error(format!("site id delta {delta_id} leaves the u32 range")));
            };
            prev = u64::from(site);
            let site = AllocSiteId(site);
            let entry = profile.sites.entry(site).or_default();
            entry.total = r.metrics()?;
            let context_count = r.varint()? as usize;
            for _ in 0..context_count {
                let path = r.path()?;
                let metrics = r.metrics()?;
                let ctx = profile.cct.insert_path(&path);
                profile
                    .sites
                    .get_mut(&site)
                    .expect("entry inserted above")
                    .by_context
                    .insert(ctx, metrics);
            }
        }
        threads.push(ThreadDelta { seq, profile });
    }
    r.finish()?;
    Ok(ProfileDelta { epoch, threads })
}

/// Encodes a [`FinishRecord`] into the finish-frame payload — the exact inverse of
/// [`decode_finish_payload`]: both directions share one field order and the site-id
/// invariant (dense, ascending, implicit, so ids are never written).
fn encode_finish_payload(record: &FinishRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    put_string(&mut p, record.event.hardware_name());
    put_varint(&mut p, record.period);
    put_varint(&mut p, record.size_filter);
    put_varint(&mut p, record.total_samples);
    let s = &record.allocation_stats;
    put_varint(&mut p, s.callbacks);
    put_varint(&mut p, s.monitored);
    put_varint(&mut p, s.filtered);
    put_varint(&mut p, s.relocations);
    put_varint(&mut p, s.unknown_moves);
    put_varint(&mut p, s.reclamations);
    put_varint(&mut p, record.sites.len() as u64);
    for site in &record.sites {
        put_string(&mut p, &site.class_name);
        put_path(&mut p, &site.call_path);
    }
    put_varint(&mut p, record.allocs.len() as u64);
    for (thread, site, count, bytes) in &record.allocs {
        put_varint(&mut p, thread.0);
        put_varint(&mut p, u64::from(site.0));
        put_varint(&mut p, *count);
        put_varint(&mut p, *bytes);
    }
    p
}

fn decode_finish_payload(payload: &[u8]) -> Result<FinishRecord, ProfileParseError> {
    let mut r = PayloadReader::new(payload);
    let event_name = r.string()?;
    let event = event_from_name(&event_name).map_err(|e| r.error(e.to_string()))?;
    let period = r.varint()?;
    let size_filter = r.varint()?;
    let total_samples = r.varint()?;
    let allocation_stats = AllocationStats {
        callbacks: r.varint()?,
        monitored: r.varint()?,
        filtered: r.varint()?,
        relocations: r.varint()?,
        unknown_moves: r.varint()?,
        reclamations: r.varint()?,
    };
    let site_count = r.varint()? as usize;
    let mut sites = Vec::with_capacity(site_count.min(4096));
    for id in 0..site_count {
        let class_name = r.string()?;
        let call_path = r.path()?;
        let id =
            u32::try_from(id).map_err(|_| r.error(format!("site id {id} exceeds u32 range")))?;
        sites.push(AllocSite { id: AllocSiteId(id), class_name, call_path });
    }
    let row_count = r.varint()? as usize;
    let mut allocs = Vec::with_capacity(row_count.min(4096));
    for _ in 0..row_count {
        let thread = ThreadId(r.varint()?);
        let site = AllocSiteId(r.varint_u32()?);
        let count = r.varint()?;
        let bytes = r.varint()?;
        allocs.push((thread, site, count, bytes));
    }
    r.finish()?;
    Ok(FinishRecord { event, period, size_filter, sites, allocs, allocation_stats, total_samples })
}

// ---------------------------------------------------------------------------------------
// Fleet control records
// ---------------------------------------------------------------------------------------

/// The hello frame a producer opens every fleet connection with: its name, the
/// profiled run's configuration (so the aggregator can expose a partial fold
/// before the finish frame arrives), and its lifetime loss/backoff counters.
#[derive(Debug, Clone)]
pub(crate) struct Hello {
    pub(crate) producer: String,
    pub(crate) event: PmuEvent,
    pub(crate) period: u64,
    pub(crate) size_filter: u64,
    pub(crate) spilled_frames: u64,
    pub(crate) dropped_epochs: u64,
    pub(crate) backoff_ms: u64,
}

/// A fleet control record: every frame on a fleet connection that is not an
/// epoch frame. Payload layouts are in the module docs.
#[derive(Debug)]
pub(crate) enum Control {
    Hello(Hello),
    Ack { epoch: u64, terminal: bool },
    Error(String),
    Query(Query),
    StatusRequest,
    Result { text: String, json: String },
    Status(Vec<ProducerStatus>),
}

impl Control {
    /// The record name used in protocol errors.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Control::Hello(_) => "hello",
            Control::Ack { .. } => "ack",
            Control::Error(_) => "error",
            Control::Query(_) => "query",
            Control::StatusRequest => "status request",
            Control::Result { .. } => "result",
            Control::Status(_) => "status",
        }
    }

    /// Encodes the record as one complete frame.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the payload exceeds the frame cap (a
    /// query result or status too large to send).
    pub(crate) fn to_frame(&self) -> io::Result<Vec<u8>> {
        let mut p = Vec::new();
        let kind = match self {
            Control::Hello(h) => {
                put_varint(&mut p, FLEET_VERSION);
                put_string(&mut p, &h.producer);
                put_string(&mut p, h.event.hardware_name());
                for v in [h.period, h.size_filter, h.spilled_frames, h.dropped_epochs, h.backoff_ms]
                {
                    put_varint(&mut p, v);
                }
                KIND_HELLO
            }
            Control::Ack { epoch, terminal } => {
                put_varint(&mut p, *epoch);
                put_varint(&mut p, u64::from(*terminal));
                KIND_ACK
            }
            Control::Error(message) => {
                put_string(&mut p, message);
                KIND_ERROR
            }
            Control::Query(q) => {
                put_string(&mut p, q.group_by.name());
                put_string(&mut p, q.rank_by.name());
                put_varint(&mut p, q.min_samples);
                put_varint(&mut p, u64::from(q.top.is_some()));
                if let Some(top) = q.top {
                    put_varint(&mut p, top as u64);
                }
                put_varint(&mut p, q.classes.len() as u64);
                for class in &q.classes {
                    put_string(&mut p, class);
                }
                put_path(&mut p, &q.site_frames);
                put_varint(&mut p, q.threads.len() as u64);
                for thread in &q.threads {
                    put_varint(&mut p, thread.0);
                }
                KIND_QUERY
            }
            Control::StatusRequest => KIND_STATUS_REQUEST,
            Control::Result { text, json } => {
                put_string(&mut p, text);
                put_string(&mut p, json);
                KIND_RESULT
            }
            Control::Status(rows) => {
                put_varint(&mut p, rows.len() as u64);
                for s in rows {
                    put_string(&mut p, &s.producer);
                    for flag in [s.connected, s.finished, s.truncated] {
                        put_varint(&mut p, u64::from(flag));
                    }
                    for v in [
                        s.deltas,
                        s.last_epoch,
                        s.samples,
                        s.resumes,
                        s.duplicates,
                        s.frames_received,
                        s.bytes_received,
                        s.wal_bytes,
                        s.spilled_frames,
                        s.dropped_epochs,
                        s.reconnect_backoff_ms,
                    ] {
                        put_varint(&mut p, v);
                    }
                }
                KIND_STATUS
            }
        };
        let mut frame = Vec::with_capacity(HEADER_LEN + p.len() + 4);
        write_frame(kind, &p, &mut frame)?;
        Ok(frame)
    }
}

fn decode_control_payload(kind: u8, payload: &[u8]) -> Result<Control, ProfileParseError> {
    let mut r = PayloadReader::new(payload);
    let control = match kind {
        KIND_HELLO => {
            let version = r.varint()?;
            if version != FLEET_VERSION {
                return Err(r.error(format!("unsupported fleet version {version}")));
            }
            let producer = r.string()?;
            let event_name = r.string()?;
            let event = event_from_name(&event_name).map_err(|e| r.error(e.to_string()))?;
            Control::Hello(Hello {
                producer,
                event,
                period: r.varint()?,
                size_filter: r.varint()?,
                spilled_frames: r.varint()?,
                dropped_epochs: r.varint()?,
                backoff_ms: r.varint()?,
            })
        }
        KIND_ACK => Control::Ack { epoch: r.varint()?, terminal: r.flag()? },
        KIND_ERROR => Control::Error(r.string()?),
        KIND_QUERY => {
            let group_by = r.string()?;
            let group_by = GroupBy::from_str(&group_by).map_err(|e| r.error(e.to_string()))?;
            let rank_by = r.string()?;
            let rank_by = RankBy::from_str(&rank_by).map_err(|e| r.error(e.to_string()))?;
            let mut query = Query::new().group_by(group_by).rank_by(rank_by);
            query.min_samples = r.varint()?;
            if r.flag()? {
                let top = r.varint()?;
                query.top = Some(
                    usize::try_from(top).map_err(|_| r.error(format!("top {top} overflows")))?,
                );
            }
            for _ in 0..r.varint()? {
                query.classes.push(r.string()?);
            }
            query.site_frames = r.path()?;
            for _ in 0..r.varint()? {
                query.threads.push(ThreadId(r.varint()?));
            }
            Control::Query(query)
        }
        KIND_STATUS_REQUEST => Control::StatusRequest,
        KIND_RESULT => Control::Result { text: r.string()?, json: r.string()? },
        _ => {
            let count = r.varint()? as usize;
            let mut rows = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                rows.push(ProducerStatus {
                    producer: r.string()?,
                    connected: r.flag()?,
                    finished: r.flag()?,
                    truncated: r.flag()?,
                    deltas: r.varint()?,
                    last_epoch: r.varint()?,
                    samples: r.varint()?,
                    resumes: r.varint()?,
                    duplicates: r.varint()?,
                    frames_received: r.varint()?,
                    bytes_received: r.varint()?,
                    wal_bytes: r.varint()?,
                    spilled_frames: r.varint()?,
                    dropped_epochs: r.varint()?,
                    reconnect_backoff_ms: r.varint()?,
                });
            }
            Control::Status(rows)
        }
    };
    r.finish()?;
    Ok(control)
}

// ---------------------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------------------

fn write_frame(kind: u8, payload: &[u8], out: &mut dyn Write) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    frame.extend_from_slice(&BINARY_MAGIC);
    frame.push(BINARY_VERSION);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.write_all(&frame)
}

/// Encodes one delta frame into `out`.
///
/// # Errors
///
/// Write errors from `out`, and [`io::ErrorKind::InvalidInput`] for a delta whose
/// payload exceeds the frame cap.
fn write_delta_frame(epoch: u64, threads: &[ThreadDelta], out: &mut dyn Write) -> io::Result<()> {
    write_frame(KIND_DELTA, &encode_delta_payload(epoch, threads), out)
}

/// Encodes one finish frame into `out`.
fn write_finish_frame(record: &FinishRecord, out: &mut dyn Write) -> io::Result<()> {
    write_frame(KIND_FINISH, &encode_finish_payload(record), out)
}

fn frame_error(message: String) -> ProfileParseError {
    ProfileParseError { frame: 0, message }
}

/// Validates a frame header (magic, version, kind, payload cap) and returns the
/// frame's total length: header + payload + checksum.
fn frame_len(header: &[u8; HEADER_LEN]) -> Result<usize, ProfileParseError> {
    if header[..4] != BINARY_MAGIC {
        return Err(frame_error(format!(
            "frame byte 0: bad frame magic {:02x} {:02x} {:02x} {:02x} (expected df 4a 58 42)",
            header[0], header[1], header[2], header[3]
        )));
    }
    if header[4] != BINARY_VERSION {
        return Err(frame_error(format!(
            "frame byte 4: unsupported binary frame version {}",
            header[4]
        )));
    }
    if !(KIND_DELTA..=KIND_STATUS).contains(&header[5]) {
        return Err(frame_error(format!(
            "frame byte 5: unknown frame kind byte {:#04x}",
            header[5]
        )));
    }
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 length bytes")) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(frame_error(format!(
            "frame byte 6: frame payload length {len} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
        )));
    }
    Ok(HEADER_LEN + len + 4)
}

/// One decoded frame of any kind: an epoch-log record or a fleet control record.
#[derive(Debug)]
pub(crate) enum WireRecord {
    Log(LogRecord),
    Control(Control),
}

/// Verifies and decodes one complete frame whose header [`frame_len`] accepted.
fn decode_frame(frame: &[u8]) -> Result<WireRecord, ProfileParseError> {
    let (body, stored) = frame.split_at(frame.len() - 4);
    let payload = &body[HEADER_LEN..];
    let stored = u32::from_le_bytes(stored.try_into().expect("4 checksum bytes"));
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(frame_error(format!(
            "frame byte {}: frame checksum mismatch: stored {stored:08x}, computed {computed:08x}",
            body.len()
        )));
    }
    Ok(match frame[5] {
        KIND_DELTA => WireRecord::Log(LogRecord::Delta(decode_delta_payload(payload)?)),
        KIND_FINISH => WireRecord::Log(LogRecord::Finish(decode_finish_payload(payload)?)),
        kind => WireRecord::Control(decode_control_payload(kind, payload)?),
    })
}

/// An epoch log holds delta and finish frames only.
fn log_record(record: WireRecord) -> Result<LogRecord, ProfileParseError> {
    match record {
        WireRecord::Log(record) => Ok(record),
        WireRecord::Control(control) => Err(frame_error(format!(
            "frame byte 5: a {} control frame has no place in an epoch log",
            control.name()
        ))),
    }
}

/// Reads and decodes exactly one binary frame from `input`, which must be
/// positioned at a frame boundary with at least one byte available — the single
/// frame parser behind every reader. `frame` receives the frame's raw bytes (the
/// fleet aggregator appends them verbatim to its write-ahead log); its length is
/// the frame's size on the wire.
///
/// The payload is read through [`Read::take`], never into a buffer pre-sized from
/// the untrusted length prefix. Errors name the frame-relative byte offset of the
/// defect (payload decode errors the payload-relative one) and carry `frame == 0`;
/// callers tracking a stream position ([`BinaryFrameReader`], [`FrameTail`])
/// re-anchor them.
pub(crate) fn read_binary_frame<R: Read>(
    input: &mut R,
    frame: &mut Vec<u8>,
) -> Result<WireRecord, ProfileParseError> {
    let mut read =
        |frame: &mut Vec<u8>, up_to: usize| {
            let want = (up_to - frame.len()) as u64;
            input.by_ref().take(want).read_to_end(frame).map_err(|e| {
                frame_error(format!("frame byte {}: stream read error: {e}", frame.len()))
            })
        };
    let truncated = |got: usize, what: &str| {
        frame_error(format!("frame byte {got}: frame truncated mid-{what} (short read)"))
    };
    frame.clear();
    read(frame, HEADER_LEN)?;
    let Some(header) = frame.first_chunk::<HEADER_LEN>() else {
        return Err(truncated(frame.len(), "header"));
    };
    let total = frame_len(header)?;
    read(frame, total)?;
    if frame.len() < total {
        return Err(truncated(
            frame.len(),
            if frame.len() < total - 4 { "payload" } else { "checksum" },
        ));
    }
    decode_frame(frame)
}

/// Waits for the next byte of `input`; `Ok(true)` is a clean end of stream at a
/// frame boundary.
pub(crate) fn at_end<R: BufRead>(input: &mut R) -> io::Result<bool> {
    loop {
        match input.fill_buf() {
            Ok(buf) => return Ok(buf.is_empty()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Pull driver over the frame parser: an incremental frame reader over any
/// [`BufRead`], yielding one decoded [`LogRecord`] per frame. One reader serves
/// finished log files, pipes still being written, and sockets.
///
/// Errors are anchored to the 1-based frame number (in
/// [`ProfileParseError::frame`]) and the absolute byte offset of the offending
/// frame (in the message).
#[derive(Debug)]
pub struct BinaryFrameReader<R> {
    input: R,
    frame: Vec<u8>,
    frame_number: usize,
    offset: u64,
}

impl<R: BufRead> BinaryFrameReader<R> {
    /// Wraps a buffered reader positioned at the start of a frame stream.
    pub fn new(input: R) -> Self {
        Self { input, frame: Vec::new(), frame_number: 0, offset: 0 }
    }

    /// The 1-based number of the most recently returned frame (0 before the first
    /// read).
    pub fn frame_number(&self) -> usize {
        self.frame_number
    }

    /// Byte offset of the next frame (the stream length consumed so far).
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }

    /// Decodes the next frame, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// [`ProfileParseError`] (anchored to the frame number and byte offset) for
    /// truncated, corrupted or malformed frames and control frames; transport
    /// failures of the underlying reader surface the same way.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, ProfileParseError> {
        let start = self.offset;
        let anchor = |frame_number: usize, message: String| ProfileParseError {
            frame: frame_number,
            message: format!("binary frame {frame_number} at byte offset {start}: {message}"),
        };
        match at_end(&mut self.input) {
            Ok(true) => return Ok(None),
            Ok(false) => {}
            Err(e) => return Err(anchor(self.frame_number + 1, format!("stream read error: {e}"))),
        }
        self.frame_number += 1;
        match read_binary_frame(&mut self.input, &mut self.frame).and_then(log_record) {
            Ok(record) => {
                self.offset += self.frame.len() as u64;
                Ok(Some(record))
            }
            Err(e) => Err(anchor(self.frame_number, e.message)),
        }
    }
}

/// Push driver over the frame parser, for **tailing a log that is still being
/// written**: feed it byte chunks as they arrive ([`FrameTail::push`] — from a
/// growing file, a pipe, a socket) and pull complete decoded [`LogRecord`]s out
/// ([`FrameTail::next_record`]); partial frames stay buffered until their bytes
/// arrive. The decoding layer behind
/// [`LiveFold::feed`](crate::query::live::LiveFold::feed).
///
/// ```
/// use djxperf::wire::FrameTail;
/// use djxperf::{BinaryChunkedSink, LogRecord, ProfileDelta, ProfileSink};
///
/// let mut log = Vec::new();
/// let delta = ProfileDelta { epoch: 1, threads: Vec::new() };
/// BinaryChunkedSink::new().on_delta(1, &delta, &mut log).unwrap();
///
/// let mut tail = FrameTail::new();
/// let (head, rest) = log.split_at(7);
/// tail.push(head);
/// assert!(tail.next_record().unwrap().is_none(), "a partial frame waits");
/// tail.push(rest);
/// assert!(matches!(tail.next_record().unwrap(), Some(LogRecord::Delta(d)) if d.epoch == 1));
/// assert_eq!((tail.frames(), tail.buffered()), (1, 0));
/// ```
#[derive(Debug, Default)]
pub struct FrameTail {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte; consumed prefixes are compacted away
    /// once they outgrow the unconsumed remainder.
    pos: usize,
    frames: usize,
}

impl FrameTail {
    /// An empty tail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly arrived bytes to the tail buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Number of complete frames decoded so far (the position parse errors anchor
    /// to).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Decodes the next complete frame, or `Ok(None)` when the buffered bytes end
    /// mid-frame — push more and try again.
    ///
    /// # Errors
    ///
    /// [`ProfileParseError`] for malformed frames and control frames, anchored to
    /// the running frame count. A header is validated as soon as it is buffered,
    /// so a corrupt length prefix fails fast instead of stalling the tail on bytes
    /// that never come. A tail that errored is not recoverable: the stream
    /// position inside a corrupt frame is unknowable.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, ProfileParseError> {
        let avail = &self.buf[self.pos..];
        let Some(header) = avail.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let anchor = |e: ProfileParseError| ProfileParseError {
            frame: self.frames + 1,
            message: format!("frame {}: {}", self.frames + 1, e.message),
        };
        let total = frame_len(header).map_err(anchor)?;
        let Some(frame) = avail.get(..total) else {
            return Ok(None);
        };
        let record = decode_frame(frame).and_then(log_record).map_err(anchor)?;
        self.pos += total;
        self.frames += 1;
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------------------
// BinaryChunkedSink: the replayable binary epoch log
// ---------------------------------------------------------------------------------------

/// The replayable streaming backend: a [`ProfileSink`] whose delta stream is a
/// binary epoch log in the frame format specified by this module's docs — one
/// delta frame per streamed epoch and one terminal finish frame carrying the run
/// configuration, the site table, the per-(thread, site) allocation rows and a
/// total-sample checksum. Wire it into a session with
/// [`SessionBuilder::stream_to_binary`](crate::session::SessionBuilder::stream_to_binary).
///
/// Unlike the render-only [`TextSink`](crate::sink::TextSink) /
/// [`JsonSink`](crate::sink::JsonSink) documents, a binary log is a complete,
/// self-verifying serialization of the run, and the one format the profiler reads
/// back:
/// [`BinaryChunkedSink::read_log_bytes`] folds the delta frames in epoch order
/// ([`DeltaFold`]), applies the finish frame, verifies the checksum, and returns a
/// profile **byte-identical** to the terminal snapshot of the session that
/// streamed it. Out-of-order epochs, a missing finish frame, or a folded sample
/// count that disagrees with the checksum are parse errors — a truncated or
/// reordered stream can never silently masquerade as a whole profile.
///
/// Binary logs are not UTF-8: use byte-based outputs
/// ([`SharedBuffer`](crate::export::SharedBuffer), files) and
/// [`BinaryChunkedSink::read_log_bytes`] to read them. The `&str`-based
/// [`ProfileSink::write_to_string`] cannot represent them and panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryChunkedSink;

impl BinaryChunkedSink {
    /// Creates the sink.
    pub fn new() -> Self {
        Self
    }

    /// Replays a binary epoch log: folds the delta frames in order, applies the
    /// finish frame, and verifies the total-sample checksum. This is the one
    /// function that turns bytes into a profile.
    ///
    /// ```
    /// use djxperf::{BinaryChunkedSink, ObjectCentricProfile, ProfileSink, TextSink};
    ///
    /// let profile = ObjectCentricProfile {
    ///     event: djx_pmu::PmuEvent::L1Miss,
    ///     period: 64,
    ///     size_filter: 1024,
    ///     sites: Vec::new(),
    ///     threads: Vec::new(),
    ///     allocation_stats: Default::default(),
    /// };
    /// let sink = BinaryChunkedSink::new();
    /// let mut log = Vec::new();
    /// sink.write_profile(&profile, &mut log).unwrap();
    /// assert_eq!(sink.read_log_bytes(&log).unwrap().to_text(), profile.to_text());
    ///
    /// // A text render does not read back.
    /// let text = TextSink.write_to_string(&profile);
    /// let err = sink.read_log_bytes(text.as_bytes()).unwrap_err();
    /// assert!(err.message.contains("render-only"));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ProfileParseError`] for input without the frame magic (text and
    /// JSON renders among it: both are render-only), corrupted or truncated frames,
    /// out-of-order epochs, frames after (or a log without) the finish frame, and
    /// checksum mismatches.
    pub fn read_log_bytes(&self, input: &[u8]) -> Result<ObjectCentricProfile, ProfileParseError> {
        // Compare only the bytes present: a truncated-but-matching magic prefix is a
        // short frame (reported below), not a foreign format.
        let head = &input[..input.len().min(BINARY_MAGIC.len())];
        if head != &BINARY_MAGIC[..head.len()] {
            return Err(ProfileParseError {
                frame: 1,
                message: "input does not start with the binary epoch-log magic; text and \
                          JSON profiles are render-only — replay a binary epoch log instead"
                    .to_string(),
            });
        }
        let mut reader = BinaryFrameReader::new(input);
        let mut fold = DeltaFold::new();
        let mut finish: Option<FinishRecord> = None;
        while let Some(record) = reader.next_record()? {
            let frame = reader.frame_number();
            if finish.is_some() {
                return Err(ProfileParseError {
                    frame,
                    message: "frames after the finish frame".to_string(),
                });
            }
            match record {
                LogRecord::Delta(delta) => fold
                    .absorb_ordered(&delta)
                    .map_err(|e| ProfileParseError { frame, message: e.to_string() })?,
                LogRecord::Finish(record) => finish = Some(record),
            }
        }
        let frame = reader.frame_number().max(1);
        let Some(finish) = finish else {
            return Err(ProfileParseError {
                frame,
                message: "binary epoch log has no finish frame (truncated stream?)".to_string(),
            });
        };
        finish
            .assemble(fold)
            .map_err(|e| ProfileParseError { frame, message: e.to_string() })
    }
}

impl ProfileSink for BinaryChunkedSink {
    fn format_name(&self) -> &'static str {
        "binary"
    }

    /// Writes the profile as a degenerate one-delta binary epoch log (the threads
    /// inlined complete with their allocation metrics, so the finish frame carries
    /// no allocation rows).
    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        if !profile.threads.is_empty() {
            let threads: Vec<ThreadDelta> = profile
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| ThreadDelta { seq: i as u64, profile: t.clone() })
                .collect();
            write_delta_frame(1, &threads, out)?;
        }
        write_finish_frame(&FinishRecord::of_profile(profile, false), out)
    }

    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, out: &mut dyn Write) -> io::Result<()> {
        write_delta_frame(epoch, &delta.threads, out)
    }

    fn on_finish(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        write_finish_frame(&FinishRecord::of_profile(profile, true), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_pmu::PmuEvent;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    fn metrics(samples: u64) -> MetricVector {
        MetricVector {
            samples,
            weighted_events: samples * 100,
            latency_cycles: samples * 37,
            local_samples: samples / 2,
            remote_samples: samples - samples / 2,
            load_samples: samples,
            store_samples: 0,
            allocations: 0,
            allocated_bytes: 0,
        }
    }

    fn thread_fragment(id: u64, name: &str, site: u32, samples: u64) -> ThreadProfile {
        let mut profile = ThreadProfile::new(ThreadId(id), name);
        profile.samples = samples;
        let entry = profile.sites.entry(AllocSiteId(site)).or_default();
        entry.total = metrics(samples);
        let ctx = profile.cct.insert_path(&[f(1, 5), f(4, 9)]);
        let by_context = &mut profile.sites.get_mut(&AllocSiteId(site)).unwrap().by_context;
        by_context.insert(ctx, metrics(samples));
        profile
    }

    fn delta(epoch: u64, threads: Vec<(u64, ThreadProfile)>) -> ProfileDelta {
        ProfileDelta {
            epoch,
            threads: threads
                .into_iter()
                .map(|(seq, profile)| ThreadDelta { seq, profile })
                .collect(),
        }
    }

    fn sites(n: u32) -> Vec<AllocSite> {
        (0..n)
            .map(|i| AllocSite {
                id: AllocSiteId(i),
                class_name: format!("float[] #{i} \"quoted\" λ"),
                call_path: vec![f(i + 1, 5), f(2, 3)],
            })
            .collect()
    }

    /// Streams three deltas and their finish through the sink and returns
    /// (binary log, terminal profile).
    fn stream() -> (Vec<u8>, ObjectCentricProfile) {
        let deltas = vec![
            delta(
                1,
                vec![(0, thread_fragment(1, "main", 0, 4)), (1, thread_fragment(2, "w", 1, 2))],
            ),
            delta(3, vec![(0, thread_fragment(1, "main", 1, 5))]),
            delta(4, vec![(1, thread_fragment(2, "w", 0, 1))]),
        ];
        let mut fold = DeltaFold::new();
        for d in &deltas {
            fold.absorb_ordered(d).unwrap();
        }
        let profile = fold.assemble(
            PmuEvent::L1Miss,
            100,
            1024,
            sites(2),
            std::iter::empty(),
            AllocationStats { callbacks: 9, monitored: 3, filtered: 6, ..Default::default() },
        );
        let sink = BinaryChunkedSink::new();
        let mut log = Vec::new();
        for d in &deltas {
            sink.on_delta(d.epoch, d, &mut log).unwrap();
        }
        sink.on_finish(&profile, &mut log).unwrap();
        (log, profile)
    }

    #[test]
    fn varints_round_trip_edge_values() {
        for value in [0u64, 1, 127, 128, 129, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut r = PayloadReader::new(&buf);
            assert_eq!(r.varint().unwrap(), value, "value {value}");
            r.finish().unwrap();
        }
        // A varint that never terminates is rejected, not wrapped.
        let mut r = PayloadReader::new(&[0xff; 11]);
        assert!(r.varint().is_err());
    }

    #[test]
    fn finish_record_reencodes_byte_identically() {
        // One finish encoder serves every writer: decoding a finish frame and
        // encoding the record again must reproduce the frame byte for byte.
        let (bin_log, profile) = stream();
        let mut reader = BinaryFrameReader::new(&bin_log[..]);
        let mut finish_offset = 0;
        let mut finish_record = None;
        while let Some(record) = reader.next_record().unwrap() {
            if let LogRecord::Finish(record) = record {
                finish_record = Some(record);
                break;
            }
            finish_offset = reader.byte_offset() as usize;
        }
        let record = finish_record.expect("stream ends with a finish frame");
        let original = &bin_log[finish_offset..];
        let mut reencoded = Vec::new();
        write_finish_frame(&record, &mut reencoded).unwrap();
        assert_eq!(reencoded, original, "decode → encode must be the identity");
        assert_eq!(record.total_samples, profile.total_samples());
    }

    #[test]
    fn document_form_round_trips_via_write_profile() {
        let (_, profile) = stream();
        let sink = BinaryChunkedSink::new();
        let mut doc = Vec::new();
        sink.write_profile(&profile, &mut doc).unwrap();
        let parsed = sink.read_log_bytes(&doc).unwrap();
        assert_eq!(parsed.to_text(), profile.to_text());
        assert_eq!(sink.format_name(), "binary");
    }

    #[test]
    fn read_any_profile_bytes_detects_every_format() {
        use crate::sink::{JsonSink, TextSink};
        let (bin_log, profile) = stream();
        let sink = BinaryChunkedSink::new();
        assert_eq!(sink.read_log_bytes(&bin_log).unwrap().to_text(), profile.to_text());
        let mut doc = Vec::new();
        sink.write_profile(&profile, &mut doc).unwrap();
        assert_eq!(sink.read_log_bytes(&doc).unwrap().to_text(), profile.to_text());
        // Text and JSON are render-only: a render is recognized and refused, not
        // misread.
        let text = TextSink.write_to_string(&profile);
        let json = JsonSink::new().write_to_string(&profile);
        for input in [text.as_str(), json.as_str(), "  {}", "{"] {
            let err = sink.read_log_bytes(input.as_bytes()).unwrap_err();
            assert!(err.message.contains("render-only"), "{err}");
            assert_eq!(err.frame, 1);
        }
        assert!(sink.read_log_bytes(b"garbage").is_err());
        assert!(sink.read_log_bytes(&[0xff, 0xfe, 0x00]).is_err(), "non-UTF-8 non-magic");
        assert!(sink.read_log_bytes(&doc[..doc.len() - 1]).is_err(), "truncated binary log");
    }

    #[test]
    fn rejects_garbage_magic() {
        let (mut bin_log, _) = stream();
        bin_log[0] = b'X';
        let err = BinaryChunkedSink::new().read_log_bytes(&bin_log).unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
        // Mid-stream garbage is caught at the offending frame, with its offset.
        let (bin_log, _) = stream();
        let mut reader = BinaryFrameReader::new(bin_log.as_slice());
        reader.next_record().unwrap().unwrap();
        let tail_start = reader.byte_offset();
        let mut corrupted = bin_log.clone();
        corrupted[tail_start as usize] = 0x00;
        let mut reader = BinaryFrameReader::new(corrupted.as_slice());
        reader.next_record().unwrap().unwrap();
        let err = reader.next_record().unwrap_err();
        assert_eq!(err.frame, 2, "anchored to the frame number");
        assert!(err.message.contains(&format!("byte offset {tail_start}")), "{err}");
        assert!(err.message.contains("magic"), "{err}");
    }

    #[test]
    fn rejects_bad_checksum() {
        let (mut bin_log, _) = stream();
        // Flip one payload byte of the first frame; its checksum no longer matches.
        bin_log[HEADER_LEN] ^= 0x40;
        let err = BinaryChunkedSink::new().read_log_bytes(&bin_log).unwrap_err();
        assert_eq!(err.frame, 1);
        assert!(err.message.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejects_short_frames() {
        let (bin_log, _) = stream();
        // Truncation at every boundary class: mid-header, mid-payload, mid-checksum.
        for cut in [2, HEADER_LEN - 1, HEADER_LEN + 3, bin_log.len() - 2] {
            let err = BinaryChunkedSink::new().read_log_bytes(&bin_log[..cut]).unwrap_err();
            assert!(
                err.message.contains("truncated") || err.message.contains("finish"),
                "cut at {cut}: {err}"
            );
        }
        // A log cut exactly at a frame boundary parses but misses its finish frame.
        let mut reader = BinaryFrameReader::new(bin_log.as_slice());
        reader.next_record().unwrap().unwrap();
        let boundary = reader.byte_offset() as usize;
        let err = BinaryChunkedSink::new().read_log_bytes(&bin_log[..boundary]).unwrap_err();
        assert!(err.message.contains("no finish frame"), "{err}");
    }

    #[test]
    fn rejects_bad_version_and_kind() {
        let (bin_log, _) = stream();
        let mut bad_version = bin_log.clone();
        bad_version[4] = 9;
        let err = BinaryChunkedSink::new().read_log_bytes(&bad_version).unwrap_err();
        assert!(err.message.contains("version 9"), "{err}");
        let mut bad_kind = bin_log.clone();
        bad_kind[5] = 0x2a;
        let err = BinaryChunkedSink::new().read_log_bytes(&bad_kind).unwrap_err();
        assert!(err.message.contains("kind"), "{err}");
        // A well-formed control frame is still no epoch-log record.
        let err = BinaryChunkedSink::new()
            .read_log_bytes(&Control::StatusRequest.to_frame().unwrap())
            .unwrap_err();
        assert!(err.message.contains("status request control frame"), "{err}");
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        for len in [MAX_PAYLOAD_LEN as u32 + 1, u32::MAX] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&BINARY_MAGIC);
            frame.push(BINARY_VERSION);
            frame.push(KIND_DELTA);
            frame.extend_from_slice(&len.to_le_bytes());
            frame.extend_from_slice(&[0u8; 16]);
            let err = BinaryChunkedSink::new().read_log_bytes(&frame).unwrap_err();
            assert!(err.message.contains("cap"), "{err}");
            // The push driver rejects the header alone instead of waiting for
            // payload bytes a corrupt prefix promises.
            let mut tail = FrameTail::new();
            tail.push(&frame[..HEADER_LEN]);
            let err = tail.next_record().unwrap_err();
            assert!(err.message.contains("cap"), "{err}");
        }
        // A payload over the cap is refused by the writer instead of emitted as a
        // frame every reader rejects.
        let mut profile = ThreadProfile::new(ThreadId(1), "");
        profile.thread_name = "x".repeat(MAX_PAYLOAD_LEN);
        let delta = ProfileDelta { epoch: 1, threads: vec![ThreadDelta { seq: 0, profile }] };
        let mut out = Vec::new();
        let err = BinaryChunkedSink::new().on_delta(1, &delta, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing of the refused frame was written");
    }
}
