//! Streaming profile-export backends.
//!
//! A [`ProfileSink`] turns an [`ObjectCentricProfile`] into bytes on any `io::Write`
//! (files, sockets, in-memory buffers) and parses them back, so the offline analyzer
//! and cross-machine merging (§5.2 of the paper) are independent of the on-disk format.
//! Three backends ship:
//!
//! * [`TextSink`] — the original line-oriented profile-file codec
//!   ([`ObjectCentricProfile::to_text`]/[`parse`](ObjectCentricProfile::parse)), moved
//!   behind the trait with its round-trip guarantees intact;
//! * [`JsonSink`] — a machine-readable JSON document for dashboards and external
//!   tooling, hand-rolled (writer *and* parser) because this build is offline;
//! * [`BinaryChunkedSink`] — the replayable binary
//!   epoch log, the one epoch-stream format (see [`crate::wire`]).
//!
//! Every backend is lossless: reading back what a sink wrote reproduces the
//! original sites, per-thread metrics, access contexts and allocation statistics, which
//! the codec property tests check for arbitrary multi-thread profiles.
//! [`Session::stream_snapshot`](crate::session::Session::stream_snapshot) streams a
//! live session through any sink mid-run; [`read_any_profile`] reads whatever a
//! built-in sink wrote.

use std::io::{self, Write};

use djx_runtime::{Frame, MethodId, ThreadId};

use crate::metrics::MetricVector;
use crate::object::{AllocSite, AllocSiteId};
use crate::profile::{
    event_from_name, thread_to_text, AllocationRow, AllocationStats, DeltaFold,
    ObjectCentricProfile, ProfileDelta, ProfileParseError, ThreadProfile,
};
use crate::wire::{BinaryChunkedSink, BINARY_MAGIC};

/// A serialization backend for object-centric profiles.
///
/// Beyond whole-profile documents ([`ProfileSink::write_profile`] /
/// [`ProfileSink::read_profile`]), a sink can opt into **incremental delta
/// streaming**: the asynchronous export pipeline ([`crate::export`]) calls
/// [`ProfileSink::on_delta`] for every retired epoch and [`ProfileSink::on_finish`]
/// once at the end of the stream. The default `on_delta` reports
/// [`io::ErrorKind::Unsupported`]; all built-in sinks override it, and
/// [`BinaryChunkedSink`] additionally makes its delta
/// stream *replayable* — folding the emitted epoch log reproduces the terminal
/// profile byte-identically.
pub trait ProfileSink: Send + Sync {
    /// Short format name (`"text"`, `"json"`), used for diagnostics and file naming.
    fn format_name(&self) -> &'static str;

    /// Streams `profile` into `out`.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()>;

    /// Parses a profile previously written by this sink.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileParseError`] for malformed input.
    fn read_profile(&self, input: &str) -> Result<ObjectCentricProfile, ProfileParseError>;

    /// Streams one retired epoch delta. Called by the export drainer in strictly
    /// increasing epoch order; `epoch` equals `delta.epoch`.
    ///
    /// # Errors
    ///
    /// The default implementation reports [`io::ErrorKind::Unsupported`] — a sink
    /// must opt into delta streaming. Implementations propagate write errors.
    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, out: &mut dyn Write) -> io::Result<()> {
        let _ = (epoch, delta, out);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("the {} sink does not support delta streaming", self.format_name()),
        ))
    }

    /// Ends a delta stream with the terminal whole profile (every streamed delta plus
    /// the allocation counters, assembled by the session). The default writes the
    /// profile as a regular document via [`ProfileSink::write_profile`].
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    fn on_finish(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        self.write_profile(profile, out)
    }

    /// Convenience: renders the profile to an in-memory string.
    fn write_to_string(&self, profile: &ObjectCentricProfile) -> String {
        let mut out = Vec::new();
        self.write_profile(profile, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("sinks produce UTF-8")
    }
}

/// The line-oriented text backend (the paper's "profile files").
///
/// Delta streaming is supported as a human-readable log: every
/// [`ProfileSink::on_delta`] emits a `delta epoch=…` header followed by the standard
/// per-thread blocks, and [`ProfileSink::on_finish`] appends the full profile.
/// The combined stream is a log for humans and tail-based tooling, **not** a parseable
/// profile file — use [`BinaryChunkedSink`] when
/// the stream must be replayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextSink;

impl ProfileSink for TextSink {
    fn format_name(&self) -> &'static str {
        "text"
    }

    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(profile.to_text().as_bytes())
    }

    fn read_profile(&self, input: &str) -> Result<ObjectCentricProfile, ProfileParseError> {
        ObjectCentricProfile::parse(input)
    }

    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, out: &mut dyn Write) -> io::Result<()> {
        let mut block = format!(
            "delta epoch={} threads={} samples={}\n",
            epoch,
            delta.threads.len(),
            delta.total_samples()
        );
        for td in &delta.threads {
            thread_to_text(&td.profile, &mut block);
        }
        out.write_all(block.as_bytes())
    }
}

/// The machine-readable JSON backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonSink;

impl JsonSink {
    /// Creates the sink.
    pub fn new() -> Self {
        Self
    }
}

/// Current version of the JSON document layout.
const JSON_VERSION: u64 = 1;

impl ProfileSink for JsonSink {
    fn format_name(&self) -> &'static str {
        "json"
    }

    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        // Streamed element by element: threads and sites are written as they are
        // visited, never buffered into one document string.
        write!(
            out,
            "{{\"format\":\"djxperf-profile\",\"version\":{JSON_VERSION},\"event\":{},\"period\":{},\"size_filter\":{}",
            json_string(profile.event.hardware_name()),
            profile.period,
            profile.size_filter
        )?;
        out.write_all(b",\"allocation_stats\":")?;
        write_alloc_stats_json(&profile.allocation_stats, out)?;
        out.write_all(b",\"sites\":")?;
        write_sites_json(&profile.sites, out)?;
        out.write_all(b",\"threads\":[")?;
        for (i, thread) in profile.threads.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_thread_json(thread, None, out)?;
        }
        out.write_all(b"]}")?;
        Ok(())
    }

    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, out: &mut dyn Write) -> io::Result<()> {
        // One NDJSON line per delta; the terminal flush appends the usual whole-profile
        // document on its own line. The combined stream is a dashboard/log feed — the
        // replayable format is `BinaryChunkedSink`.
        write!(
            out,
            "{{\"delta\":{{\"epoch\":{},\"samples\":{},\"threads\":[",
            epoch,
            delta.total_samples()
        )?;
        for (i, td) in delta.threads.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_thread_json(&td.profile, Some(td.seq), out)?;
        }
        out.write_all(b"]}}\n")
    }

    fn on_finish(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        self.write_profile(profile, out)?;
        out.write_all(b"\n")
    }

    fn read_profile(&self, input: &str) -> Result<ObjectCentricProfile, ProfileParseError> {
        let root = JsonParser::new(input).parse_document()?;
        let doc = Reader::new(input);

        let top = doc.object(&root, 0)?;
        let format = doc.string(top.required("format", 0)?, 0)?;
        if format != "djxperf-profile" {
            return Err(doc.error(0, format!("unexpected format {format:?}")));
        }
        let version = doc.integer(top.required("version", 0)?, 0)?;
        if version != JSON_VERSION {
            return Err(doc.error(0, format!("unsupported version {version}")));
        }

        let event_value = top.required("event", 0)?;
        let event_name = doc.string(event_value, 0)?;
        let event = event_from_name(&event_name)
            .map_err(|e| doc.error(event_value.start, e.to_string()))?;

        let stats_value = top.required("allocation_stats", 0)?;
        let allocation_stats = read_alloc_stats_json(&doc, stats_value)?;

        let sites = read_sites_json(&doc, top.required("sites", 0)?)?;

        let mut threads = Vec::new();
        for thread_value in doc.array(top.required("threads", 0)?, 0)? {
            threads.push(read_thread_json(&doc, thread_value)?);
        }

        Ok(ObjectCentricProfile {
            event,
            period: doc.integer(top.required("period", 0)?, 0)?,
            size_filter: doc.integer(top.required("size_filter", 0)?, 0)?,
            sites,
            threads,
            allocation_stats,
        })
    }
}

// ---------------------------------------------------------------------------------------
// Epoch-log records: what every binary frame decodes to
// ---------------------------------------------------------------------------------------

/// The decoded payload of an epoch log's terminal `finish` frame: run configuration,
/// the site table, the per-(thread, site) allocation rows and the total-sample
/// checksum — everything [`DeltaFold::assemble`] needs beyond the folded deltas.
#[derive(Debug, Clone)]
pub struct FinishRecord {
    /// The sampled PMU event.
    pub event: djx_pmu::PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// Size filter S in bytes.
    pub size_filter: u64,
    /// Interned allocation sites of the finished run.
    pub sites: Vec<AllocSite>,
    /// Terminal per-(thread, site) allocation rows (empty for whole-profile
    /// documents, whose threads inline their allocation metrics).
    pub allocs: Vec<AllocationRow>,
    /// Allocation-agent counters.
    pub allocation_stats: AllocationStats,
    /// Total PMU samples the producer streamed — the end-to-end loss check.
    pub total_samples: u64,
}

impl FinishRecord {
    /// The finish record closing a stream whose terminal profile is `profile`.
    /// With `include_allocs` it carries the per-(thread, site) allocation rows —
    /// threads in profile order, site ids ascending, rows with any allocation
    /// counter — which streamed deltas never carry (the collector records samples
    /// only; allocations are folded in at assembly). A whole-profile document
    /// inlines its threads complete with allocation metrics instead, so its finish
    /// record carries no rows.
    pub(crate) fn of_profile(profile: &ObjectCentricProfile, include_allocs: bool) -> FinishRecord {
        let mut allocs = Vec::new();
        let threads = if include_allocs { &profile.threads[..] } else { &[] };
        for thread in threads {
            let mut site_ids: Vec<_> = thread.sites.keys().copied().collect();
            site_ids.sort_unstable();
            for sid in site_ids {
                let m = &thread.sites[&sid].total;
                if m.allocations > 0 || m.allocated_bytes > 0 {
                    allocs.push((thread.thread, sid, m.allocations, m.allocated_bytes));
                }
            }
        }
        FinishRecord {
            event: profile.event,
            period: profile.period,
            size_filter: profile.size_filter,
            sites: profile.sites.clone(),
            allocs,
            allocation_stats: profile.allocation_stats,
            total_samples: profile.total_samples(),
        }
    }

    /// Closes a fold with this record: verifies the total-sample checksum against
    /// what was actually folded, then assembles the complete profile the way the
    /// live session would have.
    ///
    /// # Errors
    ///
    /// [`FoldError::ChecksumMismatch`](crate::profile::FoldError) when deltas were
    /// lost or duplicated between the producer and the fold.
    pub fn assemble(
        self,
        fold: DeltaFold,
    ) -> Result<ObjectCentricProfile, crate::profile::FoldError> {
        fold.verify_checksum(self.total_samples)?;
        Ok(fold.assemble(
            self.event,
            self.period,
            self.size_filter,
            self.sites,
            self.allocs,
            self.allocation_stats,
        ))
    }

    /// Closes a fold that is **known** to be missing deltas: assembles without the
    /// total-sample checksum. For streams where loss was chosen and accounted for —
    /// a fleet producer running the
    /// [`DropOldestEpochsFlaggedLossy`](crate::fleet::OverflowPolicy) overflow
    /// policy declares its dropped epochs, the aggregator flags the producer
    /// truncated, and this assembles what survived. Everywhere else use
    /// [`FinishRecord::assemble`], which refuses silent gaps.
    pub fn assemble_lossy(self, fold: DeltaFold) -> ObjectCentricProfile {
        fold.assemble(
            self.event,
            self.period,
            self.size_filter,
            self.sites,
            self.allocs,
            self.allocation_stats,
        )
    }
}

/// One decoded epoch-log frame: a streamed delta or the terminal finish record.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// One streamed epoch delta.
    Delta(ProfileDelta),
    /// The terminal record closing the stream.
    Finish(FinishRecord),
}

// ---------------------------------------------------------------------------------------
// JSON writing helpers
// ---------------------------------------------------------------------------------------

/// Escapes a string into a JSON string literal. Shared with the query layer's
/// [`QueryResult::to_json`](crate::query::QueryResult::to_json) so every JSON this
/// crate emits goes through one escaping rule.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encodes a call path as a flat array of `[method, bci]` pairs (shared with the
/// query layer's JSON rendering).
pub(crate) fn json_path(path: &[Frame]) -> String {
    let mut out = String::from("[");
    for (i, frame) in path.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{}]", frame.method.0, frame.bci));
    }
    out.push(']');
    out
}

/// Encodes a metric vector as a JSON object (shared with the query layer's JSON
/// rendering).
pub(crate) fn json_metrics(m: &MetricVector) -> String {
    format!(
        "{{\"samples\":{},\"weighted\":{},\"latency\":{},\"local\":{},\"remote\":{},\"loads\":{},\"stores\":{},\"allocs\":{},\"bytes\":{}}}",
        m.samples,
        m.weighted_events,
        m.latency_cycles,
        m.local_samples,
        m.remote_samples,
        m.load_samples,
        m.store_samples,
        m.allocations,
        m.allocated_bytes
    )
}

/// Writes the allocation-stats object of the whole-profile document.
fn write_alloc_stats_json(s: &AllocationStats, out: &mut dyn Write) -> io::Result<()> {
    write!(
        out,
        "{{\"callbacks\":{},\"monitored\":{},\"filtered\":{},\"relocations\":{},\"unknown_moves\":{},\"reclamations\":{}}}",
        s.callbacks, s.monitored, s.filtered, s.relocations, s.unknown_moves, s.reclamations
    )
}

/// Writes the site-table array of the whole-profile document.
fn write_sites_json(sites: &[AllocSite], out: &mut dyn Write) -> io::Result<()> {
    out.write_all(b"[")?;
    for (i, site) in sites.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "{{\"id\":{},\"class\":{},\"path\":{}}}",
            site.id.0,
            json_string(&site.class_name),
            json_path(&site.call_path)
        )?;
    }
    out.write_all(b"]")
}

/// Writes one thread's profile object — the shape shared by the whole-profile
/// document's `threads` array and the per-delta thread fragments (which additionally
/// carry the thread's first-seen `seq`).
fn write_thread_json(
    thread: &ThreadProfile,
    seq: Option<u64>,
    out: &mut dyn Write,
) -> io::Result<()> {
    out.write_all(b"{")?;
    if let Some(seq) = seq {
        write!(out, "\"seq\":{seq},")?;
    }
    write!(
        out,
        "\"id\":{},\"name\":{},\"samples\":{},\"unattributed\":{}",
        thread.thread.0,
        json_string(&thread.thread_name),
        thread.samples,
        json_metrics(&thread.unattributed)
    )?;
    out.write_all(b",\"objects\":[")?;
    let mut site_ids: Vec<_> = thread.sites.keys().copied().collect();
    site_ids.sort_unstable();
    for (j, sid) in site_ids.iter().enumerate() {
        if j > 0 {
            out.write_all(b",")?;
        }
        let sm = &thread.sites[sid];
        write!(out, "{{\"site\":{},\"total\":{}", sid.0, json_metrics(&sm.total))?;
        out.write_all(b",\"accesses\":[")?;
        // Canonical context order (by encoded path), matching the text codec.
        let mut contexts: Vec<(String, Vec<Frame>, &MetricVector)> = sm
            .by_context
            .iter()
            .map(|(ctx, m)| {
                let path = thread.cct.path_of(*ctx);
                (json_path(&path), path, m)
            })
            .collect();
        contexts.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, (encoded, _, metrics)) in contexts.iter().enumerate() {
            if k > 0 {
                out.write_all(b",")?;
            }
            write!(out, "{{\"path\":{},\"metrics\":{}}}", encoded, json_metrics(metrics))?;
        }
        out.write_all(b"]}")?;
    }
    out.write_all(b"]}")?;
    Ok(())
}

/// Reads the allocation-stats object written by [`write_alloc_stats_json`].
fn read_alloc_stats_json(
    doc: &Reader<'_>,
    value: &JsonValue,
) -> Result<AllocationStats, ProfileParseError> {
    let stats = doc.object(value, value.start)?;
    let stat = |key: &str| -> Result<u64, ProfileParseError> {
        doc.integer(stats.required(key, value.start)?, value.start)
    };
    Ok(AllocationStats {
        callbacks: stat("callbacks")?,
        monitored: stat("monitored")?,
        filtered: stat("filtered")?,
        relocations: stat("relocations")?,
        unknown_moves: stat("unknown_moves")?,
        reclamations: stat("reclamations")?,
    })
}

/// Reads the site-table array written by [`write_sites_json`].
fn read_sites_json(
    doc: &Reader<'_>,
    value: &JsonValue,
) -> Result<Vec<AllocSite>, ProfileParseError> {
    let mut sites = Vec::new();
    for site_value in doc.array(value, value.start)? {
        let site = doc.object(site_value, site_value.start)?;
        let at = site_value.start;
        let id = doc.integer_u32(site.required("id", at)?, at)?;
        if id as usize != sites.len() {
            return Err(doc.error(at, "site ids must be dense and ascending".to_string()));
        }
        sites.push(AllocSite {
            id: AllocSiteId(id),
            class_name: doc.string(site.required("class", at)?, at)?,
            call_path: doc.path(site.required("path", at)?, at)?,
        });
    }
    Ok(sites)
}

/// Reads one thread's profile object written by [`write_thread_json`].
fn read_thread_json(
    doc: &Reader<'_>,
    thread_value: &JsonValue,
) -> Result<ThreadProfile, ProfileParseError> {
    let at = thread_value.start;
    let thread = doc.object(thread_value, at)?;
    let mut profile = ThreadProfile::new(
        ThreadId(doc.integer(thread.required("id", at)?, at)?),
        &doc.string(thread.required("name", at)?, at)?,
    );
    profile.samples = doc.integer(thread.required("samples", at)?, at)?;
    profile.unattributed = doc.metrics(thread.required("unattributed", at)?, at)?;
    for object_value in doc.array(thread.required("objects", at)?, at)? {
        let oat = object_value.start;
        let object = doc.object(object_value, oat)?;
        let site = AllocSiteId(doc.integer_u32(object.required("site", oat)?, oat)?);
        let entry = profile.sites.entry(site).or_default();
        entry.total = doc.metrics(object.required("total", oat)?, oat)?;
        for access_value in doc.array(object.required("accesses", oat)?, oat)? {
            let aat = access_value.start;
            let access = doc.object(access_value, aat)?;
            let path = doc.path(access.required("path", aat)?, aat)?;
            let metrics = doc.metrics(access.required("metrics", aat)?, aat)?;
            let ctx = profile.cct.insert_path(&path);
            profile
                .sites
                .get_mut(&site)
                .expect("entry inserted above")
                .by_context
                .insert(ctx, metrics);
        }
    }
    Ok(profile)
}

// ---------------------------------------------------------------------------------------
// JSON parsing (recursive descent over a byte cursor; values keep source offsets so
// errors report the right line)
// ---------------------------------------------------------------------------------------

/// One parsed JSON value, tagged with its start offset for error reporting.
#[derive(Debug, Clone)]
pub(crate) struct JsonValue {
    pub(crate) start: usize,
    kind: JsonKind,
}

#[derive(Debug, Clone)]
enum JsonKind {
    Integer(u64),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
    /// Accepted by the grammar for JSON completeness; profiles never contain them, so
    /// the typed readers reject them.
    Bool(bool),
    Null,
}

pub(crate) struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    input: &'a str,
}

impl<'a> JsonParser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Self { bytes: input.as_bytes(), pos: 0, input }
    }

    fn error(&self, at: usize, message: impl Into<String>) -> ProfileParseError {
        ProfileParseError { line: line_of(self.input, at), message: message.into() }
    }

    pub(crate) fn parse_document(&mut self) -> Result<JsonValue, ProfileParseError> {
        let value = self.parse_value()?;
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(self.error(self.pos, "trailing characters after JSON document"));
        }
        Ok(value)
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ProfileParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(self.pos, format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ProfileParseError> {
        self.skip_whitespace();
        let start = self.pos;
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(JsonValue { start, kind: JsonKind::String(s) })
            }
            Some(b't') | Some(b'f') => self.parse_keyword(),
            Some(b'n') => self.parse_keyword(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error(start, "expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self) -> Result<JsonValue, ProfileParseError> {
        let start = self.pos;
        for (literal, kind) in [
            ("true", JsonKind::Bool(true)),
            ("false", JsonKind::Bool(false)),
            ("null", JsonKind::Null),
        ] {
            if self.input[self.pos..].starts_with(literal) {
                self.pos += literal.len();
                return Ok(JsonValue { start, kind });
            }
        }
        Err(self.error(start, "unknown JSON keyword"))
    }

    fn parse_number(&mut self) -> Result<JsonValue, ProfileParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            return Err(self.error(start, "negative numbers do not appear in profiles"));
        }
        let mut end = self.pos;
        while end < self.bytes.len() && self.bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end == self.pos {
            return Err(self.error(start, "expected digits"));
        }
        if end < self.bytes.len() && matches!(self.bytes[end], b'.' | b'e' | b'E') {
            return Err(self.error(start, "profile numbers are integers"));
        }
        let value: u64 = self.input[self.pos..end]
            .parse()
            .map_err(|_| self.error(start, "integer out of range"))?;
        self.pos = end;
        Ok(JsonValue { start, kind: JsonKind::Integer(value) })
    }

    fn parse_string(&mut self) -> Result<String, ProfileParseError> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error(start, "unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error(self.pos, "dangling escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error(self.pos, "invalid surrogate pair"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(
                                c.ok_or_else(|| self.error(self.pos, "invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(
                                self.error(self.pos, format!("unknown escape \\{}", other as char))
                            );
                        }
                    }
                }
                _ => {
                    // Re-read as UTF-8: back up to the byte and take one char.
                    self.pos -= 1;
                    let c = self.input[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.error(self.pos, "invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ProfileParseError> {
        let start = self.pos;
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error(start, "truncated unicode escape"));
        }
        let hex = &self.input[self.pos..self.pos + 4];
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error(start, "bad unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<JsonValue, ProfileParseError> {
        let start = self.pos;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue { start, kind: JsonKind::Array(items) });
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue { start, kind: JsonKind::Array(items) });
                }
                _ => return Err(self.error(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, ProfileParseError> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue { start, kind: JsonKind::Object(fields) });
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue { start, kind: JsonKind::Object(fields) });
                }
                _ => return Err(self.error(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

/// 1-based line number of a byte offset.
fn line_of(input: &str, at: usize) -> usize {
    input.as_bytes()[..at.min(input.len())].iter().filter(|b| **b == b'\n').count() + 1
}

/// Borrowed view over a parsed object's fields.
pub(crate) struct JsonObject<'a> {
    fields: &'a [(String, JsonValue)],
    input: &'a str,
}

impl<'a> JsonObject<'a> {
    pub(crate) fn optional(&self, key: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn required(
        &self,
        key: &str,
        at: usize,
    ) -> Result<&'a JsonValue, ProfileParseError> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or_else(|| {
            ProfileParseError {
                line: line_of(self.input, at),
                message: format!("missing field {key:?}"),
            }
        })
    }
}

/// Typed extraction helpers over parsed values.
pub(crate) struct Reader<'a> {
    input: &'a str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Self { input }
    }

    pub(crate) fn error(&self, at: usize, message: String) -> ProfileParseError {
        ProfileParseError { line: line_of(self.input, at), message }
    }

    pub(crate) fn object(
        &self,
        value: &'a JsonValue,
        at: usize,
    ) -> Result<JsonObject<'a>, ProfileParseError> {
        match &value.kind {
            JsonKind::Object(fields) => Ok(JsonObject { fields, input: self.input }),
            _ => Err(self.error(at.max(value.start), "expected an object".to_string())),
        }
    }

    pub(crate) fn array(
        &self,
        value: &'a JsonValue,
        at: usize,
    ) -> Result<&'a [JsonValue], ProfileParseError> {
        match &value.kind {
            JsonKind::Array(items) => Ok(items),
            _ => Err(self.error(at.max(value.start), "expected an array".to_string())),
        }
    }

    pub(crate) fn integer(&self, value: &JsonValue, at: usize) -> Result<u64, ProfileParseError> {
        match value.kind {
            JsonKind::Integer(v) => Ok(v),
            _ => Err(self.error(at.max(value.start), "expected an integer".to_string())),
        }
    }

    /// An integer that must fit in `u32` (site ids, method ids, BCIs). Out-of-range
    /// values are parse errors, never silent wraps into a different identity.
    pub(crate) fn integer_u32(
        &self,
        value: &JsonValue,
        at: usize,
    ) -> Result<u32, ProfileParseError> {
        let v = self.integer(value, at)?;
        u32::try_from(v)
            .map_err(|_| self.error(at.max(value.start), format!("integer {v} exceeds u32 range")))
    }

    pub(crate) fn string(&self, value: &JsonValue, at: usize) -> Result<String, ProfileParseError> {
        match &value.kind {
            JsonKind::String(s) => Ok(s.clone()),
            _ => Err(self.error(at.max(value.start), "expected a string".to_string())),
        }
    }

    /// Booleans appear in the fleet wire records only ([`crate::fleet`]), never in
    /// profile documents.
    pub(crate) fn boolean(&self, value: &JsonValue, at: usize) -> Result<bool, ProfileParseError> {
        match &value.kind {
            JsonKind::Bool(b) => Ok(*b),
            _ => Err(self.error(at.max(value.start), "expected a boolean".to_string())),
        }
    }

    fn path(&self, value: &'a JsonValue, at: usize) -> Result<Vec<Frame>, ProfileParseError> {
        let frames = self.array(value, at)?;
        frames
            .iter()
            .map(|frame| {
                let pair = self.array(frame, frame.start)?;
                if pair.len() != 2 {
                    return Err(
                        self.error(frame.start, "a frame is a [method, bci] pair".to_string())
                    );
                }
                Ok(Frame::new(
                    MethodId(self.integer_u32(&pair[0], frame.start)?),
                    self.integer_u32(&pair[1], frame.start)?,
                ))
            })
            .collect()
    }

    fn metrics(&self, value: &'a JsonValue, at: usize) -> Result<MetricVector, ProfileParseError> {
        let object = self.object(value, at)?;
        let field = |key: &str| -> Result<u64, ProfileParseError> {
            self.integer(object.required(key, value.start)?, value.start)
        };
        Ok(MetricVector {
            samples: field("samples")?,
            weighted_events: field("weighted")?,
            latency_cycles: field("latency")?,
            local_samples: field("local")?,
            remote_samples: field("remote")?,
            load_samples: field("loads")?,
            store_samples: field("stores")?,
            allocations: field("allocs")?,
            allocated_bytes: field("bytes")?,
        })
    }
}

/// Parses profile bytes written by any of the built-in sinks, detecting the format
/// from the first bytes: the binary magic → a [`BinaryChunkedSink`] epoch log
/// (folded and checksum-verified), `{` → a [`JsonSink`] document, anything else →
/// a [`TextSink`] profile. The offline analyzer uses this so a directory of streamed
/// logs, JSON snapshots and text profiles merges transparently.
///
/// # Errors
///
/// Returns [`ProfileParseError`] for malformed input of any format.
pub fn read_any_profile(input: &[u8]) -> Result<ObjectCentricProfile, ProfileParseError> {
    if input.starts_with(&BINARY_MAGIC) {
        return BinaryChunkedSink::new().read_log_bytes(input);
    }
    let text = std::str::from_utf8(input).map_err(|e| ProfileParseError {
        line: 1,
        message: format!("input is neither a binary epoch log nor UTF-8 text: {e}"),
    })?;
    if text.trim_start().starts_with('{') {
        JsonSink::new().read_profile(text)
    } else {
        TextSink.read_profile(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{AccessKind, NumaNode};
    use djx_pmu::PmuEvent;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    fn sample(addr: u64, remote: bool) -> djx_pmu::Sample {
        djx_pmu::Sample {
            event: PmuEvent::L1Miss,
            thread_id: 1,
            cpu: 0,
            cpu_node: NumaNode(0),
            page_node: NumaNode(u32::from(remote)),
            effective_addr: addr,
            kind: AccessKind::Load,
            value: 1,
            latency: 100,
            counter_value: 1,
        }
    }

    fn build_profile() -> ObjectCentricProfile {
        let sites = vec![
            AllocSite {
                id: AllocSiteId(0),
                class_name: "float[] \"quoted\" \\slash".into(),
                call_path: vec![f(1, 5), f(2, 3)],
            },
            AllocSite { id: AllocSiteId(1), class_name: "Top Doc".into(), call_path: vec![] },
        ];
        let mut t1 = ThreadProfile::new(ThreadId(1), "main");
        t1.record_allocation(AllocSiteId(0), 4096);
        t1.record_attributed(AllocSiteId(0), &[f(1, 5), f(4, 9)], &sample(0x1000, false), 100);
        t1.record_attributed(AllocSiteId(0), &[f(1, 5), f(5, 2)], &sample(0x1040, true), 100);
        t1.record_attributed(AllocSiteId(1), &[], &sample(0x2000, false), 100);
        t1.record_unattributed(&sample(0x9000, false), 100);
        let mut t2 = ThreadProfile::new(ThreadId(2), "worker 1");
        t2.record_attributed(AllocSiteId(1), &[f(3, 0), f(6, 6)], &sample(0x2010, true), 100);
        ObjectCentricProfile {
            event: PmuEvent::L1Miss,
            period: 100,
            size_filter: 1024,
            sites,
            threads: vec![t1, t2],
            allocation_stats: AllocationStats {
                callbacks: 10,
                monitored: 2,
                filtered: 8,
                relocations: 1,
                unknown_moves: 0,
                reclamations: 1,
            },
        }
    }

    #[test]
    fn text_sink_matches_the_legacy_codec() {
        let profile = build_profile();
        let text = TextSink.write_to_string(&profile);
        assert_eq!(text, profile.to_text());
        let parsed = TextSink.read_profile(&text).unwrap();
        assert_eq!(parsed.to_text(), profile.to_text());
        assert_eq!(TextSink.format_name(), "text");
    }

    #[test]
    fn json_sink_round_trips_structure_and_metrics() {
        let profile = build_profile();
        let json = JsonSink::new().write_to_string(&profile);
        assert!(json.starts_with("{\"format\":\"djxperf-profile\""));
        let parsed = JsonSink::new().read_profile(&json).unwrap();
        assert_eq!(parsed.event, profile.event);
        assert_eq!(parsed.period, profile.period);
        assert_eq!(parsed.size_filter, profile.size_filter);
        assert_eq!(parsed.allocation_stats, profile.allocation_stats);
        assert_eq!(parsed.sites, profile.sites);
        assert_eq!(parsed.to_text(), profile.to_text(), "canonical text form is identical");
        // Re-serialization is a fixed point.
        assert_eq!(JsonSink::new().write_to_string(&parsed), json);
        assert_eq!(JsonSink::new().format_name(), "json");
    }

    #[test]
    fn json_string_escaping_round_trips() {
        for name in ["plain", "with \"quotes\"", "back\\slash", "tab\tnewline\n", "unicode λ✓"] {
            let literal = json_string(name);
            let mut parser = JsonParser::new(&literal);
            let parsed = parser.parse_string().unwrap();
            assert_eq!(parsed, name);
        }
        // Explicit \u escapes, including a surrogate pair.
        let mut parser = JsonParser::new("\"a\\u0041\\ud83d\\ude00\"");
        assert_eq!(parser.parse_string().unwrap(), "aA😀");
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        let sink = JsonSink::new();
        assert!(sink.read_profile("").is_err());
        assert!(sink.read_profile("not json").is_err());
        assert!(sink.read_profile("{\"format\":\"something-else\",\"version\":1}").is_err());
        assert!(sink.read_profile("{\"format\":\"djxperf-profile\",\"version\":99}").is_err());
        assert!(sink.read_profile("{\"format\":\"djxperf-profile\"").is_err(), "truncated");
        let trailing = "{} extra";
        assert!(sink.read_profile(trailing).is_err());
        // Site ids beyond u32 must be parse errors, not wraps into another identity.
        let wrapped = JsonSink::new()
            .write_to_string(&build_profile())
            .replace("\"id\":0", "\"id\":4294967296");
        let err = sink.read_profile(&wrapped).unwrap_err();
        assert!(err.message.contains("u32"), "{err}");
        // Unknown event names are parse errors, not silent L1-miss fallbacks.
        let bad_event = JsonSink::new()
            .write_to_string(&build_profile())
            .replace("MEM_LOAD_UOPS_RETIRED:L1_MISS", "NOT_AN_EVENT");
        let err = sink.read_profile(&bad_event).unwrap_err();
        assert!(err.message.contains("NOT_AN_EVENT"), "{err}");
    }

    #[test]
    fn json_errors_carry_line_numbers() {
        let err = JsonSink::new().read_profile("{\n\"format\": 3\n}").unwrap_err();
        assert!(err.line >= 1);
        assert!(err.to_string().contains("line"));
    }

    #[test]
    fn read_any_profile_detects_the_format() {
        let profile = build_profile();
        let text = TextSink.write_to_string(&profile);
        let json = JsonSink::new().write_to_string(&profile);
        let mut log = Vec::new();
        BinaryChunkedSink::new().write_profile(&profile, &mut log).unwrap();
        for input in [text.as_bytes(), json.as_bytes(), &log] {
            assert_eq!(read_any_profile(input).unwrap().to_text(), profile.to_text());
        }
        assert!(read_any_profile(b"garbage").is_err());
        assert!(read_any_profile(&[0xff, 0xfe, 0x00]).is_err(), "non-UTF-8 non-magic");
        assert!(read_any_profile(&log[..log.len() - 1]).is_err(), "truncated binary log");
    }

    #[test]
    fn empty_profile_round_trips() {
        let profile = ObjectCentricProfile {
            event: PmuEvent::RemoteDram,
            period: 5_000_000,
            size_filter: 0,
            sites: vec![],
            threads: vec![],
            allocation_stats: AllocationStats::default(),
        };
        for sink in [&TextSink as &dyn ProfileSink, &JsonSink::new()] {
            let out = sink.write_to_string(&profile);
            let parsed = sink.read_profile(&out).unwrap();
            assert_eq!(parsed.to_text(), profile.to_text());
            assert_eq!(parsed.event, PmuEvent::RemoteDram);
        }
    }
}
