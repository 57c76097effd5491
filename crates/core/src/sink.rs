//! Profile export backends.
//!
//! A [`ProfileSink`] turns an [`ObjectCentricProfile`] into bytes on any `io::Write`
//! (files, sockets, in-memory buffers), so the offline analyzer and cross-machine
//! merging (§5.2 of the paper) are independent of the on-disk format. Three backends
//! ship:
//!
//! * [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) — the replayable binary
//!   epoch log, the one format the profiler reads back (see [`crate::wire`]);
//! * [`TextSink`] — the line-oriented profile file
//!   ([`ObjectCentricProfile::to_text`]) for humans;
//! * [`JsonSink`] — a machine-readable JSON document for dashboards and external
//!   tooling.
//!
//! Text and JSON are **render-only**: whole-profile documents that nothing parses
//! back, and neither streams deltas. One function turns bytes into a profile:
//! [`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes),
//! which refuses a text or JSON render with an error saying so.
//! [`Session::stream_snapshot`](crate::session::Session::stream_snapshot) streams a
//! live session through any sink mid-run.

use std::io::{self, Write};

use djx_runtime::Frame;

use crate::metrics::MetricVector;
use crate::object::AllocSite;
use crate::profile::{
    AllocationRow, AllocationStats, DeltaFold, ObjectCentricProfile, ProfileDelta, ThreadProfile,
};

/// A serialization backend for object-centric profiles.
///
/// Beyond whole-profile documents ([`ProfileSink::write_profile`]), a sink can opt
/// into **incremental delta streaming**: the asynchronous export pipeline
/// ([`crate::export`]) calls
/// [`ProfileSink::on_delta`] for every retired epoch and [`ProfileSink::on_finish`]
/// once at the end of the stream. The default `on_delta` reports
/// [`io::ErrorKind::Unsupported`]; only
/// [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) and
/// [`FleetSink`](crate::fleet::FleetSink) override it. Their delta stream is
/// *replayable*: folding the emitted epoch log reproduces the terminal profile
/// byte-identically.
pub trait ProfileSink: Send + Sync {
    /// Short format name (`"text"`, `"json"`), used for diagnostics and file naming.
    fn format_name(&self) -> &'static str;

    /// Streams `profile` into `out`.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()>;

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

/// The line-oriented text backend (the paper's "profile files"): a render-only
/// whole-profile document. It does not stream deltas; stream a
/// [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) log when the run must be
/// replayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextSink;

impl ProfileSink for TextSink {
    fn format_name(&self) -> &'static str {
        "text"
    }

    fn write_profile(&self, profile: &ObjectCentricProfile, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(profile.to_text().as_bytes())
    }
}

/// The machine-readable JSON backend: a render-only whole-profile document that
/// does not stream deltas.
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
            write_thread_json(thread, out)?;
        }
        out.write_all(b"]}")?;
        Ok(())
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

/// Writes one element of the whole-profile document's `threads` array.
fn write_thread_json(thread: &ThreadProfile, out: &mut dyn Write) -> io::Result<()> {
    write!(
        out,
        "{{\"id\":{},\"name\":{},\"samples\":{},\"unattributed\":{}",
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
        // Canonical context order (by encoded path), matching the text rendering.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AllocSiteId;
    use crate::wire::BinaryChunkedSink;
    use djx_memsim::{AccessKind, NumaNode};
    use djx_pmu::PmuEvent;
    use djx_runtime::{MethodId, ThreadId};

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
        let mut t2 = ThreadProfile::new(ThreadId(2), "worker\t1");
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
                unknown_moves: 3,
                reclamations: 1,
            },
        }
    }

    #[test]
    fn text_sink_matches_the_legacy_codec() {
        let profile = build_profile();
        let text = TextSink.write_to_string(&profile);
        assert_eq!(text, profile.to_text());
        assert_eq!(TextSink.format_name(), "text");
    }

    #[test]
    fn json_sink_round_trips_structure_and_metrics() {
        // JSON is write-only, so the writer is pinned by a golden document over a
        // profile that sets every field.
        let json = JsonSink::new().write_to_string(&build_profile());
        let golden = concat!(
            r#"{"format":"djxperf-profile","version":1,"event":"MEM_LOAD_UOPS_RETIRED:L1_MISS","#,
            r#""period":100,"size_filter":1024,"allocation_stats":{"callbacks":10,"monitored":2,"#,
            r#""filtered":8,"relocations":1,"unknown_moves":3,"reclamations":1},"sites":["#,
            r#"{"id":0,"class":"float[] \"quoted\" \\slash","path":[[1,5],[2,3]]},"#,
            r#"{"id":1,"class":"Top Doc","path":[]}],"threads":["#,
            r#"{"id":1,"name":"main","samples":4,"unattributed":{"samples":1,"weighted":100,"#,
            r#""latency":100,"local":1,"remote":0,"loads":1,"stores":0,"allocs":0,"bytes":0},"#,
            r#""objects":[{"site":0,"total":{"samples":2,"weighted":200,"latency":200,"local":1,"#,
            r#""remote":1,"loads":2,"stores":0,"allocs":1,"bytes":4096},"accesses":["#,
            r#"{"path":[[1,5],[4,9]],"metrics":{"samples":1,"weighted":100,"latency":100,"#,
            r#""local":1,"remote":0,"loads":1,"stores":0,"allocs":0,"bytes":0}},"#,
            r#"{"path":[[1,5],[5,2]],"metrics":{"samples":1,"weighted":100,"latency":100,"#,
            r#""local":0,"remote":1,"loads":1,"stores":0,"allocs":0,"bytes":0}}]},"#,
            r#"{"site":1,"total":{"samples":1,"weighted":100,"latency":100,"local":1,"remote":0,"#,
            r#""loads":1,"stores":0,"allocs":0,"bytes":0},"accesses":[{"path":[],"metrics":"#,
            r#"{"samples":1,"weighted":100,"latency":100,"local":1,"remote":0,"loads":1,"#,
            r#""stores":0,"allocs":0,"bytes":0}}]}]},"#,
            r#"{"id":2,"name":"worker\t1","samples":1,"unattributed":{"samples":0,"weighted":0,"#,
            r#""latency":0,"local":0,"remote":0,"loads":0,"stores":0,"allocs":0,"bytes":0},"#,
            r#""objects":[{"site":1,"total":{"samples":1,"weighted":100,"latency":100,"local":0,"#,
            r#""remote":1,"loads":1,"stores":0,"allocs":0,"bytes":0},"accesses":["#,
            r#"{"path":[[3,0],[6,6]],"metrics":{"samples":1,"weighted":100,"latency":100,"#,
            r#""local":0,"remote":1,"loads":1,"stores":0,"allocs":0,"bytes":0}}]}]}]}"#,
        );
        assert_eq!(json, golden);
        assert_eq!(JsonSink::new().format_name(), "json");
    }

    #[test]
    fn json_string_escaping_round_trips() {
        for (name, literal) in [
            ("plain", r#""plain""#),
            ("with \"quotes\"", r#""with \"quotes\"""#),
            ("back\\slash", r#""back\\slash""#),
            ("tab\tnewline\n\r", r#""tab\tnewline\n\r""#),
            ("bell\u{7}", r#""bell\u0007""#),
            ("unicode λ✓", r#""unicode λ✓""#),
        ] {
            assert_eq!(json_string(name), literal, "{name:?}");
        }
    }

    #[test]
    fn read_any_profile_detects_the_format() {
        // The binary log is the one format read back; text and JSON renders are
        // recognized as such and refused rather than misread.
        let profile = build_profile();
        let sink = BinaryChunkedSink::new();
        let mut log = Vec::new();
        sink.write_profile(&profile, &mut log).unwrap();
        assert_eq!(sink.read_log_bytes(&log).unwrap().to_text(), profile.to_text());
        let text = TextSink.write_to_string(&profile);
        let json = JsonSink::new().write_to_string(&profile);
        for input in [text.as_str(), json.as_str(), "  {}", "{"] {
            let err = sink.read_log_bytes(input.as_bytes()).unwrap_err();
            assert!(err.message.contains("render-only"), "{err}");
        }
        assert!(sink.read_log_bytes(b"garbage").is_err());
        assert!(sink.read_log_bytes(&[0xff, 0xfe, 0x00]).is_err(), "non-UTF-8 non-magic");
        assert!(sink.read_log_bytes(&log[..log.len() - 1]).is_err(), "truncated binary log");
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
        let sink = BinaryChunkedSink::new();
        let mut log = Vec::new();
        sink.write_profile(&profile, &mut log).unwrap();
        let parsed = sink.read_log_bytes(&log).unwrap();
        assert_eq!(parsed.to_text(), profile.to_text());
        assert_eq!(parsed.event, PmuEvent::RemoteDram);
    }
}
