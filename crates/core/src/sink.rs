//! Profile export: the streaming trait, the records every epoch-log frame decodes
//! to, and the JSON render.
//!
//! The export surface is one writer trait, one reader function and two renders:
//!
//! * [`ProfileSink`] streams retired epochs. Its implementations are
//!   [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) (the replayable binary
//!   epoch log, see [`crate::wire`]) and [`FleetSink`](crate::fleet::FleetSink)
//!   (the same frames shipped to an aggregator).
//! * [`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes)
//!   is the one function that turns bytes into a profile, so the offline analyzer
//!   and cross-machine merging (§5.2 of the paper) read every log the same way.
//!   Its [`LogRecord`]s go to a [`DeltaFold`](crate::DeltaFold), which owns what a
//!   stream means — header, first-seen thread names, the [`FinishRecord`] and its
//!   checksum — for log replay, live folds, fleet ingest and WAL recovery alike.
//! * [`ObjectCentricProfile::to_text`] (the paper's line-oriented profile file) and
//!   [`ObjectCentricProfile::to_json`] (a document for dashboards and external
//!   tooling) render a whole profile. Nothing parses either back, and
//!   `read_log_bytes` refuses them with an error saying so.

use std::fmt::Write as _;
use std::io::{self, Write};

use djx_runtime::Frame;

use crate::metrics::MetricVector;
use crate::object::AllocSite;
use crate::profile::{AllocationStats, ObjectCentricProfile, ProfileDelta, ThreadProfile};

/// A streaming export backend: the export pipeline ([`crate::export`]) calls
/// [`ProfileSink::on_delta`] for every retired epoch and [`ProfileSink::on_finish`]
/// once at the end of the stream. The stream is *replayable*: folding the emitted
/// epoch log reproduces the terminal profile byte-identically.
pub trait ProfileSink: Send + Sync {
    /// Streams one retired epoch delta. Called by the export drainer in strictly
    /// increasing epoch order; `epoch` equals `delta.epoch`.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, out: &mut dyn Write) -> io::Result<()>;

    /// Ends the stream with its trailer: the run configuration, the agent counters
    /// and the total-sample checksum.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out`.
    fn on_finish(&self, record: &FinishRecord, out: &mut dyn Write) -> io::Result<()>;
}

/// Current version of the JSON document layout.
const JSON_VERSION: u64 = 1;

impl ObjectCentricProfile {
    /// Renders the profile as a machine-readable JSON document for dashboards and
    /// external tooling. Render-only: nothing parses it back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"format\":\"djxperf-profile\",\"version\":{JSON_VERSION},\"event\":{},\"period\":{},\"size_filter\":{}",
            json_string(self.event.hardware_name()),
            self.period,
            self.size_filter
        );
        out.push_str(",\"allocation_stats\":");
        write_alloc_stats_json(&self.allocation_stats, &mut out);
        out.push_str(",\"sites\":");
        write_sites_json(&self.sites, &mut out);
        out.push_str(",\"threads\":[");
        for (i, thread) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_thread_json(thread, &mut out);
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------------------
// Epoch-log records: what every binary frame decodes to
// ---------------------------------------------------------------------------------------

/// The decoded payload of an epoch log's terminal `finish` frame — a trailer: run
/// configuration, agent counters and the total-sample checksum. The deltas carry
/// everything else (samples, allocation counts and the site table), so the record
/// adds nothing [`DeltaFold::assemble`](crate::DeltaFold::assemble) could not have
/// shown mid-run. [`DeltaFold::finish`](crate::DeltaFold::finish) checks and keeps it.
#[derive(Debug, Clone)]
pub struct FinishRecord {
    /// The sampled PMU event.
    pub event: djx_pmu::PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// Size filter S in bytes.
    pub size_filter: u64,
    /// Allocation-agent counters.
    pub allocation_stats: AllocationStats,
    /// Total PMU samples the producer streamed — the end-to-end loss check.
    pub total_samples: u64,
}

impl FinishRecord {
    /// The finish record closing a stream whose terminal profile is `profile`.
    pub fn of_profile(profile: &ObjectCentricProfile) -> FinishRecord {
        FinishRecord {
            event: profile.event,
            period: profile.period,
            size_filter: profile.size_filter,
            allocation_stats: profile.allocation_stats,
            total_samples: profile.total_samples(),
        }
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
fn write_alloc_stats_json(s: &AllocationStats, out: &mut String) {
    let _ = write!(
        out,
        "{{\"callbacks\":{},\"monitored\":{},\"filtered\":{},\"relocations\":{},\"unknown_moves\":{},\"reclamations\":{}}}",
        s.callbacks, s.monitored, s.filtered, s.relocations, s.unknown_moves, s.reclamations
    );
}

/// Writes the site-table array of the whole-profile document.
fn write_sites_json(sites: &[AllocSite], out: &mut String) {
    out.push('[');
    for (i, site) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"class\":{},\"path\":{}}}",
            site.id.0,
            json_string(&site.class_name),
            json_path(&site.call_path)
        );
    }
    out.push(']');
}

/// Writes one element of the whole-profile document's `threads` array.
fn write_thread_json(thread: &ThreadProfile, out: &mut String) {
    let _ = write!(
        out,
        "{{\"id\":{},\"name\":{},\"samples\":{},\"unattributed\":{}",
        thread.thread.0,
        json_string(&thread.thread_name),
        thread.samples,
        json_metrics(&thread.unattributed)
    );
    out.push_str(",\"objects\":[");
    let mut site_ids: Vec<_> = thread.sites.keys().copied().collect();
    site_ids.sort_unstable();
    for (j, sid) in site_ids.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let sm = &thread.sites[sid];
        let _ = write!(out, "{{\"site\":{},\"total\":{}", sid.0, json_metrics(&sm.total));
        out.push_str(",\"accesses\":[");
        // Canonical context order (by encoded path), matching the text rendering.
        let mut contexts: Vec<(String, &MetricVector)> = sm
            .by_context
            .iter()
            .map(|(ctx, m)| (json_path(&thread.cct.path_of(*ctx)), m))
            .collect();
        contexts.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, (encoded, metrics)) in contexts.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"path\":{},\"metrics\":{}}}", encoded, json_metrics(metrics));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
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
        t1.record_sample(Some(AllocSiteId(0)), &[f(1, 5), f(4, 9)], &sample(0x1000, false), 100);
        t1.record_sample(Some(AllocSiteId(0)), &[f(1, 5), f(5, 2)], &sample(0x1040, true), 100);
        t1.record_sample(Some(AllocSiteId(1)), &[], &sample(0x2000, false), 100);
        t1.record_sample(None, &[], &sample(0x9000, false), 100);
        let mut t2 = ThreadProfile::new(ThreadId(2), "worker\t1");
        t2.record_sample(Some(AllocSiteId(1)), &[f(3, 0), f(6, 6)], &sample(0x2010, true), 100);
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
    fn json_sink_round_trips_structure_and_metrics() {
        // JSON is write-only, so the writer is pinned by a golden document over a
        // profile that sets every field.
        let json = build_profile().to_json();
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
        let (text, json) = (profile.to_text(), profile.to_json());
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
