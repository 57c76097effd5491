//! Profile export: the streaming trait, the records every epoch-log frame decodes
//! to, and the JSON helpers of the query render.
//!
//! The export surface is one writer trait, one reader function and one render:
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
//! * [`ObjectCentricProfile::to_text`] (the paper's line-oriented profile file)
//!   renders a whole profile. Nothing parses it back, and `read_log_bytes`
//!   refuses it with an error saying so. Dashboards read
//!   [`QueryResult::to_json`](crate::query::QueryResult::to_json), which writes
//!   through this module's JSON helpers.

use std::io::{self, Write};

use djx_runtime::Frame;

use crate::metrics::MetricVector;
use crate::profile::{AllocationStats, ObjectCentricProfile, ProfileDelta};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{AllocSite, AllocSiteId};
    use crate::profile::ThreadProfile;
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
    fn json_paths_and_metrics_keep_their_layout() {
        // Every field of the shared helpers, as dashboards read them in
        // `QueryResult::to_json`.
        assert_eq!(json_path(&[f(1, 5), f(2, 3)]), "[[1,5],[2,3]]");
        assert_eq!(json_path(&[]), "[]");
        let metrics = MetricVector {
            samples: 1,
            weighted_events: 2,
            latency_cycles: 3,
            local_samples: 4,
            remote_samples: 5,
            load_samples: 6,
            store_samples: 7,
            allocations: 8,
            allocated_bytes: 9,
        };
        assert_eq!(
            json_metrics(&metrics),
            concat!(
                r#"{"samples":1,"weighted":2,"latency":3,"local":4,"remote":5,"#,
                r#""loads":6,"stores":7,"allocs":8,"bytes":9}"#
            )
        );
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
        let text = profile.to_text();
        let json = crate::query::Query::new().evaluate(&profile).unwrap().to_json();
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
