//! # djxperf — object-centric memory profiling for managed runtimes
//!
//! This crate is a from-scratch Rust reproduction of **DJXPerf** (*"DJXPerf: Identifying
//! Memory Inefficiencies via Object-Centric Profiling for Java"*, CGO 2023). DJXPerf is a
//! lightweight Java profiler that samples hardware performance-monitoring units (PMUs)
//! and attributes memory-hierarchy metrics — L1 cache misses, TLB misses, load latency,
//! remote NUMA accesses — not to code locations but to *Java objects*, identified by
//! their allocation calling context. The object-centric view aggregates the many
//! scattered accesses to one object back to its allocation site, which is what lets a
//! developer decide whether restructuring that object (hoisting it out of a loop, tiling
//! its accesses, allocating it NUMA-interleaved) will actually pay off.
//!
//! The original tool is built on a real JVM (ASM bytecode instrumentation + JVMTI) and
//! real PMUs (Intel PEBS address sampling through `perf_event_open`). In this
//! reproduction those substrates are provided by sibling crates:
//!
//! * [`djx_memsim`] — the simulated memory hierarchy (caches, TLB, NUMA),
//! * [`djx_pmu`] — per-thread virtual PMUs with PEBS-like precise samples,
//! * [`djx_runtime`] — a managed-runtime simulator (heap, moving GC, threads, call
//!   stacks) that produces the same observable events a JVM gives DJXPerf.
//!
//! This crate implements the paper's contribution on top of them:
//!
//! | module | paper section | role |
//! |---|---|---|
//! | [`interval`] | §4.2 | sorted interval index mapping live object address ranges (the paper uses a splay tree; the module says why this does not) |
//! | [`sync`] | §5.1 | signal-handler-safe spin lock for the ingestion hot path |
//! | [`cct`] | §4.4, §5.1 | compact calling context tree |
//! | [`fxhash`] | §5.1 | the hot-path hasher for runtime-issued ids |
//! | [`metrics`] | §4.1 | metric vectors attributed to sites and contexts |
//! | [`object`] | §4.2 | allocation-site identity (allocation call paths) |
//! | [`agent`] | §4.1, §4.5 | the allocation ("Java") agent and the shared object index |
//! | [`session`] | §5, Fig. 1 | the one profiler: [`Session`] (one sampling stream, one record per sample — each thread's [`ThreadProfile`] — that all three views query), configured by [`ProfilerConfig`] |
//! | [`sink`] | §5.2 | the streaming [`ProfileSink`] trait, the [`FinishRecord`] trailer, and the JSON helpers behind [`QueryResult::to_json`] |
//! | [`wire`] | §5.2 | binary epoch frames: the one format the profiler reads back, for logs, the fleet wire and its WAL ([`BinaryChunkedSink::read_log_bytes`]) |
//! | [`export`] | §5.2 | asynchronous delta export: a background drainer streaming epoch-retired snapshot deltas, one pending delta at a time |
//! | [`profile`] | §5.1/§5.2 | per-thread profiles and their render-only text form ([`ObjectCentricProfile::to_text`]) |
//! | [`query`] | §1, Fig. 1, §4.3, §5.2, §6 | the offline analyzer: [`ProfileSource`] + composable [`Query`] (merge, rank, filter) over live sessions, snapshots, logs and folds; every view is a [`GroupBy`] axis — objects, the code-centric (perf-like) baseline ([`GroupBy::Context`]), the NUMA traffic matrix ([`GroupBy::NodePair`]) |
//! | [`report`] | Fig. 5, §4.3 | [`Report::query`] (the GUI stand-in): any query result with symbolized frames |
//!
//! ## Quick start
//!
//! A [`SessionBuilder`] configures the sampling substrate once — event, period, size
//! filter, jitter, launch/attach mode — and attaches to a runtime as one listener. Each
//! sample is recorded once, and a single pass yields the object-centric ranking, the
//! code-centric baseline and the NUMA view as queries over that record;
//! [`Session::object_profile`] extracts it mid-run without stopping measurement. A
//! profile renders as text or JSON, and a [`ProfileSink`] streams its epochs out as a
//! binary log for offline merging.
//!
//! ```
//! use djx_runtime::{dsl, Runtime, RuntimeConfig};
//! use djxperf::{GroupBy, Query, RankBy, Report, Session};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A runtime running a memory-bloat workload: a float[] allocated in a loop,
//! // profiled by a session whose one record answers all three views.
//! let mut rt = Runtime::new(RuntimeConfig::small());
//! let session = Session::builder().period(64).collect_objects().attach(&mut rt);
//!
//! let class = rt.register_array_class("float[]", 4);
//! let make_room = dsl::MethodSpec::at_line(
//!     "ExtendedGeneralPath", "makeRoom", "ExtendedGeneralPath.java", 743,
//! ).register(&mut rt);
//! let thread = rt.spawn_thread("main");
//! dsl::bloat_loop(&mut rt, thread, class, make_room, 0, 100, 512, 32)?;
//! rt.finish_thread(thread)?;
//! rt.shutdown();
//!
//! // Analysis is one composable Query, evaluated against any ProfileSource — the
//! // live session here; identically against a snapshot, a replayed epoch log, or a
//! // MultiSource fold of N process logs (see the `query` module docs).
//! let query = Query::new().rank_by(RankBy::WeightedEvents).top(10);
//! let ranked = query.evaluate(&*session)?;
//! let hottest = ranked.hottest().expect("the float[] site received samples");
//! assert_eq!(hottest.label, "float[]");
//! println!("{}", Report::query(&ranked, rt.methods()));
//!
//! // The code-centric baseline of Figure 1 is another axis of the same query over
//! // the same object profile — as it would be over a replayed epoch log or a fleet
//! // fold.
//! let profile = session.object_profile().expect("object collector registered");
//! let code = Query::new().group_by(GroupBy::Context).evaluate(&profile)?;
//! assert_eq!(code.total_samples, profile.total_samples());
//! println!("{}", Report::query(&code, rt.methods()));
//!
//! // The NUMA view (§4.3): the node-to-node traffic matrix, and the objects ranked
//! // by remote samples.
//! let matrix = Query::new().group_by(GroupBy::NodePair).evaluate(&profile)?;
//! let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&profile)?;
//! println!("{}\n{}", Report::query(&matrix, rt.methods()), Report::query(&remote, rt.methods()));
//!
//! // Machine-readable render for dashboards, and a binary log that reads back for
//! // cross-machine merging.
//! let json = ranked.to_json();
//! assert!(json.starts_with("{\"format\":\"djxperf-query\""));
//! let sink = djxperf::BinaryChunkedSink::new();
//! let mut log = Vec::new();
//! sink.write_profile(&profile, &mut log)?;
//! assert_eq!(sink.read_log_bytes(&log)?.to_text(), profile.to_text());
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod cct;
pub mod export;
pub mod fleet;
pub mod fxhash;
pub mod interval;
pub mod metrics;
pub mod object;
pub mod profile;
pub mod query;
pub mod report;
pub mod session;
pub mod sink;
mod slots;
pub mod sync;
pub mod wire;

pub use agent::{
    AllocationAgent, AllocationConfig, SharedObjectIndex, DEFAULT_SHARD_COUNT, DEFAULT_SIZE_FILTER,
};
pub use cct::{Cct, CctNodeId};
pub use export::{DrainPolicy, ExportStats, SharedBuffer};
pub use fleet::{
    BackoffPolicy, FaultPlan, FleetAggregator, FleetAggregatorBuilder, FleetClient, FleetProducer,
    FleetSink, FleetSinkBuilder, FleetSinkStats, FleetView, FsyncPolicy, OverflowPolicy,
    ProducerRecovery, ProducerStatus, RecoveryReport, RemoteQueryResult,
};
pub use interval::{Interval, IntervalIndex, LookupStats};
pub use metrics::MetricVector;
pub use object::{AllocSite, AllocSiteId, AllocSiteRegistry, MonitoredObject};
pub use profile::{
    AllocationStats, DeltaFold, FoldError, ObjectCentricProfile, ProfileDelta, ProfileParseError,
    ThreadDelta, ThreadProfile, UnknownEventError,
};
pub use query::live::{LiveFold, LiveQuery, LiveResult, WatchTimeout};
pub use query::{
    AccessContext, GroupBy, GroupKey, Locality, MultiSource, ProfileSource, Query, QueryError,
    QueryGroup, QueryResult, RankBy, UnknownGroupByError, UnknownRankByError,
};
pub use report::{Report, ReportOptions};
pub use session::{ProfilerConfig, Session, SessionBuilder, DEFAULT_SAMPLE_PERIOD};
pub use sink::{FinishRecord, LogRecord, ProfileSink};
pub use sync::{SpinLock, SpinLockGuard};
pub use wire::{BinaryChunkedSink, BinaryFrameReader};
