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
//! | [`splay`] | §4.2 | interval splay tree mapping live object address ranges |
//! | [`sync`] | §5.1 | signal-handler-safe spin lock for the ingestion hot path |
//! | [`cct`] | §4.4, §5.1 | compact calling context tree |
//! | [`fxhash`] | §5.1 | the hot-path hasher for runtime-issued ids |
//! | [`metrics`] | §4.1 | metric vectors attributed to sites and contexts |
//! | [`object`] | §4.2 | allocation-site identity (allocation call paths) |
//! | [`agent`] | §4.1, §4.5 | the allocation ("Java") agent and the shared object index |
//! | [`session`] | §5, Fig. 1 | the one profiler: [`Session`] (one sampling stream, pluggable collectors: per-object metrics, the code-centric CCT, the NUMA node traffic matrix), configured by [`ProfilerConfig`] |
//! | [`sink`] | §5.2 | [`ProfileSink`] export backends: render-only text and JSON documents, and the binary epoch log |
//! | [`wire`] | §5.2 | binary epoch frames: the one format the profiler reads back, for logs, the fleet wire and its WAL ([`BinaryChunkedSink::read_log_bytes`]) |
//! | [`export`] | §5.2 | asynchronous delta export: background [`DeltaDrainer`] over epoch-retired snapshot deltas |
//! | [`profile`] | §5.1/§5.2 | per-thread profiles and their render-only text form |
//! | [`query`] | §5.2, §6 | the offline analyzer: [`ProfileSource`] + composable [`Query`] (merge, rank, filter) over live sessions, snapshots, logs and folds |
//! | [`codecentric`] | §1, Fig. 1 | the code-centric (perf-like) baseline view |
//! | [`report`] | Fig. 5, §4.3 | the [`Report`] views (the GUI stand-in): query results, the code-centric baseline, and the NUMA view (traffic matrix plus a remote-ranked query) |
//!
//! ## Quick start
//!
//! A [`SessionBuilder`] configures the sampling substrate once — event, period, size
//! filter, jitter, launch/attach mode — registers any number of collectors, and attaches
//! to a runtime as one listener. A single pass then yields the object-centric ranking,
//! the code-centric baseline and the NUMA view; [`Session::snapshot`] extracts all of
//! them mid-run, and a [`ProfileSink`] streams profiles out for offline merging.
//!
//! ```
//! use djx_runtime::{dsl, Runtime, RuntimeConfig};
//! use djxperf::{Query, RankBy, Report, Session};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A runtime running a memory-bloat workload: a float[] allocated in a loop,
//! // profiled by a session collecting all three views in one pass.
//! let mut rt = Runtime::new(RuntimeConfig::small());
//! let session = Session::builder()
//!     .period(64)
//!     .collect_objects()
//!     .collect_code()
//!     .collect_numa()
//!     .attach(&mut rt);
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
//! // The code-centric baseline of Figure 1, from the same single pass.
//! let profile = session.object_profile().expect("object collector registered");
//! let code = session.code_profile().expect("code collector registered");
//! assert_eq!(code.total_samples, profile.total_samples());
//!
//! // The NUMA view (§4.3): the collector's node-to-node traffic matrix, and the
//! // objects ranked by remote samples with a Query over the same object profile.
//! let numa = session.numa_profile().expect("numa collector registered");
//! let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&profile)?;
//! println!("{}", Report::numa_view(&numa, &remote, rt.methods()));
//!
//! // Machine-readable export for dashboards or cross-machine merging.
//! let json = djxperf::sink::JsonSink::new();
//! let mut out = Vec::new();
//! session.stream_snapshot(&json, &mut out)?;
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod cct;
pub mod codecentric;
pub mod export;
pub mod fleet;
pub mod fxhash;
pub mod metrics;
pub mod object;
pub mod profile;
pub mod query;
pub mod report;
pub mod session;
pub mod sink;
mod slots;
pub mod splay;
pub mod sync;
pub mod wire;

pub use agent::{
    AllocationAgent, AllocationConfig, ResolutionCache, SharedObjectIndex,
    DEFAULT_RESOLUTION_CACHE_SLOTS, DEFAULT_SHARD_COUNT, DEFAULT_SIZE_FILTER,
};
pub use cct::{Cct, CctNodeId};
pub use codecentric::{CodeCentricProfile, CodeLocation};
pub use export::{Backpressure, DeltaDrainer, DrainPolicy, ExportStats, SharedBuffer};
pub use fleet::{
    BackoffPolicy, FaultAction, FaultPlan, FleetAggregator, FleetAggregatorBuilder, FleetClient,
    FleetProducer, FleetSink, FleetSinkBuilder, FleetSinkStats, FleetView, FsyncPolicy,
    OverflowPolicy, ProducerRecovery, ProducerStatus, RecoveryReport, RemoteQueryResult,
};
pub use metrics::MetricVector;
pub use object::{AllocSite, AllocSiteId, AllocSiteRegistry, MonitoredObject};
pub use profile::{
    AllocationRow, AllocationStats, DeltaFold, FoldError, ObjectCentricProfile, ProfileDelta,
    ProfileParseError, SiteMetrics, ThreadDelta, ThreadProfile, UnknownEventError,
};
pub use query::live::{LiveFold, LiveQuery, LiveResult, WatchTimeout};
pub use query::{
    AccessContext, EpochLog, GroupBy, GroupKey, Locality, MultiSource, ProfileSource, Query,
    QueryError, QueryGroup, QueryResult, RankBy, UnknownGroupByError, UnknownRankByError,
};
pub use report::{Report, ReportOptions};
pub use session::{
    adaptive_shard_count, BatchContext, Collector, NumaProfile, ProfilerConfig, SampleContext,
    Session, SessionBuilder, SessionSnapshot, DEFAULT_SAMPLE_PERIOD,
};
pub use sink::{FinishRecord, JsonSink, LogRecord, ProfileSink, TextSink};
pub use splay::{Interval, IntervalSplayTree, LookupStats};
pub use sync::{Epoch, SpinLock, SpinLockGuard};
pub use wire::{BinaryChunkedSink, BinaryFrameReader};
