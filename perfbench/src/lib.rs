//! End-to-end and per-layer benchmark of the profiling pipeline:
//! simulated runtime → `Session` (PMU observe → allocation agent / resolve →
//! collectors) → export drainer → wire → `FleetSink` socket → `FleetAggregator`
//! (WAL, `DeltaFold`, live watch) → `Query`.
//!
//! A run repeats interleaved pairs of an unprofiled and a profiled execution of
//! one workload for the requested wall time and reports medians over the pairs
//! (`--trace 0`, the end-to-end metrics). A traced run (`--trace 1`) adds, per
//! pair, one execution with the session wrapped in [`trace::Traced`] — timing
//! taken only around calls into the layers' public functions — plus, on the
//! workloads that do not stream, one execution streamed to a loopback aggregator,
//! and reports the per-layer metrics. `METRICS.md` documents every name.

pub mod fanout;
pub mod stats;
pub mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use djx_runtime::{MemoryAccessEvent, Runtime, RuntimeListener, RuntimeStats};
use djx_workloads::suite::suite_catalog;
use djx_workloads::Workload;
use djxperf::{
    BinaryChunkedSink, BinaryFrameReader, DeltaFold, DrainPolicy, ExportStats, FleetAggregator,
    FleetClient, FleetSink, FsyncPolicy, LiveQuery, LogRecord, LookupStats, ObjectCentricProfile,
    ProfileDelta, ProfileSink, ProfilerConfig, Query, Session, SessionBuilder, WatchTimeout,
};

use crate::fanout::SiteFanout;
use crate::stats::{median, quantile};
use crate::trace::{Call, CallStats, SpanLog, Traced};

/// Open-loop rate of the fleet client's queries.
const QUERY_RATE_HZ: f64 = 200.0;
/// A query answered later than this after its due time counts as failed.
const QUERY_DEADLINE: Duration = Duration::from_secs(1);
/// Freshness markers recorded per execution.
const MARKS_PER_REP: u64 = 200;
/// How long the report phase waits for the aggregator to show every sample.
const REPORT_DEADLINE: Duration = Duration::from_secs(10);
/// Passes over the WAL frames when timing the wire and fold layers.
const WIRE_PASSES: usize = 5;
/// Pairs measured even when one pair outlasts `--seconds`.
const MIN_PAIRS: usize = 3;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("overhead_x", "x"),
    ("mem_overhead_x", "x"),
    ("report_frac", "fraction"),
    ("attributed_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("report_s", "s"),
    ("session.access_hit.calls", "count"),
    ("session.access_hit.ns", "ns/call"),
    ("session.access_miss.calls", "count"),
    ("session.access_miss.ns", "ns/call"),
    ("session.per_sample_ns", "ns/sample"),
    ("session.alloc.calls", "count"),
    ("session.alloc.ns", "ns/call"),
    ("session.reclaim.calls", "count"),
    ("session.reclaim.ns", "ns/call"),
    ("session.move.calls", "count"),
    ("session.move.ns", "ns/call"),
    ("session.gc_end.calls", "count"),
    ("session.gc_end.ns", "ns/call"),
    ("session.footprint_bytes", "bytes"),
    ("session.object_profile_ms", "ms"),
    ("agent.cache_hit_frac", "fraction"),
    ("agent.cache_lookups", "count"),
    ("agent.splay_lookups", "count"),
    ("agent.monitored", "count"),
    ("agent.live_monitored", "count"),
    ("query.evaluate_ms", "ms"),
    ("export.deltas", "count"),
    ("export.epochs_drained", "count"),
    ("export.coalesced", "count"),
    ("export.blocked", "count"),
    ("export.finish_ms", "ms"),
    ("export.sites_per_delta", "sites/delta"),
    ("wire.encode_ns_per_frame", "ns/frame"),
    ("wire.decode_ns_per_frame", "ns/frame"),
    ("wire.bytes_per_frame", "B/frame"),
    ("wire_bytes_per_sample", "B/sample"),
    ("fold.absorb_ns_per_frame", "ns/frame"),
    ("fleet.frames", "count"),
    ("fleet.bytes", "bytes"),
    ("fleet.wal_bytes", "bytes"),
    ("fleet.resumes", "count"),
    ("fleet.duplicates", "count"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("freshness.markers", "count"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query.count", "count"),
    ("query.late_ms", "ms"),
    ("query.aggregator_ms", "ms"),
    ("live.updates", "count"),
    ("live.render_us", "us"),
    ("runtime.unprofiled_s", "s"),
    ("runtime.accesses", "count"),
    ("runtime.allocations", "count"),
    ("runtime.gc_cycles", "count"),
    ("runtime.objects_moved", "count"),
    ("workload.sites", "count"),
    ("trace.overhead_x", "x"),
    ("trace.unexplained_frac", "fraction"),
    ("trace.timer_ns", "ns"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig.-4 `akka-uct` stand-in at the default period, no export.
    AllocChurn,
    /// `site-fanout` at period 8, no export.
    MissDense,
    /// `site-fanout` at period 64, streamed to a loopback aggregator.
    FleetLive,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::AllocChurn, Kind::MissDense, Kind::FleetLive];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AllocChurn => "alloc-churn",
            Kind::MissDense => "miss-dense",
            Kind::FleetLive => "fleet-live",
        }
    }

    fn period(self) -> u64 {
        match self {
            Kind::AllocChurn => djxperf::DEFAULT_SAMPLE_PERIOD,
            Kind::MissDense => 8,
            Kind::FleetLive => 64,
        }
    }

    fn streams(self) -> bool {
        self == Kind::FleetLive
    }

    fn workload(self, seed: u64, scale: f64) -> Box<dyn Workload> {
        match self {
            Kind::AllocChurn => {
                let akka = suite_catalog()
                    .into_iter()
                    .find(|b| b.name == "akka-uct")
                    .expect("the Fig. 4 catalog lists akka-uct");
                let mut workload = akka.build();
                // The catalog entry is not seeded; the seed varies its length by
                // about 1% so that each seed is a distinct input of the same size.
                workload.operations =
                    ((workload.operations as f64 * scale).round() as u64).max(4) + seed % 4;
                Box::new(FrequentGc(workload))
            }
            Kind::MissDense | Kind::FleetLive => Box::new(SiteFanout::new(seed, scale)),
        }
    }
}

/// A catalog workload on the evaluation machine with a collection every 1 MiB
/// allocated instead of every 8 MiB: the catalog's 300 operations allocate ~5 MiB,
/// so one short execution still pays the reclaim and GC callbacks a long one does.
struct FrequentGc<W>(W);

impl<W: Workload> Workload for FrequentGc<W> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn runtime_config(&self) -> djx_runtime::RuntimeConfig {
        self.0
            .runtime_config()
            .with_gc(djx_runtime::GcConfig::every_allocated_bytes(1 << 20))
    }

    fn run(&self, rt: &mut Runtime) -> djx_runtime::Result<()> {
        self.0.run(rt)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub kind: Kind,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Wall time to keep measuring pairs for.
    pub seconds: f64,
    /// Report per-layer metrics from traced executions instead of end-to-end ones.
    pub trace: bool,
    /// Multiplier on the workload's length (the self-check runs tiny ones).
    pub scale: f64,
    /// Where the span log goes, and the scratch space for WALs.
    pub out_dir: PathBuf,
}

/// The result of one invocation, printed as the benchmark's last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No correctness check failed.
    pub correct: bool,
    /// Correctness checks and client queries attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Records `(time, samples taken so far)` every `every` accesses — the freshness
/// markers. Attached after the session, so a marker's count includes the access it
/// fires on. Unprofiled executions of the streaming workload carry one without a
/// session, so both sides of a pair pay for its counting.
struct Marker {
    session: Option<Arc<Session>>,
    every: u64,
    seen: AtomicU64,
    marks: Mutex<Vec<(Instant, u64)>>,
}

impl Marker {
    fn new(session: Option<Arc<Session>>, every: u64) -> Self {
        Self { session, every, seen: AtomicU64::new(0), marks: Mutex::new(Vec::new()) }
    }
}

impl RuntimeListener for Marker {
    fn on_memory_access(&self, _event: &MemoryAccessEvent<'_>) {
        let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            if let Some(session) = &self.session {
                self.marks
                    .lock()
                    .expect("marker lock")
                    .push((Instant::now(), session.total_samples()));
            }
        }
    }
}

/// An unprofiled execution.
struct Plain {
    wall: f64,
    stats: RuntimeStats,
}

/// A profiled execution.
#[derive(Default)]
struct Rep {
    setup: f64,
    run: f64,
    report: f64,
    mem_x: f64,
    attributed: f64,
    stats: RuntimeStats,
    samples: u64,
    footprint: f64,
    monitored: f64,
    live_monitored: f64,
    lookups: LookupStats,
    sites: f64,
    object_profile_s: f64,
    evaluate_s: f64,
    fleet: Option<FleetRep>,
}

/// What a streamed execution adds.
#[derive(Default)]
struct FleetRep {
    freshness_ms: Vec<f64>,
    query_ms: Vec<f64>,
    late_ms: Vec<f64>,
    export: ExportStats,
    finish_s: f64,
    aggregator_query_s: f64,
    render_s: f64,
    updates: u64,
    samples: u64,
    frames: u64,
    bytes: u64,
    wal_bytes: u64,
    resumes: u64,
    duplicates: u64,
    wire: Wire,
}

/// Wire and fold costs re-measured over one execution's WAL frames.
#[derive(Default)]
struct Wire {
    sites_per_delta: f64,
    bytes_per_frame: f64,
    encode_ns: f64,
    decode_ns: f64,
    absorb_ns: f64,
}

/// The open-loop client's record.
#[derive(Default)]
struct QueryLoad {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

struct Ctx<'a> {
    workload: &'a dyn Workload,
    config: ProfilerConfig,
    query: Query,
    spans: SpanLog,
    work: PathBuf,
    marker_every: u64,
    checks: Checks,
    reps: usize,
}

impl Ctx<'_> {
    fn next_rep(&mut self) -> usize {
        self.reps += 1;
        self.reps
    }
}

fn same_work(a: &RuntimeStats, b: &RuntimeStats) -> bool {
    a.accesses == b.accesses
        && a.allocations == b.allocations
        && a.modeled_cycles() == b.modeled_cycles()
}

fn run_plain(workload: &dyn Workload, marker_every: Option<u64>) -> Plain {
    let mut rt = Runtime::new(workload.runtime_config());
    if let Some(every) = marker_every {
        rt.add_listener(Arc::new(Marker::new(None, every)));
    }
    let start = Instant::now();
    workload.run(&mut rt).expect("workload runs to completion");
    rt.shutdown();
    Plain { wall: start.elapsed().as_secs_f64(), stats: rt.stats() }
}

/// The three built-in collectors, as the paper's single pass runs them.
fn session_builder(config: ProfilerConfig) -> SessionBuilder {
    Session::builder()
        .config(config)
        .collect_objects()
        .collect_code()
        .collect_numa()
}

fn attach(rt: &mut Runtime, session: &Arc<Session>, traced: Option<&Arc<CallStats>>) {
    match traced {
        Some(stats) => rt.add_listener(Arc::new(Traced {
            inner: Arc::clone(session),
            stats: Arc::clone(stats),
        })),
        None => rt.add_listener(session.clone()),
    }
}

/// Runs the workload and shuts the runtime down: returns the wall time and the
/// monitored objects still live when the workload returned (read outside the
/// timed window).
fn run_workload(workload: &dyn Workload, rt: &mut Runtime, session: &Session) -> (f64, f64) {
    let start = Instant::now();
    workload.run(rt).expect("workload runs to completion");
    let ran = start.elapsed();
    let live = session.live_monitored_objects() as f64;
    let start = Instant::now();
    rt.shutdown();
    ((ran + start.elapsed()).as_secs_f64(), live)
}

fn observe(rep: &mut Rep, rt: &Runtime, session: &Session) {
    rep.stats = rt.stats();
    rep.samples = session.total_samples();
    rep.footprint = session.memory_footprint_bytes() as f64;
    let peak = rep.stats.peak_heap_used.max(1) as f64;
    rep.mem_x = (peak + rep.footprint) / peak;
    rep.monitored = session.allocation_stats().monitored as f64;
    rep.lookups = session.splay_lookup_stats();
}

fn attributed_frac(profile: &ObjectCentricProfile) -> f64 {
    let attributed: u64 = profile.threads.iter().map(|t| t.attributed_samples()).sum();
    attributed as f64 / profile.total_samples().max(1) as f64
}

fn profiled_local(ctx: &mut Ctx, traced: Option<&Arc<CallStats>>) -> Rep {
    let id = ctx.next_rep();
    let mut rep = Rep::default();
    let start = Instant::now();
    let mut rt = Runtime::new(ctx.workload.runtime_config());
    let session = session_builder(ctx.config).build();
    attach(&mut rt, &session, traced);
    rep.setup = start.elapsed().as_secs_f64();

    (rep.run, rep.live_monitored) = run_workload(ctx.workload, &mut rt, &session);
    observe(&mut rep, &rt, &session);

    let (profile, object_profile_s) = ctx.spans.time("session.object_profile", id, || {
        session.object_profile().expect("the object-centric collector is registered")
    });
    let (result, evaluate_s) = ctx.spans.time("query.evaluate", id, || {
        ctx.query
            .evaluate(std::slice::from_ref(&profile))
            .expect("a profile answers queries")
    });
    (rep.object_profile_s, rep.evaluate_s) = (object_profile_s, evaluate_s);
    rep.report = object_profile_s + evaluate_s;
    rep.attributed = attributed_frac(&profile);
    rep.sites = profile.sites.len() as f64;
    let total = rep.samples;
    ctx.checks
        .check(profile.total_samples() == total && result.total_samples == total, || {
            format!("local report shows {} of {total} samples", result.total_samples)
        });
    rep
}

fn profiled_fleet(ctx: &mut Ctx, traced: Option<&Arc<CallStats>>, time_wire: bool) -> Rep {
    let id = ctx.next_rep();
    let mut rep = Rep::default();
    let wal_dir = ctx.work.join(format!("wal-{id}"));
    let start = Instant::now();
    let mut rt = Runtime::new(ctx.workload.runtime_config());
    fs::create_dir_all(&wal_dir).expect("create the WAL directory");
    let mut aggregator = FleetAggregator::builder()
        .wal(&wal_dir, FsyncPolicy::Never)
        .bind("127.0.0.1:0")
        .expect("bind a loopback aggregator");
    let addr = aggregator.local_addr().expect("a TCP aggregator has an address").to_string();
    let c = ctx.config;
    let sink = FleetSink::builder("perfbench", c.event, c.period, c.size_filter)
        .spill_dir(&ctx.work)
        .connect(&addr)
        .expect("connect the fleet sink");
    let session = session_builder(c)
        .stream_to_fleet(Arc::new(sink), DrainPolicy::default())
        .build();
    attach(&mut rt, &session, traced);
    let marker = Arc::new(Marker::new(Some(Arc::clone(&session)), ctx.marker_every));
    rt.add_listener(Arc::clone(&marker) as Arc<dyn RuntimeListener>);
    let watch = aggregator.watch(&ctx.query);
    let client = FleetClient::connect(&addr).expect("connect the query client");
    rep.setup = start.elapsed().as_secs_f64();

    let shared: &Ctx = ctx;
    let stop_queries = AtomicBool::new(false);
    let stop_watch = AtomicBool::new(false);
    let (load, mut live, updates, export, finish_s, last) = thread::scope(|s| {
        let watcher = s.spawn(|| watch_updates(watch, &stop_watch));
        let querier =
            s.spawn(|| query_load(client, &shared.query, &stop_queries, &shared.spans, id));
        (rep.run, rep.live_monitored) = run_workload(shared.workload, &mut rt, &session);
        observe(&mut rep, &rt, &session);
        stop_queries.store(true, Ordering::SeqCst);
        let load = querier.join().expect("query client thread");

        let report_start = Instant::now();
        let (export, finish_s) = shared.spans.time("export.finish", id, || session.finish_export());
        let last = loop {
            let result = aggregator.query(&shared.query).expect("the aggregator answers queries");
            if result.total_samples >= rep.samples || report_start.elapsed() > REPORT_DEADLINE {
                break result;
            }
            thread::sleep(Duration::from_micros(200));
        };
        rep.report = report_start.elapsed().as_secs_f64();
        stop_watch.store(true, Ordering::SeqCst);
        let (live, updates) = watcher.join().expect("watch thread");
        (load, live, updates, export, finish_s, last)
    });

    let total = rep.samples;
    let export = export.unwrap_or_else(|e| {
        ctx.checks.check(false, || format!("finish_export failed: {e}"));
        ExportStats::default()
    });
    let status = aggregator.status();
    let fleet_samples: u64 = status.iter().map(|p| p.samples).sum();
    ctx.checks
        .check(export.samples_streamed == total && fleet_samples == total, || {
            format!(
                "streamed {} and fleet {fleet_samples} of {total} samples",
                export.samples_streamed
            )
        });

    let (profile, object_profile_s) = ctx.spans.time("session.object_profile", id, || {
        session.object_profile().expect("the object-centric collector is registered")
    });
    let (local, evaluate_s) = ctx.spans.time("query.evaluate", id, || {
        ctx.query
            .evaluate(std::slice::from_ref(&profile))
            .expect("a profile answers queries")
    });
    (rep.object_profile_s, rep.evaluate_s) = (object_profile_s, evaluate_s);
    rep.attributed = attributed_frac(&profile);
    rep.sites = profile.sites.len() as f64;
    ctx.checks
        .check(last.to_text() == local.to_text() && last.to_json() == local.to_json(), || {
            "the final fleet query differs from the same query over the producer's profile".into()
        });
    let (cold, aggregator_query_s) = ctx.spans.time("aggregator.query", id, || {
        aggregator.query(&ctx.query).expect("the aggregator answers queries")
    });
    let (current, render_s) = ctx.spans.time("live.render", id, || live.current());
    ctx.checks.check(
        current.result.to_text() == cold.to_text() && current.result.to_json() == cold.to_json(),
        || "the live watch differs from a cold aggregator query".into(),
    );
    ctx.checks.attempted += load.attempted;
    ctx.checks.failed += load.failed;

    let marks = std::mem::take(&mut *marker.marks.lock().expect("marker lock"));
    let (freshness_ms, unseen) = freshness(&marks, &updates);
    ctx.checks
        .check(unseen == 0, || format!("{unseen} freshness markers never became visible"));

    aggregator.shutdown();
    let wire = wire_cost(&wal_dir, time_wire, &mut ctx.checks);
    if let Err(e) = fs::remove_dir_all(&wal_dir) {
        eprintln!("perfbench: cannot remove {}: {e}", wal_dir.display());
    }
    rep.fleet = Some(FleetRep {
        freshness_ms,
        query_ms: load.latency_ms,
        late_ms: load.late_ms,
        export,
        finish_s,
        aggregator_query_s,
        render_s,
        updates: updates.len() as u64,
        samples: total,
        frames: status.iter().map(|p| p.frames_received).sum(),
        bytes: status.iter().map(|p| p.bytes_received).sum(),
        wal_bytes: status.iter().map(|p| p.wal_bytes).sum(),
        resumes: status.iter().map(|p| p.resumes).sum(),
        duplicates: status.iter().map(|p| p.duplicates).sum(),
        wire,
    });
    rep
}

/// The live dashboard: renders every watch update until told to stop, and
/// records when each became visible and how many samples it showed.
fn watch_updates(mut live: LiveQuery, stop: &AtomicBool) -> (LiveQuery, Vec<(Instant, u64)>) {
    let mut updates = Vec::new();
    loop {
        match live.next_epoch_timeout(Duration::from_millis(20)) {
            Ok(Some(update)) => updates.push((Instant::now(), update.result.total_samples)),
            Ok(None) => break,
            Err(WatchTimeout) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    (live, updates)
}

/// Open loop: query `i` is due at `i / QUERY_RATE_HZ` after the start whatever
/// happened to earlier ones, and its latency counts from that due time.
fn query_load(
    mut client: FleetClient,
    query: &Query,
    stop: &AtomicBool,
    spans: &SpanLog,
    rep: usize,
) -> QueryLoad {
    let interval = Duration::from_secs_f64(1.0 / QUERY_RATE_HZ);
    let start = Instant::now();
    let mut load = QueryLoad::default();
    for i in 0u32.. {
        let due = start + interval * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        load.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let (answer, _) = spans.time("client.query", rep, || client.query(query));
        let latency = due.elapsed();
        load.attempted += 1;
        match answer {
            Ok(result) if !result.text.is_empty() && latency <= QUERY_DEADLINE => {
                load.latency_ms.push(latency.as_secs_f64() * 1e3)
            }
            _ => load.failed += 1,
        }
    }
    load
}

/// Freshness of each marker `(t, n)`: the time from `t` until the first watch
/// update showing at least `n` samples. Returns the latencies in ms and how many
/// markers no update ever showed.
fn freshness(marks: &[(Instant, u64)], updates: &[(Instant, u64)]) -> (Vec<f64>, u64) {
    let mut latencies = Vec::with_capacity(marks.len());
    let mut unseen = 0;
    for &(taken, samples) in marks.iter().filter(|m| m.1 > 0) {
        match updates.get(updates.partition_point(|u| u.1 < samples)) {
            Some(&(shown, _)) => {
                latencies.push(shown.saturating_duration_since(taken).as_secs_f64() * 1e3)
            }
            None => unseen += 1,
        }
    }
    (latencies, unseen)
}

/// Re-runs the wire and fold layers over the frames an execution's WAL holds:
/// decodes them with `BinaryFrameReader`, re-encodes every delta with
/// `BinaryChunkedSink`, and folds the deltas into a fresh `DeltaFold`. Timing
/// (`timed`) takes the median ns per frame over `WIRE_PASSES` passes.
fn wire_cost(wal_dir: &Path, timed: bool, checks: &mut Checks) -> Wire {
    let mut wire = Wire::default();
    let wal = fs::read_dir(wal_dir)
        .ok()
        .and_then(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|x| x == "wal"))
        })
        .and_then(|path| fs::read(path).ok());
    let Some(data) = wal else {
        checks.check(false, || format!("no readable WAL under {}", wal_dir.display()));
        return wire;
    };
    // The WAL is one JSON header line followed by binary frames.
    let body = data.iter().position(|&b| b == b'\n').map_or(&data[..0], |end| &data[end + 1..]);
    let decode = |body: &[u8]| -> Result<(usize, Vec<ProfileDelta>), String> {
        let mut reader = BinaryFrameReader::new(body);
        let (mut frames, mut deltas) = (0, Vec::new());
        while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
            frames += 1;
            if let LogRecord::Delta(delta) = record {
                deltas.push(delta);
            }
        }
        Ok((frames, deltas))
    };
    let (frames, deltas) = match decode(body) {
        Ok(decoded) => decoded,
        Err(e) => {
            checks.check(false, || format!("WAL does not decode: {e}"));
            return wire;
        }
    };
    checks.check(!deltas.is_empty(), || "the WAL holds no delta frames".into());
    wire.bytes_per_frame = body.len() as f64 / frames.max(1) as f64;
    let sites: usize = deltas.iter().flat_map(|d| &d.threads).map(|t| t.profile.sites.len()).sum();
    wire.sites_per_delta = sites as f64 / deltas.len().max(1) as f64;
    if timed {
        let per_frame = |frames: usize, pass: &dyn Fn()| {
            let passes: Vec<f64> = (0..WIRE_PASSES)
                .map(|_| {
                    let start = Instant::now();
                    pass();
                    start.elapsed().as_nanos() as f64 / frames.max(1) as f64
                })
                .collect();
            median(&passes)
        };
        wire.decode_ns = per_frame(frames, &|| {
            std::hint::black_box(decode(body).ok());
        });
        let sink = BinaryChunkedSink::new();
        wire.encode_ns = per_frame(deltas.len(), &|| {
            let mut out = Vec::new();
            for delta in &deltas {
                out.clear();
                sink.on_delta(delta.epoch, delta, &mut out)
                    .expect("encoding into memory cannot fail");
                std::hint::black_box(&out);
            }
        });
        wire.absorb_ns = per_frame(deltas.len(), &|| {
            let mut fold = DeltaFold::new();
            for delta in &deltas {
                fold.absorb_ordered(delta).expect("WAL deltas are in epoch order");
            }
            std::hint::black_box(fold.total_samples());
        });
    }
    wire
}

fn profiled(ctx: &mut Ctx, fleet: bool, traced: Option<&Arc<CallStats>>, time_wire: bool) -> Rep {
    if fleet {
        profiled_fleet(ctx, traced, time_wire)
    } else {
        profiled_local(ctx, traced)
    }
}

fn med<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.into_iter().map(f).collect::<Vec<_>>())
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Outcome {
    let kind = opts.kind;
    let streams = kind.streams();
    let workload = kind.workload(opts.seed, opts.scale);
    let work = opts.out_dir.join(format!("work-{}", std::process::id()));
    fs::create_dir_all(&work).expect("create the work directory");
    let mut ctx = Ctx {
        workload: &*workload,
        config: ProfilerConfig::default().with_period(kind.period()),
        query: Query::new().top(20),
        spans: SpanLog::new(),
        work,
        marker_every: 1,
        checks: Checks::default(),
        reps: 0,
    };

    // Unmeasured warm-up: first executions pay page faults and allocator growth.
    // It also sizes the freshness-marker interval from the workload's accesses.
    let warm = run_plain(ctx.workload, streams.then_some(u64::MAX));
    ctx.marker_every = (warm.stats.accesses / MARKS_PER_REP).max(1);
    profiled(&mut ctx, streams, None, false);

    let timer_ns = if opts.trace { trace::calibrate() } else { 0.0 };
    let calls = Arc::new(CallStats::default());
    let plain_marker = streams.then_some(ctx.marker_every);
    let (mut pairs, mut traced, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while pairs.len() < MIN_PAIRS || Instant::now() < deadline {
        // Alternate which side of a pair runs first, so slow drift cancels.
        let (plain, rep) = if pairs.len() % 2 == 0 {
            let plain = run_plain(ctx.workload, plain_marker);
            (plain, profiled(&mut ctx, streams, None, opts.trace))
        } else {
            let rep = profiled(&mut ctx, streams, None, opts.trace);
            (run_plain(ctx.workload, plain_marker), rep)
        };
        ctx.checks.check(same_work(&plain.stats, &rep.stats), || {
            "profiled and unprofiled executions did different work".into()
        });
        if opts.trace {
            traced.push(profiled(&mut ctx, streams, Some(&calls), false));
            if !streams {
                probes.push(profiled(&mut ctx, true, None, true));
            }
        }
        pairs.push((plain, rep));
    }
    if let Err(e) = fs::remove_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot remove {}: {e}", ctx.work.display());
    }

    let reps: Vec<&Rep> = pairs.iter().map(|(_, rep)| rep).collect();
    let streamed: Vec<&Rep> = if streams { reps.clone() } else { probes.iter().collect() };
    let fleet: Vec<&FleetRep> = streamed.iter().filter_map(|r| r.fleet.as_ref()).collect();
    let cache_hit_frac = med(reps.iter().copied(), |r| {
        r.lookups.cache_hits as f64 / r.lookups.cache_lookups.max(1) as f64
    });
    let sites_per_delta = median(&fleet.iter().map(|f| f.wire.sites_per_delta).collect::<Vec<_>>());
    println!(
        "{} seed {}: {} pairs, {} traced, {} streamed probes",
        kind.name(),
        opts.seed,
        pairs.len(),
        traced.len(),
        probes.len()
    );
    if kind != Kind::AllocChurn {
        println!(
            "site-fanout seed {}: sites {}, live monitored {}, cache hit frac {:.4}, sites per delta {}",
            opts.seed,
            med(reps.iter().copied(), |r| r.sites),
            med(reps.iter().copied(), |r| r.live_monitored),
            cache_hit_frac,
            if fleet.is_empty() { "-".to_string() } else { format!("{sites_per_delta:.1}") },
        );
    }

    let mut m: Vec<(&'static str, f64)> = Vec::new();
    if !opts.trace {
        // Apart from setup_s, every end-to-end metric is a ratio within a pair: a
        // shared 2-vCPU host can shift between speed levels ~1.45x apart for
        // minutes at a time, which moves absolute times between runs but not
        // these ratios.
        let per_pair = |f: &dyn Fn(&Plain, &Rep) -> f64| {
            median(&pairs.iter().map(|(p, r)| f(p, r)).collect::<Vec<_>>())
        };
        m.push(("setup_s", med(reps.iter().copied(), |r| r.setup)));
        m.push(("overhead_x", per_pair(&|p, r| r.run / p.wall)));
        m.push(("mem_overhead_x", med(reps.iter().copied(), |r| r.mem_x)));
        m.push(("report_frac", per_pair(&|p, r| r.report / p.wall)));
        m.push(("attributed_frac", med(reps.iter().copied(), |r| r.attributed)));
    } else {
        let per_rep = |call| calls.calls(call) as f64 / traced.len().max(1) as f64;
        let ns = |call| calls.mean_ns(call, timer_ns);
        for (call, count_name, ns_name) in [
            (Call::AccessHit, "session.access_hit.calls", "session.access_hit.ns"),
            (Call::AccessMiss, "session.access_miss.calls", "session.access_miss.ns"),
            (Call::Alloc, "session.alloc.calls", "session.alloc.ns"),
            (Call::Reclaim, "session.reclaim.calls", "session.reclaim.ns"),
            (Call::Move, "session.move.calls", "session.move.ns"),
            (Call::GcEnd, "session.gc_end.calls", "session.gc_end.ns"),
        ] {
            m.push((count_name, per_rep(call)));
            m.push((ns_name, ns(call)));
        }
        let samples = med(traced.iter(), |r| r.samples as f64);
        m.push((
            "session.per_sample_ns",
            per_rep(Call::AccessMiss) * (ns(Call::AccessMiss) - ns(Call::AccessHit))
                / samples.max(1.0),
        ));
        let session_s: f64 = Call::ALL.iter().map(|&c| per_rep(c) * ns(c)).sum::<f64>() * 1e-9;
        let untraced_s = med(reps.iter().copied(), |r| r.run);
        let plain_s = median(&pairs.iter().map(|(p, _)| p.wall).collect::<Vec<_>>());
        m.push(("trace.overhead_x", med(traced.iter(), |r| r.run) / untraced_s));
        m.push(("trace.unexplained_frac", 1.0 - session_s / (untraced_s - plain_s)));
        m.push(("trace.timer_ns", timer_ns));
        m.push(("run_s", untraced_s));
        m.push(("report_s", med(reps.iter().copied(), |r| r.report)));
        m.push(("session.footprint_bytes", med(reps.iter().copied(), |r| r.footprint)));
        m.push((
            "session.object_profile_ms",
            med(reps.iter().copied(), |r| r.object_profile_s) * 1e3,
        ));
        m.push(("query.evaluate_ms", med(reps.iter().copied(), |r| r.evaluate_s) * 1e3));
        m.push(("agent.cache_hit_frac", cache_hit_frac));
        m.push((
            "agent.cache_lookups",
            med(reps.iter().copied(), |r| r.lookups.cache_lookups as f64),
        ));
        m.push(("agent.splay_lookups", med(reps.iter().copied(), |r| r.lookups.lookups as f64)));
        m.push(("agent.monitored", med(reps.iter().copied(), |r| r.monitored)));
        m.push(("agent.live_monitored", med(reps.iter().copied(), |r| r.live_monitored)));
        m.push(("workload.sites", med(reps.iter().copied(), |r| r.sites)));

        let fmed =
            |f: &dyn Fn(&FleetRep) -> f64| median(&fleet.iter().map(|x| f(x)).collect::<Vec<_>>());
        m.push(("export.deltas", fmed(&|f| f.export.deltas_streamed as f64)));
        m.push(("export.epochs_drained", fmed(&|f| f.export.epochs_drained as f64)));
        m.push(("export.coalesced", fmed(&|f| f.export.coalesced as f64)));
        m.push(("export.blocked", fmed(&|f| f.export.blocked as f64)));
        m.push(("export.finish_ms", fmed(&|f| f.finish_s) * 1e3));
        m.push(("export.sites_per_delta", sites_per_delta));
        m.push(("wire.encode_ns_per_frame", fmed(&|f| f.wire.encode_ns)));
        m.push(("wire.decode_ns_per_frame", fmed(&|f| f.wire.decode_ns)));
        m.push(("wire.bytes_per_frame", fmed(&|f| f.wire.bytes_per_frame)));
        m.push(("fold.absorb_ns_per_frame", fmed(&|f| f.wire.absorb_ns)));
        let bytes: u64 = fleet.iter().map(|f| f.bytes).sum();
        let samples: u64 = fleet.iter().map(|f| f.samples).sum();
        m.push(("wire_bytes_per_sample", bytes as f64 / samples.max(1) as f64));
        m.push(("fleet.frames", fmed(&|f| f.frames as f64)));
        m.push(("fleet.bytes", fmed(&|f| f.bytes as f64)));
        m.push(("fleet.wal_bytes", fmed(&|f| f.wal_bytes as f64)));
        m.push(("fleet.resumes", fmed(&|f| f.resumes as f64)));
        m.push(("fleet.duplicates", fmed(&|f| f.duplicates as f64)));
        let freshness: Vec<f64> =
            fleet.iter().flat_map(|f| f.freshness_ms.iter().copied()).collect();
        m.push(("freshness_p50_ms", quantile(&freshness, 0.5)));
        m.push(("freshness_p99_ms", quantile(&freshness, 0.99)));
        m.push(("freshness.markers", freshness.len() as f64));
        let latency: Vec<f64> = fleet.iter().flat_map(|f| f.query_ms.iter().copied()).collect();
        let late: Vec<f64> = fleet.iter().flat_map(|f| f.late_ms.iter().copied()).collect();
        m.push(("query_p50_ms", quantile(&latency, 0.5)));
        m.push(("query_p99_ms", quantile(&latency, 0.99)));
        m.push(("query.count", latency.len() as f64));
        m.push(("query.late_ms", median(&late)));
        m.push(("query.aggregator_ms", fmed(&|f| f.aggregator_query_s) * 1e3));
        m.push(("live.updates", fmed(&|f| f.updates as f64)));
        m.push(("live.render_us", fmed(&|f| f.render_s) * 1e6));
        let plain = &pairs[0].0.stats;
        m.push(("runtime.unprofiled_s", plain_s));
        m.push(("runtime.accesses", plain.accesses as f64));
        m.push(("runtime.allocations", plain.allocations as f64));
        m.push(("runtime.gc_cycles", plain.gc_cycles as f64));
        m.push(("runtime.objects_moved", plain.objects_moved as f64));

        let log = opts.out_dir.join(format!("trace-{}-seed{}.jsonl", kind.name(), opts.seed));
        if let Err(e) = fs::write(&log, ctx.spans.to_jsonl() + &calls.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", log.display());
        }
    }

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    assert!(
        m.iter().all(|(n, _)| table.iter().any(|(t, _)| t == n)),
        "every emitted metric is declared"
    );
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            ctx.checks.check(value.is_some_and(f64::is_finite), || {
                format!("metric {name} is missing or not finite")
            });
            (name, value.filter(|v| v.is_finite()).unwrap_or(0.0), unit)
        })
        .collect();
    Outcome {
        correct: ctx.checks.failed == 0,
        attempted: ctx.checks.attempted,
        failed: ctx.checks.failed,
        metrics,
    }
}
