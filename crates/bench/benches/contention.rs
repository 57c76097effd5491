//! Contention gates: sample ingestion and the analysis hot paths, as one table.
//!
//! [`GATES`] is the whole bench. Each entry names a gate, the rows it measures (a
//! [`Pipe`] at a thread count, all at the entry's accesses and best-of reps) and the
//! ratios it checks, each as `(json key, numerator row, denominator row, threads,
//! floor)`. One loop in [`main`] measures the selected entries, prints the rows as a
//! Figure-4-style table followed by the ratios, writes every row and ratio to
//! `BENCH_CONTENTION_OUT`, and exits 1 when a ratio misses its floor.
//!
//! * `--smoke-<gate>` runs one entry and gates it (what CI runs, one step per gate).
//!   A name not in the table exits 2 and lists the gates.
//! * `--quick`, or no flag, runs every entry plus [`REPORT_ONLY`] (the 8-thread and
//!   GC-churn cache rows) and only reports: no floor fails the run. It writes
//!   `BENCH_contention.json` at the workspace root unless `BENCH_CONTENTION_OUT`
//!   names another path.
//!
//! Ingest rows replay identical precomputed access streams through a real
//! [`Session`], so within an entry the only variable is the pipeline:
//!
//! * **substrate** rows (`sharded`, `cached`) are collector-free sessions sampling
//!   every counted event ([`SUBSTRATE_PERIOD`] = 1), with the per-thread
//!   [`ResolutionCache`](djxperf::ResolutionCache) off or on. They isolate PMU
//!   observation plus address resolution, the stage the cache optimizes. The `-churn`
//!   rows add a background thread that relocates hot objects at GC end, invalidating
//!   cache entries at a rate no real collector approaches.
//! * **full** rows run all three built-in collectors: `stream-off` with no export,
//!   `stream-on` with a [`DeltaDrainer`](djxperf::DeltaDrainer) writing the binary
//!   epoch log into `io::sink()`, and `fleet-on`/`wal-off`/`wal-on` shipping every
//!   retired delta over a loopback socket to a [`FleetAggregator`] without or with a
//!   write-ahead log (`FsyncPolicy::Never`).
//!
//! The access streams are **hot-object skewed** (⅞ of accesses hit a few hot objects
//! per thread), the distribution object-centric profiling exploits. By the
//! region-interleaved shard routing, the same hot-object index of every thread lands
//! on the *same shard*, so the uncached pipeline's hot shard takes cross-thread lock
//! transfers and splay-root thrashing that the cache never sees.
//!
//! The other rows time the analysis side: `query-eval` (`Query::evaluate` over a wide
//! snapshot) against `analyze-legacy` (an in-bench reconstruction of the pre-query
//! analyzer's aggregation), `live-watch` (a `top(32)` watch whose groups update
//! incrementally and rank at render) against `poll-evaluate` (a full re-evaluation
//! per tick) on a 10k-site fold, and `wal-replay` (`FleetAggregator::recover` over
//! a ~20k-frame WAL, timed once).

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::{
    AccessKind, AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy, NumaNode,
};
use djx_pmu::{PmuEvent, Sample};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcEvent, GcId, MemoryAccessEvent, MethodId, ObjectId,
    ObjectMoveEvent, RuntimeListener, ThreadId,
};
use djxperf::{
    AccessContext, AllocSite, AllocSiteId, DrainPolicy, FleetAggregator, FleetSink, FsyncPolicy,
    LiveFold, MetricVector, ObjectCentricProfile, ProfileDelta, ProfileSink, Query, RankBy,
    Session, SessionBuilder, ThreadDelta, ThreadProfile,
};

const MULTI_THREADS: u64 = 4;
const WIDE_THREADS: u64 = 8;
const OBJECTS_PER_THREAD: u64 = 2048;
/// Hot set per thread: ⅞ of accesses land on these objects.
const HOT_OBJECTS: u64 = 16;
/// Hot objects are spaced [`INDEX_SHARDS`] object slots apart, so — regions
/// interleaving round-robin — **every hot object of every thread routes to the same
/// shard**: the adversarial case for the uncached pipeline (alternating hot lookups
/// restructure that shard's splay tree on every sample, under one contended lock)
/// and the representative case for the cache (each hot region keeps its own slot).
const HOT_STRIDE: u64 = INDEX_SHARDS as u64;
const OBJECT_SIZE: u64 = 8 * 1024;
/// Sampling period of the full (three-collector) pipelines.
const FULL_PERIOD: u64 = 8;
/// Sampling period of the substrate pipelines: 1, so every counted event resolves —
/// the pure stress of the resolution stage.
const SUBSTRATE_PERIOD: u64 = 1;
/// Sampling period of the fleet and WAL rows (both sides of each ratio). These gates
/// measure *producer-side* ingest overhead of the socket transport at a
/// deployment-realistic cadence (production default is 512); under the stress
/// period a single-core runner time-slices the aggregator's decode+fold onto the
/// ingest core and the row measures aggregator CPU instead of producer overhead.
const FLEET_PERIOD: u64 = 64;
/// Index shard count pinned on every session so the resolution cache is the only
/// variable between `sharded` and `cached`.
const INDEX_SHARDS: usize = 16;
/// Churn relocation target: far inside the owning thread's arena, outside the accessed
/// object range.
const SHADOW_OFFSET: u64 = 0x800_0000;
/// GC-relocation rounds per churn run, per 100k accesses (fixed work, so churned runs
/// of different pipelines stay comparable).
const CHURN_ROUNDS_PER_100K: u64 = 2_000;
/// Frames in the WAL the `wal-replay` row recovers.
const REPLAY_FRAMES: u64 = 20_000;

// -----------------------------------------------------------------------------------
// The gate table
// -----------------------------------------------------------------------------------

/// One table entry: a gate and everything it measures and checks.
struct Gate {
    /// `--smoke-<name>` runs this entry alone.
    name: &'static str,
    /// What the gate guards, printed as the entry's heading.
    title: &'static str,
    /// Accesses per thread for ingest rows; evaluations or ticks per rep otherwise.
    accesses: u64,
    /// Each row reports its best wall clock over this many reps.
    reps: usize,
    /// Measured in order.
    rows: &'static [Row],
    ratios: &'static [Ratio],
}

struct Row {
    name: &'static str,
    pipe: Pipe,
    threads: u64,
}

/// `throughput(numerator @ threads) / throughput(denominator @ threads)`, or the
/// numerator's own throughput when there is no denominator.
struct Ratio {
    key: &'static str,
    numerator: &'static str,
    denominator: Option<&'static str>,
    threads: u64,
    /// `None` reports the value without gating it.
    floor: Option<f64>,
}

#[derive(Clone, Copy)]
enum Pipe {
    /// Ingest of the precomputed access streams through a session.
    Ingest(Ingest),
    /// `FleetAggregator::recover` over a [`REPLAY_FRAMES`]-frame WAL, timed once.
    WalReplay,
    /// [`legacy_analyze`] over the wide query profile.
    LegacyAnalyze,
    /// `Query::new().evaluate` over the same profile.
    QueryEval,
    /// A watched `top(32)` absorbing a 64-site delta per tick.
    LiveWatch,
    /// The same ticks with a full `Query::evaluate` per tick.
    PollEvaluate,
}

#[derive(Clone, Copy)]
enum Ingest {
    /// Collector-free session at [`SUBSTRATE_PERIOD`]; `churn` adds the relocation
    /// thread.
    Substrate { cache: bool, churn: bool },
    /// The three-collector session at `period`, no export.
    Full { period: u64 },
    /// The three-collector session at [`FULL_PERIOD`], streaming the binary epoch log
    /// into `io::sink()` (5 ms tick, coalescing backpressure).
    Stream,
    /// The three-collector session at [`FLEET_PERIOD`], streaming to a loopback
    /// aggregator with or without a WAL.
    Fleet { wal: bool },
}

const SHARDED: Pipe = Pipe::Ingest(Ingest::Substrate { cache: false, churn: false });
const CACHED: Pipe = Pipe::Ingest(Ingest::Substrate { cache: true, churn: false });
const STREAM_OFF: Pipe = Pipe::Ingest(Ingest::Full { period: FULL_PERIOD });
const STREAM_ON: Pipe = Pipe::Ingest(Ingest::Stream);
const FLEET_OFF: Pipe = Pipe::Ingest(Ingest::Full { period: FLEET_PERIOD });
const FLEET_ON: Pipe = Pipe::Ingest(Ingest::Fleet { wal: false });
const WAL_ON: Pipe = Pipe::Ingest(Ingest::Fleet { wal: true });

const fn row(name: &'static str, pipe: Pipe, threads: u64) -> Row {
    Row { name, pipe, threads }
}

const fn gate(
    key: &'static str,
    numerator: &'static str,
    denominator: &'static str,
    threads: u64,
    floor: f64,
) -> Ratio {
    Ratio { key, numerator, denominator: Some(denominator), threads, floor: Some(floor) }
}

const fn report(
    key: &'static str,
    numerator: &'static str,
    denominator: &'static str,
    threads: u64,
) -> Ratio {
    Ratio { key, numerator, denominator: Some(denominator), threads, floor: None }
}

/// Rows of the `--quick` run that no gate reads.
const REPORT_ONLY: Gate = Gate {
    name: "report",
    title: "cache at 8 threads and under GC-relocation churn (report only)",
    accesses: 150_000,
    reps: 2,
    rows: &[
        row("sharded", SHARDED, WIDE_THREADS),
        row("cached", CACHED, WIDE_THREADS),
        row(
            "sharded-churn",
            Pipe::Ingest(Ingest::Substrate { cache: false, churn: true }),
            MULTI_THREADS,
        ),
        row(
            "cached-churn",
            Pipe::Ingest(Ingest::Substrate { cache: true, churn: true }),
            MULTI_THREADS,
        ),
    ],
    ratios: &[
        report("cached_wide_thread_speedup", "cached", "sharded", WIDE_THREADS),
        report("gc_churn_ratio", "cached-churn", "sharded-churn", MULTI_THREADS),
    ],
};

const GATES: &[Gate] = &[
    // The cache's floors sit under its acceptance targets (1.5x multi-thread, 0.95
    // single-thread) so an oversubscribed runner does not flake while a real
    // regression still fails.
    Gate {
        name: "cached",
        title: "cached resolution fast path",
        accesses: 150_000,
        reps: 2,
        rows: &[
            row("sharded", SHARDED, 1),
            row("cached", CACHED, 1),
            row("sharded", SHARDED, MULTI_THREADS),
            row("cached", CACHED, MULTI_THREADS),
        ],
        ratios: &[
            gate("cached_multi_thread_speedup", "cached", "sharded", MULTI_THREADS, 1.20),
            gate("cached_single_thread_ratio", "cached", "sharded", 1, 0.85),
        ],
    },
    // Export drains are off the ingest path, so the expected ratio is ~1.0 and there
    // is no structural speedup to absorb runner noise: more, shorter reps let the
    // best of each side converge on the scheduler's good case.
    Gate {
        name: "streaming",
        title: "streaming export overhead",
        accesses: 100_000,
        reps: 7,
        rows: &[
            row("stream-off", STREAM_OFF, 1),
            row("stream-on", STREAM_ON, 1),
            row("stream-off", STREAM_OFF, MULTI_THREADS),
            row("stream-on", STREAM_ON, MULTI_THREADS),
        ],
        ratios: &[
            gate("streaming_multi_thread_ratio", "stream-on", "stream-off", MULTI_THREADS, 0.90),
            gate("streaming_single_thread_ratio", "stream-on", "stream-off", 1, 0.90),
        ],
    },
    // Every analysis consumer routes through Query, so query evaluation stays within
    // 1.10x of the analyzer it replaced.
    Gate {
        name: "query",
        title: "query evaluation vs the legacy analyzer",
        accesses: 30,
        reps: 7,
        rows: &[
            row("analyze-legacy", Pipe::LegacyAnalyze, QUERY_THREADS),
            row("query-eval", Pipe::QueryEval, QUERY_THREADS),
        ],
        ratios: &[gate(
            "query_vs_legacy_ratio",
            "query-eval",
            "analyze-legacy",
            QUERY_THREADS,
            1.0 / 1.10,
        )],
    },
    // A fleet sink (sync ack per frame, coalescing drainer) must not block epoch
    // retirement: within 1.10x of the same session without export.
    Gate {
        name: "fleet",
        title: "fleet transport overhead",
        accesses: 100_000,
        reps: 7,
        rows: &[
            row("stream-off", FLEET_OFF, 1),
            row("fleet-on", FLEET_ON, 1),
            row("stream-off", FLEET_OFF, MULTI_THREADS),
            row("fleet-on", FLEET_ON, MULTI_THREADS),
        ],
        ratios: &[
            gate("fleet_multi_thread_ratio", "fleet-on", "stream-off", MULTI_THREADS, 1.0 / 1.10),
            gate("fleet_single_thread_ratio", "fleet-on", "stream-off", 1, 1.0 / 1.10),
        ],
    },
    // Durability stays an aggregator-disk concern (WAL-on ingest within 1.15x of
    // WAL-off), and restart cost is proportional to the log, not to the outage.
    Gate {
        name: "recovery",
        title: "WAL ingest overhead and recovery replay",
        accesses: 100_000,
        reps: 7,
        rows: &[
            row("wal-off", FLEET_ON, 1),
            row("wal-on", WAL_ON, 1),
            row("wal-off", FLEET_ON, MULTI_THREADS),
            row("wal-on", WAL_ON, MULTI_THREADS),
            row("wal-replay", Pipe::WalReplay, 1),
        ],
        ratios: &[
            gate("wal_multi_thread_ratio", "wal-on", "wal-off", MULTI_THREADS, 1.0 / 1.15),
            gate("wal_single_thread_ratio", "wal-on", "wal-off", 1, 1.0 / 1.15),
            Ratio {
                key: "recovery_replay_frames_per_sec",
                numerator: "wal-replay",
                denominator: None,
                threads: 1,
                floor: Some(100_000.0),
            },
        ],
    },
    // One dashboard tick (absorb a small delta, render the watched top(32)) at least
    // 5x cheaper than what a poll loop pays on a 10k-site profile.
    Gate {
        name: "live",
        title: "live watch vs per-tick re-evaluation",
        accesses: 50,
        reps: 5,
        rows: &[row("live-watch", Pipe::LiveWatch, 1), row("poll-evaluate", Pipe::PollEvaluate, 1)],
        ratios: &[gate("live_query_tick_speedup", "live-watch", "poll-evaluate", 1, 5.0)],
    },
];

// -----------------------------------------------------------------------------------
// Ingest rows: precomputed access streams through a session
// -----------------------------------------------------------------------------------

struct ThreadLog {
    thread: ThreadId,
    base: u64,
    outcomes: Vec<AccessOutcome>,
    call_trace: Vec<Frame>,
}

fn build_logs(threads: u64, accesses: u64) -> Vec<ThreadLog> {
    (0..threads)
        .map(|t| {
            let base = 0x1000_0000 + t * 0x1000_0000;
            let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
            let mut x = 0x853c49e6748fea9bu64 ^ t.wrapping_mul(0x9e3779b97f4a7c15);
            let outcomes = (0..accesses)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // Hot-object skew: ⅞ of accesses hit the thread's HOT_OBJECTS
                    // hottest objects (all routed to one shard; see HOT_STRIDE), the
                    // rest sweep the whole arena.
                    let obj = if (x >> 61) != 0 {
                        ((x >> 33) % HOT_OBJECTS) * HOT_STRIDE
                    } else {
                        (x >> 33) % OBJECTS_PER_THREAD
                    };
                    let addr = base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
                    hierarchy.access(MemoryAccess::load(0, addr, 8))
                })
                .collect();
            ThreadLog {
                thread: ThreadId(t + 1),
                base,
                outcomes,
                call_trace: vec![Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)],
            }
        })
        .collect()
}

struct SessionPipeline {
    session: Arc<Session>,
}

impl SessionPipeline {
    fn new(ingest: Ingest, fixtures: &Fixtures) -> Self {
        let base = Session::builder().index_shards(INDEX_SHARDS);
        let full = |base: SessionBuilder, period| {
            base.period(period).collect_objects().collect_code().collect_numa()
        };
        let policy = DrainPolicy::new().capacity(8).coalesce().tick(Duration::from_millis(5));
        let builder = match ingest {
            Ingest::Substrate { cache, .. } => {
                base.period(SUBSTRATE_PERIOD).resolution_cache(cache)
            }
            Ingest::Full { period } => full(base, period),
            Ingest::Stream => {
                full(base, FULL_PERIOD).stream_to_binary(Box::new(io::sink()), policy)
            }
            Ingest::Fleet { wal } => {
                full(base, FLEET_PERIOD).stream_to_fleet(Arc::new(fixtures.fleet_sink(wal)), policy)
            }
        };
        Self { session: builder.build() }
    }

    fn object_id(thread: ThreadId, index: u64) -> ObjectId {
        ObjectId((thread.0 - 1) * OBJECTS_PER_THREAD + index + 1)
    }

    fn alloc(&self, log: &ThreadLog) {
        for i in 0..OBJECTS_PER_THREAD {
            self.session.on_object_alloc(&AllocationEvent {
                object: Self::object_id(log.thread, i),
                class: ClassId(0),
                class_name: "bench[]",
                start: log.base + i * OBJECT_SIZE,
                size: OBJECT_SIZE,
                thread: log.thread,
                call_trace: &log.call_trace,
            });
        }
    }

    fn access(&self, log: &ThreadLog, outcome: &AccessOutcome) {
        self.session.on_memory_access(&MemoryAccessEvent {
            thread: log.thread,
            outcome: *outcome,
            call_trace: &log.call_trace,
            object: None,
        });
    }

    /// One adversarial GC-relocation round: relocate one (hot) object per arena out
    /// to a shadow range and back, each half applied at a GC end. Epochs on both
    /// ranges' shards bump, every cached entry for the object invalidates, and the
    /// index returns to its baseline so rounds compose indefinitely.
    fn churn_step(&self, logs: &[ThreadLog], round: u64) {
        let index = (round % HOT_OBJECTS) * HOT_STRIDE;
        for (half, flip) in [(0u64, false), (1, true)] {
            // One GC id per half, shared by the moves and their matching GC end.
            let gc = GcId(round * 2 + half);
            for log in logs {
                let home = log.base + index * OBJECT_SIZE;
                let (old_addr, new_addr) =
                    if flip { (home + SHADOW_OFFSET, home) } else { (home, home + SHADOW_OFFSET) };
                self.session.on_object_move(&ObjectMoveEvent {
                    gc,
                    object: Self::object_id(log.thread, index),
                    old_addr,
                    new_addr,
                    size: OBJECT_SIZE,
                });
            }
            self.session.on_gc_end(&GcEvent {
                gc,
                heap_used: 0,
                objects_moved: logs.len() as u64,
                objects_reclaimed: 0,
            });
        }
    }

    fn cache_hit_rate(&self) -> Option<f64> {
        let stats = self.session.splay_lookup_stats();
        (stats.cache_lookups > 0).then(|| stats.cache_hit_fraction())
    }
}

/// Allocates every arena, then replays each thread's stream on its own OS thread.
/// With `churn_rounds > 0`, a concurrent thread performs that **fixed** number of
/// GC-relocation rounds (fixed work keeps churned runs of different pipelines
/// comparable) and the wall clock covers both.
fn run_once(pipeline: &SessionPipeline, logs: &[ThreadLog], churn_rounds: u64) -> Duration {
    for log in logs {
        pipeline.alloc(log);
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for log in logs {
            scope.spawn(|| {
                for outcome in &log.outcomes {
                    pipeline.access(log, outcome);
                }
            });
        }
        if churn_rounds > 0 {
            scope.spawn(|| {
                for round in 1..=churn_rounds {
                    pipeline.churn_step(logs, round);
                    if round % 64 == 0 {
                        // Let ingestion interleave on narrow machines instead of
                        // applying the whole relocation storm in one burst.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    start.elapsed()
}

fn measure_ingest(
    row: &Row,
    ingest: Ingest,
    accesses: u64,
    reps: usize,
    fixtures: &Fixtures,
) -> Measurement {
    let logs = build_logs(row.threads, accesses);
    let churn_rounds = match ingest {
        Ingest::Substrate { churn: true, .. } => {
            (accesses / 100_000).max(1) * CHURN_ROUNDS_PER_100K
        }
        _ => 0,
    };
    let mut best = Duration::MAX;
    let mut samples = 0;
    let mut cache_hit_rate = None;
    for _ in 0..reps {
        let pipeline = SessionPipeline::new(ingest, fixtures);
        best = best.min(run_once(&pipeline, &logs, churn_rounds));
        samples = pipeline.session.total_samples();
        cache_hit_rate = pipeline.cache_hit_rate();
    }
    Measurement {
        pipeline: row.name,
        threads: row.threads,
        accesses: row.threads * accesses,
        samples,
        best,
        cache_hit_rate,
    }
}

// -----------------------------------------------------------------------------------
// Shared fixtures
// -----------------------------------------------------------------------------------

/// What a run's rows share, each made on first use: the loopback aggregators the
/// fleet rows stream to, and the query and live-watch inputs (each sanity-checked
/// once, before anything is timed).
struct Fixtures {
    scratch: PathBuf,
    /// Producer names must be unique per aggregator: each session restarts its
    /// epochs at 1, which a resumed fold would reject.
    producers: Cell<u64>,
    plain: OnceCell<Loopback>,
    durable: OnceCell<Loopback>,
    query_profile: OnceCell<ObjectCentricProfile>,
    live_seed: OnceCell<ProfileDelta>,
}

struct Loopback {
    aggregator: FleetAggregator,
    addr: String,
}

impl Loopback {
    fn bind(wal: Option<&Path>) -> Self {
        let aggregator = match wal {
            Some(dir) => {
                FleetAggregator::builder().wal(dir, FsyncPolicy::Never).bind("127.0.0.1:0")
            }
            None => FleetAggregator::bind("127.0.0.1:0"),
        }
        .expect("loopback aggregator binds");
        let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
        Self { aggregator, addr }
    }
}

impl Fixtures {
    fn new() -> Self {
        let scratch =
            std::env::temp_dir().join(format!("djxperf-contention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        Self {
            scratch,
            producers: Cell::new(0),
            plain: OnceCell::new(),
            durable: OnceCell::new(),
            query_profile: OnceCell::new(),
            live_seed: OnceCell::new(),
        }
    }

    fn fleet_sink(&self, wal: bool) -> FleetSink {
        let loopback = if wal {
            self.durable
                .get_or_init(|| Loopback::bind(Some(&self.scratch.join("ingest-wal"))))
        } else {
            self.plain.get_or_init(|| Loopback::bind(None))
        };
        let id = self.producers.replace(self.producers.get() + 1);
        FleetSink::connect(
            &loopback.addr,
            &format!("bench{id}"),
            PmuEvent::DEFAULT,
            FLEET_PERIOD,
            1024,
        )
        .expect("loopback aggregator reachable")
    }

    /// The wide query profile, after checking that the query layer and the legacy
    /// aggregation agree on its ranking.
    fn query_profile(&self) -> &ObjectCentricProfile {
        self.query_profile.get_or_init(|| {
            let profile = build_query_profile();
            let legacy = legacy_analyze(&profile);
            let result = Query::new().evaluate(&profile).expect("owned profiles evaluate");
            assert_eq!(legacy.objects.len(), result.groups.len());
            for (object, group) in legacy.objects.iter().zip(&result.groups) {
                assert_eq!(object.class_name, group.label, "identical ranking");
                assert_eq!(object.metrics, group.metrics, "identical aggregation");
            }
            profile
        })
    }

    /// The 10k-site seed epoch, after checking that a watch and a cold evaluation
    /// agree byte for byte after every one of `ticks` ticks.
    fn live_seed(&self, ticks: u32) -> &ProfileDelta {
        self.live_seed.get_or_init(|| {
            let seed = live_delta(1, 0..LIVE_SITES);
            let query = live_query();
            let fold = LiveFold::new();
            fold.provide_sites(live_sites());
            let mut watch = query.watch(&fold);
            fold.absorb(&seed).expect("seed epoch folds");
            for tick in 0..ticks {
                fold.absorb(&live_tick_delta(tick)).expect("tick delta folds");
                let cold = query.evaluate(&fold.snapshot()).expect("cold evaluation");
                assert_eq!(
                    watch.current().result.to_text(),
                    cold.to_text(),
                    "live == cold per tick"
                );
            }
            seed
        })
    }

    /// Checks that every producer delivered its stream loss-free (and, with a WAL,
    /// left a non-empty log), then shuts the aggregators down.
    fn finish(self) {
        for (loopback, wal) in [(self.plain.into_inner(), false), (self.durable.into_inner(), true)]
        {
            for status in loopback.iter().flat_map(|l| l.aggregator.status()) {
                assert!(
                    status.finished && !status.truncated && (!wal || status.wal_bytes > 0),
                    "producer {} did not finish cleanly",
                    status.producer
                );
            }
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

// -----------------------------------------------------------------------------------
// Analysis rows
// -----------------------------------------------------------------------------------

/// Shape of the synthetic snapshot the query/analyzer comparison evaluates: wide
/// enough that aggregation cost dominates setup noise.
const QUERY_THREADS: u64 = 16;
const QUERY_SITES: u32 = 64;
const QUERY_CONTEXTS: u32 = 4;

fn bench_sample(addr: u64, remote: bool, latency: u64) -> Sample {
    Sample {
        event: PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(u32::from(remote)),
        effective_addr: addr,
        kind: AccessKind::Load,
        value: 1,
        latency,
        counter_value: 1,
    }
}

fn build_query_profile() -> ObjectCentricProfile {
    let sites: Vec<AllocSite> = (0..QUERY_SITES)
        .map(|s| AllocSite {
            id: AllocSiteId(s),
            class_name: format!("bench{s}[]"),
            call_path: vec![Frame::new(MethodId(s), 5), Frame::new(MethodId(s + 100), 2)],
        })
        .collect();
    let threads = (0..QUERY_THREADS)
        .map(|t| {
            let mut profile = ThreadProfile::new(ThreadId(t + 1), "query");
            for s in 0..QUERY_SITES {
                for c in 0..QUERY_CONTEXTS {
                    let path = [Frame::new(MethodId(s), 5), Frame::new(MethodId(200 + c), c)];
                    profile.record_attributed(
                        AllocSiteId(s),
                        &path,
                        &bench_sample(u64::from(s * 64 + c) * 8, c % 2 == 0, 150),
                        FULL_PERIOD,
                    );
                }
                profile.record_allocation(AllocSiteId(s), 2048);
            }
            profile
        })
        .collect();
    ObjectCentricProfile {
        event: PmuEvent::L1Miss,
        period: FULL_PERIOD,
        size_filter: 1024,
        sites,
        threads,
        allocation_stats: Default::default(),
    }
}

/// The pre-redesign analyzer's report: run totals plus ranked object rows. Every field
/// is built, as the old analyzer built it, so the baseline does the same work; only
/// the ranking and the metrics are read back.
#[allow(dead_code)]
struct LegacyReport {
    event: PmuEvent,
    period: u64,
    total_samples: u64,
    total_weighted_events: u64,
    attributed_weighted_events: u64,
    objects: Vec<LegacyObject>,
}

/// One ranked object row of a [`LegacyReport`].
#[allow(dead_code)]
struct LegacyObject {
    site: AllocSiteId,
    class_name: String,
    alloc_path: Vec<Frame>,
    metrics: MetricVector,
    fraction_of_total: f64,
    remote_fraction: f64,
    access_contexts: Vec<AccessContext>,
}

/// A faithful in-bench reconstruction of the pre-redesign analyzer's `analyze_many`
/// aggregation (merge sites by identity, coalesce contexts, rank by weighted
/// events) — the baseline the `--smoke-query` gate compares query evaluation against.
fn legacy_analyze(profile: &ObjectCentricProfile) -> LegacyReport {
    let mut total_samples = 0u64;
    let mut total_weighted = 0u64;
    let mut merged_index: HashMap<(String, Vec<Frame>), usize> = HashMap::new();
    struct MergedSite {
        site: AllocSite,
        metrics: MetricVector,
        contexts: HashMap<Vec<Frame>, MetricVector>,
    }
    let mut merged: Vec<MergedSite> = Vec::new();
    for thread in &profile.threads {
        total_samples += thread.samples;
        total_weighted += thread.unattributed.weighted_events;
        let mut thread_sites: Vec<_> = thread.sites.iter().collect();
        thread_sites.sort_unstable_by_key(|(id, _)| **id);
        for (site_id, sm) in thread_sites {
            let Some(site) = profile.site(*site_id) else { continue };
            let key = (site.class_name.clone(), site.call_path.clone());
            let index = *merged_index.entry(key).or_insert_with(|| {
                merged.push(MergedSite {
                    site: AllocSite {
                        id: AllocSiteId(merged.len() as u32),
                        class_name: site.class_name.clone(),
                        call_path: site.call_path.clone(),
                    },
                    metrics: MetricVector::default(),
                    contexts: HashMap::new(),
                });
                merged.len() - 1
            });
            let entry = &mut merged[index];
            entry.metrics.merge(&sm.total);
            total_weighted += sm.total.weighted_events;
            for (ctx, m) in &sm.by_context {
                entry.contexts.entry(thread.cct.path_of(*ctx)).or_default().merge(m);
            }
        }
    }
    let attributed_weighted: u64 = merged.iter().map(|m| m.metrics.weighted_events).sum();
    let mut objects: Vec<LegacyObject> = merged
        .into_iter()
        .map(|m| {
            let object_weighted = m.metrics.weighted_events;
            let mut access_contexts: Vec<AccessContext> = m
                .contexts
                .into_iter()
                .map(|(path, metrics)| AccessContext {
                    path,
                    fraction_of_object: if object_weighted == 0 {
                        0.0
                    } else {
                        metrics.weighted_events as f64 / object_weighted as f64
                    },
                    metrics,
                })
                .collect();
            access_contexts.sort_by(|a, b| {
                b.metrics
                    .weighted_events
                    .cmp(&a.metrics.weighted_events)
                    .then_with(|| a.path.cmp(&b.path))
            });
            LegacyObject {
                site: m.site.id,
                class_name: m.site.class_name,
                alloc_path: m.site.call_path,
                fraction_of_total: if total_weighted == 0 {
                    0.0
                } else {
                    object_weighted as f64 / total_weighted as f64
                },
                remote_fraction: m.metrics.remote_fraction(),
                metrics: m.metrics,
                access_contexts,
            }
        })
        .collect();
    objects.sort_by(|a, b| {
        b.metrics
            .weighted_events
            .cmp(&a.metrics.weighted_events)
            .then_with(|| a.class_name.cmp(&b.class_name))
            .then_with(|| a.alloc_path.cmp(&b.alloc_path))
    });
    LegacyReport {
        event: profile.event,
        period: profile.period,
        total_samples,
        total_weighted_events: total_weighted,
        attributed_weighted_events: attributed_weighted,
        objects,
    }
}

/// Hot-site population of the live rows' profile.
const LIVE_SITES: u32 = 10_000;
/// Sites touched per epoch delta — a small dashboard tick.
const LIVE_DELTA_SITES: u32 = 64;

fn live_query() -> Query {
    Query::new().rank_by(RankBy::WeightedEvents).top(32).min_samples(1)
}

fn live_sites() -> Vec<AllocSite> {
    (0..LIVE_SITES)
        .map(|s| AllocSite {
            id: AllocSiteId(s),
            class_name: format!("live{s}[]"),
            call_path: vec![Frame::new(MethodId(s), 3)],
        })
        .collect()
}

fn live_delta(epoch: u64, sites: impl Iterator<Item = u32>) -> ProfileDelta {
    let path = [Frame::new(MethodId(7), 0)];
    let mut fragment = ThreadProfile::new(ThreadId(1), "live");
    for s in sites {
        fragment.record_attributed(
            AllocSiteId(s),
            &path,
            &bench_sample(u64::from(s) * 8, s % 2 == 0, 150),
            FULL_PERIOD,
        );
    }
    ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile: fragment }] }
}

/// Epoch `tick + 2`: a rotating window of [`LIVE_DELTA_SITES`] sites.
fn live_tick_delta(tick: u32) -> ProfileDelta {
    let start = (tick * LIVE_DELTA_SITES) % LIVE_SITES;
    live_delta(u64::from(tick) + 2, (start..start + LIVE_DELTA_SITES).map(|s| s % LIVE_SITES))
}

/// Seeds a fresh fold and runs `ticks` ticks; each tick reads the top groups from a
/// watch, or from a full evaluation of a snapshot when `watch` is false.
fn live_run(query: &Query, seed: &ProfileDelta, ticks: u32, watch: bool) -> u64 {
    let fold = LiveFold::new();
    fold.provide_sites(live_sites());
    let mut watched = watch.then(|| query.watch(&fold));
    fold.absorb(seed).expect("seed epoch folds");
    let mut checksum = 0u64;
    for tick in 0..ticks {
        fold.absorb(&live_tick_delta(tick)).expect("tick delta folds");
        let groups = match &mut watched {
            Some(watched) => watched.current().result.groups.len(),
            None => query.evaluate(&fold.snapshot()).expect("cold evaluation").groups.len(),
        };
        checksum += groups as u64;
    }
    checksum
}

/// Streams a dense WAL (one thin frame per epoch) through a durable aggregator,
/// shuts it down, and times `FleetAggregator::recover` — which replays every log
/// through a fresh `DeltaFold` — over the directory it left behind.
fn measure_replay(row: &Row, dir: &Path) -> Measurement {
    let source = Loopback::bind(Some(dir));
    let sink = FleetSink::connect(&source.addr, "replay", PmuEvent::DEFAULT, FLEET_PERIOD, 1024)
        .expect("replay producer connects");
    let path = [Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)];
    let mut devnull = io::sink();
    for epoch in 1..=REPLAY_FRAMES {
        let mut profile = ThreadProfile::new(ThreadId(1), "replay");
        profile.record_attributed(
            AllocSiteId((epoch % 32) as u32),
            &path,
            &bench_sample(0x1000 + epoch * 8, false, 120),
            FLEET_PERIOD,
        );
        let delta = ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }] };
        sink.on_delta(epoch, &delta, &mut devnull).expect("replay frame acked");
    }
    drop(sink);
    drop(source);
    let start = Instant::now();
    let recovered = FleetAggregator::recover(dir).expect("recovery replays the WAL");
    let best = start.elapsed();
    let report = recovered.recovery_report().expect("recovered producers");
    let frames: u64 = report.producers.iter().map(|p| p.frames).sum();
    assert_eq!(frames, REPLAY_FRAMES, "every logged frame replays");
    // One attributed sample per logged frame, so the samples column doubles as a
    // fold sanity check.
    Measurement {
        pipeline: row.name,
        threads: row.threads,
        accesses: frames,
        samples: frames,
        best,
        cache_hit_rate: None,
    }
}

// -----------------------------------------------------------------------------------
// Measurement, reporting, and the one loop
// -----------------------------------------------------------------------------------

struct Measurement {
    pipeline: &'static str,
    threads: u64,
    accesses: u64,
    samples: u64,
    best: Duration,
    cache_hit_rate: Option<f64>,
}

impl Measurement {
    fn throughput(&self) -> f64 {
        self.accesses as f64 / self.best.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Best wall clock of `reps` calls of `run`, one rep doing `accesses` units of work.
/// `run` returns a checksum that must be non-zero, so the work cannot be optimized
/// away.
fn best_of(
    row: &Row,
    accesses: u64,
    reps: usize,
    samples: u64,
    run: impl Fn() -> u64,
) -> Measurement {
    let mut best = Duration::MAX;
    let mut checksum = 0;
    for _ in 0..reps {
        let start = Instant::now();
        checksum = run();
        best = best.min(start.elapsed());
    }
    assert!(checksum > 0, "{}: the measured work must not be optimized away", row.name);
    Measurement {
        pipeline: row.name,
        threads: row.threads,
        accesses,
        samples,
        best,
        cache_hit_rate: None,
    }
}

fn measure_row(row: &Row, gate: &Gate, fixtures: &Fixtures) -> Measurement {
    let (accesses, reps) = (gate.accesses, gate.reps);
    match row.pipe {
        Pipe::Ingest(ingest) => measure_ingest(row, ingest, accesses, reps, fixtures),
        Pipe::WalReplay => measure_replay(row, &fixtures.scratch.join("replay-wal")),
        Pipe::LegacyAnalyze => {
            let profile = fixtures.query_profile();
            best_of(row, accesses, reps, profile.total_samples(), || {
                (0..accesses).map(|_| legacy_analyze(profile).objects.len() as u64).sum()
            })
        }
        Pipe::QueryEval => {
            let profile = fixtures.query_profile();
            let query = Query::new();
            best_of(row, accesses, reps, profile.total_samples(), || {
                (0..accesses)
                    .map(|_| query.evaluate(profile).expect("owned profiles evaluate").groups.len())
                    .sum::<usize>() as u64
            })
        }
        Pipe::LiveWatch | Pipe::PollEvaluate => {
            let ticks = accesses as u32;
            let seed = fixtures.live_seed(ticks);
            let query = live_query();
            let watch = matches!(row.pipe, Pipe::LiveWatch);
            let samples = u64::from(LIVE_SITES) + accesses * u64::from(LIVE_DELTA_SITES);
            best_of(row, accesses, reps, samples, || live_run(&query, seed, ticks, watch))
        }
    }
}

fn throughput_of(rows: &[Measurement], name: &str, threads: u64) -> f64 {
    rows.iter()
        .find(|m| m.pipeline == name && m.threads == threads)
        .unwrap_or_else(|| panic!("ratio names an unmeasured row: {name} @{threads}"))
        .throughput()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "0".to_string()
    }
}

fn write_json(path: &str, results: &[(&str, Measurement)], ratios: &[(&Ratio, f64)]) {
    let rows: Vec<String> = results
        .iter()
        .map(|(gate, m)| {
            let cache = match m.cache_hit_rate {
                Some(rate) => format!(", \"cache_hit_rate\": {}", json_number(rate)),
                None => String::new(),
            };
            format!(
                "    {{\"gate\": \"{gate}\", \"pipeline\": \"{}\", \"threads\": {}, \"accesses\": {}, \"samples\": {}, \"best_secs\": {}, \"throughput_accesses_per_sec\": {}{cache}}}",
                m.pipeline,
                m.threads,
                m.accesses,
                m.samples,
                json_number(m.best.as_secs_f64()),
                json_number(m.throughput()),
            )
        })
        .collect();
    let ratio_lines: Vec<String> = ratios
        .iter()
        .map(|(ratio, value)| format!("  \"{}\": {}", ratio.key, json_number(*value)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"contention\",\n  \"multi_threads\": {MULTI_THREADS},\n  \"results\": [\n{}\n  ],\n{}\n}}\n",
        rows.join(",\n"),
        ratio_lines.join(",\n"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("recorded {path}"),
        Err(err) => eprintln!("warning: could not write {path}: {err}"),
    }
}

fn print_rows(rows: &[Measurement]) {
    println!(
        "{:<16} {:>8} {:>12} {:>10} {:>14} {:>16} {:>12}",
        "pipeline", "threads", "accesses", "samples", "best (ms)", "accesses/s", "cache hits"
    );
    for m in rows {
        println!(
            "{:<16} {:>8} {:>12} {:>10} {:>14.2} {:>16.0} {:>12}",
            m.pipeline,
            m.threads,
            m.accesses,
            m.samples,
            m.best.as_secs_f64() * 1e3,
            m.throughput(),
            m.cache_hit_rate
                .map(|r| format!("{:.1}%", r * 100.0))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

fn main() {
    let smoke: Vec<String> = std::env::args()
        .filter_map(|a| a.strip_prefix("--smoke-").map(str::to_string))
        .collect();
    let gated = !smoke.is_empty();
    let selected: Vec<&Gate> = if gated {
        smoke
            .iter()
            .map(|name| {
                GATES.iter().find(|g| g.name == name.as_str()).unwrap_or_else(|| {
                    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
                    eprintln!("unknown gate --smoke-{name}; the gates are: {}", names.join(", "));
                    std::process::exit(2)
                })
            })
            .collect()
    } else {
        GATES.iter().chain([&REPORT_ONLY]).collect()
    };

    let fixtures = Fixtures::new();
    let mut results: Vec<(&str, Measurement)> = Vec::new();
    let mut ratios: Vec<(&Ratio, f64)> = Vec::new();
    for gate in &selected {
        println!(
            "== {}: {} ({} per rep, best of {}) ==\n",
            gate.name, gate.title, gate.accesses, gate.reps
        );
        let rows: Vec<Measurement> =
            gate.rows.iter().map(|row| measure_row(row, gate, &fixtures)).collect();
        print_rows(&rows);
        println!();
        for ratio in gate.ratios {
            let numerator = throughput_of(&rows, ratio.numerator, ratio.threads);
            let value = match ratio.denominator {
                Some(denominator) => numerator / throughput_of(&rows, denominator, ratio.threads),
                None => numerator,
            };
            let over = ratio.denominator.map(|d| format!("/{d}")).unwrap_or_default();
            let verdict = match ratio.floor {
                Some(floor) if value >= floor => format!("gate >= {floor:.3}"),
                Some(floor) => format!("gate >= {floor:.3}: MISSED"),
                None => "report only".to_string(),
            };
            println!(
                "{:<32} {}{over} @{}: {value:.2} ({verdict})",
                ratio.key, ratio.numerator, ratio.threads
            );
            ratios.push((ratio, value));
        }
        println!();
        results.extend(rows.into_iter().map(|m| (gate.name, m)));
    }
    fixtures.finish();

    // A gated run records only when asked; the report run defaults to the workspace
    // root (cargo runs benches with the package directory as CWD).
    let path = std::env::var("BENCH_CONTENTION_OUT").ok().or_else(|| {
        (!gated).then(|| match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(dir) => format!("{dir}/../../BENCH_contention.json"),
            Err(_) => "BENCH_contention.json".to_string(),
        })
    });
    if let Some(path) = path {
        write_json(&path, &results, &ratios);
    }

    if gated {
        let mut failed = false;
        for (ratio, value) in &ratios {
            if let Some(floor) = ratio.floor.filter(|floor| value < floor) {
                eprintln!("FAIL: {} = {value:.2}, below its floor {floor:.3}", ratio.key);
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK");
    }
}
