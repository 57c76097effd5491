//! Multi-thread sample-ingestion contention benchmark (the before/after evidence for
//! the sharded-index pipeline and the per-thread resolution cache in front of it).
//!
//! All pipelines ingest identical precomputed access streams and are built on the same
//! signal-handler-safe [`SpinLock`] primitive (the paper's overflow handler cannot
//! block, §5.1; see `djxperf::sync`), so within each row family the **only** variable
//! is the resolution/locking topology. Two families are measured:
//!
//! **Full pipelines** (three collectors, sampling period [`FULL_PERIOD`]) — the PR 2
//! before/after evidence for sharded ingestion:
//!
//! * **`global-lock`** — a faithful in-bench reconstruction of the pre-sharding
//!   session: one lock around the thread→PMU table (locked twice per access: thread
//!   check + observe), one lock around a single interval splay tree (locked per
//!   overflow batch), and one lock per collector, taken **per sample per collector**.
//! * **`sharded-full`** — the real [`Session`] with all three built-in collectors
//!   (address-sharded object index, striped per-thread PMU table and collector state,
//!   one `on_sample_batch` call per collector) and the resolution cache disabled.
//!
//! **Resolution substrate** (collector-free sessions, sampling period
//! [`SUBSTRATE_PERIOD`] = 1, i.e. *every missing access resolves*) — the stress bench
//! of the stage the per-thread cache optimizes. Collector attribution is identical
//! across these topologies and measured by the `attribution`/`overhead` benches;
//! removing it isolates PMU observation + sample resolution:
//!
//! * **`sharded`** — collector-free session, cache disabled: every resolution locks a
//!   shard and splays (a write), exactly the PR 2 hot path.
//! * **`cached`** — the same session with the per-thread direct-mapped
//!   [`ResolutionCache`](djxperf::ResolutionCache) enabled (the session default):
//!   repeat samples on hot objects resolve with no shard lock and no splay, validated
//!   by the per-shard mutation epochs.
//!
//! The access streams are **hot-object skewed** (⅞ of accesses hit a few hot objects
//! per thread), the distribution object-centric profiling exploits — and, by the
//! region-interleaved shard routing, the same hot-object index of every thread lands
//! on the *same shard*, so the sharded pipeline's hot shard takes cross-thread lock
//! transfers and splay-root thrashing that the cache never sees.
//!
//! Substrate pipelines run at 1, `MULTI_THREADS` and `WIDE_THREADS` threads, plus an
//! adversarial **GC-relocation churn** scenario: a background thread relocates hot
//! monitored objects (move out + move back, applied at GC end) while `MULTI_THREADS`
//! threads ingest, bumping shard epochs and invalidating cache entries at a rate no
//! real collector approaches.
//!
//! **Streaming throughput** (full three-collector pipelines, default resolution
//! cache) — the PR 4 evidence that continuous-push export stays off the hot path:
//!
//! * **`stream-off`** — the full session, no export attached.
//! * **`stream-on`** — the same session with a [`DeltaDrainer`](djxperf::DeltaDrainer)
//!   streaming every retired epoch delta through `BinaryChunkedSink` into `io::sink()`
//!   (5 ms tick, coalescing backpressure), so the rows isolate the retirement
//!   hand-off + queue cost of `djxperf::export`.
//!
//! Results are printed as a Figure-4-style table and recorded in
//! `BENCH_contention.json` with the acceptance ratios:
//!
//! Two further families measure the analysis-side hot paths the query redesign
//! touched: **delta-fold accumulation** (`fold-linear` vs `fold-keyed` — the keyed
//! `ProfileDelta::merge_from` against a reconstruction of the old per-fragment
//! linear scan + re-sort, the merge step of the Coalesce-backpressure queue and of
//! `DeltaFold` replay) and **query evaluation** (`query-eval` vs `analyze-legacy` —
//! `Query::evaluate` over a wide snapshot against a reconstruction of the
//! pre-redesign analyzer's `analyze_many` aggregation).
//!
//! * `multi_thread_speedup`          = sharded-full@N / global@N  (target ≥ 2×)
//! * `single_thread_ratio`           = sharded-full@1 / global@1  (target ≥ 0.95)
//! * `cached_multi_thread_speedup`   = cached@N / sharded@N       (target ≥ 1.5×)
//! * `cached_single_thread_ratio`    = cached@1 / sharded@1       (target ≥ 0.95)
//! * `streaming_multi_thread_ratio`  = stream-on@N / stream-off@N (target ≥ 0.90)
//! * `streaming_single_thread_ratio` = stream-on@1 / stream-off@1 (target ≥ 0.90)
//! * `coalesce_fold_speedup`         = fold-keyed / fold-linear   (target ≥ 1×)
//! * `query_vs_legacy_ratio`         = query-eval / analyze-legacy (gate ≥ 0.909)
//! * `fleet_multi_thread_ratio`      = fleet-on@N / stream-off@N  (gate ≥ 0.909)
//! * `fleet_single_thread_ratio`     = fleet-on@1 / stream-off@1  (gate ≥ 0.909)
//! * `wal_multi_thread_ratio`        = wal-on@N / wal-off@N   (gate ≥ 1/1.15)
//! * `wal_single_thread_ratio`       = wal-on@1 / wal-off@1   (gate ≥ 1/1.15)
//! * `recovery_replay_frames_per_sec` = recover() over a ~20k-frame WAL (gate ≥ 100k/s)
//!
//! Run with `--quick` (or `CONTENTION_QUICK=1`) for a short smoke iteration,
//! `--smoke-cached` (CI) to run only the sharded/cached comparison quickly and **exit
//! non-zero** if the cached fast path regresses below safety margins,
//! `--smoke-streaming` (CI) to gate the drainer-on/drainer-off ingest ratio at the
//! 0.90× floor, `--smoke-query` (CI) to gate query-over-snapshot evaluation at
//! within 1.10× of the legacy analyzer on the same profile, `--smoke-fleet` (CI)
//! to gate per-producer ingest with a socket-backed fleet sink at within 1.10× of
//! `stream-off` against a loopback aggregator, or `--smoke-recovery` (CI) to gate the fault-tolerance tier: WAL-on fleet ingest
//! within 1.15× of WAL-off under `FsyncPolicy::Never`, and
//! `FleetAggregator::recover` replay at ≥ 100k frames/s over a dense WAL, or
//! `--smoke-live` (CI) to gate the incremental live query engine: a watched
//! `LiveQuery` tick (absorb a small epoch delta + render `top(32)`) must be ≥ 5×
//! cheaper than absorb + full `Query::evaluate` re-evaluation on a 10k-site
//! profile.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use djx_memsim::{
    AccessKind, AccessOutcome, HierarchyConfig, MemoryAccess, MemoryHierarchy, NumaNode,
};
use djx_pmu::{PerfEventBuilder, PmuEvent, Sample, ThreadPmu};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcEvent, GcId, MemoryAccessEvent, MethodId, ObjectId,
    ObjectMoveEvent, RuntimeListener, ThreadId,
};
use djxperf::{
    AccessContext, AllocSite, AllocSiteId, BinaryChunkedSink, Cct, DrainPolicy, FleetAggregator,
    FleetSink, FsyncPolicy, Interval, IntervalSplayTree, LiveFold, MetricVector, MonitoredObject,
    ObjectCentricProfile, ProfileDelta, ProfileSink, Query, RankBy, Session, SpinLock, ThreadDelta,
    ThreadProfile,
};

const MULTI_THREADS: u64 = 4;
const WIDE_THREADS: u64 = 8;
const OBJECTS_PER_THREAD: u64 = 2048;
/// Hot set per thread: ⅞ of accesses land on these objects.
const HOT_OBJECTS: u64 = 16;
/// Hot objects are spaced [`INDEX_SHARDS`] object slots apart, so — regions
/// interleaving round-robin — **every hot object of every thread routes to the same
/// shard**: the adversarial case for the sharded pipeline (alternating hot lookups
/// restructure that shard's splay tree on every sample, under one contended lock)
/// and the representative case for the cache (each hot region keeps its own slot).
const HOT_STRIDE: u64 = INDEX_SHARDS as u64;
const OBJECT_SIZE: u64 = 8 * 1024;
/// Sampling period of the full (three-collector) pipelines.
const FULL_PERIOD: u64 = 8;
/// Sampling period of the substrate pipelines: 1, so every counted event resolves —
/// the pure stress of the resolution stage.
const SUBSTRATE_PERIOD: u64 = 1;
/// Sampling period of the `--smoke-fleet` gate rows (both sides). The fleet gate
/// measures *producer-side* ingest overhead of the socket transport at a
/// deployment-realistic cadence (production default is 512); under the stress
/// period the single-core CI runner time-slices the aggregator's decode+fold onto
/// the ingest core and the row measures aggregator CPU instead of producer
/// overhead.
const FLEET_PERIOD: u64 = 64;
/// Index shard count pinned on both session pipelines so the resolution cache is the
/// only variable between `sharded` and `cached`.
const INDEX_SHARDS: usize = 16;
/// Churn relocation target: far inside the owning thread's arena, outside the accessed
/// object range.
const SHADOW_OFFSET: u64 = 0x800_0000;
/// GC-relocation rounds per churn run, per 100k accesses (fixed work, so churned runs
/// of different pipelines stay comparable).
const CHURN_ROUNDS_PER_100K: u64 = 2_000;

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

/// The ingestion surface all pipelines implement.
trait Pipeline: Send + Sync {
    fn alloc(&self, log: &ThreadLog);
    fn access(&self, log: &ThreadLog, outcome: &AccessOutcome);
    fn total_samples(&self) -> u64;
    /// One adversarial GC-relocation round: move one object per arena out and back,
    /// applying each batch at GC end. Only session pipelines implement it.
    fn churn_step(&self, _logs: &[ThreadLog], _round: u64) {}
    /// Cache hit rate of the resolution path, when the pipeline has a cache.
    fn cache_hit_rate(&self) -> Option<f64> {
        None
    }
}

// -----------------------------------------------------------------------------------
// Baseline: the pre-sharding design. One global lock per layer, per-sample collector
// lock round-trips.
// -----------------------------------------------------------------------------------

#[derive(Default)]
struct GlobalSampler {
    pmus: HashMap<ThreadId, ThreadPmu>,
    total_samples: u64,
}

#[derive(Default)]
struct GlobalObjectState {
    profiles: HashMap<ThreadId, ThreadProfile>,
}

#[derive(Default)]
struct GlobalCodeState {
    cct: Cct,
    samples: u64,
}

#[derive(Default)]
struct GlobalNumaState {
    per_site: HashMap<AllocSiteId, MetricVector>,
    unattributed: MetricVector,
    node_traffic: HashMap<(u32, u32), u64>,
}

struct GlobalLockPipeline {
    builder: PerfEventBuilder,
    sampler: SpinLock<GlobalSampler>,
    tree: SpinLock<IntervalSplayTree<MonitoredObject>>,
    object: SpinLock<GlobalObjectState>,
    code: SpinLock<GlobalCodeState>,
    numa: SpinLock<GlobalNumaState>,
}

impl GlobalLockPipeline {
    fn new() -> Self {
        Self {
            builder: PerfEventBuilder::new(PmuEvent::L1Miss)
                .sample_period(FULL_PERIOD)
                .jitter(false),
            sampler: SpinLock::new(GlobalSampler::default()),
            tree: SpinLock::new(IntervalSplayTree::new()),
            object: SpinLock::new(GlobalObjectState::default()),
            code: SpinLock::new(GlobalCodeState::default()),
            numa: SpinLock::new(GlobalNumaState::default()),
        }
    }
}

impl Pipeline for GlobalLockPipeline {
    fn alloc(&self, log: &ThreadLog) {
        for i in 0..OBJECTS_PER_THREAD {
            let start = log.base + i * OBJECT_SIZE;
            self.tree.lock().insert(
                Interval::new(start, start + OBJECT_SIZE),
                MonitoredObject {
                    object: ObjectId((log.thread.0 - 1) * OBJECTS_PER_THREAD + i + 1),
                    site: AllocSiteId(log.thread.0 as u32 - 1),
                    size: OBJECT_SIZE,
                },
            );
        }
    }

    fn access(&self, log: &ThreadLog, outcome: &AccessOutcome) {
        // Thread visibility check + observe: two acquisitions of the one sampler lock,
        // exactly like the pre-sharding Sampler.
        {
            let mut sampler = self.sampler.lock();
            let builder = &self.builder;
            sampler
                .pmus
                .entry(log.thread)
                .or_insert_with(|| builder.open_for_thread(log.thread.0));
        }
        let samples: Vec<Sample> = {
            let mut sampler = self.sampler.lock();
            let pmu = sampler.pmus.get_mut(&log.thread).expect("ensured above");
            let samples = pmu.observe(outcome);
            sampler.total_samples += samples.len() as u64;
            samples
        };
        if samples.is_empty() {
            return;
        }
        // One global tree lock per overflow batch...
        let resolved: Vec<Option<AllocSiteId>> = {
            let mut tree = self.tree.lock();
            samples
                .iter()
                .map(|s| tree.lookup(s.effective_addr).map(|(_, mo)| mo.site))
                .collect()
        };
        // ...then samples × collectors individual lock round-trips.
        for (sample, site) in samples.iter().zip(resolved) {
            {
                let mut object = self.object.lock();
                let profile = object
                    .profiles
                    .entry(log.thread)
                    .or_insert_with(|| ThreadProfile::new(log.thread, "<bench>"));
                match site {
                    Some(site) => {
                        profile.record_attributed(site, &log.call_trace, sample, FULL_PERIOD)
                    }
                    None => profile.record_unattributed(sample, FULL_PERIOD),
                }
            }
            {
                let mut code = self.code.lock();
                let node = code.cct.insert_path(&log.call_trace);
                code.samples += 1;
                code.cct.metrics_mut(node).record_sample(sample, FULL_PERIOD);
            }
            {
                let mut numa = self.numa.lock();
                match site {
                    Some(site) => {
                        numa.per_site.entry(site).or_default().record_sample(sample, FULL_PERIOD)
                    }
                    None => numa.unattributed.record_sample(sample, FULL_PERIOD),
                }
                *numa.node_traffic.entry((sample.cpu_node.0, sample.page_node.0)).or_insert(0) += 1;
            }
        }
    }

    fn total_samples(&self) -> u64 {
        self.sampler.lock().total_samples
    }
}

// -----------------------------------------------------------------------------------
// The real session, with and without the per-thread resolution cache.
// -----------------------------------------------------------------------------------

struct SessionPipeline {
    session: Arc<Session>,
}

impl SessionPipeline {
    /// A full pipeline: all three built-in collectors, PR 2's comparison against the
    /// global-lock reconstruction.
    fn full() -> Self {
        Self {
            session: Session::builder()
                .period(FULL_PERIOD)
                .index_shards(INDEX_SHARDS)
                .resolution_cache(false)
                .collect_objects()
                .collect_code()
                .collect_numa()
                .build(),
        }
    }

    /// A substrate pipeline: collector-free on purpose. The session still runs the
    /// full listener path — striped PMU observation, batched resolution, allocation
    /// agent — so these rows isolate the stage the resolution cache optimizes
    /// (collector attribution costs are identical across topologies and measured by
    /// the attribution bench).
    fn substrate(resolution_cache: bool) -> Self {
        Self {
            session: Session::builder()
                .period(SUBSTRATE_PERIOD)
                .index_shards(INDEX_SHARDS)
                .resolution_cache(resolution_cache)
                .build(),
        }
    }

    /// A streaming-throughput pipeline: the full three-collector session (default
    /// resolution cache) with or without an asynchronous export drainer attached.
    /// The drainer ticks every 5 ms and serializes each retired delta through
    /// the binary epoch-log codec into `io::sink()`, so the rows measure exactly the
    /// ingest-side cost of continuous-push export — epoch retirement hand-off and
    /// queue traffic — with no disk variance.
    fn streaming(drainer: bool) -> Self {
        Self::streaming_at(FULL_PERIOD, drainer)
    }

    fn streaming_at(period: u64, drainer: bool) -> Self {
        let builder = Session::builder()
            .period(period)
            .index_shards(INDEX_SHARDS)
            .collect_objects()
            .collect_code()
            .collect_numa();
        let builder = if drainer {
            builder.stream_to(
                Arc::new(BinaryChunkedSink::new()),
                Box::new(io::sink()),
                DrainPolicy::new().capacity(8).coalesce().tick(Duration::from_millis(5)),
            )
        } else {
            builder
        };
        Self { session: builder.build() }
    }

    /// A fleet-transport pipeline: the same full three-collector session as
    /// [`SessionPipeline::streaming`], but the drainer ships each retired delta
    /// through a socket-backed `FleetSink` to a loopback aggregator instead of a
    /// local writer — the `--smoke-fleet` gate compares its ingest throughput
    /// against `stream-off`. Producer names must be unique per pipeline (each
    /// session restarts its epochs at 1, which a resumed fold would reject).
    fn fleet(addr: &str, producer: &str) -> Self {
        let sink = FleetSink::connect(addr, producer, PmuEvent::DEFAULT, FLEET_PERIOD, 1024)
            .expect("loopback aggregator reachable");
        Self {
            session: Session::builder()
                .period(FLEET_PERIOD)
                .index_shards(INDEX_SHARDS)
                .collect_objects()
                .collect_code()
                .collect_numa()
                .stream_to_fleet(
                    Arc::new(sink),
                    DrainPolicy::new().capacity(8).coalesce().tick(Duration::from_millis(5)),
                )
                .build(),
        }
    }

    fn object_id(thread: ThreadId, index: u64) -> ObjectId {
        ObjectId((thread.0 - 1) * OBJECTS_PER_THREAD + index + 1)
    }
}

impl Pipeline for SessionPipeline {
    fn alloc(&self, log: &ThreadLog) {
        for i in 0..OBJECTS_PER_THREAD {
            let start = log.base + i * OBJECT_SIZE;
            self.session.on_object_alloc(&AllocationEvent {
                object: Self::object_id(log.thread, i),
                class: ClassId(0),
                class_name: "bench[]",
                start,
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

    fn total_samples(&self) -> u64 {
        self.session.total_samples()
    }

    fn churn_step(&self, logs: &[ThreadLog], round: u64) {
        // Relocate one (hot) object per arena out to a shadow range and back, each
        // half applied at a GC end: epochs on both ranges' shards bump, every cached
        // entry for the object invalidates, and the index returns to its baseline so
        // rounds compose indefinitely.
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

// -----------------------------------------------------------------------------------
// Delta-fold accumulation: the Coalesce-backpressure / DeltaFold merge step
// -----------------------------------------------------------------------------------

/// Thread fragments per synthetic delta (wide deltas are exactly where the old
/// per-fragment linear scan hurt).
const FOLD_THREADS: u64 = 256;
/// Deltas folded into one growing accumulator per measured fold — the access pattern
/// of a back-pressured Coalesce queue (every full-queue push merges into the same
/// queued delta) and of `DeltaFold` replay.
const FOLD_DELTAS: u64 = 128;

fn build_fold_deltas() -> Vec<ProfileDelta> {
    let bench_sample = |addr: u64| Sample {
        event: PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(0),
        effective_addr: addr,
        kind: AccessKind::Load,
        value: 1,
        latency: 120,
        counter_value: 1,
    };
    (0..FOLD_DELTAS)
        .map(|epoch| ProfileDelta {
            epoch: epoch + 1,
            threads: (0..FOLD_THREADS)
                .map(|t| {
                    let mut profile = ThreadProfile::new(ThreadId(t + 1), "fold");
                    let path = [Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)];
                    // One sample per fragment: the per-fragment profile merge is
                    // identical across fold implementations, so thin fragments keep
                    // the measured difference on the accumulator bookkeeping the
                    // keyed fold replaced (the linear re-scan and the re-sort).
                    profile.record_attributed(
                        AllocSiteId((t % 8) as u32),
                        &path,
                        &bench_sample(0x1000 + (epoch * FOLD_THREADS + t) * 8),
                        FULL_PERIOD,
                    );
                    ThreadDelta { seq: t, profile }
                })
                .collect(),
        })
        .collect()
}

/// A faithful in-bench reconstruction of the pre-redesign `ProfileDelta::merge_from`:
/// an O(threads) linear scan per fragment plus a full re-sort per fold — the baseline
/// the keyed accumulator replaced.
fn merge_from_linear(acc: &mut ProfileDelta, later: &ProfileDelta) {
    acc.epoch = acc.epoch.max(later.epoch);
    for td in &later.threads {
        match acc.threads.iter_mut().find(|t| t.profile.thread == td.profile.thread) {
            Some(existing) => existing.profile.merge_from(&td.profile),
            None => acc.threads.push(td.clone()),
        }
    }
    acc.threads.sort_by_key(|t| (t.seq, t.profile.thread));
}

/// Folds the delta stream into one accumulator with `merge`, returning the best wall
/// clock over `reps` and the final accumulator (for the equivalence sanity check).
fn measure_fold(
    name: &'static str,
    deltas: &[ProfileDelta],
    reps: usize,
    merge: impl Fn(&mut ProfileDelta, &ProfileDelta),
) -> (Measurement, ProfileDelta) {
    let mut best = Duration::MAX;
    let mut folded = ProfileDelta::empty(0);
    for _ in 0..reps {
        let mut acc = ProfileDelta::empty(0);
        let start = Instant::now();
        for delta in deltas {
            merge(&mut acc, delta);
        }
        best = best.min(start.elapsed());
        folded = acc;
    }
    let fragments = FOLD_DELTAS * FOLD_THREADS;
    (
        Measurement {
            pipeline: name,
            threads: FOLD_THREADS,
            accesses: fragments,
            samples: folded.total_samples(),
            best,
            cache_hit_rate: None,
        },
        folded,
    )
}

// -----------------------------------------------------------------------------------
// Query-over-snapshot evaluation vs the legacy analyzer aggregation
// -----------------------------------------------------------------------------------

/// Shape of the synthetic snapshot the query/analyzer comparison evaluates: wide
/// enough that aggregation cost dominates setup noise.
const QUERY_THREADS: u64 = 16;
const QUERY_SITES: u32 = 64;
const QUERY_CONTEXTS: u32 = 4;
/// Query/analyzer evaluations per measured rep.
const QUERY_EVALS: u32 = 30;

fn build_query_profile() -> ObjectCentricProfile {
    let bench_sample = |addr: u64, remote: bool| Sample {
        event: PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(u32::from(remote)),
        effective_addr: addr,
        kind: AccessKind::Load,
        value: 1,
        latency: 150,
        counter_value: 1,
    };
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
                        &bench_sample(u64::from(s * 64 + c) * 8, c % 2 == 0),
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

// -----------------------------------------------------------------------------------
// Live query engine: incremental watch vs per-tick re-evaluation (the --smoke-live
// gate)
// -----------------------------------------------------------------------------------

/// Hot-site population of the live gate's profile (the ISSUE floor is >= 10k).
const LIVE_SITES: u32 = 10_000;
/// Sites touched per epoch delta — a small dashboard tick.
const LIVE_DELTA_SITES: u32 = 64;
/// Measured ticks per run.
const LIVE_TICKS: u32 = 50;

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
    let bench_sample = |addr: u64, remote: bool| Sample {
        event: PmuEvent::L1Miss,
        thread_id: 1,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(u32::from(remote)),
        effective_addr: addr,
        kind: AccessKind::Load,
        value: 1,
        latency: 150,
        counter_value: 1,
    };
    let path = [Frame::new(MethodId(7), 0)];
    let mut fragment = ThreadProfile::new(ThreadId(1), "live");
    for s in sites {
        fragment.record_attributed(
            AllocSiteId(s),
            &path,
            &bench_sample(u64::from(s) * 8, s % 2 == 0),
            FULL_PERIOD,
        );
    }
    ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile: fragment }] }
}

/// Epoch 1: one sample on every site, so the fold carries the full 10k-site state.
fn build_live_seed_delta() -> ProfileDelta {
    live_delta(1, 0..LIVE_SITES)
}

/// Epoch `tick + 2`: a rotating window of [`LIVE_DELTA_SITES`] sites.
fn build_live_tick_delta(tick: u32) -> ProfileDelta {
    let start = (tick * LIVE_DELTA_SITES) % LIVE_SITES;
    live_delta(u64::from(tick) + 2, (start..start + LIVE_DELTA_SITES).map(|s| s % LIVE_SITES))
}

/// Times `run` (seed + [`LIVE_TICKS`] ticks), best of `reps`; throughput is ticks
/// per second.
fn measure_live(
    name: &'static str,
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
    assert!(checksum > 0, "ticks must not be optimized away");
    Measurement {
        pipeline: name,
        threads: 1,
        accesses: u64::from(LIVE_TICKS),
        samples,
        best,
        cache_hit_rate: None,
    }
}

/// Measures repeated whole-profile evaluations; `throughput` is evaluations/second
/// (the `accesses` column carries the evaluation count).
fn measure_eval(
    name: &'static str,
    reps: usize,
    samples: u64,
    eval: impl Fn() -> u64,
) -> Measurement {
    let mut best = Duration::MAX;
    let mut checksum = 0;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..QUERY_EVALS {
            checksum = eval();
        }
        best = best.min(start.elapsed());
    }
    assert!(checksum > 0, "evaluations must not be optimized away");
    Measurement {
        pipeline: name,
        threads: QUERY_THREADS,
        accesses: u64::from(QUERY_EVALS),
        samples,
        best,
        cache_hit_rate: None,
    }
}

// -----------------------------------------------------------------------------------
// Measurement
// -----------------------------------------------------------------------------------

#[derive(Debug, Clone)]
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

fn run_once(pipeline: &dyn Pipeline, logs: &[ThreadLog]) -> Duration {
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
    });
    start.elapsed()
}

/// Like [`run_once`] but with a concurrent churn thread performing a **fixed** number
/// of GC-relocation rounds (fixed work keeps churned runs of different pipelines
/// comparable); the measured wall clock covers both the ingestion and the churn.
fn run_once_with_churn(pipeline: &dyn Pipeline, logs: &[ThreadLog], accesses: u64) -> Duration {
    for log in logs {
        pipeline.alloc(log);
    }
    let rounds = (accesses / 100_000).max(1) * CHURN_ROUNDS_PER_100K;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for log in logs {
            scope.spawn(|| {
                for outcome in &log.outcomes {
                    pipeline.access(log, outcome);
                }
            });
        }
        scope.spawn(|| {
            for round in 1..=rounds {
                pipeline.churn_step(logs, round);
                if round % 64 == 0 {
                    // Let ingestion interleave on narrow machines instead of applying
                    // the whole relocation storm in one burst.
                    std::thread::yield_now();
                }
            }
        });
    });
    start.elapsed()
}

fn measure(
    name: &'static str,
    build: impl Fn() -> Box<dyn Pipeline>,
    threads: u64,
    accesses: u64,
    reps: usize,
    churn: bool,
) -> Measurement {
    let logs = build_logs(threads, accesses);
    let mut best = Duration::MAX;
    let mut samples = 0;
    let mut cache_hit_rate = None;
    for _ in 0..reps {
        let pipeline = build();
        let elapsed = if churn {
            run_once_with_churn(pipeline.as_ref(), &logs, accesses)
        } else {
            run_once(pipeline.as_ref(), &logs)
        };
        samples = pipeline.total_samples();
        cache_hit_rate = pipeline.cache_hit_rate();
        best = best.min(elapsed);
    }
    Measurement {
        pipeline: name,
        threads,
        accesses: threads * accesses,
        samples,
        best,
        cache_hit_rate,
    }
}

fn json_escape_free_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "0".to_string()
    }
}

fn write_json(path: &str, results: &[Measurement], ratios: &[(&str, f64)]) {
    let mut rows = Vec::new();
    for m in results {
        let cache = match m.cache_hit_rate {
            Some(rate) => format!(", \"cache_hit_rate\": {}", json_escape_free_number(rate)),
            None => String::new(),
        };
        rows.push(format!(
            "    {{\"pipeline\": \"{}\", \"threads\": {}, \"accesses\": {}, \"samples\": {}, \"best_secs\": {}, \"throughput_accesses_per_sec\": {}{}}}",
            m.pipeline,
            m.threads,
            m.accesses,
            m.samples,
            json_escape_free_number(m.best.as_secs_f64()),
            json_escape_free_number(m.throughput()),
            cache,
        ));
    }
    let ratio_lines: Vec<String> = ratios
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {}", json_escape_free_number(*value)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"contention\",\n  \"multi_threads\": {},\n  \"results\": [\n{}\n  ],\n{}\n}}\n",
        MULTI_THREADS,
        rows.join(",\n"),
        ratio_lines.join(",\n"),
    );
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {err}");
    }
}

fn print_results(results: &[Measurement]) {
    println!(
        "{:<16} {:>8} {:>12} {:>10} {:>14} {:>16} {:>12}",
        "pipeline", "threads", "accesses", "samples", "best (ms)", "accesses/s", "cache hits"
    );
    for m in results {
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

fn throughput_of(results: &[Measurement], name: &str, threads: u64) -> f64 {
    results
        .iter()
        .find(|m| m.pipeline == name && m.threads == threads)
        .expect("measured above")
        .throughput()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke-cached");
    let smoke_streaming = args.iter().any(|a| a == "--smoke-streaming");
    let smoke_query = args.iter().any(|a| a == "--smoke-query");
    let smoke_fleet = args.iter().any(|a| a == "--smoke-fleet");
    let smoke_recovery = args.iter().any(|a| a == "--smoke-recovery");
    let smoke_live = args.iter().any(|a| a == "--smoke-live");
    let quick = smoke
        || smoke_streaming
        || smoke_query
        || smoke_fleet
        || smoke_recovery
        || smoke_live
        || args.iter().any(|a| a == "--quick")
        || std::env::var("CONTENTION_QUICK").map(|v| v == "1").unwrap_or(false);
    // Best-of-5 in the full run: spin locks on an oversubscribed machine suffer
    // stochastic preemption storms (a descheduled lock holder burns every spinner's
    // timeslice), so single runs are noisy in exactly the topologies under test.
    let (accesses, reps) = if quick { (150_000u64, 2usize) } else { (400_000u64, 5usize) };

    let sharded = || Box::new(SessionPipeline::substrate(false)) as Box<dyn Pipeline>;
    let cached = || Box::new(SessionPipeline::substrate(true)) as Box<dyn Pipeline>;
    let stream_off = || Box::new(SessionPipeline::streaming(false)) as Box<dyn Pipeline>;
    let stream_on = || Box::new(SessionPipeline::streaming(true)) as Box<dyn Pipeline>;

    if smoke_streaming {
        // CI regression gate for the asynchronous export pipeline: the full
        // three-collector session with a delta drainer attached must keep at least
        // 0.90x of the drainer-off ingest throughput — continuous-push export is only
        // viable when its hand-off cost stays off the hot path.
        //
        // The expected ratio is ~1.0 (the drains are off the ingest path entirely),
        // so unlike the cached gate there is no structural speedup to absorb runner
        // noise — the best-of window does that instead: more, shorter reps, so the
        // minimum of each side converges on the scheduler's good case.
        println!("== streaming-export contention smoke (CI gate) ==\n");
        let (accesses, reps) = (100_000u64, 7usize);
        let mut results = Vec::new();
        for threads in [1, MULTI_THREADS] {
            results.push(measure("stream-off", stream_off, threads, accesses, reps, false));
            results.push(measure("stream-on", stream_on, threads, accesses, reps, false));
        }
        print_results(&results);
        let multi = throughput_of(&results, "stream-on", MULTI_THREADS)
            / throughput_of(&results, "stream-off", MULTI_THREADS);
        let single =
            throughput_of(&results, "stream-on", 1) / throughput_of(&results, "stream-off", 1);
        println!(
            "\nstream-on/stream-off @{MULTI_THREADS} threads: {multi:.2} (gate >= 0.90)\n\
             stream-on/stream-off @1 thread:  {single:.2} (gate >= 0.90)"
        );
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(
                &path,
                &results,
                &[
                    ("streaming_multi_thread_ratio", multi),
                    ("streaming_single_thread_ratio", single),
                ],
            );
            println!("recorded {path}");
        }
        let mut failed = false;
        if multi < 0.90 {
            eprintln!("FAIL: drainer-on ingest dropped below 0.90x multi-thread ({multi:.2})");
            failed = true;
        }
        if single < 0.90 {
            eprintln!("FAIL: drainer-on ingest dropped below 0.90x single-thread ({single:.2})");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    if smoke_fleet {
        // CI regression gate for the fleet transport: a producer session whose
        // drainer ships every retired delta over a loopback socket (sync ack per
        // frame) must keep at least 1/1.10 of the stream-off ingest throughput.
        // The drains are off the ingest hot path and the Coalesce policy bounds
        // the frame rate, so the expected ratio is ~1.0 — the gate catches a
        // transport that starts blocking epoch retirement.
        println!("== fleet-transport contention smoke (CI gate) ==\n");
        let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("loopback aggregator binds");
        let addr = aggregator.local_addr().expect("tcp aggregator").to_string();
        let producer_seq = std::sync::atomic::AtomicU64::new(0);
        let fleet_off =
            || Box::new(SessionPipeline::streaming_at(FLEET_PERIOD, false)) as Box<dyn Pipeline>;
        let fleet_on = || {
            let id = producer_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(SessionPipeline::fleet(&addr, &format!("bench{id}"))) as Box<dyn Pipeline>
        };
        let (accesses, reps) = (100_000u64, 7usize);
        let mut results = Vec::new();
        for threads in [1, MULTI_THREADS] {
            results.push(measure("stream-off", fleet_off, threads, accesses, reps, false));
            results.push(measure("fleet-on", fleet_on, threads, accesses, reps, false));
        }
        print_results(&results);
        // Every producer delivered its stream loss-free before its ratio counts.
        for status in aggregator.status() {
            assert!(
                status.finished && !status.truncated,
                "producer {} did not finish cleanly",
                status.producer
            );
        }
        let multi = throughput_of(&results, "fleet-on", MULTI_THREADS)
            / throughput_of(&results, "stream-off", MULTI_THREADS);
        let single =
            throughput_of(&results, "fleet-on", 1) / throughput_of(&results, "stream-off", 1);
        println!(
            "\nfleet-on/stream-off @{MULTI_THREADS} threads: {multi:.2} (gate >= 0.909)\n\
             fleet-on/stream-off @1 thread:  {single:.2} (gate >= 0.909)"
        );
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(
                &path,
                &results,
                &[("fleet_multi_thread_ratio", multi), ("fleet_single_thread_ratio", single)],
            );
            println!("recorded {path}");
        }
        let mut failed = false;
        if multi < 1.0 / 1.10 {
            eprintln!(
                "FAIL: fleet-sink ingest slower than 1.10x of stream-off multi-thread ({multi:.2})"
            );
            failed = true;
        }
        if single < 1.0 / 1.10 {
            eprintln!("FAIL: fleet-sink ingest slower than 1.10x of stream-off single-thread ({single:.2})");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    if smoke_recovery {
        // CI regression gate for the fault-tolerance tier, two claims:
        //
        //  * a WAL-backed aggregator (append each accepted frame before acking,
        //    `FsyncPolicy::Never`) must keep producer-side ingest within 1.15x of a
        //    WAL-off aggregator — durability must stay an aggregator-disk concern,
        //    never a producer hot-path one;
        //  * `FleetAggregator::recover` must replay at least 100k frames/s, so
        //    restart cost is proportional to the log, not to the outage.
        println!("== wal-recovery contention smoke (CI gate) ==\n");
        let scratch =
            std::env::temp_dir().join(format!("djxperf-smoke-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);

        let mut plain = FleetAggregator::bind("127.0.0.1:0").expect("loopback aggregator binds");
        let plain_addr = plain.local_addr().expect("tcp aggregator").to_string();
        let mut durable = FleetAggregator::builder()
            .wal(scratch.join("ingest-wal"), FsyncPolicy::Never)
            .bind("127.0.0.1:0")
            .expect("durable aggregator binds");
        let durable_addr = durable.local_addr().expect("tcp aggregator").to_string();
        let producer_seq = std::sync::atomic::AtomicU64::new(0);
        let wal_off = || {
            let id = producer_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(SessionPipeline::fleet(&plain_addr, &format!("off{id}"))) as Box<dyn Pipeline>
        };
        let wal_on = || {
            let id = producer_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(SessionPipeline::fleet(&durable_addr, &format!("on{id}"))) as Box<dyn Pipeline>
        };
        let (accesses, reps) = (100_000u64, 7usize);
        let mut results = Vec::new();
        for threads in [1, MULTI_THREADS] {
            results.push(measure("wal-off", wal_off, threads, accesses, reps, false));
            results.push(measure("wal-on", wal_on, threads, accesses, reps, false));
        }
        // Durability must not have cost delivery: every producer on the WAL side
        // finished loss-free and left a non-empty log behind.
        for status in durable.status() {
            assert!(
                status.finished && !status.truncated && status.wal_bytes > 0,
                "producer {} did not finish cleanly into the WAL",
                status.producer
            );
        }

        // Recovery replay throughput: stream a dense WAL (~20k thin frames) through
        // a durable aggregator, kill it, and time `recover` — which replays every
        // log through a fresh DeltaFold — over the directory it left behind.
        const REPLAY_FRAMES: u64 = 20_000;
        let replay_dir = scratch.join("replay-wal");
        let mut source = FleetAggregator::builder()
            .wal(&replay_dir, FsyncPolicy::Never)
            .bind("127.0.0.1:0")
            .expect("replay aggregator binds");
        let source_addr = source.local_addr().expect("tcp aggregator").to_string();
        let sink =
            FleetSink::connect(&source_addr, "replay", PmuEvent::DEFAULT, FLEET_PERIOD, 1024)
                .expect("replay producer connects");
        let path = [Frame::new(MethodId(1), 0), Frame::new(MethodId(2), 4)];
        let mut devnull = io::sink();
        for epoch in 1..=REPLAY_FRAMES {
            let mut profile = ThreadProfile::new(ThreadId(1), "replay");
            profile.record_attributed(
                AllocSiteId((epoch % 32) as u32),
                &path,
                &Sample {
                    event: PmuEvent::L1Miss,
                    thread_id: 1,
                    cpu: 0,
                    cpu_node: NumaNode(0),
                    page_node: NumaNode(0),
                    effective_addr: 0x1000 + epoch * 8,
                    kind: AccessKind::Load,
                    value: 1,
                    latency: 120,
                    counter_value: 1,
                },
                FLEET_PERIOD,
            );
            let delta = ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }] };
            sink.on_delta(epoch, &delta, &mut devnull).expect("replay frame acked");
        }
        drop(sink);
        source.shutdown();
        drop(source);
        let start = Instant::now();
        let recovered = FleetAggregator::recover(&replay_dir).expect("recovery replays the WAL");
        let elapsed = start.elapsed();
        let report = recovered.recovery_report().expect("recovered producers").clone();
        let frames: u64 = report.producers.iter().map(|p| p.frames).sum();
        assert_eq!(frames, REPLAY_FRAMES, "every logged frame replays");
        // One attributed sample per logged frame (the stream above records exactly
        // one), so the samples column doubles as a fold sanity check.
        results.push(Measurement {
            pipeline: "wal-replay",
            threads: 1,
            accesses: frames,
            samples: frames,
            best: elapsed,
            cache_hit_rate: None,
        });
        print_results(&results);

        let multi = throughput_of(&results, "wal-on", MULTI_THREADS)
            / throughput_of(&results, "wal-off", MULTI_THREADS);
        let single = throughput_of(&results, "wal-on", 1) / throughput_of(&results, "wal-off", 1);
        let replay_rate = frames as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "\nwal-on/wal-off @{MULTI_THREADS} threads: {multi:.2} (gate >= 0.870)\n\
             wal-on/wal-off @1 thread:  {single:.2} (gate >= 0.870)\n\
             recovery replay: {replay_rate:.0} frames/s (gate >= 100000)"
        );
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(
                &path,
                &results,
                &[
                    ("wal_multi_thread_ratio", multi),
                    ("wal_single_thread_ratio", single),
                    ("recovery_replay_frames_per_sec", replay_rate),
                ],
            );
            println!("recorded {path}");
        }
        plain.shutdown();
        durable.shutdown();
        let _ = std::fs::remove_dir_all(&scratch);
        let mut failed = false;
        if multi < 1.0 / 1.15 {
            eprintln!("FAIL: WAL-on ingest slower than 1.15x of WAL-off multi-thread ({multi:.2})");
            failed = true;
        }
        if single < 1.0 / 1.15 {
            eprintln!(
                "FAIL: WAL-on ingest slower than 1.15x of WAL-off single-thread ({single:.2})"
            );
            failed = true;
        }
        if replay_rate < 100_000.0 {
            eprintln!("FAIL: recovery replay below 100k frames/s ({replay_rate:.0})");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    if smoke_live {
        // CI regression gate for the incremental live query engine: on a profile
        // with >= 10k hot sites, one dashboard tick (absorb a small epoch delta,
        // render the watched top(32)) must be at least 5x cheaper than what a poll
        // loop pays (absorb the same delta, snapshot, full Query::evaluate). The
        // watch updates O(delta) group slots and maintains the top-k heap
        // incrementally; re-evaluation re-aggregates all sites every tick.
        println!("== live-query incremental smoke (CI gate) ==\n");
        let query = Query::new().rank_by(RankBy::WeightedEvents).top(32).min_samples(1);
        let seed = build_live_seed_delta();
        let samples = u64::from(LIVE_SITES) + u64::from(LIVE_TICKS) * u64::from(LIVE_DELTA_SITES);

        // Identity sanity before timing anything: after every tick the watch and a
        // cold evaluation agree byte for byte.
        {
            let fold = LiveFold::new();
            fold.provide_sites(live_sites());
            let mut lq = query.watch(&fold);
            fold.absorb(&seed).expect("seed epoch folds");
            for tick in 0..LIVE_TICKS {
                fold.absorb(&build_live_tick_delta(tick)).expect("tick delta folds");
                let live = lq.current();
                let cold = query.evaluate(&fold.snapshot()).expect("cold evaluation");
                assert_eq!(live.result.to_text(), cold.to_text(), "live == cold per tick");
            }
        }

        let reps = 5usize;
        let mut results = Vec::new();
        results.push(measure_live("live-watch", reps, samples, || {
            let fold = LiveFold::new();
            fold.provide_sites(live_sites());
            let mut lq = query.watch(&fold);
            fold.absorb(&seed).expect("seed epoch folds");
            let mut checksum = 0u64;
            for tick in 0..LIVE_TICKS {
                fold.absorb(&build_live_tick_delta(tick)).expect("tick delta folds");
                checksum += lq.current().result.groups.len() as u64;
            }
            checksum
        }));
        results.push(measure_live("poll-evaluate", reps, samples, || {
            let fold = LiveFold::new();
            fold.provide_sites(live_sites());
            fold.absorb(&seed).expect("seed epoch folds");
            let mut checksum = 0u64;
            for tick in 0..LIVE_TICKS {
                fold.absorb(&build_live_tick_delta(tick)).expect("tick delta folds");
                let result = query.evaluate(&fold.snapshot()).expect("cold evaluation");
                checksum += result.groups.len() as u64;
            }
            checksum
        }));
        print_results(&results);
        let ratio =
            throughput_of(&results, "live-watch", 1) / throughput_of(&results, "poll-evaluate", 1);
        println!(
            "\nlive-watch/poll-evaluate per-tick speedup: {ratio:.2}x \
             (gate >= 5.0 at {LIVE_SITES} sites, {LIVE_DELTA_SITES}-site deltas, top(32))"
        );
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(&path, &results, &[("live_query_tick_speedup", ratio)]);
            println!("recorded {path}");
        }
        if ratio < 5.0 {
            eprintln!(
                "FAIL: incremental live ticks fell below 5x of full re-evaluation ({ratio:.2}x)"
            );
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    if smoke_query {
        // CI regression gate for the query layer: evaluating a Query over a snapshot
        // must stay within 1.10x of the pre-redesign analyzer aggregation
        // (reconstructed in-bench as `legacy_analyze`) on the same profile — every
        // analysis consumer routes through Query, so a slow query layer would
        // silently tax all of them.
        println!("== query-evaluation contention smoke (CI gate) ==\n");
        let profile = build_query_profile();
        let query = Query::new();
        // Sanity: the query layer and the legacy aggregation agree on the ranking.
        let legacy_report = legacy_analyze(&profile);
        let query_result = query.evaluate(&profile).expect("owned profiles evaluate");
        assert_eq!(legacy_report.objects.len(), query_result.groups.len());
        for (object, group) in legacy_report.objects.iter().zip(&query_result.groups) {
            assert_eq!(object.class_name, group.label, "identical ranking");
            assert_eq!(object.metrics, group.metrics, "identical aggregation");
        }
        let reps = 7usize;
        let samples = profile.total_samples();
        let mut results = Vec::new();
        results.push(measure_eval("analyze-legacy", reps, samples, || {
            legacy_analyze(&profile).objects.len() as u64
        }));
        results.push(measure_eval("query-eval", reps, samples, || {
            query.evaluate(&profile).expect("owned profiles evaluate").groups.len() as u64
        }));
        print_results(&results);
        let ratio = throughput_of(&results, "query-eval", QUERY_THREADS)
            / throughput_of(&results, "analyze-legacy", QUERY_THREADS);
        println!(
            "\nquery-eval/analyze-legacy throughput: {ratio:.2} \
             (gate >= 0.909, i.e. query within 1.10x of the legacy analyzer)"
        );
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(&path, &results, &[("query_vs_legacy_ratio", ratio)]);
            println!("recorded {path}");
        }
        if ratio < 1.0 / 1.10 {
            eprintln!(
                "FAIL: query evaluation slower than 1.10x of the legacy analyzer ({ratio:.2})"
            );
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    if smoke {
        // CI regression gate for the cached fast path: sharded vs cached only, quick
        // streams, thresholds with a safety margin under the acceptance targets so an
        // oversubscribed runner does not flake while a real regression still fails.
        println!("== cached-pipeline contention smoke (CI gate) ==\n");
        let mut results = Vec::new();
        for threads in [1, MULTI_THREADS] {
            results.push(measure("sharded", sharded, threads, accesses, reps, false));
            results.push(measure("cached", cached, threads, accesses, reps, false));
        }
        print_results(&results);
        let multi = throughput_of(&results, "cached", MULTI_THREADS)
            / throughput_of(&results, "sharded", MULTI_THREADS);
        let single = throughput_of(&results, "cached", 1) / throughput_of(&results, "sharded", 1);
        println!(
            "\ncached/sharded @{MULTI_THREADS} threads: {multi:.2}x (gate >= 1.20)\n\
             cached/sharded @1 thread:  {single:.2} (gate >= 0.85)"
        );
        // Record the smoke rows too — CI points BENCH_CONTENTION_OUT at a scratch
        // path so this cannot clobber the full run's artifact.
        if let Ok(path) = std::env::var("BENCH_CONTENTION_OUT") {
            write_json(
                &path,
                &results,
                &[("cached_multi_thread_speedup", multi), ("cached_single_thread_ratio", single)],
            );
            println!("recorded {path}");
        }
        let mut failed = false;
        if multi < 1.20 {
            eprintln!(
                "FAIL: cached pipeline lost its multi-thread advantage ({multi:.2}x < 1.20x)"
            );
            failed = true;
        }
        if single < 0.85 {
            eprintln!(
                "FAIL: cached pipeline regressed single-thread throughput ({single:.2} < 0.85)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("smoke OK");
        return;
    }

    println!(
        "== sample-ingestion contention: full pipelines (period {}) + resolution substrate (period {}) ==\n\
         ({} accesses/thread, {} objects/thread ({} hot), best of {} reps{})\n",
        FULL_PERIOD,
        SUBSTRATE_PERIOD,
        accesses,
        OBJECTS_PER_THREAD,
        HOT_OBJECTS,
        reps,
        if quick { ", quick mode" } else { "" }
    );

    let mut results = Vec::new();
    // Family 1 — full three-collector pipelines: the PR 2 sharded-vs-global evidence.
    for threads in [1, MULTI_THREADS] {
        results.push(measure(
            "global-lock",
            || Box::new(GlobalLockPipeline::new()) as Box<dyn Pipeline>,
            threads,
            accesses,
            reps,
            false,
        ));
        results.push(measure(
            "sharded-full",
            || Box::new(SessionPipeline::full()) as Box<dyn Pipeline>,
            threads,
            accesses,
            reps,
            false,
        ));
    }
    // Family 2 — the resolution substrate: sharded vs cached at 1, MULTI and WIDE
    // threads (the global baseline's spin storm at WIDE on an oversubscribed runner
    // would dominate the wall clock without adding information).
    for threads in [1, MULTI_THREADS, WIDE_THREADS] {
        results.push(measure("sharded", sharded, threads, accesses, reps, false));
        results.push(measure("cached", cached, threads, accesses, reps, false));
    }
    // Adversarial GC-relocation churn: a background thread relocates hot objects
    // continuously while MULTI_THREADS ingest. The cache must degrade gracefully
    // (epoch invalidations), never fall behind the uncached sharded path.
    results.push(measure("sharded-churn", sharded, MULTI_THREADS, accesses, reps, true));
    results.push(measure("cached-churn", cached, MULTI_THREADS, accesses, reps, true));
    // Family 3 — streaming throughput: the full pipeline with and without a delta
    // drainer continuously exporting retired epochs (PR 4's ingest-overhead
    // evidence; the drainer serializes into io::sink so only the hand-off is
    // measured).
    for threads in [1, MULTI_THREADS] {
        results.push(measure("stream-off", stream_off, threads, accesses, reps, false));
        results.push(measure("stream-on", stream_on, threads, accesses, reps, false));
    }
    // Family 3b — fleet transport: the drainer shipping every retired delta over a
    // loopback socket to an aggregator daemon, vs the same session with no export
    // (`fleet-off` = stream-off at [`FLEET_PERIOD`]; the --smoke-fleet CI gate
    // enforces the ratio).
    let fleet_aggregator = FleetAggregator::bind("127.0.0.1:0").expect("loopback bind");
    let fleet_addr = fleet_aggregator.local_addr().expect("tcp aggregator").to_string();
    let fleet_seq = std::sync::atomic::AtomicU64::new(0);
    let fleet_off =
        || Box::new(SessionPipeline::streaming_at(FLEET_PERIOD, false)) as Box<dyn Pipeline>;
    let fleet_on = || {
        let id = fleet_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Box::new(SessionPipeline::fleet(&fleet_addr, &format!("bench{id}"))) as Box<dyn Pipeline>
    };
    for threads in [1, MULTI_THREADS] {
        results.push(measure("fleet-off", fleet_off, threads, accesses, reps, false));
        results.push(measure("fleet-on", fleet_on, threads, accesses, reps, false));
    }
    // Family 4 — delta-fold accumulation (the Coalesce-backpressure merge step and
    // DeltaFold replay): the keyed ProfileDelta::merge_from against the pre-redesign
    // linear-scan + re-sort reconstruction, over the same wide delta stream.
    let fold_deltas = build_fold_deltas();
    let (linear_row, linear_acc) =
        measure_fold("fold-linear", &fold_deltas, reps, merge_from_linear);
    let (keyed_row, keyed_acc) =
        measure_fold("fold-keyed", &fold_deltas, reps, |acc, delta| acc.merge_from(delta));
    assert_eq!(keyed_acc.total_samples(), linear_acc.total_samples(), "identical folds");
    assert_eq!(keyed_acc.threads.len(), linear_acc.threads.len());
    results.push(linear_row);
    results.push(keyed_row);
    // Family 5 — query-over-snapshot evaluation vs the legacy analyzer aggregation
    // (the ratio the --smoke-query CI gate enforces).
    let query_profile = build_query_profile();
    let query = Query::new();
    let query_samples = query_profile.total_samples();
    results.push(measure_eval("analyze-legacy", reps, query_samples, || {
        legacy_analyze(&query_profile).objects.len() as u64
    }));
    results.push(measure_eval("query-eval", reps, query_samples, || {
        query.evaluate(&query_profile).expect("owned profiles evaluate").groups.len() as u64
    }));
    // Family 6 — the live query engine: per-tick cost of an incrementally
    // maintained watch vs a full re-evaluation over a 10k-site fold (the
    // --smoke-live CI gate's ratio).
    let live_query = Query::new().rank_by(RankBy::WeightedEvents).top(32).min_samples(1);
    let live_seed = build_live_seed_delta();
    let live_samples = u64::from(LIVE_SITES) + u64::from(LIVE_TICKS) * u64::from(LIVE_DELTA_SITES);
    results.push(measure_live("live-watch", reps, live_samples, || {
        let fold = LiveFold::new();
        fold.provide_sites(live_sites());
        let mut lq = live_query.watch(&fold);
        fold.absorb(&live_seed).expect("seed epoch folds");
        let mut checksum = 0u64;
        for tick in 0..LIVE_TICKS {
            fold.absorb(&build_live_tick_delta(tick)).expect("tick delta folds");
            checksum += lq.current().result.groups.len() as u64;
        }
        checksum
    }));
    results.push(measure_live("poll-evaluate", reps, live_samples, || {
        let fold = LiveFold::new();
        fold.provide_sites(live_sites());
        fold.absorb(&live_seed).expect("seed epoch folds");
        let mut checksum = 0u64;
        for tick in 0..LIVE_TICKS {
            fold.absorb(&build_live_tick_delta(tick)).expect("tick delta folds");
            checksum +=
                live_query.evaluate(&fold.snapshot()).expect("cold evaluation").groups.len() as u64;
        }
        checksum
    }));

    print_results(&results);

    let multi_speedup = throughput_of(&results, "sharded-full", MULTI_THREADS)
        / throughput_of(&results, "global-lock", MULTI_THREADS);
    let single_ratio =
        throughput_of(&results, "sharded-full", 1) / throughput_of(&results, "global-lock", 1);
    let cached_multi = throughput_of(&results, "cached", MULTI_THREADS)
        / throughput_of(&results, "sharded", MULTI_THREADS);
    let cached_single =
        throughput_of(&results, "cached", 1) / throughput_of(&results, "sharded", 1);
    let cached_wide = throughput_of(&results, "cached", WIDE_THREADS)
        / throughput_of(&results, "sharded", WIDE_THREADS);
    let churn_ratio = throughput_of(&results, "cached-churn", MULTI_THREADS)
        / throughput_of(&results, "sharded-churn", MULTI_THREADS);
    let streaming_multi = throughput_of(&results, "stream-on", MULTI_THREADS)
        / throughput_of(&results, "stream-off", MULTI_THREADS);
    let streaming_single =
        throughput_of(&results, "stream-on", 1) / throughput_of(&results, "stream-off", 1);
    let fold_speedup = throughput_of(&results, "fold-keyed", FOLD_THREADS)
        / throughput_of(&results, "fold-linear", FOLD_THREADS);
    let query_ratio = throughput_of(&results, "query-eval", QUERY_THREADS)
        / throughput_of(&results, "analyze-legacy", QUERY_THREADS);
    let fleet_multi = throughput_of(&results, "fleet-on", MULTI_THREADS)
        / throughput_of(&results, "fleet-off", MULTI_THREADS);
    let fleet_single =
        throughput_of(&results, "fleet-on", 1) / throughput_of(&results, "fleet-off", 1);
    let live_speedup =
        throughput_of(&results, "live-watch", 1) / throughput_of(&results, "poll-evaluate", 1);

    println!(
        "\nsharded/global @{MULTI_THREADS} threads:  {multi_speedup:.2}x (target >= 2x)\n\
         sharded/global @1 thread:   {single_ratio:.2} (target >= 0.95)\n\
         cached/sharded @{MULTI_THREADS} threads:  {cached_multi:.2}x (target >= 1.5x)\n\
         cached/sharded @1 thread:   {cached_single:.2} (target >= 0.95)\n\
         cached/sharded @{WIDE_THREADS} threads:  {cached_wide:.2}x\n\
         cached/sharded under churn: {churn_ratio:.2}\n\
         stream-on/off  @{MULTI_THREADS} threads:  {streaming_multi:.2} (target >= 0.90)\n\
         stream-on/off  @1 thread:   {streaming_single:.2} (target >= 0.90)\n\
         keyed/linear delta fold:    {fold_speedup:.2}x (target >= 1x)\n\
         query/legacy evaluation:    {query_ratio:.2} (gate >= 0.909)\n\
         fleet-on/off   @{MULTI_THREADS} threads:  {fleet_multi:.2} (gate >= 0.909)\n\
         fleet-on/off   @1 thread:   {fleet_single:.2} (gate >= 0.909)\n\
         live-watch/poll-evaluate:   {live_speedup:.2}x (gate >= 5.0)"
    );

    // Cargo runs benches with the package directory as CWD; record the results at the
    // workspace root (override with BENCH_CONTENTION_OUT).
    let path = std::env::var("BENCH_CONTENTION_OUT").unwrap_or_else(|_| {
        match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(dir) => format!("{dir}/../../BENCH_contention.json"),
            Err(_) => "BENCH_contention.json".to_string(),
        }
    });
    let ratios: Vec<(&str, f64)> = vec![
        ("multi_thread_speedup", multi_speedup),
        ("single_thread_ratio", single_ratio),
        ("cached_multi_thread_speedup", cached_multi),
        ("cached_single_thread_ratio", cached_single),
        ("cached_wide_thread_speedup", cached_wide),
        ("gc_churn_ratio", churn_ratio),
        ("streaming_multi_thread_ratio", streaming_multi),
        ("streaming_single_thread_ratio", streaming_single),
        ("coalesce_fold_speedup", fold_speedup),
        ("query_vs_legacy_ratio", query_ratio),
        ("fleet_multi_thread_ratio", fleet_multi),
        ("fleet_single_thread_ratio", fleet_single),
        ("live_query_tick_speedup", live_speedup),
    ];
    write_json(&path, &results, &ratios);
    println!("\nrecorded {path}");
}
