//! The unified profiling session — the crate's one online profiler (the paper's
//! agent, §5.1): one sampling substrate, one object record.
//!
//! Comparing views (the paper's Figure 1) must not take one profiler per view, each
//! driving its *own* per-thread virtual PMUs, or a re-run of the workload. A
//! [`Session`] owns
//!
//! * the per-thread PMUs (one sampling stream for the whole session),
//! * the allocation agent and the shared object index (sorted interval shards + site
//!   registry; the paper's splay tree is replaced, see [`crate::interval`]),
//!
//! resolves every sample's effective address to its enclosing monitored object **once**,
//! and records the resolved sample once, into its thread's [`ThreadProfile`]: the
//! call path's CCT node, the allocation site's total and its one flat
//! `(site, access context)` cell (or the unattributed bucket), and the node-to-node
//! traffic matrix. The three classic views are
//! [`Query`](crate::query::Query) axes over that one record
//! ([`Session::object_profile`]), from the *same* samples of a *single* pass:
//!
//! * the **object-centric** view ([`GroupBy::Object`](crate::query::GroupBy::Object))
//!   — per allocation site, its metrics and access contexts; ranked by
//!   [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples) it is the
//!   per-object NUMA view;
//! * the **code-centric** view ([`GroupBy::Context`](crate::query::GroupBy::Context))
//!   — the thread CCTs' node metrics, which hold every sample at its calling
//!   context: the perf-like baseline;
//! * the **NUMA** traffic matrix ([`GroupBy::NodePair`](crate::query::GroupBy::NodePair))
//!   — the thread traffic matrices summed.
//!
//! Because the views are queries over one record, a replayed epoch log, a live watch
//! or a fleet aggregator's fold answers all three too.
//!
//! Sessions are configured with [`SessionBuilder`] (events, period, size filter, jitter,
//! launch/attach mode — one by one, or at once as a [`ProfilerConfig`] through
//! [`SessionBuilder::config`]), attach to a [`Runtime`] as one composite listener, and
//! support
//! incremental observation: [`Session::object_profile`] extracts the record mid-run
//! without stopping measurement (render it with
//! [`ObjectCentricProfile::to_text`]), and
//! [`SessionBuilder::stream_to`] adds **continuous push**: a background drainer
//! streams every retired epoch delta through a [`ProfileSink`] incrementally (see
//! [`crate::export`]).
//!
//! A live session is also a [`ProfileSource`](crate::query::ProfileSource): any
//! [`Query`](crate::query::Query) evaluates against it directly
//! ([`Session::query`]), reading a pause-free snapshot under the hood, and the same
//! query answers identically over the terminal snapshot, a replayed epoch log, or a
//! multi-process fold (see [`crate::query`]).
//!
//! # Contention-free ingestion: thread slots, sharded index, per-thread record
//!
//! Every per-thread table of the session — the PMUs and the record's open deltas —
//! gives each profiled thread one slot, registered once and found by indexing with
//! the runtime-issued [`ThreadId`]: no hash, no lock. An access that overflows no
//! counter touches nothing but its thread's PMU countdown; the per-sample path then
//! crosses three layers, and every one of them is built so two profiled threads do
//! not serialize on a shared lock in the common case:
//!
//! 1. **Sampler** — each thread's virtual PMU counts down to its next overflow with a
//!    relaxed load and store, and only an overflow takes the PMU's lock (see
//!    [`djx_pmu::ThreadPmu`]). An overflow's samples are dispatched through the two
//!    layers below straight out of the PMU's reused sample buffer, with that lock
//!    still held, so the whole path — unsampled or sampled — allocates nothing once the
//!    thread's slots exist, and every per-thread map on it hashes its runtime-issued
//!    keys with [`FxHasher`](crate::fxhash::FxHasher) instead of SipHash.
//! 2. **Object index** — sample addresses resolve one way (see [`crate::agent`]):
//!    through the address-sharded [`SharedObjectIndex`], one read-only binary search
//!    per address. The batch locks only the shards it touches and reuses the shard
//!    guard across spatially local addresses; an address outside every monitored
//!    object resolves to `None`. A garbage collection rebuilds each shard it touches
//!    under that shard's lock, so a batch sees all of a collection or none of it.
//! 3. **Record: one slot lock per batch** — each resolved batch is recorded into its
//!    thread's open delta under one acquisition of that thread's slot lock, not one
//!    per sample. The record keeps *per-thread* state in its own thread slots (a
//!    thread's samples arrive from that thread, so the state is logically
//!    thread-private; the slot's spin lock is shared only with snapshots).
//!
//! The slots assume what JVMTI and `djx_runtime` guarantee: one logical thread is
//! driven by one OS thread at a time. A caller that drives one [`ThreadId`] from two OS
//! threads at once loses PMU increments, never samples or memory safety — overflows
//! and the record stay behind their per-slot locks.
//!
//! # Pause-free snapshots: epoch-retired double buffering
//!
//! The read paths — [`Session::object_profile`] and every
//! [`Query`](crate::query::Query) evaluated against the session — must not stall
//! ingestion. The record therefore
//! lives in epoch-buffered thread slots: each snapshot advances the buffer epoch
//! and **retires** every slot's accumulated delta by taking it out under the slot's
//! spin lock — an O(1) move, the only instant a sampling thread can even notice — then
//! absorbs the retired delta into the producer fold, a
//! [`DeltaFold`](crate::profile::DeltaFold) like the one every consumer of the stream
//! folds with, and clones *that* outside every sampling lock. A sampling thread
//! arriving mid-snapshot simply starts a fresh delta; delta absorption is exact
//! (metric sums, CCT merges re-keyed by call path), so profiles assembled from any
//! snapshot cadence render identically to a single-piece run.
//! Per-thread views merge in thread-first-seen order, which keeps single-threaded
//! profiles bit-identical to the pre-sharding implementation.
//!
//! ```
//! use djx_runtime::{dsl, Runtime, RuntimeConfig};
//! use djxperf::query::{GroupBy, Query};
//! use djxperf::session::Session;
//!
//! let mut rt = Runtime::new(RuntimeConfig::small());
//! let session = Session::builder().period(64).collect_objects().attach(&mut rt);
//!
//! let class = rt.register_array_class("float[]", 4);
//! let method = dsl::MethodSpec::at_line("A", "run", "A.java", 1).register(&mut rt);
//! let thread = rt.spawn_thread("main");
//! dsl::bloat_loop(&mut rt, thread, class, method, 0, 50, 512, 16).unwrap();
//! rt.finish_thread(thread).unwrap();
//! rt.shutdown();
//!
//! let samples = session.object_profile().unwrap().total_samples();
//! assert!(samples > 0);
//! for axis in [GroupBy::Object, GroupBy::Context, GroupBy::NodePair] {
//!     let view = Query::new().group_by(axis).evaluate(&*session).unwrap();
//!     assert_eq!(view.total_samples, samples);
//! }
//! let cells = Query::new().group_by(GroupBy::NodePair).evaluate(&*session).unwrap();
//! assert_eq!(cells.groups.iter().map(|g| g.metrics.samples).sum::<u64>(), samples);
//! ```

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use djx_pmu::{PerfEventBuilder, PmuEvent, Sample, ThreadPmu, MAX_SAMPLED_EVENTS};
use djx_runtime::{
    AllocationEvent, Frame, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    Runtime, RuntimeListener, ThreadEvent, ThreadId,
};

use crate::agent::{AllocationAgent, AllocationConfig, SharedObjectIndex};
use crate::export::{DeltaDrainer, DrainPolicy, ExportShared, ExportStats, RebaseSource};
use crate::interval::LookupStats;
use crate::object::{AllocSite, AllocSiteId};
use crate::profile::{ObjectCentricProfile, ProfileDelta, ThreadDelta, ThreadProfile};
use crate::query::live::{LiveFold, LiveState};
use crate::sink::{FinishRecord, ProfileSink};
use crate::slots::ThreadSlots;
use crate::sync::SpinLock;

/// Default sampling period for simulated runs.
///
/// The paper samples L1 misses every 5,000,000 events, tuned for multi-minute executions
/// on real hardware (20–200 samples/s/thread). The simulated workloads in this repository
/// perform 10⁵–10⁷ accesses, so the default period is scaled down to keep the same
/// "tens to hundreds of samples per thread" regime; [`ProfilerConfig::paper_default`]
/// restores the paper's literal setting.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 512;

/// Configuration of the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilerConfig {
    /// The precise memory event to sample (L1 miss by default, as in the paper).
    pub event: PmuEvent,
    /// Sampling period in events.
    pub period: u64,
    /// Size filter `S` in bytes: allocations smaller than this are not monitored.
    pub size_filter: u64,
    /// Randomize the sampling period slightly around its nominal value to avoid
    /// lock-step bias.
    pub jitter: bool,
    /// Attach mode: objects first seen when the GC moves them are tracked under an
    /// unattributed site instead of being dropped — when the move's size passes the
    /// size filter (see [`SessionBuilder::attach_mode`]).
    pub attach_mode: bool,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            event: PmuEvent::L1Miss,
            period: DEFAULT_SAMPLE_PERIOD,
            size_filter: crate::agent::DEFAULT_SIZE_FILTER,
            jitter: false,
            attach_mode: false,
        }
    }
}

impl ProfilerConfig {
    /// The paper's literal evaluation settings: L1 misses sampled every 5M events,
    /// S = 1 KiB.
    pub fn paper_default() -> Self {
        Self { period: 5_000_000, ..Self::default() }
    }

    /// Replaces the sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_period(mut self, period: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        self.period = period;
        self
    }
}

// ---------------------------------------------------------------------------------------
// Epoch-retired double buffering (pause-free snapshots)
// ---------------------------------------------------------------------------------------

/// One thread's slot on the active side: the profile it accumulated in the open
/// epoch, and the first-seen sequence of its first delta, which every later delta of
/// the thread carries.
#[derive(Debug, Default)]
struct OpenDelta {
    seq: Option<u64>,
    profile: Option<ThreadProfile>,
}

/// Per-thread [`ThreadProfile`]s with epoch-based double buffering.
///
/// The **active** side is a [`ThreadSlots`] table the sampling hot path writes: each
/// thread's slot holds the profile it accumulated in the open epoch, behind a spin
/// lock only that thread and retirements take. A retirement advances
/// [`SnapshotBuffered::epoch`] and takes every slot's profile out under its spin lock
/// (O(1) — the only moment a sampling thread can block on a snapshot) as one
/// [`ProfileDelta`], which the **retired** side absorbs: the producer fold, a
/// [`DeltaFold`](crate::profile::DeltaFold) over every delta the session retired, the
/// same type every consumer of the stream folds with, held as the [`LiveFold`] a
/// streaming session hands out.
/// Only snapshot-side threads take the fold's non-poisoning mutex; it encloses the
/// brief slot takes, but sampling threads never take it, so no lock-order cycle
/// exists. Reads clone from the fold outside every sampling lock.
struct SnapshotBuffered {
    active: ThreadSlots<SpinLock<OpenDelta>>,
    /// Next first-seen sequence: one is drawn whenever a thread opens a delta.
    seq: AtomicU64,
    /// The producer fold, with the watches of the session's live fold.
    retired: LiveFold,
    /// Buffer generation; each retirement closes one epoch, under the fold's lock.
    epoch: AtomicU64,
}

impl SnapshotBuffered {
    /// An empty buffer whose producer fold carries the session's header.
    fn new(config: &ProfilerConfig) -> Self {
        Self {
            active: ThreadSlots::new(),
            seq: AtomicU64::new(0),
            retired: LiveFold::producer(config.event, config.period, config.size_filter),
            epoch: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the thread's open profile, creating it with `init` on first sight
    /// within the current epoch — the sampling-side entry point. Only the thread's own
    /// slot is locked.
    fn with<R>(
        &self,
        thread: ThreadId,
        init: impl FnOnce() -> ThreadProfile,
        f: impl FnOnce(&mut ThreadProfile) -> R,
    ) -> R {
        let (slot, _) = self.active.get_or_register(thread, || SpinLock::new(OpenDelta::default()));
        let mut slot = slot.lock();
        let OpenDelta { seq, profile } = &mut *slot;
        let profile = profile.get_or_insert_with(|| {
            // Every opened delta draws a sequence; the thread keeps its first.
            let drawn = self.seq.fetch_add(1, Ordering::Relaxed);
            seq.get_or_insert(drawn);
            init()
        });
        f(profile)
    }

    /// Number of completed retirements (diagnostics).
    fn retirements(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Closes the open epoch: every active slot's profile is taken out (O(1) under its
    /// spin lock; contended slots are acquired yielding, since this runs in normal
    /// thread context) as one delta in thread-first-seen order, carrying no sites yet.
    /// Call with the producer fold locked, which serializes retirements.
    fn take_epoch(&self) -> ProfileDelta {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut threads: Vec<ThreadDelta> = self
            .active
            .iter()
            .filter_map(|(_, slot)| {
                let mut slot = slot.lock_yielding();
                let profile = slot.profile.take()?;
                Some(ThreadDelta { seq: slot.seq.expect("drawn when the delta opened"), profile })
            })
            .collect();
        threads.sort_unstable_by_key(|d| (d.seq, d.profile.thread));
        ProfileDelta { epoch, threads, ..ProfileDelta::default() }
    }
}

// ---------------------------------------------------------------------------------------
// The object record
// ---------------------------------------------------------------------------------------

/// The object-centric record (§4.2/§5.1 of the paper) — the session's one sample
/// consumer: builds one [`ThreadProfile`] per thread, recording each sample at its
/// calling context, in the traffic matrix, and in the total and the
/// `(site, context)` cell of the enclosing object's allocation site — or in the
/// thread's unattributed bucket — and each monitored allocation in its site's total. Every view the session offers reads this record. State
/// is per-thread and epoch-buffered (see [the module docs](self)); a batch locks its
/// thread's slot exactly once, and snapshots retire state instead of cloning it
/// under the slot lock.
pub(crate) struct ObjectCentricCollector {
    state: SnapshotBuffered,
    /// The index whose site registry the recorded site ids point into.
    index: Arc<SharedObjectIndex>,
    /// The export stream's counters and drainer wake-up, when the session streams
    /// ([`SessionBuilder::stream_to`]). Until the stream's finish, every retirement
    /// hands its delta to the stream, which is what keeps the stream loss-free no
    /// matter who triggers the retirement.
    stream: Option<Arc<ExportShared>>,
}

impl ObjectCentricCollector {
    /// Creates an empty record of site ids of `index`'s registry, under the
    /// session's `config` header, retiring into `stream` when the session streams.
    pub(crate) fn new(
        index: Arc<SharedObjectIndex>,
        config: &ProfilerConfig,
        stream: Option<Arc<ExportShared>>,
    ) -> Self {
        Self { state: SnapshotBuffered::new(config), index, stream }
    }

    /// Records one monitored allocation of `bytes` bytes at `site` into the
    /// allocating thread's open delta, like a sample.
    pub(crate) fn record_allocation(&self, thread: ThreadId, site: AllocSiteId, bytes: u64) {
        self.state.with(
            thread,
            || ThreadProfile::new(thread, "<attached>"),
            |profile| profile.record_allocation(site, bytes),
        );
    }

    /// Opens the thread's delta under its real `name` (or `"<attached>"` when the
    /// session first saw it through an access), so the thread's first-seen position
    /// and name are fixed before anything is recorded for it. Called once per thread.
    pub(crate) fn thread_seen(&self, thread: ThreadId, name: &str) {
        self.state.with(thread, || ThreadProfile::new(thread, name), |_| ());
    }

    /// Records one resolved overflow batch of `thread` — the samples and, parallel to
    /// them, each sample's allocation site (`None` when unattributed) — at the calling
    /// context `call_trace`, taking the thread's slot lock once for the whole batch.
    pub(crate) fn record_batch(
        &self,
        thread: ThreadId,
        call_trace: &[Frame],
        samples: &[Sample],
        sites: &[Option<AllocSiteId>],
        period: u64,
    ) {
        self.state.with(
            thread,
            || ThreadProfile::new(thread, "<attached>"),
            |profile| {
                for (sample, site) in samples.iter().zip(sites) {
                    profile.record_sample(*site, call_trace, sample, period);
                }
            },
        );
    }

    /// Approximate resident bytes of the record (memory-overhead accounting): the
    /// active table and its open profiles, and the producer fold with its copy of the
    /// site table. The fold's lock is held across both reads, so a retirement cannot
    /// move state between them.
    pub(crate) fn approx_bytes(&self) -> usize {
        let st = self.state.retired.lock();
        let fold = st.record();
        let retired = fold.threads().map(ThreadProfile::approx_bytes).sum::<usize>()
            + fold.sites().iter().map(AllocSite::approx_bytes).sum::<usize>();
        let open: usize = self
            .state
            .active
            .iter()
            .map(|(_, slot)| {
                slot.lock_yielding().profile.as_ref().map_or(0, ThreadProfile::approx_bytes)
            })
            .sum();
        self.state.active.approx_bytes() + retired + open
    }

    /// Closes the open epoch — the one retirement behind every profile read, flush,
    /// drainer tick and finish; the caller holds the producer fold's lock, which
    /// orders them. The delta carries every site interned since the record's table
    /// ends: sites are interned before anything records them, so reading the
    /// registry after taking the slots covers every id the taken fragments
    /// reference. Until the stream's finish, a streaming session absorbs a non-empty
    /// delta, feeds the live fold's watches and merges it into the pending delta,
    /// all in this one critical section; otherwise the delta moves into the record.
    /// Returns the stream when its drainer has a delta to take: the caller wakes it
    /// ([`ExportShared::wake`]) once the lock is released.
    fn retire(&self, st: &mut LiveState) -> Option<&ExportShared> {
        let mut delta = self.state.take_epoch();
        delta.site_base = st.record().sites().len();
        delta.sites = self.index.sites.lock().since(delta.site_base);
        match self.open_stream(st) {
            Some(stream) => stream.hand_off(st, delta).then_some(stream),
            None => {
                st.absorb_unstreamed(delta);
                None
            }
        }
    }

    /// The export stream while it is open: the session streams and the fold holds
    /// no finish record — the one record that the stream ended.
    fn open_stream(&self, st: &LiveState) -> Option<&ExportShared> {
        self.stream.as_deref().filter(|_| !st.fold().is_finished())
    }

    /// The record's site table and per-thread profiles, in thread-first-seen order:
    /// the open epoch is retired into the producer fold, which is then cloned out.
    /// On a streaming session the retirement goes through the export stream —
    /// absorbing it silently would leave samples in the fold that never appear as a
    /// streamed delta, breaking the stream's loss-free replay.
    pub(crate) fn profile_parts(&self) -> (Vec<AllocSite>, Vec<ThreadProfile>) {
        let mut st = self.state.retired.lock();
        let woken = self.retire(&mut st);
        let fold = st.record();
        let parts = (fold.sites().to_vec(), fold.threads().cloned().collect());
        drop(st);
        if let Some(stream) = woken {
            stream.wake();
        }
        parts
    }

    /// `true` while the session streams and its stream has not finished.
    pub(crate) fn streaming(&self) -> bool {
        self.open_stream(&self.state.retired.lock()).is_some()
    }

    /// Retires one epoch into the export stream — a flush or the drainer's tick.
    /// Returns `false`, retiring nothing, when the session does not stream or its
    /// stream finished.
    pub(crate) fn flush(&self) -> bool {
        let mut st = self.state.retired.lock();
        if self.open_stream(&st).is_none() {
            return false;
        }
        if let Some(stream) = self.retire(&mut st) {
            drop(st);
            stream.wake();
        }
        true
    }

    /// Ends the stream in one critical section: retires the closing epoch, closes the
    /// fold with the terminal [`FinishRecord`] — built from the fold's header and
    /// sample total and the agent's counters, so the checksum counts exactly the
    /// streamed deltas — which closes every watch; then, with the lock released, wakes
    /// the drainer to write the last pending delta and the record. A no-op on a
    /// session that does not stream or already finished.
    pub(crate) fn finish_stream(&self, allocation: &AllocationAgent) {
        let mut st = self.state.retired.lock();
        let Some(stream) = self.open_stream(&st) else {
            return;
        };
        self.retire(&mut st);
        let fold = st.fold();
        let (event, period) = fold.header();
        let record = FinishRecord {
            event,
            period,
            size_filter: fold.size_filter(),
            allocation_stats: allocation.stats(),
            total_samples: fold.total_samples(),
        };
        st.finish(record).expect("the fold's own sample total");
        drop(st);
        stream.wake();
    }

    /// The drainer's take, in one short critical section under the fold's lock: the
    /// pending delta and, once the stream finished, its finish record.
    pub(crate) fn take_pending(&self) -> (Option<ProfileDelta>, Option<FinishRecord>) {
        self.state.retired.lock().take_pending()
    }

    /// The session's live fold — the producer fold itself — when the session
    /// streams.
    pub(crate) fn live_fold(&self) -> Option<LiveFold> {
        self.stream.is_some().then(|| self.state.retired.clone())
    }

    /// Everything the stream carried so far as one delta at site base 0: the fleet
    /// re-base delta.
    pub(crate) fn rebase_delta(&self) -> ProfileDelta {
        self.state.retired.lock().fold().accumulator().clone()
    }
}

// ---------------------------------------------------------------------------------------
// The sampler: one virtual PMU per thread
// ---------------------------------------------------------------------------------------

/// The session's sampling substrate: one [`ThreadPmu`] per thread, in a
/// [`ThreadSlots`] table. Observing an access — the hottest operation of the whole
/// session, it runs for every memory access, sampled or not — finds the thread's PMU
/// with two loads and advances its lock-free countdown; only an overflow takes the
/// PMU's lock. The lock stays held while the overflow is dispatched (the samples
/// borrow the PMU's buffer); every lock the dispatch takes — index shards, then the
/// record's slot — nests inside it, and none of their holders ever takes a PMU lock,
/// so no cycle exists.
#[derive(Debug)]
struct Sampler {
    builder: PerfEventBuilder,
    pmus: ThreadSlots<ThreadPmu>,
    total_samples: AtomicU64,
}

impl Sampler {
    fn new(builder: PerfEventBuilder) -> Self {
        Self { builder, pmus: ThreadSlots::new(), total_samples: AtomicU64::new(0) }
    }

    /// Programs a PMU for `thread` if none exists yet; returns `true` when the thread
    /// is new to the session.
    fn ensure_thread(&self, thread: ThreadId) -> bool {
        self.pmus.get_or_register(thread, || self.builder.open_for_thread(thread.0)).1
    }

    fn disable_thread(&self, thread: ThreadId) {
        if let Some(pmu) = self.pmus.get(thread) {
            pmu.disable();
        }
    }

    /// Feeds one access outcome to the thread's PMU, programming the PMU first — and
    /// calling `on_new` — when the thread is new to the session. `on_overflow` gets the
    /// overflow samples, which borrow the PMU's reused sample buffer, so it runs with
    /// the PMU's lock held; an access that overflows nothing takes no lock at all.
    #[inline]
    fn observe_ensuring(
        &self,
        event: &MemoryAccessEvent<'_>,
        on_new: impl FnOnce(),
        on_overflow: impl FnOnce(&[Sample]),
    ) {
        let pmu = match self.pmus.get(event.thread) {
            Some(pmu) => pmu,
            None => {
                let (pmu, registered) = self
                    .pmus
                    .get_or_register(event.thread, || self.builder.open_for_thread(event.thread.0));
                if registered {
                    on_new();
                }
                pmu
            }
        };
        pmu.observe(&event.outcome, |samples| {
            self.total_samples.fetch_add(samples.len() as u64, Ordering::Relaxed);
            on_overflow(samples);
        });
    }

    fn total_samples(&self) -> u64 {
        self.total_samples.load(Ordering::Relaxed)
    }

    /// Per programmed event, the events its counters counted across every thread.
    fn event_totals(&self) -> Vec<(PmuEvent, u64)> {
        let mut totals: Vec<(PmuEvent, u64)> =
            self.builder.events().iter().map(|(event, _)| (*event, 0)).collect();
        for (_, pmu) in self.pmus.iter() {
            for ((_, total), (_, counter)) in totals.iter_mut().zip(pmu.counters()) {
                *total += counter.total();
            }
        }
        totals
    }

    fn thread_count(&self) -> usize {
        self.pmus.len()
    }

    fn approx_bytes(&self) -> usize {
        self.pmus.approx_bytes()
    }
}

/// The allocation sites resolved for one access's overflow samples, parallel to them and
/// held inline — an access yields at most one sample per programmed event, so
/// [`MAX_SAMPLED_EVENTS`] slots always suffice and dispatching allocates nothing.
#[derive(Default)]
struct SiteBatch {
    len: usize,
    sites: [Option<AllocSiteId>; MAX_SAMPLED_EVENTS],
}

impl SiteBatch {
    fn as_slice(&self) -> &[Option<AllocSiteId>] {
        &self.sites[..self.len]
    }
}

impl Extend<Option<AllocSiteId>> for SiteBatch {
    fn extend<I: IntoIterator<Item = Option<AllocSiteId>>>(&mut self, sites: I) {
        for site in sites {
            self.sites[self.len] = site;
            self.len += 1;
        }
    }
}

// ---------------------------------------------------------------------------------------
// SessionBuilder
// ---------------------------------------------------------------------------------------

/// Expected live-object volume the default build feeds the adaptive shard heuristic.
const DEFAULT_EXPECTED_LIVE_OBJECTS: usize = 2048;

/// The adaptive shard-count heuristic: sizes a [`SharedObjectIndex`] from the expected
/// thread parallelism and [`DEFAULT_EXPECTED_LIVE_OBJECTS`].
///
/// Two pressures argue for more shards: concurrently sampling threads colliding on a
/// shard lock (≈4 shards per thread keeps the collision probability low under random
/// region interleaving), and per-shard arrays growing long (≈512 live objects per
/// shard keeps the miss-path binary search and each shard's GC-end rebuild short).
/// The result is the next power of two covering the stronger pressure, clamped to
/// `[4, 64]` (shard sets are 64-bit masks).
fn adaptive_shard_count(threads: usize) -> usize {
    let for_threads = threads.saturating_mul(4);
    let for_volume = DEFAULT_EXPECTED_LIVE_OBJECTS / 512;
    for_threads.max(for_volume).clamp(4, 64).next_power_of_two().min(64)
}

/// Configures and builds a [`Session`].
///
/// The builder fixes the sampling configuration once — event, period, size filter,
/// jitter, launch/attach mode — then turns on the object record
/// ([`SessionBuilder::collect_objects`], or implicitly with an export stream) and tunes
/// the ingestion topology (index shard count).
/// [`SessionBuilder::attach`] registers the finished session with a runtime in one
/// step.
#[derive(Default)]
pub struct SessionBuilder {
    config: ProfilerConfig,
    objects: bool,
    index_shards: Option<usize>,
    export: Option<ExportConfig>,
}

/// Deferred [`SessionBuilder::stream_to`] configuration; the drainer spawns at build.
struct ExportConfig {
    sink: Arc<dyn ProfileSink>,
    out: Box<dyn io::Write + Send>,
    policy: DrainPolicy,
    /// The same sink when it is a fleet sink, which re-bases from the stream.
    fleet: Option<Arc<crate::fleet::FleetSink>>,
}

impl SessionBuilder {
    /// A builder with the default configuration and no object record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: ProfilerConfig) -> Self {
        self.config = config;
        self
    }

    /// The precise memory event to sample (L1 miss by default, as in the paper).
    pub fn event(mut self, event: PmuEvent) -> Self {
        self.config.event = event;
        self
    }

    /// Sampling period in events.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn period(mut self, period: u64) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        self.config.period = period;
        self
    }

    /// Size filter `S` in bytes: allocations smaller than this are not monitored.
    pub fn size_filter(mut self, bytes: u64) -> Self {
        self.config.size_filter = bytes;
        self
    }

    /// Randomizes the sampling period around its nominal value (±25 %) to avoid
    /// lock-step bias.
    pub fn jitter(mut self, jitter: bool) -> Self {
        self.config.jitter = jitter;
        self
    }

    /// Attach mode: objects first seen when the GC moves them are tracked under the
    /// unattributed site instead of being dropped. Use when the session attaches to an
    /// already-running workload; launch mode (the default) assumes the session observes
    /// the program from the start.
    ///
    /// The size filter applies to these objects too: the allocation agent keeps no
    /// record of the allocations it filtered, so it judges every move by the size the
    /// move carries, and an unknown object smaller than the filter stays untracked.
    pub fn attach_mode(mut self, attach: bool) -> Self {
        self.config.attach_mode = attach;
        self
    }

    /// Keeps the object record: each thread's [`ThreadProfile`], which
    /// [`Session::object_profile`] and every [`Query`](crate::query::Query) read.
    /// Without it (and without an export stream) the session still samples and
    /// resolves, but records nothing — a bare sampler and index.
    pub fn collect_objects(mut self) -> Self {
        self.objects = true;
        self
    }

    /// Alias of [`SessionBuilder::collect_objects`]: the code-centric view is the
    /// [`GroupBy::Context`](crate::query::GroupBy::Context) query over the object
    /// profile. Kept only because the pipeline benchmark still calls it; new code
    /// calls `collect_objects`.
    pub fn collect_code(self) -> Self {
        self.collect_objects()
    }

    /// Alias of [`SessionBuilder::collect_objects`]: the NUMA traffic matrix is the
    /// [`GroupBy::NodePair`](crate::query::GroupBy::NodePair) query over the object
    /// profile. Kept only because the pipeline benchmark still calls it; new code
    /// calls `collect_objects`.
    pub fn collect_numa(self) -> Self {
        self.collect_objects()
    }

    /// Pins the object-index shard count, overriding the adaptive heuristic. Must be a
    /// power of two in `1..=64` (validated when the session is built).
    pub fn index_shards(mut self, shards: usize) -> Self {
        self.index_shards = Some(shards);
        self
    }

    /// Streams the session's object-centric profile **continuously** through `sink`
    /// into `out`: a background drainer thread closes
    /// buffer epochs on the cadence of `policy` and writes each retired
    /// [`ProfileDelta`] incrementally ([`ProfileSink::on_delta`]), so export cost
    /// scales with the delta instead of the accumulated profile — see
    /// [`crate::export`] for the pipeline, the hand-off rule and the loss-free
    /// guarantee.
    ///
    /// Keeps the object record implicitly (the delta source).
    /// Close the stream with [`Session::finish_export`]; dropping the session's last
    /// reference finishes it implicitly.
    pub fn stream_to(
        mut self,
        sink: Arc<dyn ProfileSink>,
        out: Box<dyn io::Write + Send>,
        policy: DrainPolicy,
    ) -> Self {
        self.export = Some(ExportConfig { sink, out, policy, fleet: None });
        self
    }

    /// Streams the session's epoch deltas as a compact **binary** epoch log into
    /// `out`: [`SessionBuilder::stream_to`] with a
    /// [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink). The log replays
    /// byte-identically to the session's terminal snapshot
    /// ([`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes))
    /// — see [`crate::wire`] for the frame format.
    pub fn stream_to_binary(self, out: Box<dyn io::Write + Send>, policy: DrainPolicy) -> Self {
        self.stream_to(Arc::new(crate::wire::BinaryChunkedSink::new()), out, policy)
    }

    /// Streams the session's epoch deltas to a fleet aggregator through an
    /// already-connected [`FleetSink`](crate::fleet::FleetSink): the same
    /// [drain pipeline](crate::export) as [`SessionBuilder::stream_to`], with frames
    /// going over the sink's socket instead of a local writer (the local writer
    /// slot is a no-op [`io::sink`]). See [`crate::fleet`] for the wire protocol
    /// and reconnect semantics.
    ///
    /// The sink never wedges the drainer: ack deadlines fail slow frames back
    /// into its bounded buffer, outages spill to disk, and reconnects back off
    /// with jitter — tune the deadlines, buffer and backoff through
    /// [`FleetSink::builder`](crate::fleet::FleetSink::builder) before handing
    /// the sink here. Even a drainer held by the sink (a failed or full spill
    /// file) never makes a snapshot or flush wait: the deltas retired meanwhile
    /// merge into the one pending delta. An aggregator that lost its state gets one
    /// delta of this session's whole stream so far instead of the backlog (a
    /// re-base).
    pub fn stream_to_fleet(self, sink: Arc<crate::fleet::FleetSink>, policy: DrainPolicy) -> Self {
        let out = Box::new(io::sink());
        Self {
            export: Some(ExportConfig { sink: sink.clone(), out, policy, fleet: Some(sink) }),
            ..self
        }
    }

    /// Builds the session without attaching it (use
    /// [`Runtime::add_listener`] with the returned `Arc`, or
    /// [`Session::attach_to`] later).
    pub fn build(self) -> Arc<Session> {
        let config = self.config;
        let shards = self.index_shards.unwrap_or_else(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
            adaptive_shard_count(threads)
        });
        let shared = SharedObjectIndex::with_shards(shards);
        let allocation = AllocationAgent::new(
            AllocationConfig { size_filter: config.size_filter, attach_mode: config.attach_mode },
            shared.clone(),
        );
        let builder = PerfEventBuilder::new(config.event)
            .sample_period(config.period)
            .jitter(config.jitter);

        // The collector gets the stream's counters here; they refer to nothing, so
        // the drainer's hold on the collector makes no cycle.
        let stream = self.export.is_some().then(|| Arc::new(ExportShared::default()));
        let objects = (self.objects || self.export.is_some()).then(|| {
            Arc::new(ObjectCentricCollector::new(shared.clone(), &config, stream.clone()))
        });
        let export = self.export.zip(stream).map(|(cfg, stream)| {
            let objects = objects.clone().expect("stream_to keeps the object record");
            if let Some(fleet) = cfg.fleet {
                fleet.set_rebase_source(RebaseSource(Arc::downgrade(&objects)));
            }
            DeltaDrainer::spawn(stream, objects, cfg.sink, cfg.out, cfg.policy)
        });

        Arc::new(Session {
            config,
            shared,
            allocation,
            sampler: Sampler::new(builder),
            objects,
            export,
        })
    }

    /// Builds the session and attaches it to `rt` in one step. Launch mode when called
    /// before the workload starts, attach mode otherwise (combine with
    /// [`SessionBuilder::attach_mode`] for correct GC-move handling in the latter case).
    pub fn attach(self, rt: &mut Runtime) -> Arc<Session> {
        let session = self.build();
        rt.add_listener(session.clone());
        session
    }
}

// ---------------------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------------------

/// A live profiling session: the composite runtime listener driving the allocation
/// agent, the shared per-thread PMUs, and the object record. See the
/// [module documentation](self).
pub struct Session {
    config: ProfilerConfig,
    shared: Arc<SharedObjectIndex>,
    allocation: AllocationAgent,
    sampler: Sampler,
    /// The object record; `None` when the builder asked for neither
    /// [`SessionBuilder::collect_objects`] nor an export stream.
    objects: Option<Arc<ObjectCentricCollector>>,
    /// The asynchronous export pipeline, when the builder configured
    /// [`SessionBuilder::stream_to`]. Until its finish, every epoch retirement of the
    /// object record routes its delta into the stream.
    export: Option<DeltaDrainer>,
}

impl Session {
    /// Starts configuring a new session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's configuration.
    pub fn config(&self) -> ProfilerConfig {
        self.config
    }

    /// Attaches the session to a runtime (equivalent to
    /// `rt.add_listener(session.clone())`).
    pub fn attach_to(self: &Arc<Self>, rt: &mut Runtime) {
        rt.add_listener(self.clone());
    }

    /// Detaches the session from the runtime. Returns `true` when it was attached.
    /// Collected profiles remain readable after detaching.
    pub fn detach(self: &Arc<Self>, rt: &mut Runtime) -> bool {
        let listener: Arc<dyn RuntimeListener> = self.clone();
        rt.remove_listener(&listener)
    }

    /// Number of currently live monitored objects (object-index entries, shard copies
    /// excluded).
    pub fn live_monitored_objects(&self) -> usize {
        self.shared.live_objects()
    }

    /// Allocation-agent counters.
    pub fn allocation_stats(&self) -> crate::profile::AllocationStats {
        self.allocation.stats()
    }

    /// Total PMU samples delivered across every thread.
    pub fn total_samples(&self) -> u64 {
        self.sampler.total_samples()
    }

    /// Number of threads whose PMU the session has programmed.
    pub fn thread_count(&self) -> usize {
        self.sampler.thread_count()
    }

    /// Per programmed event, in programming order, the number of events its counters
    /// counted across every thread — the exact count the samples estimate (ground
    /// truth for attribution checks). Takes every thread's PMU lock.
    pub fn event_totals(&self) -> Vec<(PmuEvent, u64)> {
        self.sampler.event_totals()
    }

    /// Object-index lookup statistics, merged over every shard: shard lookups/hits
    /// (one lookup per sample; a hit is a sample inside a monitored object) and
    /// read-only lookups/hits (the GC-end identity probes).
    ///
    /// The name predates the flat interval index that replaced the paper's splay tree
    /// (see [`crate::interval`]); it stays until the benchmark harness that reads it is
    /// renamed with it.
    pub fn splay_lookup_stats(&self) -> LookupStats {
        self.shared.lookup_stats()
    }

    /// Number of shards of the session's object index.
    pub fn index_shard_count(&self) -> usize {
        self.shared.shard_count()
    }

    /// Number of buffer epochs the object record has retired (every profile
    /// assembly and every export drain closes one epoch — a diagnostic for the
    /// pause-free snapshot path; 0 when the session keeps no record).
    ///
    /// The counter is read with a single `Relaxed` atomic load: retirements increment
    /// it under the producer fold's lock, so the value is **monotonically
    /// non-decreasing** across any sequence of reads (from any thread), but a read is
    /// not ordered against the retired *state* itself — treat it as a lower bound on
    /// the retirements that have completed, never as a synchronization point.
    pub fn snapshot_retirements(&self) -> u64 {
        self.objects.as_ref().map(|c| c.state.retirements()).unwrap_or(0)
    }

    /// `true` while an export stream configured with [`SessionBuilder::stream_to`] is
    /// accepting deltas.
    pub fn export_active(&self) -> bool {
        self.objects.as_ref().is_some_and(|objects| objects.streaming())
    }

    /// Live statistics of the export stream, or `None` when the session streams
    /// nowhere.
    pub fn export_stats(&self) -> Option<ExportStats> {
        self.export.as_ref().map(|e| e.stats())
    }

    /// Closes the current buffer epoch and routes its delta into the export stream
    /// immediately, without waiting for the drainer's tick or a snapshot. Returns
    /// `false` when the session has no active export stream (nothing happens).
    pub fn flush_export(&self) -> bool {
        self.objects.as_ref().is_some_and(|objects| objects.flush())
    }

    /// Ends the export stream: drains the closing delta, writes the stream's
    /// [`FinishRecord`] trailer through [`ProfileSink::on_finish`], flushes the
    /// writer, and joins the background drainer. Returns the stream's accumulated [`ExportStats`].
    /// Idempotent — repeated calls replay the first outcome. Dropping the session's
    /// last reference calls this implicitly (drain-on-drop), discarding the result.
    ///
    /// # Errors
    ///
    /// Returns an error when no export stream was configured, or with the first
    /// sink/write error the drainer encountered (the stream keeps consuming deltas
    /// after an error, up to its terminal record, but stops writing).
    pub fn finish_export(&self) -> io::Result<ExportStats> {
        let export = self.export.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "session has no export stream (configure one with SessionBuilder::stream_to)",
            )
        })?;
        export.finish(&self.allocation)
    }

    /// Approximate resident bytes of every session-owned data structure — the quantity
    /// behind the paper's memory-overhead figure (Fig. 4b).
    pub fn memory_footprint_bytes(&self) -> usize {
        self.shared.approx_bytes()
            + self.allocation.approx_bytes()
            + self.sampler.approx_bytes()
            + self.objects.as_ref().map_or(0, |objects| objects.approx_bytes())
    }

    /// Assembles the object record's current state into an
    /// [`ObjectCentricProfile`]: per-thread profiles (samples and allocation counts),
    /// the allocation-site table, and the run configuration. Can be called repeatedly
    /// (including mid-run); each call produces an independent snapshot. `None` when
    /// the session keeps no record.
    pub fn object_profile(&self) -> Option<ObjectCentricProfile> {
        // The profile is the producer fold: on a streaming session, by construction
        // the fold of every streamed delta (and, after the finish, of every later
        // retirement).
        let (sites, threads) = self.objects.as_ref()?.profile_parts();
        Some(ObjectCentricProfile {
            event: self.config.event,
            period: self.config.period,
            size_filter: self.config.size_filter,
            sites,
            threads,
            allocation_stats: self.allocation.stats(),
        })
    }

    /// Evaluates a [`Query`](crate::query::Query) against the session's live
    /// object-centric state (a pause-free snapshot under the hood) — equivalent to
    /// `query.evaluate(&*session)`. Each call observes the samples ingested so far;
    /// a later call sees later samples.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::SourceUnavailable`](crate::query::QueryError) when the
    /// session keeps no object record.
    pub fn query(
        &self,
        query: &crate::query::Query,
    ) -> Result<crate::query::QueryResult, crate::query::QueryError> {
        query.evaluate(self)
    }

    /// The session's [`LiveFold`]: its producer fold itself, shared by `Arc` — the
    /// fold its profile reads, with the watches registered on it. Every retirement
    /// absorbs its delta, feeds the watches and hands the delta to the drainer under
    /// the fold's one lock, so the fold observes exactly the stream the sink logs,
    /// site table included, and the terminal flush (an explicit
    /// [`Session::finish_export`] or drain-on-drop) closes it with the stream's
    /// finish record. Attaching one copies and allocates nothing.
    ///
    /// After the finish the fold stays the terminal stream — watches registered on
    /// it render the final state and their
    /// [`next_epoch`](crate::query::live::LiveQuery::next_epoch) iterators drain
    /// immediately — while later reads still reach the session's profile.
    ///
    /// The fold is read-only to callers: [`LiveFold::absorb`] and
    /// [`LiveFold::finish`] on it return
    /// [`FoldError::ReadOnly`](crate::profile::FoldError::ReadOnly) and leave it
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::SourceUnavailable`](crate::query::QueryError) when the
    /// session has no export stream (configure one with
    /// [`SessionBuilder::stream_to`]).
    pub fn live_fold(&self) -> Result<LiveFold, crate::query::QueryError> {
        self.objects.as_ref().and_then(|objects| objects.live_fold()).ok_or_else(|| {
            crate::query::QueryError::SourceUnavailable(
                "session has no export stream (configure one with SessionBuilder::stream_to)"
                    .to_string(),
            )
        })
    }

    /// Registers a live subscription for `query` on this session's delta stream —
    /// shorthand for `query.watch(&session.live_fold()?)`: the watch is registered
    /// on the session's producer fold, seeded from it in place and fed by every
    /// later retirement. The returned [`LiveQuery`](crate::query::live::LiveQuery)
    /// keeps the fold alive; its results are epoch-versioned and byte-identical to
    /// cold evaluations over the fold's snapshots.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::live_fold`].
    pub fn watch(
        &self,
        query: &crate::query::Query,
    ) -> Result<crate::query::live::LiveQuery, crate::query::QueryError> {
        Ok(query.watch(&self.live_fold()?))
    }

    /// Resolves one overflow batch and records it into the object record. Inlined
    /// into the sample path: on its own it may land in another codegen unit than
    /// its one caller, at a cost to every overflow batch.
    #[inline]
    fn dispatch_samples(&self, event: &MemoryAccessEvent<'_>, samples: &[Sample]) {
        // Resolve each sample's effective address to the enclosing monitored object
        // once, through the index shards the batch touches (the guard is reused across
        // the batch's spatially local addresses).
        let mut sites = SiteBatch::default();
        self.shared.resolve_batch(samples.iter().map(|s| &s.effective_addr), &mut sites);
        if let Some(objects) = &self.objects {
            objects.record_batch(
                event.thread,
                event.call_trace,
                samples,
                sites.as_slice(),
                self.config.period,
            );
        }
    }

    /// Programs the thread's PMU on first sight and opens its record under `name`.
    fn thread_seen(&self, thread: ThreadId, name: &str) {
        if self.sampler.ensure_thread(thread) {
            if let Some(objects) = &self.objects {
                objects.thread_seen(thread, name);
            }
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("total_samples", &self.total_samples())
            .finish()
    }
}

impl Drop for Session {
    /// Drain-on-drop: a still-streaming session finishes its export (final delta,
    /// terminal flush, drainer join) before the writer disappears, so forgetting
    /// [`Session::finish_export`] never loses streamed data. The result is discarded;
    /// call [`Session::finish_export`] explicitly to observe errors and statistics.
    fn drop(&mut self) {
        if self.export.is_some() {
            let _ = self.finish_export();
        }
    }
}

impl RuntimeListener for Session {
    fn on_vm_start(&self) {
        self.allocation.on_vm_start();
    }

    fn on_vm_end(&self) {
        self.allocation.on_vm_end();
    }

    fn on_thread_start(&self, event: &ThreadEvent<'_>) {
        self.allocation.on_thread_start(event);
        self.thread_seen(event.thread, event.name);
    }

    fn on_thread_end(&self, event: &ThreadEvent<'_>) {
        self.allocation.on_thread_end(event);
        self.sampler.disable_thread(event.thread);
    }

    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        if let (Some(site), Some(objects)) = (self.allocation.on_object_alloc(event), &self.objects)
        {
            objects.record_allocation(event.thread, site, event.size);
        }
    }

    fn on_memory_access(&self, event: &MemoryAccessEvent<'_>) {
        // Threads that started before the session attached get a PMU lazily, and the
        // overflow samples are dispatched straight out of the PMU's buffer.
        self.sampler.observe_ensuring(
            event,
            || {
                if let Some(objects) = &self.objects {
                    objects.thread_seen(event.thread, "<attached>");
                }
            },
            |samples| self.dispatch_samples(event, samples),
        );
    }

    fn on_gc_start(&self, event: &GcEvent) {
        self.allocation.on_gc_start(event);
    }

    fn on_gc_end(&self, event: &GcEvent) {
        self.allocation.on_gc_end(event);
    }

    fn on_object_move(&self, event: &ObjectMoveEvent) {
        self.allocation.on_object_move(event);
    }

    fn on_object_reclaim(&self, event: &ObjectReclaimEvent) {
        self.allocation.on_object_reclaim(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_runtime::{dsl, RuntimeConfig};

    use crate::query::{GroupBy, GroupKey, Query, RankBy};
    use crate::wire::BinaryChunkedSink;

    /// Runs the standard bloat kernel against a fresh runtime with `listener` attached.
    fn bloat_run_with(build: impl FnOnce(&mut Runtime) -> Arc<Session>) -> (Runtime, Arc<Session>) {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = build(&mut rt);
        let class = rt.register_array_class("float[]", 4);
        let method = dsl::MethodSpec::at_line(
            "ExtendedGeneralPath",
            "makeRoom",
            "ExtendedGeneralPath.java",
            743,
        )
        .register(&mut rt);
        let t = rt.spawn_thread("main");
        dsl::bloat_loop(&mut rt, t, class, method, 0, 200, 512, 64).unwrap();
        rt.finish_thread(t).unwrap();
        rt.shutdown();
        (rt, session)
    }

    /// The bloat kernel under an objects-only session.
    fn bloat_run(config: ProfilerConfig) -> Arc<Session> {
        bloat_run_with(|rt| Session::builder().config(config).collect_objects().attach(rt)).1
    }

    #[test]
    fn config_builders_compose() {
        let c = ProfilerConfig {
            event: PmuEvent::DtlbMiss,
            size_filter: 4096,
            jitter: true,
            attach_mode: true,
            ..ProfilerConfig::default()
        }
        .with_period(128);
        assert_eq!(c.event, PmuEvent::DtlbMiss);
        assert_eq!(c.period, 128);
        assert_eq!(c.size_filter, 4096);
        assert!(c.jitter);
        assert!(c.attach_mode);
        assert_eq!(ProfilerConfig::paper_default().period, 5_000_000);
    }

    #[test]
    fn builder_configures_and_registers_collectors() {
        let session = Session::builder()
            .event(PmuEvent::DtlbMiss)
            .period(128)
            .size_filter(4096)
            .jitter(true)
            .attach_mode(true)
            .collect_objects()
            .build();
        let config = session.config();
        assert_eq!(config.event, PmuEvent::DtlbMiss);
        assert_eq!(config.period, 128);
        assert_eq!(config.size_filter, 4096);
        assert!(config.jitter);
        assert!(config.attach_mode);
        // The code-centric and NUMA views are queries over the one object record.
        assert!(session.object_profile().is_some());
        assert!(format!("{session:?}").contains("DtlbMiss"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = Session::builder().period(0);
    }

    /// Drives `count` line-strided loads at `trace` into a session used directly as
    /// a listener.
    fn drive(session: &Session, thread: u64, base: u64, count: u64, trace: &[Frame]) {
        use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        for i in 0..count {
            let outcome = hier.access(MemoryAccess::load(0, base + i * 64, 8));
            session.on_memory_access(&MemoryAccessEvent {
                thread: ThreadId(thread),
                outcome,
                call_trace: trace,
                object: None,
            });
        }
    }

    #[test]
    fn threads_without_start_event_are_handled() {
        let session = Session::builder().period(2).collect_objects().build();
        drive(&session, 9, 0x30_0000, 64, &[Frame::new(djx_runtime::MethodId(5), 0)]);
        assert!(session.total_samples() > 0);
    }

    #[test]
    fn thread_end_disables_sampling() {
        let session = Session::builder().period(1).collect_objects().build();
        session.on_thread_start(&ThreadEvent { thread: ThreadId(1), name: "t", cpu: 0 });
        drive(&session, 1, 0x10_0000, 16, &[]);
        let before = session.total_samples();
        session.on_thread_end(&ThreadEvent { thread: ThreadId(1), name: "t", cpu: 0 });
        drive(&session, 1, 0x10_0000, 16, &[]);
        assert_eq!(session.total_samples(), before);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn config_zero_period_rejected() {
        let _ = ProfilerConfig::default().with_period(0);
    }

    #[test]
    fn end_to_end_bloat_run_attributes_samples_to_the_allocation_site() {
        let session = bloat_run(ProfilerConfig::default().with_period(16));
        let stats = session.allocation_stats();
        assert_eq!(stats.callbacks, 200);
        assert_eq!(stats.monitored, 200, "each 512-element float[] is 2 KiB > S");
        assert!(session.total_samples() > 0);

        let profile = session.object_profile().unwrap();
        assert_eq!(profile.sites.len(), 1, "all 200 arrays share one allocation site");
        let site = &profile.sites[0];
        assert_eq!(site.class_name, "float[]");
        assert!(!site.call_path.is_empty());

        let main = &profile.threads[0];
        assert_eq!(main.thread_name, "main", "a started thread's real name reaches the record");
        let total = main.sites.values().next().unwrap();
        assert_eq!(total.allocations, 200);
        assert!(total.samples > 0);
        assert!(
            total.samples * 2 >= main.samples,
            "most samples land inside the hot arrays ({} of {})",
            total.samples,
            main.samples
        );
        let stats = session.splay_lookup_stats();
        assert_eq!(stats.lookups, session.total_samples(), "one shard lookup per sample");
        let in_object: u64 =
            profile.threads.iter().map(|t| t.samples - t.unattributed.samples).sum();
        assert!(in_object > 0);
        assert_eq!(stats.hits, in_object, "a shard hit is a sample inside a monitored object");
        assert_eq!(stats.read_lookups, 0, "the hot path never uses read-only resolution");
        assert!(session.memory_footprint_bytes() > 0);
    }

    #[test]
    fn size_filter_controls_monitoring() {
        let small_filter = bloat_run(
            ProfilerConfig { size_filter: 64, ..ProfilerConfig::default() }.with_period(16),
        );
        let huge_filter = bloat_run(
            ProfilerConfig { size_filter: 1 << 20, ..ProfilerConfig::default() }.with_period(16),
        );
        assert_eq!(small_filter.allocation_stats().monitored, 200);
        assert_eq!(huge_filter.allocation_stats().monitored, 0);
        assert_eq!(huge_filter.allocation_stats().filtered, 200);
        // With nothing monitored, every sample is unattributed.
        let profile = huge_filter.object_profile().unwrap();
        assert_eq!(profile.threads[0].attributed_samples(), 0);
    }

    #[test]
    fn gc_keeps_attribution_correct() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(4).collect_objects().attach(&mut rt);
        let class = rt.register_array_class("long[]", 8);
        let t = rt.spawn_thread("main");
        // A short-lived object followed by a survivor: after collection the survivor
        // slides to the heap base, reusing the dead object's address range.
        let dead = rt.alloc_array(t, class, 2048).unwrap();
        let survivor = rt.alloc_array(t, class, 2048).unwrap();
        rt.release(&dead).unwrap();
        rt.collect_garbage();
        dsl::sequential_sweep(&mut rt, t, &survivor).unwrap();
        rt.shutdown();

        let profile = session.object_profile().unwrap();
        // Both objects share one call path, hence one site — so check the index's
        // live view instead of per-site attribution.
        assert_eq!(session.live_monitored_objects(), 1);
        assert_eq!(session.allocation_stats().relocations, 1);
        assert_eq!(session.allocation_stats().reclamations, 1);
        assert!(profile.total_samples() > 0);
        assert_eq!(profile.threads[0].unattributed.samples, 0, "post-GC samples still resolve");
    }

    #[test]
    fn profile_snapshots_are_independent() {
        let session = bloat_run(ProfilerConfig::default().with_period(32));
        let a = session.object_profile().unwrap();
        let b = session.object_profile().unwrap();
        assert_eq!(a.total_samples(), b.total_samples());
        let sa = a.threads[0].sites.values().next().unwrap();
        let sb = b.threads[0].sites.values().next().unwrap();
        assert_eq!(sa, sb, "taking a second profile must not double-count allocations");
    }

    #[test]
    fn adaptive_shard_heuristic_scales_with_threads_and_volume() {
        // Thread pressure: ~4 shards per thread, next power of two.
        assert_eq!(adaptive_shard_count(1), 4);
        assert_eq!(adaptive_shard_count(4), 16);
        assert_eq!(adaptive_shard_count(6), 32, "24 rounds up to 32");
        // Clamped at the 64-shard bitmask width.
        assert_eq!(adaptive_shard_count(64), 64);
        // And never below the 4-shard floor.
        assert_eq!(adaptive_shard_count(0), 4);
    }

    #[test]
    fn builder_shard_knobs_control_the_index() {
        // The default is the heuristic over the machine's parallelism: always a power
        // of two within the mask width.
        let default = Session::builder().build();
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        assert_eq!(default.index_shard_count(), adaptive_shard_count(threads));
        assert!(default.index_shard_count().is_power_of_two());
        assert!((4..=64).contains(&default.index_shard_count()));
        let pinned = Session::builder().index_shards(2).build();
        assert_eq!(pinned.index_shard_count(), 2, "an explicit override wins");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_explicit_shard_count_is_rejected_at_build() {
        let _ = Session::builder().index_shards(3).build();
    }

    #[test]
    fn single_pass_produces_all_three_views() {
        let (_rt, session) =
            bloat_run_with(|rt| Session::builder().period(16).collect_objects().attach(rt));

        let object = session.object_profile().expect("object collector registered");
        let code = Query::new().group_by(GroupBy::Context).evaluate(&object).unwrap();
        let numa = Query::new().group_by(GroupBy::NodePair).evaluate(&object).unwrap();

        assert!(object.total_samples() > 0);
        let code_samples: u64 = code.groups.iter().map(|g| g.metrics.samples).sum();
        assert_eq!(object.total_samples(), code_samples, "one shared sampling stream");
        assert_eq!(object.total_samples(), numa.total_samples);
        assert_eq!(object.sites.len(), 1);
        assert_eq!(object.sites[0].class_name, "float[]");
        assert!(!code.groups.is_empty());
        // Single-node runtime: the traffic matrix is one local cell holding every
        // sample, and the one object ranks with zero remote samples.
        let cells: Vec<_> =
            numa.groups.iter().map(|g| (g.key.clone(), g.metrics.samples)).collect();
        let local = GroupKey::NodePair { cpu_node: 0, page_node: 0 };
        assert_eq!(cells, vec![(local, session.total_samples())]);
        assert_eq!(numa.groups[0].metrics.remote_samples, 0);
        let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&object).unwrap();
        assert_eq!(remote.groups.len(), 1, "all attributed samples share one site");
        assert_eq!(remote.groups[0].metrics.remote_samples, 0);
    }

    #[test]
    fn session_object_view_is_identical_to_legacy_djxperf() {
        // A session configured field by field against one configured at once, on an
        // identical, independently seeded runtime.
        let config = ProfilerConfig::default().with_period(16);
        let (_rt, session) =
            bloat_run_with(|rt| Session::builder().period(16).collect_objects().attach(rt));
        let objects_only = bloat_run(config);
        assert_eq!(
            session.object_profile().unwrap().to_text(),
            objects_only.object_profile().unwrap().to_text(),
            "field-by-field and at-once configuration must record identically"
        );
    }

    #[test]
    fn snapshots_are_incremental_and_independent() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(8).collect_objects().attach(&mut rt);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 16 * 1024).unwrap();

        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let (first, first_samples) = (session.object_profile().unwrap(), session.total_samples());
        assert!(first_samples > 0);

        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let (second, second_samples) = (session.object_profile().unwrap(), session.total_samples());
        assert!(second_samples >= first_samples);
        assert_eq!(
            first.total_samples(),
            first_samples,
            "earlier snapshot is unchanged by later samples"
        );
        assert_eq!(second.total_samples(), second_samples);
        let numa = Query::new().group_by(GroupBy::NodePair).evaluate(&second).unwrap();
        assert_eq!(numa.groups.iter().map(|g| g.metrics.samples).sum::<u64>(), second_samples);
        assert!(Session::builder().build().object_profile().is_none());
    }

    #[test]
    fn object_profile_round_trips_through_a_binary_log() {
        let (_rt, session) =
            bloat_run_with(|rt| Session::builder().period(16).collect_objects().attach(rt));
        let profile = session.object_profile().unwrap();

        let mut out = Vec::new();
        BinaryChunkedSink::new().write_profile(&profile, &mut out).unwrap();
        let parsed = BinaryChunkedSink::new().read_log_bytes(&out).unwrap();
        assert_eq!(parsed.to_text(), profile.to_text(), "binary log round trip");
    }

    #[test]
    fn detach_stops_all_collectors() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(8).collect_objects().attach(&mut rt);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 8192).unwrap();
        let code = Query::new().group_by(GroupBy::Context);
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let (before, before_code) = (session.total_samples(), code.evaluate(&*session).unwrap());
        assert!(before > 0);
        assert!(session.detach(&mut rt));
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        assert_eq!(session.total_samples(), before);
        assert_eq!(code.evaluate(&*session).unwrap().to_text(), before_code.to_text());
        assert!(!session.detach(&mut rt), "double detach is a no-op");
    }

    #[test]
    fn objects_only_detach_stops_measurement() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(8).collect_objects().attach(&mut rt);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 8192).unwrap();
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let before = session.total_samples();
        assert!(before > 0);
        assert!(session.detach(&mut rt));
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        assert_eq!(session.total_samples(), before);
        assert!(!session.detach(&mut rt), "double detach is a no-op");
    }

    #[test]
    fn the_re_base_delta_folded_alone_renders_like_the_session() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let policy = DrainPolicy::new().tick(std::time::Duration::from_secs(60));
        let session = Session::builder().period(8).stream_to_binary(Box::new(io::sink()), policy);
        let session = session.attach(&mut rt);
        let objects = session.objects.as_ref().expect("stream_to keeps the object record");
        let rebase = RebaseSource(Arc::downgrade(objects));
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let renders = |source: &dyn crate::query::ProfileSource| -> Vec<String> {
            [Query::new(), Query::new().group_by(GroupBy::Context)]
                .iter()
                .flat_map(|q| {
                    let result = q.evaluate(source).unwrap();
                    [result.to_text(), result.to_json()]
                })
                .collect()
        };
        for len in [4096, 8192, 2048] {
            let arr = rt.alloc_array(t, class, len).unwrap();
            dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
            assert!(session.flush_export());
            let config = session.config();
            let mut alone = crate::profile::DeltaFold::with_header(
                config.event,
                config.period,
                config.size_filter,
            );
            alone.absorb_ordered(&rebase.delta().expect("the session is alive")).unwrap();
            assert_eq!(renders(&alone.assemble()), renders(&*session));
        }
        rt.shutdown();
    }

    #[test]
    fn lazily_seen_threads_are_named_attached() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("early");
        let arr = rt.alloc_array(t, class, 8192).unwrap();
        // Attach after the thread started: the session first sees it via an access.
        let session = Session::builder().period(4).collect_objects().attach(&mut rt);
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let profile = session.object_profile().unwrap();
        assert_eq!(profile.threads.len(), 1);
        assert_eq!(profile.threads[0].thread_name, "<attached>");
        assert!(profile.threads[0].samples > 0);
    }
}
