//! The unified profiling session — the crate's one online profiler (the paper's
//! agent, §5.1): one sampling substrate, any number of collectors.
//!
//! Comparing views (the paper's Figure 1) must not take one profiler per view, each
//! driving its *own* per-thread virtual PMUs, or a re-run of the workload. A
//! [`Session`] organizes the profiler the way PROMPT-style pipelines organize memory
//! profilers: the session owns
//!
//! * the per-thread PMUs (one sampling stream for the whole session),
//! * the allocation agent and the shared object index (splay tree + site registry),
//!
//! resolves every sample's effective address to its enclosing monitored object **once**,
//! and fans the enriched sample out to every registered [`Collector`]. The built-in
//! collectors reproduce the three classic views from the *same* samples of a *single*
//! pass, and no two hold the same data:
//!
//! * [`ObjectCentricCollector`] — per thread, each allocation site's metrics (samples,
//!   weighted events, latency, remote and local samples) and access contexts: every
//!   per-object ranking, the NUMA one included, is a [`Query`](crate::query::Query)
//!   over this profile;
//! * [`CodeCentricCollector`] — a calling context tree with per-context metrics, the
//!   perf-like baseline;
//! * [`NumaCollector`] — the node-to-node traffic matrix, the one NUMA signal the
//!   object profile does not carry.
//!
//! Custom collectors implement [`Collector`] and register via
//! [`SessionBuilder::with_collector`].
//!
//! Sessions are configured with [`SessionBuilder`] (events, period, size filter, jitter,
//! launch/attach mode — one by one, or at once as a [`ProfilerConfig`] through
//! [`SessionBuilder::config`]), attach to a [`Runtime`] as one composite listener, and
//! support
//! incremental observation: [`Session::snapshot`] extracts every collector's current
//! profile mid-run without stopping measurement, and
//! [`Session::stream_snapshot`] pushes the object-centric profile through any
//! [`ProfileSink`] backend for live export — and [`SessionBuilder::stream_to`]
//! upgrades that to **continuous push**: a background drainer streams every retired
//! epoch delta incrementally (see [`crate::export`]).
//!
//! A live session is also a [`ProfileSource`](crate::query::ProfileSource): any
//! [`Query`](crate::query::Query) evaluates against it directly
//! ([`Session::query`]), reading a pause-free snapshot under the hood, and the same
//! query answers identically over the terminal snapshot, a replayed epoch log, or a
//! multi-process fold (see [`crate::query`]).
//!
//! # Contention-free ingestion: thread slots, sharded index, per-thread collector state
//!
//! Every per-thread table of the session — the PMUs, the resolution caches, each
//! collector's open deltas — gives each profiled thread one slot, registered once and
//! found by indexing with the runtime-issued [`ThreadId`]: no hash, no lock. An access
//! that overflows no counter touches nothing but its thread's PMU countdown; the
//! per-sample path then crosses three layers, and every one of them is built so two
//! profiled threads do not serialize on a shared lock in the common case:
//!
//! 1. **Sampler** — each thread's virtual PMU counts down to its next overflow with a
//!    relaxed load and store, and only an overflow takes the PMU's lock (see
//!    [`djx_pmu::ThreadPmu`]). An overflow's samples are dispatched through the two
//!    layers below straight out of the PMU's reused sample buffer, with that lock
//!    still held, so the whole path — unsampled or sampled — allocates nothing once the
//!    thread's slots exist, and every per-thread map on it hashes its runtime-issued
//!    keys with [`FxHasher`](crate::fxhash::FxHasher) instead of SipHash.
//! 2. **Object index** — sample addresses resolve in three levels (see
//!    [`crate::agent`]): a per-thread direct-mapped
//!    [`ResolutionCache`] first — repeat samples on hot
//!    objects resolve with **zero shared-memory synchronization** beyond one atomic
//!    epoch load: no shard lock, no splay rotation — then the address-sharded
//!    [`SharedObjectIndex`] on a miss (the batch locks only the shards it touches,
//!    reusing the shard guard across spatially-local addresses), then `None`.
//!    Per-shard mutation epochs invalidate cache entries across inserts, frees and GC
//!    relocations, so a stale resolution is impossible by construction. The cache is
//!    on by default; [`SessionBuilder::resolution_cache`] disables it.
//! 3. **Collectors** — each resolved batch is delivered **once per collector** via
//!    [`Collector::on_sample_batch`] instead of `samples × collectors` individual lock
//!    round-trips, and every built-in collector keeps *per-thread* state in its own
//!    thread slots (a thread's samples arrive from that thread, so the state is
//!    logically thread-private; the slot's spin lock is shared only with snapshots).
//!
//! The slots assume what JVMTI and `djx_runtime` guarantee: one logical thread is
//! driven by one OS thread at a time. A caller that drives one [`ThreadId`] from two OS
//! threads at once loses PMU increments, never samples or memory safety — overflows,
//! resolution caches and collector state stay behind their per-slot locks.
//!
//! # Pause-free snapshots: epoch-retired double buffering
//!
//! The read paths — [`Session::object_profile`], [`Session::code_profile`],
//! [`Session::numa_profile`] — must not stall ingestion. Collector state therefore
//! lives in epoch-buffered thread slots: each snapshot advances the buffer epoch
//! and **retires** every slot's accumulated delta by taking it out under the slot's
//! spin lock — an O(1) move, the only instant a sampling thread can even notice — then
//! absorbs the retired deltas into a snapshot-side buffer and clones *that* outside
//! every sampling lock. A sampling thread arriving mid-snapshot
//! simply starts a fresh delta; delta absorption is exact (metric sums, CCT merges
//! re-keyed by call path), so profiles assembled from any snapshot cadence render
//! identically to a single-piece run. Per-thread views merge in thread-first-seen
//! order, which keeps single-threaded profiles bit-identical to the pre-sharding
//! implementation.
//!
//! ```
//! use djx_runtime::{dsl, Runtime, RuntimeConfig};
//! use djxperf::session::Session;
//!
//! let mut rt = Runtime::new(RuntimeConfig::small());
//! let session = Session::builder()
//!     .period(64)
//!     .collect_objects()
//!     .collect_code()
//!     .collect_numa()
//!     .attach(&mut rt);
//!
//! let class = rt.register_array_class("float[]", 4);
//! let method = dsl::MethodSpec::at_line("A", "run", "A.java", 1).register(&mut rt);
//! let thread = rt.spawn_thread("main");
//! dsl::bloat_loop(&mut rt, thread, class, method, 0, 50, 512, 16).unwrap();
//! rt.finish_thread(thread).unwrap();
//! rt.shutdown();
//!
//! let snapshot = session.snapshot();
//! assert!(snapshot.object.unwrap().total_samples() > 0);
//! assert!(snapshot.code.unwrap().total_samples > 0);
//! ```

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use djx_pmu::{PerfEventBuilder, PmuEvent, Sample, ThreadPmu, MAX_SAMPLED_EVENTS};
use djx_runtime::{
    AllocationEvent, Frame, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    Runtime, RuntimeListener, ThreadEvent, ThreadId,
};

use crate::agent::{AllocationAgent, AllocationConfig, ResolutionCache, SharedObjectIndex};
use crate::cct::Cct;
use crate::codecentric::CodeCentricProfile;
use crate::export::{DeltaDrainer, DrainPolicy, ExportShared, ExportStats};
use crate::fxhash::FxHashMap;
use crate::object::AllocSiteId;
use crate::profile::{
    fold_allocation_rows, ObjectCentricProfile, ProfileDelta, ThreadDelta, ThreadProfile,
};
use crate::sink::ProfileSink;
use crate::slots::ThreadSlots;
use crate::splay::LookupStats;
use crate::sync::{Epoch, SpinLock};

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

/// One PMU sample enriched with everything the session resolved for it: the calling
/// context the sample fired at and the allocation site of the enclosing monitored
/// object (when the effective address hit one). Collectors receive this — they never
/// talk to the PMU or the splay tree themselves.
#[derive(Debug, Clone, Copy)]
pub struct SampleContext<'a> {
    /// The sampled thread.
    pub thread: ThreadId,
    /// Calling context at the sample, root-first (`AsyncGetCallTrace`).
    pub call_trace: &'a [Frame],
    /// The raw PMU sample (address, latency, NUMA nodes, access kind).
    pub sample: &'a Sample,
    /// Sampling period, for scaling samples into event-count estimates.
    pub period: u64,
    /// Allocation site of the monitored object enclosing the sampled address, resolved
    /// once per sample via the shared splay tree; `None` for unattributed samples.
    pub site: Option<AllocSiteId>,
}

/// One overflow batch from a single thread, resolved once for *all* collectors: the
/// raw PMU samples and, parallel to them, the allocation site of each sample's
/// enclosing monitored object.
///
/// The session hands every collector one [`Collector::on_sample_batch`] call per batch
/// instead of `samples × collectors` individual calls, so a collector with shared state
/// can amortize one lock acquisition over the whole batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchContext<'a> {
    /// The sampled thread (one batch never mixes threads).
    pub thread: ThreadId,
    /// Calling context at the overflow, root-first (`AsyncGetCallTrace`).
    pub call_trace: &'a [Frame],
    /// Sampling period, for scaling samples into event-count estimates.
    pub period: u64,
    /// The raw PMU samples of the batch.
    pub samples: &'a [Sample],
    /// Allocation site resolved for each sample (parallel to `samples`; `None` for
    /// unattributed samples).
    pub sites: &'a [Option<AllocSiteId>],
}

impl<'a> BatchContext<'a> {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the batch carries no sample (the session never dispatches such a
    /// batch; provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates the batch one resolved sample at a time — the per-sample view a
    /// collector loops over inside [`Collector::on_sample_batch`].
    pub fn iter(&self) -> impl Iterator<Item = SampleContext<'a>> + '_ {
        self.samples.iter().zip(self.sites.iter()).map(|(sample, site)| SampleContext {
            thread: self.thread,
            call_trace: self.call_trace,
            sample,
            period: self.period,
            site: *site,
        })
    }
}

/// A consumer of the session's shared sampling stream.
///
/// All methods take `&self`: collectors are invoked through a shared `Arc` from
/// listener callbacks and use interior mutability, exactly like runtime listeners.
/// Every non-sample hook has a default no-op implementation.
///
/// The sample hooks run on the sampling thread while the session holds that thread's
/// PMU lock, which is not reentrant. They must not call back into
/// [`Session::event_totals`], which takes every thread's PMU lock.
pub trait Collector: Send + Sync {
    /// Short collector name, used in diagnostics.
    fn name(&self) -> &'static str;

    /// One resolved overflow batch from a single thread — the session's one sample
    /// hook. [`BatchContext::iter`] walks it sample by sample; a collector that guards
    /// state with a lock takes the lock once per batch, not once per sample.
    fn on_sample_batch(&self, batch: &BatchContext<'_>);

    /// A thread became visible to the session. Called exactly once per thread — with
    /// the thread's real name when the session saw it start, or `"<attached>"` when the
    /// session attached after the thread began and first saw it through an access.
    fn on_thread_seen(&self, _thread: ThreadId, _name: &str) {}

    /// A thread terminated.
    fn on_thread_end(&self, _event: &ThreadEvent<'_>) {}

    /// An object was allocated (after the allocation agent updated the shared index).
    fn on_object_alloc(&self, _event: &AllocationEvent<'_>) {}

    /// A garbage collection started.
    fn on_gc_start(&self, _event: &GcEvent) {}

    /// A garbage collection finished (after the allocation agent applied relocations).
    fn on_gc_end(&self, _event: &GcEvent) {}

    /// Approximate resident bytes of the collector's state (memory-overhead accounting).
    fn approx_bytes(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------------------
// Epoch-retired double buffering (pause-free snapshots)
// ---------------------------------------------------------------------------------------

/// Collector state that can absorb a later delta of itself exactly (snapshot
/// retirement; see [the module docs](self)). Absorbing partitioned deltas in order
/// must be equivalent to having recorded every sample into one piece.
trait AbsorbDelta {
    fn absorb(&mut self, delta: &Self);
}

/// Per-thread collector state with epoch-based double buffering.
///
/// The **active** side is a [`ThreadSlots`] table the sampling hot path writes: each
/// thread's slot holds the delta it accumulated in the open epoch, behind a spin lock
/// only that thread and snapshot readers take. A snapshot advances
/// [`SnapshotBuffered::epoch`] and retires the active buffer: every slot's delta is
/// taken out under its spin lock (O(1) — the only moment a sampling thread can block
/// on a snapshot) and the taken deltas are absorbed into the **retired** buffer, which
/// only snapshot-side threads touch (a blocking mutex, never held while a slot lock is
/// held... it *encloses* brief slot takes, but sampling threads never take it, so no
/// lock-order cycle exists). The clone a snapshot returns is made from the retired
/// buffer, outside every sampling lock.
#[derive(Debug)]
struct SnapshotBuffered<T> {
    /// Thread → its open delta with the delta's first-seen sequence (`None` until the
    /// thread records something in the open epoch).
    active: ThreadSlots<SpinLock<Option<(u64, T)>>>,
    /// Next first-seen sequence: one is drawn whenever a thread opens a delta.
    seq: AtomicU64,
    /// Thread → (first-seen sequence, absorbed state). Guarded by a blocking mutex:
    /// only snapshot/read paths running in normal thread context take it.
    retired: Mutex<HashMap<ThreadId, (u64, T)>>,
    /// Buffer generation; each retirement closes one epoch.
    epoch: Epoch,
}

impl<T> Default for SnapshotBuffered<T> {
    fn default() -> Self {
        Self {
            active: ThreadSlots::new(),
            seq: AtomicU64::new(0),
            retired: Mutex::new(HashMap::new()),
            epoch: Epoch::new(),
        }
    }
}

impl<T> SnapshotBuffered<T> {
    fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the thread's open delta, creating it with `init` on first sight
    /// within the current epoch — the sampling-side entry point. Only the thread's own
    /// slot is locked.
    fn with<R>(
        &self,
        thread: ThreadId,
        init: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let (slot, _) = self.active.get_or_register(thread, || SpinLock::new(None));
        let mut delta = slot.lock();
        let (_, state) =
            delta.get_or_insert_with(|| (self.seq.fetch_add(1, Ordering::Relaxed), init()));
        f(state)
    }

    /// Takes every open delta out, slot by slot, as `(thread, (seq, delta))`. Each slot
    /// lock is held only for the O(1) take. Runs in normal thread context (snapshot
    /// readers), so contended slots are acquired yielding — a preempted sampling
    /// thread inside the lock gets the CPU instead of being spun against for its whole
    /// timeslice.
    fn take_active(&self) -> Vec<(ThreadId, (u64, T))> {
        self.active
            .iter()
            .filter_map(|(thread, slot)| slot.lock_yielding().take().map(|delta| (thread, delta)))
            .collect()
    }

    /// Folds over every *partial* state — retired first, then the open deltas. A
    /// thread present on both sides is visited twice with complementary partitions of
    /// its samples, so `f` must be a commutative accumulation (sums); identity reads
    /// (names, thread counts) belong on [`SnapshotBuffered::merged`].
    ///
    /// The retired mutex is held across *both* reads: a retirement completing between
    /// them would move state out of the active slots after they were visited but into
    /// the retired buffer after it was visited, making pre-snapshot state vanish from
    /// the fold entirely. Holding the mutex excludes [`SnapshotBuffered::merged`] for
    /// the duration (same retired → slot lock order, so no deadlock; sampling threads
    /// only ever take slot locks).
    fn fold<A>(&self, acc: A, mut f: impl FnMut(A, ThreadId, &T) -> A) -> A {
        let retired = self.retired.lock();
        let acc = retired.iter().fold(acc, |acc, (t, (_, s))| f(acc, *t, s));
        self.active
            .iter()
            .fold(acc, |acc, (thread, slot)| match &*slot.lock_yielding() {
                Some((_, state)) => f(acc, thread, state),
                None => acc,
            })
    }

    /// Resident bytes of the active table itself (the states are counted through
    /// [`SnapshotBuffered::fold`]).
    fn slot_bytes(&self) -> usize {
        self.active.approx_bytes()
    }

    /// Number of completed retirements (diagnostics).
    fn retirements(&self) -> u64 {
        self.epoch.current()
    }
}

impl<T: AbsorbDelta + Clone> SnapshotBuffered<T> {
    /// Closes the open epoch under an already-held retired lock: every active slot's
    /// delta is taken out (O(1) under its spin lock) and the taken deltas are absorbed
    /// into the retired buffer. When `collect` is given, the drained deltas are also
    /// handed out through it as `(first-seen seq, thread, delta)` tuples, each tagged
    /// with the seq the *retired* entry keeps, so any stream of drains sorts threads
    /// exactly the way [`SnapshotBuffered::merged`] would; without a collector, the
    /// vacant arm moves the delta into the retired buffer outright — no clone.
    /// Returns the epoch the retirement closed.
    fn retire_locked(
        &self,
        retired: &mut HashMap<ThreadId, (u64, T)>,
        mut collect: Option<&mut Vec<(u64, ThreadId, T)>>,
    ) -> u64 {
        let epoch = self.epoch.bump();
        for (thread, (seq, delta)) in self.take_active() {
            match retired.entry(thread) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    // The retired entry is older: keep its seq and identity.
                    e.get_mut().1.absorb(&delta);
                    if let Some(out) = collect.as_deref_mut() {
                        out.push((e.get().0, thread, delta));
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => match collect.as_deref_mut() {
                    Some(out) => {
                        v.insert((seq, delta.clone()));
                        out.push((seq, thread, delta));
                    }
                    None => {
                        v.insert((seq, delta));
                    }
                },
            }
        }
        epoch
    }

    /// Closes the open epoch and hands its deltas out in thread-first-seen order
    /// (absorbing them into the retired buffer on the way) — the producer side of the
    /// asynchronous export pipeline.
    fn drain(&self) -> (u64, Vec<(u64, ThreadId, T)>) {
        let mut drained = Vec::new();
        let epoch = self.retire_locked(&mut self.retired.lock(), Some(&mut drained));
        drained.sort_unstable_by_key(|(seq, t, _)| (*seq, *t));
        (epoch, drained)
    }

    /// Clones an already-locked retired buffer in thread-first-seen order.
    fn clone_locked(retired: &HashMap<ThreadId, (u64, T)>) -> Vec<(ThreadId, T)> {
        let mut all: Vec<(u64, ThreadId, T)> =
            retired.iter().map(|(t, (seq, s))| (*seq, *t, s.clone())).collect();
        all.sort_unstable_by_key(|(seq, t, _)| (*seq, *t));
        all.into_iter().map(|(_, t, s)| (t, s)).collect()
    }

    /// Clones the retired buffer in thread-first-seen order **without** closing the
    /// open epoch: deltas still accumulating in the active slots are not included.
    /// After a [`SnapshotBuffered::drain`], this is by construction the fold of every
    /// delta ever drained.
    fn retired_clone(&self) -> Vec<(ThreadId, T)> {
        Self::clone_locked(&self.retired.lock())
    }

    /// Like [`SnapshotBuffered::retired_clone`], but keeping each entry's first-seen
    /// sequence — what a live tap seeds its fold from, so its thread order matches
    /// the order the drained stream would have produced.
    fn retired_clone_with_seq(&self) -> Vec<(u64, ThreadId, T)> {
        let retired = self.retired.lock();
        let mut all: Vec<(u64, ThreadId, T)> =
            retired.iter().map(|(t, (seq, s))| (*seq, *t, s.clone())).collect();
        all.sort_unstable_by_key(|(seq, t, _)| (*seq, *t));
        all
    }

    /// Retires the open epoch and clones the merged state out in thread-first-seen
    /// order. Slot locks are held only for the O(1) delta take; absorption, cloning
    /// and sorting all happen on the retired buffer outside every sampling lock. The
    /// retirement itself collects nothing — this caller only wants the merged whole.
    fn merged(&self) -> Vec<(ThreadId, T)> {
        let mut retired = self.retired.lock();
        let _ = self.retire_locked(&mut retired, None);
        Self::clone_locked(&retired)
    }
}

impl AbsorbDelta for ThreadProfile {
    fn absorb(&mut self, delta: &Self) {
        self.merge_from(delta);
    }
}

// ---------------------------------------------------------------------------------------
// Built-in collectors
// ---------------------------------------------------------------------------------------

/// The object-centric collector (§4.2/§5.1 of the paper): builds one
/// [`ThreadProfile`] per thread, attributing each sample to the allocation site of the
/// enclosing object — or to the thread's unattributed bucket. State is per-thread and
/// epoch-buffered (see [the module docs](self)); a batch locks its thread's slot
/// exactly once, and snapshots retire state instead of cloning it under the slot
/// lock.
#[derive(Debug, Default)]
pub struct ObjectCentricCollector {
    state: SnapshotBuffered<ThreadProfile>,
    /// The export stream this collector feeds, when the session attached one
    /// ([`SessionBuilder::stream_to`]). Weak — the drainer owns the collector, never
    /// the other way around. While the stream runs, every profile read that retires
    /// an epoch routes the retired delta into it (see
    /// [`ObjectCentricCollector::thread_profiles`]), which is what keeps the stream
    /// loss-free no matter who triggers the retirement.
    stream: SpinLock<Option<Weak<ExportShared>>>,
}

fn record_object_sample(profile: &mut ThreadProfile, ctx: &SampleContext<'_>) {
    match ctx.site {
        Some(site) => profile.record_attributed(site, ctx.call_trace, ctx.sample, ctx.period),
        None => profile.record_unattributed(ctx.sample, ctx.period),
    }
}

impl ObjectCentricCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones the per-thread profiles in thread-first-seen order.
    ///
    /// On a session streaming through [`SessionBuilder::stream_to`], the epoch this
    /// read closes is routed into the export stream first — absorbing it silently
    /// would leave samples in the retired buffer that never appear as a streamed
    /// delta, breaking the stream's loss-free replay. Once the stream has finished,
    /// reads take the plain merged path again.
    pub fn thread_profiles(&self) -> Vec<ThreadProfile> {
        if let Some(stream) = self.stream() {
            if stream.produce(self) {
                // The retirement went onto the wire; the retired buffer is, by
                // construction, the fold of every delta ever streamed.
                return self.retired_profiles();
            }
        }
        self.state.merged().into_iter().map(|(_, p)| p).collect()
    }

    /// Registers the export stream this collector feeds (called when the drainer
    /// spawns).
    pub(crate) fn attach_stream(&self, stream: Weak<ExportShared>) {
        *self.stream.lock() = Some(stream);
    }

    /// The attached export stream, while its pipeline is still alive.
    fn stream(&self) -> Option<Arc<ExportShared>> {
        self.stream.lock().as_ref().and_then(Weak::upgrade)
    }

    /// Closes the open buffer epoch and hands its accumulated per-thread deltas out as
    /// a [`ProfileDelta`] (absorbing them into the retired buffer on the way, so later
    /// whole-profile reads still see them) — the hand-off the asynchronous export
    /// pipeline streams instead of re-cloning the whole retired buffer.
    pub(crate) fn drain_delta(&self) -> ProfileDelta {
        let (epoch, drained) = self.state.drain();
        ProfileDelta {
            epoch,
            threads: drained
                .into_iter()
                .map(|(seq, _, profile)| ThreadDelta { seq, profile })
                .collect(),
        }
    }

    /// Clones the retired per-thread profiles in thread-first-seen order without
    /// closing the open epoch. Immediately after [`ObjectCentricCollector::drain_delta`]
    /// this is, by construction, the fold of every delta ever drained.
    pub(crate) fn retired_profiles(&self) -> Vec<ThreadProfile> {
        self.state.retired_clone().into_iter().map(|(_, p)| p).collect()
    }

    /// The retired buffer as an already-merged [`ProfileDelta`] at the current epoch
    /// counter — the seed a live tap adopts when it attaches mid-stream. Must run
    /// with the export hand-off gate held: every drain on a streaming session holds
    /// that gate, so under it the retired buffer is exactly the fold of every delta
    /// streamed so far and no epoch can close concurrently.
    pub(crate) fn retired_delta(&self) -> ProfileDelta {
        ProfileDelta {
            epoch: self.state.retirements(),
            threads: self
                .state
                .retired_clone_with_seq()
                .into_iter()
                .map(|(seq, _, profile)| ThreadDelta { seq, profile })
                .collect(),
        }
    }

    /// Total samples recorded across every thread.
    pub fn total_samples(&self) -> u64 {
        self.state.fold(0, |acc, _, p| acc + p.samples)
    }
}

impl Collector for ObjectCentricCollector {
    fn name(&self) -> &'static str {
        "object-centric"
    }

    fn on_thread_seen(&self, thread: ThreadId, name: &str) {
        self.state.with(thread, || ThreadProfile::new(thread, name), |_| ());
    }

    fn on_sample_batch(&self, batch: &BatchContext<'_>) {
        self.state.with(
            batch.thread,
            || ThreadProfile::new(batch.thread, "<attached>"),
            |profile| {
                for ctx in batch.iter() {
                    record_object_sample(profile, &ctx);
                }
            },
        );
    }

    fn approx_bytes(&self) -> usize {
        self.state.fold(self.state.slot_bytes(), |acc, _, p| acc + p.approx_bytes())
    }
}

#[derive(Debug, Clone, Default)]
struct CodeState {
    cct: Cct,
    samples: u64,
}

impl CodeState {
    fn record(&mut self, ctx: &SampleContext<'_>) {
        let node = self.cct.insert_path(ctx.call_trace);
        self.samples += 1;
        self.cct.metrics_mut(node).record_sample(ctx.sample, ctx.period);
    }
}

impl AbsorbDelta for CodeState {
    fn absorb(&mut self, delta: &Self) {
        self.cct.merge(&delta.cct);
        self.samples += delta.samples;
    }
}

/// The code-centric collector (the "Linux perf" view of Figure 1): attributes every
/// sample of the shared stream solely to its sampling calling context, with no notion
/// of objects, from the same pass as every other view.
///
/// Each thread grows its own CCT; [`CodeCentricCollector::profile`] merges them
/// top-down (§5.2) outside every lock.
#[derive(Debug)]
pub struct CodeCentricCollector {
    event: PmuEvent,
    period: u64,
    state: SnapshotBuffered<CodeState>,
}

impl CodeCentricCollector {
    /// Creates a collector labelled with the session's event and period.
    pub fn new(event: PmuEvent, period: u64) -> Self {
        Self { event, period, state: SnapshotBuffered::new() }
    }

    /// Total samples recorded.
    pub fn total_samples(&self) -> u64 {
        self.state.fold(0, |acc, _, s| acc + s.samples)
    }

    /// Snapshot of the measurement as a [`CodeCentricProfile`], identical in shape to
    /// the standalone profiler's output.
    ///
    /// The open per-thread deltas are taken out slot by slot — the only work done
    /// under a sampling lock — and the CCTs are merged into the owned profile outside
    /// every such lock, so a snapshot of a large CCT never stalls sample ingestion for
    /// the duration of the clone.
    pub fn profile(&self) -> CodeCentricProfile {
        let per_thread = self.state.merged();
        let mut cct = Cct::new();
        let mut total_samples = 0;
        for (_, state) in &per_thread {
            cct.merge(&state.cct);
            total_samples += state.samples;
        }
        CodeCentricProfile { event: self.event, period: self.period, cct, total_samples }
    }
}

impl Collector for CodeCentricCollector {
    fn name(&self) -> &'static str {
        "code-centric"
    }

    fn on_sample_batch(&self, batch: &BatchContext<'_>) {
        self.state.with(batch.thread, CodeState::default, |state| {
            for ctx in batch.iter() {
                state.record(&ctx);
            }
        });
    }

    fn approx_bytes(&self) -> usize {
        self.state.fold(self.state.slot_bytes(), |acc, _, s| acc + s.cct.approx_bytes())
    }
}

/// Samples per `(cpu_node, page_node)` pair — the machine-level traffic matrix, the
/// one NUMA signal the object profile does not hold (it keeps per-site remote and
/// local counts, not node pairs).
#[derive(Debug, Clone, Default)]
struct NumaState {
    node_traffic: FxHashMap<(u32, u32), u64>,
}

impl AbsorbDelta for NumaState {
    fn absorb(&mut self, delta: &Self) {
        for (pair, samples) in &delta.node_traffic {
            *self.node_traffic.entry(*pair).or_insert(0) += samples;
        }
    }
}

/// The NUMA collector (§4.3): folds each sample's CPU node and page node into a
/// node-to-node traffic matrix. Per-object remote and local counts live in the
/// object-centric profile's metrics; rank objects by them with
/// [`RankBy::RemoteSamples`](crate::query::RankBy::RemoteSamples). State is
/// per-thread and epoch-buffered; the sums merge at snapshot time.
#[derive(Debug, Default)]
pub struct NumaCollector {
    state: SnapshotBuffered<NumaState>,
}

impl NumaCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Collector for NumaCollector {
    fn name(&self) -> &'static str {
        "numa"
    }

    fn on_sample_batch(&self, batch: &BatchContext<'_>) {
        self.state.with(batch.thread, NumaState::default, |state| {
            for s in batch.samples {
                *state.node_traffic.entry((s.cpu_node.0, s.page_node.0)).or_insert(0) += 1;
            }
        });
    }

    fn approx_bytes(&self) -> usize {
        self.state.fold(self.state.slot_bytes(), |acc, _, s| {
            acc + s.node_traffic.len() * std::mem::size_of::<((u32, u32), u64)>()
        })
    }
}

/// The NUMA view assembled from a [`NumaCollector`]: the node-to-node traffic matrix.
/// A pair with different nodes is a remote access ([`Sample::is_remote_access`]).
#[derive(Debug, Clone)]
pub struct NumaProfile {
    /// Sampled event.
    pub event: PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// Samples per `(cpu_node, page_node)` pair, ordered by node pair.
    pub node_traffic: Vec<((u32, u32), u64)>,
}

impl NumaProfile {
    /// Total samples the collector saw.
    pub fn total_samples(&self) -> u64 {
        self.node_traffic.iter().map(|(_, n)| n).sum()
    }

    /// Samples whose page lived on another node than the sampling CPU.
    pub fn remote_samples(&self) -> u64 {
        self.node_traffic
            .iter()
            .filter(|((cpu, page), _)| cpu != page)
            .map(|(_, n)| n)
            .sum()
    }

    /// Machine-wide fraction of samples that were remote accesses.
    pub fn remote_fraction(&self) -> f64 {
        match self.total_samples() {
            0 => 0.0,
            total => self.remote_samples() as f64 / total as f64,
        }
    }
}

// ---------------------------------------------------------------------------------------
// The sampler: one virtual PMU per thread, shared by every collector
// ---------------------------------------------------------------------------------------

/// The session's sampling substrate: one [`ThreadPmu`] per thread, in a
/// [`ThreadSlots`] table. Observing an access — the hottest operation of the whole
/// session, it runs for every memory access, sampled or not — finds the thread's PMU
/// with two loads and advances its lock-free countdown; only an overflow takes the
/// PMU's lock. The lock stays held while the overflow is dispatched (the samples
/// borrow the PMU's buffer); every lock the dispatch takes — the thread's
/// resolution-cache slot, index shards, collector slots — nests inside it, and none of
/// their holders ever takes a PMU lock, so no cycle exists.
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
/// thread parallelism and live-object volume.
///
/// Two pressures argue for more shards: concurrently sampling threads colliding on a
/// shard lock (≈4 shards per thread keeps the collision probability low under random
/// region interleaving), and per-shard splay trees growing deep (≈512 live objects per
/// shard keeps the miss-path walk short). The result is the next power of two covering
/// the stronger pressure, clamped to `[4, 64]` (shard sets are 64-bit masks).
pub fn adaptive_shard_count(threads: usize, expected_live_objects: usize) -> usize {
    let for_threads = threads.saturating_mul(4);
    let for_volume = expected_live_objects / 512;
    for_threads.max(for_volume).clamp(4, 64).next_power_of_two().min(64)
}

/// Configures and builds a [`Session`].
///
/// The builder fixes the sampling configuration once — event, period, size filter,
/// jitter, launch/attach mode — then registers collectors and tunes the ingestion
/// topology (index shard count, per-thread resolution cache).
/// [`SessionBuilder::attach`] registers the finished session with a runtime in one
/// step.
pub struct SessionBuilder {
    config: ProfilerConfig,
    objects: bool,
    code: bool,
    numa: bool,
    custom: Vec<Arc<dyn Collector>>,
    index_shards: Option<usize>,
    resolution_cache: bool,
    export: Option<ExportConfig>,
}

/// Deferred [`SessionBuilder::stream_to`] configuration; the drainer spawns at build.
struct ExportConfig {
    sink: Arc<dyn ProfileSink>,
    out: Box<dyn io::Write + Send>,
    policy: DrainPolicy,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self {
            config: ProfilerConfig::default(),
            objects: false,
            code: false,
            numa: false,
            custom: Vec::new(),
            index_shards: None,
            resolution_cache: true,
            export: None,
        }
    }
}

impl SessionBuilder {
    /// A builder with the default configuration and no collectors.
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

    /// Registers the built-in [`ObjectCentricCollector`].
    pub fn collect_objects(mut self) -> Self {
        self.objects = true;
        self
    }

    /// Registers the built-in [`CodeCentricCollector`].
    pub fn collect_code(mut self) -> Self {
        self.code = true;
        self
    }

    /// Registers the built-in [`NumaCollector`].
    pub fn collect_numa(mut self) -> Self {
        self.numa = true;
        self
    }

    /// Registers a custom collector. The session keeps one `Arc`; keep a clone to read
    /// the collector's results after (or during) the run.
    pub fn with_collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.custom.push(collector);
        self
    }

    /// Pins the object-index shard count, overriding the adaptive heuristic. Must be a
    /// power of two in `1..=64` (validated when the session is built).
    pub fn index_shards(mut self, shards: usize) -> Self {
        self.index_shards = Some(shards);
        self
    }

    /// Enables or disables the per-thread object-resolution cache in front of the
    /// index shards (on by default). Disable to measure the bare sharded topology or
    /// when the sampled address stream has no re-reference locality at all.
    pub fn resolution_cache(mut self, enabled: bool) -> Self {
        self.resolution_cache = enabled;
        self
    }

    /// Streams the session's object-centric profile **continuously** through `sink`
    /// into `out`: a background [`DeltaDrainer`] closes
    /// buffer epochs on the cadence of `policy` and writes each retired
    /// [`ProfileDelta`] incrementally ([`ProfileSink::on_delta`]), so export cost
    /// scales with the delta instead of the accumulated profile — see
    /// [`crate::export`] for the pipeline, backpressure and the loss-free guarantee.
    ///
    /// Registers the built-in [`ObjectCentricCollector`] implicitly (the delta source).
    /// Close the stream with [`Session::finish_export`]; dropping the session's last
    /// reference finishes it implicitly.
    pub fn stream_to(
        mut self,
        sink: Arc<dyn ProfileSink>,
        out: Box<dyn io::Write + Send>,
        policy: DrainPolicy,
    ) -> Self {
        self.export = Some(ExportConfig { sink, out, policy });
        self
    }

    /// Streams the session's epoch deltas as a compact **binary** epoch log into
    /// `out`: [`SessionBuilder::stream_to`] with a
    /// [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink). The log replays
    /// byte-identically to the session's terminal snapshot
    /// ([`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes)
    /// or [`EpochLog::replay`](crate::query::EpochLog::replay)) — see
    /// [`crate::wire`] for the frame format.
    pub fn stream_to_binary(self, out: Box<dyn io::Write + Send>, policy: DrainPolicy) -> Self {
        self.stream_to(Arc::new(crate::wire::BinaryChunkedSink::new()), out, policy)
    }

    /// Streams the session's epoch deltas to a fleet aggregator through an
    /// already-connected [`FleetSink`](crate::fleet::FleetSink): the same
    /// [`DeltaDrainer`] pipeline as [`SessionBuilder::stream_to`], with frames
    /// going over the sink's socket instead of a local writer (the local writer
    /// slot is a no-op [`io::sink`]). See [`crate::fleet`] for the wire protocol
    /// and reconnect semantics.
    ///
    /// The sink never wedges the drainer: ack deadlines fail slow frames back
    /// into its bounded buffer, outages spill to disk, and reconnects back off
    /// with jitter — tune all three through
    /// [`FleetSink::builder`](crate::fleet::FleetSink::builder) before handing
    /// the sink here.
    pub fn stream_to_fleet(self, sink: Arc<crate::fleet::FleetSink>, policy: DrainPolicy) -> Self {
        self.stream_to(sink, Box::new(io::sink()), policy)
    }

    /// Builds the session without attaching it (use
    /// [`Runtime::add_listener`] with the returned `Arc`, or
    /// [`Session::attach_to`] later).
    pub fn build(self) -> Arc<Session> {
        let config = self.config;
        let shards = self.index_shards.unwrap_or_else(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
            adaptive_shard_count(threads, DEFAULT_EXPECTED_LIVE_OBJECTS)
        });
        let shared = SharedObjectIndex::with_shards(shards);
        let allocation = AllocationAgent::new(
            AllocationConfig { size_filter: config.size_filter, attach_mode: config.attach_mode },
            shared.clone(),
        );
        let builder = PerfEventBuilder::new(config.event)
            .sample_period(config.period)
            .jitter(config.jitter);

        let objects = (self.objects || self.export.is_some())
            .then(|| Arc::new(ObjectCentricCollector::new()));
        let code = self
            .code
            .then(|| Arc::new(CodeCentricCollector::new(config.event, config.period)));
        let numa = self.numa.then(|| Arc::new(NumaCollector::new()));
        let export = self.export.map(|cfg| {
            let collector =
                objects.clone().expect("stream_to registers the object-centric collector");
            DeltaDrainer::spawn(collector, cfg.sink, cfg.out, cfg.policy)
        });

        let mut collectors: Vec<Arc<dyn Collector>> = Vec::new();
        if let Some(c) = &objects {
            collectors.push(c.clone());
        }
        if let Some(c) = &code {
            collectors.push(c.clone());
        }
        if let Some(c) = &numa {
            collectors.push(c.clone());
        }
        collectors.extend(self.custom);

        Arc::new(Session {
            config,
            shared,
            allocation,
            sampler: Sampler::new(builder),
            caches: self.resolution_cache.then(ThreadSlots::new),
            collectors,
            objects,
            code,
            numa,
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
/// agent, the shared per-thread PMUs, and every registered collector. See the
/// [module documentation](self).
pub struct Session {
    config: ProfilerConfig,
    shared: Arc<SharedObjectIndex>,
    allocation: AllocationAgent,
    sampler: Sampler,
    /// Per-thread object-resolution caches (level 1 of the resolution path), one slot
    /// per thread like every other per-thread table; `None` when the builder disabled
    /// the cache. The slot's spin lock is held across the batch resolution (nested
    /// inside the thread's PMU lock; shard locks nest inside it, and shard locks never
    /// take slot locks, so no cycle exists). Only the owning thread and
    /// [`Session::splay_lookup_stats`] readers take it.
    caches: Option<ThreadSlots<SpinLock<ResolutionCache>>>,
    collectors: Vec<Arc<dyn Collector>>,
    objects: Option<Arc<ObjectCentricCollector>>,
    code: Option<Arc<CodeCentricCollector>>,
    numa: Option<Arc<NumaCollector>>,
    /// The asynchronous export pipeline, when the builder configured
    /// [`SessionBuilder::stream_to`]. While it runs, every epoch retirement of the
    /// object-centric collector routes its delta into the stream.
    export: Option<DeltaDrainer>,
}

/// One incremental extraction of every built-in collector's state
/// (see [`Session::snapshot`]). Each field is `None` when the corresponding collector
/// was not registered.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The object-centric profile, when an [`ObjectCentricCollector`] is registered.
    pub object: Option<ObjectCentricProfile>,
    /// The code-centric profile, when a [`CodeCentricCollector`] is registered.
    pub code: Option<CodeCentricProfile>,
    /// The NUMA view, when a [`NumaCollector`] is registered.
    pub numa: Option<NumaProfile>,
    /// Total PMU samples delivered when the snapshot was taken.
    pub total_samples: u64,
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

    /// Names of the registered collectors, in dispatch order.
    pub fn collector_names(&self) -> Vec<&'static str> {
        self.collectors.iter().map(|c| c.name()).collect()
    }

    /// Number of currently live monitored objects (splay-tree entries).
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

    /// Object-index lookup statistics, merged over every shard and every per-thread
    /// resolution cache: splaying lookups/hits (the shard-level miss path), read-only
    /// lookups/hits (non-splaying queries such as [`Session::resolve_address`]), and
    /// cache probes/hits (`cache_lookups` / `cache_hits` — resolutions that never
    /// touched a shard). Cache hits and shard lookups partition the sample hot path:
    /// [`LookupStats::resolutions`] is the total.
    pub fn splay_lookup_stats(&self) -> LookupStats {
        let stats = self.shared.lookup_stats();
        match &self.caches {
            Some(caches) => caches.iter().fold(stats, |mut acc, (_, cache)| {
                acc.merge(&cache.lock_yielding().stats());
                acc
            }),
            None => stats,
        }
    }

    /// `true` when the session resolves samples through per-thread caches (see
    /// [`SessionBuilder::resolution_cache`]).
    pub fn resolution_cache_enabled(&self) -> bool {
        self.caches.is_some()
    }

    /// Read-only resolution of an address to the allocation site of its enclosing
    /// monitored object. Unlike the hot-path resolution, this never splays — the tree
    /// shape the sampling path depends on is not perturbed — and is counted under
    /// `read_lookups` in [`Session::splay_lookup_stats`].
    pub fn resolve_address(&self, addr: u64) -> Option<AllocSiteId> {
        self.shared.find(addr).map(|(_, mo)| mo.site)
    }

    /// Number of shards of the session's object index.
    pub fn index_shard_count(&self) -> usize {
        self.shared.shard_count()
    }

    /// Number of buffer epochs the object-centric collector has retired (every profile
    /// assembly and every export drain closes one epoch — a diagnostic for the
    /// pause-free snapshot path; 0 when no [`ObjectCentricCollector`] is registered).
    ///
    /// The counter is read with a single `Relaxed` atomic load: retirements increment
    /// it under the retired-buffer lock, so the value is **monotonically
    /// non-decreasing** across any sequence of reads (from any thread), but a read is
    /// not ordered against the retired *state* itself — treat it as a lower bound on
    /// the retirements that have completed, never as a synchronization point.
    pub fn snapshot_retirements(&self) -> u64 {
        self.objects.as_ref().map(|c| c.state.retirements()).unwrap_or(0)
    }

    /// `true` while an export stream configured with [`SessionBuilder::stream_to`] is
    /// accepting deltas.
    pub fn export_active(&self) -> bool {
        self.export.as_ref().is_some_and(|e| e.is_running())
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
        match (self.export.as_ref().filter(|e| e.is_running()), self.objects.as_ref()) {
            (Some(export), Some(collector)) => {
                export.produce(collector);
                true
            }
            _ => false,
        }
    }

    /// Ends the export stream: drains the closing delta, writes the terminal whole
    /// profile through [`ProfileSink::on_finish`], flushes the writer, and joins the
    /// background drainer. Returns the stream's accumulated [`ExportStats`].
    /// Idempotent — repeated calls replay the first outcome. Dropping the session's
    /// last reference calls this implicitly (drain-on-drop), discarding the result.
    ///
    /// # Errors
    ///
    /// Returns an error when no export stream was configured, or with the first
    /// sink/write error the drainer encountered (the stream keeps consuming deltas
    /// after an error so producers never block, but stops writing).
    pub fn finish_export(&self) -> io::Result<ExportStats> {
        let export = self.export.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "session has no export stream (configure one with SessionBuilder::stream_to)",
            )
        })?;
        let collector =
            self.objects.as_ref().expect("stream_to registers the object-centric collector");
        export.finish(collector, |threads| self.assemble_object_profile(threads))
    }

    /// Approximate resident bytes of every session-owned data structure — the quantity
    /// behind the paper's memory-overhead figure (Fig. 4b).
    pub fn memory_footprint_bytes(&self) -> usize {
        let cache_bytes = match &self.caches {
            Some(caches) => {
                caches.approx_bytes()
                    + caches
                        .iter()
                        .map(|(_, cache)| cache.lock_yielding().approx_bytes())
                        .sum::<usize>()
            }
            None => 0,
        };
        self.shared.approx_bytes()
            + self.allocation.approx_bytes()
            + self.sampler.approx_bytes()
            + cache_bytes
            + self.collectors.iter().map(|c| c.approx_bytes()).sum::<usize>()
    }

    /// Assembles the object-centric collector's current state into an
    /// [`ObjectCentricProfile`]: per-thread sample profiles, allocation counts folded
    /// into the owning thread and site, the allocation-site table, and the run
    /// configuration. Can be called repeatedly (including mid-run); each call produces
    /// an independent snapshot. `None` when no [`ObjectCentricCollector`] is registered.
    pub fn object_profile(&self) -> Option<ObjectCentricProfile> {
        let collector = self.objects.as_ref()?;
        // On a streaming session, thread_profiles routes the epoch this read retires
        // into the export stream (never discarding it), so the profile assembles from
        // the retired buffer — by construction the fold of every streamed delta.
        Some(self.assemble_object_profile(collector.thread_profiles()))
    }

    /// Joins retired per-thread profiles with the allocation agent's counters, the
    /// site table and the run configuration — the final assembly shared by
    /// [`Session::object_profile`] and the export pipeline's terminal flush.
    fn assemble_object_profile(&self, mut threads: Vec<ThreadProfile>) -> ObjectCentricProfile {
        // Fold the allocation agent's per-(thread, site) counters into the thread
        // profiles so each site's metric vector carries both its sample metrics and its
        // allocation counts.
        fold_allocation_rows(&mut threads, self.allocation.allocations_by_thread());
        ObjectCentricProfile {
            event: self.config.event,
            period: self.config.period,
            size_filter: self.config.size_filter,
            sites: self.shared.sites.lock().snapshot(),
            threads,
            allocation_stats: self.allocation.stats(),
        }
    }

    /// Evaluates a [`Query`](crate::query::Query) against the session's live
    /// object-centric state (a pause-free snapshot under the hood) — equivalent to
    /// `query.evaluate(&*session)`. Each call observes the samples ingested so far;
    /// a later call sees later samples.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::SourceUnavailable`](crate::query::QueryError) when no
    /// [`ObjectCentricCollector`] is registered.
    pub fn query(
        &self,
        query: &crate::query::Query,
    ) -> Result<crate::query::QueryResult, crate::query::QueryError> {
        query.evaluate(self)
    }

    /// Subscribes a [`LiveFold`](crate::query::live::LiveFold) to this session's
    /// epoch-retired delta stream: the fold is seeded with everything retired so
    /// far and then fed every epoch the export drainer hands over, under the same
    /// hand-off gate that orders the export queue — the fold observes exactly the
    /// stream the sink logs. The site table resolves on demand against the
    /// session's interner, and the terminal flush (an explicit
    /// [`Session::finish_export`] or drain-on-drop) closes the fold with the
    /// complete profile.
    ///
    /// When the export stream already finished, the returned fold is the terminal
    /// profile, already closed — watches registered on it render the final state
    /// and their [`next_epoch`](crate::query::live::LiveQuery::next_epoch)
    /// iterators drain immediately.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::SourceUnavailable`](crate::query::QueryError) when the
    /// session has no export stream (configure one with
    /// [`SessionBuilder::stream_to`]) or no object-centric collector.
    pub fn live_fold(&self) -> Result<crate::query::live::LiveFold, crate::query::QueryError> {
        use crate::query::live::LiveFold;
        use crate::query::QueryError;
        let export = self.export.as_ref().ok_or_else(|| {
            QueryError::SourceUnavailable(
                "session has no export stream (configure one with SessionBuilder::stream_to)"
                    .to_string(),
            )
        })?;
        let collector = self.objects.as_ref().ok_or_else(|| {
            QueryError::SourceUnavailable("no object-centric collector registered".to_string())
        })?;
        let fold =
            LiveFold::with_meta(self.config.event, self.config.period, self.config.size_filter);
        let shared = Arc::clone(&self.shared);
        fold.set_site_refresh(move || shared.sites.lock().snapshot());
        let attached = export.attach_tap(collector, |seed| {
            fold.adopt_seed(seed);
            fold.tap_handle()
        });
        if !attached {
            // The stream already flushed its terminal record; the session's own
            // profile is the complete run.
            let profile = self.object_profile().ok_or_else(|| {
                QueryError::SourceUnavailable("no object-centric collector registered".to_string())
            })?;
            return Ok(LiveFold::from_terminal(&profile));
        }
        Ok(fold)
    }

    /// Registers a live subscription for `query` on this session's delta stream —
    /// shorthand for `query.watch(&session.live_fold()?)`. The returned
    /// [`LiveQuery`](crate::query::live::LiveQuery) keeps the underlying fold
    /// alive; its results are epoch-versioned and byte-identical to cold
    /// evaluations over the fold's snapshots.
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

    /// The code-centric collector's current profile, or `None` when no
    /// [`CodeCentricCollector`] is registered.
    pub fn code_profile(&self) -> Option<CodeCentricProfile> {
        self.code.as_ref().map(|c| c.profile())
    }

    /// The NUMA collector's current traffic matrix, or `None` when no
    /// [`NumaCollector`] is registered. The per-thread states are merged and sorted
    /// outside every collector lock.
    pub fn numa_profile(&self) -> Option<NumaProfile> {
        let collector = self.numa.as_ref()?;
        let mut traffic = NumaState::default();
        for (_, state) in collector.state.merged() {
            traffic.absorb(&state);
        }
        let mut node_traffic: Vec<((u32, u32), u64)> = traffic.node_traffic.into_iter().collect();
        node_traffic.sort_unstable_by_key(|(pair, _)| *pair);
        Some(NumaProfile { event: self.config.event, period: self.config.period, node_traffic })
    }

    /// Extracts every built-in collector's current profile without stopping
    /// measurement — the live-observation entry point for long-running workloads.
    /// Snapshots are independent: later samples never mutate an earlier snapshot.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            object: self.object_profile(),
            code: self.code_profile(),
            numa: self.numa_profile(),
            total_samples: self.total_samples(),
        }
    }

    /// Streams the current object-centric profile through `sink` into `out` — the
    /// incremental export path (`snapshot → sink`) for live observation.
    ///
    /// # Errors
    ///
    /// Returns an error when no [`ObjectCentricCollector`] is registered, or when the
    /// sink fails to write.
    pub fn stream_snapshot(
        &self,
        sink: &dyn ProfileSink,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        let profile = self.object_profile().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "session has no object-centric collector to stream",
            )
        })?;
        sink.write_profile(&profile, out)
    }

    /// Dispatches one resolved sample batch to every collector.
    fn dispatch_samples(&self, event: &MemoryAccessEvent<'_>, samples: &[Sample]) {
        // Resolve each sample's effective address to the enclosing monitored object
        // once for *all* collectors: through the thread's private resolution cache
        // when enabled (repeat samples on hot objects take no shard lock at all),
        // falling back to the index shards the batch touches (the guard is reused
        // across the batch's spatially local addresses).
        let mut sites = SiteBatch::default();
        let addrs = || samples.iter().map(|s| &s.effective_addr);
        match &self.caches {
            Some(caches) => {
                let (cache, _) = caches
                    .get_or_register(event.thread, || SpinLock::new(ResolutionCache::default()));
                self.shared.resolve_batch_cached(&mut cache.lock(), addrs(), &mut sites)
            }
            None => self.shared.resolve_batch(addrs(), &mut sites),
        }
        // One batch call per collector — not samples × collectors lock round-trips.
        let batch = BatchContext {
            thread: event.thread,
            call_trace: event.call_trace,
            period: self.config.period,
            samples,
            sites: sites.as_slice(),
        };
        for collector in &self.collectors {
            collector.on_sample_batch(&batch);
        }
    }

    fn thread_seen(&self, thread: ThreadId, name: &str) {
        if self.sampler.ensure_thread(thread) {
            for collector in &self.collectors {
                collector.on_thread_seen(thread, name);
            }
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("collectors", &self.collector_names())
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
        for collector in &self.collectors {
            collector.on_thread_end(event);
        }
    }

    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        self.allocation.on_object_alloc(event);
        for collector in &self.collectors {
            collector.on_object_alloc(event);
        }
    }

    fn on_memory_access(&self, event: &MemoryAccessEvent<'_>) {
        // Threads that started before the session attached get a PMU lazily, and the
        // overflow samples are dispatched straight out of the PMU's buffer.
        self.sampler.observe_ensuring(
            event,
            || {
                for collector in &self.collectors {
                    collector.on_thread_seen(event.thread, "<attached>");
                }
            },
            |samples| self.dispatch_samples(event, samples),
        );
    }

    fn on_gc_start(&self, event: &GcEvent) {
        self.allocation.on_gc_start(event);
        for collector in &self.collectors {
            collector.on_gc_start(event);
        }
    }

    fn on_gc_end(&self, event: &GcEvent) {
        self.allocation.on_gc_end(event);
        for collector in &self.collectors {
            collector.on_gc_end(event);
        }
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
    use parking_lot::Mutex;

    use crate::query::{Query, RankBy};
    use crate::sink::{JsonSink, TextSink};
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
            .collect_code()
            .collect_numa()
            .build();
        let config = session.config();
        assert_eq!(config.event, PmuEvent::DtlbMiss);
        assert_eq!(config.period, 128);
        assert_eq!(config.size_filter, 4096);
        assert!(config.jitter);
        assert!(config.attach_mode);
        assert_eq!(session.collector_names(), vec!["object-centric", "code-centric", "numa"]);
        assert!(format!("{session:?}").contains("object-centric"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = Session::builder().period(0);
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
        let sm = main.sites.values().next().unwrap();
        assert_eq!(sm.total.allocations, 200);
        assert!(sm.total.samples > 0);
        assert!(
            sm.total.samples * 2 >= main.samples,
            "most samples land inside the hot arrays ({} of {})",
            sm.total.samples,
            main.samples
        );
        let stats = session.splay_lookup_stats();
        assert!(
            stats.resolutions() >= main.samples,
            "every sample resolves through the cache or a shard"
        );
        assert!(stats.hits + stats.cache_hits > 0);
        assert!(stats.cache_hits > 0, "the hot bloat loop re-references its arrays");
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
        // Both objects share one call path, hence one site — so check the splay tree's
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
        let sa = a.threads[0].sites.values().next().unwrap().total;
        let sb = b.threads[0].sites.values().next().unwrap().total;
        assert_eq!(sa, sb, "taking a second profile must not double-count allocations");
    }

    #[test]
    fn adaptive_shard_heuristic_scales_with_threads_and_volume() {
        // Thread pressure: ~4 shards per thread, next power of two.
        assert_eq!(adaptive_shard_count(1, 0), 4);
        assert_eq!(adaptive_shard_count(4, DEFAULT_EXPECTED_LIVE_OBJECTS), 16);
        assert_eq!(adaptive_shard_count(6, 0), 32, "24 rounds up to 32");
        // Volume pressure dominates when the live set is huge.
        assert_eq!(adaptive_shard_count(1, 16_384), 32);
        // Both clamp at the 64-shard bitmask width.
        assert_eq!(adaptive_shard_count(64, 0), 64);
        assert_eq!(adaptive_shard_count(1, 1 << 20), 64);
        // And never below the 4-shard floor.
        assert_eq!(adaptive_shard_count(0, 0), 4);
    }

    #[test]
    fn builder_shard_knobs_control_the_index() {
        // The default is the heuristic over the machine's parallelism: always a power
        // of two within the mask width.
        let default = Session::builder().build();
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        assert_eq!(
            default.index_shard_count(),
            adaptive_shard_count(threads, DEFAULT_EXPECTED_LIVE_OBJECTS)
        );
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
    fn resolution_cache_accelerates_hot_objects_and_can_be_disabled() {
        let (_rt, cached) =
            bloat_run_with(|rt| Session::builder().period(16).collect_objects().attach(rt));
        assert!(cached.resolution_cache_enabled());
        let stats = cached.splay_lookup_stats();
        assert_eq!(stats.cache_lookups, cached.total_samples());
        assert!(stats.cache_hits > 0, "the bloat loop re-references its hot arrays");
        assert_eq!(stats.resolutions(), cached.total_samples());

        let (_rt, uncached) = bloat_run_with(|rt| {
            Session::builder()
                .period(16)
                .resolution_cache(false)
                .collect_objects()
                .attach(rt)
        });
        assert!(!uncached.resolution_cache_enabled());
        let stats = uncached.splay_lookup_stats();
        assert_eq!(stats.cache_lookups, 0);
        assert_eq!(stats.lookups, uncached.total_samples());
        // The cache never changes attribution, only where it is resolved.
        assert_eq!(
            cached.object_profile().unwrap().to_text(),
            uncached.object_profile().unwrap().to_text()
        );
    }

    #[test]
    fn single_pass_produces_all_three_views() {
        let (_rt, session) = bloat_run_with(|rt| {
            Session::builder()
                .period(16)
                .collect_objects()
                .collect_code()
                .collect_numa()
                .attach(rt)
        });

        let object = session.object_profile().expect("object collector registered");
        let code = session.code_profile().expect("code collector registered");
        let numa = session.numa_profile().expect("numa collector registered");

        assert!(object.total_samples() > 0);
        assert_eq!(object.total_samples(), code.total_samples, "one shared sampling stream");
        assert_eq!(object.total_samples(), numa.total_samples());
        assert_eq!(object.sites.len(), 1);
        assert_eq!(object.sites[0].class_name, "float[]");
        assert!(!code.top_locations(5).is_empty());
        // Single-node runtime: the traffic matrix is one local cell holding every
        // sample, and the one object ranks with zero remote samples.
        assert_eq!(numa.node_traffic, vec![((0, 0), session.total_samples())]);
        assert_eq!(numa.remote_fraction(), 0.0);
        let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&object).unwrap();
        assert_eq!(remote.groups.len(), 1, "all attributed samples share one site");
        assert_eq!(remote.groups[0].metrics.remote_samples, 0);
    }

    #[test]
    fn session_object_view_is_identical_to_legacy_djxperf() {
        // An objects + code session against an objects-only one on an identical,
        // independently seeded runtime.
        let config = ProfilerConfig::default().with_period(16);
        let (_rt, session) = bloat_run_with(|rt| {
            Session::builder().config(config).collect_objects().collect_code().attach(rt)
        });
        let objects_only = bloat_run(config);
        assert_eq!(
            session.object_profile().unwrap().to_text(),
            objects_only.object_profile().unwrap().to_text(),
            "multi-collector session must not perturb object-centric results"
        );
    }

    #[test]
    fn snapshots_are_incremental_and_independent() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(8).collect_objects().collect_code().attach(&mut rt);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 16 * 1024).unwrap();

        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let first = session.snapshot();
        assert!(first.total_samples > 0);

        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let second = session.snapshot();
        assert!(second.total_samples >= first.total_samples);
        assert_eq!(
            first.object.as_ref().unwrap().total_samples(),
            first.total_samples,
            "earlier snapshot is unchanged by later samples"
        );
        assert_eq!(second.object.unwrap().total_samples(), second.total_samples);
        assert!(second.numa.is_none(), "unregistered collectors snapshot as None");
    }

    #[test]
    fn stream_snapshot_round_trips_through_both_sinks() {
        let (_rt, session) =
            bloat_run_with(|rt| Session::builder().period(16).collect_objects().attach(rt));
        let profile = session.object_profile().unwrap();

        let mut out = Vec::new();
        session.stream_snapshot(&BinaryChunkedSink::new(), &mut out).unwrap();
        let parsed = BinaryChunkedSink::new().read_log_bytes(&out).unwrap();
        assert_eq!(parsed.to_text(), profile.to_text(), "binary sink round trip");
        // Text and JSON are render-only: the streamed snapshot is the profile's
        // rendering.
        for sink in [&TextSink as &dyn ProfileSink, &JsonSink::new()] {
            let mut out = Vec::new();
            session.stream_snapshot(sink, &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), sink.write_to_string(&profile));
        }
    }

    #[test]
    fn stream_snapshot_without_object_collector_errors() {
        let session = Session::builder().collect_code().build();
        let mut out = Vec::new();
        let err = session.stream_snapshot(&TextSink, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn detach_stops_all_collectors() {
        let mut rt = Runtime::new(RuntimeConfig::small());
        let session = Session::builder().period(8).collect_objects().collect_code().attach(&mut rt);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 8192).unwrap();
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let before = session.snapshot();
        assert!(before.total_samples > 0);
        assert!(session.detach(&mut rt));
        dsl::sequential_sweep(&mut rt, t, &arr).unwrap();
        let after = session.snapshot();
        assert_eq!(after.total_samples, before.total_samples);
        assert_eq!(after.code.unwrap().total_samples, before.code.unwrap().total_samples);
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
    fn custom_collectors_receive_the_shared_stream() {
        #[derive(Debug, Default)]
        struct CountingCollector {
            samples: Mutex<u64>,
            threads: Mutex<Vec<String>>,
        }
        impl Collector for CountingCollector {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn on_sample_batch(&self, batch: &BatchContext<'_>) {
                *self.samples.lock() += batch.iter().count() as u64;
            }
            fn on_thread_seen(&self, _thread: ThreadId, name: &str) {
                self.threads.lock().push(name.to_string());
            }
        }

        let counting = Arc::new(CountingCollector::default());
        let (_rt, session) = bloat_run_with(|rt| {
            Session::builder()
                .period(16)
                .collect_objects()
                .with_collector(counting.clone())
                .attach(rt)
        });
        assert_eq!(*counting.samples.lock(), session.total_samples());
        assert_eq!(*counting.threads.lock(), vec!["main".to_string()]);
        assert_eq!(session.collector_names(), vec!["object-centric", "counting"]);
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
