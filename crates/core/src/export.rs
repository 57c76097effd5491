//! Asynchronous, incremental profile export: a background drainer streaming
//! epoch-retired snapshot deltas through a [`ProfileSink`].
//!
//! The snapshot machinery of [`crate::session`] already partitions every collector's
//! state into **per-epoch deltas**: retiring a buffer epoch takes each thread slot's
//! open delta out in O(1) and absorbs the taken deltas into a retired buffer. Before this module, the
//! only consumer of that partition was [`Session::snapshot`](crate::session::Session) —
//! which re-clones the *whole* retired buffer on every call, so exporting a live
//! profile costs O(accumulated profile) each time. `djxperf::export` turns the
//! profiler from snapshot-pull into continuous-push: a [`DeltaDrainer`] background
//! thread streams each retired [`ProfileDelta`] through an extended [`ProfileSink`]
//! ([`ProfileSink::on_delta`] / [`ProfileSink::on_finish`]) as it is produced, so
//! export cost scales with the delta — not with the whole accumulated profile.
//!
//! # Pipeline
//!
//! ```text
//! sampling threads ──► active slots ──drain──► ProfileDelta ──queue──► DeltaDrainer ──► sink
//!                        (hot path,    (epoch     (bounded,    (background   (on_delta /
//!                         untouched)   retire)    in-process)     thread)     on_finish)
//! ```
//!
//! Configure with [`SessionBuilder::stream_to`](crate::session::SessionBuilder::stream_to);
//! to ship the frames to another process instead of a local writer, hand the same
//! pipeline a socket-backed [`FleetSink`](crate::fleet::FleetSink) via
//! [`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet)
//! (see [`crate::fleet`] for the wire protocol).
//! Deltas enter the stream from two producers, serialized by one hand-off gate so
//! epochs are strictly ordered on the wire:
//!
//! * the drainer's own periodic tick ([`DrainPolicy::tick`]), and
//! * any snapshot/profile read on the session (a snapshot closes an epoch; when a
//!   stream is attached the closed epoch's delta is routed into it, never discarded —
//!   this is what makes the stream **loss-free**).
//!
//! # Loss-free, order-preserving replay
//!
//! Every sample the session ever attributes is in exactly one streamed delta (plus
//! the terminal flush): folding the streamed deltas with
//! [`DeltaFold`](crate::profile::DeltaFold) — or replaying a
//! [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) epoch log — reproduces a profile
//! **byte-identical** to a terminal [`Session::snapshot`](crate::session::Session)
//! once ingestion has quiesced. Deltas appear on the wire in strictly increasing
//! epoch order; empty epochs are skipped.
//!
//! # Backpressure
//!
//! The hand-off queue is bounded ([`DrainPolicy::capacity`]). When the drainer falls
//! behind, a full queue is resolved by [`Backpressure`]:
//!
//! * [`Backpressure::Coalesce`] (default) — the new delta is merged into the newest
//!   queued delta ([`ProfileDelta::merge_from`], a keyed fold costing O(accumulated +
//!   incoming) threads per merge — a long-backpressured queue never degrades into
//!   quadratic rescans of the growing accumulator); nothing is lost, the stream just
//!   carries coarser partitions. Export cost stays bounded and ingestion never waits.
//! * [`Backpressure::Block`] — the producer spins (yielding) until the drainer makes
//!   room, preserving the exact epoch granularity. Only snapshot-side threads ever
//!   block; the sampling hot path never touches the queue.
//!
//! A slow or hung **sink** is a different failure than a slow drainer: the drainer
//! thread itself is the one stuck in `on_delta`. Local writers are fast, but a
//! socket-backed [`FleetSink`](crate::fleet::FleetSink) caps that stall with an ack
//! deadline and fails the frame back into its own bounded, spillable buffer — the
//! drainer's `on_delta` call returns and the queue keeps draining even when the
//! aggregator is down for hours (see the failure model in [`crate::fleet`]).
//!
//! # Shutdown
//!
//! [`Session::finish_export`](crate::session::Session::finish_export) closes the
//! stream: a final delta is drained, the terminal whole profile is pushed through
//! [`ProfileSink::on_finish`], the writer is flushed, and the background thread joins,
//! returning accumulated [`ExportStats`] (or the first sink/write error). Dropping the
//! last reference to a streaming session finishes the export as well (drain-on-drop),
//! so no delta is lost even when the caller forgets the explicit finish.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::profile::{ObjectCentricProfile, ProfileDelta};
use crate::session::ObjectCentricCollector;
use crate::sink::ProfileSink;
use crate::sync::{Epoch, SpinLock};

/// What a producer does when the hand-off queue is full. See the
/// [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Spin (yielding the timeslice) until the drainer makes room: exact epoch
    /// granularity on the wire, at the cost of stalling the snapshotting thread.
    Block,
    /// Merge the new delta into the newest queued one: bounded memory and no waiting,
    /// at the cost of coarser delta granularity. Loss-free either way.
    Coalesce,
}

/// Configuration of the background drain pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// Maximum number of deltas queued between producers and the drainer. Must be
    /// ≥ 1 — asserted both by [`DrainPolicy::capacity`] and when the stream spawns,
    /// so a zero smuggled in through a struct literal panics instead of hanging
    /// every push.
    pub capacity: usize,
    /// What producers do when the queue is full.
    pub backpressure: Backpressure,
    /// How often the drainer closes an epoch on its own when nobody snapshots. Must
    /// be non-zero — asserted both by [`DrainPolicy::tick`] and when the stream
    /// spawns, so a zero smuggled in through a struct literal panics instead of
    /// busy-spinning the drainer at 100% of a core.
    pub tick: Duration,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        Self { capacity: 8, backpressure: Backpressure::Coalesce, tick: Duration::from_millis(5) }
    }
}

impl DrainPolicy {
    /// The default policy: capacity 8, [`Backpressure::Coalesce`], 5 ms tick.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "drain queue capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Selects [`Backpressure::Block`].
    pub fn block(mut self) -> Self {
        self.backpressure = Backpressure::Block;
        self
    }

    /// Selects [`Backpressure::Coalesce`].
    pub fn coalesce(mut self) -> Self {
        self.backpressure = Backpressure::Coalesce;
        self
    }

    /// Sets the drainer's self-drain cadence.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero (a zero tick would busy-spin the drainer thread).
    pub fn tick(mut self, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "drain tick must be non-zero");
        self.tick = tick;
        self
    }
}

/// Counters describing what an export stream did, returned by
/// [`Session::finish_export`](crate::session::Session::finish_export) and readable
/// live via [`Session::export_stats`](crate::session::Session::export_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Deltas written through [`ProfileSink::on_delta`].
    pub deltas_streamed: u64,
    /// Total PMU samples carried by the streamed deltas.
    pub samples_streamed: u64,
    /// Buffer epochs closed on behalf of the stream (including empty ones, which are
    /// never put on the wire).
    pub epochs_drained: u64,
    /// Deltas merged into a queued delta because the queue was full
    /// ([`Backpressure::Coalesce`]).
    pub coalesced: u64,
    /// Pushes that had to wait for the drainer ([`Backpressure::Block`]).
    pub blocked: u64,
}

/// An in-memory `io::Write` target that can be read while (and after) a background
/// drainer writes to it — the natural sink destination for tests and examples, and a
/// handy capture buffer for any streamed export.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().clone()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.0.lock().is_empty()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-process subscriber to the epoch-retired delta stream — the hook a
/// [`LiveFold`](crate::query::live::LiveFold) registers beside the sink hand-off.
///
/// Callbacks run **under the hand-off gate**: subscribers observe every drained
/// delta exactly once, in strict epoch order, atomically with the drain that
/// produced it. Implementations must be quick (they stall producers and the
/// drainer's tick) and must never call back into the export pipeline.
pub(crate) trait DeltaTap: Send + Sync {
    /// One non-empty epoch-retired delta, observed before it is queued for the sink.
    fn on_delta(&self, delta: &ProfileDelta);
    /// The terminal whole profile — the stream's endpoint, after the final delta.
    fn on_finish(&self, profile: &ObjectCentricProfile);
}

/// One queued hand-off item.
enum ExportItem {
    /// A retired epoch delta.
    Delta(ProfileDelta),
    /// The terminal whole profile; always the last item of a stream.
    Finish(Box<ObjectCentricProfile>),
}

/// State shared between producers (snapshot threads, the session) and the drainer.
pub(crate) struct ExportShared {
    /// Serializes drain→push hand-offs so epochs are strictly ordered on the wire.
    /// Held across a drain and its push; the drainer only ever `try_lock`s it, so a
    /// producer blocking on a full queue can never deadlock against the drainer.
    gate: SpinLock<()>,
    /// The bounded delta queue.
    queue: SpinLock<VecDeque<ExportItem>>,
    capacity: usize,
    backpressure: Backpressure,
    /// Set under the gate after the [`ExportItem::Finish`] item is queued; deltas
    /// arriving later (post-finish races) are dropped — they carry samples recorded
    /// after the stream's endpoint by definition.
    closed: AtomicBool,
    /// Set when the drainer thread exits — normally (after the terminal flush) or by
    /// unwinding out of a panicking sink. Producers waiting for queue room check it
    /// so a dead drainer can never leave a push (or [`Session::drop`]'s implicit
    /// finish) spinning forever on a queue nobody will ever pop.
    ///
    /// [`Session::drop`]: crate::session::Session
    worker_dead: AtomicBool,
    /// Bumped on every push; the drainer validates its recorded generation before
    /// parking so a push between "queue looked empty" and "park" is never slept over.
    pushed: Epoch,
    /// The drainer's thread handle, for wakeups.
    drainer: SpinLock<Option<std::thread::Thread>>,
    /// Live-fold subscribers (see [`DeltaTap`]). Only ever touched under the hand-off
    /// gate — registration included — so taps observe a strictly ordered stream.
    /// Weak: dropping the last `LiveFold` handle unsubscribes on the next drain.
    taps: SpinLock<Vec<Weak<dyn DeltaTap>>>,
    // Stream statistics (see [`ExportStats`]).
    deltas_streamed: AtomicU64,
    samples_streamed: AtomicU64,
    epochs_drained: AtomicU64,
    coalesced: AtomicU64,
    blocked: AtomicU64,
}

impl ExportShared {
    fn new(policy: DrainPolicy) -> Self {
        // The builder methods assert these too, but the fields are pub: a struct
        // literal with capacity 0 would make every push spin forever on a queue that
        // can never gain room, and a zero tick would busy-spin the drainer at 100%
        // of a core — both hangs caught here as a panic instead.
        assert!(policy.capacity > 0, "drain queue capacity must be non-zero");
        assert!(!policy.tick.is_zero(), "drain tick must be non-zero");
        Self {
            gate: SpinLock::new(()),
            queue: SpinLock::new(VecDeque::with_capacity(policy.capacity)),
            capacity: policy.capacity,
            backpressure: policy.backpressure,
            closed: AtomicBool::new(false),
            worker_dead: AtomicBool::new(false),
            pushed: Epoch::new(),
            drainer: SpinLock::new(None),
            taps: SpinLock::new(Vec::new()),
            deltas_streamed: AtomicU64::new(0),
            samples_streamed: AtomicU64::new(0),
            epochs_drained: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> ExportStats {
        ExportStats {
            deltas_streamed: self.deltas_streamed.load(Ordering::Relaxed),
            samples_streamed: self.samples_streamed.load(Ordering::Relaxed),
            epochs_drained: self.epochs_drained.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
        }
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn worker_is_dead(&self) -> bool {
        self.worker_dead.load(Ordering::Acquire)
    }

    fn wake(&self) {
        if let Some(thread) = &*self.drainer.lock() {
            thread.unpark();
        }
    }

    /// Feeds one drained delta to every live tap, pruning dropped subscribers.
    /// Call with the gate held and only for non-empty deltas — empty epochs are
    /// skipped on the wire, and taps mirror the wire.
    fn tap_delta(&self, delta: &ProfileDelta) {
        let mut taps = self.taps.lock();
        if taps.is_empty() {
            return;
        }
        taps.retain(|tap| match tap.upgrade() {
            Some(tap) => {
                tap.on_delta(delta);
                true
            }
            None => false,
        });
    }

    /// Feeds the terminal profile to every live tap. Call with the gate held, after
    /// the closing [`ExportShared::tap_delta`].
    fn tap_finish(&self, profile: &ObjectCentricProfile) {
        let mut taps = self.taps.lock();
        taps.retain(|tap| match tap.upgrade() {
            Some(tap) => {
                tap.on_finish(profile);
                true
            }
            None => false,
        });
    }

    // Queue accesses acquire yielding throughout: the queue is only ever touched
    // from normal thread context (snapshot producers, the drainer — never the
    // sampling hot path), and a Coalesce producer merges whole ThreadProfiles under
    // the lock, which a pure spin on the other side would burn a core waiting out.

    fn pop(&self) -> Option<ExportItem> {
        self.queue.lock_yielding().pop_front()
    }

    fn queue_is_empty(&self) -> bool {
        self.queue.lock_yielding().is_empty()
    }

    /// Enqueues one delta, resolving a full queue per the backpressure policy. Deltas
    /// arriving after the stream closed — or once the drainer thread is dead (a
    /// panicking sink; the panic surfaces at finish) — are dropped. Call with the
    /// gate held so epochs stay ordered.
    fn push_delta(&self, delta: ProfileDelta) {
        let mut pending = Some(delta);
        let mut waited = false;
        loop {
            if self.is_closed() || self.worker_is_dead() {
                return;
            }
            {
                let mut queue = self.queue.lock_yielding();
                if queue.len() < self.capacity {
                    queue.push_back(ExportItem::Delta(pending.take().unwrap()));
                } else if self.backpressure == Backpressure::Coalesce {
                    if let Some(ExportItem::Delta(back)) = queue.back_mut() {
                        back.merge_from(pending.as_ref().unwrap());
                        pending = None;
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            if pending.is_none() {
                self.pushed.bump();
                self.wake();
                return;
            }
            if !waited {
                waited = true;
                self.blocked.fetch_add(1, Ordering::Relaxed);
            }
            self.wake();
            std::thread::yield_now();
        }
    }

    /// Enqueues the terminal item, waiting for room regardless of policy — unless the
    /// drainer thread is dead, in which case nothing will ever pop the queue and the
    /// caller's join will surface the panic instead. Call with the gate held, before
    /// marking the stream closed.
    fn push_finish(&self, profile: Box<ObjectCentricProfile>) {
        let mut pending = Some(profile);
        loop {
            if self.worker_is_dead() {
                return;
            }
            {
                let mut queue = self.queue.lock_yielding();
                if queue.len() < self.capacity {
                    queue.push_back(ExportItem::Finish(pending.take().unwrap()));
                }
            }
            if pending.is_none() {
                self.pushed.bump();
                self.wake();
                return;
            }
            self.wake();
            std::thread::yield_now();
        }
    }

    /// Closes one epoch of `collector` and routes its delta into the stream — the
    /// producer-side hand-off. The gate serializes concurrent producers (and the
    /// drainer's own tick), so wire order follows epoch order. Acquired yielding:
    /// every gate holder runs in normal thread context, and yielding to a preempted
    /// holder beats spinning out its timeslice
    /// ([`SpinLock::lock_yielding`]).
    ///
    /// Returns `false` when the stream has already closed: no epoch is retired, and
    /// the caller must fall back to the plain (non-streaming) read path.
    pub(crate) fn produce(&self, collector: &ObjectCentricCollector) -> bool {
        let _gate = self.gate.lock_yielding();
        if self.is_closed() {
            return false;
        }
        let delta = collector.drain_delta();
        self.epochs_drained.fetch_add(1, Ordering::Relaxed);
        if !delta.is_empty() {
            self.tap_delta(&delta);
            self.push_delta(delta);
        }
        true
    }
}

/// The background worker: pops queued deltas, self-drains on its tick, and writes
/// everything through the sink in epoch order.
struct DrainWorker {
    shared: Arc<ExportShared>,
    collector: Arc<ObjectCentricCollector>,
    sink: Arc<dyn ProfileSink>,
    out: Box<dyn Write + Send>,
    tick: Duration,
    /// First sink/write error; once set, further items are consumed and discarded so
    /// producers can never block on a dead stream.
    error: Option<io::Error>,
}

impl DrainWorker {
    /// Writes one popped item; returns `true` when the item was the terminal flush.
    fn emit(&mut self, item: ExportItem) -> bool {
        match item {
            ExportItem::Delta(delta) => {
                if self.error.is_none() {
                    let samples = delta.total_samples();
                    // Flush per delta: the stream advertises a live feed, and a
                    // buffered writer (BufWriter over a file or socket) would
                    // otherwise deliver nothing until the terminal flush — and lose
                    // every buffered delta if the process dies before it.
                    match self
                        .sink
                        .on_delta(delta.epoch, &delta, &mut self.out)
                        .and_then(|()| self.out.flush())
                    {
                        Ok(()) => {
                            self.shared.deltas_streamed.fetch_add(1, Ordering::Relaxed);
                            self.shared.samples_streamed.fetch_add(samples, Ordering::Relaxed);
                        }
                        Err(err) => self.error = Some(err),
                    }
                }
                false
            }
            ExportItem::Finish(profile) => {
                if self.error.is_none() {
                    if let Err(err) =
                        self.sink.on_finish(&profile, &mut self.out).and_then(|()| self.out.flush())
                    {
                        self.error = Some(err);
                    }
                }
                true
            }
        }
    }

    fn run(mut self) -> io::Result<()> {
        let mut last_drain = Instant::now();
        // Cloned handle for gate guards: a guard's lifetime must not be tied to a
        // borrow of `self` (emit needs `&mut self` while the gate is held).
        let shared = Arc::clone(&self.shared);
        loop {
            // 1. Flush everything queued, in FIFO (= epoch) order.
            while let Some(item) = self.shared.pop() {
                if self.emit(item) {
                    return match self.error.take() {
                        Some(err) => Err(err),
                        None => Ok(()),
                    };
                }
            }
            if self.shared.is_closed() {
                // The close may have raced the pop loop: a concurrent finish can
                // enqueue the closing delta plus the terminal item *after* the loop
                // saw an empty queue and *before* this check. `closed` is published
                // (Release) only after those pushes, and nothing enqueues once it is
                // set, so one more drain here is race-free and final — without it the
                // last delta and the terminal record would be dropped silently.
                while let Some(item) = self.shared.pop() {
                    if self.emit(item) {
                        return match self.error.take() {
                            Some(err) => Err(err),
                            None => Ok(()),
                        };
                    }
                }
                // Defensive: closed without a terminal item (not produced by the
                // session, but a clean exit beats a zombie thread).
                return match self.error.take() {
                    Some(err) => Err(err),
                    None => self.out.flush(),
                };
            }
            // 2. Tick self-drain — only when the tick actually elapsed, so producer
            // pushes (which also wake this thread) do not inflate the epoch cadence
            // beyond the documented DrainPolicy::tick. `try_lock`: if a producer is
            // mid-hand-off we simply pop its delta on the next iteration; never
            // block while holding nothing. The gate is held only for the O(1)
            // queue take + epoch drain — sink I/O happens after it is released, so
            // a producer (a snapshot on the session) never waits out a write. Wire
            // order is safe: everything taken here predates anything a producer can
            // enqueue after the release, and only this thread writes the sink.
            if last_drain.elapsed() >= self.tick {
                let mut pending = Vec::new();
                if let Some(_gate) = shared.gate.try_lock() {
                    if !self.shared.is_closed() {
                        // Earlier queued epochs first, so the write stays ordered.
                        while let Some(item) = self.shared.pop() {
                            pending.push(item);
                        }
                        let delta = self.collector.drain_delta();
                        last_drain = Instant::now();
                        self.shared.epochs_drained.fetch_add(1, Ordering::Relaxed);
                        if !delta.is_empty() {
                            // This path bypasses push_delta (the pending batch is
                            // emitted outside the gate), so taps fire here too.
                            self.shared.tap_delta(&delta);
                            pending.push(ExportItem::Delta(delta));
                        }
                    }
                }
                for item in pending {
                    if self.emit(item) {
                        return match self.error.take() {
                            Some(err) => Err(err),
                            None => Ok(()),
                        };
                    }
                }
            }
            // 3. Park until the next push or tick. The pushed-epoch validation closes
            // the race between "queue looked empty" and the park itself.
            let generation = self.shared.pushed.current();
            if self.shared.queue_is_empty()
                && !self.shared.is_closed()
                && self.shared.pushed.validate(generation)
            {
                std::thread::park_timeout(self.tick);
            }
        }
    }
}

/// Handle to a running export pipeline: the hand-off queue plus the background
/// drainer thread. Owned by the session; create one with
/// [`SessionBuilder::stream_to`](crate::session::SessionBuilder::stream_to).
pub struct DeltaDrainer {
    shared: Arc<ExportShared>,
    worker: Mutex<Option<std::thread::JoinHandle<io::Result<()>>>>,
    /// Set once [`DeltaDrainer::finish`] completed; later profile reads take the
    /// plain snapshot path again.
    finished: AtomicBool,
    /// The first finish's outcome, replayed to later finish calls (io errors are not
    /// clonable; the kind and message are kept, the original error goes to the first
    /// caller intact).
    result: Mutex<Option<Result<ExportStats, (io::ErrorKind, String)>>>,
}

impl std::fmt::Debug for DeltaDrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaDrainer")
            .field("finished", &self.finished.load(Ordering::Relaxed))
            .field("stats", &self.shared.stats())
            .finish()
    }
}

impl DeltaDrainer {
    /// Spawns the background drainer over `collector`, streaming through `sink` into
    /// `out` under `policy`.
    pub(crate) fn spawn(
        collector: Arc<ObjectCentricCollector>,
        sink: Arc<dyn ProfileSink>,
        out: Box<dyn Write + Send>,
        policy: DrainPolicy,
    ) -> Self {
        let shared = Arc::new(ExportShared::new(policy));
        // The collector keeps a weak back-reference so its own profile reads route
        // epoch retirements into this stream instead of absorbing them silently
        // (weak: the drainer owns the collector, never the other way around).
        collector.attach_stream(Arc::downgrade(&shared));
        let worker = DrainWorker {
            shared: shared.clone(),
            collector,
            sink,
            out,
            tick: policy.tick,
            error: None,
        };
        /// Marks the worker dead on *any* exit — including unwinding out of a
        /// panicking sink — so producers waiting for queue room stop waiting and the
        /// panic surfaces at the join instead of hanging the session.
        struct AliveGuard(Arc<ExportShared>);
        impl Drop for AliveGuard {
            fn drop(&mut self) {
                self.0.worker_dead.store(true, Ordering::Release);
            }
        }
        let alive = AliveGuard(shared.clone());
        let handle = std::thread::Builder::new()
            .name("djxperf-delta-drainer".to_string())
            .spawn(move || {
                let _alive = alive;
                // Register the wake handle *before* the first pop, on this thread:
                // registering after spawn returns leaves a window in which a
                // producer's wake() finds no handle and no-ops, leaving the first
                // queued delta to wait out a full (possibly long) tick. A wake lost
                // before this store is harmless — its item is already queued, and
                // run()'s opening pop loop drains it.
                *worker.shared.drainer.lock() = Some(std::thread::current());
                worker.run()
            })
            .expect("spawning the export drainer thread");
        Self {
            shared,
            worker: Mutex::new(Some(handle)),
            finished: AtomicBool::new(false),
            result: Mutex::new(None),
        }
    }

    /// `true` while the stream accepts deltas (i.e. before [`DeltaDrainer::finish`]).
    pub(crate) fn is_running(&self) -> bool {
        !self.finished.load(Ordering::Acquire)
    }

    /// Routes one closed epoch of `collector` into the stream (see
    /// [`ExportShared::produce`]); a no-op once the stream closed.
    pub(crate) fn produce(&self, collector: &ObjectCentricCollector) {
        let _ = self.shared.produce(collector);
    }

    /// Live statistics of the stream.
    pub(crate) fn stats(&self) -> ExportStats {
        self.shared.stats()
    }

    /// Registers a live tap on the stream, atomically with its seed read: `seed`
    /// runs with the hand-off gate held and receives the fold of every delta drained
    /// so far (the collector's retired buffer at the current epoch counter), so the
    /// tap misses nothing and double-counts nothing. Returns `false` — registering
    /// nothing, never calling `seed` — once the stream has closed; the caller seeds
    /// from the terminal snapshot instead.
    pub(crate) fn attach_tap(
        &self,
        collector: &ObjectCentricCollector,
        seed: impl FnOnce(ProfileDelta) -> Weak<dyn DeltaTap>,
    ) -> bool {
        let _gate = self.shared.gate.lock_yielding();
        if self.shared.is_closed() {
            return false;
        }
        let tap = seed(collector.retired_delta());
        self.shared.taps.lock().push(tap);
        true
    }

    /// Ends the stream: drains the closing delta, pushes the terminal profile built
    /// by `assemble` (called on the post-drain retired profiles, under the hand-off
    /// gate), joins the worker and returns the accumulated statistics or the first
    /// sink/write error. Idempotent — later calls replay the first outcome.
    pub(crate) fn finish(
        &self,
        collector: &ObjectCentricCollector,
        assemble: impl FnOnce(Vec<crate::profile::ThreadProfile>) -> ObjectCentricProfile,
    ) -> io::Result<ExportStats> {
        let mut slot = self.result.lock();
        if let Some(previous) = &*slot {
            return previous.clone().map_err(|(kind, msg)| io::Error::new(kind, msg));
        }
        {
            let _gate = self.shared.gate.lock_yielding();
            let delta = collector.drain_delta();
            self.shared.epochs_drained.fetch_add(1, Ordering::Relaxed);
            if !delta.is_empty() {
                self.shared.tap_delta(&delta);
                self.shared.push_delta(delta);
            }
            let profile = assemble(collector.retired_profiles());
            self.shared.tap_finish(&profile);
            self.shared.push_finish(Box::new(profile));
            self.shared.closed.store(true, Ordering::Release);
        }
        self.shared.wake();
        let io_result = match self.worker.lock().take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("export drainer thread panicked"))),
            None => Ok(()),
        };
        self.finished.store(true, Ordering::Release);
        match io_result {
            Ok(()) => {
                let stats = self.shared.stats();
                *slot = Some(Ok(stats));
                Ok(stats)
            }
            Err(err) => {
                // Replays carry the kind and message; the first caller gets the
                // original error object (payload and source chain included).
                *slot = Some(Err((err.kind(), err.to_string())));
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileDelta, ThreadDelta, ThreadProfile};
    use djx_runtime::ThreadId;

    fn delta(epoch: u64, thread: u64, samples: u64) -> ProfileDelta {
        let mut profile = ThreadProfile::new(ThreadId(thread), "t");
        profile.samples = samples;
        ProfileDelta { epoch, threads: vec![ThreadDelta { seq: thread, profile }] }
    }

    #[test]
    fn policy_builder_round_trips() {
        let policy = DrainPolicy::new().capacity(3).block().tick(Duration::from_millis(1));
        assert_eq!(policy.capacity, 3);
        assert_eq!(policy.backpressure, Backpressure::Block);
        assert_eq!(policy.tick, Duration::from_millis(1));
        assert_eq!(DrainPolicy::default().backpressure, Backpressure::Coalesce);
        assert_eq!(policy.coalesce().backpressure, Backpressure::Coalesce);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = DrainPolicy::new().capacity(0);
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn zero_tick_rejected() {
        let _ = DrainPolicy::new().tick(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn struct_literal_zero_capacity_rejected_at_spawn() {
        // The fields are pub, so the builder asserts alone are bypassable.
        let _ = ExportShared::new(DrainPolicy { capacity: 0, ..DrainPolicy::default() });
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn struct_literal_zero_tick_rejected_at_spawn() {
        let _ = ExportShared::new(DrainPolicy { tick: Duration::ZERO, ..DrainPolicy::default() });
    }

    #[test]
    fn coalesce_merges_into_the_newest_queued_delta_when_full() {
        let shared = ExportShared::new(DrainPolicy::new().capacity(1).coalesce());
        shared.push_delta(delta(1, 1, 5));
        shared.push_delta(delta(2, 1, 7));
        shared.push_delta(delta(3, 2, 2));
        assert_eq!(shared.stats().coalesced, 2);
        let Some(ExportItem::Delta(folded)) = shared.pop() else {
            panic!("one coalesced delta expected");
        };
        assert_eq!(folded.epoch, 3, "coalescing keeps the latest epoch");
        assert_eq!(folded.total_samples(), 14, "coalescing loses no samples");
        assert_eq!(folded.threads.len(), 2);
        assert!(shared.pop().is_none());
    }

    #[test]
    fn block_waits_for_the_consumer() {
        let shared = Arc::new(ExportShared::new(DrainPolicy::new().capacity(1).block()));
        shared.push_delta(delta(1, 1, 1));
        let producer = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.push_delta(delta(2, 1, 1)))
        };
        // The producer can only finish once this thread pops.
        while shared.stats().blocked == 0 {
            std::thread::yield_now();
        }
        assert!(shared.pop().is_some());
        producer.join().unwrap();
        assert!(shared.pop().is_some(), "the blocked push landed after the pop");
        assert_eq!(shared.stats().blocked, 1);
    }

    #[test]
    fn closed_stream_drops_late_deltas() {
        let shared = ExportShared::new(DrainPolicy::new().capacity(2));
        shared.closed.store(true, Ordering::Release);
        shared.push_delta(delta(1, 1, 1));
        assert!(shared.pop().is_none(), "post-finish deltas are dropped");
    }

    #[test]
    fn shared_buffer_accumulates_writes() {
        let buffer = SharedBuffer::new();
        assert!(buffer.is_empty());
        let mut writer = buffer.clone();
        writer.write_all(b"hello ").unwrap();
        writer.write_all(b"world").unwrap();
        writer.flush().unwrap();
        assert_eq!(buffer.len(), 11);
        assert_eq!(buffer.contents(), b"hello world");
    }
}
