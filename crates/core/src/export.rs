//! Asynchronous, incremental profile export: a background drainer streaming
//! epoch-retired snapshot deltas through a [`ProfileSink`].
//!
//! The snapshot machinery of [`crate::session`] already partitions the collector's
//! state into **per-epoch deltas**: retiring a buffer epoch takes each thread slot's
//! open profile out in O(1) as one [`ProfileDelta`] and absorbs it into the session's
//! producer fold, the [`DeltaFold`](crate::profile::DeltaFold) every profile read
//! clones. Exporting by reading profiles would cost O(accumulated profile) per read.
//! `djxperf::export` turns the profiler from snapshot-pull into continuous-push: a
//! [`DeltaDrainer`] background thread streams each retired [`ProfileDelta`] through an
//! extended [`ProfileSink`] ([`ProfileSink::on_delta`] / [`ProfileSink::on_finish`])
//! as it is produced, so export cost scales with the delta — not with the whole
//! accumulated profile.
//!
//! # Pipeline
//!
//! ```text
//! sampling threads ──► active slots ─retire─► producer fold ─queue─► DeltaDrainer ──► sink
//!                      (hot path,             (+ watches,            (background      (on_delta /
//!                       untouched)             one lock)              thread)          on_finish)
//! ```
//!
//! Configure with [`SessionBuilder::stream_to`](crate::session::SessionBuilder::stream_to);
//! to ship the frames to another process instead of a local writer, hand the same
//! pipeline a socket-backed [`FleetSink`](crate::fleet::FleetSink) via
//! [`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet)
//! (see [`crate::fleet`] for the wire protocol).
//! The session's producer fold is the stream's one state. Its lock orders every
//! retirement, and one critical section under it takes the epoch, absorbs the
//! delta, feeds the watches of the session's
//! [`LiveFold`](crate::query::live::LiveFold) and queues the delta, so epochs are
//! strictly ordered on the wire. Retirements come from:
//!
//! * the drainer's own periodic tick ([`DrainPolicy::tick`]),
//! * [`Session::flush_export`](crate::session::Session::flush_export), and
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
//! **byte-identical** to the session's own
//! [`Session::object_profile`](crate::session::Session::object_profile), because that
//! profile *is* the producer fold of the same deltas. Deltas appear on the wire in
//! strictly increasing epoch order; empty epochs are skipped.
//!
//! # The hand-off rule
//!
//! The hand-off queue is bounded ([`DrainPolicy::capacity`]) and no push ever
//! waits. When the drainer falls behind, a full queue merges the new delta into its
//! newest queued delta ([`ProfileDelta::merge_from`], a keyed fold costing
//! O(accumulated + incoming) threads per merge — a long-backed-up queue never
//! degrades into quadratic rescans of the growing accumulator): nothing is lost, the
//! stream just carries coarser partitions, and the merge count is
//! [`ExportStats::coalesced`]. The capacity bounds deltas only: the terminal
//! [`FinishRecord`](crate::sink::FinishRecord) is always appended, so it may take one
//! slot past it. The drainer's tick is one more retirement — it takes the fold's
//! lock, closes an epoch the same way and queues behind whatever is already queued.
//! Only retirements and the drainer ever touch the queue; the sampling hot path
//! never does, and it never takes the fold's lock either.
//!
//! A slow or hung **sink** is a different failure than a slow drainer: the drainer
//! thread itself is the one stuck in `on_delta`. Retirements still never wait: the
//! queue fills, then merges. Nothing that holds the fold's lock waits on the drainer
//! or a sink, so a [`FleetSink`](crate::fleet::FleetSink) may read the fold for a
//! re-base from the drainer thread. Local writers are fast, but a socket-backed
//! fleet sink caps that stall with an ack deadline and fails the frame back into its
//! own bounded, spillable buffer — the drainer's `on_delta` call returns and the
//! queue keeps draining even when the aggregator is down for hours (see the failure
//! model in [`crate::fleet`]).
//!
//! # Shutdown
//!
//! [`Session::finish_export`](crate::session::Session::finish_export) closes the
//! stream: under the fold's lock a final delta is retired, the fold is closed with
//! the stream's [`FinishRecord`](crate::sink::FinishRecord) trailer (run
//! configuration, agent counters, total-sample checksum) — the one record that the
//! stream ended, which closes every watch and stops later retirements from reaching
//! the queue — and the trailer is queued. The drainer writes it through
//! [`ProfileSink::on_finish`] and flushes the writer, and the background thread
//! joins, returning accumulated [`ExportStats`] (or the first sink/write error).
//! Dropping the last reference to a streaming session finishes the export as well
//! (drain-on-drop), so no delta is lost even when the caller forgets the explicit
//! finish.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::agent::AllocationAgent;
use crate::profile::ProfileDelta;
use crate::session::ObjectCentricCollector;
use crate::sink::{LogRecord, ProfileSink};
use crate::sync::{Epoch, SpinLock};

/// Configuration of the background drain pipeline. Set it through its builder
/// methods, which validate every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// Maximum number of deltas queued between producers and the drainer.
    capacity: usize,
    /// How often the drainer closes an epoch on its own when nobody snapshots.
    tick: Duration,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        Self { capacity: 8, tick: Duration::from_millis(5) }
    }
}

impl DrainPolicy {
    /// The default policy: capacity 8, 5 ms tick.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the queue capacity: how many deltas may wait for the drainer before
    /// new ones are merged into the newest queued delta.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "drain queue capacity must be non-zero");
        self.capacity = capacity;
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
    /// Deltas merged into the newest queued delta because the queue was full.
    pub coalesced: u64,
    /// Pushes that had to wait for the drainer. Always 0 — no push waits; kept
    /// only because perfbench still reports it as `export.blocked`.
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

/// What a fleet sink re-sends when its aggregator lost the producer's state: the
/// session's producer fold as one delta at base 0, read under the fold's lock, so it
/// is exactly the fold of every delta queued so far. Weak: `None` once the session
/// and its drainer are gone.
#[derive(Debug)]
pub(crate) struct RebaseSource(pub(crate) Weak<ObjectCentricCollector>);

impl RebaseSource {
    pub(crate) fn delta(&self) -> Option<ProfileDelta> {
        Some(self.0.upgrade()?.rebase_delta())
    }
}

/// The hand-off queue between the session's retirements and the drainer.
pub(crate) struct ExportShared {
    /// The bounded delta queue.
    queue: SpinLock<VecDeque<LogRecord>>,
    capacity: usize,
    /// Bumped on every push; the drainer validates its recorded generation before
    /// parking so a push between "queue looked empty" and "park" is never slept over.
    pushed: Epoch,
    /// The drainer's thread handle, for wakeups.
    drainer: SpinLock<Option<std::thread::Thread>>,
    // Stream statistics (see [`ExportStats`]).
    deltas_streamed: AtomicU64,
    samples_streamed: AtomicU64,
    epochs_drained: AtomicU64,
    coalesced: AtomicU64,
}

impl ExportShared {
    pub(crate) fn new(policy: DrainPolicy) -> Self {
        Self {
            queue: SpinLock::new(VecDeque::with_capacity(policy.capacity)),
            capacity: policy.capacity,
            pushed: Epoch::new(),
            drainer: SpinLock::new(None),
            deltas_streamed: AtomicU64::new(0),
            samples_streamed: AtomicU64::new(0),
            epochs_drained: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> ExportStats {
        ExportStats {
            deltas_streamed: self.deltas_streamed.load(Ordering::Relaxed),
            samples_streamed: self.samples_streamed.load(Ordering::Relaxed),
            epochs_drained: self.epochs_drained.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            blocked: 0,
        }
    }

    fn wake(&self) {
        if let Some(thread) = &*self.drainer.lock() {
            thread.unpark();
        }
    }

    // Queue accesses acquire yielding throughout: the queue is only ever touched
    // from normal thread context (retirements, the drainer — never the sampling hot
    // path), and a retirement merges whole ThreadProfiles under the lock when the
    // queue is full, which a pure spin on the other side would burn a core waiting
    // out.

    fn pop(&self) -> Option<LogRecord> {
        self.queue.lock_yielding().pop_front()
    }

    fn queue_is_empty(&self) -> bool {
        self.queue.lock_yielding().is_empty()
    }

    /// Queues an item and wakes the drainer.
    pub(crate) fn push(&self, item: LogRecord) {
        self.queue.lock_yielding().push_back(item);
        self.pushed.bump();
        self.wake();
    }

    /// Hands one retired epoch to the stream: counts it, and queues a non-empty
    /// delta — merged into the newest queued delta when the queue is full. Called
    /// under the producer fold's lock, which orders the epochs.
    pub(crate) fn push_epoch(&self, delta: ProfileDelta) {
        self.epochs_drained.fetch_add(1, Ordering::Relaxed);
        if delta.is_empty() {
            return;
        }
        {
            let mut queue = self.queue.lock_yielding();
            if queue.len() >= self.capacity {
                if let Some(LogRecord::Delta(back)) = queue.back_mut() {
                    back.merge_from(&delta);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        self.push(LogRecord::Delta(delta));
    }
}

/// The background worker: pops queued deltas, retires an epoch on its tick, and
/// writes everything through the sink in epoch order.
struct DrainWorker {
    shared: Arc<ExportShared>,
    collector: Arc<ObjectCentricCollector>,
    sink: Arc<dyn ProfileSink>,
    out: Box<dyn Write + Send>,
    tick: Duration,
    /// First sink/write error; once set, further items are consumed and discarded so
    /// the stream still runs to its terminal item.
    error: Option<io::Error>,
}

impl DrainWorker {
    /// Writes one popped item; returns `true` when the item was the terminal flush.
    fn emit(&mut self, item: LogRecord) -> bool {
        match item {
            LogRecord::Delta(delta) => {
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
            LogRecord::Finish(record) => {
                if self.error.is_none() {
                    if let Err(err) =
                        self.sink.on_finish(&record, &mut self.out).and_then(|()| self.out.flush())
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
        'stream: loop {
            // 1. Write everything queued, in FIFO (= epoch) order, up to the terminal
            // item: the finish queues it last, under the fold's lock, after which no
            // retirement queues anything.
            while let Some(item) = self.shared.pop() {
                if self.emit(item) {
                    break 'stream;
                }
            }
            // 2. Tick self-drain — only when the tick actually elapsed, so producer
            // pushes (which also wake this thread) do not inflate the epoch cadence
            // beyond the documented DrainPolicy::tick. The tick is one more
            // retirement: its delta queues behind everything queued before it, and
            // the next pass writes it.
            if last_drain.elapsed() >= self.tick {
                self.collector.flush();
                last_drain = Instant::now();
            }
            // 3. Park until the next push or tick. The pushed-epoch validation closes
            // the race between "queue looked empty" and the park itself.
            let generation = self.shared.pushed.current();
            if self.shared.queue_is_empty() && self.shared.pushed.validate(generation) {
                std::thread::park_timeout(self.tick);
            }
        }
        match self.error.take() {
            Some(err) => Err(err),
            None => self.out.flush(),
        }
    }
}

/// Handle to a running export pipeline: the hand-off queue plus the background
/// drainer thread. Owned by the session; create one with
/// [`SessionBuilder::stream_to`](crate::session::SessionBuilder::stream_to).
pub struct DeltaDrainer {
    shared: Arc<ExportShared>,
    collector: Arc<ObjectCentricCollector>,
    worker: Mutex<Option<std::thread::JoinHandle<io::Result<()>>>>,
    /// The first finish's outcome, replayed to later finish calls (io errors are not
    /// clonable; the kind and message are kept, the original error goes to the first
    /// caller intact).
    result: Mutex<Option<Result<ExportStats, (io::ErrorKind, String)>>>,
}

impl std::fmt::Debug for DeltaDrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaDrainer").field("stats", &self.shared.stats()).finish()
    }
}

impl DeltaDrainer {
    /// Spawns the background drainer of `shared`, the queue `collector` retires
    /// into, streaming through `sink` into `out` on the tick of `policy`.
    pub(crate) fn spawn(
        shared: Arc<ExportShared>,
        collector: Arc<ObjectCentricCollector>,
        sink: Arc<dyn ProfileSink>,
        out: Box<dyn Write + Send>,
        policy: DrainPolicy,
    ) -> Self {
        let worker = DrainWorker {
            shared: shared.clone(),
            collector: collector.clone(),
            sink,
            out,
            tick: policy.tick,
            error: None,
        };
        let handle = std::thread::Builder::new()
            .name("djxperf-delta-drainer".to_string())
            .spawn(move || {
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
        Self { shared, collector, worker: Mutex::new(Some(handle)), result: Mutex::new(None) }
    }

    /// Live statistics of the stream.
    pub(crate) fn stats(&self) -> ExportStats {
        self.shared.stats()
    }

    /// Ends the stream: the collector retires the closing epoch, closes its fold
    /// with the terminal [`FinishRecord`] and queues that record; then the worker
    /// joins — after the fold's lock is released, since a fleet re-base reads the
    /// fold from the drainer thread. Returns the accumulated statistics or the first
    /// sink/write error. Idempotent — later calls replay the first outcome.
    pub(crate) fn finish(&self, allocation: &AllocationAgent) -> io::Result<ExportStats> {
        let mut slot = self.result.lock();
        if let Some(previous) = &*slot {
            return previous.clone().map_err(|(kind, msg)| io::Error::new(kind, msg));
        }
        self.collector.finish_stream(allocation);
        let io_result = match self.worker.lock().take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("export drainer thread panicked"))),
            None => Ok(()),
        };
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
    use crate::profile::{ThreadDelta, ThreadProfile};
    use crate::sink::FinishRecord;
    use djx_runtime::ThreadId;

    fn delta(epoch: u64, thread: u64, samples: u64) -> ProfileDelta {
        let mut profile = ThreadProfile::new(ThreadId(thread), "t");
        profile.samples = samples;
        ProfileDelta {
            epoch,
            threads: vec![ThreadDelta { seq: thread, profile }],
            ..Default::default()
        }
    }

    #[test]
    fn policy_builder_round_trips() {
        let policy = DrainPolicy::new().capacity(3).tick(Duration::from_millis(1));
        assert_eq!(policy.capacity, 3);
        assert_eq!(policy.tick, Duration::from_millis(1));
        let default = DrainPolicy::default();
        assert_eq!((default.capacity, default.tick), (8, Duration::from_millis(5)));
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
    fn coalesce_merges_into_the_newest_queued_delta_when_full() {
        let shared = ExportShared::new(DrainPolicy::new().capacity(1));
        shared.push_epoch(delta(1, 1, 5));
        shared.push_epoch(delta(2, 1, 7));
        shared.push_epoch(delta(3, 2, 2));
        assert_eq!(shared.stats().coalesced, 2);
        let Some(LogRecord::Delta(folded)) = shared.pop() else {
            panic!("one coalesced delta expected");
        };
        assert_eq!(folded.epoch, 3, "coalescing keeps the latest epoch");
        assert_eq!(folded.total_samples(), 14, "coalescing loses no samples");
        assert_eq!(folded.threads.len(), 2);
        assert!(shared.pop().is_none());
    }

    #[test]
    fn the_finish_queues_past_a_full_queue() {
        let shared = ExportShared::new(DrainPolicy::new().capacity(1));
        shared.push_epoch(delta(1, 1, 5));
        shared.push(LogRecord::Finish(FinishRecord {
            event: djx_pmu::PmuEvent::DEFAULT,
            period: 1,
            size_filter: 0,
            allocation_stats: Default::default(),
            total_samples: 5,
        }));
        assert!(matches!(shared.pop(), Some(LogRecord::Delta(_))));
        assert!(matches!(shared.pop(), Some(LogRecord::Finish(_))), "the finish is never merged");
        assert_eq!(shared.stats().blocked, 0);
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
