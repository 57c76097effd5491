//! Asynchronous, incremental profile export: a background drainer streaming
//! epoch-retired snapshot deltas through a [`ProfileSink`].
//!
//! The snapshot machinery of [`crate::session`] already partitions the collector's
//! state into **per-epoch deltas**: retiring a buffer epoch takes each thread slot's
//! open profile out in O(1) as one [`ProfileDelta`] and absorbs it into the session's
//! producer fold, the [`DeltaFold`](crate::profile::DeltaFold) every profile read
//! clones. Exporting by reading profiles would cost O(accumulated profile) per read.
//! `djxperf::export` turns the profiler from snapshot-pull into continuous-push: a
//! background drainer thread streams each retired [`ProfileDelta`] through an
//! extended [`ProfileSink`] ([`ProfileSink::on_delta`] / [`ProfileSink::on_finish`])
//! as it is produced, so export cost scales with the delta — not with the whole
//! accumulated profile.
//!
//! # Pipeline
//!
//! ```text
//! sampling threads ──► active slots ─retire─► producer fold ─take─► drainer ──► sink
//!                      (hot path,             (+ watches,           (background  (on_delta /
//!                       untouched)             pending delta,        thread)      on_finish)
//!                                              one lock)
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
//! [`LiveFold`](crate::query::live::LiveFold) and merges the delta into the one
//! pending delta the drainer takes next, so epochs are strictly ordered on the wire.
//! Retirements come from:
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
//! One delta waits between the retirements and the drainer, beside the producer fold
//! under its lock, and no retirement ever waits. A retirement that finds a delta
//! still pending merges its own into it ([`ProfileDelta::merge_from`], a keyed fold
//! costing O(pending + incoming) threads per merge — a long-stalled drainer never
//! degrades into quadratic rescans of the growing pending delta): nothing is lost,
//! the stream just carries coarser partitions, and the merge count is
//! [`ExportStats::coalesced`]. The drainer takes the pending delta and reads whether
//! the fold has finished in one short critical section, then writes with the lock
//! released; the terminal [`FinishRecord`] is the fold's own, so nothing terminal
//! waits in the slot. Every retirement that fills the slot unparks the drainer, and
//! an unpark that lands before the drainer parks makes that park return at once, so
//! no delta waits out a tick. The drainer's tick is one more retirement — it takes
//! the fold's lock and closes an epoch the same way. The sampling hot path never
//! touches the slot, and it never takes the fold's lock.
//!
//! A slow or hung **sink** is a different failure than a slow drainer: the drainer
//! thread itself is the one stuck in `on_delta`. Retirements still never wait: they
//! merge into the pending delta. Nothing that holds the fold's lock waits on the
//! drainer or a sink, so a [`FleetSink`](crate::fleet::FleetSink) may read the fold
//! for a re-base from the drainer thread. Local writers are fast, but a socket-backed
//! fleet sink caps that stall with an ack deadline and fails the frame back into its
//! own bounded, spillable buffer — the drainer's `on_delta` call returns and the
//! drainer keeps taking deltas even when the aggregator is down for hours (see the
//! failure model in [`crate::fleet`]).
//!
//! # Shutdown
//!
//! [`Session::finish_export`](crate::session::Session::finish_export) closes the
//! stream: under the fold's lock a final delta is retired into the pending one and
//! the fold is closed with the stream's [`FinishRecord`] trailer (run
//! configuration, agent counters, total-sample checksum) — the one record that the
//! stream ended, which closes every watch and stops later
//! retirements from reaching the stream. The drainer's next take returns the last
//! pending delta together with that record; it writes both, the record through
//! [`ProfileSink::on_finish`], flushes the writer, and the background thread joins,
//! returning accumulated [`ExportStats`] (or the first sink/write error).
//! Dropping the last reference to a streaming session finishes the export as well
//! (drain-on-drop), so no delta is lost even when the caller forgets the explicit
//! finish.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::agent::AllocationAgent;
use crate::profile::ProfileDelta;
use crate::query::live::LiveState;
use crate::session::ObjectCentricCollector;
use crate::sink::{FinishRecord, ProfileSink};
use crate::sync::SpinLock;

/// Configuration of the background drain pipeline. Set it through its builder
/// method, which validates the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// How often the drainer closes an epoch on its own when nobody snapshots.
    tick: Duration,
}

impl Default for DrainPolicy {
    fn default() -> Self {
        Self { tick: Duration::from_millis(5) }
    }
}

impl DrainPolicy {
    /// The default policy: a 5 ms tick.
    pub fn new() -> Self {
        Self::default()
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
    /// Deltas merged into the pending delta because the drainer had not taken it yet.
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
/// is exactly the fold of every delta handed to the stream so far. Weak: `None` once
/// the session and its drainer are gone.
#[derive(Debug)]
pub(crate) struct RebaseSource(pub(crate) Weak<ObjectCentricCollector>);

impl RebaseSource {
    pub(crate) fn delta(&self) -> Option<ProfileDelta> {
        Some(self.0.upgrade()?.rebase_delta())
    }
}

/// The stream's counters and the drainer's wake handle, shared by the session's
/// retirements and the drainer. The pending delta itself waits beside the producer
/// fold, under its lock ([`LiveState`]).
#[derive(Default)]
pub(crate) struct ExportShared {
    /// The drainer's thread handle, for wakeups.
    drainer: SpinLock<Option<std::thread::Thread>>,
    // Stream statistics (see [`ExportStats`]).
    deltas_streamed: AtomicU64,
    samples_streamed: AtomicU64,
    epochs_drained: AtomicU64,
    coalesced: AtomicU64,
}

impl ExportShared {
    fn stats(&self) -> ExportStats {
        ExportStats {
            deltas_streamed: self.deltas_streamed.load(Ordering::Relaxed),
            samples_streamed: self.samples_streamed.load(Ordering::Relaxed),
            epochs_drained: self.epochs_drained.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            blocked: 0,
        }
    }

    /// Wakes the drainer. An unpark that lands before the drainer parks makes that
    /// park return at once, so a wake is never lost between its take and its park.
    pub(crate) fn wake(&self) {
        if let Some(thread) = &*self.drainer.lock() {
            thread.unpark();
        }
    }

    /// Hands one retired epoch to the stream: counts it, and a non-empty delta is
    /// absorbed into the fold — feeding its watches — and merged into the pending
    /// delta. Called under the producer fold's lock, which orders the epochs.
    /// Returns `true` when a delta was handed on; the caller then wakes the drainer
    /// once the lock is released, so the drainer never wakes into a lock its waker
    /// still holds.
    pub(crate) fn hand_off(&self, st: &mut LiveState, delta: ProfileDelta) -> bool {
        self.epochs_drained.fetch_add(1, Ordering::Relaxed);
        if delta.is_empty() {
            return false;
        }
        st.absorb_delta(&delta).expect("retirements are ordered under the fold lock");
        if st.hold(delta) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        true
    }
}

/// The background worker: takes the pending delta, retires an epoch on its tick, and
/// writes everything through the sink in epoch order.
struct DrainWorker {
    shared: Arc<ExportShared>,
    collector: Arc<ObjectCentricCollector>,
    sink: Arc<dyn ProfileSink>,
    out: Box<dyn Write + Send>,
    tick: Duration,
    /// First sink/write error; once set, later deltas are taken and discarded so the
    /// stream still runs to its finish.
    error: Option<io::Error>,
}

impl DrainWorker {
    /// Writes one taken delta.
    fn emit_delta(&mut self, delta: &ProfileDelta) {
        if self.error.is_some() {
            return;
        }
        // Flush per delta: the stream advertises a live feed, and a buffered writer
        // (BufWriter over a file or socket) would otherwise deliver nothing until the
        // terminal flush — and lose every buffered delta if the process dies before
        // it.
        match self
            .sink
            .on_delta(delta.epoch, delta, &mut self.out)
            .and_then(|()| self.out.flush())
        {
            Ok(()) => {
                self.shared.deltas_streamed.fetch_add(1, Ordering::Relaxed);
                self.shared.samples_streamed.fetch_add(delta.total_samples(), Ordering::Relaxed);
            }
            Err(err) => self.error = Some(err),
        }
    }

    /// Writes the stream's terminal record.
    fn emit_finish(&mut self, record: &FinishRecord) {
        if self.error.is_none() {
            if let Err(err) =
                self.sink.on_finish(record, &mut self.out).and_then(|()| self.out.flush())
            {
                self.error = Some(err);
            }
        }
    }

    fn run(mut self) -> io::Result<()> {
        let mut last_drain = Instant::now();
        loop {
            // 1. Take the pending delta and the finish state in one short critical
            // section, then write with the fold's lock released. The finish retires
            // its closing epoch into the pending delta before it closes the fold, so
            // the take that sees the finish holds the last delta.
            let (delta, finish) = self.collector.take_pending();
            if let Some(delta) = delta {
                self.emit_delta(&delta);
            }
            if let Some(record) = finish {
                self.emit_finish(&record);
                break;
            }
            // 2. Tick self-drain — only when the tick actually elapsed, so retirements
            // (which also wake this thread) do not inflate the epoch cadence beyond
            // the documented DrainPolicy::tick. Its delta lands in the pending slot,
            // and the wake it sends makes the park below return at once.
            if last_drain.elapsed() >= self.tick {
                self.collector.flush();
                last_drain = Instant::now();
            }
            // 3. Park until the next retirement or tick. Every retirement since the
            // take woke this thread, and that unpark makes the park return at once.
            std::thread::park_timeout(self.tick);
        }
        match self.error.take() {
            Some(err) => Err(err),
            None => self.out.flush(),
        }
    }
}

/// Handle to a running export pipeline: the stream's counters plus the background
/// drainer thread. Owned by the session; created by
/// [`SessionBuilder::stream_to`](crate::session::SessionBuilder::stream_to).
pub(crate) struct DeltaDrainer {
    shared: Arc<ExportShared>,
    collector: Arc<ObjectCentricCollector>,
    worker: Mutex<Option<std::thread::JoinHandle<io::Result<()>>>>,
    /// The first finish's outcome, replayed to later finish calls (io errors are not
    /// clonable; the kind and message are kept, the original error goes to the first
    /// caller intact).
    result: Mutex<Option<Result<ExportStats, (io::ErrorKind, String)>>>,
}

impl DeltaDrainer {
    /// Spawns the background drainer of `shared`, taking what `collector` retires
    /// and streaming it through `sink` into `out` on the tick of `policy`.
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
                // Register the wake handle *before* the first take, on this thread:
                // registering after spawn returns leaves a window in which a
                // retirement's wake() finds no handle and no-ops, leaving the first
                // pending delta to wait out a full (possibly long) tick. A wake lost
                // before this store is harmless — its delta is already pending, and
                // run()'s opening take finds it.
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

    /// Ends the stream: the collector retires the closing epoch and closes its fold
    /// with the terminal [`FinishRecord`]; then the worker joins — after the fold's
    /// lock is released, since a fleet re-base reads the fold from the drainer
    /// thread. Returns the accumulated statistics or the first sink/write error.
    /// Idempotent — later calls replay the first outcome.
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
    use crate::query::live::LiveFold;
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
        let policy = DrainPolicy::new().tick(Duration::from_millis(1));
        assert_eq!(policy.tick, Duration::from_millis(1));
        assert_eq!(DrainPolicy::default().tick, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn zero_tick_rejected() {
        let _ = DrainPolicy::new().tick(Duration::ZERO);
    }

    #[test]
    fn coalesce_merges_into_the_pending_delta() {
        let shared = ExportShared::default();
        let fold = LiveFold::producer(djx_pmu::PmuEvent::DEFAULT, 1, 0);
        let mut st = fold.lock();
        assert!(shared.hand_off(&mut st, delta(1, 1, 5)));
        assert!(shared.hand_off(&mut st, delta(2, 1, 7)));
        assert!(shared.hand_off(&mut st, delta(3, 2, 2)));
        assert!(
            !shared.hand_off(&mut st, ProfileDelta::empty(4)),
            "an empty epoch hands nothing on"
        );
        let stats = shared.stats();
        assert_eq!((stats.epochs_drained, stats.coalesced), (4, 2));
        let (Some(folded), None) = st.take_pending() else {
            panic!("one coalesced delta pending, the stream open");
        };
        assert_eq!(folded.epoch, 3, "coalescing keeps the latest non-empty epoch");
        assert_eq!(folded.total_samples(), 14, "coalescing loses no samples");
        assert_eq!(folded.threads.len(), 2);
        assert_eq!(st.fold().total_samples(), 14, "the fold absorbed every delta");
        assert!(st.take_pending().0.is_none(), "the take empties the slot");
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
