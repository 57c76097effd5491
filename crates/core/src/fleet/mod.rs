//! Fleet profiling: a socket transport for epoch deltas plus an aggregator daemon
//! that serves the [`Query`] API over N producer processes.
//!
//! DJXPerf profiles one process; the production-scale deployment profiles fleets.
//! This module crosses the process boundary with the pieces the in-process pipeline
//! already guarantees: the export drainer ([`crate::export`]) retires epoch deltas,
//! the binary frame codec ([`crate::wire`]) frames them replayably, and
//! [`DeltaFold`](crate::profile::DeltaFold) folds them back incrementally. Three parts:
//!
//! * [`FleetSink`] — a [`ProfileSink`] that ships each epoch frame over a TCP or
//!   Unix socket instead of a file. Plug it into
//!   [`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet)
//!   and the profiled process needs no other change.
//! * [`FleetAggregator`] — the daemon: accepts producer connections, keeps one
//!   running fold per producer (incremental — history is never re-read), exposes
//!   the merged fleet as a [`ProfileSource`] ([`FleetAggregator::view`]), and
//!   answers [`Query`] requests, in process and over the same wire, by evaluating
//!   straight from the folds ([`FleetAggregator::query`]).
//! * [`FleetClient`] — sends queries/status requests to an aggregator and returns
//!   the rendered results.
//!
//! Every protocol decision — handshake, resume point, trim, backoff, duplicate
//! drop, log-before-ack, finish, re-base — is made by two state machines with no
//! socket, file, thread or clock (`protocol`); the rest of the module drives them.
//!
//! # Wire protocol (`djxperf-fleet`, version 3)
//!
//! A fleet connection is one stream of [`crate::wire`] frames in each direction,
//! read by the one frame parser with its 16 MiB payload cap and FNV-1a checksum.
//! **Epoch frames** (kinds `0x01`/`0x02`) are exactly the frames of a
//! [`BinaryChunkedSink`] log, so one parser serves log files, sockets and the
//! write-ahead log. **Control records** are frames of their own kinds; their
//! payload layouts are specified in the [`crate::wire`] module docs. Anything
//! that is not a frame — a version-2 JSON control line, a corrupt frame — gets an
//! error frame and a close.
//!
//! | direction | frame | kind | content |
//! |---|---|---|---|
//! | producer → aggregator | hello | `0x03` | protocol version (`3`), producer name, event, period, size filter, and the producer's spilled-frame / dropped-epoch / backoff-ms counters |
//! | producer → aggregator | delta | `0x01` | a [`crate::wire`] delta frame |
//! | producer → aggregator | finish | `0x02` | the [`crate::wire`] finish frame (configuration, agent counters, `total_samples` checksum) |
//! | aggregator → producer | ack | `0x04` | the fold's last epoch, after the hello and after every delta; the final flag is set only on the ack of the finish |
//! | aggregator → any peer | error | `0x05` | a message, followed by a close: a hello of any other version, an epoch frame before the hello, a corrupt frame, a refused finish. A whole query frame whose payload is refused (a filter list over [`wire::MAX_QUERY_FILTER_LEN`]) gets the message without the close |
//! | client → aggregator | query | `0x06` | a serialized [`Query`] |
//! | client → aggregator | status request | `0x07` | empty |
//! | aggregator → client | result | `0x08` | the [`QueryResult`] text and JSON renderings — byte-identical to a local evaluation |
//! | aggregator → client | status | `0x09` | one [`ProducerStatus`] row per producer |
//!
//! # Acknowledgement, resume and truncation
//!
//! Every frame is acknowledged synchronously with the fold's last epoch. The hello
//! acknowledgement tells a reconnecting producer where to resume: the sink trims
//! its buffer to frames **after** that epoch and re-sends the rest, so a lost
//! connection or acknowledgement backfills without loss, and an epoch the fold has
//! seen is dropped and re-acknowledged ([`ProducerStatus::duplicates`]) — never
//! folded twice. Deltas are self-describing — each carries its allocation counts
//! and the sites interned since the previous one — so a partial fold answers every
//! query axis at every epoch, and a delta whose sites do not join the fold's table
//! is refused ([`crate::profile::FoldError::SiteGap`]). The finish frame's
//! `total_samples` checksum must match the fold
//! ([`crate::profile::FoldError::ChecksumMismatch`]), and a producer that
//! disconnects without a finish stays queryable but flagged
//! ([`ProducerStatus::truncated`], [`FleetProducer::truncated`]): loss is always
//! visible, end to end. Choosing a deployment (in-process / log replay / fleet
//! daemon) is covered in the README's "Fleet profiling" section.
//!
//! # Durability: the write-ahead log
//!
//! An aggregator built with [`FleetAggregatorBuilder::wal`] appends every
//! **accepted** epoch frame to a per-producer write-ahead log *before* sending the
//! acknowledgement, so an acknowledged frame is always on disk. The WAL body is
//! the received frame bytes, appended verbatim — never decoded and re-encoded:
//!
//! ```text
//! <one header line>\n             djxperf-wal v4 producer=NAME event=E period=P size_filter=S
//! <binary delta frame>            exactly crate::wire's delta frame (magic DF 4A 58 42)
//! <binary delta frame>            …one per accepted epoch, in fold order…
//! <binary finish frame>           the finish frame as received, if the run finished
//! ```
//!
//! The header line uses the text rendering's `key=value` fields and escaping, so
//! any producer name fits on the one line. [`FleetAggregator::recover`] replays
//! every log through ingest's own rules, cuts a torn tail after a mid-append crash
//! (any frame the fold refuses ends replay), and returns a builder whose aggregator
//! resumes where the old one died: reconnecting producers learn the recovered
//! fold's last epoch from the hello acknowledgement and re-send what is missing.
//! Durability against an OS or machine crash (not just a process crash) is
//! governed by the [`FsyncPolicy`] knob.
//!
//! # Failure model
//!
//! Producer crash → partial fold stays queryable, flagged truncated. Aggregator
//! crash → restart with [`FleetAggregator::recover`]; producers buffer (bounded by
//! [`FleetSinkBuilder::buffer_budget_bytes`], spilling to disk under the default
//! [`OverflowPolicy::SpillThenBlock`]), reconnect under capped jittered backoff
//! ([`BackoffPolicy`]), and backfill losslessly. An aggregator that lost its state
//! (no WAL, or the WAL gone) acknowledges a hello below what the producer already
//! had acknowledged; the producer then re-bases ([`FleetSinkStats::rebases`]): one
//! delta of its whole stream so far, the session's producer fold, replaces its
//! backlog, and the stream heals without loss — epochs dropped before it included. With no session left to re-base from, the
//! backlog is given up as declared dropped epochs instead of being retried forever.
//! Only a spill file that fails or fills holds the export drainer, and even then
//! no snapshot or flush waits: the deltas retired meanwhile merge into the one
//! pending delta. A hung peer trips the ack deadline
//! ([`FleetSinkBuilder::ack_deadline`]): the frame fails back into the buffer and
//! is re-sent after reconnect. Losses chosen via
//! [`OverflowPolicy::DropOldestEpochsFlaggedLossy`] are counted
//! ([`ProducerStatus::dropped_epochs`]) and flag the producer truncated. A
//! deterministic simulator drives the protocol's state machines through hundreds
//! of seeded fault schedules — frames dropped, corrupted and delayed, connections
//! severed and hung, the aggregator crashed with its WAL kept, torn or lost — and
//! checks after each that every producer's fleet fold equals a cold fold of what
//! it generated; the [`FaultPlan`] harness injects faults at exact frame ordinals
//! into the socket drivers. The README's "Failure model" section tabulates
//! failure × guarantee.

mod protocol;
mod store;
mod transport;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use djx_pmu::PmuEvent;

use crate::export::RebaseSource;
use crate::profile::{ObjectCentricProfile, ProfileDelta};
use crate::query::{GroupState, ProfileSource, Query, QueryError, QueryResult};
use crate::sink::{FinishRecord, LogRecord, ProfileSink};
use crate::wire::{self, BinaryChunkedSink, Control, Hello, WireRecord};
use protocol::{
    protocol_error, AggregatorCore, LinkStep, PendingBuffer, PendingFrame, ProducerLink, Verdict,
};
use store::{recover_wal_file, SpillFile, Wal};
use transport::{send, write_faulted, Conn, Target, WireListener, WireStream};

/// Current version of the fleet wire protocol: version 3 carries every record —
/// epoch frames and control records alike — as a binary [`crate::wire`] frame.
pub(crate) const FLEET_VERSION: u64 = 3;

/// Default acknowledgement deadline ([`FleetSinkBuilder::ack_deadline`]): a peer
/// that accepts frames but never acknowledges fails the frame back into the
/// buffer after this long instead of wedging the export drainer.
const DEFAULT_ACK_DEADLINE: Duration = Duration::from_secs(5);

/// Default total deadline for delivering the terminal finish frame
/// ([`FleetSinkBuilder::finish_deadline`]).
const DEFAULT_FINISH_DEADLINE: Duration = Duration::from_secs(5);

/// Default in-memory budget for unacknowledged frames
/// ([`FleetSinkBuilder::buffer_budget_bytes`]).
const DEFAULT_BUFFER_BUDGET: usize = 16 * 1024 * 1024;

// Failure-handling policy: backoff, overflow, fsync, fault injection

/// Capped exponential reconnect backoff with **deterministic** jitter.
///
/// Attempt `n` sleeps a uniformly jittered duration in `[cap/2, cap]` where
/// `cap = min(initial · 2ⁿ, max)`. The jitter stream is a seeded xorshift PRNG, so
/// a given seed replays the exact same delay sequence — tests schedule around it,
/// and two producers with different seeds never thundering-herd a restarted
/// aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt cap (default 50 ms).
    pub initial: Duration,
    /// Ceiling for the exponential growth (default 2 s).
    pub max: Duration,
    /// Jitter PRNG seed. Equal seeds replay equal delay sequences.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(50),
            max: Duration::from_secs(2),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl BackoffPolicy {
    /// The default policy (50 ms doubling to 2 s).
    pub fn new() -> BackoffPolicy {
        BackoffPolicy::default()
    }

    /// Sets the first-attempt cap.
    #[must_use]
    pub fn initial(mut self, initial: Duration) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the growth ceiling.
    #[must_use]
    pub fn max(mut self, max: Duration) -> Self {
        self.max = max;
        self
    }

    /// Seeds the jitter PRNG (deterministic delays for tests).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What happens when a producer's unacknowledged-frame buffer exceeds its byte
/// budget ([`FleetSinkBuilder::buffer_budget_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Spill overflowing frames to a temporary file of binary wire frames and
    /// backfill from it once the buffer drains. Only when the spill file cannot
    /// be written, or would outgrow its 1 GiB budget, does the caller (the export
    /// drainer) block until the aggregator drains the buffer; the deltas retired
    /// meanwhile merge into the one pending delta (see [`crate::export`]). A
    /// day-long outage costs disk, not RSS. The default.
    #[default]
    SpillThenBlock,
    /// Drop the **oldest** buffered epochs to make room and count them in
    /// [`FleetSinkStats::dropped_epochs`] — only epochs that define no allocation
    /// sites, since the fold refuses every delta after a site gap. The drop count
    /// travels with the next hello, so the aggregator flags the producer truncated
    /// ([`ProducerStatus::dropped_epochs`]) and accepts the lossy finish without
    /// its (now unmeetable) sample checksum. Loss is chosen, bounded and visible
    /// — never silent.
    DropOldestEpochsFlaggedLossy,
}

/// When the aggregator's write-ahead log flushes to stable storage.
///
/// The WAL is always **written** before a frame is acknowledged; fsync policy
/// decides what survives an OS or machine crash (a plain process kill loses
/// nothing under any policy — the page cache survives the process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync: full ingest throughput; an OS crash can lose the acked tail
    /// still in the page cache. The default.
    #[default]
    Never,
    /// Fsync after every appended frame: an acknowledged frame survives anything,
    /// at sync-per-frame cost.
    EveryFrame,
    /// Fsync after every `n` appended frames: bounded exposure, amortized cost.
    EveryN(u32),
}

/// An injected fault at a frame ordinal: close the connection instead, delay the
/// frame, corrupt it (sink-side the frame, aggregator-side its acknowledgement, so
/// the receiver's checksum rejects it), or swallow it and keep the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    Drop,
    Delay(Duration),
    Corrupt,
    BlackHole,
}

/// A deterministic fault schedule keyed by frame ordinal.
///
/// Epoch frames (deltas and the finish) are counted from 1 on each side
/// independently: sink-side per delivery attempt, aggregator-side per received
/// frame (across all producers, in arrival order). The same plan therefore
/// replays the same faults run after run, which is what lets the recovery tests
/// and the CI soak assert byte-identical outcomes instead of "it usually
/// reconnects". Install a plan with [`FleetSinkBuilder::fault_plan`] or
/// [`FleetAggregatorBuilder::fault_plan`].
///
/// Faults at distinct ordinals compose; [`FaultPlan::black_hole_from`] is
/// persistent (every frame from that ordinal on is swallowed) and wins over
/// one-shot actions at the same ordinal.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: BTreeMap<u64, FaultAction>,
    black_hole_from: Option<u64>,
}

impl FaultPlan {
    /// An empty schedule (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Drop the connection at frame `n` (1-based).
    #[must_use]
    pub fn drop_at(mut self, n: u64) -> Self {
        self.actions.insert(n, FaultAction::Drop);
        self
    }

    /// Delay frame `n` (1-based) by `delay`.
    #[must_use]
    pub fn delay_at(mut self, n: u64, delay: Duration) -> Self {
        self.actions.insert(n, FaultAction::Delay(delay));
        self
    }

    /// Corrupt frame `n` (1-based).
    #[must_use]
    pub fn corrupt_at(mut self, n: u64) -> Self {
        self.actions.insert(n, FaultAction::Corrupt);
        self
    }

    /// Swallow every frame from `n` (1-based) on: the connection stays open and
    /// readable but nothing is ever acknowledged — the hung-peer fault.
    #[must_use]
    pub fn black_hole_from(mut self, n: u64) -> Self {
        self.black_hole_from = Some(n);
        self
    }

    fn effect(&self, frame: u64) -> Option<FaultAction> {
        if self.black_hole_from.is_some_and(|from| frame >= from) {
            return Some(FaultAction::BlackHole);
        }
        self.actions.get(&frame).copied()
    }
}

// FleetSink: the producer-side transport

/// Transport counters of a [`FleetSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSinkStats {
    /// Successful connections (the initial one plus every reconnect handshake).
    pub connects: u64,
    /// Frames delivered and acknowledged.
    pub frames_sent: u64,
    /// Buffered frames dropped at a reconnect handshake because the aggregator had
    /// already folded their epochs (the acknowledgement was lost, not the frame).
    pub frames_trimmed: u64,
    /// Highest epoch the aggregator has acknowledged (since the last time it lost
    /// this producer's state).
    pub acked_epoch: u64,
    /// Frames awaiting delivery right now (in memory plus spilled to disk).
    pub pending_frames: u64,
    /// Frames that have ever overflowed to the spill tier
    /// ([`OverflowPolicy::SpillThenBlock`]).
    pub spilled_frames: u64,
    /// Buffered epochs dropped under
    /// [`OverflowPolicy::DropOldestEpochsFlaggedLossy`], or given up after an
    /// aggregator lost this producer's state with no session left to re-base
    /// from, over the sink's lifetime. Each hello reports those no re-base has
    /// covered since, which flags the producer truncated.
    pub dropped_epochs: u64,
    /// Cumulative reconnect backoff scheduled, in milliseconds.
    pub reconnect_backoff_ms: u64,
    /// Re-bases: a reconnect found the aggregator had lost this producer's state,
    /// and one delta of the whole stream so far replaced the buffered frames.
    pub rebases: u64,
}

/// The driver of a [`FleetSink`]: the protocol link plus its socket, deadlines,
/// fault plan and re-base source.
#[derive(Debug)]
struct Link {
    proto: ProducerLink<SpillFile>,
    target: Target,
    conn: Option<Conn>,
    ack_deadline: Duration,
    finish_deadline: Duration,
    /// The fault plan and the delivery attempts counted against it.
    faults: Option<(FaultPlan, u64)>,
    /// The session's stream, for a re-base
    /// ([`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet)
    /// installs it).
    rebase: Option<RebaseSource>,
}

impl Link {
    /// Runs the protocol until it has nothing to send. A transport failure — a
    /// tripped ack deadline included — drops the connection with the frames still
    /// buffered, so the caller (the export drainer) is never wedged by a hung peer.
    fn pump(&mut self) -> io::Result<()> {
        loop {
            let now = Instant::now();
            let reply = match self.proto.step(now)? {
                LinkStep::Idle => return Ok(()),
                LinkStep::Wait(at) => {
                    let left = at.saturating_duration_since(now);
                    let message = format!("reconnect backoff in progress for {left:?}");
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, message));
                }
                LinkStep::Rebase => {
                    self.proto.rebase(self.rebase.as_ref().and_then(RebaseSource::delta));
                    continue;
                }
                LinkStep::Connect(hello) => {
                    self.conn = None;
                    Conn::open(&self.target, self.ack_deadline).and_then(|conn| {
                        self.conn.insert(conn).round_trip(&hello.to_frame()?, None)
                    })
                }
                LinkStep::Frame(frame) => {
                    let fault = self.faults.as_mut().and_then(|(plan, attempts)| {
                        *attempts += 1;
                        plan.effect(*attempts)
                    });
                    self.conn.as_mut().expect("connected before a frame").round_trip(frame, fault)
                }
            };
            if let Err(e) = self.proto.on_reply(reply, now) {
                self.conn = None;
                return Err(e);
            }
        }
    }
}

/// The producer-side transport: a [`ProfileSink`] that frames every epoch delta
/// as a [`crate::wire`] frame and ships it to a [`FleetAggregator`] over a socket,
/// synchronously acknowledged. Wire the sink into a session with
/// [`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet);
/// the export drainer then drives it exactly like a file sink.
///
/// Delivery is at-least-once with exact folding: unacknowledged frames stay
/// buffered, a reconnect resumes from the aggregator's acknowledged epoch (frames
/// it already folded are trimmed, the rest re-sent), and the aggregator drops any
/// epoch it has seen. Transient transport failures during the run are absorbed —
/// frames buffer and the next delta retries — while [`ProfileSink::on_finish`]
/// must deliver the terminal record (retrying up to a bound) or fail, so
/// [`Session::finish_export`](crate::session::Session::finish_export) surfaces
/// end-to-end loss.
///
/// The `event`/`period`/`size_filter` announced at [`FleetSink::connect`] should
/// mirror the profiled session's configuration: the aggregator uses them to expose
/// the producer's **partial** fold (before the finish record arrives) through its
/// fleet view; the finish record itself carries the authoritative values.
#[derive(Debug)]
pub struct FleetSink {
    link: Mutex<Link>,
}

impl FleetSink {
    /// Connects to an aggregator over TCP and runs the hello handshake, announcing
    /// `producer` as this process's fleet-wide name. Fails fast when the aggregator
    /// is unreachable.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(
        addr: &str,
        producer: &str,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
    ) -> io::Result<FleetSink> {
        Self::builder(producer, event, period, size_filter).connect(addr)
    }

    /// [`FleetSink::connect`] over a Unix domain socket.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    #[cfg(unix)]
    pub fn connect_unix(
        path: &Path,
        producer: &str,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
    ) -> io::Result<FleetSink> {
        Self::builder(producer, event, period, size_filter).connect_unix(path)
    }

    /// Starts configuring a sink with explicit failure-model knobs: ack and
    /// finish deadlines, reconnect backoff, buffer budget, overflow policy, spill
    /// location and fault injection. The plain `connect*`
    /// constructors above are shorthands for the builder's defaults.
    pub fn builder(
        producer: &str,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
    ) -> FleetSinkBuilder {
        FleetSinkBuilder {
            hello: Hello {
                producer: producer.to_string(),
                event,
                period,
                size_filter,
                ..Hello::default()
            },
            ack_deadline: DEFAULT_ACK_DEADLINE,
            finish_deadline: DEFAULT_FINISH_DEADLINE,
            backoff: None,
            buffer_budget: DEFAULT_BUFFER_BUDGET,
            overflow: OverflowPolicy::default(),
            spill_dir: None,
            fault_plan: None,
        }
    }

    /// Transport counters so far.
    pub fn stats(&self) -> FleetSinkStats {
        self.link().proto.stats()
    }

    /// Attempts delivery of every buffered frame right now — reconnecting under
    /// the backoff policy if needed — and returns the number of frames still
    /// pending afterwards (0 = fully delivered and acknowledged). Delivery
    /// normally rides on the next streamed delta or the finish frame; a producer
    /// that goes **idle** with frames buffered through an outage quiesces by
    /// polling this instead. A failed attempt leaves the frames buffered,
    /// exactly like a delivery failure under [`ProfileSink::on_delta`].
    pub fn flush_pending(&self) -> u64 {
        let _ = self.deliver(None, None);
        self.link().proto.pending.len()
    }

    /// Fault injection for reconnect testing: drops the current connection without
    /// telling the aggregator (as a network partition would). The next frame
    /// reconnects, re-handshakes and backfills; nothing is lost.
    pub fn disconnect(&self) {
        let mut link = self.link();
        link.conn = None;
        let _ = link.proto.on_reply(Err(io::ErrorKind::NotConnected.into()), Instant::now());
    }

    /// Fault injection for crash testing: drops the connection and disables the
    /// link permanently, as if the producer process died mid-run. Subsequent deltas
    /// are discarded and [`ProfileSink::on_finish`] fails — on the aggregator the
    /// producer's partial fold stays queryable, flagged truncated.
    pub fn sever(&self) {
        let mut link = self.link();
        link.conn = None;
        link.proto.sever();
    }

    /// Installs the session's stream as the re-base source.
    pub(crate) fn set_rebase_source(&self, source: RebaseSource) {
        self.link().rebase = Some(source);
    }

    /// The link; a thread that panicked holding it does not disable the sink.
    fn link(&self) -> MutexGuard<'_, Link> {
        self.link.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one delivery loop of [`ProfileSink::on_delta`] and
    /// [`ProfileSink::on_finish`], [`FleetSink::flush_pending`] and the drop:
    /// offers `frame`, then delivers what is buffered — once, or until `deadline`
    /// under the backoff gate. A frame the spill tier refuses waits with the lock
    /// released, so [`FleetSink::sever`] stays reachable.
    fn deliver(
        &self,
        mut frame: Option<PendingFrame>,
        deadline: Option<Instant>,
    ) -> io::Result<()> {
        loop {
            let mut link = self.link();
            if link.proto.severed {
                return Err(protocol_error("fleet link severed"));
            }
            if let Some(Err(refused)) = frame.take().map(|f| link.proto.offer(f)) {
                let _ = link.pump();
                frame = Some(refused);
                drop(link);
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            let error = match link.pump() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            // Retry at the backoff gate, or shortly after a failure that armed none
            // (an ack deadline tripped on a live connection), never spinning hot.
            let now = Instant::now();
            let retry = link.proto.next_attempt().unwrap_or(now + Duration::from_millis(5));
            if deadline.is_none_or(|deadline| retry >= deadline) {
                return Err(error);
            }
            drop(link);
            thread::sleep(retry.saturating_duration_since(now));
        }
    }
}

impl Drop for FleetSink {
    fn drop(&mut self) {
        // Best-effort terminal delivery: a sink dropped with frames still buffered
        // through an outage tries once more instead of silently discarding them.
        // Failures stay non-fatal — the drop path must never block shutdown on a
        // dead aggregator (the backoff policy caps the attempt), and a sink with
        // nothing pending (the common clean-finish case) must not reconnect at all.
        // A severed link holds nothing.
        if self.stats().pending_frames > 0 {
            let _ = self.flush_pending();
        }
    }
}

/// Configures a [`FleetSink`]'s failure model before connecting; obtained from
/// [`FleetSink::builder`]. Every knob has a production-sane default:
///
/// | knob | default |
/// |---|---|
/// | [`ack_deadline`](Self::ack_deadline) | 5 s |
/// | [`finish_deadline`](Self::finish_deadline) | 5 s |
/// | [`backoff`](Self::backoff) | 50 ms doubling to 2 s, jitter seeded from the producer name |
/// | [`buffer_budget_bytes`](Self::buffer_budget_bytes) | 16 MiB |
/// | [`overflow`](Self::overflow) | [`OverflowPolicy::SpillThenBlock`] |
/// | [`spill_dir`](Self::spill_dir) | the OS temp directory |
/// | [`fault_plan`](Self::fault_plan) | none |
///
/// Fixed, not knobs: each TCP connection attempt gives up after 10 s, and the
/// spill file holds at most 1 GiB.
#[derive(Debug, Clone)]
pub struct FleetSinkBuilder {
    /// The producer's name and run configuration, with zero loss counters.
    hello: Hello,
    ack_deadline: Duration,
    finish_deadline: Duration,
    /// `None` = the default policy, seeded from the producer name.
    backoff: Option<BackoffPolicy>,
    buffer_budget: usize,
    overflow: OverflowPolicy,
    spill_dir: Option<PathBuf>,
    fault_plan: Option<FaultPlan>,
}

impl FleetSinkBuilder {
    /// Bounds each synchronous acknowledgement wait. On expiry the frame fails
    /// back into the buffer, the connection is dropped, and the export drainer
    /// moves on — a hung peer cannot wedge it.
    #[must_use]
    pub fn ack_deadline(mut self, deadline: Duration) -> Self {
        self.ack_deadline = deadline;
        self
    }

    /// Total deadline for delivering the terminal finish frame across however
    /// many reconnect attempts fit (replaces the old fixed 10 × 50 ms retry
    /// loop). On expiry [`ProfileSink::on_finish`] fails, so
    /// [`Session::finish_export`](crate::session::Session::finish_export)
    /// surfaces the end-to-end loss.
    #[must_use]
    pub fn finish_deadline(mut self, deadline: Duration) -> Self {
        self.finish_deadline = deadline;
        self
    }

    /// Reconnect backoff policy (seedable for deterministic tests). Unset, the
    /// default policy's jitter is seeded from the FNV-1a hash of the producer
    /// name, so producers restarting together do not reconnect in lockstep.
    #[must_use]
    pub fn backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Byte budget for the in-memory unacknowledged-frame buffer.
    #[must_use]
    pub fn buffer_budget_bytes(mut self, budget: usize) -> Self {
        self.buffer_budget = budget;
        self
    }

    /// What to do when the buffer budget is exhausted.
    #[must_use]
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Directory for the spill file (default: the OS temp directory). The file
    /// is process-unique and deleted when the sink drops.
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Installs a deterministic sink-side fault schedule (see [`FaultPlan`]).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Connects over TCP and runs the hello handshake; fails fast when the
    /// aggregator is unreachable within the connect timeout.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(self, addr: &str) -> io::Result<FleetSink> {
        self.connect_target(Target::Tcp(addr.to_string()))
    }

    /// [`FleetSinkBuilder::connect`] over a Unix domain socket.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    #[cfg(unix)]
    pub fn connect_unix(self, path: &Path) -> io::Result<FleetSink> {
        self.connect_target(Target::Unix(path.to_path_buf()))
    }

    /// The backoff policy the sink will run: the configured one, else the
    /// default seeded from the producer name.
    fn backoff_policy(&self) -> BackoffPolicy {
        self.backoff.unwrap_or_else(|| {
            BackoffPolicy::default().seed(u64::from(wire::fnv1a(self.hello.producer.as_bytes())))
        })
    }

    fn connect_target(self, target: Target) -> io::Result<FleetSink> {
        let spill_dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let pending = PendingBuffer::<SpillFile>::new(self.buffer_budget, self.overflow, spill_dir);
        let mut link = Link {
            proto: ProducerLink::new(self.hello.clone(), pending, self.backoff_policy()),
            target,
            conn: None,
            ack_deadline: self.ack_deadline,
            finish_deadline: self.finish_deadline,
            faults: self.fault_plan.map(|plan| (plan, 0)),
            rebase: None,
        };
        link.pump()?;
        Ok(FleetSink { link: Mutex::new(link) })
    }
}

impl ProfileSink for FleetSink {
    /// Frames the delta as a [`crate::wire`] delta frame and ships it (`out` is
    /// unused). Transport failures are absorbed: the frame stays buffered and the
    /// next delta (or the finish) retries, gated by the backoff schedule. Only a
    /// spill tier that fails or fills makes this wait (see [`OverflowPolicy`]).
    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, _out: &mut dyn Write) -> io::Result<()> {
        let mut bytes = Vec::new();
        BinaryChunkedSink.on_delta(epoch, delta, &mut bytes)?;
        let frame = PendingFrame { epoch: Some(epoch), sites: !delta.sites.is_empty(), bytes };
        let _ = self.deliver(Some(frame), None);
        Ok(())
    }

    /// Ships the terminal finish frame and waits for its acknowledgement,
    /// reconnecting under the backoff policy until the configured finish
    /// deadline. An error here means the aggregator never confirmed the complete
    /// stream — the loss is reported, never silent.
    fn on_finish(&self, record: &FinishRecord, _out: &mut dyn Write) -> io::Result<()> {
        let mut bytes = Vec::new();
        BinaryChunkedSink.on_finish(record, &mut bytes)?;
        let deadline = Instant::now() + self.link().finish_deadline;
        self.deliver(Some(PendingFrame { epoch: None, sites: false, bytes }), Some(deadline))
    }
}

// FleetAggregator: the daemon

/// One producer's row in the aggregator's status report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerStatus {
    /// The fleet-wide name the producer announced in its hello frame.
    pub producer: String,
    /// `true` while the producer holds a live connection.
    pub connected: bool,
    /// `true` once the finish frame arrived (and its checksum verified).
    pub finished: bool,
    /// `true` for a dead producer: disconnected without a finish frame. Its partial
    /// fold stays queryable; this flag is how the loss stays visible.
    pub truncated: bool,
    /// Delta frames folded.
    pub deltas: u64,
    /// Last epoch folded (0 while the fold is empty) — the acknowledgement point.
    pub last_epoch: u64,
    /// Samples folded so far.
    pub samples: u64,
    /// Reconnect handshakes after the first (including name takeovers by a
    /// restarted producer process).
    pub resumes: u64,
    /// Duplicate or out-of-order delta frames dropped and re-acknowledged.
    pub duplicates: u64,
    /// Epoch frames (deltas and the finish) received on the wire, including
    /// re-sent duplicates — the frame-level traffic counter.
    pub frames_received: u64,
    /// Wire bytes of those epoch frames, header and checksum included. Together
    /// with `frames_received` and `samples` this makes wire efficiency observable
    /// per producer, not just in benches.
    pub bytes_received: u64,
    /// Bytes in this producer's write-ahead log (0 on a WAL-less aggregator).
    pub wal_bytes: u64,
    /// Frames the producer reports having spilled to its disk tier
    /// ([`OverflowPolicy::SpillThenBlock`]), carried by reconnect hellos.
    pub spilled_frames: u64,
    /// Epochs the producer reports having dropped under
    /// [`OverflowPolicy::DropOldestEpochsFlaggedLossy`] since its last re-base
    /// (whose delta holds the earlier ones). Nonzero flags the producer truncated
    /// and relaxes the finish-frame sample checksum — the loss was chosen and
    /// declared, so it is surfaced rather than refused.
    pub dropped_epochs: u64,
    /// Cumulative reconnect backoff the producer reports having scheduled, in
    /// milliseconds — the remote view of how rough this link's life has been.
    pub reconnect_backoff_ms: u64,
}

/// What [`FleetAggregator::recover`] rebuilt from one producer's WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerRecovery {
    /// The producer name from the WAL header.
    pub producer: String,
    /// Frames replayed into the fold (deltas, plus the finish when present).
    pub frames: u64,
    /// Last epoch recovered — what the next hello acknowledgement will carry.
    pub last_epoch: u64,
    /// `true` when the finish frame was recovered (the run completed before the
    /// crash).
    pub finished: bool,
    /// Why a torn tail (a crash mid-append) was truncated away, or `None` when the
    /// log replayed to its end. The message carries the frame-reader or fold
    /// error that ended replay (naming the frame and its byte offset in the log
    /// body), the number of bytes cut and the file offset the log was cut at. The
    /// truncated frames were never acknowledged under [`FsyncPolicy::EveryFrame`];
    /// the producer still buffers them and re-sends after its reconnect handshake.
    pub torn_tail: Option<String>,
    /// Log length after any truncation.
    pub wal_bytes: u64,
}

/// The result of a WAL-directory replay, in producer-name order.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// One row per recovered producer.
    pub producers: Vec<ProducerRecovery>,
}

#[derive(Debug, Default)]
struct FleetState {
    /// The protocol state: every producer's fold and counters, and the watches.
    core: AggregatorCore,
    /// Each producer's write-ahead log, when the aggregator runs durable.
    wals: BTreeMap<String, Wal>,
    /// One row per connection handler that may still be running: its join handle
    /// and a clone of its stream, for shutdown. Finished rows are reaped at every
    /// accept, so reconnect churn cannot grow this without bound.
    handlers: Vec<(JoinHandle<()>, Option<WireStream>)>,
}

impl FleetState {
    /// Per-producer protocol status with the log sizes, in producer-name order.
    fn status(&self) -> Vec<ProducerStatus> {
        self.core.status(|name| self.wals.get(name).map_or(0, |w| w.bytes))
    }
}

/// Aggregator-wide knobs, fixed at bind time.
#[derive(Debug, Default)]
struct AggregatorConfig {
    /// WAL directory + fsync policy; `None` runs without durability.
    wal: Option<(PathBuf, FsyncPolicy)>,
    /// Aggregator-side fault schedule (test harness).
    faults: Option<FaultPlan>,
}

#[derive(Debug)]
struct AggregatorShared {
    state: Mutex<FleetState>,
    shutdown: AtomicBool,
    config: AggregatorConfig,
    /// Aggregator-side fault ordinal: epoch frames received across all
    /// connections, in arrival order. Only advanced when a fault plan is set.
    fault_frames: AtomicU64,
}

impl AggregatorShared {
    /// The fleet state; a handler that panicked holding it costs its connection only.
    fn state(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluates a query from the producers' folds in place. Only that walk holds
    /// the state lock: the query's filters are built before it, and the groups
    /// ranked and materialized after it.
    fn evaluate(&self, query: &Query) -> QueryResult {
        let mut groups = GroupState::new(query);
        self.state().core.absorb_producers(query, &mut groups);
        groups.materialize(query)
    }
}

/// One producer's slice of a [`FleetView`] snapshot.
#[derive(Debug, Clone)]
pub struct FleetProducer {
    /// The producer's fleet-wide name.
    pub producer: String,
    /// `true` when the producer died without a finish frame: the profile below is a
    /// partial fold — real samples, but not the whole run.
    pub truncated: bool,
    /// The producer's assembled profile: complete (agent counters, verified
    /// checksum) once finished, the partial fold otherwise — sites and allocation
    /// counts included either way.
    pub profile: ObjectCentricProfile,
}

/// A point-in-time snapshot of the merged fleet, one assembled profile per
/// producer, in producer-name order. As a [`ProfileSource`] it answers the full
/// [`Query`] API; evaluating a query over a view of finished producers renders
/// **byte-identically** to the same query over a
/// [`MultiSource`](crate::query::MultiSource) fold of those producers' epoch logs —
/// same frames, same fold, same assembly, one codepath.
#[derive(Debug, Clone)]
pub struct FleetView {
    producers: Vec<FleetProducer>,
}

impl FleetView {
    /// The per-producer slices, in producer-name order.
    pub fn producers(&self) -> &[FleetProducer] {
        &self.producers
    }

    /// Number of producers in the view.
    pub fn len(&self) -> usize {
        self.producers.len()
    }

    /// `true` when no producer has connected yet.
    pub fn is_empty(&self) -> bool {
        self.producers.is_empty()
    }

    /// Total folded samples across the fleet.
    pub fn total_samples(&self) -> u64 {
        self.producers.iter().map(|p| p.profile.total_samples()).sum()
    }

    /// `true` when any producer's stream was truncated — the view describes less
    /// than the fleet actually sampled.
    pub fn any_truncated(&self) -> bool {
        self.producers.iter().any(|p| p.truncated)
    }
}

impl ProfileSource for FleetView {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        Ok(self.producers.iter().map(|p| Cow::Borrowed(&p.profile)).collect())
    }
}

/// The aggregator daemon: binds a listener, folds every producer's epoch frames
/// incrementally, and serves the fleet — as an in-process [`ProfileSource`]
/// ([`FleetAggregator::view`]) and over the wire to [`FleetClient`]s.
///
/// Dropping the aggregator shuts it down: the accept loop stops, live connections
/// are closed, and handler threads are joined.
#[derive(Debug)]
pub struct FleetAggregator {
    shared: Arc<AggregatorShared>,
    accept_handle: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
    recovery: Option<RecoveryReport>,
}

impl FleetAggregator {
    /// Binds a TCP listener (`"127.0.0.1:0"` picks a free loopback port; see
    /// [`FleetAggregator::local_addr`]) and starts accepting producers and clients.
    /// Runs without a WAL; use [`FleetAggregator::builder`] for durability.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> io::Result<FleetAggregator> {
        Self::builder().bind(addr)
    }

    /// Binds a Unix domain socket at `path` (which must not exist yet; it is
    /// removed again on shutdown). Runs without a WAL; use
    /// [`FleetAggregator::builder`] for durability.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix(path: &Path) -> io::Result<FleetAggregator> {
        Self::builder().bind_unix(path)
    }

    /// A builder for an aggregator with durability and fault-injection knobs.
    pub fn builder() -> FleetAggregatorBuilder {
        FleetAggregatorBuilder::default()
    }

    /// Replays every `*.wal` file under `dir` through ingest's rules and returns a
    /// builder pre-loaded with the recovered producers, WAL-enabled on the same
    /// directory. Torn tails (a crash mid-append) are truncated away — those
    /// frames were never acknowledged under [`FsyncPolicy::EveryFrame`], so the
    /// producers still buffer and re-send them. When producers reconnect, the
    /// hello acknowledgement carries the recovered high-water epoch: duplicates
    /// are trimmed producer-side and the stream resumes exactly where the
    /// previous aggregator died.
    ///
    /// # Errors
    ///
    /// Propagates directory and file IO failures (a file's error names the
    /// file), and fails with [`io::ErrorKind::InvalidData`] (naming the file,
    /// which is left untouched) on a WAL whose header line is complete but does
    /// not parse. Only a WAL
    /// whose header line never got its newline (a crash mid-create) is skipped.
    pub fn recover(dir: &Path) -> io::Result<FleetAggregatorBuilder> {
        let fsync = FsyncPolicy::default();
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "wal"))
            .collect();
        paths.sort();
        let mut recovered = FleetState::default();
        let mut report = RecoveryReport::default();
        for path in paths {
            let name_file =
                |e: io::Error| io::Error::new(e.kind(), format!("WAL {}: {e}", path.display()));
            if let Some((producer, state, row)) = recover_wal_file(&path).map_err(name_file)? {
                let wal = Wal::reopen(&path, row.wal_bytes, fsync).map_err(name_file)?;
                recovered.wals.insert(producer.clone(), wal);
                recovered.core.producers.insert(producer, state);
                report.producers.push(row);
            }
        }
        report.producers.sort_by(|a, b| a.producer.cmp(&b.producer));
        let config = AggregatorConfig { wal: Some((dir.to_path_buf(), fsync)), faults: None };
        Ok(FleetAggregatorBuilder { config, recovered, report: Some(report) })
    }

    /// The recovery report, when this aggregator came from
    /// [`FleetAggregator::recover`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound TCP address (`None` for a Unix-socket aggregator).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A point-in-time snapshot of the merged fleet: one assembled profile per
    /// producer. The folds are cloned and assembled under the state lock, so the
    /// view holds whole frames only, and ingestion waits for the copy. Prefer
    /// [`FleetAggregator::query`] for one-shot questions: it reads the folds in
    /// place instead of copying them.
    pub fn view(&self) -> FleetView {
        let state = self.shared.state();
        let producers = state.core.producers.iter().map(|(name, p)| FleetProducer {
            producer: name.clone(),
            truncated: p.truncated(),
            profile: p.fold.clone().assemble(),
        });
        FleetView { producers: producers.collect() }
    }

    /// Per-producer protocol status, in producer-name order.
    pub fn status(&self) -> Vec<ProducerStatus> {
        self.shared.state().status()
    }

    /// Evaluates a query over the merged fleet — the same evaluation a
    /// [`FleetClient`] triggers over the wire, and byte-identical to
    /// `query.evaluate(&aggregator.view())` at the same instant. The evaluation
    /// reads every producer's fold in place under the state lock: no fold is cloned
    /// or assembled, and frames arriving meanwhile wait for that walk only — the
    /// query's filters are built before it and the result ranked after it. A
    /// thread filter naming many ids costs one pass over them per thread, not one
    /// per row.
    ///
    /// # Errors
    ///
    /// Never fails: every fold answers every query. The `Result` mirrors
    /// [`Query::evaluate`].
    pub fn query(&self, query: &Query) -> Result<QueryResult, QueryError> {
        Ok(self.shared.evaluate(query))
    }

    /// Registers a live subscription over the merged fleet: the watch is seeded
    /// from the producers' folds in place (the walk [`FleetAggregator::query`]
    /// runs, nothing cloned or assembled) and then fed **incrementally** as producer frames are
    /// accepted, rendering byte-identically to a cold [`FleetAggregator::query`]
    /// over the view at the same instant — without re-assembling or re-evaluating
    /// anything per epoch. Producers may join, reconnect (duplicate frames are
    /// dropped before the feed) or finish mid-watch; the watch itself only
    /// finishes when the aggregator shuts down.
    ///
    /// The result's `epoch` field carries the highest epoch folded from *any*
    /// producer — fleet epochs are per-producer counters, so treat it as a
    /// progress indicator, not a global ordering.
    ///
    /// Caveat: when two producers reuse the same numeric thread id under
    /// *different* thread names, a `GroupBy::Thread` group's **label** follows
    /// first-arrival order on the live path but producer-name order on a cold
    /// view; the group's identity and every metric still agree.
    pub fn watch(&self, query: &Query) -> crate::query::live::LiveQuery {
        use crate::query::live::LiveQuery;
        let mut groups = GroupState::new(query);
        let mut state = self.shared.state();
        state.core.absorb_producers(query, &mut groups);
        let epoch = state.core.producers.values().filter_map(|p| p.fold.last_epoch()).max();
        let finished = self.shared.shutdown.load(Ordering::SeqCst);
        let watch = LiveQuery::seed_watch(query.clone(), groups, epoch, finished);
        state.core.watches.push(Arc::downgrade(&watch));
        LiveQuery::from_watch(watch)
    }

    /// Stops the daemon: no new connections, live connections closed, handler
    /// threads joined. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(accept_handle) = self.accept_handle.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        if let Some(addr) = &self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
        let _ = accept_handle.join();
        let (handlers, watches) = {
            let mut state = self.shared.state();
            (std::mem::take(&mut state.handlers), std::mem::take(&mut state.core.watches))
        };
        for (_, conn) in &handlers {
            if let Some(conn) = conn {
                let _ = conn.shutdown();
            }
        }
        for (handle, _) in handlers {
            let _ = handle.join();
        }
        // Close the live watches: no more frames can arrive, so blocked
        // next_epoch() pullers drain instead of hanging on a dead daemon.
        for watch in watches {
            if let Some(watch) = watch.upgrade() {
                watch.mark_finished();
            }
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for FleetAggregator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Configures a [`FleetAggregator`] before binding: WAL durability, fsync
/// policy, fault injection, and (via [`FleetAggregator::recover`]) a set of
/// producers replayed from a previous incarnation's logs.
#[derive(Debug, Default)]
pub struct FleetAggregatorBuilder {
    config: AggregatorConfig,
    recovered: FleetState,
    report: Option<RecoveryReport>,
}

impl FleetAggregatorBuilder {
    /// Enables the per-producer write-ahead log under `dir` with the given fsync
    /// policy. Each producer's frames are appended to its log **before** they are
    /// acknowledged, so an acknowledged frame survives an aggregator crash
    /// (a process crash under any policy; an OS crash only as far as `fsync`
    /// reaches).
    #[must_use]
    pub fn wal(mut self, dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        self.config.wal = Some((dir.into(), fsync));
        for w in self.recovered.wals.values_mut() {
            w.fsync = fsync;
        }
        self
    }

    /// Installs a deterministic aggregator-side fault schedule: frame ordinals
    /// count received epoch frames across all connections, in arrival order.
    /// Hello, query, and status frames are served normally — black-holing epoch
    /// frames while still completing the handshake is exactly the hung-peer
    /// shape the producer's ack deadline exists for.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// The recovery report, when this builder came from
    /// [`FleetAggregator::recover`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.report.as_ref()
    }

    /// Binds a TCP listener and starts the daemon. See [`FleetAggregator::bind`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(self, addr: &str) -> io::Result<FleetAggregator> {
        let listener = TcpListener::bind(addr)?;
        let tcp_addr = Some(listener.local_addr()?);
        Ok(self.start(WireListener::Tcp(listener), tcp_addr, None))
    }

    /// Binds a Unix domain socket and starts the daemon. See
    /// [`FleetAggregator::bind_unix`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    #[cfg(unix)]
    pub fn bind_unix(self, path: &Path) -> io::Result<FleetAggregator> {
        let listener = UnixListener::bind(path)?;
        Ok(self.start(WireListener::Unix(listener), None, Some(path.to_path_buf())))
    }

    fn start(
        self,
        listener: WireListener,
        tcp_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
    ) -> FleetAggregator {
        let shared = Arc::new(AggregatorShared {
            state: Mutex::new(self.recovered),
            shutdown: AtomicBool::new(false),
            config: self.config,
            fault_frames: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle =
            thread::spawn(move || accept_loop(move || listener.accept(), accept_shared));
        #[cfg(not(unix))]
        let _ = unix_path;
        FleetAggregator {
            shared,
            accept_handle: Some(accept_handle),
            tcp_addr,
            #[cfg(unix)]
            unix_path,
            recovery: self.report,
        }
    }
}

/// How long the accept loop backs off after a failed accept, so a persistent
/// failure (`EMFILE`) does not spin a core.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(10);

/// Serves every connection `accept` yields until shutdown — the only thing that
/// ends the loop. A failed accept (`ECONNABORTED`, `EMFILE`, a stream that could
/// not be configured) loses that one connection, never the listener.
fn accept_loop(mut accept: impl FnMut() -> io::Result<WireStream>, shared: Arc<AggregatorShared>) {
    loop {
        let accepted = accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = accepted else {
            thread::sleep(ACCEPT_RETRY_DELAY);
            continue;
        };
        let conn_clone = stream.try_clone().ok();
        let handler_shared = Arc::clone(&shared);
        let handle = thread::spawn(move || handle_connection(stream, handler_shared));
        let mut state = shared.state();
        // Reap exited handlers (joining a finished thread does not block) and
        // close the last clone of each one's stream.
        for (finished, _) in state.handlers.extract_if(.., |(h, _)| h.is_finished()) {
            let _ = finished.join();
        }
        state.handlers.push((handle, conn_clone));
    }
}

fn handle_connection(stream: WireStream, shared: Arc<AggregatorShared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (mut reader, mut writer) = (BufReader::new(read_half), stream);
    // Set by a hello: the producer name and the generation this connection owns.
    let mut producer = None;
    // The raw bytes of the current frame, reused across frames (an accepted epoch
    // frame is appended verbatim to the WAL).
    let mut frame = Vec::new();
    while let Ok(false) = wire::at_end(&mut reader) {
        let handled = match wire::read_binary_frame(&mut reader, &mut frame) {
            Ok(WireRecord::Log(record)) => {
                dispatch_epoch_record(record, &frame, producer.as_ref(), &shared, &mut writer)
            }
            Ok(WireRecord::Control(control)) => {
                dispatch_control(control, &mut producer, &shared, &mut writer)
            }
            // A whole query frame whose payload was refused costs the client that
            // query, not the connection: the stream is still at a frame boundary.
            Err(e) if wire::is_whole_query_frame(&frame) => {
                send(&mut writer, &Control::Error(e.message))
            }
            Err(e) => refuse(&mut writer, e.message),
        };
        if handled.is_err() {
            break;
        }
    }
    // The handler owns the connection's lifetime: close it now rather than when
    // the accept loop reaps the stream clone it keeps for shutdown.
    let _ = writer.shutdown();
    if let Some((name, generation)) = producer {
        shared.state().core.disconnected(&name, generation);
    }
}

/// Sends an error record and fails, so the caller closes the connection.
fn refuse(writer: &mut WireStream, message: String) -> io::Result<()> {
    let _ = send(writer, &Control::Error(message.clone()));
    Err(protocol_error(message))
}

/// Answers one inbound control record; an `Err` closes the connection (the peer
/// already got an error record where one applies).
fn dispatch_control(
    control: Control,
    producer: &mut Option<(String, u64)>,
    shared: &AggregatorShared,
    writer: &mut WireStream,
) -> io::Result<()> {
    let reply = match control {
        Control::Hello(hello) => {
            let mut state = shared.state();
            // Durability: open the WAL at first contact, before anything is acked.
            // A producer recovered from disk already carries its reopened log.
            let wal = shared.config.wal.as_ref();
            if let Some((dir, fsync)) = wal.filter(|_| !state.wals.contains_key(&hello.producer)) {
                let Hello { producer, event, period, size_filter, .. } = &hello;
                match Wal::create(dir, producer, *event, *period, *size_filter, *fsync) {
                    Ok(wal) => drop(state.wals.insert(producer.clone(), wal)),
                    // Refuse the hello rather than silently running undurable: the
                    // producer keeps buffering and retrying.
                    Err(e) => return refuse(writer, format!("WAL create failed: {e}")),
                }
            }
            let (generation, ack) = state.core.hello(&hello);
            *producer = Some((hello.producer, generation));
            ack
        }
        // Only the walk over the folds holds the state lock; ranking, rendering
        // and the send run after it is released.
        Control::Query(query) => {
            let result = shared.evaluate(&query);
            Control::Result { text: result.to_text(), json: result.to_json() }
        }
        Control::StatusRequest => Control::Status(shared.state().status()),
        other => return refuse(writer, format!("unexpected {} record from a peer", other.name())),
    };
    match reply.to_frame() {
        Ok(frame) => writer.write_all(&frame),
        Err(e) => refuse(writer, format!("the {} record cannot be sent: {e}", reply.name())),
    }
}

/// Folds one decoded epoch frame; `frame` holds its raw bytes, which an accepted
/// frame appends verbatim to the producer's WAL before its acknowledgement.
fn dispatch_epoch_record(
    record: LogRecord,
    frame: &[u8],
    producer: Option<&(String, u64)>,
    shared: &AggregatorShared,
    writer: &mut WireStream,
) -> io::Result<()> {
    // Aggregator-side fault injection, resolved before any state changes so a
    // dropped or black-holed frame leaves no trace in the fold or the WAL.
    let fault = shared
        .config
        .faults
        .as_ref()
        .and_then(|plan| plan.effect(shared.fault_frames.fetch_add(1, Ordering::SeqCst) + 1));
    match fault {
        Some(FaultAction::Drop) => return Err(io::ErrorKind::ConnectionReset.into()),
        // Swallow the frame, keep the connection: the producer's ack deadline
        // fires against a peer that looks alive but never answers.
        Some(FaultAction::BlackHole) => return Ok(()),
        Some(FaultAction::Delay(d)) => thread::sleep(d),
        Some(FaultAction::Corrupt) | None => {}
    }
    let name = producer.map(|(name, _)| name.as_str());
    let reply = {
        let mut state = shared.state();
        let FleetState { core, wals, .. } = &mut *state;
        match core.frame(name, &record, frame.len()) {
            Verdict::Reply(ack) => Ok(ack),
            Verdict::Refuse(message) => Err(message),
            // Durability order: log, then fold, then ack. A WAL append failure
            // refuses the frame — the producer re-sends it, and the fold never
            // holds a sample the log doesn't.
            Verdict::Append => {
                let name = name.expect("only a producer's frame is appended");
                match wals.get_mut(name).map_or(Ok(()), |w| w.append(frame)) {
                    Ok(()) => Ok(core.commit(name, &record)),
                    Err(e) => Err(format!("WAL append failed: {e}")),
                }
            }
        }
    };
    match reply {
        // Corrupt the acknowledgement, not the state: the frame was folded and
        // logged, but the ack's checksum fails at the producer, which reconnects
        // and gets trimmed by the hello's resume point.
        Ok(ack) => {
            write_faulted(writer, &ack.to_frame()?, fault.filter(|f| *f == FaultAction::Corrupt))
        }
        Err(message) => refuse(writer, message),
    }
}

// FleetClient: querying the aggregator over the wire

/// A query answer rendered by the aggregator: both output forms, exactly as the
/// same [`QueryResult`] would render them in process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteQueryResult {
    /// The aligned text table ([`QueryResult::to_text`](crate::query::QueryResult::to_text)).
    pub text: String,
    /// The JSON document ([`QueryResult::to_json`](crate::query::QueryResult::to_json)).
    pub json: String,
}

/// A client connection to a [`FleetAggregator`]: sends query and status requests
/// as control frames over the same wire the producers use, one request-response
/// pair per call. Connecting and every reply are bounded by the producers'
/// default connect timeout (10 s) and acknowledgement deadline (5 s), so a hung
/// aggregator fails a call instead of blocking it forever.
#[derive(Debug)]
pub struct FleetClient {
    conn: Conn,
}

impl FleetClient {
    /// Connects to an aggregator over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<FleetClient> {
        Ok(FleetClient { conn: Conn::open(&Target::Tcp(addr.to_string()), DEFAULT_ACK_DEADLINE)? })
    }

    /// Connects to an aggregator over a Unix domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<FleetClient> {
        Ok(FleetClient { conn: Conn::open(&Target::Unix(path.into()), DEFAULT_ACK_DEADLINE)? })
    }

    fn round_trip(&mut self, request: &Control) -> io::Result<Control> {
        self.conn.round_trip(&request.to_frame()?, None)
    }

    /// Evaluates `query` over the aggregator's current fleet view and returns both
    /// rendered forms.
    ///
    /// # Errors
    ///
    /// Transport failures, and aggregator-side rejections surfaced as
    /// [`io::ErrorKind::InvalidData`].
    pub fn query(&mut self, query: &Query) -> io::Result<RemoteQueryResult> {
        match self.round_trip(&Control::Query(query.clone()))? {
            Control::Result { text, json } => Ok(RemoteQueryResult { text, json }),
            Control::Error(message) => {
                Err(protocol_error(format!("aggregator rejected query: {message}")))
            }
            other => Err(protocol_error(format!("unexpected {} reply to query", other.name()))),
        }
    }

    /// Fetches the aggregator's per-producer protocol status.
    ///
    /// # Errors
    ///
    /// Transport failures, and aggregator-side rejections surfaced as
    /// [`io::ErrorKind::InvalidData`].
    pub fn status(&mut self) -> io::Result<Vec<ProducerStatus>> {
        match self.round_trip(&Control::StatusRequest)? {
            Control::Status(producers) => Ok(producers),
            Control::Error(message) => {
                Err(protocol_error(format!("aggregator rejected status request: {message}")))
            }
            other => Err(protocol_error(format!("unexpected {} reply to status", other.name()))),
        }
    }
}

#[cfg(test)]
mod sim;

#[cfg(test)]
mod tests {
    use super::protocol::Backoff;
    use super::store::wal_path;
    use super::transport::read_reply;
    use super::*;
    use crate::profile::DeltaFold;
    use crate::profile::{ThreadDelta, ThreadProfile};
    use crate::query::{GroupBy, RankBy};
    use djx_runtime::{Frame, MethodId, ThreadId};
    use std::fs::OpenOptions;

    fn delta(epoch: u64, thread: u64, samples: u64) -> ProfileDelta {
        let mut profile = ThreadProfile::new(ThreadId(thread), "worker");
        profile.samples = samples;
        ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }], ..Default::default() }
    }

    fn assert_query_round_trips(query: Query) {
        let frame = Control::Query(query).to_frame().unwrap();
        let Control::Query(parsed) = read_reply(&mut &frame[..]).expect("decodes") else {
            panic!("a query frame")
        };
        assert_eq!(Control::Query(parsed).to_frame().unwrap(), frame);
    }

    #[test]
    fn query_record_round_trips() {
        assert_query_round_trips(
            Query::new()
                .rank_by(RankBy::Samples)
                .top(7)
                .min_samples(3)
                .filter_class("java/util/HashMap")
                .filter_site(Frame::new(MethodId(4), 2))
                .filter_site(Frame::new(MethodId(9), 0))
                .filter_thread(ThreadId(11)),
        );
    }

    #[test]
    fn query_record_round_trips_defaults() {
        for query in [
            Query::new(),
            Query::new().top(0),
            Query::new().group_by(GroupBy::Site),
            Query::new().group_by(GroupBy::Thread).rank_by(RankBy::RemoteFraction),
            Query::new().group_by(GroupBy::NumaNode).rank_by(RankBy::Latency),
            Query::new().group_by(GroupBy::Context).rank_by(RankBy::MeanLatency).top(5),
            Query::new().group_by(GroupBy::NodePair).rank_by(RankBy::Samples),
        ] {
            assert_query_round_trips(query);
        }
    }

    #[test]
    fn reply_parser_handles_all_kinds() {
        let row = ProducerStatus {
            producer: "p \t\\".into(),
            connected: true,
            finished: false,
            truncated: true,
            deltas: 2,
            last_epoch: 2,
            samples: 10,
            resumes: 1,
            duplicates: 0,
            frames_received: 3,
            bytes_received: 412,
            wal_bytes: 96,
            spilled_frames: 4,
            dropped_epochs: 0,
            reconnect_backoff_ms: 75,
        };
        for reply in [
            Control::Ack { epoch: 4, terminal: false },
            Control::Ack { epoch: 9, terminal: true },
            Control::Error("nope".into()),
            Control::Result { text: "a table\n".into(), json: "{\"x\":1}".into() },
            Control::Status(vec![row.clone(), row]),
            Control::StatusRequest,
        ] {
            // Decode then re-encode is the identity: every field survives.
            let frame = reply.to_frame().unwrap();
            assert_eq!(read_reply(&mut &frame[..]).expect("decodes").to_frame().unwrap(), frame);
        }
        // An epoch frame is not a reply; a JSON line is not a frame.
        let mut delta_frame = Vec::new();
        BinaryChunkedSink
            .on_delta(1, &delta(1, 7, 5), &mut delta_frame)
            .expect("encodes");
        assert!(read_reply(&mut &delta_frame[..]).is_err());
        let err = read_reply(&mut &b"{\"record\":\"ack\",\"epoch\":4}\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn aggregator_accepts_hello_and_deltas() {
        let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("bind");
        let addr = aggregator.local_addr().expect("tcp addr").to_string();
        let sink = FleetSink::connect(&addr, "unit", PmuEvent::DEFAULT, 16, 0).expect("connect");
        let mut out = io::sink();
        sink.on_delta(1, &delta(1, 7, 5), &mut out).expect("delta 1");
        sink.on_delta(2, &delta(2, 7, 3), &mut out).expect("delta 2");
        let status = aggregator.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].producer, "unit");
        assert_eq!(status[0].deltas, 2);
        assert_eq!(status[0].last_epoch, 2);
        assert_eq!(status[0].samples, 8);
        assert!(status[0].connected);
        assert!(!status[0].finished);
        assert!(!status[0].truncated);
        assert_eq!(status[0].frames_received, 2);
        assert!(status[0].bytes_received > 0);
        let stats = sink.stats();
        assert_eq!(stats.connects, 1);
        assert_eq!(stats.frames_sent, 2);
        assert_eq!(stats.acked_epoch, 2);
    }

    #[test]
    fn severed_producer_is_flagged_truncated() {
        let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("bind");
        let addr = aggregator.local_addr().expect("tcp addr").to_string();
        let sink = FleetSink::connect(&addr, "dead", PmuEvent::DEFAULT, 16, 0).expect("connect");
        let mut out = io::sink();
        sink.on_delta(1, &delta(1, 3, 4), &mut out).expect("delta");
        sink.sever();
        // The handler notices the closed socket and marks the producer dead.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let status = aggregator.status();
            if !status[0].connected {
                assert!(status[0].truncated);
                assert!(!status[0].finished);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "producer never marked dead");
            thread::sleep(Duration::from_millis(5));
        }
        let view = aggregator.view();
        assert!(view.any_truncated());
        assert_eq!(view.total_samples(), 4);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("djxperf-fleet-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = BackoffPolicy::new()
            .initial(Duration::from_millis(10))
            .max(Duration::from_millis(80))
            .seed(3);
        let mut a = Backoff::new(policy);
        let mut b = Backoff::new(policy);
        let delays: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        assert_eq!(
            delays,
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>(),
            "same seed, same schedule"
        );
        for (attempt, d) in delays.iter().enumerate() {
            let cap = Duration::from_millis(10u64 << attempt.min(3)).min(Duration::from_millis(80));
            assert!(*d <= cap, "attempt {attempt}: {d:?} over cap {cap:?}");
            assert!(*d >= cap / 2, "attempt {attempt}: {d:?} below half the cap");
        }
        assert!(delays[7] >= Duration::from_millis(40), "growth reached the ceiling");
        a.reset();
        assert!(a.next_delay() <= Duration::from_millis(10), "reset returns to the initial cap");
        // A different seed produces a different jitter sequence.
        let mut c = Backoff::new(policy.seed(4));
        assert_ne!(delays, (0..8).map(|_| c.next_delay()).collect::<Vec<_>>());
    }

    #[test]
    fn a_sub_millisecond_backoff_reports_a_whole_millisecond() {
        let policy = BackoffPolicy::new().initial(Duration::from_millis(1)).seed(7);
        let mut backoff = Backoff::new(policy);
        assert!(backoff.next_delay() < Duration::from_millis(1), "under 1 ms initial");
        assert_eq!(backoff.waited_ms(), 1, "rounded up, not truncated to 0");
    }

    #[test]
    fn default_backoff_is_seeded_from_the_producer_name() {
        let delays = |builder: FleetSinkBuilder| {
            let mut backoff = Backoff::new(builder.backoff_policy());
            (0..8).map(|_| backoff.next_delay()).collect::<Vec<_>>()
        };
        let named = |name: &str| FleetSink::builder(name, PmuEvent::DEFAULT, 16, 0);
        assert_eq!(delays(named("web-1")), delays(named("web-1")), "same name, same schedule");
        assert_ne!(delays(named("web-1")), delays(named("web-2")), "names decorrelate jitter");
        // An explicit policy wins over the name-derived seed.
        let policy = BackoffPolicy::new().seed(7);
        assert_eq!(delays(named("web-1").backoff(policy)), delays(named("web-2").backoff(policy)));
    }

    #[test]
    fn fault_plan_schedule_resolves_by_ordinal() {
        let plan = FaultPlan::new()
            .drop_at(2)
            .delay_at(3, Duration::from_millis(7))
            .corrupt_at(4)
            .black_hole_from(6);
        assert!(plan.effect(1).is_none());
        assert!(matches!(plan.effect(2), Some(FaultAction::Drop)));
        assert!(
            matches!(plan.effect(3), Some(FaultAction::Delay(d)) if d == Duration::from_millis(7))
        );
        assert!(matches!(plan.effect(4), Some(FaultAction::Corrupt)));
        assert!(plan.effect(5).is_none());
        for frame in 6..20 {
            assert!(matches!(plan.effect(frame), Some(FaultAction::BlackHole)));
        }
    }

    #[test]
    fn pending_buffer_spills_in_order_and_trims_spilled_frames() {
        let dir = scratch_dir("pending");
        let mut pending =
            PendingBuffer::<SpillFile>::new(48, OverflowPolicy::SpillThenBlock, dir.clone());
        for epoch in 1..=6u64 {
            pending
                .offer(PendingFrame {
                    epoch: Some(epoch),
                    sites: false,
                    bytes: vec![epoch as u8; 40],
                })
                .expect("spill tier absorbs the overflow");
        }
        assert_eq!(pending.len(), 6);
        assert_eq!(pending.spilled_frames, 5, "everything past the budget spilled");
        assert_eq!(pending.mem.len(), 1);
        // A reconnect handshake acked epoch 3: memory is trimmed now, spilled
        // frames lazily at refill — and the leftovers come back oldest-first.
        pending.trim_acked(3);
        let mut drained = Vec::new();
        while pending.len() > 0 {
            let trimmed = pending.refill().expect("refill reads the spill file");
            if trimmed > 0 {
                continue;
            }
            let frame = pending.pop_front().expect("refill put a frame in memory");
            drained.push(frame.epoch.unwrap());
        }
        assert_eq!(drained, vec![4, 5, 6], "acked epochs trimmed, order preserved");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_buffer_drops_oldest_epochs_but_never_the_finish() {
        let dir = scratch_dir("lossy");
        let mut pending = PendingBuffer::<SpillFile>::new(
            96,
            OverflowPolicy::DropOldestEpochsFlaggedLossy,
            dir.clone(),
        );
        for epoch in 1..=5u64 {
            pending
                .offer(PendingFrame { epoch: Some(epoch), sites: false, bytes: vec![0; 40] })
                .expect("the lossy policy always accepts");
        }
        pending
            .offer(PendingFrame { epoch: None, sites: false, bytes: vec![0; 40] })
            .expect("finish queues");
        assert!(pending.dropped_epochs >= 3, "oldest epochs were shed: {}", pending.dropped_epochs);
        let mut kept = Vec::new();
        while let Some(frame) = pending.pop_front() {
            kept.push(frame.epoch);
        }
        assert_eq!(kept.last(), Some(&None), "the finish frame survives every drop");
        assert!(kept.iter().flatten().all(|e| *e >= 4), "only the newest epochs remain");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_buffer_keeps_frames_that_define_sites() {
        let dir = scratch_dir("lossy-sites");
        let mut pending = PendingBuffer::<SpillFile>::new(
            96,
            OverflowPolicy::DropOldestEpochsFlaggedLossy,
            dir.clone(),
        );
        for epoch in 1..=6u64 {
            // Epochs 1 and 4 define sites; the rest only reference them.
            let sites = epoch % 3 == 1;
            pending
                .offer(PendingFrame { epoch: Some(epoch), sites, bytes: vec![0; 40] })
                .expect("the lossy policy always accepts");
        }
        assert_eq!(pending.dropped_epochs, 3, "three site-free epochs were shed");
        let mut kept = Vec::new();
        while let Some(frame) = pending.pop_front() {
            kept.push(frame.epoch.expect("no finish was offered"));
        }
        assert_eq!(kept, vec![1, 4, 6], "site-defining epochs survive the squeeze, in order");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replays_and_truncates_a_torn_tail() {
        let dir = scratch_dir("wal");
        let mut wal =
            Wal::create(&dir, "proc/0", PmuEvent::DEFAULT, 16, 1024, FsyncPolicy::EveryN(2))
                .expect("wal creates");
        for d in [delta(1, 9, 4), delta(2, 9, 6)] {
            let mut frame = Vec::new();
            BinaryChunkedSink.on_delta(d.epoch, &d, &mut frame).expect("delta encodes");
            wal.append(&frame).expect("append");
        }
        let clean_bytes = wal.bytes;
        drop(wal);
        let path = wal_path(&dir, "proc/0");
        assert!(path.exists(), "the sanitized path exists");

        // A clean replay: both frames, no truncation.
        let (name, state, report) =
            recover_wal_file(&path).expect("replay reads").expect("header parsed");
        assert_eq!(name, "proc/0");
        assert_eq!(report.frames, 2);
        assert_eq!(report.last_epoch, 2);
        assert_eq!(report.torn_tail, None);
        assert!(!report.finished);
        assert_eq!(report.wal_bytes, clean_bytes);
        assert_eq!(state.fold.total_samples(), 10);
        drop(state);

        // A crash mid-append: garbage half-frame at the tail. Recovery keeps the
        // good prefix and truncates the tear away.
        let mut file = OpenOptions::new().append(true).open(&path).expect("reopen for tearing");
        file.write_all(&[wire::BINARY_MAGIC[0], 0x01, 0x02]).expect("torn bytes");
        drop(file);
        let (_, state, report) =
            recover_wal_file(&path).expect("replay reads").expect("header parsed");
        let why = report.torn_tail.expect("the tear was detected");
        assert!(why.contains(&format!("cut 3 bytes at file offset {clean_bytes}")), "{why}");
        assert!(why.contains("binary frame 3 at byte offset "), "names the torn frame: {why}");
        assert_eq!(report.frames, 2, "the good prefix survives");
        assert_eq!(report.wal_bytes, clean_bytes, "the tail was truncated");
        assert_eq!(fs::metadata(&path).expect("stat").len(), clean_bytes);
        assert_eq!(state.fold.total_samples(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_body_is_the_concatenation_of_the_sent_frames() {
        let dir = scratch_dir("wal-body");
        let aggregator = FleetAggregator::builder()
            .wal(&dir, FsyncPolicy::Never)
            .bind("127.0.0.1:0")
            .expect("durable bind");
        let addr = aggregator.local_addr().expect("tcp addr").to_string();
        let sink =
            FleetSink::connect(&addr, "verbatim", PmuEvent::DEFAULT, 16, 0).expect("connect");
        let (mut out, mut sent) = (io::sink(), Vec::new());
        let mut fold = DeltaFold::with_header(PmuEvent::DEFAULT, 16, 0);
        for epoch in 1..=3u64 {
            let d = delta(epoch, 7, epoch + 2);
            fold.absorb_ordered(&d).expect("ordered");
            sink.on_delta(epoch, &d, &mut out).expect("delta ships");
            BinaryChunkedSink.on_delta(epoch, &d, &mut sent).expect("delta encodes");
        }
        let profile = fold.assemble();
        let record = FinishRecord::of_profile(&profile);
        sink.on_finish(&record, &mut out).expect("finish ships");
        BinaryChunkedSink.on_finish(&record, &mut sent).expect("finish encodes");

        // Every frame was logged before its acknowledgement, byte for byte as sent.
        let wal = fs::read(wal_path(&dir, "verbatim")).expect("WAL reads");
        let header_end = wal.iter().position(|b| *b == b'\n').expect("header line");
        let body = &wal[header_end + 1..];
        assert_eq!(body, &sent[..], "the WAL body is the frames the producer sent");
        let replayed = BinaryChunkedSink.read_log_bytes(body).expect("the body replays");
        assert_eq!(replayed.to_text(), profile.to_text());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_errors_lose_one_connection_not_the_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("tcp addr");
        let shared = Arc::new(AggregatorShared {
            state: Mutex::new(FleetState::default()),
            shutdown: AtomicBool::new(false),
            config: AggregatorConfig::default(),
            fault_frames: AtomicU64::new(0),
        });
        // The first accept fails the way an aborted handshake does; every later one
        // accepts for real.
        let mut failed = false;
        let accept = move || {
            if !std::mem::replace(&mut failed, true) {
                return Err(io::Error::from(io::ErrorKind::ConnectionAborted));
            }
            listener.accept().map(|(stream, _)| WireStream::Tcp(stream))
        };
        let loop_shared = Arc::clone(&shared);
        let accept_thread = thread::spawn(move || accept_loop(accept, loop_shared));

        let mut client = FleetClient::connect(&addr.to_string()).expect("client connects");
        client.status().expect("the connection after a failed accept is served");
        drop(client);

        shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        accept_thread.join().expect("shutdown ends the accept loop");
        let handlers = std::mem::take(&mut shared.state.lock().expect("fleet state lock").handlers);
        for (handle, _) in handlers {
            handle.join().expect("handler exits");
        }
    }

    #[test]
    fn finished_handlers_are_reaped_under_reconnect_churn() {
        let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("bind");
        let addr = aggregator.local_addr().expect("tcp addr").to_string();
        // (rows, rows whose handler still runs)
        let handlers = || {
            let state = aggregator.shared.state.lock().expect("fleet state lock");
            let running = state.handlers.iter().filter(|(h, _)| !h.is_finished()).count();
            (state.handlers.len(), running)
        };
        let wait_until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting until {what}");
                thread::sleep(Duration::from_millis(2));
            }
        };
        for _ in 0..50 {
            let mut client = FleetClient::connect(&addr).expect("client connects");
            client.status().expect("status answers");
        }
        // Accepting `first` orders its row after every churned row; once only its
        // handler still runs, the next accept reaps all 50 churned rows.
        let mut first = FleetClient::connect(&addr).expect("client connects");
        first.status().expect("status answers");
        wait_until("every churned handler exits", &|| handlers().1 == 1);
        let mut second = FleetClient::connect(&addr).expect("client connects");
        second.status().expect("status answers");
        wait_until("rows are bounded by the live connections", &|| handlers() == (2, 2));
    }

    #[test]
    fn aggregator_recovery_reacks_duplicates_and_resumes() {
        let dir = scratch_dir("recover");
        let mut first = FleetAggregator::builder()
            .wal(&dir, FsyncPolicy::EveryFrame)
            .bind("127.0.0.1:0")
            .expect("durable bind");
        let addr = first.local_addr().expect("tcp addr").to_string();
        let sink = FleetSink::connect(&addr, "unit", PmuEvent::DEFAULT, 16, 0).expect("connect");
        let mut out = io::sink();
        sink.on_delta(1, &delta(1, 7, 5), &mut out).expect("delta 1");
        sink.on_delta(2, &delta(2, 7, 3), &mut out).expect("delta 2");
        first.shutdown();
        drop(first);

        let builder = FleetAggregator::recover(&dir).expect("recovery replays");
        let report = builder.recovery_report().expect("report").clone();
        assert_eq!(report.producers.len(), 1);
        assert_eq!(report.producers[0].producer, "unit");
        assert_eq!(report.producers[0].frames, 2);
        assert_eq!(report.producers[0].last_epoch, 2);
        let second = builder.bind("127.0.0.1:0").expect("recovered bind");
        let status = second.status();
        assert_eq!(status[0].samples, 8, "the fold came back from the WAL");
        assert_eq!(status[0].last_epoch, 2);
        assert!(status[0].wal_bytes > 0);
        assert!(!status[0].connected, "recovered producers start disconnected");
        // A reconnecting producer is told to resume after the recovered epoch.
        let addr2 = second.local_addr().expect("tcp addr").to_string();
        let resumed =
            FleetSink::connect(&addr2, "unit", PmuEvent::DEFAULT, 16, 0).expect("reconnect");
        assert_eq!(resumed.stats().acked_epoch, 2, "the hello ack carries the recovered epoch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_state_lock_keeps_the_aggregator_serving() {
        let aggregator = FleetAggregator::bind("127.0.0.1:0").expect("bind");
        let addr = aggregator.local_addr().expect("tcp addr").to_string();
        let shared = Arc::clone(&aggregator.shared);
        let panicked = thread::spawn(move || {
            let _state = shared.state();
            panic!("a connection handler panics holding the state lock");
        })
        .join();
        assert!(panicked.is_err() && aggregator.shared.state.is_poisoned());
        assert!(aggregator.status().is_empty(), "status still answers");
        aggregator.query(&Query::new()).expect("queries still answer");
        let sink = FleetSink::connect(&addr, "after", PmuEvent::DEFAULT, 16, 0)
            .expect("a new producer's hello is still acknowledged");
        sink.on_delta(1, &delta(1, 7, 5), &mut io::sink()).expect("delta");
        let status = aggregator.status();
        assert_eq!(
            (status[0].producer.as_str(), status[0].deltas, status[0].samples),
            ("after", 1, 5)
        );
        assert_eq!(sink.stats().acked_epoch, 1, "the delta was acknowledged");
    }
}
