//! Fleet profiling: a socket transport for epoch deltas plus an aggregator daemon
//! that serves the [`Query`] API over N producer processes.
//!
//! DJXPerf profiles one process; the production-scale deployment profiles fleets.
//! This module crosses the process boundary with the pieces the in-process pipeline
//! already guarantees: the export drainer ([`crate::export`]) retires epoch deltas,
//! the binary frame codec ([`crate::wire`]) frames them replayably, and
//! [`DeltaFold`] folds them back incrementally. Three parts:
//!
//! * [`FleetSink`] — a [`ProfileSink`] that ships each epoch frame over a TCP or
//!   Unix socket instead of a file. Plug it into
//!   [`SessionBuilder::stream_to_fleet`](crate::session::SessionBuilder::stream_to_fleet)
//!   and the profiled process needs no other change.
//! * [`FleetAggregator`] — the daemon: accepts producer connections, keeps one
//!   running [`DeltaFold`] per producer (incremental — history is never re-read),
//!   exposes the merged fleet as a [`ProfileSource`] ([`FleetAggregator::view`]),
//!   and answers [`Query`] requests, in process and over the same wire, by
//!   evaluating straight from the folds ([`FleetAggregator::query`]). The fold is
//!   the producer's stream state — header, first-seen thread names, the finish
//!   record — so ingest, WAL recovery, views and watches all read the same one;
//!   the aggregator adds only protocol counters and the write-ahead log.
//! * [`FleetClient`] — sends queries/status requests to an aggregator and returns
//!   the rendered results.
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
//! # Epoch / acknowledgement semantics
//!
//! Every frame is acknowledged synchronously with the fold's
//! [`last_epoch`](DeltaFold::last_epoch). The hello acknowledgement tells a
//! reconnecting producer where to resume: the sink trims its unacknowledged buffer
//! to frames **after** that epoch and re-sends the rest, so a connection lost
//! mid-frame (or an acknowledgement lost in flight) backfills without loss and
//! without double-folding. The aggregator never folds an epoch twice:
//! [`DeltaFold::absorb_ordered`] rejects out-of-order epochs, and a rejected
//! duplicate is dropped and re-acknowledged (counted in
//! [`ProducerStatus::duplicates`]).
//!
//! # Truncation detection
//!
//! The finish frame carries the run's `total_samples` checksum; the aggregator
//! refuses it ([`crate::profile::FoldError::ChecksumMismatch`]) unless the folded
//! samples agree, so
//! silent gaps cannot end a stream cleanly. A producer that disconnects **without**
//! a finish keeps its partial fold queryable but flagged
//! ([`ProducerStatus::truncated`], [`FleetProducer::truncated`]) until it
//! reconnects and finishes — loss is always visible, end to end.
//!
//! Deltas are self-describing — each carries its allocation counts and the sites
//! interned since the previous one — so a producer's partial (pre-finish) fold,
//! running or crashed, answers every query axis, object-grouped included, at every
//! epoch. A delta whose sites do not join the fold's table is refused
//! ([`crate::profile::FoldError::SiteGap`]). Choosing a deployment (in-process /
//! log replay / fleet daemon) is covered in the README's "Fleet profiling" section.
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
//! The header line uses the text rendering's `key=value` fields and escaping
//! (backslash, space, tab, LF and CR escaped), so any producer name fits on the
//! one line. [`BinaryFrameReader`] replays the body unmodified.
//! [`FleetAggregator::recover`] scans a WAL directory, replays every log through a
//! fresh [`DeltaFold`] with the calls ingest made — [`DeltaFold::absorb_ordered`]
//! and [`DeltaFold::finish`], lossy when the checksum cannot hold — truncating a
//! torn tail after a mid-append crash (any frame the fold refuses ends replay), and
//! returns a builder whose aggregator resumes exactly where the old one died:
//! reconnecting producers learn the recovered fold's last epoch from the hello
//! acknowledgement, re-send what is missing, and have re-sent duplicates dropped
//! and re-acknowledged. Durability against an OS or machine crash (not just a
//! process crash) is governed by the [`FsyncPolicy`] knob.
//!
//! # Failure model
//!
//! Producer crash → partial fold stays queryable, flagged truncated. Aggregator
//! crash → restart with [`FleetAggregator::recover`]; producers buffer (bounded by
//! [`FleetSinkBuilder::buffer_budget_bytes`], spilling to disk under the default
//! [`OverflowPolicy::SpillThenBlock`]), reconnect under capped jittered backoff
//! ([`BackoffPolicy`]), and backfill losslessly. Only a spill file that fails or
//! fills holds the export drainer, and even then no snapshot or flush waits: the
//! export queue merges the deltas arriving meanwhile. A hung peer trips the ack
//! deadline ([`FleetSinkBuilder::ack_deadline`]) instead of wedging the export
//! drainer: the frame fails back into the buffer and is re-sent after reconnect.
//! Losses chosen via [`OverflowPolicy::DropOldestEpochsFlaggedLossy`] are counted
//! ([`ProducerStatus::dropped_epochs`]) and flag the producer truncated. The
//! deterministic [`FaultPlan`] harness injects drops, delays, black holes and
//! frame corruption at exact frame ordinals on either side, so every one of these
//! paths is tested, not assumed. The README's "Failure model" section tabulates
//! failure × guarantee.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use djx_pmu::PmuEvent;

use crate::profile::{
    escape, event_from_name, parse_kv, parse_u64, unescape, DeltaFold, FoldError,
    ObjectCentricProfile, ProfileDelta,
};
use crate::query::live::for_watches;
use crate::query::{GroupState, ProfileSource, Query, QueryError, QueryResult};
use crate::sink::{FinishRecord, LogRecord, ProfileSink};
use crate::wire::{self, BinaryChunkedSink, BinaryFrameReader, Control, Hello, WireRecord};

/// Current version of the fleet wire protocol: version 3 carries every record —
/// epoch frames and control records alike — as a binary [`crate::wire`] frame.
pub(crate) const FLEET_VERSION: u64 = 3;

/// The first two fields of the WAL header line. The version moves with
/// [`BINARY_VERSION`](crate::wire::BINARY_VERSION): v4 logs hold version-3 frames.
/// Recovery refuses a WAL of another version instead of reading its frames as a
/// torn tail and truncating them.
const WAL_MAGIC: &str = "djxperf-wal v4";

/// Bound on each TCP connection attempt: without one, a black-holed address
/// hangs the first delivery for the OS default (minutes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

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

/// On-disk budget for spilled frames: [`OverflowPolicy::SpillThenBlock`] blocks
/// once the spill file would outgrow it.
const SPILL_BUDGET: u64 = 1024 * 1024 * 1024;

// ---------------------------------------------------------------------------------------
// Stream plumbing: one enum over TCP and Unix sockets
// ---------------------------------------------------------------------------------------

/// A connected socket of either family.
#[derive(Debug)]
enum WireStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    fn try_clone(&self) -> io::Result<WireStream> {
        match self {
            WireStream::Tcp(s) => Ok(WireStream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            WireStream::Unix(s) => Ok(WireStream::Unix(s.try_clone()?)),
        }
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            WireStream::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }

    /// Arms one deadline on the socket's reads and writes. A read past the
    /// deadline fails with [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`];
    /// the producer link treats that as a transport failure — the frame stays
    /// buffered, the connection is dropped, and the drainer moves on.
    fn set_io_timeouts(&self, deadline: Duration) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => {
                s.set_read_timeout(Some(deadline))?;
                s.set_write_timeout(Some(deadline))
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                s.set_read_timeout(Some(deadline))?;
                s.set_write_timeout(Some(deadline))
            }
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener of either family.
#[derive(Debug)]
enum WireListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl WireListener {
    /// Accepts one connection. An error ends only this attempt: a stream whose
    /// `set_nodelay` fails is dropped here, and the listener stays usable.
    fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Frames are small and acknowledged synchronously; never batch them.
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            #[cfg(unix)]
            WireListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Unix(stream))
            }
        }
    }
}

/// Where a producer sink or query client connects (reconnection re-resolves it).
#[derive(Debug, Clone)]
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Target {
    /// Connects. TCP resolves the address and tries each candidate under
    /// [`TcpStream::connect_timeout`] with [`CONNECT_TIMEOUT`]; Unix-socket
    /// connects are local rendezvous with no std timeout — they cannot black-hole
    /// the way a routed TCP address can.
    fn connect(&self) -> io::Result<WireStream> {
        match self {
            Target::Tcp(addr) => {
                let mut last_error = None;
                for candidate in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
                        Ok(stream) => {
                            stream.set_nodelay(true)?;
                            return Ok(WireStream::Tcp(stream));
                        }
                        Err(e) => last_error = Some(e),
                    }
                }
                Err(last_error.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("address {addr:?} resolved to no candidates"),
                    )
                }))
            }
            #[cfg(unix)]
            Target::Unix(path) => Ok(WireStream::Unix(UnixStream::connect(path)?)),
        }
    }
}

// ---------------------------------------------------------------------------------------
// Control-record plumbing
// ---------------------------------------------------------------------------------------

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Writes one control record as a frame.
fn send(writer: &mut impl Write, control: &Control) -> io::Result<()> {
    writer.write_all(&control.to_frame()?)
}

/// Reads the aggregator's next reply frame. Transport failures (a tripped
/// deadline, a closed connection) keep their [`io::ErrorKind`]; anything the
/// frame parser refuses — a bad checksum included — is
/// [`io::ErrorKind::InvalidData`].
fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Control> {
    if wire::at_end(reader)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "aggregator closed the connection",
        ));
    }
    match wire::read_binary_frame(reader, &mut Vec::new()) {
        Ok(WireRecord::Control(control)) => Ok(control),
        Ok(WireRecord::Log(_)) => Err(protocol_error("aggregator replied with an epoch frame")),
        Err(e) => Err(protocol_error(format!("malformed aggregator reply: {}", e.message))),
    }
}

// ---------------------------------------------------------------------------------------
// Failure-handling policy: backoff, overflow, fsync, fault injection
// ---------------------------------------------------------------------------------------

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

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runtime state of a [`BackoffPolicy`]: the attempt counter, the jitter stream and
/// the total delay handed out.
#[derive(Debug)]
struct Backoff {
    policy: BackoffPolicy,
    attempt: u32,
    rng: u64,
    waited: Duration,
}

impl Backoff {
    fn new(policy: BackoffPolicy) -> Backoff {
        // A zero seed would freeze xorshift at zero; nudge it onto the cycle.
        Backoff { policy, attempt: 0, rng: policy.seed | 1, waited: Duration::ZERO }
    }

    /// Every delay handed out so far in whole milliseconds, rounded up: a
    /// sub-millisecond backoff still reports as waited.
    fn waited_ms(&self) -> u64 {
        u64::try_from(self.waited.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
    }

    /// The next jittered delay; advances the attempt counter.
    fn next_delay(&mut self) -> Duration {
        let initial = self.policy.initial.as_micros() as u64;
        let max = self.policy.max.as_micros() as u64;
        let cap = initial.saturating_mul(1u64 << self.attempt.min(20)).min(max).max(1);
        self.attempt = self.attempt.saturating_add(1);
        let half = cap / 2;
        let jittered = Duration::from_micros(half + xorshift64(&mut self.rng) % (cap - half + 1));
        self.waited += jittered;
        jittered
    }

    /// Back to the initial cap after a successful handshake.
    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// What happens when a producer's unacknowledged-frame buffer exceeds its byte
/// budget ([`FleetSinkBuilder::buffer_budget_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Spill overflowing frames to a temporary file of binary wire frames and
    /// backfill from it once the buffer drains. Only when the spill file cannot
    /// be written, or would outgrow its 1 GiB budget, does the caller (the export
    /// drainer) block until the aggregator drains the buffer; the export queue
    /// then merges the deltas arriving meanwhile (see [`crate::export`]). A
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

/// A one-shot injected fault at a frame ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Close the connection instead of handling the frame.
    Drop,
    /// Sleep this long before handling the frame (a slow peer).
    Delay(Duration),
    /// Deliver the frame corrupted: sink-side a flipped checksum byte (the
    /// aggregator rejects the frame), aggregator-side a mangled acknowledgement
    /// (its checksum fails, so the producer rejects it).
    Corrupt,
}

/// What a fault lookup resolved to (the persistent black hole has no
/// [`FaultAction`] form).
#[derive(Debug, Clone, Copy)]
enum FaultEffect {
    Drop,
    Delay(Duration),
    Corrupt,
    BlackHole,
}

/// A deterministic fault schedule keyed by frame ordinal — the public
/// generalization of the old private drop-the-connection test hook.
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

    fn effect(&self, frame: u64) -> Option<FaultEffect> {
        if self.black_hole_from.is_some_and(|from| frame >= from) {
            return Some(FaultEffect::BlackHole);
        }
        match self.actions.get(&frame)? {
            FaultAction::Drop => Some(FaultEffect::Drop),
            FaultAction::Delay(d) => Some(FaultEffect::Delay(*d)),
            FaultAction::Corrupt => Some(FaultEffect::Corrupt),
        }
    }
}

/// Sink-side fault bookkeeping: the plan plus the delivery-attempt counter.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    seen: u64,
}

impl FaultState {
    fn next(&mut self) -> Option<FaultEffect> {
        self.seen += 1;
        self.plan.effect(self.seen)
    }
}

// ---------------------------------------------------------------------------------------
// PendingBuffer: the bounded unacknowledged-frame buffer with a spill-to-disk tier
// ---------------------------------------------------------------------------------------

/// Names a process-unique spill file (several sinks may share one directory).
fn spill_file_path(dir: &Path) -> PathBuf {
    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("djxperf-fleet-spill-{}-{seq}.bin", std::process::id()))
}

/// The disk tier of a [`PendingBuffer`]: a temporary file of
/// `u64 epoch-key (LE, 0 = finish) · u8 sites flag · u32 length (LE) · frame bytes`
/// records, appended at the tail and consumed from a read cursor. Deleted on drop.
#[derive(Debug)]
struct SpillFile {
    file: File,
    path: PathBuf,
    read_off: u64,
    write_off: u64,
    frames: u64,
}

impl SpillFile {
    fn create(dir: &Path) -> io::Result<SpillFile> {
        let path = spill_file_path(dir);
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        Ok(SpillFile { file, path, read_off: 0, write_off: 0, frames: 0 })
    }

    fn bytes_on_disk(&self) -> u64 {
        self.write_off - self.read_off
    }

    fn append(&mut self, frame: &PendingFrame) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.write_off))?;
        self.file.write_all(&frame.epoch.unwrap_or(0).to_le_bytes())?;
        self.file.write_all(&[u8::from(frame.sites)])?;
        self.file.write_all(&(frame.bytes.len() as u32).to_le_bytes())?;
        self.file.write_all(&frame.bytes)?;
        self.write_off += 13 + frame.bytes.len() as u64;
        self.frames += 1;
        Ok(())
    }

    /// Reads the record at the cursor; the caller tracks `frames`.
    fn read_next(&mut self) -> io::Result<PendingFrame> {
        self.file.seek(SeekFrom::Start(self.read_off))?;
        let mut header = [0u8; 13];
        self.file.read_exact(&mut header)?;
        let epoch_key = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[9..].try_into().expect("4 bytes"));
        let mut bytes = vec![0u8; len as usize];
        self.file.read_exact(&mut bytes)?;
        self.read_off += 13 + u64::from(len);
        Ok(PendingFrame {
            epoch: (epoch_key != 0).then_some(epoch_key),
            sites: header[8] != 0,
            bytes,
        })
    }

    /// Rewinds an emptied file so the space is reused instead of growing forever.
    fn reset(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.frames, 0);
        self.file.set_len(0)?;
        self.read_off = 0;
        self.write_off = 0;
        Ok(())
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The bounded buffer of unacknowledged frames: an in-memory deque up to a byte
/// budget, then the [`OverflowPolicy`] — spill tier (blocking the caller only
/// when it fails or fills) or oldest-epoch drops. Frame order is strictly preserved: once frames have
/// spilled, new frames spill too (they are younger than everything on disk) until
/// the file drains and resets.
#[derive(Debug)]
struct PendingBuffer {
    mem: VecDeque<PendingFrame>,
    mem_bytes: usize,
    budget: usize,
    policy: OverflowPolicy,
    spill_dir: PathBuf,
    spill: Option<SpillFile>,
    /// Reconnect trim watermark: spilled delta frames at or below it are already
    /// folded aggregator-side and are discarded (and counted) at refill.
    trim_below: u64,
    spilled_frames: u64,
    dropped_epochs: u64,
}

impl PendingBuffer {
    fn new(budget: usize, policy: OverflowPolicy, spill_dir: PathBuf) -> PendingBuffer {
        PendingBuffer {
            mem: VecDeque::new(),
            mem_bytes: 0,
            budget,
            policy,
            spill_dir,
            spill: None,
            trim_below: 0,
            spilled_frames: 0,
            dropped_epochs: 0,
        }
    }

    fn spill_active(&self) -> bool {
        self.spill.as_ref().is_some_and(|s| s.frames > 0)
    }

    /// Frames awaiting delivery (memory plus disk).
    fn len(&self) -> u64 {
        self.mem.len() as u64 + self.spill.as_ref().map_or(0, |s| s.frames)
    }

    /// Offers a frame; `Err(frame)` hands it back when the spill tier fails or
    /// fills and the caller must block.
    /// The terminal finish frame (`epoch == None`) is never refused and never
    /// dropped — it must be the last frame out, whatever the budget says.
    #[allow(clippy::result_large_err)]
    fn offer(&mut self, frame: PendingFrame) -> Result<(), PendingFrame> {
        let len = frame.bytes.len();
        let is_finish = frame.epoch.is_none();
        if !self.spill_active() && (self.mem.is_empty() || self.mem_bytes + len <= self.budget) {
            self.mem_bytes += len;
            self.mem.push_back(frame);
            return Ok(());
        }
        match self.policy {
            OverflowPolicy::SpillThenBlock => {
                let spill = match &mut self.spill {
                    Some(spill) => spill,
                    None => match SpillFile::create(&self.spill_dir) {
                        Ok(spill) => self.spill.insert(spill),
                        // No spill file (unwritable dir): degrade to blocking.
                        Err(_) => return Err(frame),
                    },
                };
                if !is_finish && spill.bytes_on_disk() + len as u64 > SPILL_BUDGET {
                    return Err(frame);
                }
                // A full disk degrades to blocking too — the frame is handed
                // back intact, never half-written (append seeks per record).
                match spill.append(&frame) {
                    Ok(()) => {
                        self.spilled_frames += 1;
                        Ok(())
                    }
                    Err(_) => Err(frame),
                }
            }
            OverflowPolicy::DropOldestEpochsFlaggedLossy => {
                // Frames carrying site definitions survive: without one, every
                // later delta would be refused for its site gap.
                while self.mem_bytes + len > self.budget {
                    let Some(oldest) = self.mem.iter().position(|f| f.epoch.is_some() && !f.sites)
                    else {
                        break;
                    };
                    let dropped = self.mem.remove(oldest).expect("position is in range");
                    self.mem_bytes -= dropped.bytes.len();
                    self.dropped_epochs += 1;
                }
                self.mem_bytes += len;
                self.mem.push_back(frame);
                Ok(())
            }
        }
    }

    fn pop_front(&mut self) -> Option<PendingFrame> {
        let frame = self.mem.pop_front();
        if let Some(frame) = &frame {
            self.mem_bytes -= frame.bytes.len();
        }
        frame
    }

    /// Discards frames the aggregator has already folded (reconnect handshake
    /// told us so); returns how many were trimmed from memory — spilled frames
    /// are trimmed lazily at refill against the watermark.
    fn trim_acked(&mut self, acked: u64) -> u64 {
        self.trim_below = self.trim_below.max(acked);
        let mut trimmed = 0;
        while self.mem.front().is_some_and(|f| f.epoch.is_some_and(|e| e <= acked)) {
            let _ = self.pop_front();
            trimmed += 1;
        }
        trimmed
    }

    /// Moves spilled frames back into memory, oldest first, up to the budget.
    /// Safe whenever the spill tier is non-empty: everything on disk is younger
    /// than everything in memory.
    fn refill(&mut self) -> io::Result<u64> {
        let mut trimmed = 0;
        let Some(spill) = &mut self.spill else {
            return Ok(0);
        };
        while spill.frames > 0 && (self.mem.is_empty() || self.mem_bytes < self.budget) {
            let frame = spill.read_next()?;
            spill.frames -= 1;
            if frame.epoch.is_some_and(|e| e <= self.trim_below) {
                trimmed += 1;
                continue;
            }
            self.mem_bytes += frame.bytes.len();
            self.mem.push_back(frame);
        }
        if spill.frames == 0 {
            spill.reset()?;
        }
        Ok(trimmed)
    }

    fn clear(&mut self) {
        self.mem.clear();
        self.mem_bytes = 0;
        // Dropping the spill file deletes it.
        self.spill = None;
    }
}

// ---------------------------------------------------------------------------------------
// FleetSink: the producer-side transport
// ---------------------------------------------------------------------------------------

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
    /// Highest epoch the aggregator has acknowledged.
    pub acked_epoch: u64,
    /// Frames awaiting delivery right now (in memory plus spilled to disk).
    pub pending_frames: u64,
    /// Frames that have ever overflowed to the spill tier
    /// ([`OverflowPolicy::SpillThenBlock`]).
    pub spilled_frames: u64,
    /// Buffered epochs dropped under
    /// [`OverflowPolicy::DropOldestEpochsFlaggedLossy`] — reported to the
    /// aggregator with the next hello, which flags the producer truncated.
    pub dropped_epochs: u64,
    /// Cumulative reconnect backoff scheduled, in milliseconds.
    pub reconnect_backoff_ms: u64,
}

/// One buffered, not-yet-acknowledged wire frame. Delta frames carry their epoch
/// (the reconnect trim key); the terminal finish frame carries `None` and is never
/// trimmed.
#[derive(Debug)]
struct PendingFrame {
    epoch: Option<u64>,
    /// The frame defines allocation sites: never dropped for room.
    sites: bool,
    bytes: Vec<u8>,
}

#[derive(Debug)]
struct Conn {
    writer: WireStream,
    reader: BufReader<WireStream>,
}

/// The sink-side failure knobs, frozen at build time.
#[derive(Debug)]
struct LinkConfig {
    ack_deadline: Duration,
    finish_deadline: Duration,
}

#[derive(Debug)]
struct Link {
    target: Target,
    /// The hello this producer sends; [`Link::hello_record`] fills in the current
    /// loss/backoff counters.
    hello: Hello,
    conn: Option<Conn>,
    pending: PendingBuffer,
    severed: bool,
    stats: FleetSinkStats,
    config: LinkConfig,
    backoff: Backoff,
    /// While set, reconnection is gated: attempts before this instant fail fast
    /// with [`io::ErrorKind::WouldBlock`] and frames keep buffering.
    next_attempt: Option<Instant>,
    faults: Option<FaultState>,
}

impl Link {
    /// The hello record, carrying the current loss/backoff counters.
    fn hello_record(&self) -> Control {
        Control::Hello(Hello {
            spilled_frames: self.pending.spilled_frames,
            dropped_epochs: self.pending.dropped_epochs,
            backoff_ms: self.stats.reconnect_backoff_ms,
            ..self.hello.clone()
        })
    }

    /// Connects (or reconnects) and runs the hello handshake, under the reconnect
    /// backoff gate: while a previous failure's jittered delay is pending, the
    /// attempt fails fast (frames keep buffering) instead of hammering the peer.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.severed {
            return Err(protocol_error("fleet link severed"));
        }
        if self.conn.is_some() {
            return Ok(());
        }
        if let Some(at) = self.next_attempt {
            if Instant::now() < at {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "reconnect backoff in progress",
                ));
            }
        }
        match self.try_handshake() {
            Ok(()) => {
                self.backoff.reset();
                self.next_attempt = None;
                Ok(())
            }
            Err(e) => {
                let delay = self.backoff.next_delay();
                self.stats.reconnect_backoff_ms = self.backoff.waited_ms();
                self.next_attempt = Some(Instant::now() + delay);
                Err(e)
            }
        }
    }

    /// One connection attempt plus the hello handshake: the acknowledgement
    /// carries the aggregator's last folded epoch for this producer, and the
    /// pending buffer is trimmed to frames after it — the backfill resume point.
    fn try_handshake(&mut self) -> io::Result<()> {
        let writer = self.target.connect()?;
        writer.set_io_timeouts(self.config.ack_deadline)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut conn = Conn { writer, reader };
        send(&mut conn.writer, &self.hello_record())?;
        conn.writer.flush()?;
        let acked = match read_reply(&mut conn.reader)? {
            Control::Ack { epoch, .. } => epoch,
            Control::Error(message) => {
                return Err(protocol_error(format!("aggregator refused hello: {message}")))
            }
            other => {
                return Err(protocol_error(format!(
                    "expected an ack to the hello frame, got a {} record",
                    other.name()
                )))
            }
        };
        self.stats.connects += 1;
        self.stats.acked_epoch = self.stats.acked_epoch.max(acked);
        self.stats.frames_trimmed += self.pending.trim_acked(acked);
        self.conn = Some(conn);
        Ok(())
    }

    /// Delivers every pending frame in order, each acknowledged synchronously. On a
    /// transport failure — including a tripped ack deadline — the connection is
    /// dropped and the undelivered frames stay buffered for the next attempt; the
    /// caller (the export drainer) is never wedged by a hung peer.
    fn pump(&mut self) -> io::Result<()> {
        self.ensure_connected()?;
        loop {
            self.stats.frames_trimmed += self.pending.refill()?;
            let Some(frame) = self.pending.mem.front() else { break };
            let conn = self.conn.as_mut().expect("ensure_connected leaves a connection");
            let effect = self.faults.as_mut().and_then(FaultState::next);
            let written = match effect {
                Some(FaultEffect::Drop) => Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "fault injection: connection dropped before the frame write",
                )),
                // Swallow the write; the ack read below starves until the
                // deadline — exactly what a hung peer looks like.
                Some(FaultEffect::BlackHole) => Ok(()),
                Some(FaultEffect::Delay(d)) => {
                    thread::sleep(d);
                    conn.writer.write_all(&frame.bytes).and_then(|()| conn.writer.flush())
                }
                Some(FaultEffect::Corrupt) => {
                    let mut corrupted = frame.bytes.clone();
                    // Flip the second-to-last byte, inside the frame's checksum:
                    // the aggregator rejects the frame, never folds it.
                    if let Some(i) = corrupted.len().checked_sub(2) {
                        corrupted[i] ^= 0xFF;
                    }
                    conn.writer.write_all(&corrupted).and_then(|()| conn.writer.flush())
                }
                None => conn.writer.write_all(&frame.bytes).and_then(|()| conn.writer.flush()),
            };
            let delivery = written.and_then(|()| read_reply(&mut conn.reader));
            let is_finish = frame.epoch.is_none();
            match delivery {
                Ok(Control::Ack { epoch, terminal }) => {
                    if is_finish && !terminal {
                        // The finish frame must be answered by the terminal ack;
                        // anything else means the aggregator never folded it.
                        self.conn = None;
                        return Err(protocol_error("finish frame acknowledged as non-terminal"));
                    }
                    self.stats.acked_epoch = self.stats.acked_epoch.max(epoch);
                    self.stats.frames_sent += 1;
                    let _ = self.pending.pop_front();
                }
                Ok(Control::Error(message)) => {
                    // A protocol-level refusal (e.g. checksum mismatch), not a
                    // transport blip: surface it. The frame stays pending so the
                    // failure repeats rather than vanishing.
                    self.conn = None;
                    return Err(protocol_error(format!("aggregator rejected frame: {message}")));
                }
                Ok(other) => {
                    self.conn = None;
                    return Err(protocol_error(format!(
                        "expected an ack frame, got a {} record",
                        other.name()
                    )));
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn drop_connection(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.writer.shutdown();
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
            producer: producer.to_string(),
            event,
            period,
            size_filter,
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
        let link = self.link.lock().expect("fleet link lock");
        let mut stats = link.stats;
        stats.pending_frames = link.pending.len();
        stats.spilled_frames = link.pending.spilled_frames;
        stats.dropped_epochs = link.pending.dropped_epochs;
        stats
    }

    /// Attempts delivery of every buffered frame right now — reconnecting under
    /// the backoff policy if needed — and returns the number of frames still
    /// pending afterwards (0 = fully delivered and acknowledged). Delivery
    /// normally rides on the next streamed delta or the finish frame; a producer
    /// that goes **idle** with frames buffered through an outage quiesces by
    /// polling this instead. A failed attempt leaves the frames buffered,
    /// exactly like a delivery failure under [`ProfileSink::on_delta`].
    pub fn flush_pending(&self) -> u64 {
        let mut link = self.link.lock().expect("fleet link lock");
        let _ = link.pump();
        link.pending.len()
    }

    /// Fault injection for reconnect testing: drops the current connection without
    /// telling the aggregator (as a network partition would). The next frame
    /// reconnects, re-handshakes and backfills; nothing is lost.
    pub fn disconnect(&self) {
        self.link.lock().expect("fleet link lock").drop_connection();
    }

    /// Fault injection for crash testing: drops the connection and disables the
    /// link permanently, as if the producer process died mid-run. Subsequent deltas
    /// are discarded and [`ProfileSink::on_finish`] fails — on the aggregator the
    /// producer's partial fold stays queryable, flagged truncated.
    pub fn sever(&self) {
        let mut link = self.link.lock().expect("fleet link lock");
        link.severed = true;
        link.drop_connection();
        link.pending.clear();
    }
}

impl Drop for FleetSink {
    fn drop(&mut self) {
        // Best-effort terminal delivery: a sink dropped with frames still buffered
        // through an outage tries once more instead of silently discarding them.
        // Failures stay non-fatal — the drop path must never block shutdown on a
        // dead aggregator (the backoff policy caps the attempt), and a sink with
        // nothing pending (the common clean-finish case) must not reconnect at all.
        let has_pending = {
            let link = self.link.lock().expect("fleet link lock");
            !link.severed && link.pending.len() > 0
        };
        if has_pending {
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
    producer: String,
    event: PmuEvent,
    period: u64,
    size_filter: u64,
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
            BackoffPolicy::default().seed(u64::from(wire::fnv1a(self.producer.as_bytes())))
        })
    }

    fn connect_target(self, target: Target) -> io::Result<FleetSink> {
        let backoff = Backoff::new(self.backoff_policy());
        let hello = Hello {
            producer: self.producer,
            event: self.event,
            period: self.period,
            size_filter: self.size_filter,
            spilled_frames: 0,
            dropped_epochs: 0,
            backoff_ms: 0,
        };
        let spill_dir = self.spill_dir.unwrap_or_else(std::env::temp_dir);
        let mut link = Link {
            target,
            hello,
            conn: None,
            pending: PendingBuffer::new(self.buffer_budget, self.overflow, spill_dir),
            severed: false,
            stats: FleetSinkStats::default(),
            config: LinkConfig {
                ack_deadline: self.ack_deadline,
                finish_deadline: self.finish_deadline,
            },
            backoff,
            next_attempt: None,
            faults: self.fault_plan.map(|plan| FaultState { plan, seen: 0 }),
        };
        link.ensure_connected()?;
        Ok(FleetSink { link: Mutex::new(link) })
    }
}

impl ProfileSink for FleetSink {
    /// Frames the delta as a [`crate::wire`] delta frame and ships it (`out`
    /// is unused — the socket is the destination). Transport failures are
    /// absorbed: the frame stays buffered (spilling to disk past the byte budget
    /// under the default policy) and the next delta (or the finish) retries after
    /// reconnecting, gated by the backoff schedule. Only when the spill tier of
    /// [`OverflowPolicy::SpillThenBlock`] fails or fills does this wait —
    /// releasing the link lock between attempts so [`FleetSink::sever`] stays
    /// reachable.
    fn on_delta(&self, epoch: u64, delta: &ProfileDelta, _out: &mut dyn Write) -> io::Result<()> {
        let mut encoded: Option<Vec<u8>> = None;
        loop {
            let mut link = self.link.lock().expect("fleet link lock");
            if link.severed {
                return Ok(());
            }
            let bytes = match encoded.take() {
                Some(bytes) => bytes,
                None => {
                    let mut bytes = Vec::new();
                    BinaryChunkedSink.on_delta(epoch, delta, &mut bytes)?;
                    bytes
                }
            };
            let frame = PendingFrame { epoch: Some(epoch), sites: !delta.sites.is_empty(), bytes };
            match link.pending.offer(frame) {
                Ok(()) => {
                    let _ = link.pump();
                    return Ok(());
                }
                Err(frame) => {
                    // Spill tier failed or full: drain what we can, release the
                    // lock, retry. The export queue merges the deltas arriving
                    // meanwhile; nothing is silently dropped.
                    let _ = link.pump();
                    encoded = Some(frame.bytes);
                    drop(link);
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Ships the terminal finish frame and waits for its acknowledgement,
    /// reconnecting under the backoff policy until the configured finish
    /// deadline. An error here means the aggregator never confirmed the complete
    /// stream — the loss is reported, never silent.
    fn on_finish(&self, record: &FinishRecord, _out: &mut dyn Write) -> io::Result<()> {
        let mut link = self.link.lock().expect("fleet link lock");
        if link.severed {
            return Err(protocol_error("fleet link severed before the finish frame"));
        }
        let mut bytes = Vec::new();
        BinaryChunkedSink.on_finish(record, &mut bytes)?;
        if link.pending.offer(PendingFrame { epoch: None, sites: false, bytes }).is_err() {
            // Only a failing spill tier refuses a finish frame; queueing it in
            // memory would deliver it ahead of the spilled deltas, so surface
            // the loss instead.
            return Err(io::Error::other(
                "spill tier failed; the finish frame cannot be queued behind spilled deltas",
            ));
        }
        let deadline = Instant::now() + link.config.finish_deadline;
        let mut last_error: Option<io::Error> = None;
        loop {
            // Wait out a pending backoff gate (bounded by the deadline).
            if let Some(at) = link.next_attempt {
                let now = Instant::now();
                if at > now {
                    if at >= deadline {
                        break;
                    }
                    thread::sleep(at - now);
                }
            }
            match link.pump() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if link.severed {
                        return Err(e);
                    }
                    last_error = Some(e);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if link.next_attempt.is_none() {
                // Delivery failed without arming the backoff gate (an ack
                // deadline trip on a live connection): pause briefly so the
                // retry loop never spins hot.
                thread::sleep(Duration::from_millis(5).min(deadline - now));
            }
        }
        Err(last_error.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "finish deadline exceeded before delivery")
        }))
    }
}

// ---------------------------------------------------------------------------------------
// FleetAggregator: the daemon
// ---------------------------------------------------------------------------------------

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
    /// [`OverflowPolicy::DropOldestEpochsFlaggedLossy`]. Nonzero flags the
    /// producer truncated and relaxes the finish-frame sample checksum — the
    /// loss was chosen and declared, so it is surfaced rather than refused.
    pub dropped_epochs: u64,
    /// Cumulative reconnect backoff the producer reports having scheduled, in
    /// milliseconds — the remote view of how rough this link's life has been.
    pub reconnect_backoff_ms: u64,
}

// ---------------------------------------------------------------------------------------
// The write-ahead log: per-producer durability and crash recovery
// ---------------------------------------------------------------------------------------

/// Maps a producer name to its WAL file: a sanitized slug for human readability
/// plus an FNV-1a hash of the exact name for uniqueness (the header line inside
/// the file carries the authoritative name, so sanitization may be lossy).
fn wal_path(dir: &Path, producer: &str) -> PathBuf {
    let hash = wire::fnv1a(producer.as_bytes());
    let slug: String = producer
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .take(48)
        .collect();
    dir.join(format!("{slug}-{hash:08x}.wal"))
}

fn wal_header_line(producer: &str, event: PmuEvent, period: u64, size_filter: u64) -> String {
    format!(
        "{WAL_MAGIC} producer={} event={} period={period} size_filter={size_filter}\n",
        escape(producer),
        event.hardware_name(),
    )
}

/// Parses a WAL header line (without its newline) into
/// `(producer, event, period, size_filter)`.
fn parse_wal_header(line: &str) -> Result<(String, PmuEvent, u64, u64), String> {
    let version = line.strip_prefix("djxperf-wal ").and_then(|rest| rest.split(' ').next());
    let fields = line
        .strip_prefix(WAL_MAGIC)
        .filter(|rest| rest.is_empty() || rest.starts_with(' '))
        .ok_or_else(|| match version {
            Some(version) => format!(
                "WAL format version {version} is not supported (this build reads {WAL_MAGIC:?})"
            ),
            None => format!("the header does not start with {WAL_MAGIC:?}"),
        })?;
    let kv = parse_kv(fields.split_whitespace());
    let producer = kv.get("producer").ok_or("the header misses the producer")?;
    let event =
        event_from_name(kv.get("event").map_or("", String::as_str)).map_err(|e| e.to_string())?;
    Ok((unescape(producer), event, parse_u64(&kv, "period")?, parse_u64(&kv, "size_filter")?))
}

/// One producer's write-ahead log: the header line followed by the received
/// [`crate::wire`] frames, appended verbatim **before** each acknowledgement, so
/// [`BinaryFrameReader`] replays it unmodified.
#[derive(Debug)]
struct Wal {
    file: File,
    bytes: u64,
    fsync: FsyncPolicy,
    appends_since_sync: u32,
}

impl Wal {
    /// Creates (truncating) the log for a fresh producer and writes the header.
    fn create(
        dir: &Path,
        producer: &str,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let path = wal_path(dir, producer);
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let header = wal_header_line(producer, event, period, size_filter);
        file.write_all(header.as_bytes())?;
        let mut wal = Wal { file, bytes: header.len() as u64, fsync, appends_since_sync: 0 };
        wal.sync_point()?;
        Ok(wal)
    }

    /// Reopens a recovered log for appending at `bytes` (its post-truncation
    /// length).
    fn reopen(path: &Path, bytes: u64, fsync: FsyncPolicy) -> io::Result<Wal> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::Start(bytes))?;
        Ok(Wal { file, bytes, fsync, appends_since_sync: 0 })
    }

    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)?;
        self.bytes += frame.len() as u64;
        self.appends_since_sync += 1;
        self.sync_point()
    }

    fn sync_point(&mut self) -> io::Result<()> {
        let due = match self.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryFrame => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
        };
        if due {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }
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

/// Replays one WAL file. `Ok(None)` means the file never got past its header
/// line (crash mid-create) — nothing was acknowledged from it, so it is skipped
/// and overwritten when its producer reconnects.
///
/// # Errors
///
/// IO failures, and [`io::ErrorKind::InvalidData`] when its header line is
/// complete but does not parse (a foreign or older-format file): skipping it
/// would let the producer's reconnect overwrite acknowledged frames. The caller
/// names the file in every error.
fn recover_wal_file(
    path: &Path,
    fsync: FsyncPolicy,
) -> io::Result<Option<(String, ProducerState, ProducerRecovery)>> {
    let data = fs::read(path)?;
    let Some(header_end) = data.iter().position(|b| *b == b'\n') else {
        return Ok(None);
    };
    let (producer, event, period, size_filter) = std::str::from_utf8(&data[..header_end])
        .map_err(|e| e.to_string())
        .and_then(parse_wal_header)
        .map_err(|e| protocol_error(format!("unreadable header line: {e}")))?;
    let body = &data[header_end + 1..];
    let mut reader = BinaryFrameReader::new(body);
    let mut state = ProducerState::new(event, period, size_filter);
    let mut frames = 0u64;
    let mut torn = None;
    let mut good = header_end as u64 + 1;
    loop {
        let start = reader.byte_offset();
        let folded = match reader.next_record() {
            Ok(Some(LogRecord::Delta(delta))) => state.fold.absorb_ordered(&delta),
            Ok(Some(LogRecord::Finish(record))) => {
                // Ingest only ever accepted a checksum-failing finish from a
                // declared-lossy producer; restore the lossy flag (the exact drop
                // count returns with the producer's next hello).
                let lossy = state.fold.check_finish(&record, false).is_err();
                state.dropped_epochs = state.dropped_epochs.max(u64::from(lossy));
                state.fold.finish(record, lossy).map(drop)
            }
            Ok(None) => break,
            Err(e) => {
                torn = Some(e.to_string());
                break;
            }
        };
        if let Err(e) = folded {
            torn = Some(format!("binary frame {} at byte offset {start}: {e}", frames + 1));
            break;
        }
        frames += 1;
        good = header_end as u64 + 1 + reader.byte_offset();
    }
    let torn = torn.map(|why| {
        let cut = data.len() as u64 - good;
        format!("{why}; cut {cut} bytes at file offset {good}")
    });
    if torn.is_some() {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(good)?;
    }
    state.wal = Some(Wal::reopen(path, good, fsync)?);
    let recovery = ProducerRecovery {
        producer: producer.clone(),
        frames,
        last_epoch: state.fold.last_epoch().unwrap_or(0),
        finished: state.fold.is_finished(),
        torn_tail: torn,
        wal_bytes: good,
    };
    Ok(Some((producer, state, recovery)))
}

/// Per-producer aggregator state: the producer's fold (header, samples and finish
/// record) plus the protocol counters and the WAL.
#[derive(Debug, Default)]
struct ProducerState {
    fold: DeltaFold,
    connected: bool,
    /// Bumped at every hello; a connection handler only clears `connected` when its
    /// own generation is still current, so a reconnect racing the old handler's
    /// cleanup cannot be marked dead.
    generation: u64,
    resumes: u64,
    duplicates: u64,
    frames_received: u64,
    bytes_received: u64,
    /// This producer's write-ahead log, when the aggregator runs durable.
    wal: Option<Wal>,
    /// Producer-reported loss/backoff counters (hello frames carry them).
    spilled_frames: u64,
    dropped_epochs: u64,
    reconnect_backoff_ms: u64,
}

impl ProducerState {
    /// A producer whose stream announced `event`, `period` and `size_filter`,
    /// with nothing folded, not connected, without a WAL.
    fn new(event: PmuEvent, period: u64, size_filter: u64) -> ProducerState {
        let fold = DeltaFold::with_header(event, period, size_filter);
        ProducerState { fold, ..ProducerState::default() }
    }

    /// A declared-lossy stream: epochs were dropped by choice, so the finish
    /// checksum cannot hold and the producer stays flagged truncated.
    fn lossy(&self) -> bool {
        self.dropped_epochs > 0
    }

    fn truncated(&self) -> bool {
        (!self.connected && !self.fold.is_finished()) || self.lossy()
    }

    fn status(&self, name: &str) -> ProducerStatus {
        ProducerStatus {
            producer: name.to_string(),
            connected: self.connected,
            finished: self.fold.is_finished(),
            truncated: self.truncated(),
            deltas: self.fold.deltas(),
            last_epoch: self.fold.last_epoch().unwrap_or(0),
            samples: self.fold.total_samples(),
            resumes: self.resumes,
            duplicates: self.duplicates,
            frames_received: self.frames_received,
            bytes_received: self.bytes_received,
            wal_bytes: self.wal.as_ref().map_or(0, |w| w.bytes),
            spilled_frames: self.spilled_frames,
            dropped_epochs: self.dropped_epochs,
            reconnect_backoff_ms: self.reconnect_backoff_ms,
        }
    }
}

#[derive(Debug, Default)]
struct FleetState {
    /// Keyed by producer name: deterministic iteration order, so the fleet view
    /// lists producers the same way on every snapshot.
    producers: BTreeMap<String, ProducerState>,
    /// One row per connection handler that may still be running: its join handle
    /// and a clone of its stream, for shutdown. Finished rows are reaped at every
    /// accept, so reconnect churn cannot grow this without bound.
    handlers: Vec<(JoinHandle<()>, Option<WireStream>)>,
    /// Live query subscriptions ([`FleetAggregator::watch`]), fed under the state
    /// lock as producer frames are accepted; dead watches are pruned on the way.
    watches: Vec<std::sync::Weak<crate::query::live::WatchShared>>,
}

impl FleetState {
    /// The fleet-wide event/period header a query result reports: cold evaluation
    /// over a [`FleetView`] adopts the *last* producer profile's header
    /// (producer-name order), finished producers contributing their finish
    /// record's. The live path re-derives the same value whenever membership or
    /// finish state changes.
    fn fleet_meta(&self) -> Option<(PmuEvent, u64)> {
        self.producers.values().next_back().map(|p| p.fold.header())
    }

    /// Folds every producer's fold into `groups` in place, in name order — what
    /// evaluating a [`FleetView`] does, for [`AggregatorShared::evaluate`] and
    /// [`FleetAggregator::watch`].
    fn absorb_producers(&self, query: &Query, groups: &mut GroupState) {
        for p in self.producers.values() {
            groups.absorb_fold(query, &p.fold);
        }
    }

    /// Per-producer protocol status, in producer-name order.
    fn status(&self) -> Vec<ProducerStatus> {
        self.producers.iter().map(|(name, p)| p.status(name)).collect()
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
    /// Evaluates a query from the producers' folds in place. Only that walk holds
    /// the state lock: the query's filters are built before it, and the groups
    /// ranked and materialized after it.
    fn evaluate(&self, query: &Query) -> QueryResult {
        let mut groups = GroupState::new(query);
        self.state
            .lock()
            .expect("fleet state lock")
            .absorb_producers(query, &mut groups);
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
        FleetAggregatorBuilder { wal: None, faults: None, recovered: BTreeMap::new(), report: None }
    }

    /// Replays every `*.wal` file under `dir` through [`DeltaFold`] and returns a
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
        let mut recovered = BTreeMap::new();
        let mut report = RecoveryReport::default();
        for path in paths {
            let recovered_file = recover_wal_file(&path, fsync)
                .map_err(|e| io::Error::new(e.kind(), format!("WAL {}: {e}", path.display())))?;
            if let Some((producer, state, row)) = recovered_file {
                report.producers.push(row);
                recovered.insert(producer, state);
            }
        }
        report.producers.sort_by(|a, b| a.producer.cmp(&b.producer));
        Ok(FleetAggregatorBuilder {
            wal: Some((dir.to_path_buf(), fsync)),
            faults: None,
            recovered,
            report: Some(report),
        })
    }

    /// The recovery report, when this aggregator came from
    /// [`FleetAggregator::recover`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    fn start(
        listener: WireListener,
        tcp_addr: Option<SocketAddr>,
        #[cfg(unix)] unix_path: Option<PathBuf>,
        config: AggregatorConfig,
        producers: BTreeMap<String, ProducerState>,
        recovery: Option<RecoveryReport>,
    ) -> FleetAggregator {
        let shared = Arc::new(AggregatorShared {
            state: Mutex::new(FleetState { producers, ..FleetState::default() }),
            shutdown: AtomicBool::new(false),
            config,
            fault_frames: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle =
            thread::spawn(move || accept_loop(move || listener.accept(), accept_shared));
        FleetAggregator {
            shared,
            accept_handle: Some(accept_handle),
            tcp_addr,
            #[cfg(unix)]
            unix_path,
            recovery,
        }
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
        let state = self.shared.state.lock().expect("fleet state lock");
        let producers = state.producers.iter().map(|(name, p)| FleetProducer {
            producer: name.clone(),
            truncated: p.truncated(),
            profile: p.fold.clone().assemble(),
        });
        FleetView { producers: producers.collect() }
    }

    /// Per-producer protocol status, in producer-name order.
    pub fn status(&self) -> Vec<ProducerStatus> {
        self.shared.state.lock().expect("fleet state lock").status()
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
        let mut state = self.shared.state.lock().expect("fleet state lock");
        state.absorb_producers(query, &mut groups);
        let epoch = state.producers.values().filter_map(|p| p.fold.last_epoch()).max();
        let finished = self.shared.shutdown.load(Ordering::SeqCst);
        let watch = LiveQuery::seed_watch(query.clone(), groups, epoch, finished);
        state.watches.push(Arc::downgrade(&watch));
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
            let mut state = self.shared.state.lock().expect("fleet state lock");
            (std::mem::take(&mut state.handlers), std::mem::take(&mut state.watches))
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
#[derive(Debug)]
pub struct FleetAggregatorBuilder {
    wal: Option<(PathBuf, FsyncPolicy)>,
    faults: Option<FaultPlan>,
    recovered: BTreeMap<String, ProducerState>,
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
        self.wal = Some((dir.into(), fsync));
        for p in self.recovered.values_mut() {
            if let Some(w) = &mut p.wal {
                w.fsync = fsync;
            }
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
        self.faults = Some(plan);
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
        let tcp_addr = listener.local_addr()?;
        let config = AggregatorConfig { wal: self.wal, faults: self.faults };
        Ok(FleetAggregator::start(
            WireListener::Tcp(listener),
            Some(tcp_addr),
            #[cfg(unix)]
            None,
            config,
            self.recovered,
            self.report,
        ))
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
        let config = AggregatorConfig { wal: self.wal, faults: self.faults };
        Ok(FleetAggregator::start(
            WireListener::Unix(listener),
            None,
            Some(path.to_path_buf()),
            config,
            self.recovered,
            self.report,
        ))
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
        let mut state = shared.state.lock().expect("fleet state lock");
        // Reap exited handlers (joining a finished thread does not block) and
        // close the last clone of each one's stream.
        for (finished, _) in state.handlers.extract_if(.., |(h, _)| h.is_finished()) {
            let _ = finished.join();
        }
        state.handlers.push((handle, conn_clone));
    }
}

/// What a connection handler learned about its peer.
struct ConnCtx {
    /// Set once a hello frame arrives: the producer name and the generation this
    /// connection owns.
    producer: Option<(String, u64)>,
}

fn handle_connection(stream: WireStream, shared: Arc<AggregatorShared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut ctx = ConnCtx { producer: None };
    // The raw bytes of the current frame, reused across frames (an accepted epoch
    // frame is appended verbatim to the WAL).
    let mut frame = Vec::new();
    while let Ok(false) = wire::at_end(&mut reader) {
        let handled = match wire::read_binary_frame(&mut reader, &mut frame) {
            Ok(WireRecord::Log(record)) => {
                dispatch_epoch_record(record, &frame, &mut ctx, &shared, &mut writer)
            }
            Ok(WireRecord::Control(control)) => {
                dispatch_control(control, &mut ctx, &shared, &mut writer)
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
    // Disconnect cleanup: mark the producer dead unless a newer connection has
    // already taken the name over.
    if let Some((name, generation)) = ctx.producer {
        let mut state = shared.state.lock().expect("fleet state lock");
        if let Some(p) = state.producers.get_mut(&name) {
            if p.generation == generation {
                p.connected = false;
            }
        }
    }
}

/// Sends an error record and fails, so the caller closes the connection.
fn refuse(writer: &mut WireStream, message: String) -> io::Result<()> {
    let _ = send(writer, &Control::Error(message.clone()));
    Err(protocol_error(message))
}

/// Handles one inbound control record; an `Err` closes the connection (the peer
/// already got an error record where one applies).
fn dispatch_control(
    control: Control,
    ctx: &mut ConnCtx,
    shared: &Arc<AggregatorShared>,
    writer: &mut WireStream,
) -> io::Result<()> {
    match control {
        Control::Hello(hello) => dispatch_hello(hello, ctx, shared, writer),
        Control::Query(query) => dispatch_query(&query, shared, writer),
        Control::StatusRequest => {
            let status = shared.state.lock().expect("fleet state lock").status();
            send(writer, &Control::Status(status))
        }
        other => refuse(writer, format!("unexpected {} record from a peer", other.name())),
    }
}

fn dispatch_hello(
    hello: Hello,
    ctx: &mut ConnCtx,
    shared: &Arc<AggregatorShared>,
    writer: &mut WireStream,
) -> io::Result<()> {
    let acked = {
        let mut state = shared.state.lock().expect("fleet state lock");
        let existed = state.producers.contains_key(&hello.producer);
        let p = state
            .producers
            .entry(hello.producer.clone())
            .or_insert_with(|| ProducerState::new(hello.event, hello.period, hello.size_filter));
        if existed {
            p.resumes += 1;
        }
        // The producer reports lifetime counters; a reconnect after a quiet
        // stretch may re-send older (equal) values, so merge by max.
        p.spilled_frames = p.spilled_frames.max(hello.spilled_frames);
        p.dropped_epochs = p.dropped_epochs.max(hello.dropped_epochs);
        p.reconnect_backoff_ms = p.reconnect_backoff_ms.max(hello.backoff_ms);
        // Durability: open the WAL at first contact, before anything is acked.
        // A producer recovered from disk already carries its reopened log.
        if p.wal.is_none() {
            if let Some((dir, fsync)) = &shared.config.wal {
                let (event, period) = p.fold.header();
                let size_filter = p.fold.size_filter();
                match Wal::create(dir, &hello.producer, event, period, size_filter, *fsync) {
                    Ok(wal) => p.wal = Some(wal),
                    Err(e) => {
                        // Refuse the hello rather than silently running
                        // undurable: the producer keeps buffering and retrying.
                        return refuse(writer, format!("WAL create failed: {e}"));
                    }
                }
            }
        }
        p.connected = true;
        p.generation += 1;
        let generation = p.generation;
        let acked = p.fold.last_epoch().unwrap_or(0);
        ctx.producer = Some((hello.producer, generation));
        // A new producer changes the fleet-wide event/period header a query
        // result reports (cold evaluation adopts the last view profile's, in
        // producer-name order) — live watches adopt the same.
        if !existed {
            if let Some(header) = state.fleet_meta() {
                for_watches(&mut state.watches, |w| w.feed_header(header, None, false));
            }
        }
        acked
    };
    send(writer, &Control::Ack { epoch: acked, terminal: false })
}

/// Folds one decoded epoch frame; `frame` holds its raw bytes, which an accepted
/// frame appends verbatim to the producer's WAL.
fn dispatch_epoch_record(
    record: LogRecord,
    frame: &[u8],
    ctx: &mut ConnCtx,
    shared: &Arc<AggregatorShared>,
    writer: &mut WireStream,
) -> io::Result<()> {
    let Some((name, _)) = &ctx.producer else {
        return refuse(writer, "epoch frames require a hello frame first".to_string());
    };
    // Aggregator-side fault injection, resolved before any state changes so a
    // dropped or black-holed frame leaves no trace in the fold or the WAL.
    let effect = shared.config.faults.as_ref().and_then(|plan| {
        let ordinal = shared.fault_frames.fetch_add(1, Ordering::SeqCst) + 1;
        plan.effect(ordinal)
    });
    match effect {
        Some(FaultEffect::Drop) => {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "fault injection: connection dropped before processing",
            ));
        }
        // Swallow the frame, keep the connection: the producer's ack deadline
        // fires against a peer that looks alive but never answers.
        Some(FaultEffect::BlackHole) => return Ok(()),
        Some(FaultEffect::Delay(d)) => thread::sleep(d),
        Some(FaultEffect::Corrupt) | None => {}
    }
    let reply = {
        let mut state = shared.state.lock().expect("fleet state lock");
        let p = state.producers.get_mut(name).expect("hello inserted the producer");
        // Counted per received epoch frame, duplicates included: these measure wire
        // traffic, not fold outcomes.
        p.frames_received += 1;
        p.bytes_received += frame.len() as u64;
        let last = p.fold.last_epoch().unwrap_or(0);
        let checked = match &record {
            // A re-sent finish after a lost final acknowledgement is acknowledged
            // again; the first finish stays.
            LogRecord::Finish(_) if p.fold.is_finished() => Ok(false),
            LogRecord::Finish(finish) => p.fold.check_finish(finish, p.lossy()).map(|()| true),
            LogRecord::Delta(delta) => p.fold.check(delta).map(|()| true),
        };
        // `Ok((ack, folded))`: the acknowledgement, and whether the fold moved.
        let reply = match checked {
            // An epoch the fold has seen: a backfill overlap (the frame was folded
            // but its acknowledgement was lost). Checked before the WAL append so
            // replaying the log never hits a duplicate; drop it and re-acknowledge
            // — folding twice would double-count. Live watches never see the
            // duplicate either, for the same reason.
            Err(FoldError::OutOfOrderEpoch { last, .. }) => {
                p.duplicates += 1;
                Ok((Control::Ack { epoch: last, terminal: false }, false))
            }
            // Anything else the fold refuses is refused before the WAL sees it, so
            // replaying the log never hits a frame the fold refused.
            Err(e) => Err(e.to_string()),
            Ok(false) => Ok((Control::Ack { epoch: last, terminal: true }, false)),
            // Durability order: log, then fold, then ack. A WAL append failure
            // refuses the frame — the producer re-sends it, and the fold never
            // holds a sample the log doesn't.
            Ok(true) => match p.wal.as_mut().map_or(Ok(()), |w| w.append(frame)) {
                Err(e) => Err(format!("WAL append failed: {e}")),
                Ok(()) => Ok(match &record {
                    LogRecord::Delta(delta) => {
                        p.fold.absorb(delta);
                        (Control::Ack { epoch: delta.epoch, terminal: false }, true)
                    }
                    LogRecord::Finish(finish) => {
                        p.fold.finish(finish.clone(), p.lossy()).expect("checked above");
                        (Control::Ack { epoch: last, terminal: true }, true)
                    }
                }),
            },
        };
        // Feed folded frames to the live watches under the same state lock, so a
        // watch render interleaves with whole frames, never half of one.
        if matches!(reply, Ok((_, true))) && !state.watches.is_empty() {
            let meta = state.fleet_meta();
            let FleetState { producers, watches, .. } = &mut *state;
            let fold = &producers[name.as_str()].fold;
            match &record {
                // The producer's fold already holds the delta's sites.
                LogRecord::Delta(delta) => {
                    for_watches(watches, |w| w.feed_fragment(name, fold, delta));
                }
                // The finish adds no rows, only the run header; `close: false` —
                // one producer finishing does not end the fleet.
                LogRecord::Finish(_) => {
                    let (header, epoch) = (meta.expect("this producer exists"), fold.last_epoch());
                    for_watches(watches, |w| w.feed_header(header, epoch, false));
                }
            }
        }
        reply.map(|(ack, _)| ack)
    };
    match reply {
        Ok(ack) => match effect {
            // Corrupt the acknowledgement, not the state: the frame was folded
            // and logged, but the ack's checksum fails at the producer, which
            // severs, reconnects, and gets trimmed by the duplicate pre-check
            // above.
            Some(FaultEffect::Corrupt) => {
                let mut corrupted = ack.to_frame()?;
                if let Some(i) = corrupted.len().checked_sub(2) {
                    corrupted[i] ^= 0xFF;
                }
                writer.write_all(&corrupted)
            }
            _ => send(writer, &ack),
        },
        Err(message) => refuse(writer, message),
    }
}

fn dispatch_query(
    query: &Query,
    shared: &Arc<AggregatorShared>,
    writer: &mut WireStream,
) -> io::Result<()> {
    // Only the walk over the folds holds the state lock; ranking, rendering and the
    // send run after it is released.
    let result = shared.evaluate(query);
    match (Control::Result { text: result.to_text(), json: result.to_json() }).to_frame() {
        Ok(frame) => writer.write_all(&frame),
        Err(e) => refuse(writer, format!("the query result cannot be sent: {e}")),
    }
}

// ---------------------------------------------------------------------------------------
// FleetClient: querying the aggregator over the wire
// ---------------------------------------------------------------------------------------

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
    writer: WireStream,
    reader: BufReader<WireStream>,
}

impl FleetClient {
    /// Connects to an aggregator over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<FleetClient> {
        Self::from_target(Target::Tcp(addr.to_string()))
    }

    /// Connects to an aggregator over a Unix domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<FleetClient> {
        Self::from_target(Target::Unix(path.to_path_buf()))
    }

    fn from_target(target: Target) -> io::Result<FleetClient> {
        let writer = target.connect()?;
        writer.set_io_timeouts(DEFAULT_ACK_DEADLINE)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(FleetClient { writer, reader })
    }

    fn round_trip(&mut self, request: &Control) -> io::Result<Control> {
        send(&mut self.writer, request)?;
        self.writer.flush()?;
        read_reply(&mut self.reader)
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
mod tests {
    use super::*;
    use crate::profile::{ThreadDelta, ThreadProfile};
    use crate::query::{GroupBy, RankBy};
    use djx_runtime::{Frame, MethodId, ThreadId};

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
        assert!(matches!(plan.effect(2), Some(FaultEffect::Drop)));
        assert!(
            matches!(plan.effect(3), Some(FaultEffect::Delay(d)) if d == Duration::from_millis(7))
        );
        assert!(matches!(plan.effect(4), Some(FaultEffect::Corrupt)));
        assert!(plan.effect(5).is_none());
        for frame in 6..20 {
            assert!(matches!(plan.effect(frame), Some(FaultEffect::BlackHole)));
        }
    }

    #[test]
    fn pending_buffer_spills_in_order_and_trims_spilled_frames() {
        let dir = scratch_dir("pending");
        let mut pending = PendingBuffer::new(48, OverflowPolicy::SpillThenBlock, dir.clone());
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
        let mut pending =
            PendingBuffer::new(96, OverflowPolicy::DropOldestEpochsFlaggedLossy, dir.clone());
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
        let mut pending =
            PendingBuffer::new(96, OverflowPolicy::DropOldestEpochsFlaggedLossy, dir.clone());
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
        let (name, state, report) = recover_wal_file(&path, FsyncPolicy::Never)
            .expect("replay reads")
            .expect("header parsed");
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
        let (_, state, report) = recover_wal_file(&path, FsyncPolicy::Never)
            .expect("replay reads")
            .expect("header parsed");
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
}
