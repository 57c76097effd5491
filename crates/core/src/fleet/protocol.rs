//! The fleet protocol as two state machines with no socket, file, thread or clock.
//!
//! [`ProducerLink`] owns the producer's side: the bounded pending buffer, the
//! acknowledged epoch and the reconnect trim, the backoff schedule, and the re-base
//! after an aggregator lost its state. [`AggregatorCore`] owns the aggregator's side
//! over every producer's [`DeltaFold`]: the hello and its resume point, epoch order,
//! duplicate drops, the log-before-ack rule, the finish check and the status rows.
//! Both take inputs as values — a decoded frame, a reply or a transport failure, the
//! time — and return what to do as values, so the socket drivers and the simulator
//! (`sim`, test builds only) run the same code.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Weak;
use std::time::{Duration, Instant};

use djx_pmu::PmuEvent;

use super::{BackoffPolicy, FleetSinkStats, OverflowPolicy, ProducerStatus};
use crate::profile::{DeltaFold, FoldError, ProfileDelta};
use crate::query::live::{for_watches, WatchShared};
use crate::query::{GroupState, Query};
use crate::sink::{LogRecord, ProfileSink};
use crate::wire::{BinaryChunkedSink, BinaryFrameReader, Control, Hello};

/// On-disk budget for spilled frames: [`OverflowPolicy::SpillThenBlock`] blocks
/// once the spill store would outgrow it.
const SPILL_BUDGET: u64 = 1024 * 1024 * 1024;

pub(crate) fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
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
pub(crate) struct Backoff {
    policy: BackoffPolicy,
    attempt: u32,
    rng: u64,
    waited: Duration,
}

impl Backoff {
    pub(crate) fn new(policy: BackoffPolicy) -> Backoff {
        // A zero seed would freeze xorshift at zero; nudge it onto the cycle.
        Backoff { policy, attempt: 0, rng: policy.seed | 1, waited: Duration::ZERO }
    }

    /// Every delay handed out so far in whole milliseconds, rounded up: a
    /// sub-millisecond backoff still reports as waited.
    pub(crate) fn waited_ms(&self) -> u64 {
        u64::try_from(self.waited.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
    }

    /// The next jittered delay; advances the attempt counter.
    pub(crate) fn next_delay(&mut self) -> Duration {
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
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One buffered, not-yet-acknowledged wire frame. Delta frames carry their epoch
/// (the reconnect trim key); the terminal finish frame carries `None` and is never
/// trimmed.
#[derive(Debug)]
pub(crate) struct PendingFrame {
    pub(crate) epoch: Option<u64>,
    /// The frame defines allocation sites: never dropped for room.
    pub(crate) sites: bool,
    pub(crate) bytes: Vec<u8>,
}

/// The spill tier of a [`PendingBuffer`]: a FIFO of frames behind the memory
/// budget. Production spills to a temporary file
/// ([`SpillFile`](super::store::SpillFile)); the simulator keeps it in memory.
pub(crate) trait SpillStore: Sized {
    /// Opens an empty store under `dir`.
    fn create(dir: &Path) -> io::Result<Self>;
    /// Appends a frame at the tail; a failed append leaves the store as it was.
    fn append(&mut self, frame: &PendingFrame) -> io::Result<()>;
    /// Reads the frame at the head; an emptied store reuses its space.
    fn read_next(&mut self) -> io::Result<PendingFrame>;
    /// Bytes appended and not yet read.
    fn bytes(&self) -> u64;
}

/// The bounded buffer of unacknowledged frames: an in-memory deque up to a byte
/// budget, then the [`OverflowPolicy`] — the spill tier (refusing the frame only
/// when it fails or fills) or oldest-epoch drops. Frame order is strictly
/// preserved: once frames have spilled, new frames spill too (they are younger than
/// everything spilled) until the store drains and resets. The finish frame waits in
/// a slot of its own and leaves last.
#[derive(Debug)]
pub(crate) struct PendingBuffer<S> {
    pub(crate) mem: VecDeque<PendingFrame>,
    mem_bytes: usize,
    budget: usize,
    policy: OverflowPolicy,
    spill_dir: PathBuf,
    spill: Option<S>,
    /// Frames in the spill store.
    spilled_now: u64,
    finish: Option<PendingFrame>,
    /// The front frame went out at least once: it may be folded already, its
    /// acknowledgement lost or still on the way, so it is never dropped for room.
    front_sent: bool,
    /// Reconnect trim watermark: spilled delta frames at or below it are already
    /// folded aggregator-side and are discarded (and counted) at refill.
    trim_below: u64,
    pub(crate) spilled_frames: u64,
    pub(crate) dropped_epochs: u64,
}

impl<S: SpillStore> PendingBuffer<S> {
    pub(crate) fn new(budget: usize, policy: OverflowPolicy, spill_dir: PathBuf) -> Self {
        PendingBuffer {
            mem: VecDeque::new(),
            mem_bytes: 0,
            budget,
            policy,
            spill_dir,
            spill: None,
            spilled_now: 0,
            finish: None,
            front_sent: false,
            trim_below: 0,
            spilled_frames: 0,
            dropped_epochs: 0,
        }
    }

    /// Frames awaiting delivery (memory, spill tier and the finish).
    pub(crate) fn len(&self) -> u64 {
        self.mem.len() as u64 + self.spilled_now + u64::from(self.finish.is_some())
    }

    /// Offers a frame and returns the epochs dropped to make room for it, or hands
    /// the frame back when the spill tier fails or fills and the caller must wait.
    /// The terminal finish frame is never refused and never dropped.
    #[allow(clippy::result_large_err)]
    pub(crate) fn offer(&mut self, frame: PendingFrame) -> Result<Vec<u64>, PendingFrame> {
        let len = frame.bytes.len();
        if frame.epoch.is_none() {
            self.finish = Some(frame);
        } else if self.spilled_now == 0
            && (self.mem.is_empty() || self.mem_bytes + len <= self.budget)
        {
            self.mem_bytes += len;
            self.mem.push_back(frame);
        } else if self.policy == OverflowPolicy::SpillThenBlock {
            let spill = match &mut self.spill {
                Some(spill) => spill,
                // No spill store (unwritable dir): degrade to blocking.
                None => match S::create(&self.spill_dir) {
                    Ok(spill) => self.spill.insert(spill),
                    Err(_) => return Err(frame),
                },
            };
            // A full disk degrades to blocking too — the frame is handed back
            // intact, never half-written.
            if spill.bytes() + len as u64 > SPILL_BUDGET || spill.append(&frame).is_err() {
                return Err(frame);
            }
            self.spilled_now += 1;
            self.spilled_frames += 1;
        } else {
            // Frames carrying site definitions survive: without one, every later
            // delta would be refused for its site gap.
            let mut dropped = Vec::new();
            let sent = usize::from(self.front_sent);
            while self.mem_bytes + len > self.budget {
                let Some(oldest) = self.mem.iter().skip(sent).position(|f| !f.sites) else { break };
                let frame = self.mem.remove(sent + oldest).expect("position is in range");
                self.mem_bytes -= frame.bytes.len();
                dropped.extend(frame.epoch);
            }
            self.dropped_epochs += dropped.len() as u64;
            self.mem_bytes += len;
            self.mem.push_back(frame);
            return Ok(dropped);
        }
        Ok(Vec::new())
    }

    /// The next frame out, once [`PendingBuffer::refill`] ran.
    fn front(&self) -> Option<&PendingFrame> {
        self.mem.front().or(self.finish.as_ref().filter(|_| self.spilled_now == 0))
    }

    pub(crate) fn pop_front(&mut self) -> Option<PendingFrame> {
        self.front_sent = false;
        match self.mem.pop_front() {
            Some(frame) => {
                self.mem_bytes -= frame.bytes.len();
                Some(frame)
            }
            None if self.spilled_now == 0 => self.finish.take(),
            None => None,
        }
    }

    /// Discards frames the aggregator has already folded (reconnect handshake
    /// told us so); returns how many were trimmed from memory — spilled frames
    /// are trimmed lazily at refill against the watermark.
    pub(crate) fn trim_acked(&mut self, acked: u64) -> u64 {
        self.trim_below = self.trim_below.max(acked);
        let mut trimmed = 0;
        while self.mem.front().is_some_and(|f| f.epoch.is_some_and(|e| e <= acked)) {
            let _ = self.pop_front();
            trimmed += 1;
        }
        trimmed
    }

    /// Moves spilled frames back into memory, oldest first, up to the budget.
    /// Safe whenever the spill tier is non-empty: everything spilled is younger
    /// than everything in memory.
    pub(crate) fn refill(&mut self) -> io::Result<u64> {
        let mut trimmed = 0;
        let Some(spill) = &mut self.spill else {
            return Ok(0);
        };
        while self.spilled_now > 0 && (self.mem.is_empty() || self.mem_bytes < self.budget) {
            let frame = spill.read_next()?;
            self.spilled_now -= 1;
            if frame.epoch.is_some_and(|e| e <= self.trim_below) {
                trimmed += 1;
                continue;
            }
            self.mem_bytes += frame.bytes.len();
            self.mem.push_back(frame);
        }
        Ok(trimmed)
    }

    /// Replaces every buffered delta, in memory and spilled, with `frame` (none:
    /// drops them); a buffered finish stays last. Returns how many were replaced.
    fn replace_deltas(&mut self, frame: Option<PendingFrame>) -> u64 {
        let replaced = self.mem.len() as u64 + self.spilled_now;
        self.mem.clear();
        self.mem_bytes = 0;
        self.front_sent = false;
        // Dropping the spill store deletes it.
        (self.spill, self.spilled_now) = (None, 0);
        if let Some(frame) = frame {
            self.mem_bytes = frame.bytes.len();
            self.mem.push_back(frame);
        }
        replaced
    }

    pub(crate) fn clear(&mut self) {
        self.replace_deltas(None);
        self.finish = None;
    }
}

/// What a [`ProducerLink`] asks its driver to do next.
#[derive(Debug)]
pub(crate) enum LinkStep<'a> {
    /// Drop any connection, open a new one and send this hello on it; feed the
    /// reply, or the failure to connect, to [`ProducerLink::on_reply`].
    Connect(Control),
    /// Send these frame bytes and feed the reply back.
    Frame(&'a [u8]),
    /// The aggregator lost this producer's state: feed
    /// [`ProducerLink::rebase`] the stream's cumulative delta, or `None` when
    /// there is none to be had.
    Rebase,
    /// The reconnect backoff holds every attempt until then.
    Wait(Instant),
    /// Connected with nothing to send.
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Down,
    AwaitHello,
    Rebase,
    Ready,
    AwaitAck,
}

/// The producer's side of the protocol. Every frame is acknowledged synchronously:
/// the link hands out one frame, waits for its reply, and moves on. A hello
/// acknowledgement is the resume point — frames at or below it are trimmed — and
/// one below the epoch already acknowledged means the aggregator lost this
/// producer's state, which a re-base repairs.
#[derive(Debug)]
pub(crate) struct ProducerLink<S> {
    hello: Hello,
    pub(crate) pending: PendingBuffer<S>,
    stats: FleetSinkStats,
    backoff: Backoff,
    phase: Phase,
    /// While set, reconnection is gated until this instant.
    next_attempt: Option<Instant>,
    /// Deltas at or below this epoch are covered by a re-base and are dropped
    /// when offered.
    floor: u64,
    /// The aggregator lost state this link could not re-base: every later delta
    /// is dropped and counted, and the finish goes out declared lossy.
    lossy: bool,
    /// Dropped epochs the last re-base covered: its delta holds them, so a hello
    /// declares only the drops after it.
    covered: u64,
    pub(crate) severed: bool,
}

impl<S: SpillStore> ProducerLink<S> {
    pub(crate) fn new(hello: Hello, pending: PendingBuffer<S>, backoff: BackoffPolicy) -> Self {
        ProducerLink {
            hello,
            pending,
            stats: FleetSinkStats::default(),
            backoff: Backoff::new(backoff),
            phase: Phase::Down,
            next_attempt: None,
            floor: 0,
            lossy: false,
            covered: 0,
            severed: false,
        }
    }

    /// Transport counters so far.
    pub(crate) fn stats(&self) -> FleetSinkStats {
        FleetSinkStats {
            pending_frames: self.pending.len(),
            spilled_frames: self.pending.spilled_frames,
            dropped_epochs: self.pending.dropped_epochs,
            ..self.stats
        }
    }

    /// When the next reconnect attempt may run, while the backoff holds it.
    pub(crate) fn next_attempt(&self) -> Option<Instant> {
        self.next_attempt.filter(|_| self.phase == Phase::Down)
    }

    /// Offers a frame for delivery: see [`PendingBuffer::offer`]. A delta a
    /// re-base already covers is dropped as delivered; after a loss the link
    /// could not re-base, every delta is dropped and counted. Offer between
    /// deliveries only, never while a frame awaits its reply: the lossy policy
    /// may drop the oldest frame, and the reply pops the oldest.
    #[allow(clippy::result_large_err)]
    pub(crate) fn offer(&mut self, frame: PendingFrame) -> Result<Vec<u64>, PendingFrame> {
        match frame.epoch {
            Some(epoch) if self.lossy => {
                self.pending.dropped_epochs += 1;
                Ok(vec![epoch])
            }
            Some(epoch) if epoch <= self.floor => {
                self.stats.frames_trimmed += 1;
                Ok(Vec::new())
            }
            _ => self.pending.offer(frame),
        }
    }

    /// What to do next at `now`; fails on a severed link or an unreadable spill.
    pub(crate) fn step(&mut self, now: Instant) -> io::Result<LinkStep<'_>> {
        if self.severed {
            return Err(protocol_error("fleet link severed"));
        }
        Ok(match self.phase {
            Phase::Down => match self.next_attempt {
                Some(at) if now < at => LinkStep::Wait(at),
                _ => {
                    self.phase = Phase::AwaitHello;
                    LinkStep::Connect(Control::Hello(Hello {
                        spilled_frames: self.pending.spilled_frames,
                        dropped_epochs: self.pending.dropped_epochs - self.covered,
                        backoff_ms: self.stats.reconnect_backoff_ms,
                        ..self.hello.clone()
                    }))
                }
            },
            Phase::Rebase => LinkStep::Rebase,
            Phase::Ready | Phase::AwaitHello | Phase::AwaitAck => {
                self.stats.frames_trimmed += self.pending.refill()?;
                if self.pending.front().is_none() {
                    self.phase = Phase::Ready;
                    return Ok(LinkStep::Idle);
                }
                self.phase = Phase::AwaitAck;
                self.pending.front_sent = true;
                LinkStep::Frame(&self.pending.front().expect("checked above").bytes)
            }
        })
    }

    /// The reply to the last hello or frame, or the transport failure that ended
    /// the attempt (a failed connect, a write, a tripped ack deadline, a close).
    /// Anything but an acknowledgement ends the connection: a failed handshake
    /// arms the backoff, a failed frame stays buffered and reconnects at once.
    pub(crate) fn on_reply(&mut self, reply: io::Result<Control>, now: Instant) -> io::Result<()> {
        let handshake = self.phase == Phase::AwaitHello;
        let failure = match reply {
            Ok(Control::Ack { epoch, .. }) if handshake => {
                self.handshake(epoch);
                return Ok(());
            }
            Ok(Control::Ack { epoch, terminal }) => {
                if self.pending.front().is_some_and(|f| f.epoch.is_none()) && !terminal {
                    // The finish frame must be answered by the terminal ack;
                    // anything else means the aggregator never folded it.
                    protocol_error("finish frame acknowledged as non-terminal")
                } else {
                    self.stats.acked_epoch = self.stats.acked_epoch.max(epoch);
                    self.stats.frames_sent += 1;
                    let _ = self.pending.pop_front();
                    self.phase = Phase::Ready;
                    return Ok(());
                }
            }
            // A protocol-level refusal (e.g. checksum mismatch), not a transport
            // blip: surface it. The frame stays pending so the failure repeats
            // rather than vanishing.
            Ok(Control::Error(message)) if handshake => {
                protocol_error(format!("aggregator refused hello: {message}"))
            }
            Ok(Control::Error(message)) => {
                protocol_error(format!("aggregator rejected frame: {message}"))
            }
            Ok(other) => {
                protocol_error(format!("expected an ack frame, got a {} record", other.name()))
            }
            Err(e) => e,
        };
        if handshake {
            let delay = self.backoff.next_delay();
            self.stats.reconnect_backoff_ms = self.backoff.waited_ms();
            self.next_attempt = Some(now + delay);
        }
        self.phase = Phase::Down;
        Err(failure)
    }

    /// A hello acknowledged at `acked`: the backfill resume point, or — below the
    /// epoch already acknowledged — proof that the aggregator lost this producer's
    /// state. A fresh fold (`acked` 0) takes a re-base; a fold that kept only a
    /// prefix cannot, so the link gives the lost epochs up, declared.
    fn handshake(&mut self, acked: u64) {
        self.stats.connects += 1;
        self.backoff.reset();
        self.next_attempt = None;
        self.phase = Phase::Ready;
        if acked >= self.stats.acked_epoch {
            self.stats.acked_epoch = acked;
            self.stats.frames_trimmed += self.pending.trim_acked(acked);
        } else if acked == 0 {
            self.phase = Phase::Rebase;
        } else {
            self.give_up(acked);
        }
    }

    /// Answers [`LinkStep::Rebase`] with the stream's cumulative delta — every
    /// thread and the whole site table at base 0, through the last epoch drained —
    /// which replaces every buffered delta: to the aggregator's fresh fold it is an
    /// ordinary first delta, and the finish checksum still holds. The delta also
    /// holds every epoch dropped so far, so the link stops declaring them and
    /// reconnects at once: the next hello tells the aggregator. `None` (the
    /// session is gone), or a stream too big for one frame, gives the buffered
    /// deltas up, counted as dropped epochs.
    pub(crate) fn rebase(&mut self, delta: Option<ProfileDelta>) {
        let mut bytes = Vec::new();
        let Some(delta) =
            delta.filter(|d| BinaryChunkedSink.on_delta(d.epoch, d, &mut bytes).is_ok())
        else {
            return self.give_up(0);
        };
        self.stats.acked_epoch = 0;
        self.stats.rebases += 1;
        self.floor = delta.epoch;
        let frame = PendingFrame { epoch: Some(delta.epoch), sites: true, bytes };
        self.pending.replace_deltas(Some(frame));
        (self.covered, self.lossy) = (self.pending.dropped_epochs, false);
        self.phase = Phase::Down;
    }

    /// Lost state without a re-base: drops every buffered delta (one more epoch
    /// counts the acknowledged history the aggregator lost) and reconnects at once,
    /// so the next hello declares the loss and the finish is accepted lossy.
    fn give_up(&mut self, acked: u64) {
        self.stats.acked_epoch = acked;
        self.pending.dropped_epochs += self.pending.replace_deltas(None) + 1;
        self.lossy = true;
        self.phase = Phase::Down;
    }

    /// Disables the link for good and discards everything buffered.
    pub(crate) fn sever(&mut self) {
        self.severed = true;
        self.phase = Phase::Down;
        self.pending.clear();
    }
}

/// Per-producer aggregator state: the producer's fold (header, samples and finish
/// record) plus the protocol counters.
#[derive(Debug, Default)]
pub(crate) struct ProducerState {
    pub(crate) fold: DeltaFold,
    pub(crate) connected: bool,
    /// Bumped at every hello; a connection handler only clears `connected` when its
    /// own generation is still current, so a reconnect racing the old handler's
    /// cleanup cannot be marked dead.
    generation: u64,
    resumes: u64,
    duplicates: u64,
    frames_received: u64,
    bytes_received: u64,
    /// Producer-reported loss/backoff counters (hello frames carry them).
    spilled_frames: u64,
    pub(crate) dropped_epochs: u64,
    reconnect_backoff_ms: u64,
}

/// What [`AggregatorCore::frame`] decided about an epoch frame.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Send this reply; the fold did not move.
    Reply(Control),
    /// Send this error and close the connection.
    Refuse(String),
    /// Append the frame to the producer's write-ahead log, if it has one, then
    /// [`AggregatorCore::commit`] it; a failed append refuses it instead.
    Append,
}

impl ProducerState {
    /// A producer whose stream announced `event`, `period` and `size_filter`,
    /// with nothing folded, not connected.
    pub(crate) fn new(event: PmuEvent, period: u64, size_filter: u64) -> ProducerState {
        let fold = DeltaFold::with_header(event, period, size_filter);
        ProducerState { fold, ..ProducerState::default() }
    }

    /// A declared-lossy stream: epochs were dropped by choice, so the finish
    /// checksum cannot hold and the producer stays flagged truncated.
    fn lossy(&self) -> bool {
        self.dropped_epochs > 0
    }

    pub(crate) fn truncated(&self) -> bool {
        (!self.connected && !self.fold.is_finished()) || self.lossy()
    }

    /// The protocol rules for one epoch frame of this producer, `len` wire bytes
    /// long. Nothing the fold refuses reaches the log, so replaying a log never
    /// meets a frame the fold refused.
    fn check(&mut self, record: &LogRecord, len: usize) -> Verdict {
        // Counted per received epoch frame, duplicates included: these measure wire
        // traffic, not fold outcomes.
        self.frames_received += 1;
        self.bytes_received += len as u64;
        let last = self.fold.last_epoch().unwrap_or(0);
        let checked = match record {
            // A re-sent finish after a lost final acknowledgement is acknowledged
            // again; the first finish stays.
            LogRecord::Finish(_) if self.fold.is_finished() => {
                return Verdict::Reply(Control::Ack { epoch: last, terminal: true })
            }
            LogRecord::Finish(finish) => self.fold.check_finish(finish, self.lossy()),
            LogRecord::Delta(delta) => self.fold.check(delta),
        };
        match checked {
            // An epoch the fold has seen: a backfill overlap (the frame was folded
            // but its acknowledgement was lost). Dropped and re-acknowledged —
            // folding twice would double-count, and live watches never see it.
            Err(FoldError::OutOfOrderEpoch { last, .. }) => {
                self.duplicates += 1;
                Verdict::Reply(Control::Ack { epoch: last, terminal: false })
            }
            Err(e) => Verdict::Refuse(e.to_string()),
            Ok(()) => Verdict::Append,
        }
    }

    /// Folds a frame [`ProducerState::check`] cleared and logged; returns its ack.
    fn commit(&mut self, record: &LogRecord) -> Control {
        match record {
            LogRecord::Delta(delta) => {
                self.fold.absorb(delta);
                Control::Ack { epoch: delta.epoch, terminal: false }
            }
            LogRecord::Finish(finish) => {
                let lossy = self.lossy();
                self.fold.finish(finish.clone(), lossy).expect("checked before the log append");
                Control::Ack { epoch: self.fold.last_epoch().unwrap_or(0), terminal: true }
            }
        }
    }

    /// Replays a write-ahead log body through the ingest rules above, as ingest
    /// once accepted it. Returns the frames replayed, the length of the good
    /// prefix, and why replay stopped short of the end (a torn tail).
    pub(crate) fn replay(&mut self, body: &[u8]) -> (u64, u64, Option<String>) {
        let mut reader = BinaryFrameReader::new(body);
        let (mut frames, mut good) = (0, 0);
        let torn = loop {
            let start = reader.byte_offset();
            let record = match reader.next_record() {
                Ok(Some(record)) => record,
                Ok(None) => break None,
                Err(e) => break Some(e.to_string()),
            };
            if let LogRecord::Finish(finish) = &record {
                // Ingest only ever accepted a checksum-failing finish from a
                // declared-lossy producer; restore the lossy flag (the exact drop
                // count returns with the producer's next hello).
                if self.fold.check_finish(finish, false).is_err() {
                    self.dropped_epochs = self.dropped_epochs.max(1);
                }
            }
            match self.check(&record, (reader.byte_offset() - start) as usize) {
                Verdict::Append => self.commit(&record),
                Verdict::Reply(_) => break Some(format!("binary frame {} repeats", frames + 1)),
                Verdict::Refuse(e) => {
                    break Some(format!("binary frame {} at byte offset {start}: {e}", frames + 1))
                }
            };
            frames += 1;
            good = reader.byte_offset();
        };
        // Replayed frames are history, not traffic this incarnation received.
        (self.frames_received, self.bytes_received) = (0, 0);
        (frames, good, torn)
    }

    fn status(&self, name: &str, wal_bytes: u64) -> ProducerStatus {
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
            wal_bytes,
            spilled_frames: self.spilled_frames,
            dropped_epochs: self.dropped_epochs,
            reconnect_backoff_ms: self.reconnect_backoff_ms,
        }
    }
}

/// The aggregator's side of the protocol: every producer's state, keyed by name,
/// and the live watches fed as frames fold.
#[derive(Debug, Default)]
pub(crate) struct AggregatorCore {
    /// Keyed by producer name: deterministic iteration order, so the fleet view
    /// lists producers the same way on every snapshot.
    pub(crate) producers: BTreeMap<String, ProducerState>,
    /// Live query subscriptions ([`FleetAggregator::watch`](super::FleetAggregator::watch)),
    /// fed as frames fold; dead watches are pruned on the way.
    pub(crate) watches: Vec<Weak<WatchShared>>,
}

impl AggregatorCore {
    /// The fleet-wide event/period header a query result reports: cold evaluation
    /// over a [`FleetView`](super::FleetView) adopts the *last* producer profile's
    /// header (producer-name order), finished producers contributing their finish
    /// record's. The live path re-derives the same value whenever membership or
    /// finish state changes.
    fn fleet_meta(&self) -> Option<(PmuEvent, u64)> {
        self.producers.values().next_back().map(|p| p.fold.header())
    }

    /// Folds every producer's fold into `groups` in place, in name order — what
    /// evaluating a [`FleetView`](super::FleetView) does.
    pub(crate) fn absorb_producers(&self, query: &Query, groups: &mut GroupState) {
        for p in self.producers.values() {
            groups.absorb_fold(query, &p.fold);
        }
    }

    /// Per-producer protocol status with each log's size, in producer-name order.
    pub(crate) fn status(&self, wal_bytes: impl Fn(&str) -> u64) -> Vec<ProducerStatus> {
        self.producers.iter().map(|(name, p)| p.status(name, wal_bytes(name))).collect()
    }

    /// A hello: registers the producer or resumes it, and marks it connected under
    /// a new generation. Returns that generation and the acknowledgement, which
    /// carries the fold's last epoch — where the producer resumes.
    pub(crate) fn hello(&mut self, hello: &Hello) -> (u64, Control) {
        let existed = self.producers.contains_key(&hello.producer);
        let p = self
            .producers
            .entry(hello.producer.clone())
            .or_insert_with(|| ProducerState::new(hello.event, hello.period, hello.size_filter));
        p.resumes += u64::from(existed);
        // The producer reports lifetime counters; a reconnect after a quiet
        // stretch may re-send older (equal) values, so merge by max. The drop
        // count is the producer's current declaration instead — a re-base covers
        // the drops before it — but a finished stream stays as lossy as its finish
        // was taken, WAL replay's restored flag included.
        p.spilled_frames = p.spilled_frames.max(hello.spilled_frames);
        p.dropped_epochs = if p.fold.is_finished() {
            p.dropped_epochs.max(hello.dropped_epochs)
        } else {
            hello.dropped_epochs
        };
        p.reconnect_backoff_ms = p.reconnect_backoff_ms.max(hello.backoff_ms);
        p.connected = true;
        p.generation += 1;
        let reply = (
            p.generation,
            Control::Ack { epoch: p.fold.last_epoch().unwrap_or(0), terminal: false },
        );
        // A new producer changes the fleet-wide event/period header a query result
        // reports — live watches adopt the same.
        if let Some(header) = self.fleet_meta().filter(|_| !existed) {
            for_watches(&mut self.watches, |w| w.feed_header(header, None, false));
        }
        reply
    }

    /// The connection of `generation` closed: the producer is dead unless a newer
    /// connection has already taken the name over.
    pub(crate) fn disconnected(&mut self, name: &str, generation: u64) {
        if let Some(p) = self.producers.get_mut(name).filter(|p| p.generation == generation) {
            p.connected = false;
        }
    }

    /// An epoch frame `len` wire bytes long from producer `name` (`None`: the
    /// connection sent no hello yet).
    pub(crate) fn frame(&mut self, name: Option<&str>, record: &LogRecord, len: usize) -> Verdict {
        match name.and_then(|name| self.producers.get_mut(name)) {
            Some(p) => p.check(record, len),
            None => Verdict::Refuse("epoch frames require a hello frame first".to_string()),
        }
    }

    /// Folds a frame [`AggregatorCore::frame`] answered with [`Verdict::Append`],
    /// after the log append, and feeds it to the live watches — under the caller's
    /// lock, so a watch render interleaves with whole frames. Returns the ack.
    pub(crate) fn commit(&mut self, name: &str, record: &LogRecord) -> Control {
        let ack = self
            .producers
            .get_mut(name)
            .expect("a hello registered the producer")
            .commit(record);
        let header = self.fleet_meta().expect("this producer exists");
        let AggregatorCore { producers, watches } = self;
        let fold = &producers[name].fold;
        match record {
            // The producer's fold already holds the delta's sites.
            LogRecord::Delta(delta) => for_watches(watches, |w| w.feed_fragment(name, fold, delta)),
            // The finish adds no rows, only the run header; `close: false` — one
            // producer finishing does not end the fleet.
            LogRecord::Finish(_) => {
                for_watches(watches, |w| w.feed_header(header, fold.last_epoch(), false));
            }
        }
        ack
    }
}
