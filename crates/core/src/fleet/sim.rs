//! A deterministic simulator of the fleet protocol.
//!
//! One to four producers and one aggregator run through the very state machines
//! the socket drivers run — [`ProducerLink`] and [`AggregatorCore`] — over an
//! in-memory network on virtual time. A seeded [`Schedule`] injects the faults:
//! frames dropped, corrupted or delayed on either side (a [`FaultPlan`] per side,
//! applied here in the driver as the socket drivers apply theirs), connections
//! severed or hung (the aggregator swallows their frames until the producer's ack
//! deadline trips), and aggregator crashes between any two of its outputs — its
//! log kept, torn mid-append, or lost — including restarts of an aggregator that
//! never had a log. Each producer generates site-defining deltas and keeps their
//! fold as its re-base source, the way a session's producer fold is.
//!
//! After quiescence every schedule must hold:
//!
//! 1. each producer's fleet fold renders byte-identically (object and context
//!    queries, text and JSON) to a cold fold of the deltas it generated minus the
//!    epochs its link reported dropping since its last re-base, and a producer
//!    with no such epoch finishes neither lossy nor truncated (a producer whose
//!    finish was folded before the aggregator lost its state may never connect
//!    again, so its absence is exempt);
//! 2. quiescence comes within [`MAX_STEPS`] steps — no producer retries forever;
//! 3. folded samples plus the samples of dropped epochs equal the samples
//!    generated.
//!
//! Two safety rules are checked as the run goes: a producer never re-sends an
//! epoch at or below its connection's hello acknowledgement, and a producer never
//! re-bases unless the aggregator really lost its state (an aggregator that kept
//! its log kept every acknowledged frame).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use djx_memsim::{AccessKind, NumaNode};
use djx_pmu::{PmuEvent, Sample};
use djx_runtime::{Frame, MethodId, ThreadId};

use super::protocol::{
    AggregatorCore, LinkStep, PendingBuffer, PendingFrame, ProducerLink, ProducerState, SpillStore,
    Verdict,
};
use super::transport::read_reply;
use super::{BackoffPolicy, FaultAction, FaultPlan, OverflowPolicy};
use crate::object::{AllocSite, AllocSiteId};
use crate::profile::{DeltaFold, ProfileDelta, ThreadDelta, ThreadProfile};
use crate::query::{GroupBy, Query};
use crate::sink::{FinishRecord, LogRecord, ProfileSink};
use crate::wire::{self, BinaryChunkedSink, Control, Hello, WireRecord};

/// The step bound of invariant 2.
const MAX_STEPS: u64 = 60_000;
const PERIOD: u64 = 16;
const SIZE_FILTER: u64 = 64;
/// The producers' acknowledgement deadline on virtual time.
const ACK_DEADLINE: Duration = Duration::from_millis(40);

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// SplitMix64: the schedule's and the run's random stream.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

// ---------------------------------------------------------------------------------------
// The schedule
// ---------------------------------------------------------------------------------------

/// What an aggregator crash does to its write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalFate {
    /// The frame was appended whole; the crash comes before its fold and ack.
    Kept,
    /// The crash tears the append: half the frame reaches the log.
    Torn,
    /// The crash comes before the append, and the log directory is lost.
    Lost,
}

/// One producer's part of a schedule.
#[derive(Debug, Clone)]
struct ProducerPlan {
    deltas: usize,
    policy: OverflowPolicy,
    budget: usize,
    /// Sink-side faults by delivery attempt.
    faults: FaultPlan,
}

/// A seeded fault schedule.
#[derive(Debug, Clone)]
struct Schedule {
    seed: u64,
    producers: Vec<ProducerPlan>,
    /// The aggregator keeps a write-ahead log.
    durable: bool,
    /// Aggregator-side faults by received epoch frame.
    aggregator_faults: FaultPlan,
    /// Crashes at the n-th received epoch frame (1-based), with the log's fate.
    crashes: BTreeMap<u64, WalFate>,
    /// Steps at which a live connection is severed.
    severs: BTreeSet<u64>,
    /// Steps at which a live connection hangs: its frames are swallowed.
    hangs: BTreeSet<u64>,
}

impl Schedule {
    fn random(seed: u64) -> Schedule {
        let mut rng = Rng(seed);
        let producers = (0..1 + rng.below(4))
            .map(|_| {
                let mut faults = FaultPlan::new();
                for _ in 0..rng.below(3) {
                    let at = 1 + rng.below(12);
                    faults = match rng.below(3) {
                        0 => faults.drop_at(at),
                        1 => faults.corrupt_at(at),
                        _ => faults.delay_at(at, ms(20 + rng.below(60))),
                    };
                }
                ProducerPlan {
                    deltas: 3 + rng.below(8) as usize,
                    policy: if rng.chance(30) {
                        OverflowPolicy::DropOldestEpochsFlaggedLossy
                    } else {
                        OverflowPolicy::SpillThenBlock
                    },
                    budget: 200 + rng.below(1200) as usize,
                    faults,
                }
            })
            .collect();
        let mut aggregator_faults = FaultPlan::new();
        for _ in 0..rng.below(3) {
            let at = 1 + rng.below(30);
            aggregator_faults = match rng.below(3) {
                0 => aggregator_faults.drop_at(at),
                1 => aggregator_faults.corrupt_at(at),
                _ => aggregator_faults.delay_at(at, ms(10 + rng.below(60))),
            };
        }
        let durable = rng.chance(70);
        let mut crashes = BTreeMap::new();
        for _ in 0..rng.below(3) {
            let fate = match rng.below(3) {
                0 => WalFate::Kept,
                1 => WalFate::Torn,
                _ => WalFate::Lost,
            };
            crashes.insert(1 + rng.below(25), fate);
        }
        let severs = (0..rng.below(3)).map(|_| rng.below(600)).collect();
        let hangs = (0..rng.below(2)).map(|_| rng.below(600)).collect();
        Schedule { seed, producers, durable, aggregator_faults, crashes, severs, hangs }
    }
}

// ---------------------------------------------------------------------------------------
// Producers: a session stand-in plus the link
// ---------------------------------------------------------------------------------------

/// The spill tier in memory.
#[derive(Debug, Default)]
struct MemSpill {
    frames: VecDeque<PendingFrame>,
    bytes: u64,
}

impl SpillStore for MemSpill {
    fn create(_: &Path) -> io::Result<MemSpill> {
        Ok(MemSpill::default())
    }

    fn append(&mut self, frame: &PendingFrame) -> io::Result<()> {
        self.bytes += frame.bytes.len() as u64;
        let copy =
            PendingFrame { epoch: frame.epoch, sites: frame.sites, bytes: frame.bytes.clone() };
        self.frames.push_back(copy);
        Ok(())
    }

    fn read_next(&mut self) -> io::Result<PendingFrame> {
        let frame = self.frames.pop_front().expect("read only what was appended");
        self.bytes -= frame.bytes.len() as u64;
        Ok(frame)
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

fn sample(i: u64) -> Sample {
    Sample {
        event: PmuEvent::DEFAULT,
        thread_id: 0,
        cpu: 0,
        cpu_node: NumaNode(0),
        page_node: NumaNode(u32::from(i.is_multiple_of(3))),
        effective_addr: 0,
        kind: AccessKind::Load,
        value: 1,
        latency: 80 + i % 40,
        counter_value: 0,
    }
}

/// A producer: the deltas its session generates, its export queue, and its link.
struct Producer {
    name: String,
    plan: ProducerPlan,
    link: ProducerLink<MemSpill>,
    /// Every delta generated, in epoch order.
    generated: Vec<ProfileDelta>,
    /// The fold of `generated`: the re-base source.
    retired: DeltaFold,
    sites: usize,
    next_epoch: u64,
    /// Generated records not yet offered to the link (the export queue).
    queue: VecDeque<PendingFrame>,
    finish_queued: bool,
    /// A frame the spill tier refused, waiting to be offered again.
    blocked: Option<PendingFrame>,
    /// Epochs the link reported dropping since the last re-base.
    dropped: BTreeSet<u64>,
    conn: Option<usize>,
    /// Waiting for the reply to a hello or frame on `conn`, until this deadline.
    awaiting: Option<Instant>,
    /// The link waits out its backoff until then.
    wake_at: Option<Instant>,
    /// The link reported nothing to send.
    idle: bool,
    sent: u64,
}

impl Producer {
    fn new(index: usize, plan: ProducerPlan) -> Producer {
        let name = format!("p{index}");
        let (event, period, size_filter) = (PmuEvent::DEFAULT, PERIOD, SIZE_FILTER);
        let hello =
            Hello { producer: name.clone(), event, period, size_filter, ..Hello::default() };
        let pending = PendingBuffer::new(plan.budget, plan.policy, "unused".into());
        let backoff = BackoffPolicy::new().initial(ms(2)).max(ms(50)).seed(index as u64 + 1);
        Producer {
            name,
            link: ProducerLink::new(hello, pending, backoff),
            plan,
            generated: Vec::new(),
            retired: DeltaFold::new(),
            sites: 0,
            next_epoch: 1,
            queue: VecDeque::new(),
            finish_queued: false,
            blocked: None,
            dropped: BTreeSet::new(),
            conn: None,
            awaiting: None,
            wake_at: None,
            idle: false,
            sent: 0,
        }
    }

    /// Retires one more epoch: up to three threads sample the sites so far and
    /// allocate; the first delta always defines a site, later ones sometimes do.
    fn generate(&mut self, rng: &mut Rng) {
        let epoch = self.next_epoch;
        self.next_epoch += 1 + rng.below(2);
        let new_sites = if self.generated.is_empty() { 1 + rng.below(2) } else { rng.below(3) / 2 };
        let site_base = self.sites;
        let sites: Vec<AllocSite> = (site_base..site_base + new_sites as usize)
            .map(|id| AllocSite {
                id: AllocSiteId(id as u32),
                class_name: format!("C{}[]", id % 3),
                call_path: vec![Frame::new(MethodId(1), 0), Frame::new(MethodId(2 + id as u32), 1)],
            })
            .collect();
        self.sites += sites.len();
        let active: Vec<u64> = (1..=3u64).filter(|_| rng.chance(70)).collect();
        let mut threads: Vec<ThreadDelta> = active
            .into_iter()
            .map(|t| {
                let mut profile = ThreadProfile::new(ThreadId(t), &format!("{}-w{t}", self.name));
                for i in 0..1 + rng.below(6) {
                    let site = rng.below(self.sites as u64 + 1);
                    let site = (site < self.sites as u64).then_some(AllocSiteId(site as u32));
                    let path = [
                        Frame::new(MethodId(10 + t as u32), 0),
                        Frame::new(MethodId(20), i as u32 % 2),
                    ];
                    profile.record_sample(
                        site,
                        &path[..1 + (i as usize % 2)],
                        &sample(i + epoch),
                        PERIOD,
                    );
                }
                if rng.chance(40) && self.sites > 0 {
                    let site = AllocSiteId(rng.below(self.sites as u64) as u32);
                    profile.record_allocation(site, 128 + rng.below(4096));
                }
                ThreadDelta { seq: t, profile }
            })
            .collect();
        threads.sort_by_key(|t| (t.seq, t.profile.thread));
        let delta = ProfileDelta { epoch, threads, site_base, sites };
        let mut bytes = Vec::new();
        BinaryChunkedSink
            .on_delta(epoch, &delta, &mut bytes)
            .expect("the delta encodes");
        self.queue.push_back(PendingFrame {
            epoch: Some(epoch),
            sites: !delta.sites.is_empty(),
            bytes,
        });
        self.retired.absorb(&delta);
        self.generated.push(delta);
    }

    fn generated_samples(&self) -> u64 {
        self.generated.iter().map(ProfileDelta::total_samples).sum()
    }

    /// The session's finish: the trailer counting every generated sample.
    fn finish_record(&self) -> FinishRecord {
        FinishRecord {
            event: PmuEvent::DEFAULT,
            period: PERIOD,
            size_filter: SIZE_FILTER,
            allocation_stats: Default::default(),
            total_samples: self.generated_samples(),
        }
    }

    fn offer(&mut self, frame: PendingFrame) {
        match self.link.offer(frame) {
            Ok(dropped) => self.dropped.extend(dropped),
            Err(refused) => self.blocked = Some(refused),
        }
        self.idle = false;
    }

    fn quiescent(&self) -> bool {
        self.generated.len() == self.plan.deltas
            && self.finish_queued
            && self.queue.is_empty()
            && self.blocked.is_none()
            && self.link.pending.len() == 0
    }
}

// ---------------------------------------------------------------------------------------
// The network and the aggregator
// ---------------------------------------------------------------------------------------

/// One connection: a FIFO of timed messages each way.
#[derive(Debug, Default)]
struct Conn {
    to_aggregator: VecDeque<(Instant, Vec<u8>)>,
    to_producer: VecDeque<(Instant, Vec<u8>)>,
    /// The producer closed its end; what it sent before still arrives.
    producer_closed: bool,
    /// The aggregator closed its end (or crashed); nothing more arrives from it.
    aggregator_closed: bool,
    /// The aggregator learned of the producer's close.
    reaped: bool,
    /// The aggregator swallows this connection's epoch frames.
    hung: bool,
    /// The producer and generation a hello bound this connection to.
    bound: Option<(String, u64)>,
    /// The epoch the hello on this connection was acknowledged with.
    hello_ack: Option<u64>,
}

impl Conn {
    fn send(queue: &mut VecDeque<(Instant, Vec<u8>)>, at: Instant, bytes: Vec<u8>) {
        // FIFO per direction: a message never overtakes the one before it.
        let at = queue.back().map_or(at, |(last, _)| at.max(*last));
        queue.push_back((at, bytes));
    }
}

/// One thing that can happen next.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// A producer's session retires an epoch, or finishes.
    Generate(usize),
    /// A producer's export queue hands its next record to the link.
    Offer(usize),
    /// A producer's link takes its next step.
    Step(usize),
    /// A producer reads its reply, or learns the connection died or timed out.
    Reply(usize),
    /// The aggregator takes a message (or the close) off a connection.
    Receive(usize),
    /// The crashed aggregator restarts.
    Restart,
}

/// The aggregator's in-memory write-ahead logs: each producer's header and body.
type Logs = BTreeMap<String, (PmuEvent, u64, u64, Vec<u8>)>;

struct Sim {
    schedule: Schedule,
    rng: Rng,
    now: Instant,
    producers: Vec<Producer>,
    conns: Vec<Conn>,
    /// The aggregator, while it runs.
    core: Option<AggregatorCore>,
    restart_at: Option<Instant>,
    logs: Logs,
    /// Epoch frames received, counted for the fault plan and the crashes.
    received: u64,
    /// The aggregator has lost state at least once.
    lost_state: bool,
    /// Torn log tails cut at a restart.
    torn: u64,
    /// Producers whose finish a lost aggregator had folded: once that ack is
    /// delivered they never connect again, so no protocol can restore them.
    gone: BTreeSet<String>,
    trace: Vec<String>,
}

impl Sim {
    fn new(schedule: Schedule) -> Sim {
        let producers = schedule
            .producers
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| Producer::new(i, p))
            .collect();
        Sim {
            rng: Rng(schedule.seed ^ 0x5EED),
            now: Instant::now(),
            producers,
            conns: Vec::new(),
            core: Some(AggregatorCore::default()),
            restart_at: None,
            logs: Logs::new(),
            received: 0,
            lost_state: false,
            torn: 0,
            gone: BTreeSet::new(),
            trace: Vec::new(),
            schedule,
        }
    }

    fn note(&mut self, what: String) {
        self.trace.push(what);
    }

    fn latency(&mut self) -> Duration {
        ms(1 + self.rng.below(3))
    }

    /// Runs to quiescence and checks the invariants; `Err` names the broken one.
    fn run(&mut self) -> Result<(), String> {
        for step in 0..MAX_STEPS {
            if self.core.is_some() && self.producers.iter().all(Producer::quiescent) {
                return self.check();
            }
            if self.schedule.severs.contains(&step) {
                self.sever(false);
            }
            if self.schedule.hangs.contains(&step) {
                self.sever(true);
            }
            if !self.act()? {
                self.now += ms(1);
            }
        }
        let stuck: Vec<String> = self
            .producers
            .iter()
            .map(|p| {
                format!(
                    "{}: {:?} generated {}/{} queued {} blocked {} awaiting {} idle {}",
                    p.name,
                    p.link.stats(),
                    p.generated.len(),
                    p.plan.deltas,
                    p.queue.len(),
                    p.blocked.is_some(),
                    p.awaiting.is_some(),
                    p.idle
                )
            })
            .collect();
        let status = self.core.as_ref().map(|core| core.status(|_| 0));
        Err(format!("invariant 2: no quiescence within {MAX_STEPS} steps: {stuck:#?}\n{status:#?}"))
    }

    /// Severs (or hangs) one live connection.
    fn sever(&mut self, hang: bool) {
        let live: Vec<usize> = (0..self.conns.len())
            .filter(|&c| !self.conns[c].producer_closed && !self.conns[c].aggregator_closed)
            .collect();
        if live.is_empty() {
            return;
        }
        let c = live[self.rng.below(live.len() as u64) as usize];
        self.note(format!("{} connection {c}", if hang { "hang" } else { "sever" }));
        if hang {
            self.conns[c].hung = true;
        } else {
            let conn = &mut self.conns[c];
            conn.aggregator_closed = true;
            conn.producer_closed = true;
            conn.to_aggregator.clear();
            conn.to_producer.clear();
        }
    }

    /// Performs one enabled action, picked at random; `false` when none is.
    fn act(&mut self) -> Result<bool, String> {
        let now = self.now;
        let mut enabled = Vec::new();
        for (i, p) in self.producers.iter().enumerate() {
            if p.generated.len() < p.plan.deltas || !p.finish_queued {
                enabled.push(Action::Generate(i));
            }
            // The sink's lock serializes offers with deliveries: nothing is offered
            // while a frame awaits its reply.
            if (p.blocked.is_some() || !p.queue.is_empty()) && p.awaiting.is_none() {
                enabled.push(Action::Offer(i));
            }
            match (p.awaiting, p.conn) {
                (Some(deadline), Some(c)) => {
                    let conn = &self.conns[c];
                    let reply = conn.to_producer.front().is_some_and(|(at, _)| *at <= now);
                    let gone = conn.to_producer.is_empty() && conn.aggregator_closed;
                    if reply || gone || now >= deadline {
                        enabled.push(Action::Reply(i));
                    }
                }
                _ if !p.idle && p.wake_at.is_none_or(|at| at <= now) => {
                    enabled.push(Action::Step(i))
                }
                _ => {}
            }
        }
        if self.core.is_some() {
            for (c, conn) in self.conns.iter().enumerate() {
                let due = conn.to_aggregator.front().is_some_and(|(at, _)| *at <= now);
                let reap = conn.producer_closed && conn.to_aggregator.is_empty() && !conn.reaped;
                if !conn.aggregator_closed && (due || reap) {
                    enabled.push(Action::Receive(c));
                }
            }
        } else if self.restart_at.is_some_and(|at| at <= now) {
            enabled.push(Action::Restart);
        }
        if enabled.is_empty() {
            return Ok(false);
        }
        let action = enabled[self.rng.below(enabled.len() as u64) as usize];
        if self.rng.chance(30) {
            self.now += ms(1);
        }
        match action {
            Action::Generate(p) => self.generate(p),
            Action::Offer(p) => self.offer(p),
            Action::Step(p) => self.producer_step(p)?,
            Action::Reply(p) => self.producer_receive(p),
            Action::Receive(c) => self.aggregator_receive(c)?,
            Action::Restart => self.restart(),
        }
        Ok(true)
    }

    fn generate(&mut self, p: usize) {
        let producer = &mut self.producers[p];
        if producer.generated.len() < producer.plan.deltas {
            producer.generate(&mut self.rng);
        } else {
            let mut bytes = Vec::new();
            BinaryChunkedSink
                .on_finish(&producer.finish_record(), &mut bytes)
                .expect("encodes");
            producer.queue.push_back(PendingFrame { epoch: None, sites: false, bytes });
            producer.finish_queued = true;
        }
    }

    fn offer(&mut self, p: usize) {
        let producer = &mut self.producers[p];
        if let Some(frame) = producer.blocked.take().or_else(|| producer.queue.pop_front()) {
            producer.offer(frame);
        }
    }

    /// One step of a producer's link, acted out on the network.
    fn producer_step(&mut self, p: usize) -> Result<(), String> {
        let now = self.now;
        let latency = self.latency();
        let producer = &mut self.producers[p];
        producer.wake_at = None;
        let step = producer
            .link
            .step(now)
            .map_err(|e| format!("{}: step failed: {e}", producer.name))?;
        let (bytes, fault) = match step {
            LinkStep::Idle => {
                producer.idle = true;
                return Ok(());
            }
            LinkStep::Wait(at) => {
                producer.wake_at = Some(at);
                return Ok(());
            }
            LinkStep::Rebase => {
                let delta = producer.retired.accumulator().clone();
                let epoch = delta.epoch;
                producer.link.rebase(Some(delta));
                producer.dropped.clear();
                let name = producer.name.clone();
                self.note(format!("{name} re-bases at epoch {epoch}"));
                if !self.lost_state {
                    return Err(format!("{name} re-based onto an aggregator that kept its state"));
                }
                return Ok(());
            }
            LinkStep::Connect(hello) => {
                if let Some(c) = producer.conn.take() {
                    self.conns[c].producer_closed = true;
                }
                if self.core.is_none() {
                    let refused = io::Error::from(io::ErrorKind::ConnectionRefused);
                    let _ = producer.link.on_reply(Err(refused), now);
                    return Ok(());
                }
                producer.conn = Some(self.conns.len());
                self.conns.push(Conn::default());
                (hello.to_frame().expect("the hello encodes"), None)
            }
            LinkStep::Frame(frame) => {
                producer.sent += 1;
                (frame.to_vec(), producer.plan.faults.effect(producer.sent))
            }
        };
        let c = producer.conn.expect("connected before sending");
        producer.awaiting = Some(now + ACK_DEADLINE);
        let mut at = now + latency;
        let bytes = match fault {
            Some(FaultAction::Drop) => {
                let conn = &mut self.conns[c];
                conn.producer_closed = true;
                producer.conn = None;
                producer.awaiting = None;
                let reset = io::Error::from(io::ErrorKind::ConnectionReset);
                let _ = producer.link.on_reply(Err(reset), now);
                return Ok(());
            }
            Some(FaultAction::Corrupt) => corrupt(bytes),
            Some(FaultAction::Delay(delay)) => {
                at += delay;
                bytes
            }
            Some(FaultAction::BlackHole) | None => bytes,
        };
        let conn = &mut self.conns[c];
        if !conn.producer_closed && !conn.aggregator_closed {
            Conn::send(&mut conn.to_aggregator, at, bytes);
        }
        Ok(())
    }

    /// A reply arrived, the connection died, or the ack deadline tripped.
    fn producer_receive(&mut self, p: usize) {
        let now = self.now;
        let producer = &mut self.producers[p];
        let c = producer.conn.expect("awaiting on a connection");
        let conn = &mut self.conns[c];
        let reply = match conn.to_producer.front() {
            Some((at, _)) if *at <= now => {
                let (_, bytes) = conn.to_producer.pop_front().expect("checked");
                read_reply(&mut &bytes[..])
            }
            _ if conn.aggregator_closed => Err(io::Error::from(io::ErrorKind::ConnectionReset)),
            _ => Err(io::Error::from(io::ErrorKind::TimedOut)),
        };
        producer.awaiting = None;
        producer.idle = false;
        if producer.link.on_reply(reply, now).is_err() {
            conn.producer_closed = true;
            producer.conn = None;
        }
    }

    /// The aggregator takes one message (or the close) off connection `c`.
    fn aggregator_receive(&mut self, c: usize) -> Result<(), String> {
        let now = self.now;
        let latency = self.latency();
        let conn = &mut self.conns[c];
        let Some((_, bytes)) = conn.to_aggregator.pop_front() else {
            conn.reaped = true;
            if let Some((name, generation)) = &conn.bound {
                self.core.as_mut().expect("running").disconnected(name, *generation);
            }
            return Ok(());
        };
        let mut frame = Vec::new();
        let reply = match wire::read_binary_frame(&mut &bytes[..], &mut frame) {
            Ok(WireRecord::Control(Control::Hello(hello))) => {
                if self.schedule.durable && !self.logs.contains_key(&hello.producer) {
                    let header = (hello.event, hello.period, hello.size_filter, Vec::new());
                    self.logs.insert(hello.producer.clone(), header);
                }
                let (generation, ack) = self.core.as_mut().expect("running").hello(&hello);
                let Control::Ack { epoch, .. } = ack else { unreachable!("a hello is acked") };
                let conn = &mut self.conns[c];
                conn.bound = Some((hello.producer, generation));
                conn.hello_ack = Some(epoch);
                Ok(ack)
            }
            Ok(WireRecord::Control(other)) => Err(format!("unexpected {} record", other.name())),
            Ok(WireRecord::Log(record)) => return self.epoch_frame(c, record, &frame, latency),
            Err(e) => Err(e.message),
        };
        let conn = &mut self.conns[c];
        match reply {
            Ok(ack) => {
                Conn::send(&mut conn.to_producer, now + latency, ack.to_frame().expect("encodes"))
            }
            Err(message) => {
                let error = Control::Error(message).to_frame().expect("encodes");
                Conn::send(&mut conn.to_producer, now + latency, error);
                conn.aggregator_closed = true;
            }
        }
        Ok(())
    }

    /// The aggregator's driver for one epoch frame: faults, the verdict, the log
    /// append, the fold, the ack — and a crash between any two of them.
    fn epoch_frame(
        &mut self,
        c: usize,
        record: LogRecord,
        frame: &[u8],
        latency: Duration,
    ) -> Result<(), String> {
        let now = self.now;
        let conn = &mut self.conns[c];
        let name = conn.bound.as_ref().map(|(name, _)| name.clone());
        if let (Some(acked), LogRecord::Delta(delta)) = (conn.hello_ack, &record) {
            if delta.epoch <= acked {
                return Err(format!(
                    "{name:?} re-sent epoch {} at or below its hello ack {acked}",
                    delta.epoch
                ));
            }
        }
        if conn.hung {
            return Ok(());
        }
        self.received += 1;
        let fault = self.schedule.aggregator_faults.effect(self.received);
        let mut at = now + latency;
        match fault {
            Some(FaultAction::Drop) => {
                conn.aggregator_closed = true;
                return Ok(());
            }
            Some(FaultAction::Delay(delay)) => at += delay,
            _ => {}
        }
        let verdict =
            self.core
                .as_mut()
                .expect("running")
                .frame(name.as_deref(), &record, frame.len());
        let log = name.as_ref().and_then(|name| self.logs.get_mut(name));
        if let Some(fate) = self.schedule.crashes.get(&self.received).copied() {
            // The crash comes between two outputs: after the append (whole or
            // torn), or before it.
            if let (Verdict::Append, Some(log)) = (&verdict, log) {
                match fate {
                    WalFate::Kept => log.3.extend_from_slice(frame),
                    WalFate::Torn => log.3.extend_from_slice(&frame[..frame.len() / 2]),
                    WalFate::Lost => {}
                }
            }
            self.crash(fate);
            return Ok(());
        }
        let reply = match verdict {
            Verdict::Reply(ack) => Ok(ack),
            Verdict::Refuse(message) => Err(message),
            Verdict::Append => {
                if let Some(log) = log {
                    log.3.extend_from_slice(frame);
                }
                let name = name.expect("only a producer's frame is appended");
                Ok(self.core.as_mut().expect("running").commit(&name, &record))
            }
        };
        let conn = &mut self.conns[c];
        match reply {
            Ok(ack) => {
                let bytes = ack.to_frame().expect("encodes");
                let bytes =
                    if fault == Some(FaultAction::Corrupt) { corrupt(bytes) } else { bytes };
                Conn::send(&mut conn.to_producer, at, bytes);
            }
            Err(message) => {
                Conn::send(
                    &mut conn.to_producer,
                    at,
                    Control::Error(message).to_frame().expect("encodes"),
                );
                conn.aggregator_closed = true;
            }
        }
        Ok(())
    }

    fn crash(&mut self, fate: WalFate) {
        self.note(format!(
            "crash at frame {} ({fate:?}, durable {})",
            self.received, self.schedule.durable
        ));
        let lost = self.core.take().expect("running");
        for conn in &mut self.conns {
            conn.aggregator_closed = true;
            conn.to_aggregator.clear();
        }
        if fate == WalFate::Lost || !self.schedule.durable {
            self.logs.clear();
            self.lost_state = true;
            let done = lost.producers.iter().filter(|(_, p)| p.fold.is_finished());
            self.gone.extend(done.map(|(name, _)| name.clone()));
        }
        self.restart_at = Some(self.now + ms(5 + self.rng.below(150)));
    }

    /// Restarts the aggregator from its logs, as recovery does: each log body
    /// replays through ingest's own rules, and a torn tail is cut.
    fn restart(&mut self) {
        let mut core = AggregatorCore::default();
        for (name, (event, period, size_filter, body)) in &mut self.logs {
            let mut state = ProducerState::new(*event, *period, *size_filter);
            let (_, good, torn) = state.replay(body);
            self.torn += u64::from(torn.is_some());
            body.truncate(good as usize);
            core.producers.insert(name.clone(), state);
        }
        self.note("restart".to_string());
        self.core = Some(core);
        self.restart_at = None;
    }

    /// Invariants 1 and 3, after quiescence.
    fn check(&self) -> Result<(), String> {
        let core = self.core.as_ref().expect("quiescent means running");
        let restored =
            |p: &&Producer| core.producers.contains_key(&p.name) || !self.gone.contains(&p.name);
        for p in self.producers.iter().filter(restored) {
            let state = core.producers.get(&p.name).ok_or(format!(
                "{} never registered: {:?} generated {} gone {:?}",
                p.name,
                p.link.stats(),
                p.generated.len(),
                self.gone
            ))?;
            // The cold fold: the kept deltas replayed as an epoch log, closed by a
            // trailer counting exactly them.
            let (mut log, mut dropped_samples) = (Vec::new(), 0);
            for delta in &p.generated {
                if p.dropped.contains(&delta.epoch) {
                    dropped_samples += delta.total_samples();
                } else {
                    BinaryChunkedSink.on_delta(delta.epoch, delta, &mut log).expect("encodes");
                }
            }
            let kept = FinishRecord {
                total_samples: p.generated_samples() - dropped_samples,
                ..p.finish_record()
            };
            BinaryChunkedSink.on_finish(&kept, &mut log).expect("encodes");
            let cold = BinaryChunkedSink
                .read_log_bytes(&log)
                .map_err(|e| format!("{}: cold log: {e}", p.name))?;
            let stats = p.link.stats();
            let folded = state.fold.total_samples();
            if folded + dropped_samples != p.generated_samples() {
                return Err(format!(
                    "invariant 3: {} folded {folded} + dropped {dropped_samples} != generated {}",
                    p.name,
                    p.generated_samples()
                ));
            }
            if !state.fold.is_finished() || (p.dropped.is_empty() && state.truncated()) {
                return Err(format!(
                    "invariant 1: {} finished lossy or not at all: {stats:?}",
                    p.name
                ));
            }
            let fleet = state.fold.clone().assemble();
            for query in [Query::new(), Query::new().group_by(GroupBy::Context)] {
                let (a, b) = (
                    query.evaluate(&fleet).expect("evaluates"),
                    query.evaluate(&cold).expect("evaluates"),
                );
                if a.to_text() != b.to_text() || a.to_json() != b.to_json() {
                    return Err(format!(
                        "invariant 1: {}'s fleet fold renders differently:\n{}\nvs cold\n{}",
                        p.name,
                        a.to_text(),
                        b.to_text()
                    ));
                }
            }
        }
        Ok(())
    }
}

fn corrupt(mut bytes: Vec<u8>) -> Vec<u8> {
    if let Some(i) = bytes.len().checked_sub(2) {
        bytes[i] ^= 0xFF;
    }
    bytes
}

/// What a run went through, summed over schedules to show the faults happened.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Coverage {
    rebases: u64,
    duplicates: u64,
    spilled: u64,
    dropped: u64,
    torn: u64,
    resumes: u64,
}

fn run(schedule: Schedule) -> Coverage {
    let described = format!("{schedule:#?}");
    let mut sim = Sim::new(schedule);
    if let Err(why) = sim.run() {
        panic!("{why}\nevents: {:?}\n{described}", sim.trace);
    }
    let mut seen = Coverage { torn: sim.torn, ..Coverage::default() };
    for p in &sim.producers {
        let stats = p.link.stats();
        (seen.rebases, seen.spilled) =
            (seen.rebases + stats.rebases, seen.spilled + stats.spilled_frames);
        seen.dropped += stats.dropped_epochs;
    }
    for row in sim.core.as_ref().expect("quiescent").status(|_| 0) {
        (seen.duplicates, seen.resumes) =
            (seen.duplicates + row.duplicates, seen.resumes + row.resumes);
    }
    seen
}

#[test]
fn seeded_schedules_hold_the_invariants() {
    let mut total = Coverage::default();
    for seed in 0..256 {
        let seen = run(Schedule::random(seed));
        total.rebases += seen.rebases;
        total.duplicates += seen.duplicates;
        total.spilled += seen.spilled;
        total.dropped += seen.dropped;
        total.torn += seen.torn;
        total.resumes += seen.resumes;
    }
    // Every fault path ran somewhere in the 256 schedules.
    let Coverage { rebases, duplicates, spilled, dropped, torn, resumes } = total;
    assert!(
        [rebases, duplicates, spilled, dropped, torn, resumes].iter().all(|n| *n > 0),
        "{total:?}"
    );
}

/// The minimal lost-state schedule: one producer of two deltas, the first
/// defining a site, and an aggregator that loses its log at the second epoch
/// frame. The restarted aggregator acknowledges 0; without the re-base the second
/// delta hits a site gap forever and the run never quiesces.
#[test]
fn a_lost_wal_schedule_re_bases_and_quiesces() {
    let producer = ProducerPlan {
        deltas: 2,
        policy: OverflowPolicy::SpillThenBlock,
        budget: 4096,
        faults: FaultPlan::new(),
    };
    let seen = run(Schedule {
        seed: 7,
        producers: vec![producer],
        durable: true,
        aggregator_faults: FaultPlan::new(),
        crashes: BTreeMap::from([(2, WalFate::Lost)]),
        severs: BTreeSet::new(),
        hangs: BTreeSet::new(),
    });
    assert_eq!(seen.rebases, 1, "{seen:?}");
}

/// With no session left to re-base from, a producer whose aggregator lost its
/// state gives its backlog up as declared dropped epochs, reconnects at once to
/// declare them, and drops every later delta instead of retrying a site gap.
#[test]
fn a_lost_state_without_a_re_base_source_is_declared_not_retried() {
    let plan = ProducerPlan {
        deltas: 3,
        policy: OverflowPolicy::SpillThenBlock,
        budget: 4096,
        faults: FaultPlan::new(),
    };
    let (mut p, mut rng, now) = (Producer::new(0, plan), Rng(1), Instant::now());
    let ack = |epoch| -> io::Result<Control> { Ok(Control::Ack { epoch, terminal: false }) };
    let mut deliver_next = |p: &mut Producer| {
        p.generate(&mut rng);
        let frame = p.queue.pop_front().expect("generated");
        p.offer(frame);
        assert!(matches!(p.link.step(now), Ok(LinkStep::Frame(_))));
    };
    assert!(matches!(p.link.step(now), Ok(LinkStep::Connect(_))));
    p.link.on_reply(ack(0), now).expect("handshake");
    deliver_next(&mut p);
    p.link.on_reply(ack(1), now).expect("the first delta is acknowledged");
    // The next delivery fails; the reconnect meets an aggregator that lost it all.
    deliver_next(&mut p);
    assert!(p.link.on_reply(Err(io::ErrorKind::ConnectionReset.into()), now).is_err());
    assert!(matches!(p.link.step(now), Ok(LinkStep::Connect(_))));
    p.link.on_reply(ack(0), now).expect("handshake");
    assert!(matches!(p.link.step(now), Ok(LinkStep::Rebase)));
    p.link.rebase(None);
    // The backlog and the lost history are declared on a hello sent at once.
    let Ok(LinkStep::Connect(Control::Hello(hello))) = p.link.step(now) else {
        panic!("a lost state reconnects without waiting")
    };
    let stats = p.link.stats();
    assert_eq!((hello.dropped_epochs, stats.pending_frames, stats.rebases), (2, 0, 0));
    p.link.on_reply(ack(0), now).expect("handshake");
    // A later delta is dropped as declared loss, never sent into a site gap.
    p.generate(&mut rng);
    let frame = p.queue.pop_front().expect("generated");
    let epoch = frame.epoch.expect("a delta");
    p.offer(frame);
    assert_eq!(p.dropped, BTreeSet::from([epoch]));
    assert!(matches!(p.link.step(now), Ok(LinkStep::Idle)));
}

/// A lossy producer drops epochs while the aggregator is down, and the restarted
/// aggregator has lost its state: the re-base delta holds the dropped epochs, so the
/// producer stops declaring them and finishes neither lossy nor truncated.
#[test]
fn a_re_base_covers_the_epochs_dropped_before_it() {
    let producer = ProducerPlan {
        deltas: 4,
        policy: OverflowPolicy::DropOldestEpochsFlaggedLossy,
        budget: 150,
        faults: FaultPlan::new(),
    };
    let mut sim = Sim::new(Schedule {
        seed: 0,
        producers: vec![producer],
        durable: false,
        aggregator_faults: FaultPlan::new(),
        crashes: BTreeMap::from([(2, WalFate::Lost)]),
        severs: BTreeSet::new(),
        hangs: BTreeSet::new(),
    });
    if let Err(why) = sim.run() {
        panic!("{why}\nevents: {:?}", sim.trace);
    }
    let stats = sim.producers[0].link.stats();
    assert_eq!((stats.rebases, stats.dropped_epochs), (1, 1), "{stats:?}");
    assert!(sim.producers[0].dropped.is_empty());
    let [row] = <[_; 1]>::try_from(sim.core.as_ref().expect("running").status(|_| 0)).unwrap();
    assert!(row.finished && !row.truncated && row.dropped_epochs == 0, "{row:?}");
}
