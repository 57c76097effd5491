//! Per-thread object-centric profiles and the whole-run profile container, including
//! the plain-text rendering of "profile files" (§5 of the paper: the online collector
//! generates a profile per thread; the offline analyzer merges them). The text is
//! render-only: profiles read back from binary epoch logs ([`crate::wire`]).

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, ThreadId};

use crate::cct::{Cct, CctNodeId};
use crate::fxhash::FxHashMap;
use crate::metrics::MetricVector;
use crate::object::{AllocSite, AllocSiteId};

/// Sample-side metrics of one allocation site within one thread: the aggregate over all
/// accesses, and the breakdown per access calling context.
#[derive(Debug, Clone, Default)]
pub struct SiteMetrics {
    /// Aggregate over every sample attributed to the site by this thread.
    pub total: MetricVector,
    /// Breakdown by access calling context (node of the thread's CCT).
    pub by_context: FxHashMap<CctNodeId, MetricVector>,
}

impl SiteMetrics {
    /// Folds one sample attributed at access context `ctx` into the site.
    pub fn record_sample(&mut self, ctx: CctNodeId, sample: &djx_pmu::Sample, period: u64) {
        self.total.record_sample(sample, period);
        self.by_context.entry(ctx).or_default().record_sample(sample, period);
    }

    /// Records one allocation of `bytes` bytes at the site.
    pub fn record_allocation(&mut self, bytes: u64) {
        self.total.record_allocation(bytes);
    }
}

/// The object-centric profile one thread produces.
#[derive(Debug, Clone)]
pub struct ThreadProfile {
    /// The thread.
    pub thread: ThreadId,
    /// Thread name.
    pub thread_name: String,
    /// Calling context tree holding the access contexts referenced by `sites`.
    pub cct: Cct,
    /// Per-allocation-site metrics.
    pub sites: FxHashMap<AllocSiteId, SiteMetrics>,
    /// Samples whose effective address was not enclosed by any monitored object
    /// (unmonitored small objects, stack/runtime memory).
    pub unattributed: MetricVector,
    /// Total PMU samples this thread received.
    pub samples: u64,
}

impl ThreadProfile {
    /// Creates an empty profile for a thread.
    pub fn new(thread: ThreadId, thread_name: &str) -> Self {
        Self {
            thread,
            thread_name: thread_name.to_string(),
            cct: Cct::new(),
            sites: FxHashMap::default(),
            unattributed: MetricVector::default(),
            samples: 0,
        }
    }

    /// Records a sample attributed to `site` at the access calling context `path`.
    pub fn record_attributed(
        &mut self,
        site: AllocSiteId,
        path: &[Frame],
        sample: &djx_pmu::Sample,
        period: u64,
    ) {
        self.samples += 1;
        let ctx = self.cct.insert_path(path);
        self.sites.entry(site).or_default().record_sample(ctx, sample, period);
    }

    /// Records a sample that could not be attributed to any monitored object.
    pub fn record_unattributed(&mut self, sample: &djx_pmu::Sample, period: u64) {
        self.samples += 1;
        self.unattributed.record_sample(sample, period);
    }

    /// Records an allocation at `site` performed by this thread.
    pub fn record_allocation(&mut self, site: AllocSiteId, bytes: u64) {
        self.sites.entry(site).or_default().record_allocation(bytes);
    }

    /// Merges a later delta of the same thread's profile into this one: metric totals
    /// sum, per-context breakdowns are re-keyed through a CCT merge, and this profile's
    /// identity (thread id, first-seen name) wins. Merging partitioned deltas is exact:
    /// the result renders byte-identically to a profile built in one piece
    /// ([`ObjectCentricProfile::to_text`] canonicalizes contexts by call path, not node
    /// id). This is the retirement step of the session's pause-free snapshots.
    pub fn merge_from(&mut self, delta: &ThreadProfile) {
        let mapping = self.cct.merge(&delta.cct);
        self.samples += delta.samples;
        self.unattributed.merge(&delta.unattributed);
        for (site, metrics) in &delta.sites {
            let target = self.sites.entry(*site).or_default();
            target.total.merge(&metrics.total);
            for (ctx, m) in &metrics.by_context {
                target.by_context.entry(mapping[ctx.0 as usize]).or_default().merge(m);
            }
        }
    }

    /// Total samples attributed to monitored objects.
    pub fn attributed_samples(&self) -> u64 {
        self.sites.values().map(|s| s.total.samples).sum()
    }

    /// Approximate resident bytes of the profile (memory-overhead accounting).
    pub fn approx_bytes(&self) -> usize {
        self.cct.approx_bytes()
            + self
                .sites
                .values()
                .map(|s| {
                    std::mem::size_of::<SiteMetrics>()
                        + s.by_context.len()
                            * (std::mem::size_of::<CctNodeId>()
                                + std::mem::size_of::<MetricVector>())
                })
                .sum::<usize>()
    }
}

/// One per-(thread, site) allocation-count row, as the allocation agent reports them:
/// `(thread, site, allocation count, allocated bytes)`.
pub type AllocationRow = (ThreadId, AllocSiteId, u64, u64);

/// Folds per-(thread, site) allocation counts into assembled thread profiles, creating
/// an `<allocation-only>` thread for rows whose thread recorded no samples — the final
/// assembly step shared by `Session::object_profile` and the streamed-delta replay
/// ([`DeltaFold::assemble`], [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink)). Rows
/// must arrive in a deterministic order for byte-identical renderings.
pub(crate) fn fold_allocation_rows(
    threads: &mut Vec<ThreadProfile>,
    rows: impl IntoIterator<Item = AllocationRow>,
) {
    for (thread, site, count, bytes) in rows {
        let profile = match threads.iter_mut().find(|p| p.thread == thread) {
            Some(p) => p,
            None => {
                threads.push(ThreadProfile::new(thread, "<allocation-only>"));
                threads.last_mut().unwrap()
            }
        };
        let sm = profile.sites.entry(site).or_default();
        sm.total.allocations += count;
        sm.total.allocated_bytes += bytes;
    }
}

// ---------------------------------------------------------------------------------------
// Epoch deltas: the unit of incremental export
// ---------------------------------------------------------------------------------------

/// One thread's share of a [`ProfileDelta`]: the profile fragment the thread
/// accumulated during the delta's epoch, tagged with the thread's session-wide
/// first-seen sequence number so folds reassemble threads in first-seen order.
#[derive(Debug, Clone)]
pub struct ThreadDelta {
    /// The thread's first-seen sequence within its session. Stable across epochs: a
    /// thread's later deltas repeat the sequence its first delta carried, so any
    /// subset of deltas sorts threads the way the session's own snapshot would.
    pub seq: u64,
    /// The profile fragment (samples recorded during the epoch only). The first delta
    /// of a thread carries its real name; later fragments carry the `<attached>`
    /// placeholder and folding keeps the first-seen identity.
    pub profile: ThreadProfile,
}

/// The object-centric state one retired buffer epoch accumulated — the unit the
/// asynchronous export pipeline streams (see [`crate::export`]).
///
/// A delta is a *partition* of the run: folding every delta of a session in epoch
/// order (plus the terminal allocation rows) reproduces the session's own
/// [`ObjectCentricProfile`] byte-identically. [`ProfileDelta::merge_from`] is the fold
/// step; it is also how the export queue coalesces adjacent deltas under backpressure
/// — merging two deltas first is equivalent to folding them one after the other.
#[derive(Debug, Clone)]
pub struct ProfileDelta {
    /// The buffer epoch this delta closed. Epochs are strictly monotonic per session
    /// but not dense in a stream: empty epochs are never streamed, and coalesced
    /// deltas keep the *latest* epoch they cover.
    pub epoch: u64,
    /// Per-thread fragments, ordered by `(seq, thread)` — thread-first-seen order.
    pub threads: Vec<ThreadDelta>,
}

impl ProfileDelta {
    /// An empty delta for epoch `epoch`.
    pub fn empty(epoch: u64) -> Self {
        Self { epoch, threads: Vec::new() }
    }

    /// `true` when no thread recorded anything during the epoch.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Total PMU samples across every thread fragment.
    pub fn total_samples(&self) -> u64 {
        self.threads.iter().map(|t| t.profile.samples).sum()
    }

    /// Folds a **later** delta of the same session into this one: fragments of the
    /// same thread merge exactly ([`ThreadProfile::merge_from`] — this delta's
    /// first-seen identity wins), new threads are adopted with their sequence, and the
    /// epoch advances to the later delta's. Folding partitioned deltas in epoch order
    /// is exact: the result renders byte-identically to a profile built in one piece.
    ///
    /// The fold is keyed: one thread→slot map is built per call, so absorbing a delta
    /// costs O(self + later) instead of the old O(self × later) linear re-scan per
    /// fragment — this is the accumulation step of both [`DeltaFold`] and the export
    /// queue's Coalesce backpressure, where the accumulator side keeps growing. The
    /// `(seq, thread)` ordering is preserved without a re-sort in the common case
    /// (threads new to the accumulator usually carry later first-seen sequences);
    /// adversarial orders fall back to one sort.
    pub fn merge_from(&mut self, later: &ProfileDelta) {
        self.epoch = self.epoch.max(later.epoch);
        if later.threads.is_empty() {
            return;
        }
        let mut slots: HashMap<ThreadId, usize> = self
            .threads
            .iter()
            .enumerate()
            .map(|(slot, t)| (t.profile.thread, slot))
            .collect();
        for td in &later.threads {
            match slots.entry(td.profile.thread) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.threads[*e.get()].profile.merge_from(&td.profile);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(self.threads.len());
                    self.threads.push(td.clone());
                }
            }
        }
        // One O(n) order check per fold; the sort itself only runs when the order
        // is actually broken (an appended thread with an out-of-sequence seq, or a
        // hand-built accumulator that never was ordered), so adversarial inputs
        // still normalize to the documented canonical `(seq, thread)` order while
        // the steady-state fold stays sort-free.
        let ordered = self
            .threads
            .windows(2)
            .all(|w| (w[0].seq, w[0].profile.thread) <= (w[1].seq, w[1].profile.thread));
        if !ordered {
            self.threads.sort_by_key(|t| (t.seq, t.profile.thread));
        }
    }
}

/// A violation of the incremental-fold contract: the stream of deltas feeding a
/// [`DeltaFold`] was reordered, replayed, or truncated in a way the fold can prove.
///
/// These are the two checks every consumer of a delta stream performs — the epoch-log
/// replay ([`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes)) maps
/// them onto [`ProfileParseError`] with the offending line, and the fleet aggregator
/// ([`crate::fleet`]) uses them to reject out-of-order frames per producer and to
/// refuse a finish record whose checksum disagrees with what was actually folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldError {
    /// A delta arrived whose epoch is not strictly greater than the last folded one.
    /// A loss-free stream is strictly increasing (empty epochs are skipped, coalesced
    /// deltas keep the latest epoch they cover), so a repeat or regression means the
    /// stream was duplicated or reordered in transit.
    OutOfOrderEpoch {
        /// The offending delta's epoch.
        epoch: u64,
        /// The last epoch the fold accepted.
        last: u64,
    },
    /// The folded sample total disagrees with the terminal record's checksum: deltas
    /// were lost or duplicated between the producer and this fold.
    ChecksumMismatch {
        /// Samples actually folded.
        folded: u64,
        /// Samples the terminal record promised.
        expected: u64,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::OutOfOrderEpoch { epoch, last } => write!(
                f,
                "out-of-order epoch {epoch} after {last} — a loss-free stream is strictly increasing"
            ),
            FoldError::ChecksumMismatch { folded, expected } => write!(
                f,
                "streamed deltas fold to {folded} samples but the finish record counts {expected} — lost or duplicated deltas"
            ),
        }
    }
}

impl std::error::Error for FoldError {}

/// Accumulates streamed [`ProfileDelta`]s back into whole per-thread profiles — the
/// replay side of the export pipeline's loss-free guarantee, and the per-producer
/// state a fleet aggregator keeps ([`crate::fleet`]). Internally this is one growing
/// delta folded with [`ProfileDelta::merge_from`], so replay and coalescing share one
/// exactness argument.
///
/// The fold is **incremental**: each [`DeltaFold::absorb_ordered`] call does O(delta)
/// work against the accumulator — history is never re-read, so a long-lived consumer
/// (a daemon folding an unbounded stream) pays per-frame cost proportional to the
/// frame, not to the run so far. The fold also carries the stream's integrity state:
/// [`DeltaFold::last_epoch`] is the resume point a reconnecting producer backfills
/// from, [`absorb_ordered`](DeltaFold::absorb_ordered) proves epochs strictly
/// increase, and [`verify_checksum`](DeltaFold::verify_checksum) proves the terminal
/// sample count was reached — the three checks that make loss detectable end to end.
///
/// ```
/// use djxperf::{DeltaFold, FoldError, ProfileDelta};
///
/// let mut fold = DeltaFold::new();
/// fold.absorb_ordered(&ProfileDelta::empty(3)).unwrap();
/// // Epoch 3 again: a duplicate cannot slip in.
/// let dup = fold.absorb_ordered(&ProfileDelta::empty(3));
/// assert_eq!(dup, Err(FoldError::OutOfOrderEpoch { epoch: 3, last: 3 }));
/// assert_eq!(fold.last_epoch(), Some(3));
/// // And the terminal checksum confirms nothing was lost.
/// assert!(fold.verify_checksum(0).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct DeltaFold {
    acc: ProfileDelta,
    deltas: u64,
    last_epoch: Option<u64>,
}

impl Default for DeltaFold {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self { acc: ProfileDelta::empty(0), deltas: 0, last_epoch: None }
    }

    /// A fold seeded from an already-merged accumulator — how a live tap attaching
    /// mid-stream adopts everything retired before it subscribed. A seed at epoch 0
    /// is the empty pre-stream state, so ordering starts unconstrained there.
    pub(crate) fn seed_from(acc: ProfileDelta) -> Self {
        let last_epoch = (acc.epoch > 0).then_some(acc.epoch);
        Self { acc, deltas: 0, last_epoch }
    }

    /// The running accumulator: every fragment folded so far, merged per thread in
    /// thread-first-seen order. Live watches replay deferred site rows out of this.
    pub(crate) fn acc(&self) -> &ProfileDelta {
        &self.acc
    }

    /// Folds one streamed delta in without checking its epoch. Deltas must arrive in
    /// stream (epoch) order for the fold to be exact; callers that cannot trust the
    /// transport should use [`DeltaFold::absorb_ordered`] instead.
    pub fn absorb(&mut self, delta: &ProfileDelta) {
        self.acc.merge_from(delta);
        self.deltas += 1;
        self.last_epoch = Some(self.last_epoch.map_or(delta.epoch, |e| e.max(delta.epoch)));
    }

    /// Folds one streamed delta in, first proving the stream order: the delta's epoch
    /// must be strictly greater than [`DeltaFold::last_epoch`]. On violation the fold
    /// is left untouched and the caller decides — a log replay fails the parse, a
    /// fleet aggregator drops the duplicate frame and re-acknowledges.
    ///
    /// # Errors
    ///
    /// [`FoldError::OutOfOrderEpoch`] when the epoch repeats or regresses.
    pub fn absorb_ordered(&mut self, delta: &ProfileDelta) -> Result<(), FoldError> {
        if let Some(last) = self.last_epoch {
            if delta.epoch <= last {
                return Err(FoldError::OutOfOrderEpoch { epoch: delta.epoch, last });
            }
        }
        self.absorb(delta);
        Ok(())
    }

    /// Checks the folded sample total against a terminal record's checksum without
    /// consuming the fold.
    ///
    /// # Errors
    ///
    /// [`FoldError::ChecksumMismatch`] when deltas were lost or duplicated.
    pub fn verify_checksum(&self, expected: u64) -> Result<(), FoldError> {
        let folded = self.total_samples();
        if folded != expected {
            return Err(FoldError::ChecksumMismatch { folded, expected });
        }
        Ok(())
    }

    /// Number of deltas folded so far.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Latest epoch folded.
    pub fn epoch(&self) -> u64 {
        self.acc.epoch
    }

    /// The last epoch accepted by the fold, or `None` while the fold is empty. This
    /// is the acknowledgement point of the fleet protocol: a reconnecting producer
    /// resumes from the frame after this epoch.
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// Total samples folded so far.
    pub fn total_samples(&self) -> u64 {
        self.acc.total_samples()
    }

    /// The folded per-thread profiles in thread-first-seen order.
    pub fn into_threads(self) -> Vec<ThreadProfile> {
        self.acc.threads.into_iter().map(|t| t.profile).collect()
    }

    /// Assembles the fold into a complete [`ObjectCentricProfile`], applying the
    /// terminal allocation rows exactly the way the live session does — the replay
    /// endpoint of the loss-free guarantee: with the rows, site table and stats of a
    /// quiesced session, the result is byte-identical to that session's own profile.
    pub fn assemble(
        self,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
        sites: Vec<AllocSite>,
        allocations: impl IntoIterator<Item = AllocationRow>,
        allocation_stats: AllocationStats,
    ) -> ObjectCentricProfile {
        let mut threads = self.into_threads();
        fold_allocation_rows(&mut threads, allocations);
        ObjectCentricProfile { event, period, size_filter, sites, threads, allocation_stats }
    }
}

/// Counters describing the allocation-agent side of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationStats {
    /// Allocation callbacks delivered by the runtime.
    pub callbacks: u64,
    /// Allocations whose size passed the filter and are monitored.
    pub monitored: u64,
    /// Allocations skipped by the size filter.
    pub filtered: u64,
    /// Object moves applied to the splay tree at GC end.
    pub relocations: u64,
    /// Moved objects that were unknown to the profiler and were inserted directly
    /// (attach-mode behaviour).
    pub unknown_moves: u64,
    /// Object reclamations removed from the splay tree.
    pub reclamations: u64,
}

/// The complete output of one profiled run: configuration, the allocation-site table,
/// and the per-thread profiles.
#[derive(Debug, Clone)]
pub struct ObjectCentricProfile {
    /// The sampled PMU event.
    pub event: PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// Size filter S in bytes (allocations smaller than this were not monitored).
    pub size_filter: u64,
    /// Interned allocation sites.
    pub sites: Vec<AllocSite>,
    /// Per-thread profiles in thread-start order.
    pub threads: Vec<ThreadProfile>,
    /// Allocation-agent counters.
    pub allocation_stats: AllocationStats,
}

impl ObjectCentricProfile {
    /// Total samples over all threads.
    pub fn total_samples(&self) -> u64 {
        self.threads.iter().map(|t| t.samples).sum()
    }

    /// Looks up a site by id.
    pub fn site(&self, id: AllocSiteId) -> Option<&AllocSite> {
        self.sites.get(id.0 as usize)
    }

    /// Renders the profile in the line-based text format of the paper's profile
    /// files. The rendering is canonical (sites by id, access contexts by encoded
    /// path, independent of CCT node-id assignment), so two profiles render equal
    /// exactly when they hold the same data. Render-only: nothing parses it back.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "djxperf-profile v1");
        let _ = writeln!(
            out,
            "config event={} period={} size_filter={}",
            self.event.hardware_name(),
            self.period,
            self.size_filter
        );
        let s = self.allocation_stats;
        let _ = writeln!(
            out,
            "alloc-stats callbacks={} monitored={} filtered={} relocations={} unknown_moves={} reclamations={}",
            s.callbacks, s.monitored, s.filtered, s.relocations, s.unknown_moves, s.reclamations
        );
        for site in &self.sites {
            let _ = writeln!(
                out,
                "site {} class={} path={}",
                site.id.0,
                escape(&site.class_name),
                encode_path(&site.call_path)
            );
        }
        for t in &self.threads {
            let _ = writeln!(
                out,
                "thread {} name={} samples={}",
                t.thread.0,
                escape(&t.thread_name),
                t.samples
            );
            let _ = writeln!(out, "  unattributed {}", encode_metrics(&t.unattributed));
            let mut site_ids: Vec<_> = t.sites.keys().copied().collect();
            site_ids.sort_unstable();
            for sid in site_ids {
                let sm = &t.sites[&sid];
                let _ = writeln!(out, "  object {} {}", sid.0, encode_metrics(&sm.total));
                let mut ctxs: Vec<_> = sm
                    .by_context
                    .iter()
                    .map(|(ctx, m)| (encode_path(&t.cct.path_of(*ctx)), m))
                    .collect();
                ctxs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                for (path, m) in ctxs {
                    let _ = writeln!(out, "    access {} {}", path, encode_metrics(m));
                }
            }
        }
        out
    }
}

/// Error produced when reading a binary epoch log back fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParseError {
    /// 1-based number of the offending frame, or 0 for a failure before any frame
    /// (an unreadable file).
    pub frame: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile parse error at frame {}: {}", self.frame, self.message)
    }
}

impl std::error::Error for ProfileParseError {}

/// Error resolving a hardware event name that no [`PmuEvent`] matches.
///
/// A corrupted or foreign profile header must surface as a parse error; silently
/// substituting the default L1-miss event would misattribute every metric in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEventError {
    /// The unrecognized hardware event name.
    pub name: String,
}

impl std::fmt::Display for UnknownEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown hardware event name {:?}", self.name)
    }
}

impl std::error::Error for UnknownEventError {}

/// Resolves a hardware event name back to a [`PmuEvent`].
///
/// # Errors
///
/// Returns [`UnknownEventError`] when the name matches no known event.
pub fn event_from_name(name: &str) -> Result<PmuEvent, UnknownEventError> {
    match name {
        "MEM_LOAD_UOPS_RETIRED:L1_MISS" => Ok(PmuEvent::L1Miss),
        "MEM_LOAD_UOPS_RETIRED:L2_MISS" => Ok(PmuEvent::L2Miss),
        "MEM_LOAD_UOPS_RETIRED:L3_MISS" => Ok(PmuEvent::L3Miss),
        "DTLB_LOAD_MISSES:MISS_CAUSES_A_WALK" => Ok(PmuEvent::DtlbMiss),
        "MEM_TRANS_RETIRED:LOAD_LATENCY" => Ok(PmuEvent::LoadLatency { threshold: 30 }),
        "MEM_UOPS_RETIRED:ALL_LOADS" => Ok(PmuEvent::Loads),
        "MEM_UOPS_RETIRED:ALL_STORES" => Ok(PmuEvent::Stores),
        "MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM" => Ok(PmuEvent::RemoteDram),
        _ => Err(UnknownEventError { name: name.to_string() }),
    }
}

/// Escapes a value into one `key=value` token of the text format and the fleet WAL
/// header line: the token holds no whitespace (fields are split on it, lines on LF)
/// and [`unescape`] gives the value back exactly. Backslash, space, tab, LF and CR
/// get short escapes (`\\`, `\s`, `\t`, `\n`, `\r`); any other whitespace
/// character becomes `\u{hex}`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c if c.is_whitespace() => {
                let _ = write!(out, "\\u{{{:x}}}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// The inverse of [`escape`], for the fleet WAL header line. A backslash that
/// starts no known escape is kept as written.
pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let (decoded, used) = match tail.chars().next() {
            Some('\\') => (Some('\\'), 1),
            Some('s') => (Some(' '), 1),
            Some('t') => (Some('\t'), 1),
            Some('n') => (Some('\n'), 1),
            Some('r') => (Some('\r'), 1),
            Some('u') => tail
                .strip_prefix("u{")
                .and_then(|t| t.split_once('}'))
                .and_then(|(hex, _)| {
                    let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                    Some((Some(c), hex.len() + 3))
                })
                .unwrap_or((None, 0)),
            _ => (None, 0),
        };
        match decoded {
            Some(c) => out.push(c),
            None => out.push('\\'),
        }
        rest = &tail[used..];
    }
    out.push_str(rest);
    out
}

/// Encodes a root-first call path as `method:bci,method:bci,…` (`-` when empty) — the
/// canonical registry-free path rendering shared by the text rendering and the query
/// layer's [`Display`](std::fmt::Display) output.
pub(crate) fn encode_path(path: &[Frame]) -> String {
    if path.is_empty() {
        return "-".to_string();
    }
    path.iter()
        .map(|f| format!("{}:{}", f.method.0, f.bci))
        .collect::<Vec<_>>()
        .join(",")
}

fn encode_metrics(m: &MetricVector) -> String {
    format!(
        "samples={} weighted={} latency={} local={} remote={} loads={} stores={} allocs={} bytes={}",
        m.samples,
        m.weighted_events,
        m.latency_cycles,
        m.local_samples,
        m.remote_samples,
        m.load_samples,
        m.store_samples,
        m.allocations,
        m.allocated_bytes
    )
}

/// Splits `key=value` tokens of the fleet WAL header line into a map.
pub(crate) fn parse_kv<'a>(parts: impl Iterator<Item = &'a str>) -> HashMap<String, String> {
    parts
        .filter_map(|p| p.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
        .collect()
}

pub(crate) fn parse_u64(kv: &HashMap<String, String>, key: &str) -> Result<u64, String> {
    kv.get(key)
        .ok_or_else(|| format!("missing field {key}"))?
        .parse()
        .map_err(|_| format!("field {key} is not an integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{AccessKind, NumaNode};
    use djx_runtime::MethodId;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    fn sample(addr: u64, remote: bool) -> djx_pmu::Sample {
        djx_pmu::Sample {
            event: PmuEvent::L1Miss,
            thread_id: 1,
            cpu: 0,
            cpu_node: NumaNode(0),
            page_node: NumaNode(u32::from(remote)),
            effective_addr: addr,
            kind: AccessKind::Load,
            value: 1,
            latency: 100,
            counter_value: 1,
        }
    }

    fn build_profile() -> ObjectCentricProfile {
        let site_a = AllocSiteId(0);
        let site_b = AllocSiteId(1);
        let sites = vec![
            AllocSite {
                id: site_a,
                class_name: "float[]".into(),
                call_path: vec![f(1, 5), f(2, 3)],
            },
            AllocSite { id: site_b, class_name: "Top Doc".into(), call_path: vec![f(3, 0)] },
        ];
        let mut t1 = ThreadProfile::new(ThreadId(1), "main");
        t1.record_allocation(site_a, 4096);
        t1.record_attributed(site_a, &[f(1, 5), f(4, 9)], &sample(0x1000, false), 100);
        t1.record_attributed(site_a, &[f(1, 5), f(5, 2)], &sample(0x1040, true), 100);
        t1.record_attributed(site_b, &[f(3, 0)], &sample(0x2000, false), 100);
        t1.record_unattributed(&sample(0x9000, false), 100);

        let mut t2 = ThreadProfile::new(ThreadId(2), "worker 1");
        t2.record_allocation(site_b, 64);
        t2.record_attributed(site_b, &[f(3, 0), f(6, 6)], &sample(0x2010, true), 100);

        ObjectCentricProfile {
            event: PmuEvent::L1Miss,
            period: 100,
            size_filter: 1024,
            sites,
            threads: vec![t1, t2],
            allocation_stats: AllocationStats {
                callbacks: 10,
                monitored: 2,
                filtered: 8,
                relocations: 1,
                unknown_moves: 0,
                reclamations: 1,
            },
        }
    }

    #[test]
    fn merging_partitioned_deltas_is_exact() {
        // One continuous profile vs the same samples split into three deltas merged in
        // order: the merged profile must render byte-identically (the pause-free
        // snapshot retirement depends on this).
        let site_a = AllocSiteId(0);
        let site_b = AllocSiteId(1);
        let events: Vec<(AllocSiteId, Vec<Frame>, djx_pmu::Sample)> = vec![
            (site_a, vec![f(1, 5), f(4, 9)], sample(0x1000, false)),
            (site_a, vec![f(1, 5), f(5, 2)], sample(0x1040, true)),
            (site_b, vec![f(3, 0)], sample(0x2000, false)),
            (site_a, vec![f(1, 5), f(4, 9)], sample(0x1080, true)),
            (site_b, vec![f(3, 0), f(6, 6)], sample(0x2010, false)),
        ];

        let mut continuous = ThreadProfile::new(ThreadId(1), "main");
        for (site, path, s) in &events {
            continuous.record_attributed(*site, path, s, 100);
        }
        continuous.record_unattributed(&sample(0x9000, false), 100);

        let mut merged = ThreadProfile::new(ThreadId(1), "main");
        for chunk in events.chunks(2) {
            // Later deltas carry the placeholder name, as live retirement produces.
            let mut delta = ThreadProfile::new(ThreadId(1), "<attached>");
            for (site, path, s) in chunk {
                delta.record_attributed(*site, path, s, 100);
            }
            merged.merge_from(&delta);
        }
        let mut tail = ThreadProfile::new(ThreadId(1), "<attached>");
        tail.record_unattributed(&sample(0x9000, false), 100);
        merged.merge_from(&tail);

        assert_eq!(merged.thread_name, "main", "first-seen identity wins");
        assert_eq!(merged.samples, continuous.samples);
        let render = |t: ThreadProfile| {
            ObjectCentricProfile {
                event: PmuEvent::L1Miss,
                period: 100,
                size_filter: 1024,
                sites: Vec::new(),
                threads: vec![t],
                allocation_stats: AllocationStats::default(),
            }
            .to_text()
        };
        assert_eq!(render(merged), render(continuous));
    }

    #[test]
    fn thread_profile_records_and_counts() {
        let p = build_profile();
        let t1 = &p.threads[0];
        assert_eq!(t1.samples, 4);
        assert_eq!(t1.attributed_samples(), 3);
        assert_eq!(t1.unattributed.samples, 1);
        assert_eq!(t1.sites[&AllocSiteId(0)].total.samples, 2);
        assert_eq!(t1.sites[&AllocSiteId(0)].total.allocations, 1);
        assert_eq!(t1.sites[&AllocSiteId(0)].by_context.len(), 2);
        assert_eq!(p.total_samples(), 5);
        assert!(t1.approx_bytes() > 0);
        assert_eq!(p.site(AllocSiteId(1)).unwrap().class_name, "Top Doc");
    }

    #[test]
    fn event_names_round_trip() {
        for ev in PmuEvent::all() {
            let back = event_from_name(ev.hardware_name()).expect("known event");
            assert_eq!(back.hardware_name(), ev.hardware_name());
        }
        let err = event_from_name("SOMETHING_ELSE").unwrap_err();
        assert_eq!(err.name, "SOMETHING_ELSE");
        assert!(err.to_string().contains("SOMETHING_ELSE"));
    }

    #[test]
    fn path_and_name_escaping() {
        assert_eq!(encode_path(&[]), "-");
        assert_eq!(encode_path(&[f(1, 2), f(3, 4)]), "1:2,3:4");
        assert_eq!(unescape(&escape("Top Doc Collector")), "Top Doc Collector");
    }
}
