//! Per-thread object-centric profiles — site totals and flat `(allocation site,
//! access context)` cells beside each thread's CCT — and the whole-run profile
//! container, including the plain-text rendering of "profile files" (§5 of the
//! paper: the online collector generates a profile per thread; the offline analyzer
//! merges them). The text is render-only: profiles read back from binary epoch logs
//! ([`crate::wire`]).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, ThreadId};

use crate::cct::{Cct, CctNodeId};
use crate::fxhash::FxHashMap;
use crate::metrics::MetricVector;
use crate::object::{AllocSite, AllocSiteId};
use crate::sink::FinishRecord;

/// The profile one thread produces — the one record every view reads: the
/// object-centric view from `sites` and `contexts`, the code-centric view from the
/// CCT's node metrics, and the NUMA view from `node_traffic`.
///
/// The object-centric record is two flat tables: per allocation site its totals,
/// and per `(allocation site, access context)` cell the samples the thread took at
/// that context in an object of that site (the paper's allocation context combined
/// with its usage context, §4.2). Every cell's site has a totals row, and a row's
/// sample counters are the sum of its cells'; its allocation counters have no cell.
#[derive(Debug, Clone)]
pub struct ThreadProfile {
    /// The thread.
    pub thread: ThreadId,
    /// Thread name.
    pub thread_name: String,
    /// Calling context tree of every sample the thread took: each node's metrics
    /// hold the samples taken at that context, attributed or not, and `contexts`
    /// cells reference its nodes as access contexts.
    pub cct: Cct,
    /// Per-allocation-site totals: every sample the thread attributed to the site
    /// and every allocation it made there.
    pub sites: FxHashMap<AllocSiteId, MetricVector>,
    /// The `(allocation site, access context)` cells: the samples attributed to a
    /// site at one node of `cct`.
    pub contexts: FxHashMap<(AllocSiteId, CctNodeId), MetricVector>,
    /// Samples whose effective address was not enclosed by any monitored object
    /// (unmonitored small objects, stack/runtime memory).
    pub unattributed: MetricVector,
    /// Samples per `(cpu_node, page_node)` pair — the node-to-node traffic matrix.
    pub node_traffic: FxHashMap<(u32, u32), u64>,
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
            contexts: FxHashMap::default(),
            unattributed: MetricVector::default(),
            node_traffic: FxHashMap::default(),
            samples: 0,
        }
    }

    /// Records one sample taken at the calling context `path`: into the context's
    /// CCT node, the traffic matrix, and `site`'s total and `(site, context)` cell —
    /// or the unattributed bucket when the sampled address belonged to no monitored
    /// object.
    pub fn record_sample(
        &mut self,
        site: Option<AllocSiteId>,
        path: &[Frame],
        sample: &djx_pmu::Sample,
        period: u64,
    ) {
        self.samples += 1;
        let ctx = self.cct.insert_path(path);
        self.cct.metrics_mut(ctx).record_sample(sample, period);
        *self.node_traffic.entry((sample.cpu_node.0, sample.page_node.0)).or_insert(0) += 1;
        match site {
            Some(site) => {
                self.sites.entry(site).or_default().record_sample(sample, period);
                self.contexts.entry((site, ctx)).or_default().record_sample(sample, period);
            }
            None => self.unattributed.record_sample(sample, period),
        }
    }

    /// Records an allocation at `site` performed by this thread.
    pub fn record_allocation(&mut self, site: AllocSiteId, bytes: u64) {
        self.sites.entry(site).or_default().record_allocation(bytes);
    }

    /// Merges a later delta of the same thread's profile into this one: metric totals
    /// and traffic counts sum, CCT node metrics and `(site, context)` cells are
    /// re-keyed through a CCT merge, and this profile's identity (thread id,
    /// first-seen name) wins. Merging partitioned deltas is exact: the result renders
    /// byte-identically to a profile built in one piece
    /// ([`ObjectCentricProfile::to_text`] canonicalizes contexts by call path, not node
    /// id). This is the retirement step of the session's pause-free snapshots.
    pub fn merge_from(&mut self, delta: &ThreadProfile) {
        let mapping = self.cct.merge(&delta.cct);
        self.samples += delta.samples;
        self.unattributed.merge(&delta.unattributed);
        for (pair, samples) in &delta.node_traffic {
            *self.node_traffic.entry(*pair).or_insert(0) += samples;
        }
        for (site, m) in &delta.sites {
            self.sites.entry(*site).or_default().merge(m);
        }
        for (&(site, ctx), m) in &delta.contexts {
            self.contexts.entry((site, mapping[ctx.0 as usize])).or_default().merge(m);
        }
    }

    /// Total samples attributed to monitored objects.
    pub fn attributed_samples(&self) -> u64 {
        self.sites.values().map(|m| m.samples).sum()
    }

    /// Approximate resident bytes of the profile (memory-overhead accounting): each
    /// table's entries times its key and value sizes.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cct.approx_bytes()
            + self.node_traffic.len() * size_of::<((u32, u32), u64)>()
            + self.sites.len() * (size_of::<AllocSiteId>() + size_of::<MetricVector>())
            + self.contexts.len()
                * (size_of::<(AllocSiteId, CctNodeId)>() + size_of::<MetricVector>())
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

/// The object-centric state one buffer epoch accumulated — the unit the session
/// retires into its producer fold and the asynchronous export pipeline streams (see
/// [`crate::export`]).
///
/// A delta is **self-describing**: besides the per-thread fragments (samples and
/// allocation counts alike) it carries the allocation sites interned since the
/// previous delta of its stream, so every site id its fragments reference resolves
/// against the sites of the deltas up to and including it.
///
/// A delta is a *partition* of the run: folding every delta of a session in epoch
/// order reproduces the session's own [`ObjectCentricProfile`] byte-identically.
/// [`ProfileDelta::merge_from`] is the fold step; it is also how a full export
/// queue coalesces adjacent deltas — merging two deltas first is equivalent to
/// folding them one after the other.
#[derive(Debug, Clone, Default)]
pub struct ProfileDelta {
    /// The buffer epoch this delta closed. Epochs are strictly monotonic per session
    /// but not dense in a stream: empty epochs are never streamed, and coalesced
    /// deltas keep the *latest* epoch they cover.
    pub epoch: u64,
    /// Per-thread fragments, ordered by `(seq, thread)` — thread-first-seen order.
    pub threads: Vec<ThreadDelta>,
    /// Id of the first entry of `sites`: the number of sites earlier deltas of the
    /// stream carried.
    pub site_base: usize,
    /// The sites interned since the previous delta, in id order (ids
    /// `site_base..site_base + sites.len()`).
    pub sites: Vec<AllocSite>,
}

impl ProfileDelta {
    /// An empty delta for epoch `epoch`.
    pub fn empty(epoch: u64) -> Self {
        Self { epoch, ..Self::default() }
    }

    /// `true` when no thread recorded anything during the epoch and no site was
    /// interned.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty() && self.sites.is_empty()
    }

    /// Total PMU samples across every thread fragment.
    pub fn total_samples(&self) -> u64 {
        self.threads.iter().map(|t| t.profile.samples).sum()
    }

    /// A whole profile as the one delta, at epoch 1, of its own stream: every
    /// thread, first-seen in profile order, and the whole site table — how a profile
    /// is written as a one-delta log.
    pub(crate) fn of_profile(profile: &ObjectCentricProfile) -> ProfileDelta {
        ProfileDelta {
            epoch: 1,
            threads: profile
                .threads
                .iter()
                .enumerate()
                .map(|(seq, t)| ThreadDelta { seq: seq as u64, profile: t.clone() })
                .collect(),
            site_base: 0,
            sites: profile.sites.clone(),
        }
    }

    /// Folds a **later** delta of the same session into this one: fragments of the
    /// same thread merge exactly ([`ThreadProfile::merge_from`] — this delta's
    /// first-seen identity wins), new threads are adopted with their sequence, the
    /// later delta's sites extend this one's, and the epoch advances to the later
    /// delta's. Folding partitioned deltas in epoch order is exact: the result
    /// renders byte-identically to a profile built in one piece.
    ///
    /// Site suffixes concatenate where they meet; entries this delta already holds
    /// are not appended twice, and a later suffix that starts past this delta's end
    /// (a gap) is not appended at all, so `sites` always stays a prefix-exact run of
    /// the stream's table ([`DeltaFold::absorb_ordered`] refuses such a gap).
    ///
    /// The fold is keyed: one thread→slot map is built per call, so absorbing a delta
    /// costs O(self + later) instead of the old O(self × later) linear re-scan per
    /// fragment — this is the accumulation step of both [`DeltaFold`] and the
    /// export's pending delta, where the accumulator side keeps growing. The
    /// `(seq, thread)` ordering is preserved without a re-sort in the common case
    /// (threads new to the accumulator usually carry later first-seen sequences);
    /// adversarial orders fall back to one sort.
    pub fn merge_from(&mut self, later: &ProfileDelta) {
        let threads = later.threads.iter().map(Cow::Borrowed);
        self.merge(later.epoch, later.site_base, Cow::Borrowed(&later.sites), threads);
    }

    /// [`ProfileDelta::merge_from`] taking the later delta by value: its sites and
    /// the fragments of threads new to this delta move in instead of being cloned.
    pub(crate) fn merge_owned(&mut self, later: ProfileDelta) {
        let ProfileDelta { epoch, threads, site_base, sites } = later;
        self.merge(epoch, site_base, Cow::Owned(sites), threads.into_iter().map(Cow::Owned));
    }

    fn merge<'a>(
        &mut self,
        epoch: u64,
        site_base: usize,
        sites: Cow<'a, [AllocSite]>,
        threads: impl ExactSizeIterator<Item = Cow<'a, ThreadDelta>>,
    ) {
        self.epoch = self.epoch.max(epoch);
        let end = self.site_base + self.sites.len();
        match (end.checked_sub(site_base).filter(|skip| *skip <= sites.len()), sites) {
            (Some(skip), Cow::Borrowed(sites)) => self.sites.extend_from_slice(&sites[skip..]),
            (Some(skip), Cow::Owned(mut sites)) => self.sites.extend(sites.drain(skip..)),
            (None, _) => {}
        }
        if threads.len() == 0 {
            return;
        }
        let mut slots: HashMap<ThreadId, usize> = self
            .threads
            .iter()
            .enumerate()
            .map(|(slot, t)| (t.profile.thread, slot))
            .collect();
        for td in threads {
            match slots.entry(td.profile.thread) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.threads[*e.get()].profile.merge_from(&td.profile);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(self.threads.len());
                    self.threads.push(td.into_owned());
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
/// These are the checks every consumer of a delta stream performs — the epoch-log
/// replay ([`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes)) maps
/// them onto [`ProfileParseError`] with the offending line, and the fleet aggregator
/// ([`crate::fleet`]) uses them to reject out-of-order or site-gapped frames per
/// producer and to refuse a finish record whose checksum disagrees with what was
/// actually folded.
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
    /// A delta's site suffix does not start where the fold's site table ends: a
    /// delta carrying site definitions was lost, so the ids of every later site
    /// would resolve to the wrong allocation site.
    SiteGap {
        /// The offending delta's [`ProfileDelta::site_base`].
        base: usize,
        /// The length of the fold's site table.
        table: usize,
    },
    /// A delta arrived after the stream's finish record: nothing follows the
    /// trailer of a stream.
    AfterFinish {
        /// The offending delta's epoch.
        epoch: u64,
    },
    /// The folded sample total disagrees with the terminal record's checksum: deltas
    /// were lost or duplicated between the producer and this fold.
    ChecksumMismatch {
        /// Samples actually folded.
        folded: u64,
        /// Samples the terminal record promised.
        expected: u64,
    },
    /// A caller tried to absorb a delta into, or finish, a session's live fold
    /// ([`Session::live_fold`](crate::session::Session::live_fold)): the session
    /// feeds that fold with its own stream, so it is read-only to everyone else.
    ReadOnly,
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::OutOfOrderEpoch { epoch, last } => write!(
                f,
                "out-of-order epoch {epoch} after {last} — a loss-free stream is strictly increasing"
            ),
            FoldError::SiteGap { base, table } => write!(
                f,
                "delta sites start at id {base} but the fold's site table holds {table} — a delta carrying site definitions was lost"
            ),
            FoldError::AfterFinish { epoch } => {
                write!(f, "delta frame (epoch {epoch}) after the finish frame")
            }
            FoldError::ChecksumMismatch { folded, expected } => write!(
                f,
                "streamed deltas fold to {folded} samples but the finish record counts {expected} — lost or duplicated deltas"
            ),
            FoldError::ReadOnly => {
                f.write_str("a session's live fold is read-only: only the session feeds it")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// Accumulates streamed [`ProfileDelta`]s back into whole per-thread profiles — the
/// one owner of a delta stream's state. Log replay
/// ([`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes)),
/// a [`LiveFold`](crate::query::live::LiveFold), fleet ingest and WAL recovery
/// ([`crate::fleet`]) all turn a stream into state through it, and a
/// [`Session`](crate::session::Session) keeps its own retired state as one: the
/// producer fold behind its profile reads and its live fold, which a fleet re-base
/// copies. Internally this is one growing delta folded with
/// [`ProfileDelta::merge_from`], so replay and coalescing share one exactness argument.
///
/// The fold is **incremental**: each [`DeltaFold::absorb_ordered`] call does O(delta)
/// work against the accumulator — history is never re-read, so a long-lived consumer
/// (a daemon folding an unbounded stream) pays per-frame cost proportional to the
/// frame, not to the run so far. [`DeltaFold::last_epoch`] is the resume point a
/// reconnecting producer backfills from, [`absorb_ordered`](DeltaFold::absorb_ordered)
/// proves epochs strictly increase, site suffixes join without a gap and nothing
/// follows the finish, and [`finish`](DeltaFold::finish) proves the terminal sample
/// count — the checks that make loss detectable end to end. The fold also holds the
/// site table, each thread's first-seen name ([`DeltaFold::thread_name`]) and the
/// run header (the one it was created with, then the finish record's), so
/// [`DeltaFold::assemble`] makes a profile at any epoch, not only after the finish.
///
/// ```
/// use djxperf::{DeltaFold, FinishRecord, FoldError, ProfileDelta};
///
/// let mut fold = DeltaFold::new();
/// fold.absorb_ordered(&ProfileDelta::empty(3)).unwrap();
/// // Epoch 3 again: a duplicate cannot slip in.
/// let dup = fold.absorb_ordered(&ProfileDelta::empty(3));
/// assert_eq!(dup, Err(FoldError::OutOfOrderEpoch { epoch: 3, last: 3 }));
/// assert_eq!(fold.last_epoch(), Some(3));
/// // The finish record's checksum confirms nothing was lost, and closes the stream.
/// let record = FinishRecord::of_profile(&fold.clone().assemble());
/// assert_eq!(fold.finish(record, false), Ok(true));
/// assert!(fold.absorb_ordered(&ProfileDelta::empty(4)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct DeltaFold {
    acc: ProfileDelta,
    deltas: u64,
    last_epoch: Option<u64>,
    event: PmuEvent,
    period: u64,
    size_filter: u64,
    finish: Option<FinishRecord>,
}

impl Default for DeltaFold {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaFold {
    /// An empty fold with a placeholder header (L1 misses, period 1, no size
    /// filter) until the finish record brings the run's own.
    pub fn new() -> Self {
        Self::with_header(PmuEvent::L1Miss, 1, 0)
    }

    /// An empty fold that already knows the stream's event, period and size filter
    /// — what assembling before the finish reports (a fleet producer's hello, a
    /// session's configuration).
    pub fn with_header(event: PmuEvent, period: u64, size_filter: u64) -> Self {
        Self {
            acc: ProfileDelta::empty(0),
            deltas: 0,
            last_epoch: None,
            event,
            period,
            size_filter,
            finish: None,
        }
    }

    /// Everything folded so far as one delta at site base 0: every thread in
    /// first-seen order and the whole site table, at the last folded epoch — what a
    /// fleet producer re-sends to an aggregator that lost its state.
    pub(crate) fn accumulator(&self) -> &ProfileDelta {
        &self.acc
    }

    /// The stream's site table so far: every site the folded deltas carried, indexed
    /// by id.
    pub fn sites(&self) -> &[AllocSite] {
        &self.acc.sites
    }

    /// The folded per-thread profiles, in first-seen order, each under its
    /// first-seen name — the threads [`DeltaFold::assemble`] hands over.
    pub(crate) fn threads(&self) -> impl Iterator<Item = &ThreadProfile> {
        self.acc.threads.iter().map(|t| &t.profile)
    }

    /// The first-seen name of a folded fragment's thread: later fragments of a
    /// thread carry the `<attached>` placeholder, the fold keeps the name its first
    /// fragment brought. The accumulator is sorted by the `(seq, thread)` the
    /// fragment carries; a thread the fold has not seen keeps the fragment's own.
    pub fn thread_name<'a>(&'a self, fragment: &'a ThreadDelta) -> &'a str {
        let thread = fragment.profile.thread;
        let threads = &self.acc.threads;
        threads
            .binary_search_by_key(&(fragment.seq, thread), |t| (t.seq, t.profile.thread))
            .ok()
            .map(|at| &threads[at])
            // A stream whose sequences disagree across fragments still merged by id.
            .or_else(|| threads.iter().find(|t| t.profile.thread == thread))
            .map_or(&fragment.profile.thread_name, |t| &t.profile.thread_name)
    }

    /// Folds one streamed delta in without checking its epoch or site base. Deltas
    /// must arrive in stream (epoch) order for the fold to be exact; callers that
    /// cannot trust the transport should use [`DeltaFold::absorb_ordered`] instead.
    pub fn absorb(&mut self, delta: &ProfileDelta) {
        self.acc.merge_from(delta);
        self.count(delta.epoch);
    }

    /// [`DeltaFold::absorb`] taking the delta by value, so its sites and the
    /// fragments of threads new to the fold move in instead of being cloned.
    pub(crate) fn absorb_owned(&mut self, delta: ProfileDelta) {
        let epoch = delta.epoch;
        self.acc.merge_owned(delta);
        self.count(epoch);
    }

    fn count(&mut self, epoch: u64) {
        self.deltas += 1;
        self.last_epoch = Some(self.last_epoch.map_or(epoch, |e| e.max(epoch)));
    }

    /// Proves that `delta` may be folded next without folding it: the stream must
    /// not have finished, the epoch must be strictly greater than
    /// [`DeltaFold::last_epoch`], and the site suffix must start where
    /// [`DeltaFold::sites`] ends.
    ///
    /// # Errors
    ///
    /// [`FoldError::AfterFinish`] once the finish record was folded,
    /// [`FoldError::OutOfOrderEpoch`] when the epoch repeats or regresses,
    /// [`FoldError::SiteGap`] when the site suffix does not join the table.
    pub fn check(&self, delta: &ProfileDelta) -> Result<(), FoldError> {
        if self.finish.is_some() {
            return Err(FoldError::AfterFinish { epoch: delta.epoch });
        }
        if let Some(last) = self.last_epoch {
            if delta.epoch <= last {
                return Err(FoldError::OutOfOrderEpoch { epoch: delta.epoch, last });
            }
        }
        let table = self.acc.sites.len();
        if delta.site_base != table {
            return Err(FoldError::SiteGap { base: delta.site_base, table });
        }
        Ok(())
    }

    /// Folds one streamed delta in, first proving the stream order
    /// ([`DeltaFold::check`]). On violation the fold is left untouched and the
    /// caller decides — a log replay fails the parse, a fleet aggregator drops the
    /// duplicate frame and re-acknowledges.
    ///
    /// # Errors
    ///
    /// The errors of [`DeltaFold::check`].
    pub fn absorb_ordered(&mut self, delta: &ProfileDelta) -> Result<(), FoldError> {
        self.check(delta)?;
        self.absorb(delta);
        Ok(())
    }

    /// Proves that `record` may close the stream without closing it: the folded
    /// sample total must equal the record's checksum. A `lossy` stream — a fleet
    /// producer that declared the epochs its
    /// [`DropOldestEpochsFlaggedLossy`](crate::fleet::OverflowPolicy) overflow policy
    /// dropped — may also hold fewer samples than the record counts, never more.
    ///
    /// # Errors
    ///
    /// [`FoldError::ChecksumMismatch`] when the totals disagree under that rule.
    pub fn check_finish(&self, record: &FinishRecord, lossy: bool) -> Result<(), FoldError> {
        let (folded, expected) = (self.total_samples(), record.total_samples);
        if folded == expected || (lossy && folded < expected) {
            return Ok(());
        }
        Err(FoldError::ChecksumMismatch { folded, expected })
    }

    /// Closes the stream with its finish record ([`DeltaFold::check_finish`]
    /// first): the fold adopts the record's header and allocation counters and
    /// refuses every later delta. `Ok(true)` means the record closed the stream;
    /// `Ok(false)` that the stream was already closed — the repeat passed the same
    /// check and is ignored, the first record stays.
    ///
    /// # Errors
    ///
    /// [`FoldError::ChecksumMismatch`] as [`DeltaFold::check_finish`]; the fold is
    /// left untouched.
    pub fn finish(&mut self, record: FinishRecord, lossy: bool) -> Result<bool, FoldError> {
        self.check_finish(&record, lossy)?;
        if self.finish.is_some() {
            return Ok(false);
        }
        (self.event, self.period, self.size_filter) =
            (record.event, record.period, record.size_filter);
        self.finish = Some(record);
        Ok(true)
    }

    /// Whether the finish record has been folded.
    pub fn is_finished(&self) -> bool {
        self.finish.is_some()
    }

    /// The folded finish record, once the stream finished.
    pub(crate) fn finish_record(&self) -> Option<&FinishRecord> {
        self.finish.as_ref()
    }

    /// The event and period an assembled profile reports: the finish record's once
    /// finished, the fold's initial header before.
    pub fn header(&self) -> (PmuEvent, u64) {
        (self.event, self.period)
    }

    /// The size filter an assembled profile reports (same rule as
    /// [`DeltaFold::header`]).
    pub fn size_filter(&self) -> u64 {
        self.size_filter
    }

    /// Number of deltas folded so far.
    pub fn deltas(&self) -> u64 {
        self.deltas
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

    /// Assembles the fold into an [`ObjectCentricProfile`] under its header, with
    /// the finish record's agent counters (zero before the finish). After a checked
    /// finish this is the replay endpoint of the loss-free guarantee: the result is
    /// byte-identical to the streaming session's own profile.
    pub fn assemble(self) -> ObjectCentricProfile {
        ObjectCentricProfile {
            event: self.event,
            period: self.period,
            size_filter: self.size_filter,
            sites: self.acc.sites,
            threads: self.acc.threads.into_iter().map(|t| t.profile).collect(),
            allocation_stats: self.finish.map(|f| f.allocation_stats).unwrap_or_default(),
        }
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
    /// Object moves applied to the object index at GC end.
    pub relocations: u64,
    /// Moved objects that were unknown to the profiler and were inserted directly
    /// (attach-mode behaviour).
    pub unknown_moves: u64,
    /// Object reclamations removed from the object index.
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
            let mut contexts: Vec<_> =
                t.cct.nodes_with_metrics().map(|(_, path, m)| (encode_path(&path), m)).collect();
            contexts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (path, m) in contexts {
                let _ = writeln!(out, "  context {} {}", path, encode_metrics(m));
            }
            let mut traffic: Vec<_> = t.node_traffic.iter().collect();
            traffic.sort_unstable();
            for ((cpu, page), samples) in traffic {
                let _ = writeln!(out, "  traffic {cpu}->{page} samples={samples}");
            }
            let mut sites: Vec<_> = t.sites.iter().collect();
            sites.sort_unstable_by_key(|(sid, _)| **sid);
            let mut cells: Vec<_> = t
                .contexts
                .iter()
                .map(|(&(sid, ctx), m)| (sid, encode_path(&t.cct.path_of(ctx)), m))
                .collect();
            cells.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            for (sid, total) in sites {
                let _ = writeln!(out, "  object {} {}", sid.0, encode_metrics(total));
                let run =
                    cells.partition_point(|c| c.0 < *sid)..cells.partition_point(|c| c.0 <= *sid);
                for (_, path, m) in &cells[run] {
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
    use crate::query::live::LiveFold;
    use crate::sink::{LogRecord, ProfileSink};
    use crate::wire::{BinaryChunkedSink, BinaryFrameReader};
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
        t1.record_sample(Some(site_a), &[f(1, 5), f(4, 9)], &sample(0x1000, false), 100);
        t1.record_sample(Some(site_a), &[f(1, 5), f(5, 2)], &sample(0x1040, true), 100);
        t1.record_sample(Some(site_b), &[f(3, 0)], &sample(0x2000, false), 100);
        t1.record_sample(None, &[], &sample(0x9000, false), 100);

        let mut t2 = ThreadProfile::new(ThreadId(2), "worker 1");
        t2.record_allocation(site_b, 64);
        t2.record_sample(Some(site_b), &[f(3, 0), f(6, 6)], &sample(0x2010, true), 100);

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
            continuous.record_sample(Some(*site), path, s, 100);
        }
        continuous.record_sample(None, &[], &sample(0x9000, false), 100);

        let mut merged = ThreadProfile::new(ThreadId(1), "main");
        for chunk in events.chunks(2) {
            // Later deltas carry the placeholder name, as live retirement produces.
            let mut delta = ThreadProfile::new(ThreadId(1), "<attached>");
            for (site, path, s) in chunk {
                delta.record_sample(Some(*site), path, s, 100);
            }
            merged.merge_from(&delta);
        }
        let mut tail = ThreadProfile::new(ThreadId(1), "<attached>");
        tail.record_sample(None, &[], &sample(0x9000, false), 100);
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
        assert_eq!(t1.sites[&AllocSiteId(0)].samples, 2);
        assert_eq!(t1.sites[&AllocSiteId(0)].allocations, 1);
        assert_eq!(t1.contexts.keys().filter(|(site, _)| *site == AllocSiteId(0)).count(), 2);
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

    // The fold contract every stream consumer gets from `DeltaFold`.

    /// A delta with one fragment of thread 1 (sequence 0) holding `samples`
    /// unattributed samples.
    fn delta(epoch: u64, name: &str, samples: u64) -> ProfileDelta {
        let mut profile = ThreadProfile::new(ThreadId(1), name);
        (0..samples).for_each(|i| profile.record_sample(None, &[], &sample(i, false), 10));
        ProfileDelta { epoch, threads: vec![ThreadDelta { seq: 0, profile }], ..Default::default() }
    }

    /// A finish record under header (remote DRAM, 128, 0).
    fn record(total_samples: u64, callbacks: u64) -> FinishRecord {
        let allocation_stats = AllocationStats { callbacks, ..AllocationStats::default() };
        let (event, period, size_filter) = (PmuEvent::RemoteDram, 128, 0);
        FinishRecord { event, period, size_filter, allocation_stats, total_samples }
    }

    /// A fold of two deltas holding 5 samples, under header (L1 misses, 64, 1024).
    fn five_samples() -> DeltaFold {
        let mut fold = DeltaFold::with_header(PmuEvent::L1Miss, 64, 1024);
        fold.absorb_ordered(&delta(1, "main", 2)).unwrap();
        fold.absorb_ordered(&delta(2, "<attached>", 3)).unwrap();
        fold
    }

    /// A binary log of `delta(1, "main", 2)`, then the given finish records.
    fn log_with(finishes: &[FinishRecord]) -> Vec<u8> {
        let mut log = Vec::new();
        BinaryChunkedSink.on_delta(1, &delta(1, "main", 2), &mut log).unwrap();
        finishes.iter().for_each(|f| BinaryChunkedSink.on_finish(f, &mut log).unwrap());
        log
    }

    /// A live fold fed `log`'s records, decoded by the one frame reader.
    fn live_fold_of(log: &[u8]) -> LiveFold {
        let live = LiveFold::new();
        let mut reader = BinaryFrameReader::new(log);
        while let Some(record) = reader.next_record().unwrap() {
            match record {
                LogRecord::Delta(delta) => live.absorb(&delta).unwrap(),
                LogRecord::Finish(record) => live.finish(record).unwrap(),
            }
        }
        live
    }

    #[test]
    fn a_delta_after_the_finish_is_refused() {
        let mut fold = five_samples();
        assert_eq!(fold.finish(record(5, 0), false), Ok(true));
        let refused = Err(FoldError::AfterFinish { epoch: 3 });
        assert_eq!(fold.absorb_ordered(&delta(3, "<attached>", 1)), refused);
        assert_eq!((fold.total_samples(), fold.deltas(), fold.last_epoch()), (5, 2, Some(2)));
        let live = live_fold_of(&log_with(&[record(2, 0)]));
        assert_eq!(live.absorb(&delta(3, "<attached>", 1)), refused);
        let mut log = log_with(&[record(2, 0)]);
        BinaryChunkedSink.on_delta(3, &delta(3, "<attached>", 1), &mut log).unwrap();
        let err = BinaryChunkedSink.read_log_bytes(&log).unwrap_err();
        assert_eq!((err.frame, err.message.as_str()), (3, "frames after the finish frame"));
    }

    #[test]
    fn each_consumer_keeps_its_repeated_finish_rule() {
        // The fold and a live fold: a repeat that passes the check is ignored (the
        // first record stays), one that fails it is refused.
        let mut fold = five_samples();
        assert_eq!(fold.finish(record(5, 7), false), Ok(true));
        assert_eq!(fold.finish(record(5, 9), false), Ok(false));
        let refused = FoldError::ChecksumMismatch { folded: 5, expected: 6 };
        assert_eq!(fold.finish(record(6, 9), false), Err(refused));
        assert_eq!(fold.assemble().allocation_stats.callbacks, 7);
        let live = live_fold_of(&log_with(&[record(2, 7)]));
        live.finish(record(2, 9)).unwrap();
        let refused = FoldError::ChecksumMismatch { folded: 2, expected: 3 };
        assert_eq!(live.finish(record(3, 9)), Err(refused));
        assert_eq!(live.snapshot().allocation_stats.callbacks, 7);
        // A log refuses a second finish frame outright.
        let err = BinaryChunkedSink
            .read_log_bytes(&log_with(&[record(2, 7), record(2, 7)]))
            .unwrap_err();
        assert_eq!((err.frame, err.message.as_str()), (3, "frames after the finish frame"));
    }

    #[test]
    fn a_lossy_finish_needs_at_most_the_declared_samples() {
        // The fold holds 5 samples: exactly 5 closes any stream, more only a lossy one.
        let fold = five_samples();
        for (declared, lossy) in
            [(4, false), (5, false), (6, false), (4, true), (5, true), (6, true)]
        {
            let accepted = declared == 5 || (lossy && declared > 5);
            assert_eq!(fold.check_finish(&record(declared, 0), lossy).is_ok(), accepted);
            let mut closing = fold.clone();
            assert_eq!(closing.finish(record(declared, 0), lossy).is_ok(), accepted);
            assert_eq!(closing.is_finished(), accepted, "declared {declared}, lossy {lossy}");
        }
    }

    #[test]
    fn the_first_seen_name_survives_later_fragments() {
        let mut fold = five_samples();
        let [later] = <[ThreadDelta; 1]>::try_from(delta(3, "<attached>", 1).threads).unwrap();
        assert_eq!(fold.thread_name(&later), "main");
        // A sequence that disagrees with the first fragment's still finds the thread.
        assert_eq!(fold.thread_name(&ThreadDelta { seq: 9, ..later.clone() }), "main");
        // A thread the fold has not seen keeps the fragment's own name.
        let worker = ThreadDelta { seq: 1, profile: ThreadProfile::new(ThreadId(2), "worker") };
        assert_eq!(fold.thread_name(&worker), "worker");
        fold.absorb(&ProfileDelta { epoch: 3, threads: vec![later, worker], ..Default::default() });
        let names: Vec<String> =
            fold.assemble().threads.into_iter().map(|t| t.thread_name).collect();
        assert_eq!(names, ["main", "worker"]);
    }

    #[test]
    fn the_header_is_the_initial_one_until_the_finish() {
        let header = |f: &DeltaFold| {
            let p = f.clone().assemble();
            (p.event, p.period, p.size_filter, p.allocation_stats.callbacks)
        };
        assert_eq!(header(&DeltaFold::new()), (PmuEvent::L1Miss, 1, 0, 0));
        let mut fold = five_samples();
        assert_eq!((fold.header(), fold.size_filter()), ((PmuEvent::L1Miss, 64), 1024));
        assert!(fold.finish(record(4, 3), false).is_err(), "a refused finish changes nothing");
        assert_eq!(header(&fold), (PmuEvent::L1Miss, 64, 1024, 0));
        fold.finish(record(5, 3), false).unwrap();
        assert_eq!((fold.header(), fold.size_filter()), ((PmuEvent::RemoteDram, 128), 0));
        assert_eq!(header(&fold), (PmuEvent::RemoteDram, 128, 0, 3));
    }
}
