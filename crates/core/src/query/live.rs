//! Subscription-first query evaluation: a [`LiveFold`] follows the epoch-retired
//! delta stream and keeps the running [`DeltaFold`] *and* every registered query's
//! group table up to date incrementally, so a dashboard asks
//! [`Query::watch`](crate::query::Query::watch) once and then pulls epoch-versioned
//! [`QueryResult`]s instead of re-evaluating snapshots in
//! a poll loop.
//!
//! # Feeding a fold
//!
//! A [`LiveFold`] accepts the delta stream from any of the transports the profiler
//! already has:
//!
//! * **in-process**: [`Session::watch`](crate::session::Session::watch) /
//!   [`Session::live_fold`](crate::session::Session::live_fold) register the fold as
//!   a tap on the streaming drainer — every epoch the drainer retires is handed to
//!   the fold under the same hand-off gate that orders the export queue, so the fold
//!   observes exactly the stream a
//!   [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) would have logged;
//! * **replayed / tailed logs**: [`LiveFold::feed`] pushes raw binary epoch-log
//!   bytes through a [`FrameTail`] — tail a growing log file and feed each read;
//! * **manual**: [`LiveFold::absorb`] / [`LiveFold::finish`] for decoded records
//!   (the fleet aggregator drives its per-producer watches this way).
//!
//! # Identity contract
//!
//! At every point in the stream, a watch's [`LiveQuery::current`] renders
//! **byte-identically** to a cold `query.evaluate(&fold.snapshot())` — the absorb
//! path and cold evaluation run the *same* `GroupState` code. Groups accumulate
//! per epoch; a render ranks the current groups through `GroupState::ranked`, the
//! one function cold evaluation ranks with. Mid-run the reference is the fold itself:
//! deltas are self-describing — each carries its allocation counts and the sites
//! interned since the previous delta — so every row a fragment brings resolves
//! against the fold's site table the moment it arrives, and object-grouped watches
//! are complete at every epoch. Once the stream finishes the snapshot *is* the
//! terminal profile by the loss-free streaming guarantee, so the final render equals
//! a cold evaluation of the session's own profile.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use djx_pmu::PmuEvent;
use djx_runtime::ThreadId;

use crate::export::DeltaTap;
use crate::object::AllocSite;
use crate::profile::{
    AllocationStats, DeltaFold, FoldError, ObjectCentricProfile, ProfileDelta, ProfileParseError,
    ThreadDelta, ThreadProfile,
};
use crate::sink::{FinishRecord, LogRecord};
use crate::wire::FrameTail;

use super::{GroupState, ProfileSource, Query, QueryError, QueryResult};

// ---------------------------------------------------------------------------------------
// LiveFold
// ---------------------------------------------------------------------------------------

/// A [`ProfileSource`] that follows the epoch-retired delta stream: the running
/// [`DeltaFold`] (site table included), the terminal configuration once the stream
/// finishes — and the set of registered live watches it feeds incrementally.
///
/// Cloning is cheap and shares the fold: every clone sees the same stream, and
/// watches registered through any clone survive as long as one clone (or the
/// session tap) is alive.
#[derive(Clone)]
pub struct LiveFold {
    shared: Arc<LiveShared>,
}

pub(crate) struct LiveShared {
    state: Mutex<LiveState>,
}

/// What a stream key means: the fold maintains per-stream context a watch needs to
/// absorb a fragment — the site table rows resolve against and the authoritative
/// first-seen thread names (later fragments of a thread carry the `<attached>`
/// placeholder; the fold keeps the identity cold evaluation would see).
pub(crate) struct StreamCtx<'a> {
    /// Distinguishes site tables when one watch folds several streams (the fleet
    /// aggregator keys by producer name); a single-stream fold uses `""`.
    pub(crate) key: &'a str,
    pub(crate) sites: &'a [AllocSite],
    pub(crate) names: &'a HashMap<ThreadId, String>,
}

impl StreamCtx<'_> {
    /// The authoritative name for a fragment's thread: the stream's first-seen name
    /// when known, the fragment's own otherwise.
    pub(crate) fn name_of<'a>(&'a self, thread: &'a ThreadProfile) -> &'a str {
        self.names
            .get(&thread.thread)
            .map(String::as_str)
            .unwrap_or(&thread.thread_name)
    }
}

struct LiveState {
    fold: DeltaFold,
    event: PmuEvent,
    period: u64,
    size_filter: u64,
    stats: AllocationStats,
    /// First-seen thread names, kept across fragments (see [`StreamCtx`]).
    thread_names: HashMap<ThreadId, String>,
    finished: bool,
    watches: Vec<Weak<WatchShared>>,
    /// Byte-stream decoder backing [`LiveFold::feed`].
    tail: FrameTail,
}

impl LiveState {
    fn new(event: PmuEvent, period: u64, size_filter: u64) -> Self {
        Self {
            fold: DeltaFold::new(),
            event,
            period,
            size_filter,
            stats: AllocationStats::default(),
            thread_names: HashMap::new(),
            finished: false,
            watches: Vec::new(),
            tail: FrameTail::new(),
        }
    }

    /// The cold-evaluation reference at this point of the stream: the fold assembled
    /// with everything known so far. [`LiveQuery::current`] is byte-identical to a
    /// cold evaluation of this snapshot.
    fn snapshot_profile(&self) -> ObjectCentricProfile {
        self.fold
            .clone()
            .assemble(self.event, self.period, self.size_filter, self.stats)
    }

    /// Folds one streamed delta: validate the epoch order and site base (a rejected
    /// delta leaves the fold and every watch untouched), fold it — extending the site
    /// table — record first-seen thread names, then feed the watches.
    fn absorb_delta(&mut self, delta: &ProfileDelta) -> Result<(), FoldError> {
        if self.finished {
            // The stream ended; any further epoch is out of order by definition.
            return Err(FoldError::OutOfOrderEpoch {
                epoch: delta.epoch,
                last: self.fold.last_epoch().unwrap_or(0),
            });
        }
        self.fold.absorb_ordered(delta)?;
        note_thread_names(&mut self.thread_names, &delta.threads);
        let LiveState { watches, fold, thread_names, .. } = self;
        let ctx = StreamCtx { key: "", sites: fold.sites(), names: thread_names };
        for_watches(watches, |w| w.feed_fragment(&ctx, delta));
        Ok(())
    }

    /// Closes the stream: adopt the terminal metadata and counters and close every
    /// watch. Idempotent — a second finish is ignored.
    fn finish_record(&mut self, record: FinishRecord) {
        if self.finished {
            return;
        }
        self.event = record.event;
        self.period = record.period;
        self.size_filter = record.size_filter;
        self.stats = record.allocation_stats;
        self.finished = true;
        let epoch = self.fold.last_epoch();
        for_watches(&mut self.watches, |w| w.feed_finish(record.event, record.period, epoch, true));
    }
}

impl DeltaTap for LiveShared {
    fn on_delta(&self, delta: &ProfileDelta) {
        // The drainer hands epochs over strictly ordered under the hand-off gate, so
        // a rejection here can only be the seed epoch re-drained with no new
        // retirements — the rows are already folded, dropping it is the dedupe.
        let _ = self.state.lock().expect("live fold state lock").absorb_delta(delta);
    }

    fn on_finish(&self, record: &FinishRecord) {
        self.state.lock().expect("live fold state lock").finish_record(record.clone());
    }
}

impl LiveFold {
    /// An empty fold with placeholder metadata (adopted from the stream's terminal
    /// record, or set up front with [`LiveFold::with_meta`]).
    pub fn new() -> Self {
        Self::with_meta(PmuEvent::L1Miss, 1, 0)
    }

    /// An empty fold that already knows the stream's event, period and size filter —
    /// what mid-stream snapshots and renders report before the terminal record
    /// confirms them.
    pub fn with_meta(event: PmuEvent, period: u64, size_filter: u64) -> Self {
        Self {
            shared: Arc::new(LiveShared {
                state: Mutex::new(LiveState::new(event, period, size_filter)),
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, LiveState> {
        self.shared.state.lock().expect("live fold state lock")
    }

    /// Folds one decoded epoch delta, feeding every registered watch.
    ///
    /// # Errors
    ///
    /// [`FoldError::OutOfOrderEpoch`] when the epoch repeats or regresses (or the
    /// stream already finished), [`FoldError::SiteGap`] when the delta's sites do
    /// not join the fold's table; the fold and all watches are left untouched.
    pub fn absorb(&self, delta: &ProfileDelta) -> Result<(), FoldError> {
        self.state().absorb_delta(delta)
    }

    /// Closes the stream with a terminal record: verifies the loss-free checksum,
    /// then adopts the run configuration and counters and closes every watch.
    ///
    /// # Errors
    ///
    /// [`FoldError::ChecksumMismatch`] when the folded sample total does not match
    /// the record (deltas were lost or duplicated); the stream stays open.
    pub fn finish(&self, record: FinishRecord) -> Result<(), FoldError> {
        let mut st = self.state();
        st.fold.verify_checksum(record.total_samples)?;
        st.finish_record(record);
        Ok(())
    }

    /// Pushes raw binary epoch-log bytes ([`crate::wire`] frames), decoding and
    /// folding every complete frame. This is the log-tailing entry point: read a
    /// growing log in chunks and feed each read; partial frames buffer until
    /// completed by a later feed.
    ///
    /// # Errors
    ///
    /// [`ProfileParseError`] on malformed frames, out-of-order epochs or a failing
    /// terminal checksum, anchored to the offending frame's position.
    pub fn feed(&self, bytes: &[u8]) -> Result<(), ProfileParseError> {
        let mut st = self.state();
        st.tail.push(bytes);
        loop {
            // `next_record` borrows the tail mutably; take the decoded record out
            // before touching the rest of the state.
            let record = match st.tail.next_record() {
                Ok(Some(record)) => record,
                Ok(None) => return Ok(()),
                Err(e) => return Err(e),
            };
            let frame = st.tail.frames();
            let folded = match record {
                LogRecord::Delta(delta) => st.absorb_delta(&delta),
                LogRecord::Finish(record) => {
                    st.fold.verify_checksum(record.total_samples).map(|()| st.finish_record(record))
                }
            };
            folded.map_err(|e| ProfileParseError { frame, message: e.to_string() })?;
        }
    }

    /// Assembles the cold-evaluation reference snapshot at this point of the
    /// stream. `query.evaluate(&fold.snapshot())` renders byte-identically to
    /// `query.watch(&fold)`'s current result.
    pub fn snapshot(&self) -> ObjectCentricProfile {
        self.state().snapshot_profile()
    }

    /// The last epoch folded, or `None` while the fold is empty.
    pub fn last_epoch(&self) -> Option<u64> {
        self.state().fold.last_epoch()
    }

    /// Number of deltas folded so far.
    pub fn deltas(&self) -> u64 {
        self.state().fold.deltas()
    }

    /// Whether the stream's terminal record has been folded. A finished fold's
    /// snapshot is the run's complete profile; its watches' pending iterators
    /// ([`LiveQuery::next_epoch`]) drain and return `None`.
    pub fn is_finished(&self) -> bool {
        self.state().finished
    }

    /// Seeds the fold with the accumulated retired state of a mid-run attach: the
    /// tap sees only epochs after the seed, the seed carries everything before it.
    pub(crate) fn adopt_seed(&self, acc: ProfileDelta) {
        let mut st = self.state();
        note_thread_names(&mut st.thread_names, &acc.threads);
        st.fold = DeltaFold::seed_from(acc);
    }

    /// A finished fold equivalent to a terminal profile — the fallback when the
    /// export stream already closed before a watch could attach.
    pub(crate) fn from_terminal(profile: &ObjectCentricProfile) -> Self {
        let fold = Self::with_meta(profile.event, profile.period, profile.size_filter);
        {
            let mut st = fold.state();
            for thread in &profile.threads {
                st.thread_names.insert(thread.thread, thread.thread_name.clone());
            }
            st.fold = DeltaFold::seed_from(ProfileDelta {
                epoch: 0,
                threads: profile
                    .threads
                    .iter()
                    .enumerate()
                    .map(|(seq, t)| ThreadDelta { seq: seq as u64, profile: t.clone() })
                    .collect(),
                site_base: 0,
                sites: profile.sites.clone(),
            });
            st.stats = profile.allocation_stats;
            st.finished = true;
        }
        fold
    }

    /// The fold's [`DeltaTap`] handle for [`DeltaDrainer::attach_tap`]
    /// (crate::export).
    pub(crate) fn tap_handle(&self) -> Weak<dyn DeltaTap> {
        let shared: Arc<dyn DeltaTap> = Arc::clone(&self.shared) as Arc<dyn DeltaTap>;
        Arc::downgrade(&shared)
    }

    /// Registers a watch: seed its group state from the current snapshot, then
    /// subscribe it to subsequent fragments.
    fn register(&self, query: Query) -> LiveQuery {
        let mut st = self.state();
        let watch = LiveQuery::seed_watch(
            query,
            std::iter::once(st.snapshot_profile()),
            st.fold.last_epoch(),
            st.finished,
        );
        st.watches.push(Arc::downgrade(&watch));
        LiveQuery { watch, _source: Some(Arc::clone(&self.shared)), last_seen: 1 }
    }
}

impl Default for LiveFold {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LiveFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state();
        f.debug_struct("LiveFold")
            .field("deltas", &st.fold.deltas())
            .field("last_epoch", &st.fold.last_epoch())
            .field("sites", &st.fold.sites().len())
            .field("finished", &st.finished)
            .field("watches", &st.watches.len())
            .finish()
    }
}

impl ProfileSource for LiveFold {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        Ok(vec![Cow::Owned(self.snapshot())])
    }
}

impl Query {
    /// Subscribes this query to a [`LiveFold`]: the returned [`LiveQuery`] is seeded
    /// from the fold's current snapshot and updated incrementally on every folded
    /// epoch — [`LiveQuery::current`] always renders byte-identically to a cold
    /// [`Query::evaluate`] over [`LiveFold::snapshot`], without re-folding the
    /// profile: a render only ranks the current groups.
    pub fn watch(&self, fold: &LiveFold) -> LiveQuery {
        fold.register(self.clone())
    }
}

// ---------------------------------------------------------------------------------------
// Watches
// ---------------------------------------------------------------------------------------

/// Runs `f` for every live watch, dropping the dead ones on the way — the one
/// fan-out every feeder uses (a [`LiveFold`], the fleet aggregator).
pub(crate) fn for_watches(watches: &mut Vec<Weak<WatchShared>>, mut f: impl FnMut(&WatchShared)) {
    watches.retain(|w| match w.upgrade() {
        Some(w) => {
            f(&w);
            true
        }
        None => false,
    });
}

/// Records each fragment thread's name unless the thread was seen before: later
/// fragments of a thread carry the `<attached>` placeholder, and cold evaluation
/// keeps the first-seen name (see [`StreamCtx`]).
pub(crate) fn note_thread_names(names: &mut HashMap<ThreadId, String>, threads: &[ThreadDelta]) {
    for td in threads {
        names.entry(td.profile.thread).or_insert_with(|| td.profile.thread_name.clone());
    }
}

pub(crate) struct WatchShared {
    query: Query,
    inner: Mutex<WatchInner>,
    cv: Condvar,
}

struct WatchInner {
    state: GroupState,
    /// Per-stream site-id → group-slot memos (slots are stable, so the memo
    /// survives across fragments; one vector per stream key because different
    /// streams have different site tables).
    memos: HashMap<String, Vec<Option<usize>>>,
    version: u64,
    epoch: Option<u64>,
    finished: bool,
}

impl WatchShared {
    fn lock(&self) -> MutexGuard<'_, WatchInner> {
        self.inner.lock().expect("live watch lock")
    }

    /// Absorbs one epoch delta through [`GroupState::absorb_thread`], the thread
    /// block step cold evaluation runs, with the site table of the fold the delta
    /// was just folded into.
    pub(crate) fn feed_fragment(&self, ctx: &StreamCtx<'_>, delta: &ProfileDelta) {
        let mut inner = self.lock();
        let WatchInner { state, memos, .. } = &mut *inner;
        // The stream key is allocated only the first time a stream is seen.
        if !memos.contains_key(ctx.key) {
            memos.insert(ctx.key.to_string(), Vec::new());
        }
        let memo = memos.get_mut(ctx.key).expect("inserted above");
        for td in &delta.threads {
            let thread = &td.profile;
            state.absorb_thread(&self.query, thread, ctx.name_of(thread), ctx.sites, memo);
        }
        self.commit(inner, Some(delta.epoch), false);
    }

    /// Adopts a stream's terminal event/period header and epoch. With `close` the
    /// watch finishes: pending [`LiveQuery::next_epoch`] calls observe one final
    /// result and then `None`. A multi-stream feeder (the fleet aggregator) passes
    /// `close = false` — one producer finishing does not end the fleet.
    pub(crate) fn feed_finish(
        &self,
        event: PmuEvent,
        period: u64,
        epoch: Option<u64>,
        close: bool,
    ) {
        let mut inner = self.lock();
        inner.state.set_meta(event, period);
        self.commit(inner, epoch, close);
    }

    /// Adopts a new run-level event/period header without new samples — the fleet
    /// aggregator re-derives the fleet-wide header when the producer set changes
    /// (cold evaluation adopts the *last* view profile's header, so the live path
    /// must track membership changes too).
    pub(crate) fn refresh_meta(&self, event: PmuEvent, period: u64) {
        let mut inner = self.lock();
        inner.state.set_meta(event, period);
        self.commit(inner, None, false);
    }

    /// Marks the watch finished without new data — the aggregator's shutdown path,
    /// so blocked [`LiveQuery::next_epoch`] callers drain.
    pub(crate) fn mark_finished(&self) {
        let mut inner = self.lock();
        if !inner.finished {
            inner.finished = true;
            inner.version += 1;
            self.cv.notify_all();
        }
    }

    /// Publishes a batch: bump the version, wake pullers.
    fn commit(&self, mut inner: MutexGuard<'_, WatchInner>, epoch: Option<u64>, finished: bool) {
        if let Some(epoch) = epoch {
            inner.epoch = Some(epoch);
        }
        if finished {
            inner.finished = true;
        }
        inner.version += 1;
        self.cv.notify_all();
    }

    /// Renders the watch's current state: ranks the groups through the function cold
    /// evaluation ranks with, then formats only the survivors.
    fn render(&self) -> LiveResult {
        let inner = self.lock();
        LiveResult {
            epoch: inner.epoch,
            version: inner.version,
            finished: inner.finished,
            result: inner.state.materialize(&self.query),
        }
    }
}

// ---------------------------------------------------------------------------------------
// LiveQuery
// ---------------------------------------------------------------------------------------

/// One epoch-versioned render of a live watch.
#[derive(Debug, Clone)]
pub struct LiveResult {
    /// The last stream epoch folded into this result, or `None` before the first.
    pub epoch: Option<u64>,
    /// Monotonic update counter of the watch — two results with equal versions are
    /// identical.
    pub version: u64,
    /// Whether the stream's terminal record is included.
    pub finished: bool,
    /// The ranked result — byte-identical to a cold evaluation over the fold's
    /// snapshot at this version.
    pub result: QueryResult,
}

/// A registered live subscription: renders the maintained group state on demand
/// ([`LiveQuery::current`]) or blocks for fresh epochs ([`LiveQuery::next_epoch`]).
///
/// Dropping the `LiveQuery` unsubscribes — the fold prunes the watch on its next
/// feed.
pub struct LiveQuery {
    watch: Arc<WatchShared>,
    /// Keeps the fold (and with it the tap registration) alive for session-backed
    /// watches; aggregator-backed watches are owned by the aggregator instead.
    _source: Option<Arc<LiveShared>>,
    last_seen: u64,
}

impl LiveQuery {
    /// Renders the current state of the watch, without blocking.
    pub fn current(&mut self) -> LiveResult {
        let result = self.watch.render();
        self.last_seen = result.version;
        result
    }

    /// Blocks until the watch advances past the last result this handle observed,
    /// then renders. Returns `None` once the stream has finished *and* the final
    /// state was already observed — the natural end of a
    /// `while let Some(r) = lq.next_epoch()` loop.
    pub fn next_epoch(&mut self) -> Option<LiveResult> {
        // Without a deadline the wait cannot time out.
        self.wait(None).ok().flatten()
    }

    /// [`LiveQuery::next_epoch`] with a timeout: `Ok(None)` means the stream
    /// finished, `Err(..)` that the timeout elapsed with no new epoch.
    pub fn next_epoch_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<LiveResult>, WatchTimeout> {
        self.wait(Some(Instant::now() + timeout))
    }

    /// The one wait behind [`LiveQuery::next_epoch`] and
    /// [`LiveQuery::next_epoch_timeout`]: a render once the watch advances past the
    /// last observed version, `Ok(None)` once it finished, `Err` once `deadline`
    /// passes first.
    fn wait(&mut self, deadline: Option<Instant>) -> Result<Option<LiveResult>, WatchTimeout> {
        let mut inner = self.watch.lock();
        loop {
            if inner.version > self.last_seen {
                drop(inner);
                return Ok(Some(self.current()));
            }
            if inner.finished {
                return Ok(None);
            }
            inner = match deadline {
                None => self.watch.cv.wait(inner).expect("live watch lock"),
                Some(deadline) => {
                    let remaining = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                        .ok_or(WatchTimeout)?;
                    self.watch.cv.wait_timeout(inner, remaining).expect("live watch lock").0
                }
            };
        }
    }

    /// Whether the stream behind this watch has finished.
    pub fn is_finished(&self) -> bool {
        self.watch.lock().finished
    }

    /// The query this watch evaluates.
    pub fn query(&self) -> &Query {
        &self.watch.query
    }

    /// Internal constructor for watches owned by an external feeder (the fleet
    /// aggregator): the caller keeps the `Arc<WatchShared>` and feeds it directly.
    pub(crate) fn from_watch(watch: Arc<WatchShared>) -> Self {
        Self { watch, _source: None, last_seen: 0 }
    }

    /// Builds the one watch shell every feeder registers (a [`LiveFold`], the fleet
    /// aggregator): group state seeded from `profiles`, version 1.
    pub(crate) fn seed_watch(
        query: Query,
        profiles: impl Iterator<Item = ObjectCentricProfile>,
        epoch: Option<u64>,
        finished: bool,
    ) -> Arc<WatchShared> {
        let mut state = GroupState::new(&query);
        for profile in profiles {
            state.absorb_profile(&query, &profile);
        }
        let inner = WatchInner { state, memos: HashMap::new(), version: 1, epoch, finished };
        Arc::new(WatchShared { query, inner: Mutex::new(inner), cv: Condvar::new() })
    }
}

impl std::fmt::Debug for LiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.watch.lock();
        f.debug_struct("LiveQuery")
            .field("version", &inner.version)
            .field("epoch", &inner.epoch)
            .field("finished", &inner.finished)
            .field("groups", &inner.state.len())
            .finish()
    }
}

/// [`LiveQuery::next_epoch_timeout`] elapsed without a new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchTimeout;

impl std::fmt::Display for WatchTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("timed out waiting for the next epoch")
    }
}

impl std::error::Error for WatchTimeout {}
