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
//! * **in-process**: [`Session::live_fold`](crate::session::Session::live_fold) /
//!   [`Session::watch`](crate::session::Session::watch) hand out the session's own
//!   producer fold, the one its profile reads. Each retirement absorbs its delta,
//!   feeds the watches and hands the delta to the drainer in one critical section
//!   under the fold's lock, so the fold observes exactly the stream a
//!   [`BinaryChunkedSink`](crate::wire::BinaryChunkedSink) would have logged. The
//!   session is its one feeder: [`LiveFold::absorb`], [`LiveFold::finish`] and
//!   [`LiveFold::feed`] on it are refused ([`FoldError::ReadOnly`]);
//! * **replayed / tailed logs**: [`LiveFold::feed`] pushes raw binary epoch-log
//!   bytes through a [`FrameTail`] — tail a growing log file and feed each read;
//! * **manual**: [`LiveFold::absorb`] / [`LiveFold::finish`] for decoded records.
//!
//! Every entry point calls the same [`DeltaFold`] methods log replay calls:
//! [`DeltaFold::absorb_ordered`] for a delta and [`DeltaFold::finish`] for the
//! finish record. The fold owns what the stream means — its header, each thread's
//! first-seen name, the finish record and its checksum — so a `LiveFold` adds only
//! the watches it feeds and the byte-stream decoder. The fleet aggregator feeds its
//! watches from its per-producer folds the same way.
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

use crate::profile::{DeltaFold, FoldError, ObjectCentricProfile, ProfileDelta, ProfileParseError};
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
/// session that feeds it) is alive.
#[derive(Clone)]
pub struct LiveFold {
    shared: Arc<LiveShared>,
}

struct LiveShared {
    state: parking_lot::Mutex<LiveState>,
    /// `true` for a session's producer fold, which only the session feeds.
    session: bool,
}

/// A live fold is its stream's [`DeltaFold`] plus the watches it feeds and the
/// byte-stream decoder behind [`LiveFold::feed`] — and, on a streaming session's
/// producer fold, the delta the export drainer takes next.
#[derive(Default)]
pub(crate) struct LiveState {
    fold: DeltaFold,
    watches: Vec<Weak<WatchShared>>,
    tail: FrameTail,
    /// A session's record once its stream finished and a later retirement brought
    /// data: a copy of the terminal fold that absorbs the reads after the finish, so
    /// `fold` stays the terminal stream its closed watches render.
    after_finish: Option<DeltaFold>,
    /// A streaming session's deltas that the drainer has not taken yet, merged into
    /// one; the fold has absorbed them already.
    pending: Option<ProfileDelta>,
}

impl LiveState {
    /// The stream's fold.
    pub(crate) fn fold(&self) -> &DeltaFold {
        &self.fold
    }

    /// What a session's profile reads: the stream's fold, plus what was retired after
    /// the stream finished.
    pub(crate) fn record(&self) -> &DeltaFold {
        self.after_finish.as_ref().unwrap_or(&self.fold)
    }

    /// Folds a retirement no stream carries — a session that does not stream, or one
    /// read after its stream finished — moving the delta's sites and new fragments in.
    pub(crate) fn absorb_unstreamed(&mut self, delta: ProfileDelta) {
        if !self.fold.is_finished() {
            self.fold.absorb_owned(delta);
        } else if !delta.is_empty() {
            let fold = &self.fold;
            self.after_finish.get_or_insert_with(|| fold.clone()).absorb_owned(delta);
        }
    }

    /// Folds one streamed delta (a rejected delta leaves the fold and every watch
    /// untouched), then feeds the watches.
    pub(crate) fn absorb_delta(&mut self, delta: &ProfileDelta) -> Result<(), FoldError> {
        self.fold.absorb_ordered(delta)?;
        let LiveState { watches, fold, .. } = self;
        for_watches(watches, |w| w.feed_fragment("", fold, delta));
        Ok(())
    }

    /// Merges a streamed delta into the pending one; `true` when a delta was already
    /// pending (the new one coalesced).
    pub(crate) fn hold(&mut self, delta: ProfileDelta) -> bool {
        match &mut self.pending {
            Some(pending) => {
                pending.merge_owned(delta);
                true
            }
            None => {
                self.pending = Some(delta);
                false
            }
        }
    }

    /// The drainer's take: the pending delta, and the stream's finish record once the
    /// fold finished — after which nothing is ever pending again.
    pub(crate) fn take_pending(&mut self) -> (Option<ProfileDelta>, Option<FinishRecord>) {
        (self.pending.take(), self.fold.finish_record().cloned())
    }

    /// Closes the stream with its finish record, verifying the loss-free checksum,
    /// and closes every watch. A repeated finish that passes the check is ignored.
    pub(crate) fn finish(&mut self, record: FinishRecord) -> Result<(), FoldError> {
        if self.fold.finish(record, false)? {
            let (header, epoch) = (self.fold.header(), self.fold.last_epoch());
            for_watches(&mut self.watches, |w| w.feed_header(header, epoch, true));
        }
        Ok(())
    }
}

impl LiveFold {
    /// An empty fold with placeholder metadata (adopted from the stream's terminal
    /// record, or set up front with [`LiveFold::with_meta`]).
    pub fn new() -> Self {
        Self::of(DeltaFold::new(), false)
    }

    /// An empty fold that already knows the stream's event, period and size filter —
    /// what mid-stream snapshots and renders report before the terminal record
    /// confirms them.
    pub fn with_meta(event: PmuEvent, period: u64, size_filter: u64) -> Self {
        Self::of(DeltaFold::with_header(event, period, size_filter), false)
    }

    /// A session's producer fold: empty under the session's header, fed only by the
    /// session, through [`LiveFold::lock`].
    pub(crate) fn producer(event: PmuEvent, period: u64, size_filter: u64) -> Self {
        Self::of(DeltaFold::with_header(event, period, size_filter), true)
    }

    fn of(fold: DeltaFold, session: bool) -> Self {
        let state = LiveState { fold, ..LiveState::default() };
        Self { shared: Arc::new(LiveShared { state: parking_lot::Mutex::new(state), session }) }
    }

    /// The fold's state under its lock — the lock that orders a session's
    /// retirements.
    pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, LiveState> {
        self.shared.state.lock()
    }

    /// Refuses callers' writes to a session's fold.
    fn writable(&self) -> Result<(), FoldError> {
        if self.shared.session {
            return Err(FoldError::ReadOnly);
        }
        Ok(())
    }

    /// Folds one decoded epoch delta, feeding every registered watch.
    ///
    /// # Errors
    ///
    /// [`FoldError::ReadOnly`] on a session's live fold,
    /// [`FoldError::AfterFinish`] once the stream finished,
    /// [`FoldError::OutOfOrderEpoch`] when the epoch repeats or regresses,
    /// [`FoldError::SiteGap`] when the delta's sites do not join the fold's table;
    /// the fold and all watches are left untouched.
    pub fn absorb(&self, delta: &ProfileDelta) -> Result<(), FoldError> {
        self.writable()?;
        self.lock().absorb_delta(delta)
    }

    /// Closes the stream with a terminal record: verifies the loss-free checksum,
    /// then adopts the run configuration and counters and closes every watch. A
    /// repeated finish that passes the checksum is ignored.
    ///
    /// # Errors
    ///
    /// [`FoldError::ReadOnly`] on a session's live fold;
    /// [`FoldError::ChecksumMismatch`] when the folded sample total does not match
    /// the record (deltas were lost or duplicated). The stream stays as it was.
    pub fn finish(&self, record: FinishRecord) -> Result<(), FoldError> {
        self.writable()?;
        self.lock().finish(record)
    }

    /// Pushes raw binary epoch-log bytes ([`crate::wire`] frames), decoding and
    /// folding every complete frame. This is the log-tailing entry point: read a
    /// growing log in chunks and feed each read; partial frames buffer until
    /// completed by a later feed.
    ///
    /// # Errors
    ///
    /// [`ProfileParseError`] on malformed frames, out-of-order epochs or a failing
    /// terminal checksum, anchored to the offending frame's position — or at frame 0
    /// on a session's live fold, which takes no bytes.
    pub fn feed(&self, bytes: &[u8]) -> Result<(), ProfileParseError> {
        self.writable()
            .map_err(|e| ProfileParseError { frame: 0, message: e.to_string() })?;
        let mut st = self.lock();
        st.tail.push(bytes);
        while let Some(record) = st.tail.next_record()? {
            let folded = match record {
                LogRecord::Delta(delta) => st.absorb_delta(&delta),
                LogRecord::Finish(record) => st.finish(record),
            };
            let frame = st.tail.frames();
            folded.map_err(|e| ProfileParseError { frame, message: e.to_string() })?;
        }
        Ok(())
    }

    /// Assembles the cold-evaluation reference snapshot at this point of the
    /// stream. `query.evaluate(&fold.snapshot())` renders byte-identically to
    /// `query.watch(&fold)`'s current result.
    pub fn snapshot(&self) -> ObjectCentricProfile {
        self.lock().fold.clone().assemble()
    }

    /// The last epoch folded, or `None` while the fold is empty.
    pub fn last_epoch(&self) -> Option<u64> {
        self.lock().fold.last_epoch()
    }

    /// Number of deltas folded so far.
    pub fn deltas(&self) -> u64 {
        self.lock().fold.deltas()
    }

    /// Whether the stream's terminal record has been folded. A finished fold's
    /// snapshot is the run's complete profile; its watches' pending iterators
    /// ([`LiveQuery::next_epoch`]) drain and return `None`.
    pub fn is_finished(&self) -> bool {
        self.lock().fold.is_finished()
    }

    /// Registers a watch: seed its group state from the fold in place, then
    /// subscribe it to subsequent fragments.
    fn register(&self, query: Query) -> LiveQuery {
        let mut st = self.lock();
        let mut groups = GroupState::new(&query);
        groups.absorb_fold(&query, &st.fold);
        let watch =
            LiveQuery::seed_watch(query, groups, st.fold.last_epoch(), st.fold.is_finished());
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
        let st = self.lock();
        f.debug_struct("LiveFold")
            .field("deltas", &st.fold.deltas())
            .field("last_epoch", &st.fold.last_epoch())
            .field("sites", &st.fold.sites().len())
            .field("finished", &st.fold.is_finished())
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
    /// block step cold evaluation runs, against the fold the delta was just folded
    /// into: its site table, and its first-seen thread names (later fragments of a
    /// thread carry the `<attached>` placeholder). `key` names the stream when one
    /// watch follows several (the fleet aggregator keys by producer, so each site
    /// table gets its own memo); a single-stream fold uses `""`.
    pub(crate) fn feed_fragment(&self, key: &str, fold: &DeltaFold, delta: &ProfileDelta) {
        let mut inner = self.lock();
        let WatchInner { state, memos, .. } = &mut *inner;
        // The stream key is allocated only the first time a stream is seen.
        if !memos.contains_key(key) {
            memos.insert(key.to_string(), Vec::new());
        }
        let memo = memos.get_mut(key).expect("inserted above");
        for td in &delta.threads {
            state.absorb_thread(&self.query, &td.profile, fold.thread_name(td), fold.sites(), memo);
        }
        self.commit(inner, Some(delta.epoch), false);
    }

    /// Adopts an event/period header without new samples: a stream's finish (with
    /// its epoch), or the fleet-wide header when the producer set changes. With
    /// `close` the watch finishes: pending [`LiveQuery::next_epoch`] calls observe
    /// one final result and then `None`; the fleet aggregator passes `false`.
    pub(crate) fn feed_header(&self, header: (PmuEvent, u64), epoch: Option<u64>, close: bool) {
        let mut inner = self.lock();
        inner.state.set_meta(header);
        self.commit(inner, epoch, close);
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
    /// Keeps the fold that feeds the watch alive — a session's live fold included,
    /// so the watch outlives every other handle to it; aggregator-backed watches
    /// are owned by the aggregator instead.
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
    /// aggregator) around group state the feeder seeded from its folds: version 1.
    pub(crate) fn seed_watch(
        query: Query,
        state: GroupState,
        epoch: Option<u64>,
        finished: bool,
    ) -> Arc<WatchShared> {
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
