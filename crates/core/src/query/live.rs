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
//! path and cold evaluation run the *same* `GroupState` code, and rendering goes
//! through the same `GroupState::materialize`. Mid-run the reference is the fold
//! itself (the delta stream carries no allocation counters; those arrive with the
//! terminal record, exactly as in a cold replay), and once the stream finishes the
//! snapshot *is* the terminal profile by the loss-free streaming guarantee, so the
//! final render equals a cold evaluation of the session's own profile.
//!
//! Rows referencing allocation sites the fold cannot resolve yet (the site table
//! trails the delta stream: in-process it refreshes from the interner on demand, a
//! log replay learns the table from the terminal record) are deferred exactly the
//! way cold evaluation skips unresolvable rows, and replayed from the fold the
//! moment the table extends — the watch never diverges from the cold render over
//! the same snapshot.
//!
//! # Incremental top-k
//!
//! A truncated query (`query.top(k)`) does not re-rank every group per epoch: the
//! watch keeps a threshold-tracked min-heap of the current k strongest groups.
//! Counter-backed ranks only grow, so a touched member sifts down in `O(log k)` and
//! a non-member enters only by beating the heap root (the *threshold*). Ratio ranks
//! ([`RankBy::RemoteFraction`](crate::query::RankBy) and friends) can shrink; a
//! decrease-key marks the heap dirty and the next render rebuilds it lazily in
//! `O(groups · log k)` — decreases are rare, so the amortized per-epoch cost stays
//! `O(touched · log k)`.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use djx_pmu::PmuEvent;
use djx_runtime::ThreadId;

use crate::export::DeltaTap;
use crate::object::AllocSite;
use crate::profile::{
    AllocationRow, AllocationStats, DeltaFold, FoldError, ObjectCentricProfile, ProfileDelta,
    ProfileParseError, ThreadProfile,
};
use crate::sink::{FinishRecord, LogRecord};
use crate::wire::FrameTail;

use super::{GroupAcc, GroupState, ProfileSource, Query, QueryError, QueryResult, RankValue};

// ---------------------------------------------------------------------------------------
// LiveFold
// ---------------------------------------------------------------------------------------

/// A [`ProfileSource`] that follows the epoch-retired delta stream: the running
/// [`DeltaFold`], the trailing site table, the terminal allocation rows once the
/// stream finishes — and the set of registered live watches it feeds incrementally.
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
    /// The stream's site table so far. Trails the delta stream; extended through
    /// [`LiveState::extend_sites`], which replays previously deferred rows.
    sites: Vec<AllocSite>,
    /// Terminal allocation rows (empty until the stream finishes — sample deltas
    /// never carry allocation counters).
    alloc_rows: Vec<AllocationRow>,
    stats: AllocationStats,
    /// First-seen thread names, kept across fragments (see [`StreamCtx`]).
    thread_names: HashMap<ThreadId, String>,
    finished: bool,
    watches: Vec<Weak<WatchShared>>,
    /// In-process taps resolve a trailing site table against the session's interner
    /// on demand; transport-fed folds have none and wait for the terminal record.
    site_refresh: Option<Box<dyn FnMut() -> Vec<AllocSite> + Send>>,
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
            sites: Vec::new(),
            alloc_rows: Vec::new(),
            stats: AllocationStats::default(),
            thread_names: HashMap::new(),
            finished: false,
            watches: Vec::new(),
            site_refresh: None,
            tail: FrameTail::new(),
        }
    }

    /// The cold-evaluation reference at this point of the stream: the fold assembled
    /// with everything known so far. [`LiveQuery::current`] is byte-identical to a
    /// cold evaluation of this snapshot.
    fn snapshot_profile(&self) -> ObjectCentricProfile {
        self.fold.clone().assemble(
            self.event,
            self.period,
            self.size_filter,
            self.sites.clone(),
            self.alloc_rows.iter().copied(),
            self.stats,
        )
    }

    /// Runs `f` for every live watch, dropping the dead ones on the way.
    fn for_watches(watches: &mut Vec<Weak<WatchShared>>, mut f: impl FnMut(&WatchShared)) {
        watches.retain(|w| match w.upgrade() {
            Some(w) => {
                f(&w);
                true
            }
            None => false,
        });
    }

    /// Extends the site table (prefix-stable: allocation-site interning is
    /// append-only) and replays rows deferred on the previously unresolvable ids
    /// from the fold into every watch. Must run *before* a new fragment enters the
    /// fold so each row is replayed exactly once: rows below the old length were
    /// absorbed when their fragments arrived, rows in `[old, new)` replay here from
    /// the accumulated fold, rows at or above the new length stay deferred.
    fn extend_sites(&mut self, sites: Vec<AllocSite>) {
        if sites.len() <= self.sites.len() {
            return;
        }
        let from = self.sites.len();
        self.sites = sites;
        let LiveState { watches, sites, thread_names, fold, .. } = self;
        let ctx = StreamCtx { key: "", sites, names: thread_names };
        Self::for_watches(watches, |w| w.replay_rows(&ctx, &fold.acc().threads, from));
    }

    /// Folds one streamed delta: resolve newly referenced sites (replaying deferred
    /// rows), record first-seen thread names, validate the epoch order, feed the
    /// watches, then fold. Order matters — validation precedes the watch feed so a
    /// rejected delta leaves every watch untouched, and the site-table extension
    /// precedes both so replay never double-counts this delta's rows.
    fn absorb_delta(&mut self, delta: &ProfileDelta) -> Result<(), FoldError> {
        if self.finished {
            // The stream ended; any further epoch is out of order by definition.
            return Err(FoldError::OutOfOrderEpoch {
                epoch: delta.epoch,
                last: self.fold.last_epoch().unwrap_or(0),
            });
        }
        if let Some(last) = self.fold.last_epoch() {
            if delta.epoch <= last {
                return Err(FoldError::OutOfOrderEpoch { epoch: delta.epoch, last });
            }
        }
        let max_site = delta
            .threads
            .iter()
            .flat_map(|td| td.profile.sites.keys())
            .map(|id| id.0 as usize)
            .max();
        if let (Some(max), Some(_)) = (max_site, self.site_refresh.as_ref()) {
            if max >= self.sites.len() {
                let refreshed = self.site_refresh.as_mut().map(|f| f()).unwrap_or_default();
                self.extend_sites(refreshed);
            }
        }
        for td in &delta.threads {
            self.thread_names
                .entry(td.profile.thread)
                .or_insert_with(|| td.profile.thread_name.clone());
        }
        {
            let LiveState { watches, sites, thread_names, .. } = self;
            let ctx = StreamCtx { key: "", sites, names: thread_names };
            Self::for_watches(watches, |w| w.feed_fragment(&ctx, delta));
        }
        // Already validated above; plain absorb keeps the fold/watch feed atomic.
        self.fold.absorb(delta);
        Ok(())
    }

    /// Closes the stream: adopt the terminal metadata, site table and allocation
    /// rows, replay any still-deferred sample rows, and feed the allocation rows to
    /// every watch. Idempotent — a second finish is ignored.
    fn finish_with(
        &mut self,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
        sites: Vec<AllocSite>,
        rows: Vec<AllocationRow>,
        stats: AllocationStats,
    ) {
        if self.finished {
            return;
        }
        self.extend_sites(sites);
        self.event = event;
        self.period = period;
        self.size_filter = size_filter;
        self.stats = stats;
        self.alloc_rows = rows;
        self.finished = true;
        let epoch = self.fold.last_epoch();
        let LiveState { watches, sites, thread_names, alloc_rows, .. } = self;
        let ctx = StreamCtx { key: "", sites, names: thread_names };
        Self::for_watches(watches, |w| {
            w.feed_finish(&ctx, alloc_rows, event, period, epoch, true);
        });
    }

    /// Terminal-profile variant of [`LiveState::finish_with`]: extracts the
    /// allocation rows from an assembled profile exactly the way the sink's finish
    /// frame does ([`FinishRecord::of_profile`]), so folding them back is
    /// loss-free.
    fn apply_terminal(&mut self, profile: &ObjectCentricProfile) {
        self.finish_record(FinishRecord::of_profile(profile, true));
    }

    fn finish_record(&mut self, record: FinishRecord) {
        self.finish_with(
            record.event,
            record.period,
            record.size_filter,
            record.sites,
            record.allocs,
            record.allocation_stats,
        );
    }
}

impl DeltaTap for LiveShared {
    fn on_delta(&self, delta: &ProfileDelta) {
        // The drainer hands epochs over strictly ordered under the hand-off gate, so
        // a rejection here can only be the seed epoch re-drained with no new
        // retirements — the rows are already folded, dropping it is the dedupe.
        let _ = self.state.lock().expect("live fold state lock").absorb_delta(delta);
    }

    fn on_finish(&self, profile: &ObjectCentricProfile) {
        self.state.lock().expect("live fold state lock").apply_terminal(profile);
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
    /// stream already finished); the fold and all watches are left untouched.
    pub fn absorb(&self, delta: &ProfileDelta) -> Result<(), FoldError> {
        self.state().absorb_delta(delta)
    }

    /// Closes the stream with a terminal record: verifies the loss-free checksum,
    /// then adopts metadata, site table and allocation rows and feeds every watch.
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

    /// Provides (or extends) the stream's site table out of band — e.g. from a
    /// previously replayed log of the same run. The table is append-only and
    /// prefix-stable; a shorter table than already known is a no-op. Rows deferred
    /// on previously unresolvable sites replay into every watch.
    pub fn provide_sites(&self, sites: Vec<AllocSite>) {
        self.state().extend_sites(sites);
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
        for td in &acc.threads {
            st.thread_names
                .entry(td.profile.thread)
                .or_insert_with(|| td.profile.thread_name.clone());
        }
        st.fold = DeltaFold::seed_from(acc);
        if st.site_refresh.is_some() {
            let refreshed = st.site_refresh.as_mut().map(|f| f()).unwrap_or_default();
            st.extend_sites(refreshed);
        }
    }

    /// Installs the on-demand site-table resolver (the in-process tap points this at
    /// the session's interner). Also resolves once eagerly.
    pub(crate) fn set_site_refresh(
        &self,
        mut refresh: impl FnMut() -> Vec<AllocSite> + Send + 'static,
    ) {
        let mut st = self.state();
        let eager = refresh();
        st.extend_sites(eager);
        st.site_refresh = Some(Box::new(refresh));
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
            // The terminal profile's threads already carry their allocation
            // counters folded in, so the seed holds them verbatim and the terminal
            // row list stays empty — assembly must not fold them twice.
            st.fold = DeltaFold::seed_from(ProfileDelta {
                epoch: 0,
                threads: profile
                    .threads
                    .iter()
                    .enumerate()
                    .map(|(seq, t)| crate::profile::ThreadDelta {
                        seq: seq as u64,
                        profile: t.clone(),
                    })
                    .collect(),
            });
            st.sites = profile.sites.clone();
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
        let mut inner = WatchInner {
            state: GroupState::new(),
            topk: query.top.map(TopK::new),
            memos: HashMap::new(),
            version: 1,
            epoch: st.fold.last_epoch(),
            finished: st.finished,
        };
        inner.state.absorb_profile(&query, &st.snapshot_profile());
        let touched = inner.state.take_touched();
        if let Some(topk) = inner.topk.as_mut() {
            for slot in touched {
                topk.update(slot, inner.state.groups(), &query);
            }
        }
        let watch = Arc::new(WatchShared { query, inner: Mutex::new(inner), cv: Condvar::new() });
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
            .field("sites", &st.sites.len())
            .field("finished", &st.finished)
            .field("watches", &st.watches.len())
            .finish()
    }
}

impl ProfileSource for LiveFold {
    fn describe(&self) -> String {
        let st = self.state();
        format!(
            "live fold ({} deltas, epoch {}{})",
            st.fold.deltas(),
            st.fold.last_epoch().unwrap_or(0),
            if st.finished { ", finished" } else { "" },
        )
    }

    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        Ok(vec![Cow::Owned(self.snapshot())])
    }
}

impl Query {
    /// Subscribes this query to a [`LiveFold`]: the returned [`LiveQuery`] is seeded
    /// from the fold's current snapshot and updated incrementally on every folded
    /// epoch — [`LiveQuery::current`] always renders byte-identically to a cold
    /// [`Query::evaluate`] over [`LiveFold::snapshot`], without re-evaluating
    /// anything.
    pub fn watch(&self, fold: &LiveFold) -> LiveQuery {
        fold.register(self.clone())
    }
}

// ---------------------------------------------------------------------------------------
// Watches
// ---------------------------------------------------------------------------------------

pub(crate) struct WatchShared {
    query: Query,
    inner: Mutex<WatchInner>,
    cv: Condvar,
}

struct WatchInner {
    state: GroupState,
    topk: Option<TopK>,
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

    /// Absorbs one epoch delta. Mirrors [`GroupState::absorb_profile`] exactly —
    /// same header/row code, same id-ordered row walk — except that rows whose site
    /// id is not resolvable yet are deferred (cold evaluation over the equivalent
    /// snapshot skips them identically; [`WatchShared::replay_rows`] folds them in
    /// when the table extends).
    pub(crate) fn feed_fragment(&self, ctx: &StreamCtx<'_>, delta: &ProfileDelta) {
        let mut inner = self.lock();
        let WatchInner { state, memos, .. } = &mut *inner;
        let memo = memos.entry(ctx.key.to_string()).or_default();
        if memo.len() < ctx.sites.len() {
            memo.resize(ctx.sites.len(), None);
        }
        for td in &delta.threads {
            let thread = &td.profile;
            let mut thread_slot =
                state.absorb_thread_header(&self.query, thread, ctx.name_of(thread));
            let mut thread_sites: Vec<_> = thread.sites.iter().collect();
            thread_sites.sort_unstable_by_key(|(id, _)| **id);
            for (site_id, sm) in thread_sites {
                let idx = site_id.0 as usize;
                let Some(site) = ctx.sites.get(idx) else { continue };
                state.absorb_row(
                    &self.query,
                    thread,
                    ctx.name_of(thread),
                    &mut thread_slot,
                    site,
                    &mut memo[idx],
                    sm,
                );
            }
        }
        self.commit(inner, Some(delta.epoch), false);
    }

    /// Replays rows deferred on site ids in `[from, ctx.sites.len())` from the
    /// accumulated fold — called exactly once per id range, when the site table
    /// extends past it.
    pub(crate) fn replay_rows(
        &self,
        ctx: &StreamCtx<'_>,
        threads: &[crate::profile::ThreadDelta],
        from: usize,
    ) {
        let mut inner = self.lock();
        let WatchInner { state, memos, .. } = &mut *inner;
        let memo = memos.entry(ctx.key.to_string()).or_default();
        if memo.len() < ctx.sites.len() {
            memo.resize(ctx.sites.len(), None);
        }
        let mut touched_any = false;
        for td in threads {
            let thread = &td.profile;
            // The thread header was absorbed when its fragments arrived; only the
            // deferred rows fold in here. A Thread-axis slot resolves through the
            // group index (slots are identity-stable), so `None` is correct.
            let mut thread_slot = None;
            let mut thread_sites: Vec<_> = thread
                .sites
                .iter()
                .filter(|(id, _)| {
                    let idx = id.0 as usize;
                    idx >= from && idx < ctx.sites.len()
                })
                .collect();
            thread_sites.sort_unstable_by_key(|(id, _)| **id);
            for (site_id, sm) in thread_sites {
                let idx = site_id.0 as usize;
                let Some(site) = ctx.sites.get(idx) else { continue };
                touched_any = true;
                state.absorb_row(
                    &self.query,
                    thread,
                    ctx.name_of(thread),
                    &mut thread_slot,
                    site,
                    &mut memo[idx],
                    sm,
                );
            }
        }
        if touched_any {
            self.commit(inner, None, false);
        } else {
            // Nothing replayed: drop the (empty) touched set without a version bump.
            let _ = inner.state.take_touched();
        }
    }

    /// Folds one stream's terminal allocation rows in. With `close` the watch
    /// finishes: pending [`LiveQuery::next_epoch`] calls observe one final result
    /// and then `None`. A multi-stream feeder (the fleet aggregator) passes
    /// `close = false` — one producer finishing does not end the fleet.
    pub(crate) fn feed_finish(
        &self,
        ctx: &StreamCtx<'_>,
        rows: &[AllocationRow],
        event: PmuEvent,
        period: u64,
        epoch: Option<u64>,
        close: bool,
    ) {
        let mut inner = self.lock();
        let WatchInner { state, .. } = &mut *inner;
        state.set_meta(event, period);
        for row in rows {
            let (thread, site_id, _, _) = *row;
            let site = ctx.sites.get(site_id.0 as usize);
            let name = ctx.names.get(&thread).map(String::as_str).unwrap_or("<allocation-only>");
            state.absorb_alloc_row(&self.query, *row, site, name);
        }
        if let Some(epoch) = epoch {
            inner.epoch = Some(epoch);
        }
        self.commit(inner, None, close);
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

    /// Publishes a batch: feed the touched slots to the top-k, bump the version,
    /// wake pullers.
    fn commit(&self, mut inner: MutexGuard<'_, WatchInner>, epoch: Option<u64>, finished: bool) {
        let touched = inner.state.take_touched();
        let WatchInner { state, topk, .. } = &mut *inner;
        if let Some(topk) = topk.as_mut() {
            for slot in touched {
                topk.update(slot, state.groups(), &self.query);
            }
        }
        if let Some(epoch) = epoch {
            inner.epoch = Some(epoch);
        }
        if finished {
            inner.finished = true;
        }
        inner.version += 1;
        self.cv.notify_all();
    }

    /// Renders the watch's current state — the member set comes from the maintained
    /// top-k when the query truncates (rebuilding lazily after a decrease-key), or
    /// from every group otherwise; ranking and formatting go through the same
    /// [`GroupState::materialize`] cold evaluation uses.
    fn render(&self) -> LiveResult {
        let mut inner = self.lock();
        let WatchInner { state, topk, .. } = &mut *inner;
        let accs: Vec<GroupAcc> = match topk.as_mut() {
            Some(topk) => {
                if topk.dirty {
                    topk.rebuild(state.groups(), &self.query);
                }
                topk.members().iter().map(|&slot| state.groups()[slot].clone()).collect()
            }
            None => state.groups().to_vec(),
        };
        LiveResult {
            epoch: inner.epoch,
            version: inner.version,
            finished: inner.finished,
            result: inner.state.materialize(&self.query, accs),
        }
    }
}

// ---------------------------------------------------------------------------------------
// Incremental top-k
// ---------------------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct TopKEntry {
    slot: usize,
    rank: RankValue,
    weighted: u64,
}

/// Threshold-tracked top-k over group slots: a min-heap whose root is the weakest
/// member (the admission threshold). Members whose rank grows sift down in
/// `O(log k)`; a shrinking rank (only ratio-valued [`RankBy`](crate::query::RankBy)
/// variants can shrink) marks the heap dirty and the next render rebuilds. See the
/// module docs for the complexity argument.
struct TopK {
    k: usize,
    heap: Vec<TopKEntry>,
    /// slot → heap index of the current members.
    pos: HashMap<usize, usize>,
    /// Set on decrease-key; [`TopK::rebuild`] clears it.
    dirty: bool,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self { k, heap: Vec::new(), pos: HashMap::new(), dirty: false }
    }

    /// Ascending strength: `Greater` means `a` ranks ahead of `b` in the final
    /// ordering — the exact comparator [`GroupState::materialize`] sorts by
    /// (rank desc, weighted events desc, group key asc), flipped to "strength".
    fn strength(a: &TopKEntry, b: &TopKEntry, groups: &[GroupAcc]) -> Ordering {
        a.rank
            .cmp_key(&b.rank)
            .then_with(|| a.weighted.cmp(&b.weighted))
            .then_with(|| groups[b.slot].key.cmp(&groups[a.slot].key))
    }

    fn entry(slot: usize, groups: &[GroupAcc], query: &Query) -> TopKEntry {
        let metrics = &groups[slot].metrics;
        TopKEntry {
            slot,
            rank: query.rank_by.key_value(metrics),
            weighted: metrics.weighted_events,
        }
    }

    /// Re-evaluates one touched slot against the heap.
    fn update(&mut self, slot: usize, groups: &[GroupAcc], query: &Query) {
        if self.k == 0 || self.dirty {
            return;
        }
        let entry = Self::entry(slot, groups, query);
        if let Some(&i) = self.pos.get(&slot) {
            match Self::strength(&entry, &self.heap[i], groups) {
                // Decrease-key: the member may no longer belong, and the strongest
                // excluded group is unknown without a scan — rebuild lazily.
                Ordering::Less => self.dirty = true,
                Ordering::Equal => {}
                Ordering::Greater => {
                    self.heap[i] = entry;
                    self.sift_down(i, groups);
                }
            }
            return;
        }
        if groups[slot].metrics.samples < query.min_samples {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.pos.insert(slot, self.heap.len() - 1);
            self.sift_up(self.heap.len() - 1, groups);
        } else if Self::strength(&entry, &self.heap[0], groups) == Ordering::Greater {
            let evicted = self.heap[0].slot;
            self.pos.remove(&evicted);
            self.heap[0] = entry;
            self.pos.insert(slot, 0);
            self.sift_down(0, groups);
        }
    }

    /// Full rescan after a decrease-key: every eligible group competes again.
    fn rebuild(&mut self, groups: &[GroupAcc], query: &Query) {
        self.heap.clear();
        self.pos.clear();
        self.dirty = false;
        for slot in 0..groups.len() {
            self.update(slot, groups, query);
        }
    }

    fn members(&self) -> Vec<usize> {
        self.heap.iter().map(|e| e.slot).collect()
    }

    fn sift_up(&mut self, mut i: usize, groups: &[GroupAcc]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::strength(&self.heap[i], &self.heap[parent], groups) == Ordering::Less {
                self.heap.swap(i, parent);
                self.pos.insert(self.heap[i].slot, i);
                self.pos.insert(self.heap[parent].slot, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, groups: &[GroupAcc]) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut weakest = i;
            if left < self.heap.len()
                && Self::strength(&self.heap[left], &self.heap[weakest], groups) == Ordering::Less
            {
                weakest = left;
            }
            if right < self.heap.len()
                && Self::strength(&self.heap[right], &self.heap[weakest], groups) == Ordering::Less
            {
                weakest = right;
            }
            if weakest == i {
                break;
            }
            self.heap.swap(i, weakest);
            self.pos.insert(self.heap[i].slot, i);
            self.pos.insert(self.heap[weakest].slot, weakest);
            i = weakest;
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
        let mut inner = self.watch.lock();
        loop {
            if inner.version > self.last_seen {
                drop(inner);
                return Some(self.current());
            }
            if inner.finished {
                return None;
            }
            inner = self.watch.cv.wait(inner).expect("live watch lock");
        }
    }

    /// [`LiveQuery::next_epoch`] with a timeout: `Ok(None)` means the stream
    /// finished, `Err(..)` that the timeout elapsed with no new epoch.
    pub fn next_epoch_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<LiveResult>, WatchTimeout> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.watch.lock();
        loop {
            if inner.version > self.last_seen {
                drop(inner);
                return Ok(Some(self.current()));
            }
            if inner.finished {
                return Ok(None);
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                return Err(WatchTimeout);
            };
            let (guard, _) = self.watch.cv.wait_timeout(inner, remaining).expect("live watch lock");
            inner = guard;
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

    /// Builds the watch shell an external feeder registers: seeded group state from
    /// `profiles`, version 1.
    pub(crate) fn seed_watch(
        query: Query,
        profiles: impl Iterator<Item = ObjectCentricProfile>,
        epoch: Option<u64>,
        finished: bool,
    ) -> Arc<WatchShared> {
        let mut inner = WatchInner {
            state: GroupState::new(),
            topk: query.top.map(TopK::new),
            memos: HashMap::new(),
            version: 1,
            epoch,
            finished,
        };
        for profile in profiles {
            inner.state.absorb_profile(&query, &profile);
        }
        let touched = inner.state.take_touched();
        if let Some(topk) = inner.topk.as_mut() {
            for slot in touched {
                topk.update(slot, inner.state.groups(), &query);
            }
        }
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
