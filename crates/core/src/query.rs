//! The unified query layer: one [`ProfileSource`] abstraction and one composable
//! [`Query`] API over everything the profiler can produce.
//!
//! DJXPerf's value is the *analysis* step — ranking objects by locality metrics and
//! attributing them to allocation sites (§5.2, §6 of the paper). After the ingestion
//! pipeline grew sharded indexes, pause-free snapshots and delta streaming, the same
//! analysis question ("which objects cause the misses?") can be asked of very
//! differently-shaped data: a still-running [`Session`], a terminal snapshot, a
//! binary epoch log ([`BinaryChunkedSink`](crate::wire::BinaryChunkedSink))
//! replayed from disk or a socket, or a fold of N logs streamed by N processes. This module makes all of them
//! answer **the same query identically**: a [`Query`] value evaluated against any
//! [`ProfileSource`] produces the same [`QueryResult`] whenever the sources describe
//! the same samples — asserted end to end by `examples/query.rs` and the
//! `query_sources` integration tests.
//!
//! # Choosing a source: pull vs watch
//!
//! Sources come in two kinds. **Pull** sources are evaluated from scratch on every
//! [`Query::evaluate`] — O(profile) per call, right for one-shot and offline
//! questions. The **live** source ([`live::LiveFold`]) follows the epoch-retired
//! delta stream and pays O(delta) per epoch instead: [`Query::watch`] registers a
//! query whose group state updates incrementally as epochs retire, and the
//! resulting [`live::LiveQuery`] ranks and renders on demand — the path for
//! dashboards, daemons and anything that would otherwise re-evaluate in a loop.
//!
//! | source | backing data | when to use |
//! |---|---|---|
//! | [`Session`] | live pause-free snapshot ([`Session::object_profile`]) | one-shot queries against a run that is still ingesting |
//! | [`live::LiveFold`] | the epoch-retired delta stream, folded incrementally ([`Session::watch`], [`FleetAggregator::watch`](crate::fleet::FleetAggregator::watch), [`live::LiveFold::absorb`]) | repeated queries over a changing run: dashboards, watch loops, aggregator daemons |
//! | [`ObjectCentricProfile`] | an owned snapshot, or a binary epoch log replayed by [`BinaryChunkedSink::read_log_bytes`](crate::wire::BinaryChunkedSink::read_log_bytes) | offline analysis of extracted profiles; re-querying a streamed run after the fact |
//! | `[ObjectCentricProfile]` | a sequence of snapshots | the classic one-file-per-process merge workflow |
//! | [`MultiSource`] | a fold of any other sources | cross-machine / multi-process merging |
//!
//! # Watching instead of polling
//!
//! Every [`live::LiveResult`] is **epoch-versioned**: it carries the last folded
//! epoch, a monotonically increasing version, and a `finished` flag, and its
//! [`QueryResult`] is byte-identical to a cold [`Query::evaluate`] over
//! [`live::LiveFold::snapshot`] at that instant (the property tests assert this
//! across arbitrary interleavings). [`live::LiveQuery::current`] renders without
//! blocking; [`live::LiveQuery::next_epoch`] blocks until the next epoch retires
//! (returning `None` once the stream finished), so a dashboard tick is a wait, not
//! a re-evaluation.
//!
//! Migrating a poll loop:
//!
//! ```text
//! // before: O(profile) per tick                // after: O(delta) per epoch
//! loop {                                        let mut lq = session.watch(&query)?;
//!     let p = session.object_profile().unwrap();while let Some(r) = lq.next_epoch() {
//!     let r = query.evaluate(&p)?;                  println!("epoch {:?}: {}",
//!     println!("{}", r.to_text());                           r.epoch, r.result.to_text());
//!     sleep(tick);                              }
//! }
//! ```
//!
//! The same watch API covers replayed logs (pass each record a
//! [`BinaryFrameReader`](crate::wire::BinaryFrameReader) reads to
//! [`live::LiveFold::absorb`] / [`live::LiveFold::finish`]) and the fleet aggregator
//! ([`FleetAggregator::watch`](crate::fleet::FleetAggregator::watch) updates per
//! producer frame instead of re-evaluating the merged view). `examples/live_dashboard.rs`
//! runs the whole loop against a concurrently-ingesting session.
//!
//! # Queries
//!
//! A [`Query`] is a small value: filters (class, allocation-site frame, thread,
//! noise floor), a grouping axis ([`GroupBy`]), a ranking metric ([`RankBy`] —
//! including derived ratios such as the per-byte miss ratio) and a truncation.
//! Evaluation is deterministic: groups order by the ranking key descending with a
//! fixed tie chain (weighted events, then group key), so two evaluations over
//! equal data render byte-identically ([`QueryResult::to_text`] /
//! [`QueryResult::to_json`]).
//!
//! ```
//! use djxperf::query::{GroupBy, Query, RankBy};
//! # use djx_runtime::{dsl, Runtime, RuntimeConfig};
//! # use djxperf::Session;
//! # let mut rt = Runtime::new(RuntimeConfig::small());
//! # let session = Session::builder().period(64).collect_objects().attach(&mut rt);
//! # let class = rt.register_array_class("float[]", 4);
//! # let method = dsl::MethodSpec::at_line("A", "run", "A.java", 1).register(&mut rt);
//! # let thread = rt.spawn_thread("main");
//! # dsl::bloat_loop(&mut rt, thread, class, method, 0, 50, 512, 16).unwrap();
//! # rt.finish_thread(thread).unwrap();
//! # rt.shutdown();
//! let query = Query::new()
//!     .group_by(GroupBy::Object)
//!     .rank_by(RankBy::WeightedEvents)
//!     .top(10);
//! let live = query.evaluate(&*session).unwrap();         // live session
//! let snapshot = session.object_profile().unwrap();
//! let offline = query.evaluate(&snapshot).unwrap();      // terminal snapshot
//! assert_eq!(live.to_text(), offline.to_text());
//! ```
//!
//! # Reading results
//!
//! Grouped by [`GroupBy::Object`] (the default), a [`QueryResult`] is the offline
//! analyzer's ranked object list (§5.2): profiles merge top-down, sites coalesce by
//! `(class name, allocation path)` across threads and processes, and
//! [`QueryResult::find_class`] looks an object up by class. Ranking by
//! [`RankBy::RemoteSamples`] gives the per-object NUMA ranking (§4.3), and
//! [`GroupBy::NodePair`] the node-to-node traffic matrix it sits beside. Figure 1's
//! comparison is two queries over the same samples: [`GroupBy::Object`] against
//! [`GroupBy::Context`], the code-centric (perf-like) baseline that charges every
//! sample to its calling context alone. A result renders through
//! [`Report::query`](crate::report::Report::query) with symbolized frames (the
//! Figure 5 layout), through its own [`Display`](std::fmt::Display) without a method
//! registry, and through [`QueryResult::to_json`] for dashboards.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::hash::BuildHasher;
use std::ops::Range;
use std::str::FromStr;

use djx_pmu::PmuEvent;
use djx_runtime::{Frame, ThreadId};

use crate::cct::{Cct, CctNodeId};
use crate::fxhash::FxHashMap;
use crate::metrics::MetricVector;
use crate::object::AllocSite;
use crate::profile::{
    encode_path, DeltaFold, ObjectCentricProfile, ProfileParseError, ThreadProfile,
};
use crate::session::Session;
use crate::sink::{json_metrics, json_path, json_string};
pub mod live;

// ---------------------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------------------

/// Error evaluating a [`Query`] against a [`ProfileSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The source cannot produce the object-centric data queries evaluate over —
    /// e.g. a [`Session`] built without an object-centric collector.
    SourceUnavailable(String),
    /// A serialized source failed to parse or replay.
    Parse(ProfileParseError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SourceUnavailable(what) => write!(f, "profile source unavailable: {what}"),
            QueryError::Parse(err) => write!(f, "profile source failed to parse: {err}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ProfileParseError> for QueryError {
    fn from(err: ProfileParseError) -> Self {
        QueryError::Parse(err)
    }
}

/// Error resolving a metric name that no [`RankBy`] matches (mirrors
/// [`event_from_name`](crate::profile::event_from_name): a typo in a CLI flag or a
/// query config must surface as an error, never silently fall back to a default
/// ranking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRankByError {
    /// The unrecognized metric name.
    pub name: String,
}

impl fmt::Display for UnknownRankByError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown ranking metric {:?} (expected one of: {})", self.name, RANK_BY_NAMES)
    }
}

impl std::error::Error for UnknownRankByError {}

/// Error resolving a grouping-axis name that no [`GroupBy`] matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGroupByError {
    /// The unrecognized axis name.
    pub name: String,
}

impl fmt::Display for UnknownGroupByError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown grouping axis {:?} (expected one of: object, site, thread, numa_node, \
             context, node_pair)",
            self.name
        )
    }
}

impl std::error::Error for UnknownGroupByError {}

// ---------------------------------------------------------------------------------------
// RankBy: the ranking metric, including derived ratios
// ---------------------------------------------------------------------------------------

/// Ranking key for query orderings: either a raw [`MetricVector`]
/// counter or a ratio derived from two of them.
///
/// With the default L1-miss event, [`RankBy::EventsPerByte`] is the per-byte L1 miss
/// ratio the paper's size-filter ablation reasons about, and
/// [`RankBy::EventsPerAllocation`] the per-instance miss cost that separates "one huge
/// unlucky object" from "death by a thousand small ones". Every variant round-trips
/// through [`Display`](fmt::Display)/[`FromStr`] so CLI binaries and query configs can
/// name metrics (`"weighted_events".parse::<RankBy>()`); unknown names are
/// [`UnknownRankByError`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankBy {
    /// By estimated total sampled events (the paper's default ordering).
    #[default]
    WeightedEvents,
    /// By raw attributed PMU samples.
    Samples,
    /// By remote NUMA samples (the §4.3 / §7.5 / §7.6 view).
    RemoteSamples,
    /// By accumulated access latency.
    Latency,
    /// By allocation count (bloat hunting).
    Allocations,
    /// By allocated bytes.
    AllocatedBytes,
    /// Derived: remote samples / samples, in `[0, 1]`.
    RemoteFraction,
    /// Derived: latency cycles / samples.
    MeanLatency,
    /// Derived: weighted events / allocations (per-instance event cost).
    EventsPerAllocation,
    /// Derived: weighted events / allocated bytes (with the default event: the
    /// per-byte L1-miss ratio; parses from the `l1_miss_ratio` alias too).
    EventsPerByte,
}

/// Canonical metric names, in declaration order (the error message lists them).
const RANK_BY_NAMES: &str = "weighted_events, samples, remote_samples, latency, allocations, \
                             allocated_bytes, remote_fraction, mean_latency, \
                             events_per_allocation, events_per_byte";

impl RankBy {
    /// Every variant, in declaration order (for exhaustive round-trip tests, like
    /// `PmuEvent::all`).
    pub fn all() -> [RankBy; 10] {
        [
            RankBy::WeightedEvents,
            RankBy::Samples,
            RankBy::RemoteSamples,
            RankBy::Latency,
            RankBy::Allocations,
            RankBy::AllocatedBytes,
            RankBy::RemoteFraction,
            RankBy::MeanLatency,
            RankBy::EventsPerAllocation,
            RankBy::EventsPerByte,
        ]
    }

    /// The canonical name this metric renders as and parses from.
    pub fn name(self) -> &'static str {
        match self {
            RankBy::WeightedEvents => "weighted_events",
            RankBy::Samples => "samples",
            RankBy::RemoteSamples => "remote_samples",
            RankBy::Latency => "latency",
            RankBy::Allocations => "allocations",
            RankBy::AllocatedBytes => "allocated_bytes",
            RankBy::RemoteFraction => "remote_fraction",
            RankBy::MeanLatency => "mean_latency",
            RankBy::EventsPerAllocation => "events_per_allocation",
            RankBy::EventsPerByte => "events_per_byte",
        }
    }

    /// The ranking key of a metric vector under this metric.
    pub(crate) fn key_value(self, m: &MetricVector) -> RankValue {
        fn ratio(numerator: u64, denominator: u64) -> RankValue {
            if denominator == 0 {
                RankValue::Ratio(0.0)
            } else {
                RankValue::Ratio(numerator as f64 / denominator as f64)
            }
        }
        match self {
            RankBy::WeightedEvents => RankValue::Count(m.weighted_events),
            RankBy::Samples => RankValue::Count(m.samples),
            RankBy::RemoteSamples => RankValue::Count(m.remote_samples),
            RankBy::Latency => RankValue::Count(m.latency_cycles),
            RankBy::Allocations => RankValue::Count(m.allocations),
            RankBy::AllocatedBytes => RankValue::Count(m.allocated_bytes),
            RankBy::RemoteFraction => RankValue::Ratio(m.remote_fraction()),
            RankBy::MeanLatency => RankValue::Ratio(m.mean_latency()),
            RankBy::EventsPerAllocation => ratio(m.weighted_events, m.allocations),
            RankBy::EventsPerByte => ratio(m.weighted_events, m.allocated_bytes),
        }
    }
}

impl fmt::Display for RankBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RankBy {
    type Err = UnknownRankByError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "weighted_events" => Ok(RankBy::WeightedEvents),
            "samples" => Ok(RankBy::Samples),
            "remote_samples" => Ok(RankBy::RemoteSamples),
            "latency" => Ok(RankBy::Latency),
            "allocations" => Ok(RankBy::Allocations),
            "allocated_bytes" => Ok(RankBy::AllocatedBytes),
            "remote_fraction" => Ok(RankBy::RemoteFraction),
            "mean_latency" => Ok(RankBy::MeanLatency),
            "events_per_allocation" => Ok(RankBy::EventsPerAllocation),
            // The paper's name for the per-byte derived ratio under the default event.
            "events_per_byte" | "l1_miss_ratio" => Ok(RankBy::EventsPerByte),
            other => Err(UnknownRankByError { name: other.to_string() }),
        }
    }
}

/// One comparable ranking key: raw counters compare as exact integers, derived ratios
/// by [`f64::total_cmp`]. A single query never mixes the two arms (every group is
/// keyed by the same [`RankBy`]); the mixed comparison exists only for completeness.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RankValue {
    Count(u64),
    Ratio(f64),
}

impl RankValue {
    fn cmp_key(&self, other: &RankValue) -> std::cmp::Ordering {
        match (self, other) {
            (RankValue::Count(a), RankValue::Count(b)) => a.cmp(b),
            (RankValue::Ratio(a), RankValue::Ratio(b)) => a.total_cmp(b),
            (RankValue::Count(a), RankValue::Ratio(b)) => (*a as f64).total_cmp(b),
            (RankValue::Ratio(a), RankValue::Count(b)) => a.total_cmp(&(*b as f64)),
        }
    }
}

// ---------------------------------------------------------------------------------------
// GroupBy and group keys
// ---------------------------------------------------------------------------------------

/// The grouping axis of a query: what one [`QueryGroup`] aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupBy {
    /// By object identity — allocation class plus full allocation call path (the
    /// paper's object-centric view).
    #[default]
    Object,
    /// By allocation-site source location — the leaf frame of the allocation call
    /// path. Coarser than [`GroupBy::Object`]: every class allocated at the same
    /// `new` site merges.
    Site,
    /// By sampled thread (attributed and unattributed samples both count toward the
    /// thread's group).
    Thread,
    /// By NUMA locality of the sampled access — the local/remote partition of the
    /// §4.3 signal, read off the per-object local and remote counts, so it is the
    /// one NUMA axis that honours class and site filters. Without filters,
    /// [`GroupBy::NodePair`] refines it: its diagonal cells sum to `local`, the
    /// others to `remote`. Groups under this axis carry the partitionable sample
    /// counters only and their fractions are sample-based, so they rank by
    /// [`RankBy::Samples`], [`RankBy::RemoteSamples`] or [`RankBy::RemoteFraction`];
    /// every other ranking reads zero for each group, ties them, and lists them in
    /// key order.
    NumaNode,
    /// By sampled access calling context — the code-centric (perf-like) baseline of
    /// Figure 1: each thread's CCT node metrics hold every sample at its context,
    /// attributed to an object or not. Class and site filters leave no group (an
    /// unattributed sample has no class); fractions are weighted-events based.
    Context,
    /// By `(cpu_node, page_node)` cell of the node-to-node traffic matrix (§4.3):
    /// each thread profile's `node_traffic`, attributed or not. A cell counts
    /// `samples` plus `local_samples` on the diagonal or `remote_samples` off it.
    /// Class and site filters leave no group; fractions are sample-based and the
    /// rankings a cell carries are [`RankBy::Samples`], [`RankBy::RemoteSamples`]
    /// and [`RankBy::RemoteFraction`], like [`GroupBy::NumaNode`] — the default
    /// [`RankBy::WeightedEvents`] ties every cell and lists them in key order.
    NodePair,
}

impl GroupBy {
    /// The canonical name this axis renders as and parses from.
    pub fn name(self) -> &'static str {
        match self {
            GroupBy::Object => "object",
            GroupBy::Site => "site",
            GroupBy::Thread => "thread",
            GroupBy::NumaNode => "numa_node",
            GroupBy::Context => "context",
            GroupBy::NodePair => "node_pair",
        }
    }
}

impl fmt::Display for GroupBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GroupBy {
    type Err = UnknownGroupByError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "object" => Ok(GroupBy::Object),
            "site" => Ok(GroupBy::Site),
            "thread" => Ok(GroupBy::Thread),
            "numa_node" => Ok(GroupBy::NumaNode),
            "context" => Ok(GroupBy::Context),
            "node_pair" => Ok(GroupBy::NodePair),
            other => Err(UnknownGroupByError { name: other.to_string() }),
        }
    }
}

/// NUMA locality class of a sampled access (the [`GroupBy::NumaNode`] group key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Locality {
    /// The sampled page resided on the issuing CPU's node.
    Local,
    /// The sampled page resided on a different node (the §4.3 remote-access signal).
    Remote,
}

impl fmt::Display for Locality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Locality::Local => "local",
            Locality::Remote => "remote",
        })
    }
}

/// The identity of one [`QueryGroup`]. Keys are source-independent — they never
/// mention source-local ids such as [`AllocSiteId`](crate::object::AllocSiteId) —
/// which is what lets the same query return identical groups over a live session, its
/// snapshot, a replayed log and a multi-log fold.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// Object identity: allocation class + full allocation call path.
    Object {
        /// Class name of the objects allocated at the site.
        class_name: String,
        /// Allocation calling context, root-first.
        alloc_path: Vec<Frame>,
    },
    /// Allocation-site source location (leaf allocation frame; `None` when the
    /// allocation carried no calling context).
    Site(Option<Frame>),
    /// A sampled thread.
    Thread(ThreadId),
    /// A NUMA locality class.
    NumaNode(Locality),
    /// A sampled access calling context, root-first.
    Context(Vec<Frame>),
    /// A cell of the node-to-node traffic matrix.
    NodePair {
        /// NUMA node of the sampling CPU.
        cpu_node: u32,
        /// NUMA node owning the sampled page.
        page_node: u32,
    },
}

impl GroupKey {
    /// A registry-free label for the key (class name, `method:bci`, `thread N`,
    /// `local`/`remote`, `node A -> node B`). [`QueryGroup::label`] carries the
    /// richer first-seen label (e.g. the thread's name).
    fn basic_label(&self) -> String {
        match self {
            GroupKey::Object { class_name, .. } => class_name.clone(),
            GroupKey::Site(Some(frame)) => format!("{}:{}", frame.method.0, frame.bci),
            GroupKey::Site(None) => "<no allocation context>".to_string(),
            GroupKey::Thread(thread) => format!("thread {}", thread.0),
            GroupKey::NumaNode(locality) => locality.to_string(),
            GroupKey::Context(path) => match path.last() {
                Some(leaf) => format!("{}:{}", leaf.method.0, leaf.bci),
                None => "<no calling context>".to_string(),
            },
            GroupKey::NodePair { cpu_node, page_node } => {
                format!("node {cpu_node} -> node {page_node}")
            }
        }
    }

    fn to_json(&self) -> String {
        match self {
            GroupKey::Object { class_name, alloc_path } => format!(
                "{{\"kind\":\"object\",\"class\":{},\"alloc_path\":{}}}",
                json_string(class_name),
                json_path(alloc_path)
            ),
            GroupKey::Site(Some(frame)) => {
                format!("{{\"kind\":\"site\",\"frame\":[{},{}]}}", frame.method.0, frame.bci)
            }
            GroupKey::Site(None) => "{\"kind\":\"site\",\"frame\":null}".to_string(),
            GroupKey::Thread(thread) => format!("{{\"kind\":\"thread\",\"id\":{}}}", thread.0),
            GroupKey::NumaNode(locality) => {
                format!("{{\"kind\":\"numa\",\"locality\":{}}}", json_string(&locality.to_string()))
            }
            GroupKey::Context(path) => {
                format!("{{\"kind\":\"context\",\"path\":{}}}", json_path(path))
            }
            GroupKey::NodePair { cpu_node, page_node } => format!(
                "{{\"kind\":\"node_pair\",\"cpu_node\":{cpu_node},\"page_node\":{page_node}}}"
            ),
        }
    }
}

// ---------------------------------------------------------------------------------------
// ProfileSource: where queries read from
// ---------------------------------------------------------------------------------------

/// A provider of object-centric profile data for [`Query`] evaluation.
///
/// A source yields one or more [`ObjectCentricProfile`]s; the evaluator folds them in
/// sequence exactly the way the offline analyzer merges one profile file per
/// process (§5.2) — group identities are source-independent
/// ([`GroupKey`]), so sources describing the same samples produce identical
/// [`QueryResult`]s regardless of how the data was captured. See the
/// [module docs](self) for the source-selection table.
pub trait ProfileSource {
    /// The object-centric profiles backing query evaluation, in fold order.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the source cannot produce profile data.
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError>;
}

impl ProfileSource for ObjectCentricProfile {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        Ok(vec![Cow::Borrowed(self)])
    }
}

impl ProfileSource for [ObjectCentricProfile] {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        Ok(self.iter().map(Cow::Borrowed).collect())
    }
}

/// The live source: every evaluation takes a fresh pause-free snapshot
/// ([`Session::object_profile`]), so a query can race ingestion and later
/// evaluations observe later samples.
impl ProfileSource for Session {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        match self.object_profile() {
            Some(profile) => Ok(vec![Cow::Owned(profile)]),
            None => Err(QueryError::SourceUnavailable(
                "session has no object-centric collector (register one with \
                 SessionBuilder::collect_objects)"
                    .to_string(),
            )),
        }
    }
}

/// A fold of several sources — the cross-machine merge path: each process streams (or
/// snapshots) its own profile, and one query over the fold answers for the union.
/// Sources contribute in registration order; group identities are
/// source-independent, so the result is identical to querying one source that
/// observed every sample (asserted by the `query_sources` multi-log fold tests).
#[derive(Default)]
pub struct MultiSource<'a> {
    sources: Vec<&'a dyn ProfileSource>,
}

impl<'a> MultiSource<'a> {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source to the fold (builder style).
    #[must_use]
    pub fn with(mut self, source: &'a dyn ProfileSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Adds a source to the fold.
    pub fn push(&mut self, source: &'a dyn ProfileSource) {
        self.sources.push(source);
    }

    /// Number of folded sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` when no source has been added.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl fmt::Debug for MultiSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiSource").field("sources", &self.sources.len()).finish()
    }
}

impl ProfileSource for MultiSource<'_> {
    fn object_profiles(&self) -> Result<Vec<Cow<'_, ObjectCentricProfile>>, QueryError> {
        let mut profiles = Vec::new();
        for source in &self.sources {
            profiles.extend(source.object_profiles()?);
        }
        Ok(profiles)
    }
}

// ---------------------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------------------

/// A composable, source-independent profile query: filters, a grouping axis, a
/// ranking metric and a truncation. Build with the fluent setters, evaluate against
/// any [`ProfileSource`] with [`Query::evaluate`]; the same value can be evaluated
/// against any number of sources. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Query {
    // pub(crate): the fleet wire codec (`crate::fleet`) serializes queries
    // field-by-field; external construction stays builder-only.
    pub(crate) group_by: GroupBy,
    pub(crate) rank_by: RankBy,
    pub(crate) top: Option<usize>,
    pub(crate) min_samples: u64,
    pub(crate) classes: Vec<String>,
    pub(crate) site_frames: Vec<Frame>,
    pub(crate) threads: Vec<ThreadId>,
}

impl Query {
    /// A query with the default configuration: group by object, rank by weighted
    /// events, no filters, no truncation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The grouping axis (default: [`GroupBy::Object`]).
    #[must_use]
    pub fn group_by(mut self, group_by: GroupBy) -> Self {
        self.group_by = group_by;
        self
    }

    /// The ranking metric (default: [`RankBy::WeightedEvents`]).
    #[must_use]
    pub fn rank_by(mut self, rank_by: RankBy) -> Self {
        self.rank_by = rank_by;
        self
    }

    /// Keeps only the `top` highest-ranked groups (default: all).
    #[must_use]
    pub fn top(mut self, top: usize) -> Self {
        self.top = Some(top);
        self
    }

    /// Drops groups with fewer than `min_samples` attributed samples — the
    /// statistical-noise floor for short runs (default: 0, keep all). Run-level
    /// totals still cover every sample, so the floor never distorts fractions.
    #[must_use]
    pub fn min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// Restricts attributed rows to objects of this class (exact match). Repeated
    /// calls OR together; filters of different kinds AND together.
    #[must_use]
    pub fn filter_class(mut self, class: impl Into<String>) -> Self {
        self.classes.push(class.into());
        self
    }

    /// Restricts attributed rows to sites whose allocation leaf frame equals
    /// `frame`. Repeated calls OR together.
    #[must_use]
    pub fn filter_site(mut self, frame: Frame) -> Self {
        self.site_frames.push(frame);
        self
    }

    /// Restricts rows to samples of this thread. Repeated calls OR together.
    #[must_use]
    pub fn filter_thread(mut self, thread: ThreadId) -> Self {
        self.threads.push(thread);
        self
    }

    /// Evaluates the query against a source.
    ///
    /// Run-level totals (`total_samples`, the weighted denominators) always cover the
    /// whole source so fractions stay comparable across differently-filtered queries;
    /// filters and the noise floor restrict which groups appear.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`QueryError`] (e.g. a session without an
    /// object-centric collector).
    pub fn evaluate<S: ProfileSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<QueryResult, QueryError> {
        let profiles = source.object_profiles()?;
        Ok(self.evaluate_profiles(profiles.iter().map(Cow::as_ref)))
    }

    /// The evaluation core: folds profiles in sequence, exactly the way the offline
    /// analyzer merges one profile file per process — thread blocks in profile order,
    /// group identities by source-independent key.
    fn evaluate_profiles<'p>(
        &self,
        profiles: impl Iterator<Item = &'p ObjectCentricProfile>,
    ) -> QueryResult {
        let mut state = GroupState::new(self);
        for p in profiles {
            state.absorb_threads(self, (p.event, p.period), &p.sites, &p.threads);
        }
        state.materialize(self)
    }
}

// ---------------------------------------------------------------------------------------
// GroupState: the group accumulator shared by every evaluation path
// ---------------------------------------------------------------------------------------

/// A [`GroupKey`] viewed without owning its data: what a row hashes and compares
/// before anything is stored, and what a stored key reads back as. Variants and
/// fields follow [`GroupKey`]'s order, so the derived `Ord` orders views exactly as
/// the keys they become.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyView<'a> {
    Object(&'a str, &'a [Frame]),
    Site(Option<Frame>),
    Thread(ThreadId),
    NumaNode(Locality),
    Context(&'a [Frame]),
    NodePair(u32, u32),
}

impl KeyView<'_> {
    fn to_key(self) -> GroupKey {
        match self {
            KeyView::Object(class_name, alloc_path) => GroupKey::Object {
                class_name: class_name.to_string(),
                alloc_path: alloc_path.to_vec(),
            },
            KeyView::Site(frame) => GroupKey::Site(frame),
            KeyView::Thread(thread) => GroupKey::Thread(thread),
            KeyView::NumaNode(locality) => GroupKey::NumaNode(locality),
            KeyView::Context(path) => GroupKey::Context(path.to_vec()),
            KeyView::NodePair(cpu_node, page_node) => GroupKey::NodePair { cpu_node, page_node },
        }
    }
}

/// A stored group key. An object key's class name and allocation path, and a
/// context key's path, are ranges of [`GroupState`]'s text and frame arenas, so
/// storing a key allocates nothing of its own.
#[derive(Debug)]
enum StoredKey {
    Object { class: Range<usize>, path: Range<usize> },
    Site(Option<Frame>),
    Thread(ThreadId),
    NumaNode(Locality),
    Context(Range<usize>),
    NodePair(u32, u32),
}

/// A query's row filters, built once per evaluation (and once per watch): class
/// names and allocation leaf frames as sets, and the thread filter as one decision
/// per distinct thread — every row of a thread block shares its thread, so the
/// query's id list is scanned once per thread seen, never per row.
#[derive(Debug)]
struct RowFilter {
    classes: HashSet<String>,
    site_frames: HashSet<Frame>,
    threads: HashMap<ThreadId, bool>,
}

impl RowFilter {
    fn new(query: &Query) -> Self {
        Self {
            classes: query.classes.iter().cloned().collect(),
            site_frames: query.site_frames.iter().copied().collect(),
            threads: HashMap::new(),
        }
    }

    fn thread_passes(&mut self, query: &Query, thread: ThreadId) -> bool {
        query.threads.is_empty()
            || *self.threads.entry(thread).or_insert_with(|| query.threads.contains(&thread))
    }

    fn site_passes(&self, site: &AllocSite) -> bool {
        (self.classes.is_empty() || self.classes.contains(&site.class_name))
            && (self.site_frames.is_empty()
                || site.call_path.last().is_some_and(|leaf| self.site_frames.contains(leaf)))
    }

    /// Class and site filters name object properties unattributed samples do not
    /// have, so unattributed samples reach groups only without them.
    fn unattributed_passes(&self) -> bool {
        self.classes.is_empty() && self.site_frames.is_empty()
    }
}

/// Ends a context list, and marks a CCT node whose path id is not resolved yet.
const NONE: usize = usize::MAX;

/// One group's accumulator — the pre-materialization form of a [`QueryGroup`].
#[derive(Debug)]
struct GroupAcc {
    key: StoredKey,
    /// A thread group's first-seen thread name: the one label its key cannot give.
    /// Every other group is labelled by [`GroupKey::basic_label`].
    name: Option<String>,
    metrics: MetricVector,
    /// The group's newest access context in [`GroupState`]'s context list, or
    /// [`NONE`].
    last_context: usize,
    /// The next older slot whose key has the same hash, almost always `None`.
    same_hash: Option<usize>,
}

/// One access context of one group: its interned path, its metrics, and the
/// group's previous context (or [`NONE`]).
#[derive(Debug)]
struct ContextAcc {
    path: usize,
    metrics: MetricVector,
    previous: usize,
}

/// The accumulator one query evaluation maintains: run-level totals plus the group
/// table. Cold [`Query::evaluate`] (and with it [`MultiSource`] folds), the fleet
/// aggregator's in-place queries and the incremental [`live`] absorb path all run
/// this code, so byte-identity between them holds by construction, not by parallel
/// reimplementation.
///
/// The state is absorb-only and append-only: group slots are stable once created, so
/// a long-lived consumer (a [`live::LiveQuery`]) can memoize site→slot resolutions
/// across ticks. Every consumer ranks at render time through the one
/// [`GroupState::ranked`]; no output depends on the order slots were created in.
///
/// Absorbing allocates nothing per row, and per group only a thread group's name:
/// - each group key is hashed once per site table and stored once, an object
///   key's class name and path and a context key's path in shared arenas; only a
///   thread group stores a label, the name its key cannot give;
/// - each access context resolves once per thread block, from its CCT node to an
///   interned path id, and groups accumulate contexts by that id in one shared
///   list; a context group is found by the same id. Keys and paths become owned
///   values again only for the groups a result shows.
///
/// Keys, frames and thread ids come from producer or client data and hash with the
/// std keyed hasher. The values the state derives itself — slots, path ids and
/// keyed hashes — key [`FxHashMap`]s.
#[derive(Debug)]
pub(crate) struct GroupState {
    event: PmuEvent,
    period: u64,
    total_samples: u64,
    total_weighted: u64,
    attributed_weighted: u64,
    filter: RowFilter,
    key_text: String,
    key_frames: Vec<Frame>,
    groups: Vec<GroupAcc>,
    hasher: RandomState,
    /// The keyed hash of a group key → the newest slot with that hash.
    index: FxHashMap<u64, usize>,
    contexts: Vec<ContextAcc>,
    /// `(slot, path id)` → the position of that group's context in `contexts`.
    context_at: FxHashMap<(usize, usize), usize>,
    /// Interned access paths: path id `n > 0` is `paths[n - 1]`, the id of its
    /// parent path and its leaf frame; id 0 is the empty path.
    paths: Vec<(usize, Frame)>,
    path_ids: HashMap<(usize, Frame), usize>,
    /// The path id of each CCT node of the thread block being absorbed, or
    /// [`NONE`]; indexed by [`CctNodeId`].
    node_paths: Vec<usize>,
    /// Scratch stack of [`GroupState::path_id`].
    climb: Vec<CctNodeId>,
    /// The Context-axis slot of each path id, or [`NONE`]; indexed by path id.
    context_slots: Vec<usize>,
    /// Scratch frames of [`GroupState::context_slot`].
    frames: Vec<Frame>,
}

impl GroupState {
    /// An empty state for `query`, with its filters built.
    pub(crate) fn new(query: &Query) -> Self {
        Self {
            event: PmuEvent::L1Miss,
            period: 1,
            total_samples: 0,
            total_weighted: 0,
            attributed_weighted: 0,
            filter: RowFilter::new(query),
            key_text: String::new(),
            key_frames: Vec::new(),
            groups: Vec::new(),
            hasher: RandomState::new(),
            index: FxHashMap::default(),
            contexts: Vec::new(),
            context_at: FxHashMap::default(),
            paths: Vec::new(),
            path_ids: HashMap::new(),
            node_paths: Vec::new(),
            climb: Vec::new(),
            context_slots: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Adopts a source's event/period header (cold evaluation: last profile wins).
    pub(crate) fn set_meta(&mut self, (event, period): (PmuEvent, u64)) {
        self.event = event;
        self.period = period;
    }

    /// Number of group slots created so far.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// The key of a slot.
    fn key(&self, slot: usize) -> KeyView<'_> {
        match &self.groups[slot].key {
            StoredKey::Object { class, path } => {
                KeyView::Object(&self.key_text[class.clone()], &self.key_frames[path.clone()])
            }
            StoredKey::Site(frame) => KeyView::Site(*frame),
            StoredKey::Thread(thread) => KeyView::Thread(*thread),
            StoredKey::NumaNode(locality) => KeyView::NumaNode(*locality),
            StoredKey::Context(path) => KeyView::Context(&self.key_frames[path.clone()]),
            StoredKey::NodePair(cpu_node, page_node) => KeyView::NodePair(*cpu_node, *page_node),
        }
    }

    /// Resolves (or creates) the slot of a group, hashing its key once. `name` is
    /// the thread's name under the Thread axis (kept as the label unless empty) and
    /// `""` otherwise.
    fn slot(&mut self, key: KeyView<'_>, name: &str) -> usize {
        let hash = self.hasher.hash_one(key);
        let mut candidate = self.index.get(&hash).copied();
        while let Some(slot) = candidate {
            if self.key(slot) == key {
                return slot;
            }
            candidate = self.groups[slot].same_hash;
        }
        let key = match key {
            KeyView::Object(class_name, alloc_path) => {
                let class = self.key_text.len()..self.key_text.len() + class_name.len();
                let path = self.key_frames.len()..self.key_frames.len() + alloc_path.len();
                self.key_text.push_str(class_name);
                self.key_frames.extend_from_slice(alloc_path);
                StoredKey::Object { class, path }
            }
            KeyView::Site(frame) => StoredKey::Site(frame),
            KeyView::Thread(thread) => StoredKey::Thread(thread),
            KeyView::NumaNode(locality) => StoredKey::NumaNode(locality),
            KeyView::Context(path) => {
                let start = self.key_frames.len();
                self.key_frames.extend_from_slice(path);
                StoredKey::Context(start..self.key_frames.len())
            }
            KeyView::NodePair(cpu_node, page_node) => StoredKey::NodePair(cpu_node, page_node),
        };
        let slot = self.groups.len();
        self.groups.push(GroupAcc {
            key,
            name: (!name.is_empty()).then(|| name.to_string()),
            metrics: MetricVector::default(),
            last_context: NONE,
            same_hash: self.index.insert(hash, slot),
        });
        slot
    }

    /// Folds a vector's local and remote samples into the two NumaNode groups;
    /// `slots` memoizes their slots across a thread block.
    fn fold_localities(&mut self, slots: &mut [Option<usize>; 2], m: &MetricVector) {
        for (locality, count) in
            [(Locality::Local, m.local_samples), (Locality::Remote, m.remote_samples)]
        {
            if count == 0 {
                continue;
            }
            let slot = *slots[locality as usize]
                .get_or_insert_with(|| self.slot(KeyView::NumaNode(locality), ""));
            let metrics = &mut self.groups[slot].metrics;
            metrics.samples += count;
            match locality {
                Locality::Local => metrics.local_samples += count,
                Locality::Remote => metrics.remote_samples += count,
            }
        }
    }

    /// The interned path id of a CCT node of the thread block being absorbed: climbs
    /// to the nearest node resolved before (or the root), then interns one
    /// `(parent path, frame)` pair per node on the way back down.
    fn path_id(&mut self, cct: &Cct, node: CctNodeId) -> usize {
        let mut at = node;
        let mut id = loop {
            let known = self.node_paths[at.0 as usize];
            if known != NONE {
                break known;
            }
            match cct.parent(at) {
                Some(parent) => {
                    self.climb.push(at);
                    at = parent;
                }
                None => break 0,
            }
        };
        while let Some(node) = self.climb.pop() {
            if let Some(frame) = cct.frame(node) {
                let paths = &mut self.paths;
                id = *self.path_ids.entry((id, frame)).or_insert_with(|| {
                    paths.push((id, frame));
                    paths.len()
                });
            }
            self.node_paths[node.0 as usize] = id;
        }
        id
    }

    /// Appends the root-first frames of an interned path to `frames`.
    fn extend_path(&self, frames: &mut Vec<Frame>, mut id: usize) {
        let start = frames.len();
        while id != 0 {
            let (parent, frame) = self.paths[id - 1];
            frames.push(frame);
            id = parent;
        }
        frames[start..].reverse();
    }

    /// The root-first frames of an interned path.
    fn path(&self, id: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.extend_path(&mut frames, id);
        frames
    }

    /// The slot of the Context group of an interned path, memoized by path id: a
    /// path's frames are gathered and its key hashed only the first time it is seen.
    fn context_slot(&mut self, path: usize) -> usize {
        if self.context_slots.len() <= path {
            self.context_slots.resize(self.paths.len() + 1, NONE);
        }
        if self.context_slots[path] == NONE {
            let mut frames = std::mem::take(&mut self.frames);
            frames.clear();
            self.extend_path(&mut frames, path);
            self.context_slots[path] = self.slot(KeyView::Context(&frames), "");
            self.frames = frames;
        }
        self.context_slots[path]
    }

    /// Merges one access context's metrics into a group.
    fn add_context(&mut self, slot: usize, path: usize, metrics: &MetricVector) {
        match self.context_at.entry((slot, path)) {
            Entry::Occupied(at) => self.contexts[*at.get()].metrics.merge(metrics),
            Entry::Vacant(at) => {
                let group = &mut self.groups[slot];
                at.insert(self.contexts.len());
                self.contexts.push(ContextAcc {
                    path,
                    metrics: *metrics,
                    previous: group.last_context,
                });
                group.last_context = self.contexts.len() - 1;
            }
        }
    }

    /// Folds one thread block: the run totals (unconditional), the thread's
    /// unattributed share under the Thread/NumaNode axes, its CCT node metrics under
    /// the Context axis or its traffic matrix under the NodePair axis, then its site
    /// rows.
    /// `sites` is the table the rows' ids index (a row naming no entry is skipped);
    /// `site_slots` memoizes each site's group slot under the Object/Site axes —
    /// across the rows of a profile, and for a live watch across fragments, since
    /// slots are stable.
    ///
    /// `name` is the thread's *authoritative* first-seen name. Cold evaluation passes
    /// the profile's own (the fold already kept the first-seen identity); the live
    /// absorb path resolves it against the stream's fold, because later fragments of
    /// a thread carry the `<attached>` placeholder.
    pub(crate) fn absorb_thread(
        &mut self,
        query: &Query,
        thread: &ThreadProfile,
        name: &str,
        sites: &[AllocSite],
        site_slots: &mut Vec<Option<usize>>,
    ) {
        self.total_samples += thread.samples;
        self.total_weighted += thread.unattributed.weighted_events;
        let thread_passes = self.filter.thread_passes(query, thread.thread);
        // The block's own group slots: its thread's, or the two locality groups.
        let mut thread_slot = None;
        let mut locality_slots = [None; 2];
        self.node_paths.clear();
        self.node_paths.resize(thread.cct.len(), NONE);
        if thread_passes && self.filter.unattributed_passes() {
            match query.group_by {
                GroupBy::Thread => {
                    let slot = self.slot(KeyView::Thread(thread.thread), name);
                    self.groups[slot].metrics.merge(&thread.unattributed);
                    thread_slot = Some(slot);
                }
                GroupBy::NumaNode => {
                    self.fold_localities(&mut locality_slots, &thread.unattributed);
                }
                GroupBy::Context => {
                    for node in thread.cct.node_ids() {
                        let metrics = thread.cct.metrics(node);
                        if metrics.is_empty() {
                            continue;
                        }
                        let path = self.path_id(&thread.cct, node);
                        let slot = self.context_slot(path);
                        self.groups[slot].metrics.merge(metrics);
                    }
                }
                GroupBy::NodePair => {
                    for (&(cpu_node, page_node), &count) in &thread.node_traffic {
                        if count == 0 {
                            continue;
                        }
                        let slot = self.slot(KeyView::NodePair(cpu_node, page_node), "");
                        let metrics = &mut self.groups[slot].metrics;
                        metrics.samples += count;
                        if cpu_node == page_node {
                            metrics.local_samples += count;
                        } else {
                            metrics.remote_samples += count;
                        }
                    }
                }
                GroupBy::Object | GroupBy::Site => {}
            }
        }
        if site_slots.len() < sites.len() {
            site_slots.resize(sites.len(), None);
        }
        for (site_id, sm) in &thread.sites {
            let Some(site) = sites.get(site_id.0 as usize) else { continue };
            self.total_weighted += sm.total.weighted_events;
            self.attributed_weighted += sm.total.weighted_events;
            if !thread_passes || !self.filter.site_passes(site) {
                continue;
            }
            let slot = match query.group_by {
                GroupBy::Object | GroupBy::Site => match site_slots[site_id.0 as usize] {
                    Some(slot) => slot,
                    None => {
                        let key = match query.group_by {
                            GroupBy::Object => KeyView::Object(&site.class_name, &site.call_path),
                            _ => KeyView::Site(site.call_path.last().copied()),
                        };
                        let slot = self.slot(key, "");
                        site_slots[site_id.0 as usize] = Some(slot);
                        slot
                    }
                },
                GroupBy::Thread => *thread_slot
                    .get_or_insert_with(|| self.slot(KeyView::Thread(thread.thread), name)),
                GroupBy::NumaNode => {
                    self.fold_localities(&mut locality_slots, &sm.total);
                    continue;
                }
                // Both read the whole thread record above.
                GroupBy::Context | GroupBy::NodePair => continue,
            };
            self.groups[slot].metrics.merge(&sm.total);
            for (ctx, m) in &sm.by_context {
                let path = self.path_id(&thread.cct, *ctx);
                self.add_context(slot, path, m);
            }
        }
    }

    /// Folds one profile's thread blocks against its site table, under its
    /// event/period header (the last source absorbed wins): the cold evaluation
    /// step, and through [`GroupState::absorb_fold`] the seed of a freshly
    /// registered live watch and the fleet aggregator's walk over its producers'
    /// folds.
    pub(crate) fn absorb_threads<'t>(
        &mut self,
        query: &Query,
        header: (PmuEvent, u64),
        sites: &[AllocSite],
        threads: impl IntoIterator<Item = &'t ThreadProfile>,
    ) {
        self.set_meta(header);
        // Site id -> group slot. Under the Object/Site axes a group is a function
        // of the site, so each distinct site of this table hashes its key view once,
        // however many threads have rows at it. Ids index this table only.
        let mut site_slots = Vec::new();
        for thread in threads {
            self.absorb_thread(query, thread, &thread.thread_name, sites, &mut site_slots);
        }
    }

    /// [`GroupState::absorb_threads`] over a fold in place: what absorbing its
    /// assembled profile would do, without cloning or assembling it.
    pub(crate) fn absorb_fold(&mut self, query: &Query, fold: &DeltaFold) {
        self.absorb_threads(query, fold.header(), fold.sites(), fold.threads());
    }

    /// The slots of the groups a query shows, best first: groups under the
    /// `min_samples` noise floor drop out, the rest order by rank descending,
    /// weighted events descending, then group key ascending, and only the first
    /// `top` survive. Group keys are unique, so the order is total. The one
    /// ranking every consumer renders through.
    fn ranked(&self, query: &Query) -> Vec<usize> {
        let by_rank = |a: &usize, b: &usize| {
            let (ma, mb) = (&self.groups[*a].metrics, &self.groups[*b].metrics);
            query
                .rank_by
                .key_value(mb)
                .cmp_key(&query.rank_by.key_value(ma))
                .then_with(|| mb.weighted_events.cmp(&ma.weighted_events))
                .then_with(|| self.key(*a).cmp(&self.key(*b)))
        };
        let mut slots: Vec<usize> = (0..self.groups.len())
            .filter(|&slot| self.groups[slot].metrics.samples >= query.min_samples)
            .collect();
        if let Some(top) = query.top.filter(|&top| top < slots.len()) {
            slots.select_nth_unstable_by(top, by_rank);
            slots.truncate(top);
        }
        slots.sort_unstable_by(by_rank);
        slots
    }

    /// The query's result: the ranked groups with the run totals. Keys, labels and
    /// context paths are built only for the groups shown, and the state keeps
    /// absorbing.
    pub(crate) fn materialize(&self, query: &Query) -> QueryResult {
        // Fractions are weighted-events based; the NumaNode and NodePair axes only
        // carry sample counts, so their fractions are sample-based instead.
        let (fraction_total, fraction_of): (u64, fn(&MetricVector) -> u64) = match query.group_by {
            GroupBy::NumaNode | GroupBy::NodePair => (self.total_samples, |m| m.samples),
            _ => (self.total_weighted, |m| m.weighted_events),
        };
        let groups = self
            .ranked(query)
            .into_iter()
            .map(|slot| {
                let (key, acc) = (self.key(slot).to_key(), &self.groups[slot]);
                let group_weighted = acc.metrics.weighted_events;
                let mut contexts = Vec::new();
                let mut at = acc.last_context;
                while at != NONE {
                    let ctx = &self.contexts[at];
                    contexts.push(AccessContext {
                        path: self.path(ctx.path),
                        fraction_of_object: if group_weighted == 0 {
                            0.0
                        } else {
                            ctx.metrics.weighted_events as f64 / group_weighted as f64
                        },
                        metrics: ctx.metrics,
                    });
                    at = ctx.previous;
                }
                contexts.sort_by(|a, b| {
                    b.metrics
                        .weighted_events
                        .cmp(&a.metrics.weighted_events)
                        .then_with(|| a.path.cmp(&b.path))
                });
                QueryGroup {
                    label: acc.name.clone().unwrap_or_else(|| key.basic_label()),
                    key,
                    fraction_of_total: if fraction_total == 0 {
                        0.0
                    } else {
                        fraction_of(&acc.metrics) as f64 / fraction_total as f64
                    },
                    remote_fraction: acc.metrics.remote_fraction(),
                    metrics: acc.metrics,
                    contexts,
                }
            })
            .collect();

        QueryResult {
            event: self.event,
            period: self.period,
            group_by: query.group_by,
            rank_by: query.rank_by,
            total_samples: self.total_samples,
            total_weighted_events: self.total_weighted,
            attributed_weighted_events: self.attributed_weighted,
            groups,
        }
    }
}

// ---------------------------------------------------------------------------------------
// QueryResult
// ---------------------------------------------------------------------------------------

/// One access calling context of a group, with its share of the group's metric.
#[derive(Debug, Clone)]
pub struct AccessContext {
    /// The access calling context, root-first.
    pub path: Vec<Frame>,
    /// Metrics attributed to the group at this context.
    pub metrics: MetricVector,
    /// This context's fraction of the group's weighted events, in `[0, 1]`.
    pub fraction_of_object: f64,
}

/// One ranked group of a [`QueryResult`].
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// The group's source-independent identity.
    pub key: GroupKey,
    /// A human label for the key: the class name, the thread's first-seen name, the
    /// `method:bci` site or context leaf frame, the locality class, or the node pair.
    pub label: String,
    /// Aggregated metrics of the group.
    pub metrics: MetricVector,
    /// The group's share of the run: weighted-events based, except under
    /// [`GroupBy::NumaNode`] and [`GroupBy::NodePair`] where it is sample based.
    pub fraction_of_total: f64,
    /// Fraction of the group's samples that were remote NUMA accesses.
    pub remote_fraction: f64,
    /// Access calling contexts ordered by contribution, hottest first (empty under
    /// [`GroupBy::NumaNode`], [`GroupBy::Context`] and [`GroupBy::NodePair`], and for
    /// sources without per-context breakdowns).
    pub contexts: Vec<AccessContext>,
}

/// The result of evaluating a [`Query`]: run-level totals plus the ranked groups.
/// Ordering is stable and deterministic — ranking metric descending, ties broken by
/// weighted events descending then [`GroupKey`] ascending — so results over equal
/// data render byte-identically through [`QueryResult::to_text`] and
/// [`QueryResult::to_json`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Sampled event.
    pub event: PmuEvent,
    /// Sampling period.
    pub period: u64,
    /// The grouping axis the query used.
    pub group_by: GroupBy,
    /// The ranking metric the query used.
    pub rank_by: RankBy,
    /// Total PMU samples over the whole source (attributed + unattributed,
    /// unfiltered).
    pub total_samples: u64,
    /// Total weighted events over the whole source (unfiltered).
    pub total_weighted_events: u64,
    /// Weighted events attributed to monitored objects (unfiltered).
    pub attributed_weighted_events: u64,
    /// The ranked groups.
    pub groups: Vec<QueryGroup>,
}

impl QueryResult {
    /// The highest-ranked group, if any survived the filters.
    pub fn hottest(&self) -> Option<&QueryGroup> {
        self.groups.first()
    }

    /// Fraction of all weighted events attributed to monitored objects.
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_weighted_events == 0 {
            0.0
        } else {
            self.attributed_weighted_events as f64 / self.total_weighted_events as f64
        }
    }

    /// The cumulative fraction of the run covered by the `n` highest-ranked groups —
    /// "four problematic objects account for 84% of cache misses" (§7.1).
    /// Weighted-events based, except under [`GroupBy::NumaNode`] and
    /// [`GroupBy::NodePair`] where it is sample based (their groups only carry the
    /// partitionable sample counters) — the same axis rule as
    /// [`QueryGroup::fraction_of_total`].
    pub fn top_n_fraction(&self, n: usize) -> f64 {
        let (total, of): (u64, fn(&MetricVector) -> u64) = match self.group_by {
            GroupBy::NumaNode | GroupBy::NodePair => (self.total_samples, |m| m.samples),
            _ => (self.total_weighted_events, |m| m.weighted_events),
        };
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self.groups.iter().take(n).map(|g| of(&g.metrics)).sum();
        covered as f64 / total as f64
    }

    /// The first group whose key is an [`GroupKey::Object`] of this class (ranking
    /// order) — the case studies' "find the `data` array" accessor.
    pub fn find_class(&self, class_name: &str) -> Option<&QueryGroup> {
        self.groups
            .iter()
            .find(|g| matches!(&g.key, GroupKey::Object { class_name: c, .. } if c == class_name))
    }

    /// The group with this exact key.
    pub fn find(&self, key: &GroupKey) -> Option<&QueryGroup> {
        self.groups.iter().find(|g| g.key == *key)
    }

    /// The canonical registry-free text rendering (equals `format!("{self}")`).
    /// Byte-identical across sources describing the same samples. For symbolized
    /// frames use [`Report::query`](crate::report::Report::query).
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// The canonical JSON rendering, for dashboards and the fleet's result frames.
    /// Byte-identical across sources describing the same samples.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"format\":\"djxperf-query\",\"version\":1,\"event\":{},\"period\":{},\
             \"group_by\":{},\"rank_by\":{},\"total_samples\":{},\"total_weighted_events\":{},\
             \"attributed_weighted_events\":{},\"groups\":[",
            json_string(self.event.hardware_name()),
            self.period,
            json_string(self.group_by.name()),
            json_string(self.rank_by.name()),
            self.total_samples,
            self.total_weighted_events,
            self.attributed_weighted_events,
        );
        for (i, group) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":{},\"label\":{},\"metrics\":{},\"fraction_of_total\":{},\
                 \"remote_fraction\":{},\"contexts\":[",
                group.key.to_json(),
                json_string(&group.label),
                json_metrics(&group.metrics),
                group.fraction_of_total,
                group.remote_fraction,
            );
            for (j, ctx) in group.contexts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"path\":{},\"metrics\":{},\"fraction_of_group\":{}}}",
                    json_path(&ctx.path),
                    json_metrics(&ctx.metrics),
                    ctx.fraction_of_object,
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== djxperf query (group by {}, rank by {}) ==", self.group_by, self.rank_by)?;
        writeln!(
            f,
            "event {}  period {}  samples {}  attributed {:.1}%",
            self.event.hardware_name(),
            self.period,
            self.total_samples,
            self.attributed_fraction() * 100.0
        )?;
        if self.groups.is_empty() {
            writeln!(f, "(no group matched the query)")?;
            return Ok(());
        }
        for (rank, group) in self.groups.iter().enumerate() {
            writeln!(
                f,
                "#{} {}  —  {:.1}% of total ({} samples, {} weighted, {} allocations, {} bytes, remote {:.1}%)",
                rank + 1,
                group.label,
                group.fraction_of_total * 100.0,
                group.metrics.samples,
                group.metrics.weighted_events,
                group.metrics.allocations,
                group.metrics.allocated_bytes,
                group.remote_fraction * 100.0,
            )?;
            match &group.key {
                GroupKey::Object { alloc_path, .. } => {
                    writeln!(f, "    allocated at {}", encode_path(alloc_path))?;
                }
                GroupKey::Context(path) => writeln!(f, "    context {}", encode_path(path))?,
                _ => {}
            }
            for ctx in &group.contexts {
                writeln!(
                    f,
                    "    access {}  {:.1}% of group ({} samples)",
                    encode_path(&ctx.path),
                    ctx.fraction_of_object * 100.0,
                    ctx.metrics.samples,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djx_memsim::{AccessKind, NumaNode};
    use djx_runtime::MethodId;

    use crate::object::AllocSiteId;
    use crate::profile::{AllocationStats, ThreadProfile};
    use crate::wire::BinaryChunkedSink;

    fn f(m: u32, bci: u32) -> Frame {
        Frame::new(MethodId(m), bci)
    }

    fn sample(remote: bool) -> djx_pmu::Sample {
        djx_pmu::Sample {
            event: PmuEvent::L1Miss,
            thread_id: 0,
            cpu: 0,
            cpu_node: NumaNode(0),
            page_node: NumaNode(u32::from(remote)),
            effective_addr: 0,
            kind: AccessKind::Load,
            value: 1,
            latency: 100,
            counter_value: 0,
        }
    }

    /// Two sites (one hot, two contexts, two threads; one cold), one unattributed
    /// sample.
    fn two_site_profile() -> ObjectCentricProfile {
        let hot = AllocSite {
            id: AllocSiteId(0),
            class_name: "float[]".into(),
            call_path: vec![f(1, 5)],
        };
        let cold = AllocSite {
            id: AllocSiteId(1),
            class_name: "TopDocCollector".into(),
            call_path: vec![f(2, 3)],
        };

        let mut t1 = ThreadProfile::new(ThreadId(1), "main");
        for _ in 0..6 {
            t1.record_sample(Some(AllocSiteId(0)), &[f(1, 5), f(9, 1)], &sample(false), 100);
        }
        for _ in 0..2 {
            t1.record_sample(Some(AllocSiteId(0)), &[f(1, 5), f(8, 7)], &sample(true), 100);
        }
        t1.record_sample(Some(AllocSiteId(1)), &[f(2, 3)], &sample(false), 100);
        t1.record_sample(None, &[], &sample(false), 100);
        t1.record_allocation(AllocSiteId(0), 2048);

        let mut t2 = ThreadProfile::new(ThreadId(2), "worker");
        for _ in 0..4 {
            t2.record_sample(Some(AllocSiteId(0)), &[f(1, 5), f(9, 1)], &sample(true), 100);
        }

        ObjectCentricProfile {
            event: PmuEvent::L1Miss,
            period: 100,
            size_filter: 1024,
            sites: vec![hot, cold],
            threads: vec![t1, t2],
            allocation_stats: AllocationStats::default(),
        }
    }

    #[test]
    fn ranking_orders_objects_by_weighted_events() {
        let result = Query::new().evaluate(&two_site_profile()).unwrap();
        assert_eq!(result.groups.len(), 2);
        assert_eq!(result.groups[0].label, "float[]");
        assert_eq!(result.groups[1].label, "TopDocCollector");
        assert!(
            result.groups[0].metrics.weighted_events > result.groups[1].metrics.weighted_events
        );
        assert_eq!(result.hottest().unwrap().label, "float[]");
        assert_eq!(result.find_class("TopDocCollector").unwrap().metrics.samples, 1);
        assert!(result.find_class("nothing").is_none());
    }

    #[test]
    fn cross_thread_merge_coalesces_contexts() {
        let result = Query::new().evaluate(&two_site_profile()).unwrap();
        let hot = &result.groups[0];
        // 6 + 4 samples from the shared context [f(1,5), f(9,1)] across two threads,
        // plus 2 from [f(1,5), f(8,7)].
        assert_eq!(hot.metrics.samples, 12);
        assert_eq!(hot.metrics.allocations, 1);
        assert_eq!(hot.contexts.len(), 2);
        assert_eq!(hot.contexts[0].path, vec![f(1, 5), f(9, 1)]);
        assert_eq!(hot.contexts[0].metrics.samples, 10);
        assert!(hot.contexts[0].fraction_of_object > hot.contexts[1].fraction_of_object);
        let frac_sum: f64 = hot.contexts.iter().map(|c| c.fraction_of_object).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_account_for_unattributed_samples() {
        let result = Query::new().evaluate(&two_site_profile()).unwrap();
        // 14 samples total: 12 hot + 1 cold + 1 unattributed; each weighs 100.
        assert_eq!(result.total_samples, 14);
        assert_eq!(result.total_weighted_events, 1400);
        assert_eq!(result.attributed_weighted_events, 1300);
        assert!((result.attributed_fraction() - 13.0 / 14.0).abs() < 1e-9);
        assert!((result.groups[0].fraction_of_total - 12.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(1) - 12.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(2) - 13.0 / 14.0).abs() < 1e-9);
        assert!(result.top_n_fraction(0) < 1e-12);
    }

    /// The groups with remote samples, ranked by remote samples (the §4.3 view).
    fn remote_groups(profile: &ObjectCentricProfile) -> Vec<QueryGroup> {
        let result = Query::new().rank_by(RankBy::RemoteSamples).evaluate(profile).unwrap();
        result.groups.into_iter().filter(|g| g.metrics.remote_samples > 0).collect()
    }

    #[test]
    fn remote_ranking_filters_and_orders() {
        let remote = remote_groups(&two_site_profile());
        assert_eq!(remote.len(), 1, "only the hot site has remote samples");
        assert_eq!(remote[0].label, "float[]");
        assert_eq!(remote[0].metrics.remote_samples, 6);
        assert!((remote[0].remote_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn analyze_many_merges_sites_across_profiles_by_identity() {
        let p1 = two_site_profile();
        // A second profile (e.g. another service instance) whose site table assigns
        // different ids to the same (class, path) identities.
        let hot = AllocSite {
            id: AllocSiteId(0),
            class_name: "TopDocCollector".into(),
            call_path: vec![f(2, 3)],
        };
        let mut t = ThreadProfile::new(ThreadId(9), "svc-2");
        for _ in 0..5 {
            t.record_sample(Some(AllocSiteId(0)), &[f(2, 3), f(7, 7)], &sample(false), 100);
        }
        let p2 = ObjectCentricProfile { sites: vec![hot], threads: vec![t], ..p1.clone() };
        let result = Query::new().evaluate(&[p1, p2][..]).unwrap();
        assert_eq!(result.groups.len(), 2, "TopDocCollector merges across profiles");
        assert_eq!(result.find_class("TopDocCollector").unwrap().metrics.samples, 6);
        assert_eq!(result.total_samples, 19);
    }

    #[test]
    fn analyze_texts_round_trips_through_the_codec() {
        let profile = two_site_profile();
        let sink = BinaryChunkedSink::new();
        let mut doc = Vec::new();
        sink.write_profile(&profile, &mut doc).unwrap();
        let parsed = [sink.read_log_bytes(&doc).unwrap()];
        let replayed = Query::new().evaluate(&parsed[..]).unwrap();
        let direct = Query::new().evaluate(&profile).unwrap();
        assert_eq!(replayed.total_samples, direct.total_samples);
        assert_eq!(replayed.groups.len(), direct.groups.len());
        assert_eq!(
            replayed.groups[0].metrics.weighted_events,
            direct.groups[0].metrics.weighted_events
        );
        assert!(sink.read_log_bytes(b"garbage").is_err());
    }

    #[test]
    fn builder_configures_ranking_truncation_and_noise_floor() {
        let profile = two_site_profile();
        let default_result = Query::new().evaluate(&profile).unwrap();

        // An explicit object grouping is the default.
        let built = Query::new().group_by(GroupBy::Object).evaluate(&profile).unwrap();
        assert_eq!(built.groups.len(), default_result.groups.len());
        assert_eq!(built.groups[0].label, default_result.groups[0].label);

        // Remote ranking puts the only site with remote samples first and agrees with
        // the filtered remote view.
        let remote = Query::new().rank_by(RankBy::RemoteSamples).evaluate(&profile).unwrap();
        assert_eq!(remote.groups[0].label, "float[]");
        assert_eq!(
            remote.groups[0].metrics.remote_samples,
            remote_groups(&profile)[0].metrics.remote_samples
        );

        // Truncation keeps run-level totals intact.
        let top1 = Query::new().top(1).evaluate(&profile).unwrap();
        assert_eq!(top1.groups.len(), 1);
        assert_eq!(top1.total_samples, default_result.total_samples);
        assert_eq!(top1.total_weighted_events, default_result.total_weighted_events);

        // The noise floor drops the single-sample TopDocCollector site.
        let filtered = Query::new().min_samples(2).evaluate(&profile).unwrap();
        assert_eq!(filtered.groups.len(), 1);
        assert_eq!(filtered.groups[0].label, "float[]");

        // Alternative ranking keys order without panicking.
        for rank in [RankBy::Latency, RankBy::Allocations, RankBy::AllocatedBytes] {
            assert_eq!(Query::new().rank_by(rank).evaluate(&profile).unwrap().groups.len(), 2);
        }

        // The truncation boundary: under every ranking, `top(k)` is exactly the first
        // k groups of the untruncated result, for k = 0 and k past the end too. The
        // wider profile has rank and weighted-event ties broken only by the key.
        let mut wide = two_site_profile();
        for i in 2..9u32 {
            let path = [f(10 + i, 0)];
            wide.sites.push(AllocSite {
                id: AllocSiteId(i),
                class_name: format!("C{}", i % 3),
                call_path: path.to_vec(),
            });
            for j in 0..i % 4 {
                wide.threads[1].record_sample(
                    Some(AllocSiteId(i)),
                    &path,
                    &sample(j % 2 == 0),
                    100,
                );
            }
            if i % 2 == 0 {
                wide.threads[0].record_allocation(AllocSiteId(i), 64 * u64::from(i));
            }
        }
        for rank in RankBy::all() {
            let full = Query::new().rank_by(rank).evaluate(&wide).unwrap();
            let n = full.groups.len();
            assert_eq!(n, 9, "every site is a group under {rank}");
            for k in [0, 1, n - 1, n, n + 1] {
                let top = Query::new().rank_by(rank).top(k).evaluate(&wide).unwrap();
                let keys =
                    |r: &QueryResult| r.groups.iter().map(|g| g.key.clone()).collect::<Vec<_>>();
                assert_eq!(keys(&top), keys(&full)[..k.min(n)], "top({k}) under {rank}");
            }
        }
    }

    #[test]
    fn empty_profile_produces_empty_report() {
        let profile = ObjectCentricProfile { sites: vec![], threads: vec![], ..two_site_profile() };
        let result = Query::new().evaluate(&profile).unwrap();
        assert!(result.groups.is_empty());
        assert_eq!(result.total_samples, 0);
        assert_eq!(result.attributed_fraction(), 0.0);
        assert!(result.hottest().is_none());
        assert_eq!(result.top_n_fraction(3), 0.0);
    }

    #[test]
    fn object_grouping_matches_the_analyzer_semantics() {
        let profile = two_site_profile();
        let result = Query::new().evaluate(&profile).unwrap();
        assert_eq!(result.total_samples, 14);
        assert_eq!(result.total_weighted_events, 1400);
        assert_eq!(result.attributed_weighted_events, 1300);
        assert_eq!(result.groups.len(), 2);
        assert_eq!(result.hottest().unwrap().label, "float[]");
        assert_eq!(result.groups[0].metrics.samples, 12);
        assert_eq!(result.groups[0].contexts.len(), 2);
        assert_eq!(result.groups[0].contexts[0].path, vec![f(1, 5), f(9, 1)]);
        assert!((result.attributed_fraction() - 13.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(1) - 12.0 / 14.0).abs() < 1e-9);
        assert!(result.find_class("TopDocCollector").is_some());
        assert!(result.find_class("nothing").is_none());
    }

    #[test]
    fn site_grouping_keys_on_the_leaf_allocation_frame() {
        let profile = two_site_profile();
        let result = Query::new().group_by(GroupBy::Site).evaluate(&profile).unwrap();
        assert_eq!(result.groups.len(), 2);
        assert_eq!(result.groups[0].key, GroupKey::Site(Some(f(1, 5))));
        assert_eq!(result.groups[0].label, "1:5");
        assert_eq!(result.groups[0].metrics.samples, 12);
        assert!(result.find(&GroupKey::Site(Some(f(2, 3)))).is_some());
    }

    #[test]
    fn thread_grouping_includes_unattributed_samples_and_names() {
        let profile = two_site_profile();
        let result = Query::new()
            .group_by(GroupBy::Thread)
            .rank_by(RankBy::Samples)
            .evaluate(&profile)
            .unwrap();
        assert_eq!(result.groups.len(), 2);
        let main = result.find(&GroupKey::Thread(ThreadId(1))).unwrap();
        assert_eq!(main.label, "main");
        assert_eq!(main.metrics.samples, 10, "9 attributed + 1 unattributed");
        let worker = result.find(&GroupKey::Thread(ThreadId(2))).unwrap();
        assert_eq!(worker.label, "worker");
        assert_eq!(worker.metrics.samples, 4);
        assert_eq!(result.hottest().unwrap().label, "main");
    }

    #[test]
    fn numa_grouping_partitions_samples_by_locality() {
        let profile = two_site_profile();
        let result = Query::new()
            .group_by(GroupBy::NumaNode)
            .rank_by(RankBy::Samples)
            .evaluate(&profile)
            .unwrap();
        assert_eq!(result.groups.len(), 2);
        let local = result.find(&GroupKey::NumaNode(Locality::Local)).unwrap();
        let remote = result.find(&GroupKey::NumaNode(Locality::Remote)).unwrap();
        assert_eq!(local.metrics.samples, 8, "6 local hot + 1 cold + 1 unattributed");
        assert_eq!(remote.metrics.samples, 6);
        assert_eq!(local.metrics.local_samples, 8);
        assert_eq!(remote.metrics.remote_samples, 6);
        // NumaNode fractions are sample-based — the per-group fraction and the
        // cumulative top-n accessor agree on the axis rule.
        assert!((local.fraction_of_total - 8.0 / 14.0).abs() < 1e-9);
        assert!((remote.fraction_of_total - 6.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(1) - 8.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filters_restrict_groups_but_not_totals() {
        let profile = two_site_profile();
        let by_class = Query::new().filter_class("float[]").evaluate(&profile).unwrap();
        assert_eq!(by_class.groups.len(), 1);
        assert_eq!(by_class.total_samples, 14, "totals stay unfiltered");
        assert_eq!(by_class.attributed_weighted_events, 1300);

        let by_thread = Query::new().filter_thread(ThreadId(2)).evaluate(&profile).unwrap();
        assert_eq!(by_thread.groups.len(), 1);
        assert_eq!(by_thread.groups[0].metrics.samples, 4, "only worker-thread rows");

        let by_site = Query::new().filter_site(f(2, 3)).evaluate(&profile).unwrap();
        assert_eq!(by_site.groups.len(), 1);
        assert_eq!(by_site.groups[0].label, "TopDocCollector");

        let floor = Query::new().min_samples(2).evaluate(&profile).unwrap();
        assert_eq!(floor.groups.len(), 1, "the single-sample site drops");

        let top = Query::new().top(1).evaluate(&profile).unwrap();
        assert_eq!(top.groups.len(), 1);
        assert_eq!(top.total_weighted_events, 1400);

        // Class/site filters exclude unattributed samples from Thread groups.
        let filtered_thread = Query::new()
            .group_by(GroupBy::Thread)
            .filter_class("float[]")
            .evaluate(&profile)
            .unwrap();
        let main = filtered_thread.find(&GroupKey::Thread(ThreadId(1))).unwrap();
        assert_eq!(main.metrics.samples, 8, "hot-site rows only, no unattributed");
    }

    #[test]
    fn derived_ratio_ranking_orders_deterministically() {
        let profile = two_site_profile();
        // The hot site is 50% remote; the cold site 0%.
        let result = Query::new().rank_by(RankBy::RemoteFraction).evaluate(&profile).unwrap();
        assert_eq!(result.groups[0].label, "float[]");
        assert!((result.groups[0].remote_fraction - 0.5).abs() < 1e-9);
        // Per-allocation cost: the hot site has 1 allocation carrying 1200 weighted.
        let per_alloc =
            Query::new().rank_by(RankBy::EventsPerAllocation).evaluate(&profile).unwrap();
        assert_eq!(per_alloc.groups[0].label, "float[]");
        for rank in RankBy::all() {
            let ranked = Query::new().rank_by(rank).evaluate(&profile).unwrap();
            assert_eq!(ranked.groups.len(), 2, "{rank} ranks without panicking");
        }
    }

    #[test]
    fn rank_by_names_round_trip_and_reject_unknowns() {
        for rank in RankBy::all() {
            let name = rank.to_string();
            assert_eq!(name.parse::<RankBy>().unwrap(), rank, "{name} round-trips");
        }
        assert_eq!("l1_miss_ratio".parse::<RankBy>().unwrap(), RankBy::EventsPerByte);
        let err = "BOGUS".parse::<RankBy>().unwrap_err();
        assert_eq!(err.name, "BOGUS");
        assert!(err.to_string().contains("BOGUS"));
        assert!(err.to_string().contains("weighted_events"));
    }

    #[test]
    fn group_by_names_round_trip_and_reject_unknowns() {
        for axis in [
            GroupBy::Object,
            GroupBy::Site,
            GroupBy::Thread,
            GroupBy::NumaNode,
            GroupBy::Context,
            GroupBy::NodePair,
        ] {
            assert_eq!(axis.to_string().parse::<GroupBy>().unwrap(), axis);
        }
        let err = "objects".parse::<GroupBy>().unwrap_err();
        assert_eq!(err.name, "objects");
        assert!(err.to_string().contains("objects"));
        assert!(err.to_string().contains("node_pair"));
    }

    #[test]
    fn renderings_are_identical_across_equivalent_sources() {
        let profile = two_site_profile();
        let query = Query::new().rank_by(RankBy::WeightedEvents);
        let direct = query.evaluate(&profile).unwrap();

        // The same profile through the binary epoch-log codec (write → replay).
        let sink = BinaryChunkedSink::new();
        let mut log = Vec::new();
        sink.write_profile(&profile, &mut log).unwrap();
        let replayed = sink.read_log_bytes(&log).unwrap();
        let from_log = query.evaluate(&replayed).unwrap();
        assert_eq!(from_log.to_text(), direct.to_text());
        assert_eq!(from_log.to_json(), direct.to_json());
        assert!(replayed.total_samples() > 0);
    }

    #[test]
    fn multi_source_folds_like_a_profile_sequence() {
        let p1 = two_site_profile();
        let mut p2 = two_site_profile();
        // Shift the second profile's threads so the fold sees four threads.
        for t in &mut p2.threads {
            t.thread = ThreadId(t.thread.0 + 10);
        }
        let fold = MultiSource::new().with(&p1).with(&p2);
        assert_eq!(fold.len(), 2);
        assert!(!fold.is_empty());
        let folded = Query::new().evaluate(&fold).unwrap();
        let seq = Query::new().evaluate([p1.clone(), p2.clone()].as_slice()).unwrap();
        assert_eq!(folded.to_text(), seq.to_text());
        assert_eq!(folded.total_samples, 28);
        assert_eq!(folded.groups[0].metrics.samples, 24, "hot sites merged by identity");
    }

    #[test]
    fn empty_sources_produce_empty_results() {
        let empty = MultiSource::new();
        let result = Query::new().evaluate(&empty).unwrap();
        assert_eq!(result.total_samples, 0);
        assert!(result.groups.is_empty());
        assert!(result.hottest().is_none());
        assert_eq!(result.attributed_fraction(), 0.0);
        assert_eq!(result.top_n_fraction(3), 0.0);
        assert!(result.to_text().contains("no group matched"));
    }

    #[test]
    fn session_without_object_collector_is_a_source_error() {
        let session = Session::builder().build();
        let err = Query::new().evaluate(&*session).unwrap_err();
        assert!(matches!(err, QueryError::SourceUnavailable(_)));
        assert!(err.to_string().contains("collect_objects"));
    }

    #[test]
    fn parse_failures_surface_as_query_errors() {
        let err = BinaryChunkedSink::new().read_log_bytes(b"garbage").unwrap_err();
        let query_err: QueryError = err.into();
        assert!(matches!(query_err, QueryError::Parse(_)));
        assert!(query_err.to_string().contains("parse"));
    }

    #[test]
    fn json_rendering_is_well_formed_and_stable() {
        let profile = two_site_profile();
        let result = Query::new().evaluate(&profile).unwrap();
        let json = result.to_json();
        assert!(json.starts_with("{\"format\":\"djxperf-query\",\"version\":1"));
        assert!(json.contains("\"group_by\":\"object\""));
        assert!(json.contains("\"rank_by\":\"weighted_events\""));
        assert!(json.contains("float[]"));
        assert_eq!(json, Query::new().evaluate(&profile).unwrap().to_json(), "stable");
        // Every grouping axis renders its key kind.
        for (axis, kind) in [
            (GroupBy::Site, "\"kind\":\"site\""),
            (GroupBy::Thread, "\"kind\":\"thread\""),
            (GroupBy::NumaNode, "\"kind\":\"numa\""),
            (GroupBy::Context, "\"kind\":\"context\",\"path\":[[1,5],[9,1]]"),
            (GroupBy::NodePair, "\"kind\":\"node_pair\",\"cpu_node\":0,\"page_node\":1"),
        ] {
            let json = Query::new().group_by(axis).evaluate(&profile).unwrap().to_json();
            assert!(json.contains(kind), "{axis} renders {kind}");
        }
    }

    #[test]
    fn context_grouping_counts_every_sample_at_its_call_path() {
        let profile = two_site_profile();
        let result = Query::new().group_by(GroupBy::Context).evaluate(&profile).unwrap();
        // [f(1,5), f(9,1)] holds 6 + 4 samples over two threads; the unattributed
        // sample sits at the empty path.
        let rows: Vec<_> =
            result.groups.iter().map(|g| (g.key.clone(), g.metrics.samples)).collect();
        assert_eq!(
            rows,
            vec![
                (GroupKey::Context(vec![f(1, 5), f(9, 1)]), 10),
                (GroupKey::Context(vec![f(1, 5), f(8, 7)]), 2),
                (GroupKey::Context(vec![]), 1),
                (GroupKey::Context(vec![f(2, 3)]), 1),
            ]
        );
        assert_eq!(result.groups[0].label, "9:1");
        assert_eq!(result.groups[2].label, "<no calling context>");
        assert!((result.groups[0].fraction_of_total - 10.0 / 14.0).abs() < 1e-9);
        assert!((result.top_n_fraction(4) - 1.0).abs() < 1e-9);
        assert!(result.groups.iter().all(|g| g.contexts.is_empty()));
        assert!(result.to_text().contains("    context 1:5,9:1\n"));

        // The thread filter applies; class and site filters leave no row.
        let worker = Query::new().group_by(GroupBy::Context).filter_thread(ThreadId(2));
        let worker = worker.evaluate(&profile).unwrap();
        assert_eq!(worker.groups.len(), 1);
        assert_eq!(worker.groups[0].metrics.samples, 4);
        for query in [Query::new().filter_class("float[]"), Query::new().filter_site(f(1, 5))] {
            let result = query.group_by(GroupBy::Context).evaluate(&profile).unwrap();
            assert!(result.groups.is_empty());
            assert_eq!(result.total_samples, 14, "totals stay unfiltered");
        }
    }

    #[test]
    fn node_pair_grouping_refines_the_locality_split() {
        let profile = two_site_profile();
        let cells = Query::new().group_by(GroupBy::NodePair).evaluate(&profile).unwrap();
        assert_eq!(cells.groups.len(), 2);
        let local = cells.find(&GroupKey::NodePair { cpu_node: 0, page_node: 0 }).unwrap();
        let remote = cells.find(&GroupKey::NodePair { cpu_node: 0, page_node: 1 }).unwrap();
        assert_eq!(remote.label, "node 0 -> node 1");
        assert_eq!((local.metrics.samples, local.metrics.local_samples), (8, 8));
        assert_eq!((remote.metrics.samples, remote.metrics.remote_samples), (6, 6));
        assert_eq!(remote.remote_fraction, 1.0);
        assert!((remote.fraction_of_total - 6.0 / 14.0).abs() < 1e-9);
        assert!((cells.top_n_fraction(2) - 1.0).abs() < 1e-9);
        let localities = Query::new().group_by(GroupBy::NumaNode).evaluate(&profile).unwrap();
        assert_eq!(
            localities.find(&GroupKey::NumaNode(Locality::Local)).unwrap().metrics,
            local.metrics
        );
        assert_eq!(
            localities.find(&GroupKey::NumaNode(Locality::Remote)).unwrap().metrics,
            remote.metrics
        );
        let filtered = Query::new().group_by(GroupBy::NodePair).filter_class("float[]");
        assert!(filtered.evaluate(&profile).unwrap().groups.is_empty());
    }

    #[test]
    fn samples_attach_to_code_contexts() {
        use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
        use djx_runtime::{MemoryAccessEvent, RuntimeListener, ThreadEvent};

        let session = Session::builder().period(4).collect_objects().build();
        session.on_thread_start(&ThreadEvent { thread: ThreadId(1), name: "main", cpu: 0 });
        let hot = [f(1, 0), f(2, 4)];
        let cold = [f(1, 0), f(3, 8)];
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        for (base, count, trace) in [(0x10_0000, 512, &hot), (0x20_0000, 64, &cold)] {
            for i in 0..count {
                let outcome = hier.access(MemoryAccess::load(0, base + i * 64, 8));
                let event = MemoryAccessEvent {
                    thread: ThreadId(1),
                    outcome,
                    call_trace: trace,
                    object: None,
                };
                session.on_memory_access(&event);
            }
        }

        assert!(session.total_samples() > 0);
        let code = Query::new().group_by(GroupBy::Context).evaluate(&*session).unwrap();
        assert_eq!(code.total_samples, session.total_samples());
        assert_eq!(code.groups.iter().map(|g| g.metrics.samples).sum::<u64>(), code.total_samples);
        assert!(code.groups.len() >= 2);
        assert_eq!(code.groups[0].key, GroupKey::Context(hot.to_vec()), "hot context ranks first");
        assert_eq!(code.groups[0].label, "2:4");
        assert!(code.groups[0].fraction_of_total > code.groups[1].fraction_of_total);
        let sum: f64 = code.groups.iter().map(|g| g.fraction_of_total).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
        assert!(code.hottest().unwrap().fraction_of_total > 0.5);
    }

    #[test]
    fn tied_locations_rank_by_path_whatever_the_insertion_order() {
        // Three equally hot contexts and one hotter one, as path → samples.
        let contexts: Vec<(Vec<Frame>, u64)> = vec![
            (vec![f(0, 0), f(2, 0)], 1),
            (vec![f(1, 0)], 1),
            (vec![f(0, 0), f(1, 0)], 1),
            (vec![f(2, 0)], 3),
        ];
        let profile = |order: &mut dyn Iterator<Item = &(Vec<Frame>, u64)>| {
            let mut thread = ThreadProfile::new(ThreadId(1), "main");
            for (path, samples) in order {
                for _ in 0..*samples {
                    thread.record_sample(None, path, &sample(false), 10);
                }
            }
            ObjectCentricProfile { sites: vec![], threads: vec![thread], ..two_site_profile() }
        };
        let query = Query::new().group_by(GroupBy::Context);
        let forward = query.evaluate(&profile(&mut contexts.iter())).unwrap();
        let backward = query.evaluate(&profile(&mut contexts.iter().rev())).unwrap();
        assert_eq!(forward.to_json(), backward.to_json());
        let paths: Vec<GroupKey> = forward.groups.iter().map(|g| g.key.clone()).collect();
        assert_eq!(
            paths,
            [vec![f(2, 0)], vec![f(0, 0), f(1, 0)], vec![f(0, 0), f(2, 0)], vec![f(1, 0)]]
                .map(GroupKey::Context)
        );
    }

    #[test]
    fn empty_profile_has_no_locations() {
        let session = Session::builder().period(100).collect_objects().build();
        let code = Query::new().group_by(GroupBy::Context).evaluate(&*session).unwrap();
        assert!(code.groups.is_empty());
        assert!(code.hottest().is_none());
        assert_eq!(code.top_n_fraction(1), 0.0);
    }
}
