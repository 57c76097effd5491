//! The traced run's instrumentation, all of it outside the profiler: a forwarding
//! listener that times calls into the session's `RuntimeListener` methods, and a
//! span log for the low-rate calls (report, finish, queries, renders).
//!
//! Per-access callbacks run millions of times at ~100 ns each, so two clock reads
//! around every one would cost about as much as the call itself. Each callback
//! kind therefore counts every call but times only a pseudo-random 1-in-2^k subset,
//! and the timer's own cost inside a timed window — measured by [`calibrate`]
//! around a listener that does nothing — is subtracted from the mean.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use djx_memsim::{AccessOutcome, MemoryAccess, NumaNode};
use djx_runtime::{
    AllocationEvent, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    RuntimeListener, ThreadEvent, ThreadId,
};

use crate::stats::median;

/// The listener callbacks the tracer tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `on_memory_access` that hit L1.
    AccessHit,
    /// `on_memory_access` that missed L1: the PMU counts it, and one in `period`
    /// becomes a sample that is resolved and attributed.
    AccessMiss,
    /// `on_object_alloc`.
    Alloc,
    /// `on_object_reclaim`.
    Reclaim,
    /// `on_object_move`.
    Move,
    /// `on_gc_end`.
    GcEnd,
    /// Thread, VM and GC-start callbacks.
    Other,
}

impl Call {
    /// Every kind, in counter order.
    pub const ALL: [Call; 7] = [
        Call::AccessHit,
        Call::AccessMiss,
        Call::Alloc,
        Call::Reclaim,
        Call::Move,
        Call::GcEnd,
        Call::Other,
    ];

    /// The kind's name in span and histogram output.
    pub fn name(self) -> &'static str {
        match self {
            Call::AccessHit => "access_hit",
            Call::AccessMiss => "access_miss",
            Call::Alloc => "alloc",
            Call::Reclaim => "reclaim",
            Call::Move => "move",
            Call::GcEnd => "gc_end",
            Call::Other => "other",
        }
    }

    /// One in `2^shift` calls of this kind is timed.
    fn shift(self) -> u32 {
        match self {
            Call::AccessHit | Call::AccessMiss => 5,
            Call::Alloc | Call::Reclaim | Call::Move => 2,
            Call::GcEnd | Call::Other => 0,
        }
    }
}

/// Log2 buckets of timed-call durations in ns.
const BUCKETS: usize = 32;

#[derive(Default)]
struct Counter {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
}

/// Call counts and sampled timings per [`Call`] kind.
#[derive(Default)]
pub struct CallStats {
    counters: [Counter; Call::ALL.len()],
}

impl CallStats {
    fn record<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        let counter = &self.counters[call as usize];
        let n = counter.calls.fetch_add(1, Relaxed);
        // Fibonacci hashing of the call ordinal spreads the timed calls evenly
        // without locking onto periodic access patterns.
        let shift = call.shift();
        if shift > 0 && n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shift) != 0 {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        counter.timed.fetch_add(1, Relaxed);
        counter.ns.fetch_add(ns, Relaxed);
        counter.histogram[(64 - ns.leading_zeros() as usize).min(BUCKETS - 1)]
            .fetch_add(1, Relaxed);
        out
    }

    /// Calls of `call` so far.
    pub fn calls(&self, call: Call) -> u64 {
        self.counters[call as usize].calls.load(Relaxed)
    }

    /// Mean ns per call of `call`, less `timer_ns`, the tracer's own cost per timed
    /// call; `0.0` before any call was timed.
    pub fn mean_ns(&self, call: Call, timer_ns: f64) -> f64 {
        let counter = &self.counters[call as usize];
        let timed = counter.timed.load(Relaxed);
        if timed == 0 {
            return 0.0;
        }
        (counter.ns.load(Relaxed) as f64 / timed as f64 - timer_ns).max(0.0)
    }

    /// One JSON line per kind: calls, timed calls and the log2-ns histogram of the
    /// timed ones.
    pub fn to_jsonl(&self) -> String {
        Call::ALL
            .iter()
            .map(|&call| {
                let counter = &self.counters[call as usize];
                let histogram: Vec<String> =
                    counter.histogram.iter().map(|b| b.load(Relaxed).to_string()).collect();
                format!(
                    "{{\"call\":\"{}\",\"calls\":{},\"timed\":{},\"histogram_log2_ns\":[{}]}}\n",
                    call.name(),
                    self.calls(call),
                    counter.timed.load(Relaxed),
                    histogram.join(",")
                )
            })
            .collect()
    }
}

/// Forwards every callback to `inner`, recording it in `stats`.
pub struct Traced<L> {
    /// The listener under measurement.
    pub inner: Arc<L>,
    /// Where the calls are recorded.
    pub stats: Arc<CallStats>,
}

impl<L: RuntimeListener> RuntimeListener for Traced<L> {
    fn on_vm_start(&self) {
        self.stats.record(Call::Other, || self.inner.on_vm_start())
    }

    fn on_vm_end(&self) {
        self.stats.record(Call::Other, || self.inner.on_vm_end())
    }

    fn on_thread_start(&self, event: &ThreadEvent<'_>) {
        self.stats.record(Call::Other, || self.inner.on_thread_start(event))
    }

    fn on_thread_end(&self, event: &ThreadEvent<'_>) {
        self.stats.record(Call::Other, || self.inner.on_thread_end(event))
    }

    fn on_object_alloc(&self, event: &AllocationEvent<'_>) {
        self.stats.record(Call::Alloc, || self.inner.on_object_alloc(event))
    }

    fn on_memory_access(&self, event: &MemoryAccessEvent<'_>) {
        let call = if event.outcome.l1_miss { Call::AccessMiss } else { Call::AccessHit };
        self.stats.record(call, || self.inner.on_memory_access(event))
    }

    fn on_gc_start(&self, event: &GcEvent) {
        self.stats.record(Call::Other, || self.inner.on_gc_start(event))
    }

    fn on_gc_end(&self, event: &GcEvent) {
        self.stats.record(Call::GcEnd, || self.inner.on_gc_end(event))
    }

    fn on_object_move(&self, event: &ObjectMoveEvent) {
        self.stats.record(Call::Move, || self.inner.on_object_move(event))
    }

    fn on_object_reclaim(&self, event: &ObjectReclaimEvent) {
        self.stats.record(Call::Reclaim, || self.inner.on_object_reclaim(event))
    }
}

struct Noop;

impl RuntimeListener for Noop {}

/// The tracer's own cost per timed call in ns: the median, over batches, of the
/// mean timed duration of accesses forwarded to a listener that does nothing.
pub fn calibrate() -> f64 {
    let event = MemoryAccessEvent {
        thread: ThreadId(1),
        outcome: AccessOutcome {
            access: MemoryAccess::load(0, 0, 8),
            l1_miss: false,
            l2_miss: false,
            l3_miss: false,
            tlb_miss: false,
            cpu_node: NumaNode(0),
            page_node: NumaNode(0),
            latency: 4,
        },
        call_trace: &[],
        object: None,
    };
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let traced = Traced { inner: Arc::new(Noop), stats: Arc::new(CallStats::default()) };
            for _ in 0..1 << 16 {
                traced.on_memory_access(std::hint::black_box(&event));
            }
            traced.stats.mean_ns(Call::AccessHit, 0.0)
        })
        .collect();
    median(&batches)
}

/// One timed low-rate call.
struct Span {
    name: &'static str,
    rep: usize,
    start_s: f64,
    dur_s: f64,
}

/// Spans of low-rate calls, kept in memory and written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose span start times count from now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` as span `name` of repetition `rep`; returns its result and its
    /// duration in seconds.
    pub fn time<T>(&self, name: &'static str, rep: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        let start_s = start.duration_since(self.origin).as_secs_f64();
        self.spans
            .lock()
            .expect("span log lock")
            .push(Span { name, rep, start_s, dur_s });
        (out, dur_s)
    }

    /// One JSON line per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span log lock");
        spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"span\":\"{}\",\"rep\":{},\"start_s\":{},\"dur_s\":{}}}\n",
                    s.name, s.rep, s.start_s, s.dur_s
                )
            })
            .collect()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}
