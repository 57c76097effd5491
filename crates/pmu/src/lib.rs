//! # djx-pmu — a PEBS-like sampling PMU simulator
//!
//! DJXPerf drives hardware performance-monitoring units (PMUs) in sampling mode through
//! Linux `perf_event_open`: each thread programs a precise memory event (for example
//! `MEM_LOAD_UOPS_RETIRED:L1_MISS`) with a sampling period, and every time the counter
//! overflows the hardware delivers a sample carrying the *effective address* of the
//! sampled load or store (Intel PEBS address sampling), the CPU number, and the metric.
//!
//! This crate reproduces that measurement substrate on top of the `djx-memsim` memory
//! hierarchy:
//!
//! * [`PmuEvent`] enumerates the precise memory events DJXPerf uses (L1/L2/L3 misses,
//!   DTLB misses, load latency, loads/stores retired, remote DRAM accesses),
//! * [`EventCounter`] is one virtual hardware counter with a sampling period and
//!   overflow detection,
//! * [`ThreadPmu`] is the per-thread PMU: it observes every
//!   [`AccessOutcome`](djx_memsim::AccessOutcome) a thread produces by counting down
//!   lock-free to the next overflow, and only on overflow takes its lock and emits
//!   [`Sample`]s — exactly what a signal handler would receive from the kernel — from a
//!   buffer the PMU reuses, so observing an access never allocates,
//! * [`PerfEventBuilder`] is a `perf_event_open`-style configuration facade.
//!
//! ## Example
//!
//! ```
//! use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
//! use djx_pmu::{PerfEventBuilder, PmuEvent};
//!
//! let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
//! let pmu = PerfEventBuilder::new(PmuEvent::L1Miss)
//!     .sample_period(2)
//!     .open_for_thread(7);
//!
//! let mut samples = Vec::new();
//! for i in 0..64u64 {
//!     let outcome = hier.access(MemoryAccess::load(0, 0x10_0000 + i * 64, 8));
//!     // Runs only when a counter overflows: at most one sample per programmed event.
//!     pmu.observe(&outcome, |fired| {
//!         assert!(fired.len() <= 1);
//!         samples.extend_from_slice(fired);
//!     });
//! }
//! assert!(!samples.is_empty(), "cold strided loads overflow the L1-miss counter");
//! assert!(samples.iter().all(|s| s.thread_id == 7));
//! ```

pub mod counter;
pub mod event;
pub mod perf_event;
pub mod pmu;
pub mod sample;

pub use counter::EventCounter;
pub use event::PmuEvent;
pub use perf_event::PerfEventBuilder;
pub use pmu::{ThreadPmu, MAX_SAMPLED_EVENTS};
pub use sample::Sample;

/// Identifier of a simulated application thread (the analogue of a Linux TID).
pub type ThreadId = u64;
