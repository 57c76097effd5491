//! Umbrella crate for the DJXPerf reproduction workspace.
//!
//! This package exists to own the repository-level integration tests (`tests/`) and the
//! runnable examples (`examples/`); the implementation lives in the `crates/` members:
//!
//! * [`djxperf`] — the profiler core: sessions, queries, sinks, analyzer, reports;
//! * [`djx_runtime`] — the managed-runtime simulator;
//! * [`djx_pmu`] — per-thread virtual PMUs;
//! * [`djx_memsim`] — the simulated memory hierarchy;
//! * [`djx_workloads`] — synthetic workloads and case-study kernels.
//!
//! Start at [`djxperf::session::SessionBuilder`] for the profiling API and
//! `examples/quickstart.rs` for a complete run.

pub use djx_memsim;
pub use djx_pmu;
pub use djx_runtime;
pub use djx_workloads;
pub use djxperf;
