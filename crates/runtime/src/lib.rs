//! # djx-runtime — a managed-runtime (JVM-like) simulator
//!
//! DJXPerf profiles unmodified Java programs running on the Oracle HotSpot JVM. The
//! profiler never looks inside the JVM; it observes the runtime exclusively through a
//! small set of events and query interfaces:
//!
//! * object allocations intercepted by ASM bytecode instrumentation (object pointer,
//!   type, size, allocation calling context),
//! * thread start/end callbacks from JVMTI,
//! * the stream of memory accesses the program performs (observed indirectly through PMU
//!   samples),
//! * garbage-collection notifications (MXBean), object moves (`memmove` interposition)
//!   and reclamations (`finalize` interception),
//! * calling contexts captured at arbitrary points (`AsyncGetCallTrace`) with
//!   method-ID/BCI frames and per-method BCI→line tables (`GetLineNumberTable`).
//!
//! This crate provides a runtime that produces exactly those observables for synthetic
//! workloads:
//!
//! * [`Runtime`] — heap with bump allocation and a compacting, moving garbage collector,
//!   logical threads with call stacks, class/method registries, and a pluggable
//!   [`RuntimeListener`] event interface ([`events`]),
//! * [`heap`]/[`gc`] — the object heap and the mark-compact collector,
//! * [`class`]/[`method`] — type and method metadata with line-number tables,
//! * [`callstack`] — frames and async call-trace capture,
//! * [`dsl`] — convenience builders on top of [`Runtime`] used by `djx-workloads`.
//!
//! The runtime routes every load and store through the `djx-memsim` memory hierarchy, so
//! locality behaviour (cache misses, TLB misses, NUMA placement) is simulated faithfully,
//! and accumulates a modeled execution time used by the evaluation's speedup experiments.
//!
//! ## Example
//!
//! ```
//! use djx_runtime::{Runtime, RuntimeConfig};
//!
//! let mut rt = Runtime::new(RuntimeConfig::small());
//! let class = rt.register_array_class("float[]", 4);
//! let method = rt.register_method("Example", "run", "Example.java", &[(0, 10)]);
//! let thread = rt.spawn_thread("main");
//!
//! rt.push_frame(thread, method, 0).unwrap();
//! let arr = rt.alloc_array(thread, class, 1024).unwrap();
//! rt.store_elem(thread, &arr, 3).unwrap();
//! let _ = rt.load_elem(thread, &arr, 3).unwrap();
//! rt.pop_frame(thread).unwrap();
//! rt.finish_thread(thread).unwrap();
//!
//! assert!(rt.stats().allocations == 1);
//! assert!(rt.modeled_cycles() > 0);
//! ```

pub mod callstack;
pub mod class;
pub mod dsl;
pub mod error;
pub mod events;
pub mod gc;
pub mod heap;
pub mod ids;
pub mod method;
pub mod runtime;
pub mod stats;

pub use callstack::{CallTrace, Frame};
pub use class::{ClassInfo, ClassKind, ClassRegistry};
pub use error::RuntimeError;
pub use events::{
    AllocationEvent, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    RuntimeListener, ThreadEvent,
};
pub use gc::GcConfig;
pub use heap::{Heap, HeapConfig, ObjRef, ObjectRecord};
pub use ids::{ClassId, GcId, MethodId, ObjectId, ThreadId};
pub use method::{MethodInfo, MethodRegistry};
pub use runtime::{Runtime, RuntimeConfig};
pub use stats::RuntimeStats;

/// Result alias used across the runtime.
pub type Result<T> = std::result::Result<T, RuntimeError>;
