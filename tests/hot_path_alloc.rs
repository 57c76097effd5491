//! The session's ingestion hot path never touches the heap once warm.
//!
//! A counting global allocator tallies allocations per thread (tests run on parallel
//! threads, so a process-wide count would pick up the neighbours' allocations). Each
//! test warms a session — the thread's PMU and collector state, the CCT path, the
//! traffic-matrix cell and the site entries exist — then asserts
//! that the measured callbacks allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use djx_memsim::{AccessOutcome, MemoryAccess, NumaNode};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, GcId, MemoryAccessEvent, MethodId, ObjectId, ObjectMoveEvent,
    ObjectReclaimEvent, RuntimeListener, ThreadId,
};
use djxperf::{GroupBy, Query, Session};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting every allocation on the calling thread.
struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments unchanged, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the only addition
// is bumping a const-initialised thread-local counter, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded from our caller, who upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`, with `layout`,
        // as our caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` performs on the calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const PERIOD: u64 = 4;
const THREAD: ThreadId = ThreadId(1);
const OBJECT_START: u64 = 0x10_0000;
const OBJECT_SIZE: u64 = 4096;

fn trace() -> [Frame; 2] {
    [Frame::new(MethodId(1), 3), Frame::new(MethodId(2), 7)]
}

fn access<'a>(trace: &'a [Frame], offset: u64, l1_miss: bool) -> MemoryAccessEvent<'a> {
    MemoryAccessEvent {
        thread: THREAD,
        outcome: AccessOutcome {
            access: MemoryAccess::load(0, OBJECT_START + offset % OBJECT_SIZE, 8),
            l1_miss,
            l2_miss: false,
            l3_miss: false,
            tlb_miss: false,
            cpu_node: NumaNode(0),
            page_node: NumaNode(0),
            latency: if l1_miss { 14 } else { 4 },
        },
        call_trace: trace,
        object: Some(ObjectId(1)),
    }
}

/// A session with one monitored object, warmed by two sampled accesses from [`trace`]
/// into it.
fn warmed_session(trace: &[Frame]) -> Arc<Session> {
    let session = Session::builder().period(PERIOD).collect_objects().build();
    session.on_object_alloc(&AllocationEvent {
        object: ObjectId(1),
        class: ClassId(0),
        class_name: "float[]",
        start: OBJECT_START,
        size: OBJECT_SIZE,
        thread: THREAD,
        call_trace: trace,
    });
    for i in 0..2 * PERIOD {
        session.on_memory_access(&access(trace, i * 64, true));
    }
    assert_eq!(session.total_samples(), 2);
    session
}

#[test]
fn non_sampled_accesses_allocate_nothing() {
    let trace = trace();
    let session = warmed_session(&trace);
    let allocations = allocations_during(|| {
        for i in 0..10_000u64 {
            // L1 hits never advance the L1-miss counter; one miss in every PERIOD
            // accesses would, so stay below it.
            session.on_memory_access(&access(&trace, i * 8, false));
        }
        for i in 0..PERIOD - 1 {
            session.on_memory_access(&access(&trace, i * 64, true));
        }
    });
    assert_eq!(allocations, 0, "non-sampled accesses allocated");
    assert_eq!(session.total_samples(), 2, "no access above was sampled");
}

#[test]
fn sampled_accesses_allocate_nothing_once_warm() {
    let trace = trace();
    let session = warmed_session(&trace);
    let allocations = allocations_during(|| {
        for i in 0..100 * PERIOD {
            session.on_memory_access(&access(&trace, i * 64, true));
        }
    });
    assert_eq!(allocations, 0, "sampled accesses allocated");
    assert_eq!(session.total_samples(), 102);
    // Every sample reached the collectors, attributed to the object's site.
    let profile = session.object_profile().expect("object collector registered");
    assert_eq!(profile.threads[0].attributed_samples(), 102);
    for axis in [GroupBy::Context, GroupBy::NodePair] {
        let view = Query::new().group_by(axis).evaluate(&profile).expect("an owned profile");
        assert_eq!(view.groups.iter().map(|g| g.metrics.samples).sum::<u64>(), 102, "{axis}");
    }
}

#[test]
fn filtered_allocations_moves_and_reclaims_allocate_nothing() {
    let trace = trace();
    let session = warmed_session(&trace);
    let allocations = allocations_during(|| {
        for i in 0..1000u64 {
            let object = ObjectId(100 + i);
            let addr = 0x80_0000 + i * 64;
            session.on_object_alloc(&AllocationEvent {
                object,
                class: ClassId(1),
                class_name: "tiny",
                start: addr,
                size: 64,
                thread: THREAD,
                call_trace: &trace,
            });
            session.on_object_move(&ObjectMoveEvent {
                gc: GcId(1),
                object,
                old_addr: addr,
                new_addr: addr + 0x10_0000,
                size: 64,
            });
            session.on_object_reclaim(&ObjectReclaimEvent {
                gc: GcId(1),
                object,
                addr: addr + 0x10_0000,
                size: 64,
                class: ClassId(1),
            });
        }
    });
    assert_eq!(allocations, 0, "filtered allocation callbacks allocated");
    assert_eq!(session.allocation_stats().filtered, 1000);
    assert_eq!(session.live_monitored_objects(), 1);
}
