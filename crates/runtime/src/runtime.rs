//! The [`Runtime`] itself: heap + GC + memory hierarchy + threads + call stacks, driven
//! one operation at a time by a workload, observable through [`RuntimeListener`]s.
//!
//! The runtime models *logical* threads: workloads interleave operations of several
//! threads through a single `&mut Runtime`, and every thread is pinned to a logical CPU
//! of the simulated machine so that NUMA placement and cache privacy behave as they
//! would on the paper's two-socket evaluation machine. Profiler agents attached as
//! listeners use interior mutability and are `Send + Sync`, exactly like the
//! async-signal-safe agent code of the original tool.

use std::collections::HashMap;
use std::sync::Arc;

use djx_memsim::{
    AccessKind, AccessOutcome, Addr, CpuId, HierarchyConfig, MemoryAccess, MemoryHierarchy,
    PlacementPolicy,
};

use crate::callstack::{CallTrace, Frame};
use crate::class::{ClassKind, ClassRegistry};
use crate::error::RuntimeError;
use crate::events::{
    AllocationEvent, GcEvent, MemoryAccessEvent, ObjectMoveEvent, ObjectReclaimEvent,
    RuntimeListener, ThreadEvent,
};
use crate::gc::{GcConfig, GcCoordinator};
use crate::heap::{Heap, HeapConfig, ObjRef, OBJECT_HEADER_SIZE};
use crate::ids::{ClassId, GcId, MethodId, ObjectId, ThreadId};
use crate::method::MethodRegistry;
use crate::stats::RuntimeStats;
use crate::Result;

/// Configuration of a [`Runtime`]: heap geometry, collection policy, simulated machine,
/// and the fixed per-operation compute cost used by the modeled-time accounting.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Heap geometry.
    pub heap: HeapConfig,
    /// Garbage-collection policy.
    pub gc: GcConfig,
    /// Simulated machine (caches, TLB, NUMA, latency).
    pub hierarchy: HierarchyConfig,
    /// Cycles of compute charged per runtime operation (allocation, access bookkeeping).
    /// This is the "free compute" surrounding each memory access; it keeps the modeled
    /// time from being 100% memory-bound, which would exaggerate locality speedups.
    pub cpu_cycles_per_op: u64,
}

impl RuntimeConfig {
    /// A small runtime suitable for unit tests and doc examples: 16 MiB heap, the tiny
    /// memory hierarchy, and GC only on heap exhaustion.
    pub fn small() -> Self {
        Self {
            heap: HeapConfig::with_capacity(16 * 1024 * 1024),
            gc: GcConfig::on_exhaustion_only(),
            hierarchy: HierarchyConfig::tiny(),
            cpu_cycles_per_op: 2,
        }
    }

    /// The evaluation configuration: 256 MiB heap, proactive GC every 8 MiB of
    /// allocation, and the Broadwell-like machine of the paper's testbed.
    pub fn evaluation() -> Self {
        Self {
            heap: HeapConfig::default(),
            gc: GcConfig::default(),
            hierarchy: HierarchyConfig::broadwell_like(),
            cpu_cycles_per_op: 2,
        }
    }

    /// Replaces the memory-hierarchy configuration.
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Replaces the heap configuration.
    pub fn with_heap(mut self, heap: HeapConfig) -> Self {
        self.heap = heap;
        self
    }

    /// Replaces the garbage-collection policy.
    pub fn with_gc(mut self, gc: GcConfig) -> Self {
        self.gc = gc;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::evaluation()
    }
}

/// Per-thread bookkeeping.
#[derive(Debug, Clone)]
struct ThreadState {
    name: String,
    cpu: CpuId,
    stack: Vec<Frame>,
    finished: bool,
}

/// The managed-runtime simulator.
///
/// See the [crate-level documentation](crate) for the observables it produces and the
/// mapping to the JVM facilities the original DJXPerf uses.
pub struct Runtime {
    config: RuntimeConfig,
    heap: Heap,
    gc: GcCoordinator,
    hierarchy: MemoryHierarchy,
    classes: ClassRegistry,
    methods: MethodRegistry,
    threads: HashMap<ThreadId, ThreadState>,
    next_thread: u64,
    next_cpu: CpuId,
    next_gc: u64,
    listeners: Vec<Arc<dyn RuntimeListener>>,
    stats: RuntimeStats,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("heap_used", &self.heap.used_bytes())
            .field("threads", &self.threads.len())
            .field("classes", &self.classes.len())
            .field("methods", &self.methods.len())
            .field("listeners", &self.listeners.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime from a configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            heap: Heap::new(config.heap),
            gc: GcCoordinator::new(config.gc),
            hierarchy: MemoryHierarchy::new(config.hierarchy.clone()),
            classes: ClassRegistry::new(),
            methods: MethodRegistry::new(),
            threads: HashMap::new(),
            next_thread: 1,
            next_cpu: 0,
            next_gc: 1,
            listeners: Vec::new(),
            stats: RuntimeStats::default(),
            config,
        }
    }

    /// The configuration this runtime was built from.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    // ----------------------------------------------------------------------------------
    // Listeners (profiler agents)
    // ----------------------------------------------------------------------------------

    /// Attaches a listener (a profiler agent). The listener immediately receives
    /// `on_vm_start`, mirroring an agent loaded via JVM options or attached to a running
    /// JVM.
    pub fn add_listener(&mut self, listener: Arc<dyn RuntimeListener>) {
        listener.on_vm_start();
        self.listeners.push(listener);
    }

    /// Detaches a previously attached listener. Returns `true` when the listener was
    /// found (compared by `Arc` identity). The listener receives `on_vm_end` so it can
    /// flush its per-thread profiles, mirroring DJXPerf's detach mode.
    pub fn remove_listener(&mut self, listener: &Arc<dyn RuntimeListener>) -> bool {
        let before = self.listeners.len();
        self.listeners.retain(|l| !Arc::ptr_eq(l, listener));
        let removed = self.listeners.len() != before;
        if removed {
            listener.on_vm_end();
        }
        removed
    }

    /// Notifies every listener that the program has ended (the `VMDeath` analogue).
    /// Idempotent from the runtime's perspective; call it once at the end of a workload.
    pub fn shutdown(&mut self) {
        for l in &self.listeners {
            l.on_vm_end();
        }
    }

    // ----------------------------------------------------------------------------------
    // Classes and methods
    // ----------------------------------------------------------------------------------

    /// Registers (or looks up) an instance class with the given per-instance payload
    /// size in bytes.
    pub fn register_class(&mut self, name: &str, instance_size: u64) -> ClassId {
        self.classes.register(name, ClassKind::Instance { instance_size })
    }

    /// Registers (or looks up) an array class with the given element size in bytes.
    pub fn register_array_class(&mut self, name: &str, elem_size: u64) -> ClassId {
        self.classes.register(name, ClassKind::Array { elem_size })
    }

    /// Registers (or looks up) a method with a BCI→line table.
    pub fn register_method(
        &mut self,
        class_name: &str,
        name: &str,
        file: &str,
        line_table: &[(u32, u32)],
    ) -> MethodId {
        self.methods.register(class_name, name, file, line_table)
    }

    /// The class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// The method registry (used by report generation to resolve method IDs and BCIs to
    /// class/method names and source lines, like JVMTI queries).
    pub fn methods(&self) -> &MethodRegistry {
        &self.methods
    }

    // ----------------------------------------------------------------------------------
    // Threads and call stacks
    // ----------------------------------------------------------------------------------

    /// Spawns a logical thread pinned to the next CPU (round-robin across the machine).
    pub fn spawn_thread(&mut self, name: &str) -> ThreadId {
        let cpu = self.next_cpu % self.hierarchy.cpu_count();
        self.next_cpu += 1;
        self.spawn_thread_on_cpu(name, cpu)
    }

    /// Spawns a logical thread pinned to a specific CPU.
    pub fn spawn_thread_on_cpu(&mut self, name: &str, cpu: CpuId) -> ThreadId {
        let id = ThreadId(self.next_thread);
        self.next_thread += 1;
        let cpu = cpu % self.hierarchy.cpu_count();
        self.threads.insert(
            id,
            ThreadState { name: name.to_string(), cpu, stack: Vec::new(), finished: false },
        );
        self.stats.threads_spawned += 1;
        let state = &self.threads[&id];
        let event = ThreadEvent { thread: id, name: &state.name, cpu };
        for l in &self.listeners {
            l.on_thread_start(&event);
        }
        id
    }

    /// Marks a thread as finished and notifies listeners.
    pub fn finish_thread(&mut self, thread: ThreadId) -> Result<()> {
        let state = self.threads.get_mut(&thread).ok_or(RuntimeError::UnknownThread(thread))?;
        if state.finished {
            return Err(RuntimeError::UnknownThread(thread));
        }
        state.finished = true;
        let name = state.name.clone();
        let cpu = state.cpu;
        let event = ThreadEvent { thread, name: &name, cpu };
        for l in &self.listeners {
            l.on_thread_end(&event);
        }
        Ok(())
    }

    /// Migrates a thread to another CPU (the analogue of the OS scheduler moving it or
    /// of explicit pinning in a NUMA experiment).
    pub fn set_thread_cpu(&mut self, thread: ThreadId, cpu: CpuId) -> Result<()> {
        let cpus = self.hierarchy.cpu_count();
        let state = self.live_thread_mut(thread)?;
        state.cpu = cpu % cpus;
        Ok(())
    }

    /// The CPU a thread is currently pinned to.
    pub fn cpu_of(&self, thread: ThreadId) -> Result<CpuId> {
        Ok(self.live_thread(thread)?.cpu)
    }

    /// Number of threads ever spawned.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Pushes a frame `(method, bci)` onto a thread's call stack (method entry).
    pub fn push_frame(&mut self, thread: ThreadId, method: MethodId, bci: u32) -> Result<()> {
        let state = self.live_thread_mut(thread)?;
        state.stack.push(Frame::new(method, bci));
        Ok(())
    }

    /// Pops the innermost frame (method return).
    pub fn pop_frame(&mut self, thread: ThreadId) -> Result<Frame> {
        let state = self.live_thread_mut(thread)?;
        state.stack.pop().ok_or(RuntimeError::EmptyCallStack(thread))
    }

    /// Updates the byte-code index of the innermost frame (the program counter advancing
    /// within a method). Subsequent samples and allocations are attributed to this BCI.
    pub fn set_bci(&mut self, thread: ThreadId, bci: u32) -> Result<()> {
        let state = self.live_thread_mut(thread)?;
        let frame = state.stack.last_mut().ok_or(RuntimeError::EmptyCallStack(thread))?;
        frame.bci = bci;
        Ok(())
    }

    /// Captures the thread's current calling context root-first — the
    /// `AsyncGetCallTrace` analogue.
    pub fn call_trace(&self, thread: ThreadId) -> Result<CallTrace> {
        Ok(CallTrace::from_root_first(self.live_thread(thread)?.stack.clone()))
    }

    /// Current stack depth of a thread.
    pub fn stack_depth(&self, thread: ThreadId) -> Result<usize> {
        Ok(self.live_thread(thread)?.stack.len())
    }

    // ----------------------------------------------------------------------------------
    // Allocation and garbage collection
    // ----------------------------------------------------------------------------------

    /// Allocates one instance of `class` (the `new` bytecode).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::HeapExhausted`] when even a garbage collection cannot
    /// make room, and [`RuntimeError::UnknownThread`] for unknown or finished threads.
    pub fn alloc_instance(&mut self, thread: ThreadId, class: ClassId) -> Result<ObjRef> {
        let payload = match self.classes.get(class).map(|c| c.kind) {
            Some(ClassKind::Instance { instance_size }) => instance_size,
            Some(ClassKind::Array { elem_size }) => elem_size, // a zero-length-ish array
            None => 16,
        };
        self.alloc_with_payload(thread, class, payload, None)
    }

    /// Allocates an array of `len` elements of `class` (the `newarray` / `anewarray`
    /// bytecodes).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::alloc_instance`].
    pub fn alloc_array(&mut self, thread: ThreadId, class: ClassId, len: u64) -> Result<ObjRef> {
        let elem = self.classes.get(class).and_then(|c| c.elem_size()).unwrap_or(8);
        self.alloc_with_payload(thread, class, elem * len, Some(elem))
    }

    fn alloc_with_payload(
        &mut self,
        thread: ThreadId,
        class: ClassId,
        payload: u64,
        elem_size: Option<u64>,
    ) -> Result<ObjRef> {
        // Validate the thread before touching the heap.
        let _ = self.live_thread(thread)?;

        if self.gc.should_collect(&self.heap) {
            self.collect_garbage();
        }
        let record = match self.heap.try_alloc(class, payload) {
            Some(r) => r,
            None => {
                self.collect_garbage();
                self.heap.try_alloc(class, payload).ok_or(RuntimeError::HeapExhausted {
                    requested: Heap::aligned_total_size(payload),
                    available: self.heap.free_bytes(),
                })?
            }
        };

        self.gc.record_allocation(record.size);
        self.stats.allocations += 1;
        self.stats.allocated_bytes += record.size;
        self.stats.cpu_cycles += self.config.cpu_cycles_per_op;
        self.stats.peak_heap_used = self.stats.peak_heap_used.max(self.heap.peak_used_bytes());
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.heap.peak_live_bytes());

        // The allocating thread first-touches the object's first page, as the JVM's
        // allocation path (TLAB bump + header store) would.
        let cpu = self.threads[&thread].cpu;
        self.hierarchy.place_range(
            record.addr,
            record.size.min(1),
            PlacementPolicy::FirstTouch,
            cpu,
        );

        let state = &self.threads[&thread];
        let class_name = self.classes.name_of(class).to_string();
        let event = AllocationEvent {
            object: record.id,
            class,
            class_name: &class_name,
            start: record.addr,
            size: record.size,
            thread,
            call_trace: &state.stack,
        };
        for l in &self.listeners {
            l.on_object_alloc(&event);
        }

        Ok(ObjRef { id: record.id, class, size: record.size, elem_size })
    }

    /// Marks an object unreachable; the next collection reclaims it. This is the
    /// simulator's stand-in for an object's last reference dying.
    pub fn release(&mut self, obj: &ObjRef) -> Result<()> {
        self.heap.mark_dead(obj.id)
    }

    /// `true` when the object is still live on the heap.
    pub fn is_live(&self, object: ObjectId) -> bool {
        self.heap.is_live(object)
    }

    /// The current start address of an object (changes when the collector moves it).
    pub fn address_of(&self, object: ObjectId) -> Option<Addr> {
        self.heap.get(object).map(|r| r.addr)
    }

    /// Runs a full stop-the-world mark-compact collection, emitting GC start/end, move
    /// and reclamation events exactly like the MXBean notification + `memmove`
    /// interposition + `finalize` interception stack the paper relies on.
    pub fn collect_garbage(&mut self) -> GcId {
        let gc = GcId(self.next_gc);
        self.next_gc += 1;

        let start_event = GcEvent {
            gc,
            heap_used: self.heap.used_bytes(),
            objects_moved: 0,
            objects_reclaimed: 0,
        };
        for l in &self.listeners {
            l.on_gc_start(&start_event);
        }

        let outcome = self.heap.compact();

        for m in &outcome.moves {
            let event = ObjectMoveEvent {
                gc,
                object: m.id,
                old_addr: m.old_addr,
                new_addr: m.new_addr,
                size: m.size,
            };
            for l in &self.listeners {
                l.on_object_move(&event);
            }
        }
        for r in &outcome.reclaimed {
            let event =
                ObjectReclaimEvent { gc, object: r.id, addr: r.addr, size: r.size, class: r.class };
            for l in &self.listeners {
                l.on_object_reclaim(&event);
            }
        }

        self.gc.record_collection();
        self.stats.gc_cycles += 1;
        self.stats.objects_moved += outcome.moves.len() as u64;
        self.stats.objects_reclaimed += outcome.reclaimed.len() as u64;

        let end_event = GcEvent {
            gc,
            heap_used: outcome.used_after,
            objects_moved: outcome.moves.len() as u64,
            objects_reclaimed: outcome.reclaimed.len() as u64,
        };
        for l in &self.listeners {
            l.on_gc_end(&end_event);
        }
        gc
    }

    // ----------------------------------------------------------------------------------
    // Memory accesses
    // ----------------------------------------------------------------------------------

    /// Loads array element `index` of `obj` from the issuing thread.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::OutOfBounds`] when the index is past the end of the array,
    /// [`RuntimeError::UnknownObject`] when the object has been reclaimed.
    pub fn load_elem(
        &mut self,
        thread: ThreadId,
        obj: &ObjRef,
        index: u64,
    ) -> Result<AccessOutcome> {
        let (addr, size) = self.elem_addr(obj, index)?;
        self.object_access(thread, obj.id, addr, size, AccessKind::Load)
    }

    /// Stores to array element `index` of `obj` from the issuing thread.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::load_elem`].
    pub fn store_elem(
        &mut self,
        thread: ThreadId,
        obj: &ObjRef,
        index: u64,
    ) -> Result<AccessOutcome> {
        let (addr, size) = self.elem_addr(obj, index)?;
        self.object_access(thread, obj.id, addr, size, AccessKind::Store)
    }

    /// Loads the field at byte `offset` within `obj`'s payload.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::OutOfBounds`] when the offset is past the object's payload.
    pub fn load_field(
        &mut self,
        thread: ThreadId,
        obj: &ObjRef,
        offset: u64,
    ) -> Result<AccessOutcome> {
        let addr = self.field_addr(obj, offset)?;
        self.object_access(thread, obj.id, addr, 8, AccessKind::Load)
    }

    /// Stores to the field at byte `offset` within `obj`'s payload.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::load_field`].
    pub fn store_field(
        &mut self,
        thread: ThreadId,
        obj: &ObjRef,
        offset: u64,
    ) -> Result<AccessOutcome> {
        let addr = self.field_addr(obj, offset)?;
        self.object_access(thread, obj.id, addr, 8, AccessKind::Store)
    }

    /// Performs a raw access to an address not owned by any tracked object (stack data,
    /// runtime-internal structures, JIT code). Such accesses still feed the PMU but can
    /// never be attributed to a monitored object.
    pub fn raw_access(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        kind: AccessKind,
    ) -> Result<AccessOutcome> {
        let cpu = self.live_thread(thread)?.cpu;
        let access = match kind {
            AccessKind::Load => MemoryAccess::load(cpu, addr, 8),
            AccessKind::Store => MemoryAccess::store(cpu, addr, 8),
        };
        Ok(self.drive_access(thread, access, None))
    }

    /// Adds pure compute cycles to the modeled time (loop arithmetic, JIT-compiled math)
    /// on behalf of a thread.
    pub fn cpu_work(&mut self, _thread: ThreadId, cycles: u64) {
        self.stats.cpu_cycles += cycles;
    }

    fn elem_addr(&self, obj: &ObjRef, index: u64) -> Result<(Addr, u32)> {
        let record = self.heap.get(obj.id).ok_or(RuntimeError::UnknownObject(obj.id))?;
        let elem = obj.elem_size.unwrap_or(8).max(1);
        let offset = OBJECT_HEADER_SIZE + index * elem;
        if offset + elem > record.size {
            return Err(RuntimeError::OutOfBounds { object: obj.id, offset, size: record.size });
        }
        Ok((record.addr + offset, elem as u32))
    }

    fn field_addr(&self, obj: &ObjRef, offset: u64) -> Result<Addr> {
        let record = self.heap.get(obj.id).ok_or(RuntimeError::UnknownObject(obj.id))?;
        let off = OBJECT_HEADER_SIZE + offset;
        if off >= record.size {
            return Err(RuntimeError::OutOfBounds {
                object: obj.id,
                offset: off,
                size: record.size,
            });
        }
        Ok(record.addr + off)
    }

    fn object_access(
        &mut self,
        thread: ThreadId,
        object: ObjectId,
        addr: Addr,
        size: u32,
        kind: AccessKind,
    ) -> Result<AccessOutcome> {
        let cpu = self.live_thread(thread)?.cpu;
        let access = MemoryAccess { cpu, addr, size, kind };
        Ok(self.drive_access(thread, access, Some(object)))
    }

    fn drive_access(
        &mut self,
        thread: ThreadId,
        access: MemoryAccess,
        object: Option<ObjectId>,
    ) -> AccessOutcome {
        let outcome = self.hierarchy.access(access);
        self.stats.accesses += 1;
        self.stats.access_cycles += outcome.latency;
        self.stats.cpu_cycles += self.config.cpu_cycles_per_op;

        let state = &self.threads[&thread];
        let event = MemoryAccessEvent { thread, outcome, call_trace: &state.stack, object };
        for l in &self.listeners {
            l.on_memory_access(&event);
        }
        outcome
    }

    // ----------------------------------------------------------------------------------
    // NUMA placement helpers (the libnuma / JNI stand-ins)
    // ----------------------------------------------------------------------------------

    /// Places every page of an object according to `policy`, overriding earlier
    /// placement — the analogue of `numa_alloc_interleaved` / `numa_move_pages` done
    /// through the paper's JNI shim.
    pub fn place_object(&mut self, object: ObjectId, policy: PlacementPolicy) -> Result<()> {
        let record = *self.heap.get(object).ok_or(RuntimeError::UnknownObject(object))?;
        // The placing "CPU" only matters for first-touch; use CPU 0.
        self.hierarchy.place_range(record.addr, record.size, policy, 0);
        Ok(())
    }

    /// The NUMA node that currently owns the page containing the object's start address
    /// (the `move_pages` query of §4.3), or `None` if the page was never touched.
    pub fn node_of_object(&self, object: ObjectId) -> Option<djx_memsim::NumaNode> {
        let record = self.heap.get(object)?;
        self.hierarchy.placement().node_of_page(record.addr)
    }

    // ----------------------------------------------------------------------------------
    // Introspection
    // ----------------------------------------------------------------------------------

    /// Aggregate runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.stats;
        s.peak_heap_used = s.peak_heap_used.max(self.heap.peak_used_bytes());
        s.peak_live_bytes = s.peak_live_bytes.max(self.heap.peak_live_bytes());
        s
    }

    /// Total modeled execution cycles (memory latency + compute). Speedup experiments
    /// compare this between a baseline and an optimized workload variant.
    pub fn modeled_cycles(&self) -> u64 {
        self.stats.modeled_cycles()
    }

    /// The heap (read-only).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The simulated memory hierarchy (read-only): ground-truth cache/TLB/NUMA counters.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    fn live_thread(&self, thread: ThreadId) -> Result<&ThreadState> {
        match self.threads.get(&thread) {
            Some(state) if !state.finished => Ok(state),
            _ => Err(RuntimeError::UnknownThread(thread)),
        }
    }

    fn live_thread_mut(&mut self, thread: ThreadId) -> Result<&mut ThreadState> {
        match self.threads.get_mut(&thread) {
            Some(state) if !state.finished => Ok(state),
            _ => Err(RuntimeError::UnknownThread(thread)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn small_runtime() -> Runtime {
        Runtime::new(RuntimeConfig::small())
    }

    /// A listener recording every event category it sees.
    #[derive(Default)]
    struct Recorder {
        allocs: AtomicU64,
        accesses: AtomicU64,
        moves: AtomicU64,
        reclaims: AtomicU64,
        gc_starts: AtomicU64,
        gc_ends: AtomicU64,
        threads_started: AtomicU64,
        threads_ended: AtomicU64,
        vm_started: AtomicU64,
        vm_ended: AtomicU64,
        alloc_traces: Mutex<Vec<usize>>,
    }

    impl RuntimeListener for Recorder {
        fn on_vm_start(&self) {
            self.vm_started.fetch_add(1, Ordering::Relaxed);
        }
        fn on_vm_end(&self) {
            self.vm_ended.fetch_add(1, Ordering::Relaxed);
        }
        fn on_thread_start(&self, _e: &ThreadEvent<'_>) {
            self.threads_started.fetch_add(1, Ordering::Relaxed);
        }
        fn on_thread_end(&self, _e: &ThreadEvent<'_>) {
            self.threads_ended.fetch_add(1, Ordering::Relaxed);
        }
        fn on_object_alloc(&self, e: &AllocationEvent<'_>) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.alloc_traces.lock().unwrap().push(e.call_trace.len());
        }
        fn on_memory_access(&self, _e: &MemoryAccessEvent<'_>) {
            self.accesses.fetch_add(1, Ordering::Relaxed);
        }
        fn on_gc_start(&self, _e: &GcEvent) {
            self.gc_starts.fetch_add(1, Ordering::Relaxed);
        }
        fn on_gc_end(&self, _e: &GcEvent) {
            self.gc_ends.fetch_add(1, Ordering::Relaxed);
        }
        fn on_object_move(&self, _e: &ObjectMoveEvent) {
            self.moves.fetch_add(1, Ordering::Relaxed);
        }
        fn on_object_reclaim(&self, _e: &ObjectReclaimEvent) {
            self.reclaims.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn doc_example_flow_works() {
        let mut rt = small_runtime();
        let class = rt.register_array_class("float[]", 4);
        let method = rt.register_method("Example", "run", "Example.java", &[(0, 10)]);
        let thread = rt.spawn_thread("main");
        rt.push_frame(thread, method, 0).unwrap();
        let arr = rt.alloc_array(thread, class, 1024).unwrap();
        rt.store_elem(thread, &arr, 3).unwrap();
        rt.load_elem(thread, &arr, 3).unwrap();
        rt.pop_frame(thread).unwrap();
        rt.finish_thread(thread).unwrap();
        assert_eq!(rt.stats().allocations, 1);
        assert_eq!(rt.stats().accesses, 2);
        assert!(rt.modeled_cycles() > 0);
    }

    #[test]
    fn listeners_receive_thread_alloc_and_access_events() {
        let mut rt = small_runtime();
        let rec = Arc::new(Recorder::default());
        rt.add_listener(rec.clone());
        assert_eq!(rec.vm_started.load(Ordering::Relaxed), 1);

        let class = rt.register_class("Widget", 64);
        let method = rt.register_method("W", "make", "W.java", &[(0, 1)]);
        let t = rt.spawn_thread("worker");
        rt.push_frame(t, method, 0).unwrap();
        let obj = rt.alloc_instance(t, class).unwrap();
        rt.store_field(t, &obj, 0).unwrap();
        rt.load_field(t, &obj, 8).unwrap();
        rt.finish_thread(t).unwrap();
        rt.shutdown();

        assert_eq!(rec.threads_started.load(Ordering::Relaxed), 1);
        assert_eq!(rec.threads_ended.load(Ordering::Relaxed), 1);
        assert_eq!(rec.allocs.load(Ordering::Relaxed), 1);
        assert_eq!(rec.accesses.load(Ordering::Relaxed), 2);
        assert_eq!(rec.vm_ended.load(Ordering::Relaxed), 1);
        assert_eq!(rec.alloc_traces.lock().unwrap()[0], 1, "allocation carries the call trace");
    }

    #[test]
    fn gc_emits_move_and_reclaim_events() {
        let mut rt = small_runtime();
        let rec = Arc::new(Recorder::default());
        rt.add_listener(rec.clone());
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");

        let a = rt.alloc_array(t, class, 1000).unwrap();
        let b = rt.alloc_array(t, class, 1000).unwrap();
        rt.release(&a).unwrap();
        rt.collect_garbage();

        assert_eq!(rec.gc_starts.load(Ordering::Relaxed), 1);
        assert_eq!(rec.gc_ends.load(Ordering::Relaxed), 1);
        assert_eq!(rec.reclaims.load(Ordering::Relaxed), 1);
        assert_eq!(rec.moves.load(Ordering::Relaxed), 1, "b slides down over a's hole");
        assert!(!rt.is_live(a.id));
        assert!(rt.is_live(b.id));
        assert_eq!(rt.address_of(b.id), Some(rt.heap().config().base));
    }

    #[test]
    fn allocation_triggers_gc_when_heap_is_full() {
        let mut config = RuntimeConfig::small();
        config.heap = HeapConfig::with_capacity(4096);
        let mut rt = Runtime::new(config);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");

        // Fill the heap with short-lived objects; each new allocation forces a collection
        // once the heap is full, and the released objects make room.
        for _ in 0..100 {
            let o = rt.alloc_array(t, class, 1024).unwrap();
            rt.release(&o).unwrap();
        }
        assert!(rt.stats().gc_cycles > 0);
        assert_eq!(rt.stats().allocations, 100);
    }

    #[test]
    fn heap_exhaustion_reports_error() {
        let mut config = RuntimeConfig::small();
        config.heap = HeapConfig::with_capacity(1024);
        let mut rt = Runtime::new(config);
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let _keep = rt.alloc_array(t, class, 900).unwrap();
        let err = rt.alloc_array(t, class, 900).unwrap_err();
        assert!(matches!(err, RuntimeError::HeapExhausted { .. }));
    }

    #[test]
    fn out_of_bounds_and_reclaimed_accesses_error() {
        let mut rt = small_runtime();
        let class = rt.register_array_class("int[]", 4);
        let t = rt.spawn_thread("main");
        let arr = rt.alloc_array(t, class, 10).unwrap();
        assert!(matches!(rt.load_elem(t, &arr, 10), Err(RuntimeError::OutOfBounds { .. })));
        rt.release(&arr).unwrap();
        rt.collect_garbage();
        assert!(matches!(rt.load_elem(t, &arr, 0), Err(RuntimeError::UnknownObject(_))));
    }

    #[test]
    fn operations_on_unknown_or_finished_threads_error() {
        let mut rt = small_runtime();
        let class = rt.register_class("X", 16);
        let ghost = ThreadId(99);
        assert!(matches!(rt.alloc_instance(ghost, class), Err(RuntimeError::UnknownThread(_))));
        assert!(matches!(
            rt.push_frame(ghost, MethodId(0), 0),
            Err(RuntimeError::UnknownThread(_))
        ));

        let t = rt.spawn_thread("t");
        rt.finish_thread(t).unwrap();
        assert!(matches!(rt.alloc_instance(t, class), Err(RuntimeError::UnknownThread(_))));
        assert!(rt.finish_thread(t).is_err(), "finishing twice is an error");
    }

    #[test]
    fn call_trace_reflects_stack_and_bci_updates() {
        let mut rt = small_runtime();
        let m1 = rt.register_method("A", "outer", "A.java", &[(0, 10)]);
        let m2 = rt.register_method("A", "inner", "A.java", &[(0, 20)]);
        let t = rt.spawn_thread("main");
        rt.push_frame(t, m1, 0).unwrap();
        rt.set_bci(t, 4).unwrap();
        rt.push_frame(t, m2, 0).unwrap();
        let trace = rt.call_trace(t).unwrap();
        assert_eq!(trace.frames(), &[Frame::new(m1, 4), Frame::new(m2, 0)]);
        assert_eq!(rt.stack_depth(t).unwrap(), 2);
        rt.pop_frame(t).unwrap();
        assert_eq!(rt.stack_depth(t).unwrap(), 1);
        assert!(matches!(rt.set_bci(ThreadId(88), 0), Err(RuntimeError::UnknownThread(_))));
    }

    #[test]
    fn set_bci_on_empty_stack_errors() {
        let mut rt = small_runtime();
        let t = rt.spawn_thread("main");
        assert!(matches!(rt.set_bci(t, 3), Err(RuntimeError::EmptyCallStack(_))));
        assert!(matches!(rt.pop_frame(t), Err(RuntimeError::EmptyCallStack(_))));
    }

    #[test]
    fn threads_round_robin_over_cpus_and_can_be_pinned() {
        let mut rt = small_runtime(); // tiny hierarchy: 4 CPUs
        let t0 = rt.spawn_thread("t0");
        let t1 = rt.spawn_thread("t1");
        let t4 = {
            for _ in 0..2 {
                rt.spawn_thread("x");
            }
            rt.spawn_thread("t4")
        };
        assert_eq!(rt.cpu_of(t0).unwrap(), 0);
        assert_eq!(rt.cpu_of(t1).unwrap(), 1);
        assert_eq!(rt.cpu_of(t4).unwrap(), 0, "wraps around the 4 CPUs");
        rt.set_thread_cpu(t0, 3).unwrap();
        assert_eq!(rt.cpu_of(t0).unwrap(), 3);
        let explicit = rt.spawn_thread_on_cpu("pinned", 2);
        assert_eq!(rt.cpu_of(explicit).unwrap(), 2);
    }

    #[test]
    fn numa_placement_and_query() {
        let mut rt = small_runtime();
        let class = rt.register_array_class("long[]", 8);
        let t = rt.spawn_thread_on_cpu("alloc", 0); // node 0 in the tiny topology
        let arr = rt.alloc_array(t, class, 8192).unwrap();
        // First touch by the allocating thread puts (at least) the first page on node 0.
        assert_eq!(rt.node_of_object(arr.id), Some(djx_memsim::NumaNode(0)));
        rt.place_object(arr.id, PlacementPolicy::Fixed(djx_memsim::NumaNode(1)))
            .unwrap();
        assert_eq!(rt.node_of_object(arr.id), Some(djx_memsim::NumaNode(1)));
        assert!(rt.place_object(ObjectId(999), PlacementPolicy::Interleaved).is_err());
    }

    #[test]
    fn raw_access_feeds_stats_but_has_no_object() {
        let mut rt = small_runtime();
        let rec = Arc::new(Recorder::default());
        rt.add_listener(rec.clone());
        let t = rt.spawn_thread("main");
        rt.raw_access(t, 0xdead_0000, AccessKind::Load).unwrap();
        assert_eq!(rt.stats().accesses, 1);
        assert_eq!(rec.accesses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn remove_listener_stops_delivery() {
        let mut rt = small_runtime();
        let rec = Arc::new(Recorder::default());
        let as_dyn: Arc<dyn RuntimeListener> = rec.clone();
        rt.add_listener(as_dyn.clone());
        let class = rt.register_class("X", 16);
        let t = rt.spawn_thread("main");
        rt.alloc_instance(t, class).unwrap();
        assert!(rt.remove_listener(&as_dyn));
        assert!(!rt.remove_listener(&as_dyn), "second removal is a no-op");
        rt.alloc_instance(t, class).unwrap();
        assert_eq!(rec.allocs.load(Ordering::Relaxed), 1);
        assert_eq!(rec.vm_ended.load(Ordering::Relaxed), 1, "detach delivers on_vm_end");
    }

    #[test]
    fn cpu_work_adds_modeled_cycles() {
        let mut rt = small_runtime();
        let t = rt.spawn_thread("main");
        let before = rt.modeled_cycles();
        rt.cpu_work(t, 10_000);
        assert_eq!(rt.modeled_cycles(), before + 10_000);
    }

    #[test]
    fn stats_track_peaks() {
        let mut rt = small_runtime();
        let class = rt.register_array_class("byte[]", 1);
        let t = rt.spawn_thread("main");
        let big = rt.alloc_array(t, class, 1 << 20).unwrap();
        rt.release(&big).unwrap();
        rt.collect_garbage();
        rt.alloc_array(t, class, 16).unwrap();
        let stats = rt.stats();
        assert!(stats.peak_heap_used >= 1 << 20);
        assert!(stats.peak_live_bytes >= 1 << 20);
    }
}
