//! The simulated object heap: bump allocation plus sliding compaction.
//!
//! The heap hands out address ranges for objects exactly like a young/old generation
//! managed by a compacting collector would: objects are allocated by bumping a free
//! pointer, and a collection slides every live object towards the bottom of the heap,
//! changing object addresses (which DJXPerf has to cope with, §4.5 of the paper).

use djx_memsim::Addr;

use crate::class::ClassId;
use crate::error::RuntimeError;
use crate::ids::ObjectId;

/// Size in bytes of the per-object header (mark word + class pointer on a 64-bit
/// HotSpot).
pub const OBJECT_HEADER_SIZE: u64 = 16;

/// Allocation alignment in bytes.
pub const OBJECT_ALIGNMENT: u64 = 8;

/// Heap geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Base virtual address of the heap.
    pub base: Addr,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl HeapConfig {
    /// Creates a heap configuration with the default base address.
    pub fn with_capacity(capacity: u64) -> Self {
        Self { base: 0x1_0000_0000, capacity }
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        // 256 MiB is plenty for every workload in the evaluation while keeping the
        // simulated address space compact.
        Self::with_capacity(256 * 1024 * 1024)
    }
}

/// The heap-resident record of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Stable identity of the object (does not change when the GC moves it).
    pub id: ObjectId,
    /// Class of the object.
    pub class: ClassId,
    /// Current start address.
    pub addr: Addr,
    /// Total size in bytes, header included.
    pub size: u64,
    /// Whether the object is still reachable. Dead objects are reclaimed by the next
    /// collection.
    pub live: bool,
}

impl ObjectRecord {
    /// Exclusive end address of the object.
    pub fn end(&self) -> Addr {
        self.addr + self.size
    }

    /// `true` when `addr` falls inside the object's current range.
    pub fn contains(&self, addr: Addr) -> bool {
        (self.addr..self.end()).contains(&addr)
    }
}

/// A lightweight handle to an allocated object, given to workloads.
///
/// The handle names the object by identity, not by address, because the collector may
/// move the object; the runtime re-resolves the current address on every access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjRef {
    /// Stable object identity.
    pub id: ObjectId,
    /// Class of the object.
    pub class: ClassId,
    /// Total size in bytes, header included.
    pub size: u64,
    /// Element size when the object is an array, used by element-indexed accessors.
    pub elem_size: Option<u64>,
}

impl ObjRef {
    /// Number of elements for array objects (payload size / element size), or 0 for
    /// instance objects.
    pub fn len(&self) -> u64 {
        match self.elem_size {
            Some(es) if es > 0 => (self.size - OBJECT_HEADER_SIZE) / es,
            _ => 0,
        }
    }

    /// `true` if the array has no elements (always `true` for non-arrays).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One object relocation performed by a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapMove {
    /// The moved object.
    pub id: ObjectId,
    /// Address before the collection.
    pub old_addr: Addr,
    /// Address after the collection.
    pub new_addr: Addr,
    /// Object size in bytes.
    pub size: u64,
}

/// One object reclamation performed by a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapReclaim {
    /// The reclaimed object.
    pub id: ObjectId,
    /// Address the object occupied.
    pub addr: Addr,
    /// Object size in bytes.
    pub size: u64,
    /// Class of the reclaimed object.
    pub class: ClassId,
}

/// The outcome of one compaction: which objects moved and which were reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Objects whose address changed, in ascending new-address order.
    pub moves: Vec<HeapMove>,
    /// Objects that were dead and have been reclaimed.
    pub reclaimed: Vec<HeapReclaim>,
    /// Bytes in use after the compaction.
    pub used_after: u64,
}

/// The simulated heap.
#[derive(Debug, Clone)]
pub struct Heap {
    config: HeapConfig,
    /// Bump offset from `config.base` of the next free byte.
    free_off: u64,
    /// All objects currently known to the heap (live and dead-but-not-yet-reclaimed),
    /// kept in allocation-address order for compaction.
    objects: Vec<ObjectRecord>,
    /// Index from object id to position in `objects`.
    index: std::collections::HashMap<ObjectId, usize>,
    next_id: u64,
    live_bytes: u64,
    peak_used: u64,
    peak_live: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new(config: HeapConfig) -> Self {
        Self {
            config,
            free_off: 0,
            objects: Vec::new(),
            index: std::collections::HashMap::new(),
            next_id: 1,
            live_bytes: 0,
            peak_used: 0,
            peak_live: 0,
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> HeapConfig {
        self.config
    }

    /// Bytes currently occupied (from the heap base to the bump pointer).
    pub fn used_bytes(&self) -> u64 {
        self.free_off
    }

    /// Bytes still available for bump allocation.
    pub fn free_bytes(&self) -> u64 {
        self.config.capacity - self.free_off
    }

    /// Bytes occupied by live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Highest value `used_bytes` has reached.
    pub fn peak_used_bytes(&self) -> u64 {
        self.peak_used
    }

    /// Highest value `live_bytes` has reached.
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live
    }

    /// Rounds a payload size up to the heap's allocation granularity, header included.
    pub fn aligned_total_size(payload: u64) -> u64 {
        let total = payload + OBJECT_HEADER_SIZE;
        total.div_ceil(OBJECT_ALIGNMENT) * OBJECT_ALIGNMENT
    }

    /// Attempts to allocate an object with `payload` bytes of user data. Returns `None`
    /// when the heap has no room (the caller is expected to collect and retry).
    pub fn try_alloc(&mut self, class: ClassId, payload: u64) -> Option<ObjectRecord> {
        let size = Self::aligned_total_size(payload);
        if self.free_off + size > self.config.capacity {
            return None;
        }
        let addr = self.config.base + self.free_off;
        self.free_off += size;
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let record = ObjectRecord { id, class, addr, size, live: true };
        self.index.insert(id, self.objects.len());
        self.objects.push(record);
        self.live_bytes += size;
        self.peak_used = self.peak_used.max(self.free_off);
        self.peak_live = self.peak_live.max(self.live_bytes);
        Some(record)
    }

    /// Looks up an object by id.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.index.get(&id).map(|i| &self.objects[*i])
    }

    /// Marks an object as unreachable. Returns an error if the object is unknown.
    /// Idempotent for objects already marked dead.
    pub fn mark_dead(&mut self, id: ObjectId) -> Result<(), RuntimeError> {
        let idx = *self.index.get(&id).ok_or(RuntimeError::UnknownObject(id))?;
        let record = &mut self.objects[idx];
        if record.live {
            record.live = false;
            self.live_bytes -= record.size;
        }
        Ok(())
    }

    /// `true` if the object exists and is live.
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.get(id).map(|o| o.live).unwrap_or(false)
    }

    /// Iterates over all tracked objects in address order.
    pub fn objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.objects.iter()
    }

    /// Performs a sliding (mark-compact) collection: dead objects are reclaimed, live
    /// objects are slid towards the heap base preserving their order, and the bump
    /// pointer is reset to the end of the last live object.
    pub fn compact(&mut self) -> CompactionOutcome {
        let mut outcome = CompactionOutcome::default();
        let mut new_objects = Vec::with_capacity(self.objects.len());
        let mut new_index = std::collections::HashMap::with_capacity(self.objects.len());
        let mut offset = 0u64;

        for record in &self.objects {
            if !record.live {
                outcome.reclaimed.push(HeapReclaim {
                    id: record.id,
                    addr: record.addr,
                    size: record.size,
                    class: record.class,
                });
                continue;
            }
            let new_addr = self.config.base + offset;
            let mut moved = *record;
            if new_addr != record.addr {
                outcome.moves.push(HeapMove {
                    id: record.id,
                    old_addr: record.addr,
                    new_addr,
                    size: record.size,
                });
                moved.addr = new_addr;
            }
            offset += moved.size;
            new_index.insert(moved.id, new_objects.len());
            new_objects.push(moved);
        }

        self.objects = new_objects;
        self.index = new_index;
        self.free_off = offset;
        outcome.used_after = offset;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(capacity: u64) -> Heap {
        Heap::new(HeapConfig::with_capacity(capacity))
    }

    #[test]
    fn aligned_total_size_includes_header_and_alignment() {
        assert_eq!(Heap::aligned_total_size(0), 16);
        assert_eq!(Heap::aligned_total_size(1), 24);
        assert_eq!(Heap::aligned_total_size(8), 24);
        assert_eq!(Heap::aligned_total_size(48), 64);
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut h = heap(1024);
        let a = h.try_alloc(ClassId(0), 8).unwrap();
        let b = h.try_alloc(ClassId(0), 8).unwrap();
        assert_eq!(b.addr, a.end());
        assert_eq!(h.used_bytes(), a.size + b.size);
        assert!(h.get(a.id).unwrap().contains(a.addr + 5));
        assert!(!h.get(a.id).unwrap().contains(b.addr));
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut h = heap(64);
        assert!(h.try_alloc(ClassId(0), 40).is_some()); // 56 bytes
        assert!(h.try_alloc(ClassId(0), 40).is_none());
        assert_eq!(h.free_bytes(), 8);
    }

    #[test]
    fn mark_dead_and_compact_reclaims() {
        let mut h = heap(4096);
        let a = h.try_alloc(ClassId(0), 100).unwrap();
        let b = h.try_alloc(ClassId(0), 100).unwrap();
        let c = h.try_alloc(ClassId(0), 100).unwrap();
        h.mark_dead(b.id).unwrap();
        assert_eq!(h.live_bytes(), a.size + c.size);

        let outcome = h.compact();
        assert_eq!(outcome.reclaimed.len(), 1);
        assert_eq!(outcome.reclaimed[0].id, b.id);
        assert_eq!(outcome.moves.len(), 1, "only c moves (a is already at the base)");
        assert_eq!(outcome.moves[0].id, c.id);
        assert_eq!(outcome.moves[0].new_addr, a.end());
        assert_eq!(h.used_bytes(), a.size + c.size);
        assert!(h.get(b.id).is_none(), "reclaimed objects are forgotten");
        assert_eq!(h.get(c.id).unwrap().addr, a.end());
    }

    #[test]
    fn compact_with_no_dead_objects_moves_nothing() {
        let mut h = heap(4096);
        h.try_alloc(ClassId(0), 64).unwrap();
        h.try_alloc(ClassId(0), 64).unwrap();
        let outcome = h.compact();
        assert!(outcome.moves.is_empty());
        assert!(outcome.reclaimed.is_empty());
    }

    #[test]
    fn compaction_makes_room_for_new_allocations() {
        let mut h = heap(256);
        let a = h.try_alloc(ClassId(0), 100).unwrap(); // 120 bytes
        let b = h.try_alloc(ClassId(0), 100).unwrap(); // 120 bytes -> 240 used
        assert!(h.try_alloc(ClassId(0), 100).is_none());
        h.mark_dead(a.id).unwrap();
        h.compact();
        let c = h.try_alloc(ClassId(0), 100).unwrap();
        assert_eq!(c.addr, b.addr.min(h.config().base) + h.get(b.id).unwrap().size);
        assert!(h.is_live(c.id));
    }

    #[test]
    fn mark_dead_unknown_object_errors() {
        let mut h = heap(128);
        assert_eq!(h.mark_dead(ObjectId(999)), Err(RuntimeError::UnknownObject(ObjectId(999))));
    }

    #[test]
    fn mark_dead_is_idempotent() {
        let mut h = heap(128);
        let a = h.try_alloc(ClassId(0), 8).unwrap();
        h.mark_dead(a.id).unwrap();
        h.mark_dead(a.id).unwrap();
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn peaks_track_high_watermarks() {
        let mut h = heap(4096);
        let a = h.try_alloc(ClassId(0), 1000).unwrap();
        h.mark_dead(a.id).unwrap();
        h.compact();
        h.try_alloc(ClassId(0), 100).unwrap();
        assert_eq!(h.peak_used_bytes(), a.size);
        assert_eq!(h.peak_live_bytes(), a.size);
        assert!(h.used_bytes() < h.peak_used_bytes());
    }

    #[test]
    fn objref_length_accounts_for_header() {
        let r = ObjRef {
            id: ObjectId(1),
            class: ClassId(0),
            size: Heap::aligned_total_size(4 * 100),
            elem_size: Some(4),
        };
        assert_eq!(r.len(), 100);
        assert!(!r.is_empty());
        let scalar = ObjRef { id: ObjectId(2), class: ClassId(0), size: 32, elem_size: None };
        assert_eq!(scalar.len(), 0);
        assert!(scalar.is_empty());
    }
}
