//! Microbenchmark of the per-sample attribution path (§4.2): object-index lookup +
//! calling-context insertion + metric update, i.e. exactly the work DJXPerf's signal
//! handler performs per PMU sample, measured end to end through a profiling
//! [`Session`] (allocation agent populating the shared index, sampler, index
//! resolution, object-centric collector).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::Session;

const OBJECTS: u64 = 2_000;
const OBJECT_SIZE: u64 = 8 * 1024;

/// A session whose shared index holds `OBJECTS` monitored objects, populated through
/// the real allocation-event path.
fn session_with_objects(period: u64) -> Arc<Session> {
    let session = Session::builder().period(period).collect_objects().build();
    for i in 0..OBJECTS {
        let trace = [Frame::new(MethodId((i % 64) as u32), 5)];
        session.on_object_alloc(&AllocationEvent {
            object: ObjectId(i + 1),
            class: ClassId(0),
            class_name: "bench[]",
            start: 0x4000_0000 + i * OBJECT_SIZE,
            size: OBJECT_SIZE,
            thread: ThreadId(1),
            call_trace: &trace,
        });
    }
    session
}

fn bench_sample_attribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_attribution");
    group.sample_size(20);

    // Pre-simulate an access stream so the benchmark isolates the profiler-side work.
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
    let mut x = 0x853c49e6748fea9bu64;
    let outcomes: Vec<_> = (0..50_000u64)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let obj = (x >> 33) % OBJECTS;
            let addr = 0x4000_0000 + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
            hierarchy.access(MemoryAccess::load(0, addr, 8))
        })
        .collect();
    let call_trace = [
        Frame::new(MethodId(1), 0),
        Frame::new(MethodId(2), 4),
        Frame::new(MethodId(3), 8),
        Frame::new(MethodId(4), 12),
    ];

    for period in [64u64, 512, 4096] {
        group.throughput(Throughput::Elements(outcomes.len() as u64));
        group.bench_function(format!("period_{period}"), |b| {
            b.iter(|| {
                let session = session_with_objects(period);
                for outcome in &outcomes {
                    session.on_memory_access(&MemoryAccessEvent {
                        thread: ThreadId(1),
                        outcome: *outcome,
                        call_trace: &call_trace,
                        object: None,
                    });
                }
                black_box(session.total_samples())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sample_attribution);
criterion_main!(benches);
