//! Live dashboard: a subscription-first query watching a streaming session while
//! four threads ingest concurrently — O(delta) per epoch instead of re-evaluating
//! the whole profile every tick.
//!
//! ```text
//! cargo run --release --example live_dashboard
//! ```
//!
//! The session streams epoch-retired deltas through a background [`DeltaDrainer`];
//! [`Session::watch`] registers a [`Query`] on the session's [`LiveFold`], whose
//! group accumulators update incrementally as each delta retires; each render
//! ranks them the way a cold evaluation does.
//! A watcher thread renders at ~1 Hz via [`LiveQuery::next_epoch_timeout`] — a
//! *wait*, not a re-evaluation. At the end the example asserts the headline
//! guarantee: the final watched result is byte-identical to a cold
//! [`Query::evaluate`] over the session's terminal profile.
//!
//! [`DeltaDrainer`]: djxperf::DeltaDrainer
//! [`LiveFold`]: djxperf::LiveFold
//! [`LiveQuery::next_epoch_timeout`]: djxperf::LiveQuery::next_epoch_timeout

use std::time::Duration;

use djx_memsim::{HierarchyConfig, MemoryAccess, MemoryHierarchy};
use djx_runtime::{
    AllocationEvent, ClassId, Frame, MemoryAccessEvent, MethodId, ObjectId, RuntimeListener,
    ThreadId,
};
use djxperf::{DrainPolicy, Query, RankBy, Session, SharedBuffer};

const THREADS: u64 = 4;
const OBJECTS_PER_THREAD: u64 = 16;
const OBJECT_SIZE: u64 = 8 * 1024;
const ACCESSES_PER_THREAD: u64 = 120_000;

fn ingest(session: &Session, t: u64) {
    let thread = ThreadId(t + 1);
    let base = 0x4000_0000 + t * 0x100_0000;
    let class_name = format!("arena{t}[]");
    let call_trace = [Frame::new(MethodId(t as u32 + 1), 0)];
    for i in 0..OBJECTS_PER_THREAD {
        session.on_object_alloc(&AllocationEvent {
            object: ObjectId(t * OBJECTS_PER_THREAD + i + 1),
            class: ClassId(0),
            class_name: &class_name,
            start: base + i * OBJECT_SIZE,
            size: OBJECT_SIZE,
            thread,
            call_trace: &call_trace,
        });
    }
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::broadwell_like());
    let mut x = 0x9e3779b97f4a7c15u64 ^ t;
    for _ in 0..ACCESSES_PER_THREAD {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let obj = (x >> 33) % OBJECTS_PER_THREAD;
        let addr = base + obj * OBJECT_SIZE + (x % (OBJECT_SIZE / 8)) * 8;
        let outcome = hierarchy.access(MemoryAccess::load(0, addr, 8));
        session.on_memory_access(&MemoryAccessEvent {
            thread,
            outcome,
            call_trace: &call_trace,
            object: None,
        });
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A streaming session: epoch deltas retire every few milliseconds into an
    //    epoch log (any writer works — here a shared in-memory buffer).
    let log = SharedBuffer::new();
    let session = Session::builder()
        .period(64)
        .size_filter(1024)
        .stream_to_binary(Box::new(log.clone()), DrainPolicy::new().tick(Duration::from_millis(5)))
        .build();

    // 2. The dashboard subscription: one query, updated per retired epoch.
    let query = Query::new().rank_by(RankBy::WeightedEvents).top(5);
    let mut watch = session.watch(&query)?;

    let renders = std::thread::scope(|scope| -> Result<u32, Box<dyn std::error::Error>> {
        // 3. The watcher: renders at ~1 Hz. next_epoch_timeout blocks until an
        //    epoch retires (or the tick elapses with nothing new); None means the
        //    stream finished.
        let watcher = scope.spawn(move || {
            let mut renders = 0u32;
            loop {
                match watch.next_epoch_timeout(Duration::from_millis(1000)) {
                    Ok(Some(update)) => {
                        renders += 1;
                        println!(
                            "[tick {renders}] epoch {:?} v{} — {} groups, {} samples",
                            update.epoch,
                            update.version,
                            update.result.groups.len(),
                            update.result.total_samples,
                        );
                        if update.finished {
                            return renders;
                        }
                    }
                    Ok(None) => return renders,
                    Err(_) => println!("[tick] no epoch retired this second"),
                }
            }
        });

        // 4. Four producer threads race the watcher, each hammering its own arena.
        let session = &session;
        let producers: Vec<_> =
            (0..THREADS).map(|t| scope.spawn(move || ingest(session, t))).collect();
        for producer in producers {
            producer.join().expect("a producer thread panicked");
        }

        // 5. Finish the stream: the terminal record closes the fold and wakes the
        //    watcher one last time with `finished` set.
        let stats = session.finish_export()?;
        println!(
            "stream finished: {} samples over {} deltas",
            stats.samples_streamed, stats.deltas_streamed
        );
        Ok(watcher.join().expect("the watcher thread panicked"))
    })?;
    println!("watcher rendered {renders} incremental updates");

    // 6. Identity at finish: the watched result equals a cold evaluation over the
    //    session's terminal profile, byte for byte.
    let mut watch = session.watch(&query)?;
    let live = watch.current();
    assert!(live.finished, "a watch on a finished stream renders the terminal state");
    let terminal = session.object_profile().expect("object collector present");
    let cold = query.evaluate(&terminal)?;
    assert_eq!(live.result.to_text(), cold.to_text(), "live == cold (text)");
    assert_eq!(live.result.to_json(), cold.to_json(), "live == cold (json)");
    println!("watched result is byte-identical to the cold evaluation ✓");
    Ok(())
}
