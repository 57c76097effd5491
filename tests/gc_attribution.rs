//! Garbage-collection interactions (§4.5): object moves, reclamations, address reuse and
//! attach-mode gaps must not corrupt object attribution.

use std::sync::Arc;

use djx_runtime::{dsl, GcConfig, HeapConfig, Runtime, RuntimeConfig};
use djxperf::{GroupKey, ObjectCentricProfile, ProfilerConfig, Query, QueryResult, Session};

fn analyze(profile: &ObjectCentricProfile) -> QueryResult {
    Query::new().evaluate(profile).unwrap()
}

/// An objects-only session with `config`, attached to `rt`.
fn attach(rt: &mut Runtime, config: ProfilerConfig) -> Arc<Session> {
    Session::builder().config(config).collect_objects().attach(rt)
}

/// A runtime with a small heap and an aggressive proactive GC, so compactions (and the
/// object moves they cause) happen constantly.
fn churny_runtime() -> Runtime {
    let config = RuntimeConfig::small()
        .with_heap(HeapConfig::with_capacity(2 * 1024 * 1024))
        .with_gc(GcConfig::every_allocated_bytes(256 * 1024));
    Runtime::new(config)
}

#[test]
fn attribution_survives_heavy_compaction() {
    let mut rt = churny_runtime();
    let profiler = attach(&mut rt, ProfilerConfig::default().with_period(32));
    let class = rt.register_array_class("long[] (survivor)", 8);
    let junk_class = rt.register_array_class("byte[] (junk)", 1);
    let site = rt.register_method("Churn", "allocate", "Churn.java", &[(0, 10)]);
    let t = rt.spawn_thread("main");

    // A long-lived survivor that keeps being accessed while short-lived junk forces
    // collection after collection. The plug sits below the survivor so that, once it
    // dies, the next compaction has to slide the survivor to a new address.
    let plug = rt.alloc_array(t, junk_class, 32 * 1024).unwrap();
    let survivor =
        dsl::with_frame(&mut rt, t, site, 0, |rt| rt.alloc_array(t, class, 8192)).unwrap();
    for round in 0..60u64 {
        let junk = rt.alloc_array(t, junk_class, 32 * 1024).unwrap();
        rt.store_elem(t, &junk, 0).unwrap();
        rt.release(&junk).unwrap();
        if round == 10 {
            rt.release(&plug).unwrap();
        }
        // Touch the survivor after the GC may have moved it (scattered lines so the tiny
        // L1 cannot hold the whole working set).
        for line in 0..64u64 {
            rt.load_elem(t, &survivor, (round * 37 + line * 8 * 13) % survivor.len())
                .unwrap();
        }
    }
    rt.finish_thread(t).unwrap();
    rt.shutdown();

    let stats = profiler.allocation_stats();
    assert!(
        rt.stats().gc_cycles >= 5,
        "the workload must actually churn, got {} GCs",
        rt.stats().gc_cycles
    );
    assert!(stats.relocations > 0, "the survivor must have been moved and re-indexed");
    assert!(stats.reclamations > 0, "junk must have been removed from the splay tree");

    let report = analyze(&profiler.object_profile().unwrap());
    let survivor_report = report.find_class("long[] (survivor)").expect("survivor attributed");
    assert!(survivor_report.metrics.samples > 0);
    // Samples taken after relocations still resolve: nothing leaks into the
    // unattributed bucket beyond a small tail (junk is below its first touch or filtered).
    let unattributed = report.total_weighted_events - report.attributed_weighted_events;
    assert!(
        (unattributed as f64) < 0.2 * report.total_weighted_events as f64,
        "post-GC samples must still resolve to objects ({unattributed} unattributed)"
    );
}

#[test]
fn address_reuse_after_reclamation_attributes_to_the_new_object() {
    let mut rt = Runtime::new(RuntimeConfig::small());
    let profiler = attach(&mut rt, ProfilerConfig::default().with_period(8));
    let old_class = rt.register_array_class("double[] (old generation)", 8);
    let new_class = rt.register_array_class("double[] (new tenant)", 8);
    let t = rt.spawn_thread("main");

    let old = rt.alloc_array(t, old_class, 4096).unwrap();
    rt.release(&old).unwrap();
    rt.collect_garbage();
    // The new object reuses the exact address range the old one occupied.
    let new = rt.alloc_array(t, new_class, 4096).unwrap();
    assert_eq!(rt.address_of(new.id), Some(rt.heap().config().base));
    dsl::sequential_sweep(&mut rt, t, &new).unwrap();
    rt.shutdown();

    let report = analyze(&profiler.object_profile().unwrap());
    let new_report = report.find_class("double[] (new tenant)").expect("new object sampled");
    assert!(new_report.metrics.samples > 0);
    let old_report = report.find_class("double[] (old generation)");
    assert_eq!(
        old_report.map(|o| o.metrics.samples).unwrap_or(0),
        0,
        "no sample may be attributed to the reclaimed object"
    );
}

#[test]
fn attach_mode_tracks_objects_first_seen_when_the_gc_moves_them() {
    let mut rt = churny_runtime();
    let class = rt.register_array_class("float[] (pre-attach)", 4);
    let t = rt.spawn_thread("main");

    // The program allocates before any profiler is attached. The dead object sits below
    // the survivor so the first collection relocates the survivor.
    let dead = rt.alloc_array(t, class, 8 * 1024).unwrap();
    let early = rt.alloc_array(t, class, 8 * 1024).unwrap();
    rt.release(&dead).unwrap();

    // Attach mid-run (the paper's attach/detach mode for production services).
    let profiler = attach(
        &mut rt,
        ProfilerConfig { attach_mode: true, ..ProfilerConfig::default() }.with_period(16),
    );
    assert_eq!(profiler.allocation_stats().callbacks, 0, "the early allocations were missed");

    // A collection moves the pre-attach survivor; attach mode must start tracking it.
    rt.collect_garbage();
    assert!(profiler.allocation_stats().unknown_moves > 0);
    dsl::sequential_sweep(&mut rt, t, &early).unwrap();
    rt.shutdown();

    let report = analyze(&profiler.object_profile().unwrap());
    let unattributed_site = report
        .find_class(djxperf::AllocSiteRegistry::UNATTRIBUTED_CLASS)
        .expect("attach mode records the moved object under the unattributed site");
    assert!(unattributed_site.metrics.samples > 0);
    assert!(
        matches!(&unattributed_site.key, GroupKey::Object { alloc_path, .. } if alloc_path.is_empty())
    );
}

#[test]
fn without_attach_mode_pre_attach_objects_stay_unattributed() {
    let mut rt = churny_runtime();
    let class = rt.register_array_class("float[] (pre-attach)", 4);
    let t = rt.spawn_thread("main");
    let early = rt.alloc_array(t, class, 8 * 1024).unwrap();

    let profiler = attach(&mut rt, ProfilerConfig::default().with_period(16));
    rt.collect_garbage();
    dsl::sequential_sweep(&mut rt, t, &early).unwrap();
    rt.shutdown();

    assert_eq!(profiler.allocation_stats().unknown_moves, 0);
    let profile = profiler.object_profile().unwrap();
    assert!(
        profile.threads[0].unattributed.samples > 0,
        "samples on the unknown object fall through"
    );
    assert_eq!(profiler.live_monitored_objects(), 0);
}

#[test]
fn listener_sharing_is_thread_safe_by_construction() {
    // The profiler is shared as Arc<dyn RuntimeListener>; assert it is Send + Sync so the
    // logical-thread simulation could be driven from real threads as well.
    fn assert_send_sync<T: Send + Sync>(_: &T) {}
    let profiler = Session::builder().collect_objects().build();
    assert_send_sync(&profiler);
}
