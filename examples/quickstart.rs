//! Quickstart: profile a tiny memory-bloat program with a unified session and print
//! every view one pass produces.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The program allocates a `float[]` inside a loop (the batik Listing 1 pattern), works
//! over it, and throws it away. A [`Session`] samples L1 misses once and records each
//! sample once: at the object (allocation site) enclosing the sampled address, at its
//! calling context — the perf-like baseline, for comparison — and in the cross-node
//! traffic matrix. Analysis is one composable [`Query`]
//! evaluated straight against the session — the hot `float[]` should come out on top,
//! with its allocation call path resolved to
//! `ExtendedGeneralPath.makeRoom (ExtendedGeneralPath.java:743)`. The same query value
//! answers identically over a snapshot, a replayed epoch log, or a multi-process fold
//! (see `examples/query.rs` for that walkthrough).

use djx_runtime::{dsl, Runtime, RuntimeConfig};
use djxperf::{GroupBy, Query, RankBy, Report, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulated managed runtime (the JVM stand-in) with a session attached at
    //    launch: the sampling substrate is configured once, each sample is recorded
    //    once, and the object-centric, code-centric and NUMA views all read that
    //    record.
    let mut rt = Runtime::new(RuntimeConfig::evaluation());
    let session = Session::builder().period(128).collect_objects().attach(&mut rt);

    // 2. The monitored program: 500 iterations, each allocating an 8 KiB float[] in
    //    makeRoom and doing a read-modify-write pass over it.
    let float_array = rt.register_array_class("float[]", 4);
    let make_room = dsl::MethodSpec::at_line(
        "ExtendedGeneralPath",
        "makeRoom",
        "ExtendedGeneralPath.java",
        743,
    )
    .register(&mut rt);
    let main_thread = rt.spawn_thread("main");
    dsl::bloat_loop(&mut rt, main_thread, float_array, make_room, 0, 500, 2048, 128)?;
    rt.finish_thread(main_thread)?;
    rt.shutdown();

    // 3. Analysis is a Query: group samples by object identity, rank by estimated L1
    //    misses, keep the ten hottest sites with at least one sample. The query
    //    evaluates directly against the live session (a pause-free snapshot under
    //    the hood) — and the identical value would answer the same over a snapshot,
    //    a replayed epoch log, or a MultiSource fold of N process logs.
    let query = Query::new()
        .group_by(GroupBy::Object)
        .rank_by(RankBy::WeightedEvents)
        .top(10)
        .min_samples(1);
    let ranked = session.query(&query)?;

    let profile = session.object_profile().expect("object collector registered");
    println!(
        "collected {} samples over {} monitored allocations ({} GC relocations applied)\n",
        ranked.total_samples,
        profile.allocation_stats.monitored,
        profile.allocation_stats.relocations,
    );
    println!("{}", Report::query(&ranked, rt.methods()));

    let hottest = ranked.hottest().expect("the float[] site must receive samples");
    println!(
        "=> hottest object: {} with {:.1}% of sampled L1 misses, allocated {} times",
        hottest.label,
        hottest.fraction_of_total * 100.0,
        hottest.metrics.allocations
    );

    // 4. The same record also answers the code-centric baseline ...
    let code = Query::new().group_by(GroupBy::Context).top(1).evaluate(&*session)?;
    println!(
        "\ncode-centric baseline from the same pass: hottest single location {:.1}%",
        code.hottest().map_or(0.0, |c| c.fraction_of_total) * 100.0
    );

    // 5. ... and a machine-readable export of the query result for dashboards.
    println!(
        "query result JSON: {} bytes (a write-only render; only a binary epoch log \
         reads back, through read_log_bytes)",
        ranked.to_json().len()
    );
    Ok(())
}
