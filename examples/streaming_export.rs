//! Streaming export: profile a workload while a background drainer pushes every
//! epoch-retired profile delta through a sink — continuous-push observability for
//! long-running services, instead of snapshot-pull.
//!
//! ```text
//! cargo run --release --example streaming_export
//! ```
//!
//! The session is built with [`SessionBuilder::stream_to_binary`]: a background
//! drainer thread closes buffer epochs every few milliseconds and appends each
//! non-empty delta to a binary epoch log (`djxperf::wire` frames).
//! Export cost scales with the *delta* — what changed since the last epoch — not
//! with the whole accumulated profile, and the sampling hot path never blocks on the
//! writer. At the end, [`Session::finish_export`] flushes the terminal record, and
//! the example proves the headline guarantee by replaying the log: the folded deltas
//! are byte-identical to the session's own final profile, and the replay answers the
//! code-centric view and the NUMA traffic matrix exactly as the session does.
//!
//! The output is deterministic: how many deltas the drainer cut, and so the log's
//! size, depends on its tick timing, so the example prints only sample counts and
//! render sizes, and checks the delta counts instead of printing them.

use std::time::Duration;

use djx_runtime::{dsl, Runtime, RuntimeConfig};
use djxperf::{BinaryChunkedSink, DrainPolicy, GroupBy, Query, Session, SharedBuffer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A session streaming its object-centric profile continuously: every retired
    //    epoch delta goes through the binary epoch-log sink into the shared buffer
    //    (a file or socket writer works the same way).
    let log = SharedBuffer::new();
    let mut rt = Runtime::new(RuntimeConfig::evaluation());
    let session = Session::builder()
        .period(128)
        .stream_to_binary(Box::new(log.clone()), DrainPolicy::new().tick(Duration::from_millis(2)))
        .attach(&mut rt);

    // 2. The monitored program: the batik Listing-1 bloat loop (a float[] allocated
    //    per iteration), long enough for many epochs to retire mid-run.
    let float_array = rt.register_array_class("float[]", 4);
    let make_room = dsl::MethodSpec::at_line(
        "ExtendedGeneralPath",
        "makeRoom",
        "ExtendedGeneralPath.java",
        743,
    )
    .register(&mut rt);
    let main_thread = rt.spawn_thread("main");
    for round in 0..10 {
        dsl::bloat_loop(&mut rt, main_thread, float_array, make_room, round * 50, 50, 2048, 128)?;
        // A mid-run snapshot also closes an epoch; with a stream attached its delta
        // is routed into the log instead of being discarded.
        let live = session.object_profile().expect("object collector registered");
        let streamed = session.export_stats().expect("the session streams");
        assert!(streamed.epochs_drained > u64::from(round), "every snapshot closed an epoch");
        println!("round {round:2}: {:6} samples live", live.total_samples());
    }
    rt.finish_thread(main_thread)?;
    rt.shutdown();

    // 3. Close the stream: final delta, terminal finish record, drainer joined.
    let stats = session.finish_export()?;
    assert!(stats.deltas_streamed > 0 && stats.deltas_streamed <= stats.epochs_drained);
    println!("\nstream closed: {} samples streamed", stats.samples_streamed);

    // 4. The loss-free guarantee, demonstrated end to end: replaying the epoch log
    //    folds every streamed delta back into a profile byte-identical to the
    //    session's terminal snapshot.
    let terminal = session.object_profile().expect("object collector registered");
    let contents = log.contents();
    let replayed = BinaryChunkedSink::new().read_log_bytes(&contents)?;
    assert_eq!(
        replayed.to_text(),
        terminal.to_text(),
        "replayed epoch log must be byte-identical to the terminal profile"
    );
    println!(
        "replayed the epoch log -> {} samples, byte-identical to the terminal profile ✓",
        replayed.total_samples(),
    );

    // The log carries every view: the replay's code-centric contexts and NUMA
    // traffic matrix equal the session's own.
    for axis in [GroupBy::Context, GroupBy::NodePair] {
        let query = Query::new().group_by(axis);
        let (live, replayed) = (query.evaluate(&*session)?, query.evaluate(&replayed)?);
        assert_eq!(replayed.to_json(), live.to_json(), "replayed {axis} view");
    }
    println!("replayed code view and NUMA traffic matrix equal the session's ✓");

    // 5. The replayed profile answers offline queries like any profile file.
    let report = Query::new().top(3).min_samples(1).evaluate(&replayed)?;
    let hottest = report.hottest().expect("the float[] site received samples");
    println!(
        "hottest object from the replayed stream: {} with {:.1}% of sampled misses",
        hottest.label,
        hottest.fraction_of_total * 100.0
    );

    // 6. Text and JSON are render targets, not transports: the terminal snapshot
    //    renders as a text profile for humans and a JSON document for dashboards,
    //    and neither reads back. The epoch log is the one format that does.
    let text_doc = terminal.to_text();
    let json_doc = terminal.to_json();
    for (name, render) in [("text", &text_doc), ("JSON", &json_doc)] {
        let err = BinaryChunkedSink::new()
            .read_log_bytes(render.as_bytes())
            .expect_err("renders do not read back");
        assert!(err.message.contains("render-only"), "{name}: {err}");
    }
    println!(
        "binary epoch log: the one format that reads back ✓ \
         (text snapshot: {} bytes, JSON rendering: {} bytes, both render-only)",
        text_doc.len(),
        json_doc.len(),
    );
    Ok(())
}
