//! Events agree with counters: a controlled run dumped through the
//! JSONL pipeline `repro --telemetry` runs carries one
//! `scheduler/freeze` and one `scheduler/unfreeze` event per
//! actuation, so the `freezes` and `unfreezes` that `report` counts
//! from the event stream equal the scheduler's `sched_servers_frozen`
//! and `sched_servers_unfrozen` counters in the same dump's metrics
//! snapshot. A pipeline that kept only some of those events would
//! break the equality, and with it the freeze-hold and link statistics
//! read from the stream.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_obs::{read_run, RunSummary};
use ampere_sim::SimDuration;
use ampere_telemetry::{JsonlSink, Telemetry};

use std::io::Write;

#[test]
fn freeze_events_equal_the_scheduler_counters() {
    // The file `repro --telemetry` writes: events, then the snapshot.
    let path =
        std::env::temp_dir().join(format!("ampere-event-counts-{}.jsonl", std::process::id()));
    let tel = Telemetry::builder()
        .sink(JsonlSink::create(&path).expect("create dump"))
        .build();
    // Three controlled rows on two workers: every row reports through
    // its own capture, replayed into `tel`.
    tel.scope(|| {
        let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(3, 2, 7));
        sharded.run_for(SimDuration::from_mins(60));
        sharded.finish();
    });
    tel.flush();
    let snapshot = tel.snapshot().expect("pipeline is enabled");
    std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(snapshot.to_jsonl().as_bytes()))
        .expect("append metrics snapshot");

    let run = read_run(&path).expect("dump parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(run.malformed_lines, 0);
    let summary = RunSummary::build(&run);
    let counter = |name: &str| {
        run.metric(name, &[])
            .and_then(|m| m.as_counter())
            .unwrap_or_else(|| panic!("{name} missing from the snapshot")) as f64
    };
    let frozen = counter("sched_servers_frozen");
    let unfrozen = counter("sched_servers_unfrozen");
    assert!(
        frozen > 0.0 && unfrozen > 0.0,
        "the run must freeze and unfreeze to check anything"
    );
    assert_eq!(summary.get("freezes"), Some(frozen));
    assert_eq!(summary.get("unfreezes"), Some(unfrozen));
}
