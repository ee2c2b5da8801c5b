//! Determinism contract of the parallel engine (DESIGN.md §9).
//!
//! The engine promises *structural* determinism: worker count is a
//! throughput knob, never an input. These tests pin the contract at
//! the observable boundaries — the telemetry JSONL dump, the offline
//! analyzer's report built from it, and the sharded testbed's
//! trajectory checksum must all be byte-identical whether the same
//! seeded run executes on one worker or many, and stable across
//! re-runs of the same seed.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_faults::FaultPlan;
use ampere_sim::SimDuration;
use ampere_telemetry::Capture;

use std::sync::Mutex;

/// Serializes the tests that install the process-global telemetry
/// pipeline: the dump file is per-scenario, but the global slot is
/// shared. Checksum-only tests need no lock: they run their fleets
/// under a standalone capture, so their events never reach the global
/// pipeline.
static GLOBAL_PIPELINE: Mutex<()> = Mutex::new(());

/// Runs a sharded fleet for 20 simulated minutes under its own
/// standalone telemetry capture, returning the trajectory checksum and
/// a dump of every shard's records.
fn isolated_run(config: ShardedTestbedConfig) -> (u64, String) {
    Capture::standalone().with(|| {
        let mut sharded = ShardedTestbed::new(config);
        sharded.run_for(SimDuration::from_mins(20));
        sharded.finish();
        let dump = (0..sharded.shard_count())
            .map(|s| format!("{:?}\n", sharded.records(s)))
            .collect();
        (sharded.checksum(), dump)
    })
}

fn dump_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ampere-parallel-properties-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Runs a 6-shard, 30-simulated-minute sharded testbed on `workers`
/// threads with the global pipeline streaming to a JSONL file, and
/// returns the dump contents and the final metrics snapshot as JSONL.
/// The pipeline has no phase profiler, so nothing in either reads the
/// wall clock.
fn sharded_dump(workers: usize, tag: &str) -> (String, String) {
    let _guard = GLOBAL_PIPELINE.lock().unwrap();
    let path = dump_path(tag);
    let sink = ampere_telemetry::JsonlSink::create(&path).expect("create dump");
    ampere_telemetry::install_global(ampere_telemetry::Telemetry::builder().sink(sink).build());

    let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(6, workers, 99));
    sharded.run_for(SimDuration::from_mins(30));
    sharded.finish();

    let tel = ampere_telemetry::global();
    tel.flush();
    let snapshot = tel.snapshot().expect("pipeline installed");
    ampere_telemetry::reset_global();
    (
        std::fs::read_to_string(&path).expect("read dump"),
        snapshot.to_jsonl(),
    )
}

#[test]
fn telemetry_dump_is_byte_identical_across_worker_counts() {
    // Events and the whole metrics snapshot, with no line filtered out.
    let serial = sharded_dump(1, "w1");
    assert!(
        serial.0.lines().count() > 10,
        "scenario emitted too little telemetry to be a meaningful check"
    );
    assert!(
        serial.1.contains("\"controller_ticks\"") && serial.1.contains("\"sched_jobs_placed\""),
        "snapshot must carry the controller and scheduler metrics"
    );
    for (workers, tag) in [(2, "w2"), (4, "w4")] {
        assert_eq!(
            serial,
            sharded_dump(workers, tag),
            "workers=1 and workers={workers} must produce byte-identical telemetry"
        );
    }
}

#[test]
fn telemetry_dump_is_stable_across_reruns() {
    let first = sharded_dump(2, "rerun-a");
    let second = sharded_dump(2, "rerun-b");
    assert_eq!(first, second, "same seed, same workers, same bytes");
}

#[test]
fn analyzer_report_is_identical_across_worker_counts() {
    let _ = sharded_dump(1, "report-w1");
    let _ = sharded_dump(3, "report-w3");
    let report = |tag: &str| {
        let run = ampere_obs::read_run(dump_path(tag).to_str().unwrap()).expect("parse dump");
        ampere_obs::RunReport::build(&run)
    };
    let serial = report("report-w1");
    let parallel = report("report-w3");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "offline analysis (RunSummary and all derived stats) must not see worker count"
    );
    assert_eq!(serial.to_markdown(), parallel.to_markdown());
}

/// Like [`sharded_dump`] but with the full hot-path pipeline armed:
/// per-tick batching, the deterministic 1-in-3 event sampler and the
/// tick-phase profiler. Returns the event dump and the final snapshot's
/// metric lines minus the profiler's (its wall-time histograms are the
/// one legitimately nondeterministic export).
fn sharded_dump_full(workers: usize, tag: &str) -> (String, String) {
    let _guard = GLOBAL_PIPELINE.lock().unwrap();
    let path = dump_path(tag);
    let sink = ampere_telemetry::JsonlSink::create(&path).expect("create dump");
    ampere_telemetry::install_global(
        ampere_telemetry::Telemetry::builder()
            .sink(sink)
            .batched(true)
            .sample_events(3, 99)
            .profiling(true)
            .build(),
    );

    let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(6, workers, 99));
    sharded.run_for(SimDuration::from_mins(30));
    sharded.finish();

    let tel = ampere_telemetry::global();
    tel.flush();
    let snapshot = tel.snapshot().expect("pipeline installed");
    ampere_telemetry::reset_global();
    let metrics: String = snapshot
        .to_jsonl()
        .lines()
        .filter(|l| !l.contains("\"profile_phase_wall_us\""))
        .collect::<Vec<_>>()
        .join("\n");
    (std::fs::read_to_string(&path).expect("read dump"), metrics)
}

#[test]
fn batched_sampled_profiled_dump_is_worker_count_invariant() {
    let (serial_events, serial_metrics) = sharded_dump_full(1, "full-w1");
    let (parallel_events, parallel_metrics) = sharded_dump_full(4, "full-w4");
    assert!(
        serial_events.lines().count() > 10,
        "full pipeline emitted too little telemetry to be a meaningful check"
    );
    assert_eq!(
        serial_events, parallel_events,
        "batching + sampling + profiling must keep the event stream byte-identical \
         across worker counts"
    );
    assert!(
        serial_metrics.contains("telemetry_events_sampled_out"),
        "sampler must be live in this scenario"
    );
    assert_eq!(
        serial_metrics, parallel_metrics,
        "merged per-shard metric cells (everything but the phase profiler's) must not \
         see worker count"
    );
}

#[test]
fn batching_preserves_event_bytes() {
    let (unbatched, _) = sharded_dump(2, "plain-w2");
    let (batched, _) = sharded_dump_full(2, "batched-w2");
    // The full pipeline also samples per-server events, so compare the
    // unsampled classes only: batching may never reorder or reformat.
    let keep = |line: &&str| {
        !line.contains("\"event\":\"freeze\"") && !line.contains("\"event\":\"unfreeze\"")
    };
    let unbatched: Vec<&str> = unbatched.lines().filter(keep).collect();
    let batched: Vec<&str> = batched.lines().filter(keep).collect();
    assert_eq!(
        unbatched, batched,
        "per-tick batching must flush the same bytes in the same order as direct emission"
    );
}

#[test]
fn handle_and_string_keyed_paths_export_identical_jsonl() {
    // The same update sequence through pre-registered handles vs a
    // string-keyed lookup per operation must snapshot to identical
    // bytes: handles are an access-path optimization, not a schema.
    let tel_handles = ampere_telemetry::Telemetry::builder().build();
    let tel_strings = ampere_telemetry::Telemetry::builder().build();

    let ticks: ampere_telemetry::CounterHandle = tel_handles.counter("controller_ticks", &[]);
    let power: ampere_telemetry::GaugeHandle = tel_handles.gauge("monitor_dc_power_w", &[]);
    let et: ampere_telemetry::HistogramHandle =
        tel_handles.histogram("controller_et", &[("domain", "row0")], &[0.5, 1.0, 2.0]);
    for i in 0..100 {
        ticks.inc();
        power.set(800.0 + i as f64);
        et.record(i as f64 / 40.0);
        tel_strings.counter("controller_ticks", &[]).inc();
        tel_strings
            .gauge("monitor_dc_power_w", &[])
            .set(800.0 + i as f64);
        tel_strings
            .histogram("controller_et", &[("domain", "row0")], &[0.5, 1.0, 2.0])
            .record(i as f64 / 40.0);
    }
    let via_handles = tel_handles.snapshot().expect("registry").to_jsonl();
    let via_strings = tel_strings.snapshot().expect("registry").to_jsonl();
    assert_eq!(
        via_handles, via_strings,
        "handle path and string-keyed path must export byte-identical JSONL"
    );
    assert!(via_handles.contains("controller_ticks"));
}

#[test]
fn trajectory_checksum_is_worker_count_invariant() {
    let checksum = |rows: usize, workers: usize, seed: u64| {
        isolated_run(ShardedTestbedConfig::quick(rows, workers, seed)).0
    };
    let reference = checksum(5, 1, 7);
    for workers in [2, 3, 5, 8] {
        assert_eq!(
            checksum(5, workers, 7),
            reference,
            "checksum diverged at workers={workers}"
        );
    }
    assert_ne!(
        checksum(5, 1, 8),
        reference,
        "different seeds must diverge — otherwise the checksum is vacuous"
    );
}

/// Runs a config at workers 1/2/4 and asserts all three checksums and
/// per-shard record dumps agree; returns the common checksum.
fn worker_invariant_checksum(make: impl Fn(usize) -> ShardedTestbedConfig) -> u64 {
    let (reference, reference_dump) = isolated_run(make(1));
    for workers in [2, 4] {
        let (checksum, dump) = isolated_run(make(workers));
        assert_eq!(
            checksum, reference,
            "checksum diverged at workers={workers}"
        );
        assert_eq!(
            dump, reference_dump,
            "records diverged at workers={workers}"
        );
    }
    reference
}

#[test]
fn shard_count_not_divisible_by_workers_is_invariant() {
    // 7 shards over 2 and 4 workers: uneven tails at every barrier.
    worker_invariant_checksum(|workers| ShardedTestbedConfig::quick(7, workers, 11));
}

#[test]
fn one_server_rows_are_invariant() {
    // Degenerate shards: each row is a single server, so the row
    // rollup, the freeze candidate set and the placement queue all
    // operate on one element.
    let checksum = worker_invariant_checksum(|workers| ShardedTestbedConfig {
        spec: ampere_cluster::ClusterSpec {
            rows: 1,
            racks_per_row: 1,
            servers_per_rack: 1,
            ..ampere_cluster::ClusterSpec::tiny()
        },
        ..ShardedTestbedConfig::quick(5, workers, 13)
    });
    assert_ne!(checksum, 0, "degenerate fleet still records a trajectory");
}

#[test]
fn idle_fleet_with_zero_jobs_is_invariant() {
    // No arrivals at all: power is pure idle draw, the controller
    // never freezes, and the checksum must still be stable and
    // worker-count invariant.
    let idle = |workers: usize| ShardedTestbedConfig {
        profile: ampere_workload::RateProfile::Constant { per_min: 0.0 },
        ..ShardedTestbedConfig::quick(6, workers, 17)
    };
    let checksum = worker_invariant_checksum(idle);
    // An idle fleet is deterministic across reruns too.
    assert_eq!(checksum, worker_invariant_checksum(idle));
}

#[test]
fn faulted_fleet_is_invariant() {
    // Sensor dropout, bias and noise, lost sweeps and lost freeze RPCs
    // on every shard, each drawing from its own sub-seeded streams.
    let faulted = |workers: usize| ShardedTestbedConfig {
        faults: Some(FaultPlan {
            sample_dropout: 0.05,
            sweep_loss: 0.02,
            sensor_noise: 0.01,
            sensor_bias: 0.02,
            rpc_loss: 0.05,
            ..FaultPlan::seeded(7)
        }),
        ..ShardedTestbedConfig::quick(6, workers, 99)
    };
    let checksum = worker_invariant_checksum(faulted);
    // The fault plan actually bit: a clean run differs.
    let clean = isolated_run(ShardedTestbedConfig::quick(6, 4, 99)).0;
    assert_ne!(checksum, clean, "fault plan had no effect");
}
