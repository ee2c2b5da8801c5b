//! Naming contract for telemetry exports (DESIGN.md §11).
//!
//! Telemetry names are `snake_case` with a short component prefix and
//! unit suffixes where the value has one; kebab-case is reserved for
//! CLI slugs. The tables below mirror the audit table in DESIGN.md §11
//! verbatim; an instrumented run asserts that everything actually
//! exported appears in them, so a new or renamed metric/event fails
//! here until both the table and this test acknowledge it.

use ampere_cluster::{ClusterSpec, ServerId};
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile, ParitySplit};
use ampere_experiments::{
    DomainId, DomainSpec, ShardedTestbed, ShardedTestbedConfig, Testbed, TestbedConfig,
};
use ampere_faults::{FaultPlan, OutageWindow};
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{SimDuration, SimTime};
use ampere_workload::RateProfile;

use std::collections::BTreeSet;

/// Every metric name the workspace may export (DESIGN.md §11).
const METRICS: &[&str] = &[
    "breaker_violations",
    "breaker_violation_run_mins",
    "controller_ticks",
    "controller_degraded_ticks",
    "controller_power_norm",
    "controller_et",
    "predict_error_norm",
    "fault_outage_ticks",
    "fault_rpcs_lost",
    "fault_samples_dropped",
    "fault_sweeps_lost",
    "fault_grants_lost",
    "fault_arbiter_outage_rounds",
    "monitor_dc_power_w",
    "monitor_samples_ingested",
    "monitor_sweeps_ingested",
    "sched_jobs_submitted",
    "sched_jobs_placed",
    "sched_jobs_completed",
    "sched_queue_len",
    "sched_redundant_ops",
    "sched_servers_frozen",
    "sched_servers_unfrozen",
    "sched_wait_rounds",
    "sched_freeze_mins",
    "telemetry_sink_errors",
    "watchdog_backstop_arms",
    "profile_phase_wall_us",
    "profile_bench_ops",
];

/// Every `(component, event)` pair the workspace may emit.
const EVENTS: &[(&str, &str)] = &[
    ("arbiter", "reallocate"),
    ("arbiter", "grant"),
    ("breaker", "violation"),
    ("breaker", "trip"),
    ("controller", "tick"),
    ("controller", "mode"),
    ("controller", "failover"),
    ("faults", "sweep_lost"),
    ("faults", "sweep_degraded"),
    ("faults", "outage_begin"),
    ("faults", "outage_end"),
    ("faults", "rpc_lost"),
    ("faults", "grant_lost"),
    ("faults", "arbiter_outage_begin"),
    ("faults", "arbiter_outage_end"),
    ("monitor", "sweep"),
    ("scheduler", "clock_unset"),
    ("scheduler", "freeze"),
    ("scheduler", "unfreeze"),
    ("scheduler", "dispatch"),
    ("tsdb", "out_of_order"),
    ("watchdog", "backstop_armed"),
    ("watchdog", "backstop_disarmed"),
];

fn is_snake_case(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[test]
fn declared_names_are_snake_case_with_component_prefix() {
    for name in METRICS {
        assert!(is_snake_case(name), "metric {name:?} is not snake_case");
        assert!(
            name.contains('_'),
            "metric {name:?} lacks a component prefix"
        );
    }
    for (component, event) in EVENTS {
        assert!(
            is_snake_case(component) && is_snake_case(event),
            "event {component}/{event} is not snake_case"
        );
    }
    // The table is a set — a duplicate row means a stale audit.
    assert_eq!(METRICS.len(), METRICS.iter().collect::<BTreeSet<_>>().len());
    assert_eq!(EVENTS.len(), EVENTS.iter().collect::<BTreeSet<_>>().len());
}

/// A faulted, controlled single testbed: exercises controller,
/// predictor, scheduler, monitor, tsdb, breaker, watchdog and the
/// fault harness in one run.
fn faulted_testbed(seed: u64) -> (Testbed, DomainId) {
    let mut tb = Testbed::new(TestbedConfig {
        spec: ClusterSpec::tiny(),
        profile: RateProfile::Constant { per_min: 800.0 },
        seed,
        tick: SimDuration::MINUTE,
        measurement_noise: 0.003,
        capping: CappingConfig::default(),
        policy: Box::new(RandomFit::default()),
        server_classes: None,
        service_classes: None,
        freeze_policy: FreezePolicy::Uniform,
        faults: Some(FaultPlan {
            sample_dropout: 0.2,
            sweep_loss: 0.05,
            sensor_noise: 0.01,
            sensor_bias: 0.01,
            rpc_loss: 0.1,
            outages: vec![OutageWindow {
                start: SimTime::from_mins(40),
                end: SimTime::from_mins(50),
            }],
            ..FaultPlan::seeded(seed)
        }),
    });
    let (exp, _rest) = ParitySplit::split((0..16).map(ServerId::new));
    let controller = AmpereController::new(
        ControllerConfig::default(),
        Box::new(HistoricalPercentile::flat(0.05)),
    );
    let d = tb.add_domain(DomainSpec {
        name: "experiment".into(),
        servers: exp,
        budget_w: 8.0 * 250.0 / 1.25,
        controller: Some(controller),
        capped: false,
    });
    (tb, d)
}

#[test]
fn exported_names_match_the_audit_table() {
    // One pipeline for both runs, profiling so every export path is
    // live.
    let path = std::env::temp_dir().join(format!(
        "ampere-naming-contract-{}.jsonl",
        std::process::id()
    ));
    let sink = ampere_telemetry::JsonlSink::create(&path).expect("create dump");
    let tel = ampere_telemetry::Telemetry::builder()
        .sink(sink)
        .profiling(true)
        .build();

    // A faulted single-domain run plus a sharded run (fan-in merge,
    // per-shard captures) to cover both emission topologies.
    tel.scope(|| {
        let (mut tb, _d) = faulted_testbed(42);
        tb.run_for(SimDuration::from_mins(120));
        let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(3, 2, 7));
        sharded.run_for(SimDuration::from_mins(20));
        sharded.finish();
    });
    tel.flush();
    let snapshot = tel.snapshot().expect("pipeline is enabled");

    // Metrics: every exported name is declared, label keys are
    // snake_case even if the table drifted, and no label value is
    // empty (an empty one is a series registered before its owner knew
    // what it measures).
    let declared: BTreeSet<&str> = METRICS.iter().copied().collect();
    let mut seen_metrics = BTreeSet::new();
    for entry in &snapshot.entries {
        assert!(
            declared.contains(entry.name),
            "metric {:?} is exported but missing from the DESIGN.md §11 audit table",
            entry.name
        );
        for (key, value) in &entry.labels {
            assert!(is_snake_case(key), "label key {key:?} is not snake_case");
            assert!(
                !value.is_empty(),
                "metric {:?} exports an empty {key:?} label",
                entry.name
            );
        }
        seen_metrics.insert(entry.name);
    }

    // Events: parse the dump; every (component, event) pair is
    // declared.
    let dump = std::fs::read_to_string(&path).expect("read dump");
    let declared_events: BTreeSet<(&str, &str)> = EVENTS.iter().copied().collect();
    let mut seen_events = BTreeSet::new();
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        let pairs = ampere_telemetry::json::parse_object(line).expect("valid JSONL");
        let get = |key: &str| {
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
                ampere_telemetry::Value::Str(s) => s.clone(),
                other => panic!("{key} is not a string: {other:?}"),
            })
        };
        let (Some(component), Some(event)) = (get("component"), get("event")) else {
            continue;
        };
        assert!(
            declared_events.contains(&(component.as_str(), event.as_str())),
            "event {component}/{event} is emitted but missing from the audit table"
        );
        seen_events.insert((component, event));
    }

    // The run must actually exercise the core of the table — an
    // assertion over an empty export proves nothing.
    for metric in [
        "controller_ticks",
        "predict_error_norm",
        "sched_jobs_submitted",
        "monitor_samples_ingested",
        "fault_samples_dropped",
        "profile_phase_wall_us",
    ] {
        assert!(seen_metrics.contains(metric), "{metric} was never exported");
    }
    for pair in [
        ("controller", "tick"),
        ("monitor", "sweep"),
        ("scheduler", "freeze"),
        ("faults", "rpc_lost"),
    ] {
        let (c, e) = pair;
        assert!(
            seen_events.contains(&(c.to_string(), e.to_string())),
            "event {c}/{e} was never emitted"
        );
    }
    let _ = std::fs::remove_file(&path);
}
