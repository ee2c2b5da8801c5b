//! Integration: one testbed control interval produces the expected
//! telemetry — a `controller/tick` root span, the scheduler's freeze
//! events as its children at the same instant, and consistent metrics.
//! The testbed is the code that hands the tick's span to the scheduler,
//! so the contract is pinned here rather than on the controller alone.

use ampere_cluster::{ClusterSpec, ServerId};
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile};
use ampere_experiments::testbed::{DomainSpec, Testbed, TestbedConfig};
use ampere_power::CappingConfig;
use ampere_telemetry::{Capture, Event, MetricKind, MetricsSnapshot, Severity};
use ampere_workload::RateProfile;

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    match snap.get(name, &[]).expect(name).kind {
        MetricKind::Counter(n) => n,
        ref other => panic!("{name} has unexpected kind {other:?}"),
    }
}

#[test]
fn one_tick_emits_expected_event_sequence() {
    // A standalone capture stands in for the global pipeline: the
    // testbed and everything it builds report into it.
    let capture = Capture::standalone();
    let now = capture.with(|| {
        let mut tb = Testbed::new(TestbedConfig {
            spec: ClusterSpec::tiny(),
            capping: CappingConfig {
                enabled: false,
                ..CappingConfig::default()
            },
            ..TestbedConfig::paper_row(RateProfile::Constant { per_min: 0.0 }, 1)
        });
        let d = tb.add_domain(DomainSpec {
            name: "row0".into(),
            servers: (0..8).map(ServerId::new).collect(),
            // The breaker's budget stays far above the row's draw, so
            // the only events are the control interval's.
            budget_w: 10_000.0,
            controller: Some(AmpereController::new(
                ControllerConfig::default(),
                Box::new(HistoricalPercentile::flat(0.02)),
            )),
            capped: false,
        });
        // Idle power (8 × 150 W) against a 1,000 W control budget is
        // 1.2 normalized: control must act.
        tb.set_control_budget_w(d, Some(1_000.0));
        tb.step();
        assert_eq!(
            tb.records(d)[0].froze,
            4,
            "u_max=0.5 over 8 servers freezes 4"
        );
        tb.now()
    });
    let captured = capture.finish();
    // The interval opens with the scheduler's dispatch of arrivals; the
    // control interval starts at the controller's decision record.
    let start = captured
        .events
        .iter()
        .position(|e| e.component == "controller")
        .expect("tick emitted no controller event");
    let evs = &captured.events[start..];

    // First the controller's decision record …
    let tick = &evs[0];
    assert_eq!((tick.component, tick.name), ("controller", "tick"));
    assert_eq!(tick.sim_time, now);
    assert_eq!(tick.severity, Severity::Info);
    assert!(tick.field("power_norm").unwrap().as_f64().unwrap() > 1.15);
    assert!((tick.field("et").unwrap().as_f64().unwrap() - 0.02).abs() < 1e-12);
    assert!((tick.field("u_target").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
    assert_eq!(tick.field("froze").unwrap().as_u64(), Some(4));
    assert_eq!(tick.field("unfroze").unwrap().as_u64(), Some(0));

    // The tick opens a root span: its own trace, no parent.
    assert!(tick.span.is_root(), "tick span: {:?}", tick.span);
    assert_eq!(tick.span.trace.raw(), tick.span.span.raw());

    // … then one scheduler freeze event per frozen server, same
    // instant, each a child span of the tick that decided it.
    let freezes: Vec<&Event> = evs[1..].iter().collect();
    assert_eq!(freezes.len(), 4, "events: {evs:?}");
    for f in &freezes {
        assert_eq!((f.component, f.name), ("scheduler", "freeze"));
        assert_eq!(f.sim_time, now);
        assert!(f.field("server").unwrap().as_u64().is_some());
        assert_eq!(f.span.trace, tick.span.trace, "freeze in another trace");
        assert_eq!(f.span.parent, Some(tick.span.span));
    }
    // Span ids are unique across the dump.
    let mut ids: Vec<u64> = evs.iter().map(|e| e.span.span.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), evs.len());

    // Metrics agree with the events.
    assert_eq!(counter(&captured.snapshot, "controller_ticks"), 1);
    assert_eq!(counter(&captured.snapshot, "sched_servers_frozen"), 4);
    // Every event JSONL-round-trips.
    for e in &captured.events {
        let parsed = Event::parse_json(&e.to_json()).expect("round trip");
        assert_eq!(parsed.sim_time, e.sim_time);
        assert_eq!(parsed.component, e.component);
    }
}
