//! Determinism and hysteresis properties of the `ampere-watch` engine.
//!
//! The PR's contract: the alert/incident stream is a pure function of
//! the merged telemetry stream, which the capture/replay fan-in makes
//! worker-invariant — so the serialized streams must be byte-identical
//! at any worker count and across reruns. The hysteresis tests pin the
//! boundary semantics of the rule table: a rule fires exactly when its
//! breach streak reaches `sustain`, and an active alert neither
//! re-fires nor resolves while the gauge oscillates inside the
//! threshold/clear band.

use ampere_bench::watch::{run, WatchBenchConfig};
use ampere_obs::WatchRun;
use ampere_sim::{SimDuration, SimTime};
use ampere_telemetry::{Event, Severity};
use ampere_watch::{AlertRule, Cmp, RuleInput, WatchConfig, WatchEngine};

fn tiny(workers: usize) -> WatchBenchConfig {
    WatchBenchConfig {
        workers,
        seed: 10,
        hours: 2,
        warmup_mins: 30,
        calibration_hours: 2,
    }
}

/// Every serialized stream the run carries, in order: alerts, then
/// incidents, then window rollups.
fn serialized_streams(r: &WatchRun) -> Vec<String> {
    let mut lines = Vec::new();
    lines.extend(r.alerts.iter().map(|a| a.raw.clone()));
    lines.extend(r.incidents.iter().map(|i| i.raw.clone()));
    lines.extend(r.window_lines.iter().cloned());
    lines
}

#[test]
fn alert_stream_is_worker_invariant_and_reproducible() {
    let r1 = run(tiny(1));
    let r4 = run(tiny(4));

    // The merged replay stream is identical at any worker count, so
    // every derived stream is byte-identical — not merely "equivalent".
    assert_eq!(serialized_streams(&r1), serialized_streams(&r4));
    assert_eq!(r1.alert_digest, r4.alert_digest);
    assert_eq!(r1.rule_digest, r4.rule_digest);
    assert_eq!(r1.checksum_watch, r4.checksum_watch);
    assert!(r1.trajectory_clean() && r4.trajectory_clean());

    // A rerun at the same worker count reproduces the streams exactly.
    let r1b = run(tiny(1));
    assert_eq!(serialized_streams(&r1), serialized_streams(&r1b));
    assert_eq!(r1.checksum_watch, r1b.checksum_watch);
}

fn power_rule(sustain: u32) -> AlertRule {
    AlertRule {
        name: "hot".into(),
        input: RuleInput::PowerNorm,
        scope: None,
        cmp: Cmp::Above,
        threshold: 0.9,
        clear: 0.8,
        sustain,
        severity: Severity::Warn,
    }
}

fn engine(sustain: u32) -> WatchEngine {
    WatchEngine::new(WatchConfig {
        window: SimDuration::from_mins(5),
        sliding_windows: 3,
        rules: vec![power_rule(sustain)],
        ack_after: SimDuration::from_mins(60),
        p_over_margin: 0.95,
    })
}

fn tick(min: u64, power: f64) -> Event {
    Event::new(
        SimTime::from_mins(min),
        Severity::Info,
        "controller",
        "tick",
    )
    .with("power_norm", power)
    .with("et", 0.5)
    .with("u_target", 0.0)
    .with("froze", 0u64)
    .with("unfroze", 0u64)
    .with("decided", true)
    .with("mode", "nominal")
}

fn states(engine: &mut WatchEngine) -> Vec<(&'static str, u64)> {
    engine
        .finish()
        .alerts
        .iter()
        .map(|a| (a.state, a.time.as_mins()))
        .collect()
}

#[test]
fn rule_fires_exactly_at_the_sustain_threshold() {
    // sustain = 3: two breaching ticks stay silent, the third pages.
    let mut e = engine(3);
    for (min, power) in [(0, 0.95), (1, 0.95), (2, 0.95)] {
        e.observe(&tick(min, power));
    }
    let alerts = states(&mut e);
    assert_eq!(alerts, vec![("fire", 2)], "{alerts:?}");
}

#[test]
fn breach_streak_resets_below_sustain() {
    // Two breaches, a dip, two more breaches: never reaches sustain=3.
    let mut e = engine(3);
    for (min, power) in [(0, 0.95), (1, 0.95), (2, 0.5), (3, 0.95), (4, 0.95)] {
        e.observe(&tick(min, power));
    }
    assert!(states(&mut e).is_empty());
}

#[test]
fn active_alert_does_not_flap_inside_the_hysteresis_band() {
    // Fire once, then oscillate between clear (0.8) and threshold
    // (0.9): the alert must neither re-fire nor resolve until the
    // gauge drops below clear.
    let mut e = engine(1);
    let trace = [
        (0, 0.95), // fire
        (1, 0.85), // inside the band: stays active
        (2, 0.95),
        (3, 0.85),
        (4, 0.95),
        (5, 0.70), // below clear: resolve
    ];
    for (min, power) in trace {
        e.observe(&tick(min, power));
    }
    let alerts = states(&mut e);
    assert_eq!(alerts, vec![("fire", 0), ("resolve", 5)], "{alerts:?}");
}
