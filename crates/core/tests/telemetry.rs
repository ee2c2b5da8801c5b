//! Integration: the controller's decisions and their telemetry. The
//! decision is driven with synthetic readings here; the span contract
//! of a whole control interval, scheduler events included, is pinned
//! against the testbed in `ampere-experiments`.

use ampere_cluster::ServerId;
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile, ServerPowerReading};
use ampere_sim::SimTime;
use ampere_telemetry::{Event, MetricKind, RingBufferSink, Telemetry};

fn controller(tel: Telemetry) -> AmpereController {
    AmpereController::with_telemetry(
        ControllerConfig::default(),
        Box::new(HistoricalPercentile::flat(0.02)),
        tel,
    )
}

/// Eight servers at `power_w` each, the first `frozen` of them frozen.
fn readings(power_w: f64, frozen: usize) -> Vec<ServerPowerReading> {
    (0..8)
        .map(|i| ServerPowerReading {
            id: ServerId::new(i),
            power_w,
            frozen: (i as usize) < frozen,
        })
        .collect()
}

/// Six one-minute decisions against a 1,600 W budget: two loaded
/// minutes, then idle. Each minute sees the freezes the previous one
/// decided; returns `(power_norm, u_target, froze, unfroze)` per minute.
fn six_minutes(ctl: &mut AmpereController) -> Vec<(f64, f64, usize, usize)> {
    let mut frozen = 0;
    (1..=6)
        .map(|m| {
            let power_w = if m <= 2 { 250.0 } else { 170.0 };
            let view = readings(power_w, frozen);
            let power_norm = 8.0 * power_w / 1_600.0;
            let (actions, _) = ctl.decide(SimTime::from_mins(m), power_norm, &view);
            frozen = frozen + actions.freeze.len() - actions.unfreeze.len();
            (
                power_norm,
                actions.target_ratio,
                actions.freeze.len(),
                actions.unfreeze.len(),
            )
        })
        .collect()
}

#[test]
fn prediction_error_histogram_fills_after_two_ticks() {
    let tel = Telemetry::builder().build();
    let mut ctl = controller(tel.clone());
    let idle = readings(170.0, 0);
    for m in 1..=3 {
        ctl.decide(SimTime::from_mins(m), 0.85, &idle);
    }
    let snap = tel.snapshot().unwrap();
    let hist = snap
        .get(
            "predict_error_norm",
            &[("predictor", "historical-percentile")],
        )
        .expect("prediction error histogram registered");
    match &hist.kind {
        MetricKind::Histogram { counts, sum, .. } => {
            // First tick primes the tracker; the next two score errors.
            assert_eq!(counts.iter().sum::<u64>(), 2);
            // Idle power is flat, so each error is ≈ −Et = −0.02.
            assert!((sum - (-0.04)).abs() < 1e-6, "sum = {sum}");
        }
        other => panic!("unexpected kind {other:?}"),
    }
}

#[test]
fn disabled_telemetry_changes_no_behavior() {
    let disabled = six_minutes(&mut controller(Telemetry::disabled()));
    let enabled = six_minutes(&mut controller(Telemetry::builder().build()));
    assert_eq!(disabled, enabled);
    assert!(enabled.iter().any(|&(_, _, froze, _)| froze > 0));
}

#[test]
fn repeated_ticks_produce_identical_traced_dumps() {
    // Span ids come from a deterministic counter, so two identical runs
    // serialize byte-identically — the reproducibility contract traced
    // runs must keep.
    let run = || {
        let (sink, events) = RingBufferSink::new(256);
        let tel = Telemetry::builder().sink(sink).build();
        six_minutes(&mut controller(tel));
        events
            .events()
            .iter()
            .map(Event::to_json)
            .collect::<Vec<String>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 6, "one tick event per decision: {a:?}");
    assert!(
        a.iter().any(|l| l.contains("\"unfroze\":4")),
        "no unfreezes"
    );
    assert_eq!(a, b, "traced dumps differ across identical runs");
}
