//! End-to-end harness tests: the canary (a deliberately planted bug
//! must be detected and shrunk to a strictly smaller reproduction) and
//! the green batch (a fixed seed family passes every invariant and is
//! byte-identical at any worker count).

use ampere_obs::{BenchDump, ScenarioBatch};
use ampere_scenario::{
    run_batch, run_scenario, shrink, shrink_to_level, BatchConfig, InjectedBug, InvariantKind,
    RunOptions, Scenario,
};

// (The sla-ordering canary below exercises the batch + shrink pipeline
// end to end; CI also arms it through AMPERE_SCENARIO_BUG to prove the
// env-var path.)

/// Canary seed: fixed, chosen because under the mis-signed-margin bug
/// it produces a breaker-safety violation *and* draws a scenario with
/// many live axes (2×2×8 topology, 143 ticks, faults, diurnal
/// amplitude, kr perturbation) so the shrinker has real work to do.
const CANARY_SEED: u64 = 22;

fn bugged() -> RunOptions {
    RunOptions {
        check_determinism: false,
        bug: Some(InjectedBug::BreakerMarginMisSign),
    }
}

#[test]
fn canary_bug_is_detected() {
    let scenario = Scenario::generate(CANARY_SEED);
    let outcome = run_scenario(&scenario, &bugged());
    assert!(
        outcome
            .violated_kinds()
            .contains(&InvariantKind::BreakerSafety),
        "planted margin-sign bug went undetected: {:?}",
        outcome.violations
    );
    // The violation is the bug's doing: the identical scenario with a
    // correctly-signed margin passes every invariant.
    let healthy = run_scenario(
        &scenario,
        &RunOptions {
            check_determinism: false,
            bug: None,
        },
    );
    assert!(
        healthy.passed(),
        "canary scenario fails even without the bug: {:?}",
        healthy.violations
    );
}

#[test]
fn canary_failure_shrinks_strictly_along_multiple_axes() {
    let scenario = Scenario::generate(CANARY_SEED);
    let outcome = run_scenario(&scenario, &bugged());
    let kinds = outcome.violated_kinds();
    let result = shrink(&scenario, &kinds, &bugged());

    assert!(
        result.level >= 2,
        "expected at least two accepted shrink steps, got {}",
        result.level
    );
    let s = &result.scenario;
    let mut smaller_axes = 0;
    smaller_axes += usize::from(s.ticks < scenario.ticks);
    smaller_axes += usize::from(s.rows < scenario.rows);
    smaller_axes += usize::from(s.racks_per_row < scenario.racks_per_row);
    smaller_axes += usize::from(s.servers_per_rack < scenario.servers_per_rack);
    smaller_axes += usize::from(s.faults.is_noop() && !scenario.faults.is_noop());
    smaller_axes += usize::from(
        s.workload.amplitude < scenario.workload.amplitude && s.workload.amplitude == 0.0,
    );
    assert!(
        smaller_axes >= 2,
        "minimal scenario is not strictly smaller along >= 2 axes: {}",
        s.describe()
    );

    // The minimal scenario still reproduces the original failure.
    assert!(
        result
            .outcome
            .violated_kinds()
            .iter()
            .any(|k| kinds.contains(k)),
        "shrunk scenario no longer reproduces: {:?}",
        result.outcome.violations
    );
}

#[test]
fn shrink_levels_replay_deterministically() {
    // `shrink_to_level(s, k, o, K)` must replay the exact prefix of the
    // full shrink — the printed repro command depends on it.
    let scenario = Scenario::generate(CANARY_SEED);
    let kinds = run_scenario(&scenario, &bugged()).violated_kinds();
    let full = shrink(&scenario, &kinds, &bugged());
    let prefix = shrink_to_level(&scenario, &kinds, &bugged(), 2);
    assert_eq!(prefix.level, 2);
    let replayed = shrink_to_level(&scenario, &kinds, &bugged(), full.level);
    assert_eq!(replayed.scenario, full.scenario);
    assert_eq!(replayed.level, full.level);
}

#[test]
fn sla_ordering_canary_is_detected_and_shrunk_by_the_batch() {
    // The inverted-selector bug armed across a whole 50-scenario batch:
    // every service-mix scenario that actually freezes must trip the
    // sla-protection invariant, and the batch's built-in shrinker must
    // reduce at least one such failure along >= 2 axes.
    let options = RunOptions {
        check_determinism: false,
        bug: Some(InjectedBug::SlaOrderingInversion),
    };
    let report = run_batch(&BatchConfig {
        seed: 2026,
        count: 50,
        workers: 4,
        options,
    });
    let failures: Vec<_> = report
        .rows
        .iter()
        .filter(|r| {
            r.outcome
                .violated_kinds()
                .contains(&InvariantKind::SlaProtection)
        })
        .collect();
    assert!(
        !failures.is_empty(),
        "inverted selector ordering went undetected across the whole batch"
    );
    for row in &failures {
        // Only scenarios the invariant is armed on can fail it.
        let s = &row.outcome.scenario;
        assert!(s.service_mix.is_some(), "{}", s.describe());
        assert_eq!(s.faults.rpc_loss, 0.0, "{}", s.describe());
        // Every failure was shrunk, and no shrink dropped the mix axis
        // (without it the invariant cannot fire).
        let shrink = row.shrink.as_ref().expect("failures are shrunk");
        assert!(!shrink.axes.contains(&"service-mix"));
    }
    // The batch's record, shrink summaries included, survives its own
    // dump: the same bytes and the same (failing) gate.
    let record = report.record(Some(InjectedBug::SlaOrderingInversion.env_value()));
    assert!(!record.gates()[0].pass);
    let text = record.encode();
    let decoded = ScenarioBatch::decode(&text).expect("dump decodes");
    assert_eq!(decoded.gates(), record.gates());
    assert_eq!(decoded.encode(), text);
    // The failure is the bug's doing: the first failing scenario passes
    // with the selector correctly ordered.
    let healthy = run_scenario(
        &failures[0].outcome.scenario,
        &RunOptions {
            check_determinism: false,
            bug: None,
        },
    );
    assert!(
        healthy.passed(),
        "canary scenario fails even without the bug: {:?}",
        healthy.violations
    );
    // At least one failure has real shrinking work to show: >= 2
    // accepted steps across >= 2 distinct axes.
    assert!(
        failures.iter().any(|r| r
            .shrink
            .as_ref()
            .is_some_and(|s| { s.level >= 2 && s.axes.len() >= 2 })),
        "no sla-protection failure shrank along >= 2 axes: {:?}",
        failures
            .iter()
            .map(|r| r.shrink.as_ref().map(|s| s.axes.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn batch_of_fifty_is_green_and_worker_count_invariant() {
    let config = |workers| BatchConfig {
        seed: 2026,
        count: 50,
        workers,
        options: RunOptions::default(),
    };
    let serial = run_batch(&config(1));
    let failures: Vec<String> = serial
        .rows
        .iter()
        .filter(|r| !r.outcome.passed())
        .map(|r| {
            format!(
                "idx={} seed={}: {:?}",
                r.index,
                r.seed,
                r.outcome.violated_kinds()
            )
        })
        .collect();
    assert!(failures.is_empty(), "green batch failed: {failures:?}");

    let fanned = run_batch(&config(4));
    assert_eq!(
        serial.digest, fanned.digest,
        "batch digest differs between workers=1 and workers=4"
    );
    assert_eq!(
        serial.record(None).encode(),
        fanned.record(None).encode(),
        "JSONL report differs between workers=1 and workers=4"
    );
}
