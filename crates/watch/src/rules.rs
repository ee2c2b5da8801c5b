//! The declarative alert-rule table and its hysteresis state machine.
//!
//! A rule watches one streaming gauge ([`RuleInput`]) and fires after
//! `sustain` consecutive breaching evaluations — "headroom < 5% for
//! 3 minutes" is `cmp: Below, threshold: 0.05, sustain: 3` on a
//! per-minute gauge. Firing and clearing use *different* levels
//! (`threshold` vs `clear`): between them the rule holds its current
//! state, so a gauge oscillating around the threshold cannot flap.
//! Evaluations where the gauge is unknown (no controller decision that
//! tick, warmup windows) are skipped entirely — they neither extend nor
//! reset a streak.

use ampere_telemetry::Severity;

/// Default `headroom-low` *clear* level, and the headroom margin below
/// which a run no longer counts as provably alert-quiet (the scenario
/// `alert-quiet` invariant's precondition adds slack on top of it).
/// The rule itself fires at 0.0 — *exhausted* headroom, the controller
/// actively freezing — because a healthy controlled run legitimately
/// grazes small positive headroom at its load peaks; it must recover
/// past this margin to resolve.
pub const DEFAULT_HEADROOM_MIN: f64 = 0.05;

/// Which streaming gauge a rule watches.
///
/// Per-tick inputs evaluate at every closed tick; per-window inputs
/// evaluate once per *full* tumbling window close (partial windows at
/// stream end produce rollups but no evaluations).
#[derive(Debug, Clone, PartialEq)]
pub enum RuleInput {
    /// Per-tick Et headroom fraction: `1 − power_norm − et`, minimum
    /// across the tick's controller decisions.
    EtHeadroom,
    /// Per-tick fleet-worst normalized power.
    PowerNorm,
    /// Per-tick longest consecutive breaker-violation streak (minutes),
    /// max across rows matching the rule's scope; 0 on violation-free
    /// controller ticks.
    ViolationStreak,
    /// Per-window fraction of ticks spent in degraded mode.
    DegradedBurn,
    /// Per-window fraction of ticks with the watchdog backstop armed —
    /// capped ticks are where the paper's interactive p99.9 doubles, so
    /// this is the SLO burn-rate proxy.
    SloBurn,
    /// Per-window freeze/unfreeze churn anomaly: EWMA z-score of the
    /// window's churn count against its own history. Forced to 0 below
    /// `min_churn` events (absolute-quiet windows are never anomalous)
    /// and unknown for the first warmup windows.
    ChurnZScore {
        /// Churn floor below which the z-score reads 0.
        min_churn: u64,
    },
    /// Per-window fraction of arbiter reallocation rounds where at
    /// least one row sat pinned at its floor while the arbiter held
    /// reclaimable surplus in reserve. Unknown (skipped) in windows
    /// that saw no reallocation round, so single-row runs never
    /// evaluate it.
    ArbiterStarvation,
}

impl RuleInput {
    /// Stable wire name (the `input` of the dump's rule lines).
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleInput::EtHeadroom => "et_headroom",
            RuleInput::PowerNorm => "power_norm",
            RuleInput::ViolationStreak => "violation_streak",
            RuleInput::DegradedBurn => "degraded_burn",
            RuleInput::SloBurn => "slo_burn",
            RuleInput::ChurnZScore { .. } => "churn_zscore",
            RuleInput::ArbiterStarvation => "arbiter_starvation",
        }
    }

    /// Whether this gauge evaluates at window closes (vs tick closes).
    pub(crate) fn per_window(&self) -> bool {
        matches!(
            self,
            RuleInput::DegradedBurn
                | RuleInput::SloBurn
                | RuleInput::ChurnZScore { .. }
                | RuleInput::ArbiterStarvation
        )
    }
}

/// Breach direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when the gauge exceeds the threshold.
    Above,
    /// Breach when the gauge drops below the threshold.
    Below,
}

impl Cmp {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Cmp::Above => "above",
            Cmp::Below => "below",
        }
    }
}

/// One declarative alert rule: gauge + threshold + sustain + hysteresis.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Unique rule name (the alert stream's key).
    pub name: String,
    /// Gauge to watch.
    pub input: RuleInput,
    /// Row filter for [`RuleInput::ViolationStreak`] (matches the
    /// violation event's `row` label); `None` watches every row. Other
    /// inputs are fleet-level and ignore the scope.
    pub scope: Option<String>,
    /// Breach direction.
    pub cmp: Cmp,
    /// Breach level.
    pub threshold: f64,
    /// Clear level (hysteresis): an active alert resolves only once the
    /// gauge recovers *past* this, not merely back across `threshold`.
    pub clear: f64,
    /// Consecutive breaching evaluations required to fire (≥ 1).
    pub sustain: u32,
    /// Severity attached to firings and incidents.
    pub severity: Severity,
}

/// The default rule table: the risk signals the paper's argument turns
/// on, tuned empirically so the clean light-workload parity run (the
/// `repro watch` clean pass) is silent — its worst streaks are 6
/// consecutive minutes of exhausted headroom and single-window churn
/// bursts at the load peak — while the fault-injected heavy run pages.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "headroom-low".into(),
            input: RuleInput::EtHeadroom,
            scope: None,
            cmp: Cmp::Below,
            threshold: 0.0,
            clear: DEFAULT_HEADROOM_MIN,
            sustain: 10,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "breaker-proximity".into(),
            input: RuleInput::ViolationStreak,
            scope: None,
            cmp: Cmp::Above,
            threshold: 1.5,
            clear: 0.5,
            sustain: 2,
            severity: Severity::Error,
        },
        AlertRule {
            name: "degraded-burn".into(),
            input: RuleInput::DegradedBurn,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.2,
            clear: 0.05,
            sustain: 1,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "slo-burn".into(),
            input: RuleInput::SloBurn,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.25,
            clear: 0.05,
            sustain: 1,
            severity: Severity::Warn,
        },
        AlertRule {
            // A row pinned at its floor while siblings' reclaimed
            // surplus sits in reserve — sustained across two windows so
            // a single fault-and-recover round stays quiet. Clean runs
            // never pin, so the gauge reads 0 and the rule is silent.
            name: "arbiter-starvation".into(),
            input: RuleInput::ArbiterStarvation,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.5,
            clear: 0.1,
            sustain: 2,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "freeze-churn-anomaly".into(),
            input: RuleInput::ChurnZScore { min_churn: 8 },
            scope: None,
            cmp: Cmp::Above,
            threshold: 3.0,
            clear: 1.0,
            sustain: 2,
            severity: Severity::Info,
        },
    ]
}

/// A rule-state transition produced by one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    Fired,
    Resolved,
}

/// Mutable per-rule evaluation state.
#[derive(Debug, Default)]
pub(crate) struct RuleState {
    /// Consecutive breaching evaluations while inactive.
    pub streak: u32,
    /// Whether the alert is currently firing.
    pub active: bool,
    /// Worst gauge value seen while active.
    pub peak: f64,
    /// Open incident id while active.
    pub incident: Option<u64>,
    // EWMA churn-anomaly state (ChurnZScore rules only).
    ewma_mean: f64,
    ewma_var: f64,
    windows_seen: u64,
}

impl RuleState {
    /// Evaluates one known gauge value; unknown values must be skipped
    /// by the caller (they leave the streak untouched).
    pub fn eval(&mut self, rule: &AlertRule, value: f64) -> Option<Transition> {
        let breach = match rule.cmp {
            Cmp::Above => value > rule.threshold,
            Cmp::Below => value < rule.threshold,
        };
        if self.active {
            self.peak = match rule.cmp {
                Cmp::Above => self.peak.max(value),
                Cmp::Below => self.peak.min(value),
            };
            let cleared = match rule.cmp {
                Cmp::Above => value < rule.clear,
                Cmp::Below => value > rule.clear,
            };
            if cleared {
                self.active = false;
                self.streak = 0;
                return Some(Transition::Resolved);
            }
            None
        } else if breach {
            self.streak += 1;
            if self.streak >= rule.sustain.max(1) {
                self.active = true;
                self.streak = 0;
                self.peak = value;
                Some(Transition::Fired)
            } else {
                None
            }
        } else {
            self.streak = 0;
            None
        }
    }

    /// Churn-anomaly gauge: EWMA z-score of `churn` against this rule's
    /// window history. `None` during warmup; 0.0 below the churn floor.
    /// History updates *after* the read, so a window never judges
    /// itself against statistics it already contributed to.
    pub fn churn_z(&mut self, churn: u64, min_churn: u64) -> Option<f64> {
        const ALPHA: f64 = 0.3;
        const WARMUP: u64 = 3;
        let x = churn as f64;
        let z = if self.windows_seen < WARMUP {
            None
        } else if churn < min_churn {
            Some(0.0)
        } else {
            // Variance floor of 1 event²: a perfectly steady history
            // must not turn the first small wiggle into z → ∞.
            Some((x - self.ewma_mean) / self.ewma_var.max(1.0).sqrt())
        };
        if self.windows_seen == 0 {
            self.ewma_mean = x;
            self.ewma_var = 0.0;
        } else {
            let d = x - self.ewma_mean;
            self.ewma_mean += ALPHA * d;
            self.ewma_var = (1.0 - ALPHA) * (self.ewma_var + ALPHA * d * d);
        }
        self.windows_seen += 1;
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(cmp: Cmp, threshold: f64, clear: f64, sustain: u32) -> AlertRule {
        AlertRule {
            name: "t".into(),
            input: RuleInput::PowerNorm,
            scope: None,
            cmp,
            threshold,
            clear,
            sustain,
            severity: Severity::Warn,
        }
    }

    #[test]
    fn fires_exactly_at_sustain_threshold() {
        let r = rule(Cmp::Above, 1.0, 0.8, 3);
        let mut s = RuleState::default();
        assert_eq!(s.eval(&r, 1.5), None);
        assert_eq!(s.eval(&r, 1.5), None);
        assert_eq!(s.eval(&r, 1.5), Some(Transition::Fired));
        assert!(s.active);
    }

    #[test]
    fn streak_resets_on_recovery_before_sustain() {
        let r = rule(Cmp::Above, 1.0, 0.8, 3);
        let mut s = RuleState::default();
        s.eval(&r, 1.5);
        s.eval(&r, 1.5);
        assert_eq!(s.eval(&r, 0.5), None); // reset at 2/3
        s.eval(&r, 1.5);
        assert_eq!(s.eval(&r, 1.5), None, "streak restarted from zero");
        assert_eq!(s.eval(&r, 1.5), Some(Transition::Fired));
    }

    #[test]
    fn no_flap_on_oscillation_inside_hysteresis_band() {
        let r = rule(Cmp::Above, 1.0, 0.8, 1);
        let mut s = RuleState::default();
        assert_eq!(s.eval(&r, 1.1), Some(Transition::Fired));
        // Dips below threshold but not past clear: still active.
        assert_eq!(s.eval(&r, 0.9), None);
        assert_eq!(s.eval(&r, 1.1), None);
        assert_eq!(s.eval(&r, 0.9), None);
        assert!(s.active);
        // Past the clear level: resolves exactly once.
        assert_eq!(s.eval(&r, 0.7), Some(Transition::Resolved));
        assert!(!s.active);
    }

    #[test]
    fn below_rules_mirror_above_semantics() {
        let r = rule(Cmp::Below, 0.05, 0.10, 2);
        let mut s = RuleState::default();
        assert_eq!(s.eval(&r, 0.02), None);
        assert_eq!(s.eval(&r, 0.02), Some(Transition::Fired));
        assert_eq!(s.eval(&r, 0.07), None, "inside hysteresis band");
        assert_eq!(s.eval(&r, 0.20), Some(Transition::Resolved));
        // Peak tracks the minimum for Below rules.
        assert!((s.peak - 0.02).abs() < 1e-12);
    }

    #[test]
    fn churn_z_warms_up_floors_and_detects_steps() {
        let mut s = RuleState::default();
        assert_eq!(s.churn_z(2, 1), None);
        assert_eq!(s.churn_z(2, 1), None);
        assert_eq!(s.churn_z(2, 1), None);
        // Steady history → z ≈ 0 on matching value.
        let z = s.churn_z(2, 1).unwrap();
        assert!(z.abs() < 0.5, "steady churn near zero, got {z}");
        // Below the floor the gauge reads exactly 0.
        assert_eq!(s.churn_z(0, 1), Some(0.0));
        // A step change well past history is a strong anomaly.
        let z = s.churn_z(50, 1).unwrap();
        assert!(z > 3.0, "step churn should spike z, got {z}");
    }

    #[test]
    fn rule_line_is_valid_json_and_digest_sensitive() {
        // Each rule becomes one dump line keyed by its name: the numbers
        // must be finite to encode as JSON, names must be unique, and a
        // retuned threshold must change the table the rule digest hashes.
        let rules = default_rules();
        for r in &rules {
            assert!(r.threshold.is_finite() && r.clear.is_finite(), "{}", r.name);
        }
        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len());
        assert_eq!(format!("{rules:?}"), format!("{:?}", default_rules()));
        let mut tweaked = default_rules();
        tweaked[0].threshold += 0.01;
        assert_ne!(format!("{rules:?}"), format!("{tweaked:?}"));
    }
}
