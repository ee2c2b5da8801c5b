//! Ablations of Ampere's design choices (§3.1) and parameters.
//!
//! Each ablation runs the standard parity-split heavy-workload
//! experiment varying one knob, and reports the metrics the paper's
//! discussion hinges on: violations, mean freezing ratio (capacity
//! cost), freeze/unfreeze churn (operational cost) and the throughput
//! ratio. The suite covers:
//!
//! - control interval (the paper argues one minute matches monitoring);
//! - `r_stable` hysteresis (the paper claims performance is
//!   insensitive and uses 0.8);
//! - `u_max` (the 50 % operational limit caused the single residual
//!   heavy-workload violation in Table 2);
//! - `kr` model slope (RHC tolerance to model error, §3.1 choice #4);
//! - `Et` predictor: historical percentile vs the §6 online ones;
//! - control granularity: row-level vs rack-level budgets (§3.1
//!   choice #1 — rack-level has less statistical room).

use ampere_core::{
    AmpereController, ArPredictor, ControllerConfig, EwmaPredictor, HistoricalPercentile,
    PowerChangePredictor,
};
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use crate::calibrate::{controller_with, DEFAULT_ET, DEFAULT_KR, ET_FLOOR};
use crate::fig10::ParityRow;
use crate::testbed::{DomainId, DomainSpec, DomainTickRecord, Testbed};
use crate::window::WindowStats;

/// Measured outcome of one ablation run.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable setting label ("interval=5min", "u_max=0.3", …).
    pub setting: String,
    /// The controlled group's measured window (rack domains merged tick
    /// by tick): its breaker violations, mean freezing ratio (the
    /// capacity cost) and mean power normalized to the budget.
    pub window: WindowStats,
    /// Total freeze + unfreeze actions per hour (churn).
    pub churn_per_hour: f64,
    /// Throughput ratio vs the same run's uncontrolled control group.
    pub r_thru: f64,
    /// Mean queue wait of placed jobs across the whole pool, in
    /// dispatch rounds (minutes) — the latency cost of making jobs
    /// "wait in the scheduler queue" instead of capping.
    pub wait_mean_mins: f64,
}

/// Shared run parameters for all ablations.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Measured hours per setting.
    pub hours: u64,
    /// Warm-up minutes discarded.
    pub warmup_mins: u64,
    /// Over-provisioning ratio.
    pub r_o: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            hours: 12,
            warmup_mins: 120,
            r_o: 0.25,
            seed: 1234,
        }
    }
}

/// Runs one parity-split heavy run with the given controller and
/// returns its ablation metrics.
fn run_one(config: &AblationConfig, setting: String, controller: AmpereController) -> AblationRow {
    let (tb, exp, ctl) = crate::fig10::parity_testbed(
        RateProfile::heavy_row(),
        config.seed,
        config.r_o,
        Some(controller),
    );
    measure(config, setting, tb, &[exp], ctl)
}

/// Runs the measured window and summarizes it: the experiment group's
/// domains merged tick by tick into one record (a single domain merges
/// to its own records), against the uncontrolled control group.
fn measure(
    config: &AblationConfig,
    setting: String,
    mut tb: Testbed,
    exp: &[DomainId],
    ctl: DomainId,
) -> AblationRow {
    tb.run_window(
        SimDuration::from_mins(config.warmup_mins),
        SimDuration::from_hours(config.hours),
    );
    let slices: Vec<&[DomainTickRecord]> = exp.iter().map(|&d| tb.window(d)).collect();
    let merged: Vec<DomainTickRecord> = (0..tb.window(ctl).len())
        .map(|t| {
            let mut acc = slices[0][t];
            acc.violation = slices.iter().any(|s| s[t].violation);
            acc.freezing_ratio =
                slices.iter().map(|s| s[t].freezing_ratio).sum::<f64>() / slices.len() as f64;
            acc.power_norm =
                slices.iter().map(|s| s[t].power_norm).sum::<f64>() / slices.len() as f64;
            acc.placed_jobs = slices.iter().map(|s| s[t].placed_jobs).sum();
            acc.froze = slices.iter().map(|s| s[t].froze).sum();
            acc.unfroze = slices.iter().map(|s| s[t].unfroze).sum();
            acc
        })
        .collect();
    let budget_w = tb.domain_budget_w(ctl);
    let e = WindowStats::of(&merged, budget_w);
    let c = WindowStats::of(tb.window(ctl), budget_w);
    AblationRow {
        setting,
        window: e,
        churn_per_hour: (e.froze + e.unfroze) as f64 / config.hours.max(1) as f64,
        r_thru: e.placed as f64 / c.placed.max(1) as f64,
        wait_mean_mins: tb.sched().wait_rounds().mean().unwrap_or(0.0),
    }
}

fn default_config() -> ControllerConfig {
    ControllerConfig {
        kr: DEFAULT_KR,
        ..ControllerConfig::default()
    }
}

/// The production-equivalent flat margin used as the common baseline
/// across ablations (the per-hour fit adds little over a flat floor in
/// these 12-hour windows).
fn flat_et() -> Box<dyn PowerChangePredictor> {
    Box::new(HistoricalPercentile::flat(ET_FLOOR))
}

/// A deliberately thin margin, used only in the predictor comparison.
fn thin_et() -> Box<dyn PowerChangePredictor> {
    Box::new(HistoricalPercentile::flat(DEFAULT_ET))
}

/// Sweeps the control interval (1, 2, 5, 10 minutes).
pub fn control_interval(config: &AblationConfig) -> Vec<AblationRow> {
    [1u64, 2, 5, 10]
        .iter()
        .map(|&mins| {
            let cc = ControllerConfig {
                interval: SimDuration::from_mins(mins),
                ..default_config()
            };
            run_one(
                config,
                format!("interval={mins}min"),
                AmpereController::new(cc, flat_et()),
            )
        })
        .collect()
}

/// Sweeps the `r_stable` hysteresis ratio.
pub fn r_stable(config: &AblationConfig) -> Vec<AblationRow> {
    [0.5f64, 0.8, 0.95, 1.0]
        .iter()
        .map(|&rs| {
            let cc = ControllerConfig {
                r_stable: rs,
                ..default_config()
            };
            run_one(
                config,
                format!("r_stable={rs}"),
                AmpereController::new(cc, flat_et()),
            )
        })
        .collect()
}

/// Sweeps the operational freezing-ratio cap `u_max`.
pub fn u_max(config: &AblationConfig) -> Vec<AblationRow> {
    [0.3f64, 0.5, 0.75, 1.0]
        .iter()
        .map(|&um| {
            let cc = ControllerConfig {
                u_max: um,
                ..default_config()
            };
            run_one(
                config,
                format!("u_max={um}"),
                AmpereController::new(cc, flat_et()),
            )
        })
        .collect()
}

/// Sweeps the control-model slope `kr` (RHC's tolerance to model
/// error: all settings control, but cost and margin shift).
pub fn kr_sensitivity(config: &AblationConfig) -> Vec<AblationRow> {
    [0.02f64, 0.05, 0.10, 0.20]
        .iter()
        .map(|&kr| {
            let cc = ControllerConfig {
                kr,
                ..default_config()
            };
            run_one(
                config,
                format!("kr={kr}"),
                AmpereController::new(cc, flat_et()),
            )
        })
        .collect()
}

/// Compares the `Et` predictors: flat margin, the paper's per-hour
/// historical percentile, and the §6 online EWMA / AR(1) extensions.
pub fn predictors(config: &AblationConfig) -> Vec<AblationRow> {
    // The historical predictor needs a calibration pass.
    let fitted = crate::calibrate::parity_et(
        RateProfile::heavy_row(),
        config.seed,
        config.r_o,
        config.hours.min(12),
    );

    let predictors: Vec<(String, Box<dyn PowerChangePredictor>)> = vec![
        ("flat-thin".into(), thin_et()),
        ("flat-production".into(), flat_et()),
        ("historical-percentile".into(), Box::new(fitted)),
        (
            "ewma".into(),
            Box::new(EwmaPredictor::paper_extension_default()),
        ),
        (
            "ar1".into(),
            Box::new(ArPredictor::paper_extension_default()),
        ),
    ];
    predictors
        .into_iter()
        .map(|(name, p)| run_one(config, name, controller_with(p)))
        .collect()
}

/// Design choice #1 (§3.1): row-level vs rack-level control domains.
/// The same experiment-group servers are controlled either as one
/// row-sized domain or as eleven rack-sized domains with proportional
/// budgets; rack-level control has less statistical room, so it
/// freezes more and still violates more.
pub fn row_vs_rack(config: &AblationConfig) -> Vec<AblationRow> {
    let mut out = Vec::new();
    for (label, per_rack) in [("row-level", false), ("rack-level", true)] {
        let ParityRow {
            mut tb,
            exp,
            ctl,
            budget_w,
        } = ParityRow::new(
            RateProfile::heavy_row(),
            config.seed,
            config.r_o,
            false,
            None,
        );

        let mut exp_domains: Vec<DomainId> = Vec::new();
        if per_rack {
            // Eleven rack-sized slices of the experiment group, each
            // with a proportional share of the scaled budget.
            let racks = tb.cluster().spec().racks_per_row;
            let per = exp.len() / racks;
            for chunk in exp.chunks(per) {
                let share = budget_w * chunk.len() as f64 / exp.len() as f64;
                exp_domains.push(tb.add_domain(DomainSpec {
                    name: format!("rack{}", exp_domains.len()),
                    servers: chunk.to_vec(),
                    budget_w: share,
                    controller: Some(controller_with(flat_et())),
                    capped: false,
                }));
            }
        } else {
            exp_domains.push(tb.add_domain(DomainSpec {
                name: "row".into(),
                servers: exp,
                budget_w,
                controller: Some(controller_with(flat_et())),
                capped: false,
            }));
        }
        let ctl_dom = tb.add_domain(DomainSpec {
            name: "control".into(),
            servers: ctl,
            budget_w,
            controller: None,
            capped: false,
        });
        out.push(measure(
            config,
            label.to_string(),
            tb,
            &exp_domains,
            ctl_dom,
        ));
    }
    out
}

/// Runs the full ablation suite. The six groups are independent, so
/// they fan out over the default worker pool; per-group telemetry is
/// captured and replayed in suite order, keeping the event stream
/// byte-identical to a serial run at any worker count.
pub fn run_all(config: &AblationConfig) -> Vec<(String, Vec<AblationRow>)> {
    type Group = fn(&AblationConfig) -> Vec<AblationRow>;
    let groups: [(&str, Group); 6] = [
        ("control interval", control_interval),
        ("r_stable", r_stable),
        ("u_max", u_max),
        ("kr sensitivity", kr_sensitivity),
        ("Et predictor", predictors),
        ("row vs rack control", row_vs_rack),
    ];
    ampere_par::fan_out(
        &ampere_telemetry::global(),
        ampere_par::default_workers(),
        groups.to_vec(),
        |_, (name, f)| (name.to_string(), f(config)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AblationConfig {
        AblationConfig {
            hours: 4,
            warmup_mins: 90,
            ..AblationConfig::default()
        }
    }

    #[test]
    fn slower_control_interval_is_worse() {
        let rows = control_interval(&quick());
        assert_eq!(rows.len(), 4);
        let fast = &rows[0];
        let slow = &rows[3];
        assert!(
            slow.window.breaker_violations >= fast.window.breaker_violations,
            "10-min control should not beat 1-min: {} vs {}",
            slow.window.breaker_violations,
            fast.window.breaker_violations
        );
    }

    #[test]
    fn r_stable_mostly_affects_churn_not_safety() {
        let rows = r_stable(&quick());
        // Paper: "the value of r_stable does not affect the performance
        // much" — violations stay in the same ballpark across settings.
        let violations = rows.iter().map(|r| r.window.breaker_violations);
        let (max_v, min_v) = (violations.clone().max().unwrap(), violations.min().unwrap());
        assert!(max_v <= min_v + 6, "r_stable changed safety: {rows:?}");
    }

    #[test]
    fn smaller_u_max_saturates_and_violates_more() {
        let rows = u_max(&quick());
        let tight = &rows[0]; // 0.3
        let loose = &rows[3]; // 1.0
        assert!(tight.window.breaker_violations >= loose.window.breaker_violations);
    }

    #[test]
    fn rack_control_freezes_more_than_row_control() {
        let rows = row_vs_rack(&quick());
        let (row, rack) = (rows[0].window.u_mean(), rows[1].window.u_mean());
        // Less statistical room at rack scale → more freezing for the
        // same demand (the §3.1 argument for row-level control).
        assert!(rack > row, "rack u_mean {rack} !> row u_mean {row}");
    }
}
