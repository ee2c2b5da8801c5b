//! Fig 10 and Table 2: Ampere's control under light and heavy
//! workload at r_O = 0.25.
//!
//! A parity-split row: the experiment group runs under Ampere, the
//! control group is left alone; both are measured against the scaled
//! budget (Eq. 16) with hardware capping off "so we can observe the
//! real power demand". The paper's headline: 321 violations without
//! control vs 1 with it (heavy), the residual one caused by the
//! operational `u_max = 0.5` limit.

use ampere_cluster::ServerId;
use ampere_core::{scaled_budget_w, AmpereController, ParitySplit};
use ampere_faults::FaultPlan;
use ampere_power::CappingConfig;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use crate::calibrate::{controller_with, parity_et};
use crate::testbed::{DomainId, DomainSpec, Testbed, TestbedConfig};
use crate::window::WindowStats;

/// Which Table 2 column to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The light workload of Fig 10(a).
    Light,
    /// The heavy workload of Fig 10(b).
    Heavy,
}

impl WorkloadKind {
    /// The arrival profile for this workload.
    pub fn profile(self) -> RateProfile {
        match self {
            WorkloadKind::Light => RateProfile::light_row(),
            WorkloadKind::Heavy => RateProfile::heavy_row(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Light => "Light",
            WorkloadKind::Heavy => "Heavy",
        }
    }
}

/// Configuration of the Fig 10 / Table 2 reproduction.
pub struct Fig10Config {
    /// The workload column.
    pub workload: WorkloadKind,
    /// Measured hours (24 in the paper).
    pub hours: u64,
    /// Warm-up minutes discarded before measurement.
    pub warmup_mins: u64,
    /// Over-provisioning ratio (0.25 in Fig 10/Table 2).
    pub r_o: f64,
    /// RNG seed.
    pub seed: u64,
    /// Hours of uncontrolled calibration used to fit the `Et` table.
    pub calibration_hours: u64,
}

impl Fig10Config {
    /// Paper-scale configuration for one workload column.
    pub fn paper(workload: WorkloadKind) -> Self {
        Self {
            workload,
            hours: 24,
            warmup_mins: 120,
            r_o: 0.25,
            seed: 10,
            calibration_hours: 24,
        }
    }
}

/// Per-group statistics — one Table 2 column half.
#[derive(Debug, Clone, Copy)]
pub struct GroupStats {
    /// Mean freezing ratio over the window.
    pub u_mean: f64,
    /// Maximum freezing ratio.
    pub u_max: f64,
    /// Mean normalized power.
    pub p_mean: f64,
    /// Maximum normalized power.
    pub p_max: f64,
    /// Power violations (minutes over the scaled budget).
    pub violations: u64,
}

/// The reproduced figure and table column.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// `(minute, power_norm, freezing_ratio)` for the experiment group.
    pub exp_trace: Vec<(u64, f64, f64)>,
    /// `(minute, power_norm)` for the control group.
    pub ctl_trace: Vec<(u64, f64)>,
    /// Experiment-group statistics.
    pub exp: GroupStats,
    /// Control-group statistics.
    pub ctl: GroupStats,
}

impl From<WindowStats> for GroupStats {
    fn from(w: WindowStats) -> Self {
        Self {
            u_mean: w.u_mean(),
            u_max: w.u_max,
            p_mean: w.p_mean(),
            p_max: w.p_max,
            violations: w.breaker_violations,
        }
    }
}

/// The paper's 440-server evaluation row split by server-id parity
/// (§4.1.2), before any power domain is registered: the row every
/// parity experiment builds, to which each adds its own domains.
pub struct ParityRow {
    /// The row's testbed, with no domain registered yet.
    pub tb: Testbed,
    /// The experiment group (even server ids).
    pub exp: Vec<ServerId>,
    /// The control group (odd server ids).
    pub ctl: Vec<ServerId>,
    /// One group's budget: its rated power scaled by Eq. 16.
    pub budget_w: f64,
}

impl ParityRow {
    /// The row under `profile` and `seed`, with group budgets scaled by
    /// `r_o`. RAPL capping is armed only if `capping` is set: the parity
    /// experiments switch it off "so we can observe the real power
    /// demand"; the chaos sweep keeps it for the watchdog's backstop,
    /// and Fig 5 keeps the testbed default (neither caps a domain).
    /// `faults`, if any, is injected into the whole run.
    pub fn new(
        profile: RateProfile,
        seed: u64,
        r_o: f64,
        capping: bool,
        faults: Option<FaultPlan>,
    ) -> Self {
        let tb = Testbed::new(TestbedConfig {
            capping: CappingConfig {
                enabled: capping,
                ..CappingConfig::default()
            },
            faults,
            ..TestbedConfig::paper_row(profile, seed)
        });
        let spec = *tb.cluster().spec();
        let all = (0..spec.server_count() as u64).map(ServerId::new);
        let (exp, ctl) = ParitySplit::split(all);
        let budget_w = scaled_budget_w(exp.len() as f64 * spec.power_model.rated_w, r_o);
        Self {
            tb,
            exp,
            ctl,
            budget_w,
        }
    }

    /// Registers both groups at the scaled budget, uncapped; the
    /// experiment group is controlled iff a controller is supplied.
    /// Returns `(testbed, exp_domain, ctl_domain)`.
    pub fn with_groups(
        mut self,
        controller: Option<AmpereController>,
    ) -> (Testbed, DomainId, DomainId) {
        let mut group = |name: &str, servers, controller| {
            self.tb.add_domain(DomainSpec {
                name: name.into(),
                servers,
                budget_w: self.budget_w,
                controller,
                capped: false,
            })
        };
        let exp_dom = group("experiment", self.exp, controller);
        let ctl_dom = group("control", self.ctl, None);
        (self.tb, exp_dom, ctl_dom)
    }
}

/// Builds the standard parity-split testbed used by several
/// experiments; returns `(testbed, exp_domain, ctl_domain)`. The
/// experiment group is controlled iff a controller is supplied.
pub fn parity_testbed(
    profile: RateProfile,
    seed: u64,
    r_o: f64,
    controller: Option<AmpereController>,
) -> (Testbed, DomainId, DomainId) {
    ParityRow::new(profile, seed, r_o, false, None).with_groups(controller)
}

/// Runs the reproduction for one workload column.
pub fn run(config: Fig10Config) -> Fig10Result {
    run_with_faults(config, None)
}

/// [`run`] with an optional fault plan applied to the *measured* phase
/// only: calibration stays fault-free (the `Et` table is fit from clean
/// history, as in the paper), then the controlled run rides out the
/// injected faults.
pub fn run_with_faults(config: Fig10Config, faults: Option<FaultPlan>) -> Fig10Result {
    // Phase 1 — calibration: an uncontrolled run of the same workload
    // fits the per-hour Et table (§3.6's "monitor the power of all rows
    // ... for a long time").
    let profile = config.workload.profile();
    let et = parity_et(
        profile.clone(),
        config.seed,
        config.r_o,
        config.calibration_hours,
    );

    // Phase 2 — the controlled experiment with the same seed, so both
    // phases see an identical arrival stream.
    let controller = controller_with(Box::new(et));
    let (mut tb, exp_dom, ctl_dom) =
        ParityRow::new(profile, config.seed, config.r_o, false, faults)
            .with_groups(Some(controller));
    tb.run_window(
        SimDuration::from_mins(config.warmup_mins),
        SimDuration::from_hours(config.hours),
    );

    let (exp_recs, ctl_recs) = (tb.window(exp_dom), tb.window(ctl_dom));
    let budget_w = tb.domain_budget_w(exp_dom);
    Fig10Result {
        exp_trace: exp_recs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.power_norm, r.freezing_ratio))
            .collect(),
        ctl_trace: ctl_recs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.power_norm))
            .collect(),
        exp: WindowStats::of(exp_recs, budget_w).into(),
        ctl: WindowStats::of(ctl_recs, budget_w).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick setting: 8 measured hours after 90 warm-up minutes,
    /// `Et` fitted from 8 calibration hours.
    fn quick_config(workload: WorkloadKind, seed: u64) -> Fig10Config {
        Fig10Config {
            workload,
            hours: 8,
            warmup_mins: 90,
            calibration_hours: 8,
            seed,
            ..Fig10Config::paper(workload)
        }
    }

    fn quick(workload: WorkloadKind) -> Fig10Result {
        run(quick_config(workload, Fig10Config::paper(workload).seed))
    }

    /// Breaker violations of the experiment group's uncontrolled twin:
    /// the same parity testbed, run without a controller over the same
    /// window as [`run`]'s controlled run.
    fn twin_violations(config: &Fig10Config) -> u64 {
        let (mut tb, exp, _) =
            parity_testbed(config.workload.profile(), config.seed, config.r_o, None);
        tb.run_window(
            SimDuration::from_mins(config.warmup_mins),
            SimDuration::from_hours(config.hours),
        );
        WindowStats::of(tb.window(exp), tb.domain_budget_w(exp)).breaker_violations
    }

    /// The paper's claim (§4.1.2, Table 2), gated against the group
    /// itself uncontrolled rather than against the same run's control
    /// group, which absorbs the displaced work. The seeds were fixed
    /// before the gate was written.
    #[test]
    fn control_beats_the_uncontrolled_twin_on_every_seed() {
        for seed in (10..=17).chain([1009]) {
            for workload in [WorkloadKind::Heavy, WorkloadKind::Light] {
                let config = quick_config(workload, seed);
                let twin = twin_violations(&config);
                let controlled = run(config).exp.violations;
                match workload {
                    WorkloadKind::Heavy => assert!(
                        controlled < twin,
                        "heavy, seed {seed}: controlled {controlled} vs twin {twin}"
                    ),
                    WorkloadKind::Light => assert!(
                        controlled <= twin,
                        "light, seed {seed}: controlled {controlled} vs twin {twin}"
                    ),
                }
            }
        }
    }

    #[test]
    fn heavy_control_prevents_violations() {
        let r = quick(WorkloadKind::Heavy);
        // The same run's control group violates a lot; Ampere almost
        // never. The control group absorbs the work the experiment
        // group displaces, so this overstates the win; the gate against
        // the group's own uncontrolled twin is the test above.
        assert!(
            r.ctl.violations >= 10,
            "control group violations = {} (demand too low?)",
            r.ctl.violations
        );
        assert!(
            r.exp.violations <= r.ctl.violations / 5,
            "exp {} vs ctl {}",
            r.exp.violations,
            r.ctl.violations
        );
        // The controller worked for it: a substantial mean freeze.
        assert!(r.exp.u_mean > 0.01, "u_mean = {}", r.exp.u_mean);
        assert!(r.exp.u_max <= 0.5 + 1e-9);
        // And the experiment group's peak power is tamed.
        assert!(
            r.exp.p_max < r.ctl.p_max,
            "{} vs {}",
            r.exp.p_max,
            r.ctl.p_max
        );
    }

    #[test]
    fn light_control_barely_intervenes() {
        let r = quick(WorkloadKind::Light);
        assert!(r.exp.u_mean < 0.08, "u_mean = {}", r.exp.u_mean);
        assert_eq!(r.exp.violations, 0);
        // Both groups hover well under the budget on average.
        assert!(r.ctl.p_mean < 0.95);
    }
}
