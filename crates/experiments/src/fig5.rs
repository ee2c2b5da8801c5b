//! Fig 5: the effect `f(u)` of the freezing ratio on row power, and the
//! `kr` fit (§3.4).
//!
//! The paper sets `u` to a variety of values over 24 hours on the
//! experiment group of a parity-split row and measures
//! `f(u) = P_C − P_E` (both normalized to the group budget), the
//! power difference the control induces relative to the uncontrolled
//! twin group. The observed relation is approximately linear,
//! `f(u) ≈ kr · u`, with wide per-`u` spread — hence the 25th/50th/75th
//! percentile curves.

use ampere_cluster::ServerId;
use ampere_core::ControlModel;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use crate::fig10::ParityRow;

/// Configuration of the Fig 5 reproduction.
pub struct Fig5Config {
    /// Freezing-ratio levels to sweep.
    pub levels: Vec<f64>,
    /// Minutes each level is held before sampling starts.
    pub settle_mins: u64,
    /// Minutes sampled at each level after settling.
    pub sample_mins: u64,
    /// Unfrozen washout minutes between levels.
    pub washout_mins: u64,
    /// Number of full sweeps over the levels (time-of-day diversity).
    pub sweeps: usize,
    /// Over-provisioning ratio for budget normalization (0.25).
    pub r_o: f64,
    /// Arrival profile.
    pub profile: RateProfile,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            levels: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            settle_mins: 12,
            sample_mins: 8,
            washout_mins: 20,
            sweeps: 3,
            r_o: 0.25,
            profile: RateProfile::heavy_row(),
            seed: 5,
        }
    }
}

/// The reproduced figure plus the model fits it feeds (§3.4).
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Raw steady-state `(u, f(u))` samples (divergence after the
    /// settle window) — what the figure plots.
    pub samples: Vec<(f64, f64)>,
    /// 25th/50th/75th percentile curves: `(u_bin_center, f)` each.
    pub curves: Vec<Vec<(f64, f64)>>,
    /// Through-origin fit of the steady-state samples.
    pub model: ControlModel,
    /// Through-origin fit of the *one-minute* divergence increments
    /// right after each control change — the slope the per-minute RHC
    /// step actually needs (`calibrate::DEFAULT_KR`).
    pub model_one_minute: ControlModel,
}

/// Runs the reproduction.
pub fn run(config: Fig5Config) -> Fig5Result {
    // Both groups uncontrolled; RAPL stays armed, but no domain is capped.
    let row = ParityRow::new(config.profile, config.seed, config.r_o, true, None);
    let exp = row.exp.clone();
    let (mut tb, exp_dom, ctl_dom) = row.with_groups(None);

    // Warm the row to steady state.
    tb.run_for(SimDuration::from_mins(120));

    let mut samples = Vec::new();
    let mut one_minute_samples = Vec::new();
    for sweep in 0..config.sweeps {
        for (li, &u) in config.levels.iter().enumerate() {
            // Washout: everything unfrozen, groups re-converge.
            tb.unfreeze_domain(exp_dom);
            tb.run_for(SimDuration::from_mins(config.washout_mins));

            // Freeze the top-u fraction of the experiment group by
            // measured power (the controller's own selection rule).
            let n_freeze = (u * exp.len() as f64).floor() as usize;
            let mut by_power: Vec<(ServerId, f64)> = exp
                .iter()
                .map(|&id| (id, tb.measured_server_w(id)))
                .collect();
            by_power.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            for &(id, _) in by_power.iter().take(n_freeze) {
                tb.freeze(id);
            }

            // Early phase: per-minute divergence increments give the
            // one-minute-horizon slope the controller uses.
            let early_start = tb.records(exp_dom).len();
            tb.run_for(SimDuration::from_mins(config.settle_mins));
            let early_exp = &tb.records(exp_dom)[early_start..];
            let early_ctl = &tb.records(ctl_dom)[early_start..];
            let divergence: Vec<f64> = early_exp
                .iter()
                .zip(early_ctl)
                .map(|(e, c)| c.power_norm - e.power_norm)
                .collect();
            for w in divergence.windows(2).take(5) {
                one_minute_samples.push((u, w[1] - w[0]));
            }

            // Steady phase: the Fig 5 f(u) samples.
            let start = tb.records(exp_dom).len();
            tb.run_for(SimDuration::from_mins(config.sample_mins));
            let exp_recs = &tb.records(exp_dom)[start..];
            let ctl_recs = &tb.records(ctl_dom)[start..];
            for (e, c) in exp_recs.iter().zip(ctl_recs) {
                samples.push((u, c.power_norm - e.power_norm));
            }
            let _ = (sweep, li);
        }
    }

    let curves = ControlModel::percentile_curves(&samples, 7, 0.7, &[0.25, 0.50, 0.75]);
    let model = ControlModel::fit(&samples).expect("usable control authority");
    let model_one_minute =
        ControlModel::fit(&one_minute_samples).expect("usable one-minute control authority");
    Fig5Result {
        samples,
        curves,
        model,
        model_one_minute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_of_u_is_increasing_and_roughly_linear() {
        let r = run(Fig5Config {
            levels: vec![0.0, 0.2, 0.4, 0.6],
            settle_mins: 10,
            sample_mins: 5,
            washout_mins: 15,
            sweeps: 2,
            ..Fig5Config::default()
        });
        // A usable positive slope in a plausible range.
        assert!(
            (0.03..=0.4).contains(&r.model.kr),
            "kr = {} (R² = {})",
            r.model.kr,
            r.model.r_squared
        );
        // Median curve increases from low-u to high-u bins.
        let median = &r.curves[1];
        assert!(median.len() >= 3);
        let first = median.first().unwrap().1;
        let last = median.last().unwrap().1;
        assert!(
            last > first + 0.01,
            "median not increasing: {first} → {last}"
        );
        // u = 0 samples center near zero (groups statistically equal).
        let zeros: Vec<f64> = r
            .samples
            .iter()
            .filter(|&&(u, _)| u == 0.0)
            .map(|&(_, f)| f)
            .collect();
        let mean0 = zeros.iter().sum::<f64>() / zeros.len() as f64;
        assert!(mean0.abs() < 0.02, "u=0 mean diff = {mean0}");
    }
}
