//! Fig 9: CDF of row-power changes at 1/5/20/60-minute time scales.
//!
//! "For the k-minute scale, we compute a sequence of the maximum power
//! for every k minutes, and then plot the CDF of the first order
//! differences of the power sequence", normalized to the provisioned
//! budget. The headline observations: at 1-minute scale 99 % of changes
//! are within ±2.5 %, but changes can reach ~10 %.

use ampere_sim::SimDuration;
use ampere_stats::{cdf_points, first_differences, resample_max, Cdf};
use ampere_workload::RateProfile;

use crate::testbed::{Testbed, TestbedConfig};

/// Configuration of the Fig 9 reproduction.
pub struct Fig9Config {
    /// Trace length in hours.
    pub hours: u64,
    /// Warm-up hours discarded.
    pub warmup_hours: u64,
    /// Arrival profile.
    pub profile: RateProfile,
    /// RNG seed.
    pub seed: u64,
    /// The resampling scales in minutes (1, 5, 20, 60 in the paper).
    pub scales: Vec<usize>,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Self {
            hours: 48,
            warmup_hours: 2,
            profile: RateProfile::heavy_row(),
            seed: 9,
            scales: vec![1, 5, 20, 60],
        }
    }
}

/// One CDF series of the figure.
#[derive(Debug, Clone)]
pub struct ScaleCdf {
    /// The resampling scale in minutes.
    pub scale_mins: usize,
    /// `(normalized_change, F)` CDF step points.
    pub points: Vec<(f64, f64)>,
    /// Fraction of changes within ±2.5 % of the budget.
    pub frac_within_2p5: f64,
    /// Largest absolute change (normalized).
    pub max_abs: f64,
}

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// One CDF per requested scale.
    pub scales: Vec<ScaleCdf>,
}

/// Runs the reproduction.
pub fn run(config: Fig9Config) -> Fig9Result {
    let mut tb = Testbed::new(TestbedConfig::paper_row(config.profile, config.seed));
    let rows = tb.add_row_domains(1.0).expect("rows registered once");
    tb.run_window(
        SimDuration::from_hours(config.warmup_hours),
        SimDuration::from_hours(config.hours),
    );

    let budget = tb.rated_row_power_w(ampere_cluster::RowId::new(0));
    let norm: Vec<f64> = tb
        .window(rows[0])
        .iter()
        .map(|r| r.power_w / budget)
        .collect();

    let scales = config
        .scales
        .iter()
        .map(|&k| {
            let diffs = first_differences(&resample_max(&norm, k));
            let cdf = Cdf::new(diffs.clone()).expect("non-empty diffs");
            let within = cdf.eval(0.025) - cdf.eval(-0.025 - 1e-12);
            let max_abs = diffs.iter().fold(0.0f64, |a, &d| a.max(d.abs()));
            ScaleCdf {
                scale_mins: k,
                points: cdf_points(&diffs),
                frac_within_2p5: within,
                max_abs,
            }
        })
        .collect();
    Fig9Result { scales }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_minute_changes_are_small_but_spiky() {
        let r = run(Fig9Config {
            hours: 10,
            warmup_hours: 1,
            ..Fig9Config::default()
        });
        assert_eq!(r.scales.len(), 4);
        let one_min = &r.scales[0];
        assert_eq!(one_min.scale_mins, 1);
        // Paper: ~99 % of 1-minute changes within ±2.5 %.
        assert!(
            one_min.frac_within_2p5 > 0.95,
            "within ±2.5% = {}",
            one_min.frac_within_2p5
        );
        // Coarser scales see a wider change distribution (diurnal
        // drift accumulates), even though the very largest single jump
        // can sit at the 1-minute scale (a gang burst).
        let hour = r.scales.last().unwrap();
        assert!(hour.max_abs > 0.01, "hourly changes too small");
        assert!(hour.frac_within_2p5 <= one_min.frac_within_2p5 + 1e-9);
    }
}
