//! Fig 8: the power of one production row over 24 hours, normalized to
//! the maximum power — large diurnal variation at hour scale plus
//! unpredictable spikes and valleys at minute scale.

use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use crate::testbed::{Testbed, TestbedConfig};

/// Configuration of the Fig 8 reproduction.
pub struct Fig8Config {
    /// Trace length in hours (24 in the paper).
    pub hours: u64,
    /// Warm-up hours discarded before the trace starts.
    pub warmup_hours: u64,
    /// Arrival profile of the row.
    pub profile: RateProfile,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Self {
            hours: 24,
            warmup_hours: 2,
            profile: RateProfile::heavy_row(),
            seed: 8,
        }
    }
}

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// `(minute, power / max_power)` series, one point per minute.
    pub series: Vec<(u64, f64)>,
    /// Peak-to-trough swing of the normalized series.
    pub swing: f64,
    /// Mean of the normalized series.
    pub mean: f64,
}

/// Runs the reproduction.
pub fn run(config: Fig8Config) -> Fig8Result {
    let mut tb = Testbed::new(TestbedConfig::paper_row(config.profile, config.seed));
    let rows = tb.add_row_domains(1.0).expect("rows registered once");
    tb.run_window(
        SimDuration::from_hours(config.warmup_hours),
        SimDuration::from_hours(config.hours),
    );

    let watts: Vec<f64> = tb.window(rows[0]).iter().map(|r| r.power_w).collect();
    let max = watts.iter().cloned().fold(f64::MIN, f64::max);
    let series: Vec<(u64, f64)> = watts
        .iter()
        .enumerate()
        .map(|(i, &w)| (i as u64, w / max))
        .collect();
    let min = series.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
    let mean = series.iter().map(|&(_, v)| v).sum::<f64>() / series.len() as f64;
    Fig8Result {
        swing: 1.0 - min,
        mean,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shows_diurnal_variation() {
        let r = run(Fig8Config {
            hours: 6,
            warmup_hours: 1,
            ..Fig8Config::default()
        });
        assert_eq!(r.series.len(), 360);
        // Normalized to max: top value is exactly 1.
        let max = r.series.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        // Visible variation (paper: ~0.75–1.0 over a day; a 6 h slice
        // still swings several percent).
        assert!(r.swing > 0.02, "swing = {}", r.swing);
        assert!(r.mean < 1.0);
    }
}
