//! Shared calibration constants and helpers.
//!
//! The paper's deployment pipeline is: (1) collect a long power trace,
//! (2) fit the `Et` percentile table from it (§3.6), (3) fit `kr` from
//! a controlled experiment (§3.4), (4) run the controller. These
//! helpers implement steps 1–2 for any experiment, plus the default
//! constants used when an experiment does not run its own fit.

use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile, PowerChangePredictor};
use ampere_sim::{SimDuration, SimTime};
use ampere_workload::RateProfile;

use crate::fig10::parity_testbed;
use crate::testbed::DomainTickRecord;

/// Default control-model slope in budget-normalized units, at the
/// controller's one-minute horizon: the power reduction one minute of
/// freezing ratio `u` buys (`fig5::run` fits this as
/// `model_one_minute`). The *steady-state* slope is ~3x larger, but
/// using it would make the controller under-freeze — the model must
/// match the horizon the RHC step optimizes over (Eq. 11).
pub const DEFAULT_KR: f64 = 0.05;

/// Default flat `Et` margin (≈ the 99.5th percentile of one-minute
/// increases under the production-like workloads, Fig 9).
pub const DEFAULT_ET: f64 = 0.03;

/// The percentile the paper uses for the `Et` table.
pub const ET_PERCENTILE: f64 = 99.5;

/// Minimum per-hour `Et`. Two observations fix this value: the paper's
/// Fig 12 draws its threshold ratio visibly below 0.95 (production `Et`
/// ≈ 0.06), and a pure percentile fit under-protects because a deep
/// demand excursion violates for *several consecutive minutes* while
/// frozen servers drain — only a standing margin absorbs it. With this
/// floor the heavy Table 2 column lands on the paper's numbers
/// (experiment Pmax 1.002, a residual violation or two from the
/// `u_max = 0.5` limit, control group in the low hundreds).
pub const ET_FLOOR: f64 = 0.065;

/// Fits the paper's per-hour `Et` table from a recorded (uncontrolled)
/// domain trace, using each tick's budget-normalized power.
pub fn et_from_records(records: &[DomainTickRecord]) -> HistoricalPercentile {
    let history: Vec<(SimTime, f64)> = records.iter().map(|r| (r.time, r.power_norm)).collect();
    HistoricalPercentile::fit(&history, ET_PERCENTILE, DEFAULT_ET).with_floor(ET_FLOOR)
}

/// Steps 1–2 for a parity experiment: fits the `Et` table from the
/// experiment group of an uncontrolled parity-split row run for
/// `hours` under `profile` and `seed`, with budgets scaled by `r_o`.
pub fn parity_et(profile: RateProfile, seed: u64, r_o: f64, hours: u64) -> HistoricalPercentile {
    let (mut cal, exp, _) = parity_testbed(profile, seed, r_o, None);
    cal.run_for(SimDuration::from_hours(hours));
    et_from_records(cal.records(exp))
}

/// A controller with the default configuration and the given predictor.
pub fn controller_with(predictor: Box<dyn PowerChangePredictor>) -> AmpereController {
    AmpereController::new(
        ControllerConfig {
            kr: DEFAULT_KR,
            ..ControllerConfig::default()
        },
        predictor,
    )
}

/// A controller with the default configuration and a flat `Et`.
pub fn default_controller() -> AmpereController {
    controller_with(Box::new(HistoricalPercentile::flat(DEFAULT_ET)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(min: u64, p: f64) -> DomainTickRecord {
        DomainTickRecord {
            time: SimTime::ZERO + SimDuration::from_mins(min),
            power_w: p * 1_000.0,
            power_norm: p,
            ..DomainTickRecord::default()
        }
    }

    #[test]
    fn et_fit_from_trace() {
        // A sawtooth with +0.02 steps: the fitted percentile is ~0.02,
        // so the conservative floor takes over.
        let recs: Vec<DomainTickRecord> = (0..200)
            .map(|m| record(m, 0.8 + 0.02 * (m % 5) as f64))
            .collect();
        let et = et_from_records(&recs);
        let e = et.estimate(SimTime::from_mins(10));
        assert!((e - super::ET_FLOOR).abs() < 1e-12, "Et = {e}");

        // A spikier sawtooth (+0.1 steps) exceeds the floor and is
        // fitted from the data.
        let recs: Vec<DomainTickRecord> = (0..200)
            .map(|m| record(m, 0.5 + 0.1 * (m % 5) as f64))
            .collect();
        let et = et_from_records(&recs);
        let e = et.estimate(SimTime::from_mins(10));
        assert!((0.09..=0.11).contains(&e), "Et = {e}");
    }

    #[test]
    fn default_controller_uses_default_kr() {
        let c = default_controller();
        assert_eq!(c.config().kr, DEFAULT_KR);
        assert_eq!(c.config().u_max, 0.5);
    }
}
