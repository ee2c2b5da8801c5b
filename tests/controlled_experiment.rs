//! Integration tests of the §4.1.2 controlled-experiment methodology:
//! the parity split must produce statistically equivalent groups, and
//! the calibration pipeline (Et fit, f(u) fit) must produce a usable
//! controller.

use ampere_core::PowerChangePredictor;
use ampere_experiments::calibrate::{controller_with, et_from_records};
use ampere_experiments::fig10::parity_testbed;
use ampere_experiments::WindowStats;
use ampere_sim::{SimDuration, SimTime};
use ampere_stats::pearson;
use ampere_workload::RateProfile;

#[test]
fn parity_groups_are_statistically_equivalent() {
    // The paper validates the split over five days: power difference
    // < 0.46 %, correlation 0.946. A 12-hour uncontrolled run must
    // show the same equivalence.
    let (mut tb, exp, ctl) = parity_testbed(RateProfile::heavy_row(), 4242, 0.25, None);
    tb.run_for(SimDuration::from_hours(12));
    let e: Vec<f64> = tb.records(exp).iter().map(|r| r.power_w).collect();
    let c: Vec<f64> = tb.records(ctl).iter().map(|r| r.power_w).collect();

    let mean_e = e.iter().sum::<f64>() / e.len() as f64;
    let mean_c = c.iter().sum::<f64>() / c.len() as f64;
    let rel_diff = (mean_e - mean_c).abs() / mean_c;
    assert!(rel_diff < 0.01, "group mean power differs by {rel_diff}");

    let r = pearson(&e, &c).expect("correlation defined");
    assert!(r > 0.9, "group power correlation = {r} (paper: 0.946)");
}

#[test]
fn et_calibration_produces_a_safe_margin() {
    let (mut tb, exp, _) = parity_testbed(RateProfile::heavy_row(), 7, 0.25, None);
    tb.run_for(SimDuration::from_hours(12));
    let records = tb.records(exp).to_vec();
    let et = et_from_records(&records);

    // The margin must cover almost all observed 1-minute increases.
    let mut covered = 0usize;
    let mut total = 0usize;
    for w in records.windows(2) {
        let d = w[1].power_norm - w[0].power_norm;
        if d > 0.0 {
            total += 1;
            if d <= et.estimate(w[0].time) {
                covered += 1;
            }
        }
    }
    let coverage = covered as f64 / total.max(1) as f64;
    // Et is the 99.5th percentile of *all* changes; conditioning on
    // positive increases only lowers the covered share a little.
    assert!(coverage > 0.93, "Et covers only {coverage} of increases");

    // And it must not be absurdly conservative (paper keeps it small
    // to preserve utilization).
    let mean_et: f64 = (0..24)
        .map(|h| et.estimate(SimTime::from_hours(h)))
        .sum::<f64>()
        / 24.0;
    assert!(mean_et < 0.12, "mean Et = {mean_et} wastes too much budget");
}

#[test]
fn fig5_fit_feeds_a_working_controller() {
    // The full §3.4 pipeline: measure f(u) in a controlled experiment,
    // fit kr at the one-minute horizon, build a controller from it and
    // verify it controls.
    let fit = ampere_experiments::fig5::run(ampere_experiments::fig5::Fig5Config {
        levels: vec![0.0, 0.2, 0.4, 0.6],
        settle_mins: 10,
        sample_mins: 5,
        washout_mins: 15,
        sweeps: 2,
        ..ampere_experiments::fig5::Fig5Config::default()
    });
    let kr = fit.model_one_minute.kr;
    assert!((0.01..=0.2).contains(&kr), "one-minute kr = {kr}");

    let controller = ampere_core::AmpereController::new(
        ampere_core::ControllerConfig {
            kr,
            ..ampere_core::ControllerConfig::default()
        },
        Box::new(ampere_core::HistoricalPercentile::flat(0.03)),
    );
    let (mut tb, exp, ctl) = parity_testbed(RateProfile::heavy_row(), 314, 0.25, Some(controller));
    tb.run_window(SimDuration::from_mins(90), SimDuration::from_hours(4));
    let viol = |d| WindowStats::of(tb.window(d), tb.domain_budget_w(d)).breaker_violations;
    let (exp_viol, ctl_viol) = (viol(exp), viol(ctl));
    assert!(
        exp_viol * 5 <= ctl_viol.max(1),
        "fitted controller ineffective: {exp_viol} vs {ctl_viol}"
    );
}

#[test]
fn online_predictors_also_control() {
    // The §6 future-work extension: EWMA and AR(1) online Et
    // predictors, run through the same end-to-end check.
    let predictors: Vec<Box<dyn PowerChangePredictor>> = vec![
        Box::new(ampere_core::EwmaPredictor::paper_extension_default()),
        Box::new(ampere_core::ArPredictor::paper_extension_default()),
    ];
    for predictor in predictors {
        let name = predictor.name();
        let controller = controller_with(predictor);
        let (mut tb, exp, ctl) =
            parity_testbed(RateProfile::heavy_row(), 271, 0.25, Some(controller));
        tb.run_window(SimDuration::from_mins(90), SimDuration::from_hours(4));
        let viol = |d| WindowStats::of(tb.window(d), tb.domain_budget_w(d)).breaker_violations;
        let (exp_viol, ctl_viol) = (viol(exp), viol(ctl));
        assert!(
            ctl_viol > 0,
            "{name}: no uncontrolled violations to prevent"
        );
        assert!(exp_viol * 3 <= ctl_viol, "{name}: {exp_viol} vs {ctl_viol}");
    }
}
