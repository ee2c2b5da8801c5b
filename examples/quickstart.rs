//! Quickstart: put one over-provisioned row under Ampere's control.
//!
//! Builds the paper's 440-server row, over-provisions it by 25 %
//! (emulated by scaling the budget down, Eq. 16), attaches an Ampere
//! controller to the experiment half of a parity split, runs four
//! hours of heavy production-like workload, and prints what the
//! controller did.
//!
//! Run with: `cargo run --release --example quickstart`

use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile};
use ampere_experiments::fig10::parity_testbed;
use ampere_experiments::WindowStats;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

fn main() {
    // 1. The control model: slope of f(u) = kr·u at the one-minute
    //    horizon, and a flat Et safety margin. In production both come
    //    from calibration runs (see the fig5 experiment).
    let controller = AmpereController::new(
        ControllerConfig {
            kr: 0.05,
            u_max: 0.5,
            r_stable: 0.8,
            interval: SimDuration::MINUTE,
            ..ControllerConfig::default()
        },
        // The production safety margin (see ampere-experiments::calibrate).
        Box::new(HistoricalPercentile::flat(0.065)),
    );

    // 2. A parity-split 440-server row at r_O = 0.25: the experiment
    //    group is controlled, its twin is not.
    let (mut tb, exp, ctl) = parity_testbed(RateProfile::heavy_row(), 42, 0.25, Some(controller));

    // 3. Warm the row to steady state, then run four hours of
    //    simulated production workload.
    println!("running 4 hours of heavy workload on 440 servers…");
    tb.run_window(SimDuration::from_hours(1), SimDuration::from_hours(4));

    // 4. Report.
    let stats = |d| {
        let w = WindowStats::of(tb.window(d), tb.domain_budget_w(d));
        (
            w.p_mean(),
            w.p_max,
            w.u_mean(),
            w.breaker_violations,
            w.placed,
        )
    };
    let (ep, epm, eu, ev, ej) = stats(exp);
    let (cp, cpm, _, cv, cj) = stats(ctl);

    println!("\n                    controlled   uncontrolled");
    println!("mean power / budget   {ep:10.3}   {cp:12.3}");
    println!("max  power / budget   {epm:10.3}   {cpm:12.3}");
    println!("power violations      {ev:10}   {cv:12}");
    println!("mean freezing ratio   {eu:10.3}   {:12.3}", 0.0);
    println!("jobs accepted         {ej:10}   {cj:12}");
    println!(
        "\nWith 25% more servers than the budget strictly allows, Ampere kept the \
         controlled group under its budget ({ev} violations vs {cv}) by freezing \
         {:.1}% of servers on average — no running job was ever slowed down.",
        eu * 100.0
    );
}
