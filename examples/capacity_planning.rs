//! Capacity planning: choose the over-provisioning ratio r_O.
//!
//! The §4.4 trade-off as a planning tool: sweep r_O for a given
//! workload level and report the TPW gain, the control effort and the
//! violation count at each setting — the data an operator needs to
//! pick how many extra servers to rack (the paper settles on 0.17).
//!
//! Run with: `cargo run --release --example capacity_planning [rate_scale]`

use ampere_experiments::calibrate::{controller_with, parity_et};
use ampere_experiments::fig10::parity_testbed;
use ampere_experiments::WindowStats;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

fn main() {
    let rate_scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.92);
    let profile = RateProfile::heavy_row().scaled(rate_scale);
    println!("workload: heavy_row × {rate_scale} | 8 h per setting + calibration\n");
    println!("  r_O   P_mean   P_max   u_mean   r_T     G_TPW   violations");

    let mut best: Option<(f64, f64)> = None;
    for r_o in [0.13, 0.17, 0.21, 0.25, 0.29] {
        // Calibrate Et for this budget scaling, then run controlled.
        let et = parity_et(profile.clone(), 77, r_o, 6);
        let (mut tb, exp, ctl) = parity_testbed(
            profile.clone(),
            77,
            r_o,
            Some(controller_with(Box::new(et))),
        );
        tb.run_window(SimDuration::from_mins(90), SimDuration::from_hours(8));

        let budget_w = tb.domain_budget_w(exp);
        let e = WindowStats::of(tb.window(exp), budget_w);
        let c = WindowStats::of(tb.window(ctl), budget_w);
        let (p_mean, p_max, u_mean) = (c.p_mean(), c.p_max, e.u_mean());
        let r_t = (e.placed as f64 / c.placed.max(1) as f64).min(1.0);
        let gtpw = ampere_core::gtpw(r_t, r_o);
        let violations = e.breaker_violations;
        println!(
            "  {r_o:.2}  {p_mean:6.3}  {p_max:6.3}  {u_mean:6.3}  {r_t:5.3}  {:6.1}%  {violations:6}",
            gtpw * 100.0
        );
        if best.is_none_or(|(_, g)| gtpw > g) && violations == 0 {
            best = Some((r_o, gtpw));
        }
    }

    if let Some((r_o, gtpw)) = best {
        println!(
            "\nrecommended r_O = {r_o:.2}: {:.1}% more throughput per provisioned watt \
             with zero violations",
            gtpw * 100.0
        );
    }
}
