//! Fleet scale: Ampere across a whole data center.
//!
//! The paper deploys Ampere "in a production data center with tens of
//! thousands of servers running millions of jobs per day". This example
//! runs the reproduction at that scale — 40 rows × 800 servers = 32,000
//! servers, each row under its own controller at r_O = 0.17 (the
//! paper's production choice) — and reports both the fleet-level
//! control outcome and the simulator's own throughput (simulated
//! minutes per wall-clock second), showing the per-minute control path
//! is cheap enough for a real deployment many times this size.
//!
//! Run with: `cargo run --release --example fleet_scale [rows] [hours]`

use std::time::Instant;

use ampere_cluster::{ClusterSpec, RowId};
use ampere_core::{scaled_budget_w, CostModel};
use ampere_experiments::calibrate::default_controller;
use ampere_experiments::{DomainSpec, Testbed, TestbedConfig, WindowStats};
use ampere_power::CappingConfig;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let hours: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let r_o = 0.17;

    let spec = ClusterSpec {
        rows,
        racks_per_row: 20,
        servers_per_rack: 40,
        ..ClusterSpec::paper_row()
    };
    println!(
        "fleet: {} servers in {rows} rows; r_O = {r_o}; {hours} h of heavy load\n",
        spec.server_count()
    );

    let profile = RateProfile::heavy_row().scaled(spec.server_count() as f64 / 440.0 * 0.95);
    let mut tb = Testbed::new(TestbedConfig {
        spec,
        capping: CappingConfig {
            enabled: false,
            ..CappingConfig::default()
        },
        ..TestbedConfig::paper_row(profile, 99)
    });

    let rated = spec.rated_row_power_w();
    let budget = scaled_budget_w(rated, r_o);
    let domains: Vec<_> = (0..rows)
        .map(|r| {
            let row = RowId::new(r as u64);
            tb.set_row_budget_w(row, budget);
            let servers = tb.cluster().row_server_ids(row).collect();
            tb.add_domain(DomainSpec {
                name: format!("row{r}"),
                servers,
                budget_w: budget,
                controller: Some(default_controller()),
                capped: false,
            })
        })
        .collect();

    let start = Instant::now();
    tb.run_for(SimDuration::from_hours(hours));
    let wall = start.elapsed();

    let windows = domains.iter().map(|&d| tb.records(d));
    let w = WindowStats::of_all(windows, tb.domain_budget_w(domains[0]));
    let (violations, ticks) = (w.breaker_violations, w.ticks);
    let stats = tb.sched().stats();
    println!(
        "jobs submitted: {}  placed: {}  completed: {}",
        stats.submitted, stats.placed, stats.completed
    );
    println!(
        "fleet control: violations={violations} / {ticks} row-minutes; mean u={:.3}; worst row P={:.3}",
        w.u_mean(),
        w.p_max
    );

    let sim_minutes = (hours * 60) as f64;
    println!(
        "\nsimulator: {:.1} simulated minutes / wall second ({} servers, {:.1}s total)",
        sim_minutes / wall.as_secs_f64(),
        tb.cluster().server_count(),
        wall.as_secs_f64()
    );

    // What this deployment is worth (§1's build-cost framing).
    let gain = CostModel::default().capacity_gain(rated * rows as f64, r_o, 0.98);
    println!(
        "economics: +{} server spaces in the same footprint ≈ {:.1} M USD of avoided build-out",
        gain.extra_servers,
        gain.equivalent_capital_usd / 1e6
    );
}
