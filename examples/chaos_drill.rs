//! Chaos drill: break the telemetry pipeline and kill the controller,
//! then watch the row survive.
//!
//! Injects the acceptance scenario — 25 % per-server sample dropout,
//! 1 % extra sensor noise, 5 % lost freeze RPCs, and a 10-minute
//! controller outage — into a controlled row and reports what each
//! layer of the defense did: the degraded controller (freezes held,
//! `Et` inflated), the watchdog-armed RAPL capping backstop, and the
//! replacement controller cold-started from the time-series DB. The
//! headline: the breaker never trips, and the throughput bill for all
//! that conservatism is printed at the end.
//!
//! Run with: `cargo run --release --example chaos_drill`

use ampere_experiments::chaos::{run, ChaosConfig};

fn main() {
    println!("running the dropout x outage chaos grid (heavy row, r_O = 0.25)…\n");
    let config = ChaosConfig {
        hours: 4,
        calibration_hours: 4,
        ..ChaosConfig::paper()
    };
    let r = run(&config);

    println!(
        "dropout  outage  violations  tripped  degraded  backstop  failovers  min_cov  r_thru"
    );
    for c in &r.cells {
        println!(
            "{:>6.0}%  {:>5}m  {:>10}  {:>7}  {:>8}  {:>8}  {:>9}  {:>7.2}  {:>6.3}",
            c.dropout * 100.0,
            c.outage_mins,
            c.window.breaker_violations,
            if c.tripped { "YES" } else { "no" },
            c.window.degraded_ticks,
            c.window.backstop_ticks,
            c.failovers,
            c.window.min_coverage,
            c.throughput_ratio,
        );
    }

    let tripped = r.cells.iter().filter(|c| c.tripped).count();
    let worst_cell = r
        .cells
        .iter()
        .filter(|c| c.outage_mins > 0)
        .max_by(|a, b| a.dropout.partial_cmp(&b.dropout).unwrap())
        .expect("grid includes an outage column");
    let cost = (1.0 - worst_cell.throughput_ratio) * 100.0;
    println!(
        "\nbreaker trips across the whole grid: {tripped}. In the worst cell \
         ({:.0}% dropout, {}-minute outage) the watchdog kept the capping \
         backstop armed for {} minutes, a replacement controller cold-started \
         {} time(s) from the time-series DB, and staying safe cost {:.1}% of \
         baseline throughput.",
        worst_cell.dropout * 100.0,
        worst_cell.outage_mins,
        worst_cell.window.backstop_ticks,
        worst_cell.failovers,
        cost.max(0.0),
    );
}
