//! Chaos sweep: graceful degradation under injected faults.
//!
//! The paper's architecture (§3.2, §3.5) claims robustness by design —
//! capping as the "last line of defense", a stateless controller that
//! can be replaced after a crash — but never measures what faults cost.
//! This experiment injects a seeded [`FaultPlan`] (per-server sample
//! dropout × a controller outage window, plus sensor noise and lost
//! freeze RPCs) into the standard parity-split row and sweeps the grid,
//! asking two questions per cell:
//!
//! 1. **Safety** — does the breaker ever trip? The degraded controller
//!    (freezes held, `Et` inflated) plus the watchdog-armed capping
//!    backstop must keep the answer *no* even when the controller is
//!    down for the whole outage window.
//! 2. **Cost** — how much throughput does conservatism buy safety
//!    with? Each cell's placed-job count is normalized against the
//!    fault-free cell of the same seed.

use ampere_faults::{FaultPlan, OutageWindow};
use ampere_sim::{SimDuration, SimTime};
use ampere_workload::RateProfile;

use crate::calibrate::{controller_with, et_from_records};
use crate::fig10::ParityRow;
use crate::testbed::{DomainId, DomainSpec, Testbed};
use crate::window::WindowStats;

/// Configuration of the chaos sweep.
pub struct ChaosConfig {
    /// Measured hours per grid cell.
    pub hours: u64,
    /// Warm-up minutes discarded before measurement.
    pub warmup_mins: u64,
    /// Hours of uncontrolled calibration used to fit the `Et` table.
    pub calibration_hours: u64,
    /// Over-provisioning ratio.
    pub r_o: f64,
    /// RNG seed (workload and fault streams both derive from it).
    pub seed: u64,
    /// Sample-dropout rates swept (first entry should be 0.0 — it is
    /// the throughput baseline).
    pub dropout_rates: Vec<f64>,
    /// Controller-outage lengths swept, in minutes (0 = no outage).
    pub outage_mins: Vec<u64>,
    /// Probability that a freeze/unfreeze RPC is lost, applied to every
    /// faulted cell.
    pub rpc_loss: f64,
    /// Extra relative sensor noise on surviving samples, every faulted
    /// cell.
    pub sensor_noise: f64,
}

impl ChaosConfig {
    /// Paper-scale sweep: a 440-server row, heavy workload, 8 measured
    /// hours per cell.
    pub fn paper() -> Self {
        Self {
            hours: 8,
            warmup_mins: 120,
            calibration_hours: 8,
            r_o: 0.25,
            seed: 17,
            dropout_rates: vec![0.0, 0.1, 0.25, 0.4],
            outage_mins: vec![0, 10, 30],
            rpc_loss: 0.05,
            sensor_noise: 0.01,
        }
    }

    /// CI-sized sweep (minutes, not hours) covering the acceptance
    /// cell: ≥ 20 % dropout combined with a 10-minute outage.
    pub fn quick() -> Self {
        Self {
            hours: 2,
            warmup_mins: 60,
            calibration_hours: 2,
            dropout_rates: vec![0.0, 0.25],
            outage_mins: vec![0, 10],
            ..Self::paper()
        }
    }
}

/// One cell of the dropout × outage grid.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCell {
    /// Sample-dropout rate injected.
    pub dropout: f64,
    /// Controller-outage length injected, in minutes.
    pub outage_mins: u64,
    /// The measured window of the controlled domain: breaker
    /// violations, degraded and backstop ticks, lowest sample coverage
    /// and jobs placed.
    pub window: WindowStats,
    /// Whether the breaker tripped (5 consecutive violations) — the
    /// failure the whole stack exists to prevent.
    pub tripped: bool,
    /// Replacement controllers cold-started from the time-series DB.
    pub failovers: u64,
    /// `window.placed` normalized to the fault-free cell (the throughput
    /// cost of degradation; 1.0 = free).
    pub throughput_ratio: f64,
}

/// The swept grid.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// One entry per (dropout, outage) pair, outage-major order.
    pub cells: Vec<ChaosCell>,
    /// Placed jobs in the fault-free cell (the denominator).
    pub baseline_placed: u64,
}

impl ChaosResult {
    /// The cell for a given grid coordinate, if swept.
    pub fn cell(&self, dropout: f64, outage_mins: u64) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.dropout == dropout && c.outage_mins == outage_mins)
    }
}

/// The chaos row: the parity row's experiment group as the one domain,
/// with RAPL armed so that only the watchdog's backstop can engage it
/// (which is exactly what the sweep is probing).
fn faulted_testbed(
    config: &ChaosConfig,
    controller: Option<ampere_core::AmpereController>,
    faults: Option<FaultPlan>,
) -> (Testbed, DomainId) {
    let mut row = ParityRow::new(
        RateProfile::heavy_row(),
        config.seed,
        config.r_o,
        true,
        faults,
    );
    let dom = row.tb.add_domain(DomainSpec {
        name: "chaos".into(),
        servers: row.exp,
        budget_w: row.budget_w,
        controller,
        capped: false,
    });
    (row.tb, dom)
}

/// Runs one cell of the grid against a pre-fitted `Et` table.
fn run_cell(
    config: &ChaosConfig,
    et: &ampere_core::HistoricalPercentile,
    dropout: f64,
    outage: u64,
    measured_mins: u64,
) -> ChaosCell {
    let faulted = dropout > 0.0 || outage > 0;
    let plan = faulted.then(|| {
        // The outage opens one third into the measured window —
        // the controller is warm, then vanishes.
        let start = SimTime::from_mins(config.warmup_mins + measured_mins / 3);
        FaultPlan {
            sample_dropout: dropout,
            sensor_noise: config.sensor_noise,
            rpc_loss: config.rpc_loss,
            outages: (outage > 0)
                .then(|| OutageWindow {
                    start,
                    end: start + SimDuration::from_mins(outage),
                })
                .into_iter()
                .collect(),
            ..FaultPlan::seeded(config.seed)
        }
    });
    let controller = controller_with(Box::new(et.clone()));
    let (mut tb, dom) = faulted_testbed(config, Some(controller), plan);
    tb.run_window(
        SimDuration::from_mins(config.warmup_mins),
        SimDuration::from_mins(measured_mins),
    );

    ChaosCell {
        dropout,
        outage_mins: outage,
        window: WindowStats::of(tb.window(dom), tb.domain_budget_w(dom)),
        tripped: tb.breaker(dom).tripped_at().is_some(),
        failovers: tb.failovers(dom),
        // Filled in after the whole grid is back: the denominator is
        // the fault-free cell, which may run on any worker.
        throughput_ratio: 1.0,
    }
}

/// Runs the sweep. Grid cells are independent given the calibrated
/// `Et` table, so they fan out over the default worker pool; telemetry
/// is captured per cell and replayed in grid order, keeping the event
/// stream byte-identical to a serial sweep at any worker count.
pub fn run(config: &ChaosConfig) -> ChaosResult {
    // Phase 1 — fault-free calibration fits the `Et` table, exactly as
    // a production deployment would have done before faults strike.
    let (mut cal, cal_dom) = faulted_testbed(config, None, None);
    cal.run_for(SimDuration::from_hours(config.calibration_hours));
    let et = et_from_records(cal.records(cal_dom));

    let measured_mins = config.hours * 60;
    let grid: Vec<(u64, f64)> = config
        .outage_mins
        .iter()
        .flat_map(|&outage| config.dropout_rates.iter().map(move |&d| (outage, d)))
        .collect();
    let mut cells = ampere_par::fan_out(
        &ampere_telemetry::global(),
        ampere_par::default_workers(),
        grid,
        |_, (outage, dropout)| run_cell(config, &et, dropout, outage, measured_mins),
    );

    let baseline_placed = cells
        .iter()
        .find(|c| c.dropout == 0.0 && c.outage_mins == 0)
        .map_or(0, |c| c.window.placed);
    for cell in &mut cells {
        if baseline_placed > 0 {
            cell.throughput_ratio = cell.window.placed as f64 / baseline_placed as f64;
        }
    }
    ChaosResult {
        cells,
        baseline_placed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChaosResult {
        run(&ChaosConfig::quick())
    }

    #[test]
    fn acceptance_no_trips_anywhere_and_backstop_covers_the_outage() {
        let r = quick();
        assert_eq!(r.cells.len(), 4);
        for c in &r.cells {
            assert!(
                !c.tripped,
                "breaker tripped at dropout={} outage={}",
                c.dropout, c.outage_mins
            );
        }
        // The acceptance cell: ≥ 20 % dropout + a 10-minute outage.
        let worst = r.cell(0.25, 10).expect("acceptance cell swept");
        assert!(
            worst.window.backstop_ticks > 0,
            "watchdog never armed the backstop through a 10-minute outage"
        );
        assert_eq!(worst.failovers, 1, "recovery must cold-start exactly once");
        assert!(
            worst.window.min_coverage < 0.9,
            "dropout not visible in coverage"
        );
    }

    #[test]
    fn degradation_costs_bounded_throughput() {
        let r = quick();
        assert!(r.baseline_placed > 0);
        for c in &r.cells {
            // Holding freezes and inflating Et must cost something in
            // the faulted cells, but not collapse throughput.
            assert!(
                c.throughput_ratio > 0.5,
                "cell dropout={} outage={} ratio={}",
                c.dropout,
                c.outage_mins,
                c.throughput_ratio
            );
        }
    }

    #[test]
    fn dropout_drives_degraded_ticks() {
        let r = quick();
        let clean = r.cell(0.0, 0).unwrap();
        let noisy = r.cell(0.25, 0).unwrap();
        assert_eq!(
            clean.window.degraded_ticks, 0,
            "fault-free run must stay nominal"
        );
        assert_eq!(clean.failovers, 0);
        assert!(noisy.window.min_coverage < clean.window.min_coverage);
    }

    #[test]
    fn same_seed_same_grid() {
        let config = ChaosConfig::quick();
        let a = run(&config);
        let b = run(&config);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.window, y.window);
        }
    }
}
