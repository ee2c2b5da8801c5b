//! Ampere: statistical power control for data-center capacity.
//!
//! This crate is the reproduction of the paper's primary contribution —
//! the power-management system that lets a data center host more
//! servers than its provisioned power budget strictly allows, by
//! keeping row-level power under the budget *statistically*: freezing
//! and unfreezing servers through a two-call scheduler API instead of
//! slowing running work with DVFS.
//!
//! The control pipeline, one module per stage:
//!
//! - [`model`] — the data-driven control model `f(u) = kr·u` fitted by
//!   through-origin regression over controlled-experiment samples
//!   (§3.4, Fig 5), and the resulting control function `F` mapping row
//!   power to freezing ratio (Fig 6).
//! - [`predict`] — the power-increase margin `Et`: the per-hour 99.5th
//!   percentile of historical one-minute increases (§3.6), plus the
//!   online EWMA/AR(1) predictors the paper leaves as future work.
//! - [`rhc`] — the receding-horizon Power Control Problem (PCP), its
//!   one-step simplification (SPCP) with the closed-form optimum of
//!   Eq. 13, and a numerical check of Lemma 3.1 (the greedy SPCP
//!   sequence solves the full-horizon PCP).
//! - [`algorithm`] — Algorithm 1: turning a target freezing ratio into
//!   concrete freeze/unfreeze actions with the `r_stable` hysteresis.
//! - [`controller`] — the per-minute control decision for one control
//!   domain (a row, or a virtual group in a controlled experiment): a
//!   power reading in, freeze/unfreeze actions out. The host — the
//!   testbed in `ampere-experiments` — applies the actions through the
//!   scheduler.
//! - [`metrics`] — TPW / GTPW / over-provisioning arithmetic
//!   (Eq. 16–18).
//! - [`experiment`] — the §4.1.2 controlled-experiment scaffolding:
//!   parity splits and budget-scaling emulation.
//!
//! # Example
//!
//! One control decision, end to end, with synthetic readings — the row
//! is at 99 % of its budget, so Algorithm 1 freezes the hottest
//! servers:
//!
//! ```
//! use ampere_cluster::ServerId;
//! use ampere_core::{
//!     AmpereController, ControllerConfig, HistoricalPercentile, ServerPowerReading,
//! };
//! use ampere_sim::SimTime;
//!
//! let mut controller = AmpereController::new(
//!     ControllerConfig { kr: 0.05, ..ControllerConfig::default() },
//!     Box::new(HistoricalPercentile::flat(0.03)),
//! );
//!
//! // Ten servers, two of them hot.
//! let readings: Vec<ServerPowerReading> = (0..10)
//!     .map(|i| ServerPowerReading {
//!         id: ServerId::new(i),
//!         power_w: if i < 2 { 240.0 } else { 180.0 },
//!         frozen: false,
//!     })
//!     .collect();
//!
//! let (actions, et) = controller.decide(SimTime::from_mins(1), 0.99, &readings);
//! assert_eq!(et, 0.03);
//! // F(0.99) = (0.99 + 0.03 − 1) / 0.05 = 0.4 → freeze 4 of 10,
//! // starting with the two hottest.
//! assert_eq!(actions.n_freeze, 4);
//! assert!(actions.freeze.contains(&ServerId::new(0)));
//! assert!(actions.freeze.contains(&ServerId::new(1)));
//! ```

pub mod algorithm;
pub mod controller;
pub mod economics;
pub mod error;
pub mod experiment;
pub mod metrics;
pub mod model;
pub mod predict;
pub mod rhc;
pub mod watchdog;

pub use algorithm::{FreezeActions, FreezePlanner, ServerPowerReading};
pub use controller::{AmpereController, ControlMode, ControllerConfig, DegradedPolicy};
pub use economics::{CapacityGain, CostModel};
pub use error::ControlConfigError;
pub use experiment::{scaled_budget_w, ParitySplit};
pub use metrics::{gtpw, over_provision_ratio, tpw, ThroughputComparison};
pub use model::{ControlFunction, ControlModel};
pub use predict::{
    ArPredictor, EwmaPredictor, HistoricalPercentile, PowerChangePredictor, PredictionTracker,
};
pub use rhc::{solve_pcp_general, solve_pcp_greedy, spcp_optimal_ratio, PcpInstance};
pub use watchdog::{TickWatchdog, WatchdogConfig};
