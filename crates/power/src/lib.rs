//! Power models, capping, monitoring and time-series storage.
//!
//! This crate is the substitute for the physical power infrastructure of
//! the paper's production data center:
//!
//! - [`model`] — the per-server power curve mapping CPU utilization and
//!   DVFS frequency to watts (replaces real server power draw).
//! - [`capping`] — the RAPL/DVFS power-capping mechanism the paper uses
//!   as baseline and safety net (§2.1, §4.3): when a row exceeds its
//!   breaker limit, server frequencies are clamped within the same
//!   sampling interval (< 1 ms reaction in hardware, instantaneous in
//!   the simulation) and running work slows down accordingly.
//! - [`breaker`] — row-level PDU circuit-breaker accounting; a *power
//!   violation* is a one-minute sample above the provisioned budget.
//! - [`tsdb`] — an in-memory time-series database standing in for the
//!   paper's MySQL-backed store (§3.3).
//! - [`monitor`] — the power monitor that aggregates each one-minute
//!   sweep of server power to rack/row/data-center series and qualifies
//!   per-domain readings with coverage and age.
//!
//! # Examples
//!
//! The power curve and what RAPL capping does to it:
//!
//! ```
//! use ampere_power::{CappingConfig, DvfsState, RaplCapper, ServerPowerModel};
//!
//! let model = ServerPowerModel::default(); // 250 W rated, 150 W idle
//! assert_eq!(model.power_w(0.0, DvfsState::nominal()), model.idle_w());
//! assert_eq!(model.power_w(1.0, DvfsState::nominal()), 250.0);
//!
//! // Ten fully-busy servers against a 2.3 kW limit: the capper slows
//! // them all until the row fits.
//! let row = vec![(model, 1.0); 10];
//! let out = RaplCapper::new(CappingConfig::default()).cap_row(&row, 2_300.0);
//! assert!(out.engaged());
//! assert!(out.delivered_w <= 2_300.0);
//! // …and the slowdown is what stretches running jobs (§4.3's cost).
//! assert!(out.states[0].slowdown() > 1.0);
//! ```
//!
//! The monitor aggregates an IPMI sweep into row series:
//!
//! ```
//! use ampere_power::monitor::{SeriesKey, ServerSample};
//! use ampere_power::PowerMonitor;
//! use ampere_sim::SimTime;
//!
//! let mut monitor = PowerMonitor::paper_default();
//! monitor.ingest(SimTime::from_mins(1), &[
//!     ServerSample { server: 0, rack: 0, row: 0, watts: 180.0 },
//!     ServerSample { server: 1, rack: 0, row: 0, watts: 190.0 },
//! ]);
//! assert_eq!(monitor.latest_row_power(0), Some(370.0));
//! assert_eq!(monitor.db().len(SeriesKey::data_center()), 1);
//! ```

pub mod breaker;
pub mod capping;
pub mod error;
pub mod hierarchy;
pub mod model;
pub mod monitor;
pub mod tsdb;

pub use breaker::CircuitBreaker;
pub use capping::{CappingConfig, CappingMode, CappingOutcome, RaplCapper};
pub use error::PowerConfigError;
pub use hierarchy::PowerNode;
pub use model::{DvfsState, ServerPowerModel};
pub use monitor::{DomainReading, PowerMonitor, SeriesKey, TopologyLevel};
pub use tsdb::{OutOfOrderSample, TimeSeriesDb};
