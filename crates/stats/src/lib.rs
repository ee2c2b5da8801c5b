//! Statistics utilities for the Ampere power-control reproduction.
//!
//! The Ampere controller is a *data-driven* system: it fits the control
//! model `f(u) = kr * u` by linear regression over controlled-experiment
//! samples, estimates the per-hour power-increase margin `Et` as a high
//! percentile of historical first differences, and the paper's evaluation
//! is expressed almost entirely in CDFs, percentiles and correlation
//! coefficients. This crate provides those primitives with no external
//! dependencies so every other crate can share one implementation.
//!
//! Modules:
//! - [`quantile`] — empirical quantiles and CDFs (Fig 1, 7, 9), and the
//!   exact bounded top tail of a sample (the §4.3 p99.9 latency).
//! - [`summary`] — mean / variance / min / max running summaries.
//! - [`correlation`] — Pearson correlation (§2.2, §4.1.2 group validation).
//! - [`regression`] — the through-origin least-squares fit of
//!   `f(u) = kr * u` (§3.4, Fig 5).
//! - [`timeseries`] — resampling and first differences (Fig 9).
//!
//! # Examples
//!
//! The paper's `Et` margin is a high percentile of one-minute power
//! increases (§3.6); the full pipeline in miniature:
//!
//! ```
//! use ampere_stats::{first_differences, percentile, Cdf};
//!
//! let power = vec![0.90, 0.91, 0.93, 0.92, 0.95, 0.94, 0.97];
//! let increases = first_differences(&power);
//! let et = percentile(&increases, 99.5).unwrap();
//! assert!(et > 0.0 && et <= 0.03 + 1e-12);
//!
//! // And the Fig 9 style characterization of the same changes:
//! let cdf = Cdf::new(increases).unwrap();
//! assert_eq!(cdf.eval(0.031), 1.0); // all changes within +3.1 %
//! ```
//!
//! Fitting the control model slope through the origin (§3.4):
//!
//! ```
//! use ampere_stats::linear_fit_through_origin;
//!
//! let u = [0.1, 0.2, 0.4, 0.6];
//! let f = [0.0052, 0.0098, 0.0201, 0.0302];
//! let fit = linear_fit_through_origin(&u, &f).unwrap();
//! assert!((fit.slope - 0.05).abs() < 0.002); // kr ≈ 0.05
//! assert!(fit.r_squared > 0.99);
//! ```

pub mod correlation;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod timeseries;

pub use correlation::pearson;
pub use quantile::{cdf_points, percentile, Cdf};
pub use regression::{linear_fit_through_origin, LinearFit};
pub use summary::Summary;
pub use timeseries::{first_differences, resample_max};
