//! Batch and interactive workload generators calibrated to the paper.
//!
//! The paper's evaluation row runs "production workload comprised of
//! mainly batch jobs (e.g., Map-reduce tasks)" with a published duration
//! CDF (Fig 7: mean ≈ 9 minutes, ≈ 40 % under 2 minutes) and an arrival
//! rate that "varies a lot over time, usually 400–600 jobs per minute"
//! (§4.1.1); interactive latency-critical services (a Redis cluster) are
//! layered on top for the §4.3 SLA comparison. This crate generates
//! statistically equivalent synthetic workloads:
//!
//! - [`duration`] — the calibrated job-duration mixture (Fig 7).
//! - [`shape`] — per-job resource demand sampling.
//! - [`profile`] — time-varying arrival-rate profiles: diurnal shape,
//!   random-walk noise, per-row product mixes (Fig 2/8).
//! - [`generator`] — the batch job source combining the above.
//! - [`interactive`] — a discrete-event Redis-like request/queue model
//!   measuring client-side p99.9 latency per operation type (Fig 11).

pub mod duration;
pub mod generator;
pub mod interactive;
pub mod profile;
pub mod shape;

pub use duration::JobDurationDist;
pub use generator::{BatchWorkload, JobRequest};
pub use interactive::{InteractiveSim, OpType, RedisBenchReport};
pub use profile::{OuNoise, RateProfile, UserPopulation};
pub use shape::JobShapeDist;
