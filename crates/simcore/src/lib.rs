//! Tick-stepped simulation engine for the Ampere reproduction.
//!
//! The paper evaluates Ampere on a production cluster; this repository
//! substitutes a deterministic simulation that advances in fixed ticks.
//! The engine is deliberately small and generic: a millisecond-resolution
//! clock ([`SimTime`]), deterministic seeded random-number streams
//! ([`rng`]), and typed entity identifiers ([`id`]). Domain logic
//! (servers, jobs, the controller) lives in the higher-level crates;
//! they all share this time base, and each tick runs job arrivals and
//! completions, the power monitor's one-minute sampling and the
//! controller's one-minute tick in one fixed order.
//!
//! # Example
//!
//! ```
//! use ampere_sim::{derive_stream, SimDuration, SimTime};
//!
//! // Independent deterministic streams per component.
//! let mut arrivals = derive_stream(42, ampere_sim::rng::streams::ARRIVALS);
//! let mut placement = derive_stream(42, ampere_sim::rng::streams::PLACEMENT);
//! assert_ne!(arrivals.gen::<u64>(), placement.gen::<u64>());
//!
//! // The shared time base.
//! let t = SimTime::from_hours(25) + SimDuration::MINUTE;
//! assert_eq!(t.hour_of_day(), 1);
//! ```

pub mod check;
pub mod dist;
mod fnv;
pub mod id;
pub mod rng;
pub mod time;

pub use dist::{DistError, Distribution, Exp, LogNormal, Normal, Poisson};
pub use fnv::Fnv;
pub use id::IdGen;
pub use rng::{derive_stream, derive_subseed, derive_substream, SimRng};
pub use time::{SimDuration, SimTime};
