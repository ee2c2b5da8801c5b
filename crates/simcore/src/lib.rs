//! Discrete-event simulation engine for the Ampere reproduction.
//!
//! The paper evaluates Ampere on a production cluster; this repository
//! substitutes a deterministic discrete-event simulation. The engine is
//! deliberately small and generic: a millisecond-resolution clock
//! ([`SimTime`]), a stable event queue ([`EventQueue`]), deterministic
//! seeded random-number streams ([`rng`]), and typed entity identifiers
//! ([`id`]). Domain logic (servers, jobs, the controller) lives in the
//! higher-level crates; they all share this time base so that the power
//! monitor's one-minute sampling, the controller's one-minute tick and
//! job arrivals/completions interleave in a single well-defined order.
//!
//! # Example
//!
//! ```
//! use ampere_sim::{derive_stream, EventQueue, SimDuration, SimTime};
//!
//! // Time-ordered events with FIFO tie-breaking.
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_mins(2), "control tick");
//! queue.schedule(SimTime::from_mins(1), "power sample");
//! queue.schedule(SimTime::from_mins(1), "job arrival");
//! let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["power sample", "job arrival", "control tick"]);
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
pub mod queue;
pub mod rng;
pub mod time;

pub use dist::{DistError, Distribution, Exp, LogNormal, Normal, Poisson};
pub use fnv::Fnv;
pub use id::IdGen;
pub use queue::EventQueue;
pub use rng::{derive_stream, derive_subseed, derive_substream, SimRng};
pub use time::{SimDuration, SimTime};
