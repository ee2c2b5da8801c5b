//! A two-level Omega-like job scheduler with the freeze/unfreeze API.
//!
//! The paper's scheduler (§2.1) has a low level that "tracks the status
//! of resources, bundles them into abstract resource containers and
//! provides the containers to the upper level", and an
//! application-specific upper level that decides placements. Ampere
//! never integrates with the upper level — it only calls two low-level
//! operations:
//!
//! - [`Scheduler::freeze`] — advise that a server receive no new jobs
//!   (running jobs are untouched);
//! - [`Scheduler::unfreeze`] — make it available again.
//!
//! The upper level is pluggable via [`policy::PlacementPolicy`]; several
//! policies are provided to demonstrate that Ampere's statistical
//! control works regardless of placement logic, plus the `PowerSpread`
//! policy prototyping the paper's future-work idea of steering jobs to
//! rows with more unused power.
//!
//! # Example
//!
//! ```
//! use ampere_cluster::{Cluster, ClusterSpec, JobId, Resources, ServerId};
//! use ampere_sched::{RandomFit, Scheduler};
//! use ampere_sim::SimDuration;
//! use ampere_workload::JobRequest;
//!
//! let mut cluster = Cluster::new(ClusterSpec::tiny());
//! let mut sched = Scheduler::new(Box::new(RandomFit::default()), 42);
//!
//! // Freeze one server through the two-call API and submit work.
//! sched.freeze(&mut cluster, ServerId::new(0));
//! sched.submit((0..8).map(|i| JobRequest {
//!     id: JobId::new(i),
//!     resources: Resources::cores_gb(4, 8),
//!     duration: SimDuration::from_mins(5),
//! }));
//! let outcome = sched.dispatch(&mut cluster, &[]);
//!
//! // Everything placed, none of it on the frozen server.
//! assert_eq!(outcome.placed.len(), 8);
//! assert!(outcome.placed.iter().all(|(_, s)| *s != ServerId::new(0)));
//! ```

pub mod policy;
mod queue;
pub mod scheduler;
pub mod selector;

pub use policy::{
    BestFit, Candidate, LeastLoaded, PlacementContext, PlacementPolicy, PowerSpread, RandomFit,
};
pub use scheduler::{DispatchOutcome, FreezeStatus, SchedStats, Scheduler};
pub use selector::{FreezePolicy, FreezeSelector, SelectorActions, SelectorReading};
