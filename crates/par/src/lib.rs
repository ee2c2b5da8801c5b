//! `ampere-par`: the deterministic parallel execution engine.
//!
//! Hand-rolled on `std::thread::scope` — no external dependencies — and
//! built around one contract: **results are byte-identical at any worker
//! count**. Four primitives:
//!
//! - [`WorkerPool::run`] — execute a batch of independent tasks on up to
//!   N workers, returning results **in task order** regardless of which
//!   worker finished first;
//! - [`WorkerPool::step_ticks`] — advance a set of mutable shards (row
//!   domains) in lockstep, with a [`std::sync::Barrier`] between control
//!   ticks so no shard runs ahead of the measurement interval, for
//!   callers that need tick-aligned shards;
//! - [`run_captured`] — [`WorkerPool::run`] plus telemetry capture +
//!   replay: each task records into a private pipeline
//!   ([`ampere_telemetry::fanin`]) and the buffers are merged into the
//!   parent **in task order**, reproducing the serial event stream and
//!   span allocation byte-for-byte;
//! - [`ShardSet`] — the shard driver behind every row-parallel
//!   experiment: builds shard `i` under its own capture of a parent
//!   pipeline bound once, steps the shards with no per-tick barrier
//!   (workers claim whole shards through [`WorkerPool::map`] and step
//!   each through the call's ticks), gives serial mutable access
//!   between runs, and replays into that parent in shard order.
//!
//! Determinism therefore does not come from scheduling (which is racy by
//! nature) but from *structure*: tasks share nothing while running, and
//! every ordered merge point (result vectors, telemetry replay, shard
//! order) is fixed by task index, never by completion time.
//!
//! The worker count is a process-wide default ([`set_default_workers`],
//! normally wired to a `--workers N` flag) so library code can call
//! [`WorkerPool::with_default_workers`] without plumbing a parameter
//! through every layer. The default is 1: parallelism is opt-in.

mod fanout;
mod pool;
mod shards;

pub use fanout::run_captured;
pub use pool::{available_workers, default_workers, set_default_workers, Task, WorkerPool};
pub use shards::ShardSet;
