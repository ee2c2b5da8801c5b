//! `ampere-par`: the deterministic parallel execution engine.
//!
//! Hand-rolled on `std::thread::scope` — no external dependencies — and
//! built around one contract: **results are byte-identical at any worker
//! count**. Four primitives:
//!
//! - [`WorkerPool::run_each`] — execute a batch of independent tasks on
//!   up to N workers, the calling thread among them, and hand each
//!   result to a callback **on the calling thread, in task order**, as
//!   soon as it and every earlier result are ready, while later tasks
//!   still run;
//! - [`WorkerPool::step_ticks`] — advance a set of mutable shards (row
//!   domains) in lockstep, with a [`std::sync::Barrier`] between control
//!   ticks so no shard runs ahead of the measurement interval, for
//!   callers that need tick-aligned shards;
//! - [`fan_out`] — map a function over items on
//!   [`WorkerPool::run_each`], each call under a private telemetry
//!   capture of a parent it is handed ([`ampere_telemetry::fanin`]),
//!   and replay the captures into that parent **in item order**,
//!   reproducing the serial event stream and span allocation
//!   byte-for-byte; a call may fan out again under its own capture;
//! - [`ShardSet`] — the shard driver behind every row-parallel
//!   experiment, on the same captures kept across runs: builds shard
//!   `i` under its own capture of a parent bound once, steps the shards
//!   with no per-tick barrier (workers claim whole shards through
//!   [`WorkerPool::run_each`] and step each through the call's ticks),
//!   hands each finished shard to the calling thread in shard order
//!   while later shards still step, gives serial mutable access between
//!   runs, and replays into that parent in shard order.
//!
//! Determinism therefore does not come from scheduling (which is racy by
//! nature) but from *structure*: tasks share nothing while running, and
//! every ordered merge point (result vectors, telemetry replay, shard
//! order) is fixed by task index, never by completion time.
//!
//! The worker count is a process-wide default ([`set_default_workers`],
//! normally wired to a `--workers N` flag) so library code can pass
//! [`default_workers`] without plumbing a parameter through every
//! layer. The default is 1: parallelism is opt-in.

mod pool;
mod shards;

pub use pool::{available_workers, default_workers, set_default_workers, Task, WorkerPool};
pub use shards::{fan_out, ShardSet};
