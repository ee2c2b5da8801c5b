//! # ampere-obs — offline run analysis for telemetry dumps
//!
//! The control stack (`ampere-core`, `ampere-sched`, `ampere-power`)
//! emits causally-traced JSONL telemetry when a pipeline is installed;
//! `repro --telemetry FILE` captures a whole experiment run to one
//! file. This crate reads those dumps back and answers the questions a
//! run leaves behind:
//!
//! - **What happened?** [`reader`] streams and validates the dump;
//!   [`trace`] reassembles the span tree (which controller tick caused
//!   which freeze, which decision interval a breaker violation fell in).
//! - **How did control behave?** [`analysis`] computes freeze-duration
//!   CDFs, decision→response latency, violation attribution by `Et`
//!   regime, violation-epoch timelines and a flat [`RunSummary`].
//! - **Did it regress?** [`report`] renders Markdown/JSON reports and
//!   implements the baseline gate behind `report --check`: a committed
//!   known-good summary with per-metric tolerances that CI compares
//!   every smoke run against.
//! - **Did the benchmarks pass?** Every `repro` benchmark has one
//!   record here, implementing [`BenchDump`] ([`dump`]): `encode` and
//!   `decode` are the only writer and reader of its
//!   `BENCH_<bench>.json`, `gates()` is the one list of verdicts both
//!   `repro` and `report` exit on, and `to_markdown` is its report
//!   section. [`scale`] — throughput, speedup and thread invariance of
//!   the `repro scale` sweep; [`profile`] — telemetry self-overhead,
//!   per-phase wall time and the instrumentation digest; [`alerts`] —
//!   the `repro watch` incident timeline, MTTA/MTTR and digest,
//!   silence and signal verdicts; [`hier`] — budget reallocation and
//!   the zero-trip, sibling-isolation and trip-attribution verdicts;
//!   [`sla`] — the three-arm uniform-vs-selective table with the
//!   SLA-protection and budget-binding verdicts; [`scenario`] — the
//!   invariant tally and minimal repro per failing scenario.
//!
//! Everything is offline and dependency-free: the dump is the only
//! input, and seeded runs produce byte-identical dumps, so summaries —
//! and therefore baselines — are deterministic.

#![warn(missing_docs)]

pub mod alerts;
pub mod analysis;
pub mod dump;
pub mod hier;
pub mod profile;
pub mod reader;
pub mod report;
pub mod scale;
pub mod scenario;
pub mod sla;
pub mod trace;

pub use alerts::WatchRun;
pub use analysis::{
    decision_latency, freeze_durations, segments, violation_epochs, DecisionLatency, DegradedOps,
    Distribution, RunSummary, ViolationAttribution, ViolationEpoch, ET_BINS,
};
pub use dump::{gates_pass, BenchDump, Gate};
pub use hier::{HierCellLine, HierRoundLine, HierRun};
pub use profile::{ProfilePhase, ProfileRun};
pub use reader::{read_run, MetricLine, MetricValue, ReadError, Run, RunLine, RunReader};
pub use report::{
    check, parse_baseline, render_check, write_baseline, BaselineMetric, CheckResult, RunReport,
};
pub use scale::{ScalePoint, ScaleSweep};
pub use scenario::ScenarioBatch;
pub use sla::{SlaArmLine, SlaRun};
pub use trace::{LinkReport, TraceIndex};
