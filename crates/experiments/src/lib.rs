//! Reproduction harness: one module per table/figure of the paper.
//!
//! Each experiment module exposes a config struct (defaults = paper
//! scale) and a `run` function returning a structured result that the
//! `repro` binary prints as the paper's rows/series and the integration
//! tests assert shape properties on. The [`testbed`] module provides
//! the shared simulation engine that wires the cluster, scheduler,
//! workload, power monitor, RAPL capper and Ampere controllers into a
//! one-minute tick loop, and [`window`] the one summary of a measured
//! window of its tick records.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`fig1`]  | CDF of power utilization at rack/row/DC level |
//! | [`fig2`]  | Row-power heat map, 5 rows × 2 h, cross-row correlation |
//! | [`fig4`]  | Power decay of ~80 frozen servers |
//! | [`fig5`]  | `f(u)` percentiles vs `u` and the `kr` fit |
//! | [`fig6`]  | The control function `F` (power → freezing ratio) |
//! | [`fig7`]  | Batch job duration CDF |
//! | [`fig8`]  | Row power over 24 h |
//! | [`fig9`]  | CDF of power changes at 1/5/20/60-minute scales |
//! | [`fig10`] | Control traces + Table 2 (light/heavy, r_O = 0.25) |
//! | [`fig11`] | Redis p99.9 latency: power capping vs Ampere |
//! | [`fig12`] | Power + throughput under control, r_O = 0.25, 4 h |
//! | [`table3`]| G_TPW across r_O × workload (13 rows) |
//! | [`chaos`] | Fault-injection sweep: dropout × outage, breaker safety + throughput cost |
//! | [`hier`]  | Hierarchical multi-row control: budget arbiter, fault isolation, two-level breakers |
//! | [`sla`]   | Mixed-fleet SLA comparison: uniform vs selective freezing, client-side p99.9 |
//! | [`window`] | (shared) The summary of a measured window: breaker violations, over-budget row-ticks, placements |

pub mod ablation;
pub mod calibrate;
pub mod chaos;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hier;
pub mod sla;
pub mod table3;
pub mod testbed;
pub mod window;

pub use testbed::{
    DomainId, DomainSpec, DomainTickRecord, ShardedTestbed, ShardedTestbedConfig, Testbed,
    TestbedConfig, TestbedError,
};
pub use window::WindowStats;
