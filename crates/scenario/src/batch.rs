//! Batches: fan a seeded family of scenarios out across the worker
//! pool, tally invariants, shrink the failures and record the batch as
//! the `ampere-obs` [`ScenarioBatch`] that `repro` writes and CI gates.
//!
//! Scenario `i` of a batch runs on seed `derive_subseed(batch_seed,
//! streams::SCENARIO, i)` — scenarios are mutually independent and any
//! one of them is reconstructible outside the batch from its own seed,
//! which is what the printed repro command relies on.

use ampere_obs::dump::hex;
use ampere_obs::scenario::{ScenarioBatch, ScenarioRow, Shrink};
use ampere_sim::{derive_subseed, rng::streams, Fnv};

use crate::invariant::InvariantKind;
use crate::run::{run_scenario, RunOptions, ScenarioOutcome};
use crate::scenario::Scenario;
use crate::shrink::{shrink, ShrinkResult};

/// Configuration of one scenario batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Master seed; scenario seeds derive from it.
    pub seed: u64,
    /// Scenarios to run.
    pub count: usize,
    /// Worker threads to fan out over.
    pub workers: usize,
    /// Per-scenario run options.
    pub options: RunOptions,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            seed: 2026,
            count: 50,
            workers: 1,
            options: RunOptions::default(),
        }
    }
}

/// Shrink info attached to a failing batch row.
#[derive(Debug, Clone)]
pub struct ShrinkSummary {
    /// Accepted shrink steps.
    pub level: u32,
    /// Distinct axes shrunk.
    pub axes: Vec<&'static str>,
    /// Runs spent searching.
    pub runs: u32,
    /// Description of the minimal scenario.
    pub minimal: String,
}

/// One scenario's row in the batch report.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Index within the batch.
    pub index: usize,
    /// The scenario's own seed.
    pub seed: u64,
    /// The outcome.
    pub outcome: ScenarioOutcome,
    /// Shrink summary, present on every failure.
    pub shrink: Option<ShrinkSummary>,
}

/// The whole batch, tallied.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Batch configuration echo (seed/count identify the family).
    pub seed: u64,
    /// Scenarios run.
    pub count: usize,
    /// Per-scenario rows, in index order.
    pub rows: Vec<BatchRow>,
    /// Combined FNV digest over all row digests, order-sensitive.
    pub digest: u64,
}

impl BatchReport {
    /// Rows that passed every invariant.
    pub fn passed(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.passed()).count()
    }

    /// Rows that violated at least one invariant.
    pub fn failed(&self) -> usize {
        self.count - self.passed()
    }

    /// How many scenarios violated each invariant, registry order.
    pub fn tally(&self) -> Vec<(InvariantKind, usize)> {
        InvariantKind::ALL
            .into_iter()
            .map(|k| {
                let n = self
                    .rows
                    .iter()
                    .filter(|r| r.outcome.violated_kinds().contains(&k))
                    .count();
                (k, n)
            })
            .collect()
    }

    /// The smallest breaker margin seen across the batch, with the
    /// index of the scenario that produced it.
    pub fn worst_margin(&self) -> Option<(usize, f64)> {
        self.rows
            .iter()
            .map(|r| (r.index, r.outcome.stats.min_margin))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The batch as the `repro scenarios` record (`BENCH_scenarios.json`);
    /// failing rows carry a repro command that re-arms `bug`.
    pub fn record(&self, bug: Option<&str>) -> ScenarioBatch {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let o = &row.outcome;
                ScenarioRow {
                    index: row.index as u64,
                    seed: row.seed,
                    ticks: o.stats.ticks,
                    servers: o.stats.servers as u64,
                    passed: o.passed(),
                    min_margin: o.stats.min_margin,
                    violations: o
                        .violated_kinds()
                        .iter()
                        .map(|k| k.name().to_string())
                        .collect(),
                    digest: hex(o.digest),
                    shrink: row.shrink.as_ref().map(|s| Shrink {
                        level: u64::from(s.level),
                        axes: s.axes.join(","),
                        runs: u64::from(s.runs),
                        repro: repro_command("repro", bug, row.seed, s.level, 1),
                    }),
                }
            })
            .collect();
        ScenarioBatch {
            seed: self.seed,
            count: self.count as u64,
            passed: self.passed() as u64,
            failed: self.failed() as u64,
            digest: hex(self.digest),
            rows,
        }
    }
}

/// Runs a batch. Telemetry per scenario is captured and replayed into
/// the pipeline in scope in index order (via `ampere_par::fan_out`), so
/// the merged event stream — and therefore every digest — is
/// byte-identical at any worker count.
pub fn run_batch(config: &BatchConfig) -> BatchReport {
    let options = &config.options;
    let seeds = (0..config.count)
        .map(|index| derive_subseed(config.seed, streams::SCENARIO, index as u64))
        .collect();
    let rows = ampere_par::fan_out(
        &ampere_telemetry::global(),
        config.workers,
        seeds,
        |index, seed| {
            let scenario = Scenario::generate(seed);
            let outcome = run_scenario(&scenario, options);
            let shrink = (!outcome.passed()).then(|| {
                let kinds = outcome.violated_kinds();
                let result: ShrinkResult = shrink(&scenario, &kinds, options);
                ShrinkSummary {
                    level: result.level,
                    axes: result.shrunk_axes.clone(),
                    runs: result.runs,
                    minimal: result.scenario.describe(),
                }
            });
            BatchRow {
                index,
                seed,
                outcome,
                shrink,
            }
        },
    );

    let mut digest = Fnv::new();
    for row in &rows {
        digest.bytes(&row.outcome.digest.to_le_bytes());
    }
    BatchReport {
        seed: config.seed,
        count: config.count,
        rows,
        digest: digest.finish(),
    }
}

/// Quotes one argument for `sh`: pass-through when it is entirely safe
/// characters, otherwise single-quoted with embedded single quotes
/// escaped as `'\''`. This is what makes the printed repro command
/// copy-paste runnable whatever the binary path contains.
pub fn shell_quote(arg: &str) -> String {
    let safe = !arg.is_empty()
        && arg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/' | '=' | ':'));
    if safe {
        arg.to_string()
    } else {
        format!("'{}'", arg.replace('\'', "'\\''"))
    }
}

/// Builds the self-contained repro command for one failing scenario:
/// optional bug environment, the binary, and the exact flags that
/// reconstruct the shrunk scenario from `(seed, shrink_level)`.
pub fn repro_command(
    program: &str,
    bug_env_value: Option<&str>,
    seed: u64,
    shrink_level: u32,
    workers: usize,
) -> String {
    let mut parts = Vec::new();
    if let Some(bug) = bug_env_value {
        parts.push(format!("{}={}", crate::run::BUG_ENV, shell_quote(bug)));
    }
    parts.push(shell_quote(program));
    parts.push("scenario".to_string());
    parts.push("--seed".to_string());
    parts.push(seed.to_string());
    parts.push("--shrink-level".to_string());
    parts.push(shrink_level.to_string());
    parts.push("--workers".to_string());
    parts.push(workers.to_string());
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_quote_passes_safe_args_through() {
        assert_eq!(shell_quote("target/release/repro"), "target/release/repro");
        assert_eq!(shell_quote("--seed"), "--seed");
        assert_eq!(shell_quote("123"), "123");
    }

    #[test]
    fn shell_quote_wraps_unsafe_args() {
        assert_eq!(shell_quote("a b"), "'a b'");
        assert_eq!(shell_quote(""), "''");
        assert_eq!(shell_quote("x'y"), r#"'x'\''y'"#);
        assert_eq!(shell_quote("$HOME/repro"), "'$HOME/repro'");
    }

    #[test]
    fn repro_command_is_fully_quoted() {
        let cmd = repro_command("/tmp/my build/repro", Some("breaker-margin-sign"), 42, 3, 1);
        assert_eq!(
            cmd,
            "AMPERE_SCENARIO_BUG=breaker-margin-sign '/tmp/my build/repro' \
             scenario --seed 42 --shrink-level 3 --workers 1"
        );
    }

    #[test]
    fn repro_command_without_bug_has_no_env_prefix() {
        let cmd = repro_command("repro", None, 7, 0, 4);
        assert_eq!(cmd, "repro scenario --seed 7 --shrink-level 0 --workers 4");
    }

    #[test]
    fn batch_scenario_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..100u64)
            .map(|i| derive_subseed(2026, streams::SCENARIO, i))
            .collect();
        assert_eq!(seeds.len(), 100);
    }
}
