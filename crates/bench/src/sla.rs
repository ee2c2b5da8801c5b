//! `repro sla` — the mixed-fleet SLA benchmark: uniform vs selective
//! freezing from `ampere_experiments::sla`, serialized as
//! `BENCH_sla.json` for `ampere-obs report --sla`.
//!
//! The gates encoded here are the PR's acceptance criteria:
//!
//! - **SLA protection** — selective freezing holds client-side p99.9
//!   within `sla_factor` (1.2x) of the uncontrolled baseline, while
//!   class-blind uniform freezing exceeds it, at equal power budgets.
//! - **Budget authority** — both controlled arms actually freeze, and
//!   the baseline actually over-runs the budget (else the comparison
//!   is vacuous).
//! - **Determinism** — the dump must be byte-identical at any
//!   `--workers` count (enforced in CI by diffing `BENCH_sla.json`
//!   across `--workers 1` and `--workers 4`).

use ampere_experiments::sla::{self, SlaConfig, SlaResult};

use std::fmt::Write as _;
use std::time::Instant;

/// CI-sized configuration: three rows, two measured hours.
pub fn quick(workers: usize) -> SlaConfig {
    SlaConfig::quick(workers)
}

/// Paper-scale configuration: four rows, a full simulated day, 3.2
/// million streaming users.
pub fn paper(workers: usize) -> SlaConfig {
    SlaConfig::paper(workers)
}

/// The benchmark's outcome: the three-arm comparison plus wall time
/// and the config coordinates the dump is keyed on.
#[derive(Debug)]
pub struct SlaBenchResult {
    /// Workers the arm x row shards were stepped with.
    pub workers: usize,
    /// Master seed.
    pub seed: u64,
    /// Measured hours per arm.
    pub hours: u64,
    /// Wall time of the whole comparison (ms).
    pub wall_ms: f64,
    /// The comparison.
    pub result: SlaResult,
}

impl SlaBenchResult {
    /// The headline gate: selective holds the SLA bar, uniform busts
    /// it.
    pub fn sla_protected(&self) -> bool {
        self.result.sla_protected()
    }

    /// Whether both controlled arms actually exercised their freezing
    /// authority and the baseline actually over-ran the budget.
    pub fn budget_binding(&self) -> bool {
        let (Some(b), Some(u), Some(s)) = (
            self.result.arm("baseline"),
            self.result.arm("uniform"),
            self.result.arm("selective"),
        ) else {
            return false;
        };
        b.over_budget_ticks > 0 && u.froze > 0 && s.froze > 0
    }

    /// All acceptance gates together.
    pub fn gates_pass(&self) -> bool {
        self.sla_protected() && self.budget_binding()
    }

    /// Serializes as JSONL: one header line carrying the fleet shape
    /// and the verdicts, then one line per arm — the exact layout
    /// `ampere-obs report --sla` consumes.
    pub fn to_jsonl(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        let _ = write!(
            out,
            concat!(
                "{{\"bench\":\"sla\",\"workers\":{},\"seed\":{},\"hours\":{},",
                "\"rows\":{},\"servers_per_row\":{},\"interactive_total\":{},",
                "\"batch_total\":{},\"budget_w\":{:.3},\"rated_w\":{:.3},",
                "\"users\":{},\"sla_factor\":{},\"wall_ms\":{:.3},",
                "\"sla_protected\":{},\"budget_binding\":{}}}"
            ),
            self.workers,
            self.seed,
            self.hours,
            r.rows,
            r.servers_per_row,
            r.interactive_total,
            r.batch_total,
            r.budget_w,
            r.rated_w,
            r.users,
            r.sla_factor,
            self.wall_ms,
            self.sla_protected(),
            self.budget_binding(),
        );
        out.push('\n');
        for a in &r.arms {
            let _ = write!(
                out,
                concat!(
                    "{{\"policy\":\"{}\",\"p999_us\":{:.6},\"p999_ratio\":{:.6},",
                    "\"peak_power_w\":{:.3},\"mean_power_w\":{:.3},",
                    "\"over_budget_ticks\":{},\"placed\":{},\"froze\":{},",
                    "\"unfroze\":{},\"mean_frozen\":{:.6},",
                    "\"interactive_frozen_peak\":{},\"batch_frozen_peak\":{},",
                    "\"min_capacity\":{:.6},\"checksum\":\"{:016x}\"}}"
                ),
                a.policy,
                a.p999_us,
                a.p999_ratio,
                a.peak_power_w,
                a.mean_power_w,
                a.over_budget_ticks,
                a.placed,
                a.froze,
                a.unfroze,
                a.mean_frozen,
                a.interactive_frozen_peak,
                a.batch_frozen_peak,
                a.min_capacity,
                a.checksum,
            );
            out.push('\n');
        }
        out
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sla comparison (rows = {}, {} servers/row, {} interactive + {} batch, workers = {}, {:.1} ms)",
            r.rows,
            r.servers_per_row,
            r.interactive_total,
            r.batch_total,
            self.workers,
            self.wall_ms
        );
        let _ = writeln!(
            out,
            "  budget {:.0} W/row ({:.0}% of rated)   {:.1}M simulated users   SLA bar {:.1}x baseline p99.9",
            r.budget_w,
            100.0 * r.budget_w / r.rated_w,
            r.users / 1e6,
            r.sla_factor
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>7} {:>9} {:>9} {:>6} {:>7} {:>7} {:>6} {:>6} {:>7}",
            "policy",
            "p999_us",
            "ratio",
            "peak_W",
            "mean_W",
            "over",
            "froze",
            "mfroz",
            "i_pk",
            "b_pk",
            "min_cap"
        );
        for a in &r.arms {
            let _ = writeln!(
                out,
                "  {:<10} {:>10.1} {:>7.3} {:>9.0} {:>9.0} {:>6} {:>7} {:>7.1} {:>6} {:>6} {:>7.3}",
                a.policy,
                a.p999_us,
                a.p999_ratio,
                a.peak_power_w,
                a.mean_power_w,
                a.over_budget_ticks,
                a.froze,
                a.mean_frozen,
                a.interactive_frozen_peak,
                a.batch_frozen_peak,
                a.min_capacity,
            );
        }
        let _ = writeln!(
            out,
            "  sla-protection {}   budget-binding {}",
            if self.sla_protected() { "PASS" } else { "FAIL" },
            if self.budget_binding() {
                "PASS"
            } else {
                "FAIL"
            },
        );
        out
    }
}

/// Runs the full benchmark and stamps the wall time.
pub fn run(config: &SlaConfig) -> SlaBenchResult {
    let t0 = Instant::now();
    let result = sla::run(config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    SlaBenchResult {
        workers: config.workers,
        seed: config.seed,
        hours: config.hours,
        wall_ms,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_telemetry::{json, Capture};
    use ampere_workload::InteractiveSim;

    #[test]
    fn tiny_bench_serializes_and_is_worker_identical() {
        let tiny = |workers| SlaConfig {
            hours: 1,
            warmup_mins: 30,
            sim: InteractiveSim {
                run_secs: 10.0,
                ..InteractiveSim::default()
            },
            ..SlaConfig::quick(workers)
        };
        let r = Capture::standalone().with(|| run(&tiny(2)));
        let jsonl = r.to_jsonl();
        let mut lines = jsonl.lines();
        let header = json::parse_object_full(lines.next().expect("header")).expect("valid header");
        assert!(header
            .iter()
            .any(|(k, v)| k == "bench" && format!("{v:?}").contains("sla")));
        let arms: Vec<_> = lines
            .map(|l| json::parse_object_full(l).expect("valid arm line"))
            .collect();
        assert_eq!(arms.len(), 3);
        for a in &arms {
            assert!(a.iter().any(|(k, _)| k == "policy"));
            assert!(a.iter().any(|(k, _)| k == "p999_us"));
        }

        // The dump must be byte-identical at a different worker count.
        let serial = Capture::standalone().with(|| run(&tiny(1)));
        assert_eq!(strip_wall(&jsonl), strip_wall(&serial.to_jsonl()));
    }

    /// Wall time is the only nondeterministic field; the
    /// worker-identity check compares everything else.
    fn strip_wall(jsonl: &str) -> String {
        let mut out = String::new();
        for line in jsonl.lines() {
            let mut line = line.to_string();
            if let (Some(a), Some(b)) = (line.find("\"wall_ms\":"), line.find(",\"sla_protected\""))
            {
                line.replace_range(a..b, "\"wall_ms\":0");
            }
            if let Some(a) = line.find("\"workers\":") {
                let b = line[a..].find(',').map(|i| a + i).unwrap_or(line.len());
                line.replace_range(a..b, "\"workers\":0");
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
