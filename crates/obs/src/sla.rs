//! The `repro sla` record: the report section behind `report --sla`.
//!
//! `repro sla` emits `BENCH_sla.json` — a JSONL header line carrying
//! the mixed fleet's shape (rows, class split, budget, simulated user
//! population) and the producer's verdicts, then one line per arm
//! (baseline / uniform / selective). [`SlaRun`] is that dump as a
//! record ([`BenchDump`]) with two hard gates:
//!
//! - **SLA protection** — selective freezing must hold client-side
//!   p99.9 within the declared `sla_factor` of the uncontrolled
//!   baseline while class-blind uniform freezing exceeds it (the
//!   verdict is recomputed from the per-arm ratios, not trusted);
//! - **budget binding** — the baseline must actually over-run the
//!   budget and both controlled arms must actually freeze, else the
//!   comparison is vacuous.

use crate::dump::{read, BenchDump, Fields, Gate};

use std::fmt::Write as _;

/// One arm of the comparison.
#[derive(Debug, Clone)]
pub struct SlaArmLine {
    /// Freeze policy (`baseline` / `uniform` / `selective`).
    pub policy: String,
    /// Client-side p99.9 GET latency, in microseconds.
    pub p999_us: f64,
    /// `p999_us` normalized to the baseline arm.
    pub p999_ratio: f64,
    /// Peak fleet power over the measured window, in watts.
    pub peak_power_w: f64,
    /// Mean fleet power over the measured window, in watts.
    pub mean_power_w: f64,
    /// Measured ticks where some row exceeded its control budget.
    pub over_budget_ticks: u64,
    /// Jobs placed across the fleet in the measured window.
    pub placed: u64,
    /// Freeze actions actuated (whole run).
    pub froze: u64,
    /// Unfreeze actions actuated (whole run).
    pub unfroze: u64,
    /// Mean frozen servers per measured tick.
    pub mean_frozen: f64,
    /// Peak frozen interactive servers at any measured tick.
    pub interactive_frozen_peak: u64,
    /// Peak frozen batch servers at any measured tick.
    pub batch_frozen_peak: u64,
    /// Lowest unfrozen-interactive capacity fraction.
    pub min_capacity: f64,
    /// Trajectory checksum (hex string) — the worker-identity currency.
    pub checksum: String,
}

/// The `repro sla` comparison (`BENCH_sla.json`).
#[derive(Debug, Clone)]
pub struct SlaRun {
    /// Workers the arm x row shards were stepped with.
    pub workers: u64,
    /// Master seed.
    pub seed: u64,
    /// Measured hours per arm.
    pub hours: u64,
    /// Rows in the mixed fleet.
    pub rows: u64,
    /// Servers per row.
    pub servers_per_row: u64,
    /// Interactive servers across the fleet.
    pub interactive_total: u64,
    /// Batch servers across the fleet.
    pub batch_total: u64,
    /// Per-row control budget, in watts.
    pub budget_w: f64,
    /// Per-row rated power, in watts.
    pub rated_w: f64,
    /// Simulated user population.
    pub users: f64,
    /// The SLA bar: controlled p99.9 within this factor of baseline.
    pub sla_factor: f64,
    /// Wall time of the whole comparison (ms).
    pub wall_ms: f64,
    /// The producer's own SLA verdict, as written in the header.
    pub declared_sla_protected: bool,
    /// The producer's own budget-binding verdict.
    pub declared_budget_binding: bool,
    /// Arms in dump order (baseline, uniform, selective).
    pub arms: Vec<SlaArmLine>,
}

impl SlaArmLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        Ok(SlaArmLine {
            policy: f.string("policy")?,
            p999_us: f.num("p999_us")?,
            p999_ratio: f.num("p999_ratio")?,
            peak_power_w: f.num("peak_power_w")?,
            mean_power_w: f.num("mean_power_w")?,
            over_budget_ticks: f.uint("over_budget_ticks")?,
            placed: f.uint("placed")?,
            froze: f.uint("froze")?,
            unfroze: f.uint("unfroze")?,
            mean_frozen: f.num("mean_frozen")?,
            interactive_frozen_peak: f.uint("interactive_frozen_peak")?,
            batch_frozen_peak: f.uint("batch_frozen_peak")?,
            min_capacity: f.num("min_capacity")?,
            checksum: f.string("checksum")?,
        })
    }
}

impl SlaRun {
    /// Sets the header's declared verdicts to the recomputed ones: what
    /// the producer of a freshly measured comparison declares.
    pub fn with_declared_verdicts(mut self) -> Self {
        self.declared_sla_protected = self.sla_recomputed();
        self.declared_budget_binding = self.budget_binding_recomputed();
        self
    }

    /// The arm named `policy`, if present.
    pub fn arm(&self, policy: &str) -> Option<&SlaArmLine> {
        self.arms.iter().find(|a| a.policy == policy)
    }

    /// Selective within the bar and uniform above it, recomputed from
    /// the per-arm ratios.
    pub fn sla_recomputed(&self) -> bool {
        let (Some(s), Some(u)) = (self.arm("selective"), self.arm("uniform")) else {
            return false;
        };
        s.p999_ratio <= self.sla_factor && u.p999_ratio > self.sla_factor
    }

    /// The baseline over-ran the budget and both controlled arms froze,
    /// recomputed from the arm lines.
    pub fn budget_binding_recomputed(&self) -> bool {
        let (Some(b), Some(u), Some(s)) = (
            self.arm("baseline"),
            self.arm("uniform"),
            self.arm("selective"),
        ) else {
            return false;
        };
        b.over_budget_ticks > 0 && u.froze > 0 && s.froze > 0
    }

    fn ratio(&self, policy: &str) -> f64 {
        self.arm(policy).map_or(f64::NAN, |a| a.p999_ratio)
    }

    fn sla_gate(&self) -> Gate {
        Gate::new(
            "sla-protection",
            self.sla_recomputed() && self.declared_sla_protected,
            format!(
                "selective must hold p99.9 within {:.1}x of baseline while uniform exceeds \
                 it: selective {:.3}x, uniform {:.3}x, declared {}",
                self.sla_factor,
                self.ratio("selective"),
                self.ratio("uniform"),
                self.declared_sla_protected
            ),
        )
    }

    fn binding_gate(&self) -> Gate {
        Gate::new(
            "budget-binding",
            self.budget_binding_recomputed() && self.declared_budget_binding,
            format!(
                "vacuous comparison: the budget must bind (baseline over-runs it) and both \
                 controlled arms must freeze; declared {}",
                self.declared_budget_binding
            ),
        )
    }
}

impl BenchDump for SlaRun {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "sla")?;
        let run = SlaRun {
            workers: h.uint("workers")?,
            seed: h.uint("seed")?,
            hours: h.uint("hours")?,
            rows: h.uint("rows")?,
            servers_per_row: h.uint("servers_per_row")?,
            interactive_total: h.uint("interactive_total")?,
            batch_total: h.uint("batch_total")?,
            budget_w: h.num("budget_w")?,
            rated_w: h.num("rated_w")?,
            users: h.num("users")?,
            sla_factor: h.num("sla_factor")?,
            wall_ms: h.num("wall_ms")?,
            declared_sla_protected: h.boolean("sla_protected")?,
            declared_budget_binding: h.boolean("budget_binding")?,
            arms: body
                .iter()
                .map(|(_, f)| SlaArmLine::decode(f))
                .collect::<Result<_, _>>()?,
        };
        for policy in ["baseline", "uniform", "selective"] {
            if run.arm(policy).is_none() {
                return Err(format!("dump is missing the {policy:?} arm"));
            }
        }
        Ok(run)
    }

    /// One header line carrying the fleet shape and the declared
    /// verdicts, then one line per arm.
    fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
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
            self.rows,
            self.servers_per_row,
            self.interactive_total,
            self.batch_total,
            self.budget_w,
            self.rated_w,
            self.users,
            self.sla_factor,
            self.wall_ms,
            self.declared_sla_protected,
            self.declared_budget_binding,
        );
        for a in &self.arms {
            let _ = writeln!(
                out,
                concat!(
                    "{{\"policy\":\"{}\",\"p999_us\":{:.6},\"p999_ratio\":{:.6},",
                    "\"peak_power_w\":{:.3},\"mean_power_w\":{:.3},",
                    "\"over_budget_ticks\":{},\"placed\":{},\"froze\":{},",
                    "\"unfroze\":{},\"mean_frozen\":{:.6},",
                    "\"interactive_frozen_peak\":{},\"batch_frozen_peak\":{},",
                    "\"min_capacity\":{:.6},\"checksum\":\"{}\"}}"
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
        }
        out
    }

    fn gates(&self) -> Vec<Gate> {
        vec![self.sla_gate(), self.binding_gate()]
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## SLA comparison (mixed fleet)\n");
        let _ = writeln!(
            md,
            "{} rows x {} servers ({} interactive + {} batch), budget {:.0} W/row \
             ({:.0}% of rated), {:.1}M simulated users, SLA bar {:.1}x baseline p99.9.\n",
            self.rows,
            self.servers_per_row,
            self.interactive_total,
            self.batch_total,
            self.budget_w,
            100.0 * self.budget_w / self.rated_w,
            self.users / 1e6,
            self.sla_factor,
        );
        let _ = writeln!(
            md,
            "| policy | p99.9 us | ratio | peak W | over | froze | frozen i/b peak | min capacity |"
        );
        let _ = writeln!(
            md,
            "|:-------|---------:|------:|-------:|-----:|------:|:---------------:|-------------:|"
        );
        for a in &self.arms {
            let _ = writeln!(
                md,
                "| {} | {:.1} | {:.3} | {:.0} | {} | {} | {}/{} | {:.3} |",
                a.policy,
                a.p999_us,
                a.p999_ratio,
                a.peak_power_w,
                a.over_budget_ticks,
                a.froze,
                a.interactive_frozen_peak,
                a.batch_frozen_peak,
                a.min_capacity,
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "SLA protection: **{}** — selective p99.9 at {:.3}x baseline (bar {:.1}x), \
             uniform at {:.3}x{}.",
            if self.sla_gate().pass { "PASS" } else { "FAIL" },
            self.ratio("selective"),
            self.sla_factor,
            self.ratio("uniform"),
            if self.sla_recomputed() == self.declared_sla_protected {
                ""
            } else {
                "; DISAGREES with the declared verdict"
            },
        );
        let _ = writeln!(
            md,
            "Budget binding: **{}** — the uncontrolled baseline over-ran the budget and \
             both controlled arms exercised their freezing authority.",
            if self.binding_gate().pass {
                "PASS"
            } else {
                "FAIL"
            },
        );
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> String {
        concat!(
            "{\"bench\":\"sla\",\"workers\":1,\"seed\":29,\"hours\":2,\"rows\":3,",
            "\"servers_per_row\":40,\"interactive_total\":60,\"batch_total\":60,",
            "\"budget_w\":8000.0,\"rated_w\":10000.0,\"users\":1200000,\"sla_factor\":1.2,",
            "\"wall_ms\":1.0,\"sla_protected\":true,\"budget_binding\":true}\n",
            "{\"policy\":\"baseline\",\"p999_us\":464.8,\"p999_ratio\":1.0,",
            "\"peak_power_w\":26113.0,\"mean_power_w\":22688.0,\"over_budget_ticks\":69,",
            "\"placed\":9000,\"froze\":0,\"unfroze\":0,\"mean_frozen\":0.0,",
            "\"interactive_frozen_peak\":0,\"batch_frozen_peak\":0,\"min_capacity\":1.0,",
            "\"checksum\":\"00aa\"}\n",
            "{\"policy\":\"uniform\",\"p999_us\":1448.1,\"p999_ratio\":3.116,",
            "\"peak_power_w\":25698.0,\"mean_power_w\":22658.0,\"over_budget_ticks\":73,",
            "\"placed\":8800,\"froze\":201,\"unfroze\":190,\"mean_frozen\":13.5,",
            "\"interactive_frozen_peak\":14,\"batch_frozen_peak\":13,\"min_capacity\":0.617,",
            "\"checksum\":\"00bb\"}\n",
            "{\"policy\":\"selective\",\"p999_us\":464.8,\"p999_ratio\":1.0,",
            "\"peak_power_w\":25595.0,\"mean_power_w\":22619.0,\"over_budget_ticks\":79,",
            "\"placed\":8900,\"froze\":135,\"unfroze\":130,\"mean_frozen\":13.9,",
            "\"interactive_frozen_peak\":0,\"batch_frozen_peak\":20,\"min_capacity\":1.0,",
            "\"checksum\":\"00cc\"}\n",
        )
        .to_string()
    }

    #[test]
    fn parses_and_gates_a_clean_dump() {
        let run = SlaRun::decode(&dump()).unwrap();
        assert_eq!(run.arms.len(), 3);
        assert!(run.sla_recomputed());
        assert!(run.budget_binding_recomputed());
        assert!(run.gates().iter().all(|g| g.pass));
        let md = run.to_markdown();
        assert!(md.contains("## SLA comparison"));
        assert!(md.contains("SLA protection: **PASS**"));
        assert!(md.contains("Budget binding: **PASS**"));
        assert!(md.contains("| selective |"));
    }

    #[test]
    fn detects_a_busted_sla_and_a_vacuous_budget() {
        // Selective drifting past the bar fails the recomputed gate
        // even though the header still declares success.
        let busted = dump().replace(
            "{\"policy\":\"selective\",\"p999_us\":464.8,\"p999_ratio\":1.0,",
            "{\"policy\":\"selective\",\"p999_us\":929.6,\"p999_ratio\":2.0,",
        );
        let run = SlaRun::decode(&busted).unwrap();
        assert!(!run.sla_recomputed());
        assert!(!run.gates()[0].pass);
        assert!(run.to_markdown().contains("SLA protection: **FAIL**"));

        let vacuous = dump().replace("\"over_budget_ticks\":69", "\"over_budget_ticks\":0");
        let run = SlaRun::decode(&vacuous).unwrap();
        assert!(!run.budget_binding_recomputed());
        assert!(!run.gates()[1].pass);
        assert!(run.to_markdown().contains("Budget binding: **FAIL**"));
    }

    #[test]
    fn rejects_malformed_dumps() {
        assert!(SlaRun::decode("").is_err());
        assert!(SlaRun::decode("{\"bench\":\"hier\"}").is_err());
        let short = dump().lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(SlaRun::decode(&short)
            .unwrap_err()
            .contains("missing the \"selective\" arm"));
    }
}
