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

use crate::dump::{dump_line, read, BenchDump, DumpLine, Gate, Line};

use std::fmt::Write as _;

dump_line! {
    /// One arm of the comparison.
    pub struct SlaArmLine {
        /// Freeze policy (`baseline` / `uniform` / `selective`).
        policy: String,
        /// Client-side p99.9 GET latency, in microseconds.
        p999_us: f64 => 6,
        /// `p999_us` normalized to the baseline arm.
        p999_ratio: f64 => 6,
        /// Peak fleet power over the measured window, in watts.
        peak_power_w: f64 => 3,
        /// Mean fleet power over the measured window, in watts.
        mean_power_w: f64 => 3,
        /// Measured row-ticks over the control budget, summed over rows:
        /// a tick on which two rows exceed counts twice.
        over_budget_ticks: u64,
        /// Jobs placed across the fleet in the measured window.
        placed: u64,
        /// Freeze actions actuated (whole run).
        froze: u64,
        /// Unfreeze actions actuated (whole run).
        unfroze: u64,
        /// Mean frozen servers per measured tick.
        mean_frozen: f64 => 6,
        /// Peak frozen interactive servers at any measured tick.
        interactive_frozen_peak: u64,
        /// Peak frozen batch servers at any measured tick.
        batch_frozen_peak: u64,
        /// Lowest unfrozen-interactive capacity fraction.
        min_capacity: f64 => 6,
        /// Trajectory checksum (hex string) — the worker-identity currency.
        checksum: String,
    }
}

dump_line! {
    /// The `repro sla` comparison (`BENCH_sla.json`).
    pub struct SlaRun {
        /// Workers the arm x row shards were stepped with.
        workers: u64,
        /// Master seed.
        seed: u64,
        /// Measured hours per arm.
        hours: u64,
        /// Rows in the mixed fleet.
        rows: u64,
        /// Servers per row.
        servers_per_row: u64,
        /// Interactive servers across the fleet.
        interactive_total: u64,
        /// Batch servers across the fleet.
        batch_total: u64,
        /// Per-row control budget, in watts.
        budget_w: f64 => 3,
        /// Per-row rated power, in watts.
        rated_w: f64 => 3,
        /// Simulated user population.
        users: f64,
        /// The SLA bar: controlled p99.9 within this factor of baseline.
        sla_factor: f64,
        /// Wall time of the whole comparison (ms).
        wall_ms: f64 => 3,
        /// The producer's own SLA verdict, as written in the header.
        sla_protected: bool,
        /// The producer's own budget-binding verdict.
        budget_binding: bool,
    }
    extra {
        /// Arms in dump order (baseline, uniform, selective).
        arms: Vec<SlaArmLine>,
    }
}

impl SlaRun {
    /// Sets the header's declared verdicts to the recomputed ones: what
    /// the producer of a freshly measured comparison declares.
    pub fn with_declared_verdicts(mut self) -> Self {
        self.sla_protected = self.sla_recomputed();
        self.budget_binding = self.budget_binding_recomputed();
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
            self.sla_recomputed() && self.sla_protected,
            format!(
                "selective must hold p99.9 within {:.1}x of baseline while uniform exceeds \
                 it: selective {:.3}x, uniform {:.3}x, declared {}",
                self.sla_factor,
                self.ratio("selective"),
                self.ratio("uniform"),
                self.sla_protected
            ),
        )
    }

    fn binding_gate(&self) -> Gate {
        Gate::new(
            "budget-binding",
            self.budget_binding_recomputed() && self.budget_binding,
            format!(
                "vacuous comparison: the budget must bind (baseline over-runs it) and both \
                 controlled arms must freeze; declared {}",
                self.budget_binding
            ),
        )
    }
}

impl BenchDump for SlaRun {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "sla")?;
        let mut run = SlaRun::read(&h)?;
        run.arms = body
            .iter()
            .map(SlaArmLine::read)
            .collect::<Result<_, _>>()?;
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
        Line::header("sla", self).write_to(&mut out);
        for a in &self.arms {
            Line::of(a).write_to(&mut out);
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
            if self.sla_recomputed() == self.sla_protected {
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
        include_str!("../tests/fixtures/sla.jsonl").to_string()
    }

    #[test]
    fn parses_and_gates_a_clean_dump() {
        let run = SlaRun::decode(&dump()).unwrap();
        assert_eq!(run.arms.len(), 3);
        assert_eq!(run.encode(), dump());
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
            "{\"policy\":\"selective\",\"p999_us\":464.806673,\"p999_ratio\":1.000000,",
            "{\"policy\":\"selective\",\"p999_us\":929.613346,\"p999_ratio\":2.000000,",
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
