//! The `repro scenarios` record: the report section behind `report
//! --scenarios`.
//!
//! `repro scenarios` emits `BENCH_scenarios.json` — a JSONL header line
//! plus one line per scenario, each carrying the invariant verdict, the
//! smallest breaker margin seen, the run digest, and (on failures) the
//! shrink summary with the copy-paste repro command. [`ScenarioBatch`]
//! is that dump as a record ([`BenchDump`]); its Markdown section holds
//! the pass/fail tally per invariant, the worst breaker margins, and a
//! block per failure with its minimal reproduction. Any failed row
//! fails the `invariants` gate.

use crate::dump::{dump_line, expect_count, read, BenchDump, DumpLine, Fields, Gate, Line};

use std::fmt::Write as _;

/// The shrinker's summary on a failing row.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrink {
    /// Accepted shrink steps.
    pub level: u64,
    /// Axes the shrinker reduced, comma-joined.
    pub axes: String,
    /// Runs spent searching.
    pub runs: u64,
    /// The self-contained repro command.
    pub repro: String,
}

dump_line! {
    /// One scenario's row.
    pub struct ScenarioRow {
        /// Index within the batch.
        index: u64,
        /// The scenario's own seed.
        seed: u64,
        /// Ticks simulated.
        ticks: u64,
        /// Fleet size.
        servers: u64,
        /// Smallest normalized breaker headroom seen (negative = over).
        min_margin: f64 => 6,
        /// Run digest, as the emitted hex string.
        digest: String,
    }
    extra {
        /// Whether every invariant held (`"status":"pass"`).
        passed: bool,
        /// Violated invariant names (empty on pass; comma-joined in the
        /// dump).
        violations: Vec<String>,
        /// Shrink summary (failures, when shrinking was on).
        shrink: Option<Shrink>,
    }
}

dump_line! {
    /// The `repro scenarios` batch (`BENCH_scenarios.json`).
    pub struct ScenarioBatch {
        /// Master seed of the batch.
        seed: u64,
        /// Scenarios in the batch.
        count: u64,
        /// Passing scenarios.
        passed: u64,
        /// Failing scenarios.
        failed: u64,
        /// Combined batch digest, as the emitted hex string.
        digest: String,
    }
    extra {
        /// Per-scenario rows, in index order.
        rows: Vec<ScenarioRow>,
    }
}

impl ScenarioRow {
    fn decode(f: &Fields) -> Result<Self, String> {
        let mut row = ScenarioRow::read(f)?;
        row.passed = match f.get::<String>("status")?.as_str() {
            "pass" => true,
            "fail" => false,
            other => return Err(format!("unknown scenario status {other:?}")),
        };
        row.violations = f
            .get::<String>("violations")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if f.has("shrink_level") {
            row.shrink = Some(Shrink {
                level: f.get("shrink_level")?,
                axes: f.get::<String>("shrink_axes")?,
                runs: f.get("shrink_runs")?,
                repro: f.get::<String>("repro")?,
            });
        }
        Ok(row)
    }

    fn encode(&self, out: &mut String) {
        let mut line = Line::of(self);
        let status = if self.passed { "pass" } else { "fail" };
        line.insert_after("servers", "status", &status.to_string());
        line.insert_after("min_margin", "violations", &self.violations.join(","));
        if let Some(s) = &self.shrink {
            line.push("shrink_level", &s.level);
            line.push("shrink_axes", &s.axes);
            line.push("shrink_runs", &s.runs);
            line.push("repro", &s.repro);
        }
        line.write_to(out);
    }
}

impl ScenarioBatch {
    /// The failing rows, in index order.
    pub fn failures(&self) -> Vec<&ScenarioRow> {
        self.rows.iter().filter(|r| !r.passed).collect()
    }

    /// How many scenarios violated each invariant name seen in the
    /// dump, in first-seen order.
    pub fn tally(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for row in &self.rows {
            for v in &row.violations {
                match out.iter_mut().find(|(name, _)| name == v) {
                    Some((_, n)) => *n += 1,
                    None => out.push((v.clone(), 1)),
                }
            }
        }
        out
    }

    /// The smallest breaker margin in the batch, with its scenario
    /// index (the headline how-close-did-we-get number).
    pub fn worst_margin(&self) -> Option<(u64, f64)> {
        self.rows
            .iter()
            .map(|r| (r.index, r.min_margin))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl BenchDump for ScenarioBatch {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "scenarios")?;
        let mut batch = ScenarioBatch::read(&h)?;
        batch.rows = body
            .iter()
            .map(ScenarioRow::decode)
            .collect::<Result<_, _>>()?;
        expect_count(batch.count, batch.rows.len(), "scenarios")?;
        let failed = batch.failures().len() as u64;
        let passed = batch.count - failed;
        if (batch.passed, batch.failed) != (passed, failed) {
            return Err(format!(
                "header declares {} passed and {} failed, rows show {passed} and {failed}",
                batch.passed, batch.failed
            ));
        }
        Ok(batch)
    }

    /// One header line, then one line per scenario; failing rows carry
    /// the shrink summary and repro command.
    fn encode(&self) -> String {
        let mut out = String::new();
        Line::header("scenarios", self).write_to(&mut out);
        for row in &self.rows {
            row.encode(&mut out);
        }
        out
    }

    fn gates(&self) -> Vec<Gate> {
        vec![Gate::new(
            "invariants",
            self.failed == 0,
            format!(
                "{} of {} scenarios violated invariants",
                self.failed, self.count
            ),
        )]
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## Scenario sweep\n");
        let _ = writeln!(
            md,
            "{} randomized scenarios from seed {}, batch digest `{}`: \
             **{} passed, {} failed**.\n",
            self.count, self.seed, self.digest, self.passed, self.failed
        );
        let tally = self.tally();
        if !tally.is_empty() {
            let _ = writeln!(md, "| invariant | scenarios violated |");
            let _ = writeln!(md, "|:----------|-------------------:|");
            for (name, n) in &tally {
                let _ = writeln!(md, "| {name} | {n} |");
            }
            let _ = writeln!(md);
        }
        if let Some((index, margin)) = self.worst_margin() {
            let _ = writeln!(
                md,
                "Worst breaker margin: **{margin:+.4}** (scenario {index}; negative \
                 means over budget at some minute).\n"
            );
        }
        for row in self.failures() {
            let _ = writeln!(
                md,
                "### Scenario {} failed: {}\n",
                row.index,
                row.violations.join(", ")
            );
            let _ = writeln!(
                md,
                "Seed {}, {} ticks, {} servers, digest `{}`.",
                row.seed, row.ticks, row.servers, row.digest
            );
            if let Some(shrink) = &row.shrink {
                let _ = writeln!(
                    md,
                    "Shrunk {} levels along [{}].",
                    shrink.level, shrink.axes
                );
                let _ = writeln!(md, "\n```sh\n{}\n```", shrink.repro);
            }
            let _ = writeln!(md);
        }
        if self.failed == 0 {
            let _ = writeln!(
                md,
                "Invariants: **OK** — breaker safety, frozen bounds, power \
                 conservation, freeze accounting and byte-determinism held \
                 across every scenario."
            );
        } else {
            let _ = writeln!(
                md,
                "Invariants: **VIOLATED** — re-run the repro command(s) above to \
                 reproduce each minimal failing scenario locally."
            );
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GREEN: &str = include_str!("../tests/fixtures/scenarios_green.jsonl");
    const RED: &str = include_str!("../tests/fixtures/scenarios_red.jsonl");

    #[test]
    fn parses_a_green_dump() {
        let batch = ScenarioBatch::decode(GREEN).unwrap();
        assert_eq!(batch.count, 2);
        assert_eq!(batch.failed, 0);
        assert!(batch.failures().is_empty());
        assert!(batch.tally().is_empty());
        assert_eq!(batch.worst_margin(), Some((1, 0.05)));
        assert!(batch.gates()[0].pass);
        assert_eq!(batch.encode(), GREEN);
        let md = batch.to_markdown();
        assert!(md.contains("## Scenario sweep"));
        assert!(md.contains("**OK**"));
    }

    #[test]
    fn parses_failures_with_repro() {
        let batch = ScenarioBatch::decode(RED).unwrap();
        assert_eq!(batch.failed, 1);
        assert!(!batch.gates()[0].pass);
        let failures = batch.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shrink.as_ref().map(|s| s.level), Some(3));
        assert_eq!(batch.tally(), vec![("breaker-safety".to_string(), 1)]);
        assert_eq!(batch.worst_margin(), Some((1, -0.06)));
        assert_eq!(batch.encode(), RED);
        let md = batch.to_markdown();
        assert!(md.contains("### Scenario 1 failed: breaker-safety"));
        assert!(md.contains("Shrunk 3 levels along [ticks,faults]."));
        assert!(md.contains("```sh\nrepro scenario --seed 12"));
        assert!(md.contains("**VIOLATED**"));
    }

    #[test]
    fn rejects_inconsistent_dumps() {
        assert!(ScenarioBatch::decode("").is_err());
        assert!(ScenarioBatch::decode("{\"bench\":\"scale\",\"seed\":1}").is_err());
        // Row count disagrees with the header.
        let short = GREEN.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(ScenarioBatch::decode(&short).is_err());
        // Failure tally disagrees with the header.
        let lying = RED.replace("\"failed\":1", "\"failed\":0");
        assert!(ScenarioBatch::decode(&lying).is_err());
    }

    #[test]
    fn malformed_shrink_summary_is_a_schema_error() {
        let bad = RED.replace("\"shrink_level\":3", "\"shrink_level\":\"eight\"");
        let err = ScenarioBatch::decode(&bad).unwrap_err();
        assert!(err.contains("shrink_level"), "{err}");
        let bad = RED.replace("\"shrink_axes\":\"ticks,faults\"", "\"shrink_axes\":7");
        assert!(ScenarioBatch::decode(&bad).is_err());
        let bad = RED.replace("\"repro\":\"repro scenario", "\"repro\":false,\"x\":\"");
        assert!(ScenarioBatch::decode(&bad).is_err());
    }

    #[test]
    fn header_pass_count_must_match_the_rows() {
        let lying = GREEN.replace("\"passed\":2", "\"passed\":999");
        let err = ScenarioBatch::decode(&lying).unwrap_err();
        assert!(err.contains("999 passed"), "{err}");
    }

    #[test]
    fn repro_commands_are_fully_escaped() {
        let mut batch = ScenarioBatch::decode(RED).unwrap();
        let tricky = "AMPERE_SCENARIO_BUG='a\"b\\c\td' repro";
        batch.rows[1].shrink.as_mut().unwrap().repro = tricky.to_string();
        let text = batch.encode();
        assert!(text.contains(r#""repro":"AMPERE_SCENARIO_BUG='a\"b\\c\td' repro""#));
        let back = ScenarioBatch::decode(&text).unwrap();
        assert_eq!(back.rows[1].shrink.as_ref().unwrap().repro, tricky);
    }
}
