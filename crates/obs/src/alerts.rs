//! The `repro watch` record: the report section behind `report
//! --alerts`.
//!
//! `repro watch` emits `BENCH_watch.json` — a JSONL header describing
//! one two-pass observability benchmark, then the alert-rule table, the
//! alert stream, the incident ledger and the window rollups the online
//! engine produced. [`WatchRun`] is that dump as a record
//! ([`BenchDump`]) with the verdicts CI gates on:
//!
//! - **trajectory digest** — the tapped pass must reproduce the bare
//!   pass's trajectory checksum exactly (a tap that steers the run it
//!   observes is a correctness bug);
//! - **stream digests** — the alert stream and rule table are re-hashed
//!   from the raw lines and compared against the digests the engine
//!   computed online; any divergence means the dump was truncated or
//!   edited, or the engine's serialization drifted;
//! - **silence on health** — zero alert firings in the clean pass;
//! - **signal on chaos** — at least one breaker-proximity incident in
//!   the chaos pass;
//! - **overhead** — the rollup/alerting overhead fraction, gated by
//!   `--max-overhead` where the environment opts in (wall-clock noise
//!   makes it a soft gate by default).

use crate::dump::{dump_line, expect_count, hex, read, BenchDump, DumpLine, Fields, Gate, Line};
use ampere_watch::digest_lines;

use std::fmt::Write as _;

/// Pass label of the fault-free light-workload task.
pub const CLEAN_PASS: &str = "clean";
/// Pass label of the fault-injected heavy-workload task.
pub const CHAOS_PASS: &str = "chaos";
/// Rule expected to page during the chaos pass.
pub const PROXIMITY_RULE: &str = "breaker-proximity";

dump_line! {
    /// One alert-stream line.
    pub struct AlertLine {
        /// Sim-time milliseconds of the evaluation.
        t_ms: u64,
        /// Pass label the firing is attributed to.
        pass: String,
        /// Rule name.
        alert: String,
        /// `fire`, `ack` or `resolve`.
        state: String,
        /// Gauge value at the transition.
        value: f64,
        /// Incident id the transition belongs to.
        incident: u64,
    }
    extra {
        /// Linked trace id (absent when the stream had no span to link).
        trace: Option<u64>,
        /// The line as the engine serialized it (the digest input).
        raw: String,
    }
}

dump_line! {
    /// One incident-ledger line.
    pub struct IncidentLine {
        /// Incident id (open order).
        incident: u64,
        /// Pass label.
        pass: String,
        /// Rule that opened it.
        rule: String,
        /// Rule severity.
        severity: String,
        /// Opened at (sim ms).
        opened_ms: u64,
        /// Worst gauge value while active.
        peak: f64,
    }
    extra {
        /// Auto-acknowledged at (sim ms), if it was.
        acked_ms: Option<u64>,
        /// Resolved at (sim ms); `None` means still open at stream end.
        resolved_ms: Option<u64>,
        /// Linked causal trace id.
        trace: Option<u64>,
        /// The line as the engine serialized it.
        raw: String,
    }
}

dump_line! {
    /// The `repro watch` run (`BENCH_watch.json`).
    pub struct WatchRun {
        /// Worker threads the fan-out ran with.
        workers: u64,
        /// Seed.
        seed: u64,
        /// Measured hours per task.
        hours: u64,
        /// Wall ms of the bare pass.
        wall_plain_ms: f64 => 3,
        /// Wall ms of the tapped pass.
        wall_watch_ms: f64 => 3,
        /// Observability overhead fraction of the tapped pass.
        overhead_fraction: f64 => 6,
        /// Trajectory checksum, bare pass (hex).
        checksum_plain: String,
        /// Trajectory checksum, tapped pass (hex).
        checksum_watch: String,
        /// Rule-table digest the engine computed online (hex).
        rule_digest: String,
        /// Alert-stream digest the engine computed online (hex).
        alert_digest: String,
        /// Events the tap observed.
        events: u64,
        /// Alert firings attributed to the clean pass (header claim).
        clean_fires: u64,
        /// Alert firings attributed to the chaos pass.
        chaos_fires: u64,
        /// Breaker-proximity incidents opened in the chaos pass.
        chaos_proximity_incidents: u64,
    }
    extra {
        /// Rule-table lines (digest input, in table order).
        rule_lines: Vec<String>,
        /// The alert stream, in evaluation order.
        alerts: Vec<AlertLine>,
        /// The incident ledger, in open order.
        incidents: Vec<IncidentLine>,
        /// Window rollup lines.
        window_lines: Vec<String>,
    }
}

impl WatchRun {
    /// Adds one body line, keyed by its leading field: a rule, an
    /// alert (`t_ms`), an incident or a window rollup. Section order
    /// does not matter; [`encode`](BenchDump::encode) writes rules,
    /// alerts, incidents, then windows.
    pub fn push_line(&mut self, raw: &str, f: &Fields) -> Result<(), String> {
        match f.first_key() {
            "rule" => self.rule_lines.push(raw.to_string()),
            "t_ms" => self.alerts.push(AlertLine {
                trace: f.opt("trace")?,
                raw: raw.to_string(),
                ..AlertLine::read(f)?
            }),
            "incident" => self.incidents.push(IncidentLine {
                acked_ms: f.opt("acked_ms")?,
                resolved_ms: f.opt("resolved_ms")?,
                trace: f.opt("trace")?,
                raw: raw.to_string(),
                ..IncidentLine::read(f)?
            }),
            "window" => self.window_lines.push(raw.to_string()),
            other => return Err(format!("unknown line kind {other:?}: {raw}")),
        }
        Ok(())
    }

    /// Whether the tapped pass reproduced the bare pass's trajectory.
    pub fn trajectory_clean(&self) -> bool {
        self.checksum_plain == self.checksum_watch
    }

    /// Re-hashes the raw alert lines; must match the header digest.
    pub fn alert_digest_recomputed(&self) -> String {
        let raw: Vec<&str> = self.alerts.iter().map(|a| a.raw.as_str()).collect();
        hex(digest_lines(&raw))
    }

    /// Re-hashes the raw rule-table lines; must match the header digest.
    pub fn rule_digest_recomputed(&self) -> String {
        hex(digest_lines(&self.rule_lines))
    }

    /// Whether both recomputed stream digests match the engine's.
    pub fn streams_verified(&self) -> bool {
        self.alert_digest_recomputed() == self.alert_digest
            && self.rule_digest_recomputed() == self.rule_digest
    }

    /// Alert firings counted from the stream itself (not the header).
    pub fn fires_in_pass(&self, pass: &str) -> u64 {
        self.alerts
            .iter()
            .filter(|a| a.state == "fire" && a.pass == pass)
            .count() as u64
    }

    /// Mean sim-minutes from open to acknowledge, over acked incidents.
    pub fn mtta_mins(&self) -> Option<f64> {
        mean_mins(
            self.incidents
                .iter()
                .filter_map(|i| i.acked_ms.map(|acked| acked.saturating_sub(i.opened_ms))),
        )
    }

    /// Mean sim-minutes from open to resolve, over closed incidents.
    pub fn mttr_mins(&self) -> Option<f64> {
        mean_mins(self.incidents.iter().filter_map(|i| {
            i.resolved_ms
                .map(|resolved| resolved.saturating_sub(i.opened_ms))
        }))
    }
}

fn mean_mins(deltas_ms: impl Iterator<Item = u64>) -> Option<f64> {
    let (mut sum, mut n) = (0u64, 0u64);
    for d in deltas_ms {
        sum += d;
        n += 1;
    }
    (n > 0).then(|| sum as f64 / n as f64 / 60_000.0)
}

impl BenchDump for WatchRun {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "watch")?;
        let mut run = WatchRun::read(&h)?;
        for (raw, f) in &body {
            run.push_line(raw, f)?;
        }
        expect_count(h.get("rules")?, run.rule_lines.len(), "rules")?;
        expect_count(h.get("alerts")?, run.alerts.len(), "alerts")?;
        expect_count(h.get("incidents")?, run.incidents.len(), "incidents")?;
        expect_count(h.get("windows")?, run.window_lines.len(), "windows")?;
        Ok(run)
    }

    /// One header line, then the rule table, the alert stream, the
    /// incident ledger and the window rollups.
    fn encode(&self) -> String {
        let mut out = String::new();
        let mut header = Line::header("watch", self);
        header.insert_after("alert_digest", "rules", &(self.rule_lines.len() as u64));
        header.insert_after("rules", "alerts", &(self.alerts.len() as u64));
        header.insert_after("alerts", "incidents", &(self.incidents.len() as u64));
        header.insert_after("incidents", "windows", &(self.window_lines.len() as u64));
        header.write_to(&mut out);
        let lines = self
            .rule_lines
            .iter()
            .chain(self.alerts.iter().map(|a| &a.raw));
        let lines = lines.chain(self.incidents.iter().map(|i| &i.raw));
        for line in lines.chain(&self.window_lines) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    fn gates(&self) -> Vec<Gate> {
        let clean = self.fires_in_pass(CLEAN_PASS);
        vec![
            Gate::new(
                "trajectory-digest",
                self.trajectory_clean(),
                format!(
                    "attaching the watch tap changed the trajectory ({} vs {})",
                    self.checksum_plain, self.checksum_watch
                ),
            ),
            Gate::new(
                "stream-digests",
                self.streams_verified(),
                format!(
                    "alert {} vs {}, rules {} vs {}",
                    self.alert_digest_recomputed(),
                    self.alert_digest,
                    self.rule_digest_recomputed(),
                    self.rule_digest
                ),
            ),
            Gate::new(
                "clean-pass-silence",
                clean == 0,
                format!("{clean} alert(s) fired during the clean pass (want 0)"),
            ),
            Gate::new(
                "chaos-pass-signal",
                self.chaos_proximity_incidents >= 1,
                format!("no {PROXIMITY_RULE} incident opened during the chaos pass (want >= 1)"),
            ),
        ]
    }

    fn overhead_fraction(&self) -> Option<f64> {
        Some(self.overhead_fraction)
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## Watch run\n");
        let _ = writeln!(
            md,
            "{} workers, seed {}, {} measured hours per pass. The tap observed \
             {} events and closed {} rollup windows; wall {:.1} ms bare vs \
             {:.1} ms tapped — **{:.1}%** observability overhead.\n",
            self.workers,
            self.seed,
            self.hours,
            self.events,
            self.window_lines.len(),
            self.wall_plain_ms,
            self.wall_watch_ms,
            self.overhead_fraction * 100.0
        );

        // Per-rule firing counts.
        let _ = writeln!(md, "| rule | fires | incidents | open at end |");
        let _ = writeln!(md, "|:-----|------:|----------:|------------:|");
        for rule_line in &self.rule_lines {
            let name = Fields::parse(0, rule_line)
                .and_then(|f| f.get::<String>("rule"))
                .unwrap_or_default();
            let fires = self
                .alerts
                .iter()
                .filter(|a| a.state == "fire" && a.alert == name)
                .count();
            let opened = self.incidents.iter().filter(|i| i.rule == name).count();
            let open = self
                .incidents
                .iter()
                .filter(|i| i.rule == name && i.resolved_ms.is_none())
                .count();
            let _ = writeln!(md, "| {name} | {fires} | {opened} | {open} |");
        }
        let _ = writeln!(md);

        // Incident timeline.
        if self.incidents.is_empty() {
            let _ = writeln!(md, "No incidents opened.\n");
        } else {
            let _ = writeln!(
                md,
                "| id | pass | rule | sev | opened | acked | resolved | peak | trace |"
            );
            let _ = writeln!(
                md,
                "|---:|:-----|:-----|:----|-------:|------:|---------:|-----:|:------|"
            );
            for i in &self.incidents {
                let fmt_at = |at: Option<u64>| match at {
                    Some(ms) => format!("{}m", ms / 60_000),
                    None => "—".into(),
                };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {}m | {} | {} | {:.2} | {} |",
                    i.incident,
                    i.pass,
                    i.rule,
                    i.severity,
                    i.opened_ms / 60_000,
                    fmt_at(i.acked_ms),
                    fmt_at(i.resolved_ms),
                    i.peak,
                    match i.trace {
                        Some(t) => format!("`{t:x}`"),
                        None => "—".into(),
                    }
                );
            }
            let _ = writeln!(md);
            let fmt_mean = |m: Option<f64>| match m {
                Some(m) => format!("{m:.1} min"),
                None => "n/a".into(),
            };
            let _ = writeln!(
                md,
                "MTTA {} (sim time, auto-ack), MTTR {} over {} closed of {} incidents.\n",
                fmt_mean(self.mtta_mins()),
                fmt_mean(self.mttr_mins()),
                self.incidents
                    .iter()
                    .filter(|i| i.resolved_ms.is_some())
                    .count(),
                self.incidents.len()
            );
        }

        // Verdicts.
        let _ = writeln!(
            md,
            "Trajectory digest: **{}** — attaching the tap {} the simulation \
             (`{}` vs `{}`).",
            if self.trajectory_clean() {
                "CLEAN"
            } else {
                "PERTURBED"
            },
            if self.trajectory_clean() {
                "did not change"
            } else {
                "CHANGED"
            },
            self.checksum_plain,
            self.checksum_watch
        );
        let _ = writeln!(
            md,
            "Stream digests: **{}** — alert stream `{}`, rule table `{}` \
             (recomputed from the raw lines).",
            if self.streams_verified() {
                "VERIFIED"
            } else {
                "MISMATCH"
            },
            self.alert_digest,
            self.rule_digest
        );
        let clean = self.fires_in_pass(CLEAN_PASS);
        let _ = writeln!(
            md,
            "Clean pass: **{}** ({clean} firings, want 0). Chaos pass: \
             **{}** ({} breaker-proximity incidents, want ≥ 1).",
            if clean == 0 { "SILENT" } else { "NOISY" },
            if self.chaos_proximity_incidents >= 1 {
                "PAGED"
            } else {
                "MISSED"
            },
            self.chaos_proximity_incidents
        );
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> String {
        include_str!("../tests/fixtures/watch.jsonl").to_string()
    }

    #[test]
    fn parses_verifies_and_reports() {
        let run = WatchRun::decode(&dump()).unwrap();
        assert!(run.trajectory_clean());
        assert!(run.streams_verified());
        assert_eq!(run.fires_in_pass("clean"), 0);
        assert_eq!(run.fires_in_pass("chaos"), 1);
        assert_eq!(run.alerts[1].trace, None);
        assert_eq!(run.incidents[0].trace, Some(17));
        assert_eq!(run.window_lines.len(), 1);
        assert_eq!(run.encode(), dump());
        // 2 min to ack, 50 min to resolve.
        assert!((run.mtta_mins().unwrap() - 2.0).abs() < 1e-9);
        assert!((run.mttr_mins().unwrap() - 50.0).abs() < 1e-9);
        let md = run.to_markdown();
        assert!(md.contains("## Watch run"));
        assert!(md.contains("**VERIFIED**"));
        assert!(md.contains("**SILENT**"));
        assert!(md.contains("**PAGED**"));
        assert!(md.contains("| 0 | chaos | breaker-proximity | error | 37m | 39m | 87m |"));
    }

    #[test]
    fn detects_tampered_alert_stream() {
        let tampered = dump().replace("\"value\":3.0", "\"value\":4.0");
        let run = WatchRun::decode(&tampered).unwrap();
        assert!(!run.streams_verified());
        assert!(run.to_markdown().contains("**MISMATCH**"));
    }

    #[test]
    fn rejects_malformed_dumps() {
        assert!(WatchRun::decode("").is_err());
        assert!(WatchRun::decode("{\"bench\":\"profile\"}").is_err());
        // Truncated alert stream vs header count.
        let full = dump();
        let truncated: Vec<&str> = full.lines().take(3).collect();
        assert!(WatchRun::decode(&truncated.join("\n"))
            .unwrap_err()
            .contains("declares 3 alerts"));
        // Unknown line kind.
        let unknown = format!("{}{}", full, "{\"mystery\":1}\n");
        assert!(WatchRun::decode(&unknown).unwrap_err().contains("unknown"));
    }
}
