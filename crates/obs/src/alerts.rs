//! The `repro watch` record: the report section behind `report
//! --alerts`.
//!
//! `repro watch` emits `BENCH_watch.json` — a JSONL header describing
//! one observability benchmark of alternating bare and tapped pass
//! pairs, then the alert-rule table, the alert stream, the incident
//! ledger and the window rollups the online engine produced. Each of
//! those four line kinds is declared once, below, as a field table:
//! `repro watch` builds the lines from the engine's typed records and
//! this module alone writes and reads them. [`WatchRun`] is that dump
//! as a record ([`BenchDump`]) with the verdicts CI gates on:
//!
//! - **trajectory digest** — every pass must reproduce the first bare
//!   pass's trajectory checksum exactly (a tap that steers the run it
//!   observes is a correctness bug);
//! - **stream digests** — the header carries digests of the encoded
//!   alert stream and rule table; re-hashing the decoded lines must
//!   reproduce them, so an edited or truncated dump fails;
//! - **silence on health** — zero alert firings in the clean pass;
//! - **signal on chaos** — at least one breaker-proximity incident in
//!   the chaos pass;
//! - **overhead** — the rollup/alerting overhead fraction, gated by
//!   `--max-overhead` where the environment opts in (wall-clock noise
//!   makes it a soft gate by default).

use crate::dump::{dump_line, expect_count, hex, read, BenchDump, DumpLine, Fields, Gate, Line};
use ampere_sim::Fnv;

use std::fmt::Write as _;

/// Pass label of the fault-free light-workload task.
pub const CLEAN_PASS: &str = "clean";
/// Pass label of the fault-injected heavy-workload task.
pub const CHAOS_PASS: &str = "chaos";
/// Rule expected to page during the chaos pass.
pub const PROXIMITY_RULE: &str = "breaker-proximity";

dump_line! {
    /// One rule-table line: an alert rule that was in force.
    pub struct RuleLine {
        /// Unique rule name.
        rule: String,
        /// Gauge the rule watches (`et_headroom`, `violation_streak`, …).
        input: String,
        /// Row filter; `None` watches every row.
        scope: Option<String>,
        /// Breach direction, `above` or `below`.
        cmp: String,
        /// Breach level.
        threshold: f64,
        /// Clear level (hysteresis).
        clear: f64,
        /// Consecutive breaching evaluations required to fire.
        sustain: u64,
        /// Severity of its firings and incidents.
        severity: String,
    }
    extra {
        /// Churn floor of a `churn_zscore` rule (absent for other inputs).
        min_churn: Option<u64>,
    }
}

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
        /// Linked span id (absent along with `trace`).
        span: Option<u64>,
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
        /// Auto-acknowledged at (sim ms), if it was.
        acked_ms: Option<u64>,
        /// Resolved at (sim ms); `None` means still open at stream end.
        resolved_ms: Option<u64>,
        /// Worst gauge value while active.
        peak: f64,
    }
    extra {
        /// Linked causal trace id.
        trace: Option<u64>,
        /// Linked causal span id.
        span: Option<u64>,
    }
}

dump_line! {
    /// One closed window's rollup line.
    pub struct WindowLine {
        /// Window index within the segment.
        window: u64,
        /// Monotone segment number.
        segment: u64,
        /// Pass label in effect.
        pass: String,
        /// Window start (sim ms, inclusive).
        start_ms: u64,
        /// Window end (sim ms, exclusive).
        end_ms: u64,
        /// Closed ticks folded in.
        ticks: u64,
        /// Ticks with a controller decision.
        power_ticks: u64,
        /// Mean normalized power over controller ticks (0 when none).
        power_mean: f64,
        /// Max normalized power.
        power_max: f64,
        /// Bucketed p99 of normalized power.
        power_p99: f64,
        /// p99 over the sliding view.
        sliding_p99: f64,
        /// Freeze + unfreeze churn.
        churn: u64,
        /// Churn over the sliding view.
        sliding_churn: u64,
        /// Ticks in degraded mode.
        degraded_ticks: u64,
        /// Ticks with the watchdog backstop armed.
        backstop_ticks: u64,
        /// Breaker violation events.
        violations: u64,
        /// Arbiter reallocation rounds.
        arb_rounds: u64,
        /// Rounds with a row pinned at its floor while reserve was held.
        starved_rounds: u64,
        /// Empirical P(power_norm > margin) over controller ticks.
        p_over: f64,
        /// Minimum Et headroom; `None` when power was never known.
        min_headroom: Option<f64>,
    }
}

/// Writes `trace` and `span`, when known, right after the field `after`.
fn write_link(line: &mut Line, after: &'static str, trace: Option<u64>, span: Option<u64>) {
    let mut at = after;
    if let Some(trace) = trace {
        line.insert_after(at, "trace", &trace);
        at = "trace";
    }
    if let Some(span) = span {
        line.insert_after(at, "span", &span);
    }
}

impl RuleLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        Ok(RuleLine {
            min_churn: f.opt("min_churn")?,
            ..RuleLine::read(f)?
        })
    }

    fn line(&self) -> Line {
        let mut line = Line::of(self);
        if let Some(min_churn) = self.min_churn {
            line.insert_after("input", "min_churn", &min_churn);
        }
        line
    }
}

impl AlertLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        Ok(AlertLine {
            trace: f.opt("trace")?,
            span: f.opt("span")?,
            ..AlertLine::read(f)?
        })
    }

    fn line(&self) -> Line {
        let mut line = Line::of(self);
        write_link(&mut line, "value", self.trace, self.span);
        line
    }
}

impl IncidentLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        Ok(IncidentLine {
            trace: f.opt("trace")?,
            span: f.opt("span")?,
            ..IncidentLine::read(f)?
        })
    }

    fn line(&self) -> Line {
        let mut line = Line::of(self);
        write_link(&mut line, "peak", self.trace, self.span);
        line
    }
}

/// The lines of `items`, each with its newline.
fn lines<T>(items: &[T], line: impl Fn(&T) -> Line) -> String {
    let mut out = String::new();
    for item in items {
        line(item).write_to(&mut out);
    }
    out
}

/// FNV-1a digest of encoded lines (order-sensitive; each line ends in
/// its newline, so `"x\ny\n"` and `"xy\n"` differ), as hex.
fn digest_lines(lines: &str) -> String {
    let mut fnv = Fnv::new();
    fnv.bytes(lines.as_bytes());
    hex(fnv.finish())
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
        /// Wall ms of the median pair's bare pass.
        wall_plain_ms: f64 => 3,
        /// Wall ms of the median pair's tapped pass.
        wall_watch_ms: f64 => 3,
        /// Observability overhead fraction of the tapped pass, of the
        /// pass pair with the median fraction.
        overhead_fraction: f64 => 6,
        /// Trajectory checksum, first bare pass (hex).
        checksum_plain: String,
        /// The first pass's trajectory checksum that differs from
        /// `checksum_plain`, or that one when every pass agrees (hex).
        checksum_watch: String,
        /// Digest of the encoded rule table (hex).
        rule_digest: String,
        /// Digest of the encoded alert stream (hex).
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
        /// The rule table, in table order.
        rules: Vec<RuleLine>,
        /// The alert stream, in evaluation order.
        alerts: Vec<AlertLine>,
        /// The incident ledger, in open order.
        incidents: Vec<IncidentLine>,
        /// Window rollups, in close order.
        windows: Vec<WindowLine>,
    }
}

impl WatchRun {
    /// Sets the header's stream digests to those of the body lines (what
    /// the producer calls once the body is complete).
    pub fn stamp_digests(&mut self) {
        self.rule_digest = self.rule_digest_recomputed();
        self.alert_digest = self.alert_digest_recomputed();
    }

    /// Whether the tapped pass reproduced the bare pass's trajectory.
    pub fn trajectory_clean(&self) -> bool {
        self.checksum_plain == self.checksum_watch
    }

    /// Re-hashes the encoded alert lines; must match the header digest.
    pub fn alert_digest_recomputed(&self) -> String {
        digest_lines(&lines(&self.alerts, AlertLine::line))
    }

    /// Re-hashes the encoded rule lines; must match the header digest.
    pub fn rule_digest_recomputed(&self) -> String {
        digest_lines(&lines(&self.rules, RuleLine::line))
    }

    /// Whether both recomputed stream digests match the header's.
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
    /// Reads the header, then each body line by its leading key: a
    /// rule, an alert (`t_ms`), an incident or a window.
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "watch")?;
        let mut run = WatchRun::read(&h)?;
        for f in &body {
            match f.first_key() {
                "rule" => run.rules.push(RuleLine::decode(f)?),
                "t_ms" => run.alerts.push(AlertLine::decode(f)?),
                "incident" => run.incidents.push(IncidentLine::decode(f)?),
                "window" => run.windows.push(WindowLine::read(f)?),
                other => return Err(f.err(format!("unknown line kind {other:?}"))),
            }
        }
        expect_count(h.get("rules")?, run.rules.len(), "rules")?;
        expect_count(h.get("alerts")?, run.alerts.len(), "alerts")?;
        expect_count(h.get("incidents")?, run.incidents.len(), "incidents")?;
        expect_count(h.get("windows")?, run.windows.len(), "windows")?;
        Ok(run)
    }

    /// One header line, then the rule table, the alert stream, the
    /// incident ledger and the window rollups.
    fn encode(&self) -> String {
        let mut out = String::new();
        let mut header = Line::header("watch", self);
        header.insert_after("alert_digest", "rules", &(self.rules.len() as u64));
        header.insert_after("rules", "alerts", &(self.alerts.len() as u64));
        header.insert_after("alerts", "incidents", &(self.incidents.len() as u64));
        header.insert_after("incidents", "windows", &(self.windows.len() as u64));
        header.write_to(&mut out);
        out += &lines(&self.rules, RuleLine::line);
        out += &lines(&self.alerts, AlertLine::line);
        out += &lines(&self.incidents, IncidentLine::line);
        out += &lines(&self.windows, Line::of);
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
            self.windows.len(),
            self.wall_plain_ms,
            self.wall_watch_ms,
            self.overhead_fraction * 100.0
        );

        // Per-rule firing counts.
        let _ = writeln!(md, "| rule | fires | incidents | open at end |");
        let _ = writeln!(md, "|:-----|------:|----------:|------------:|");
        for name in self.rules.iter().map(|r| r.rule.as_str()) {
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
             (recomputed from the decoded lines).",
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

    /// The fixture with line `no` (1-based) replaced by `line`.
    fn with_line(no: usize, line: &str) -> String {
        let full = dump();
        let mut lines: Vec<&str> = full.lines().collect();
        lines[no - 1] = line;
        lines.join("\n")
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
        assert_eq!(run.windows.len(), 1);
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
        let tampered = dump().replace("\"value\":3,", "\"value\":4,");
        assert_ne!(tampered, dump());
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

    #[test]
    fn malformed_window_and_rule_lines_fail_decoding() {
        let full = dump();
        let window = full.lines().nth(6).unwrap();
        let rule = full.lines().nth(1).unwrap();
        assert!(window.starts_with("{\"window\":") && rule.starts_with("{\"rule\":"));
        for (no, line, key) in [
            (7, "{\"window\":\"x\"}".to_string(), "window"),
            (
                7,
                window.replace(",\"starved_rounds\":0", ""),
                "starved_rounds",
            ),
            (
                2,
                rule.replace("\"sustain\":2", "\"sustain\":\"2\""),
                "sustain",
            ),
        ] {
            let bad = with_line(no, &line);
            assert_ne!(bad.trim_end(), full.trim_end(), "{key}");
            let err = WatchRun::decode(&bad).unwrap_err();
            assert!(err.starts_with(&format!("line {no}:")), "{err}");
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = digest_lines("x\ny\n");
        assert_ne!(a, digest_lines("y\nx\n"));
        assert_eq!(a, digest_lines("x\ny\n"));
        // Line splitting matters: ["xy"] != ["x","y"].
        assert_ne!(digest_lines("xy\n"), a);
    }

    #[test]
    fn one_changed_value_changes_its_stream_digest() {
        let run = WatchRun::decode(&dump()).unwrap();
        let mut alert = run.clone();
        alert.alerts[2].value = 0.25;
        assert_ne!(alert.alert_digest_recomputed(), run.alert_digest);
        assert_eq!(alert.rule_digest_recomputed(), run.rule_digest);
        assert!(!alert.streams_verified());
        alert.stamp_digests();
        assert!(alert.streams_verified());

        let mut rule = run.clone();
        rule.rules[0].threshold += 0.01;
        assert_ne!(rule.rule_digest_recomputed(), run.rule_digest);
        assert_eq!(rule.alert_digest_recomputed(), run.alert_digest);
    }

    #[test]
    fn optional_fields_round_trip_absent_or_null() {
        let mut run = WatchRun::decode(&dump()).unwrap();
        run.rules[0].min_churn = Some(8);
        run.rules[0].scope = Some("control".into());
        run.windows[0].min_headroom = None;
        run.incidents[0].resolved_ms = None;
        run.stamp_digests();
        let text = run.encode();
        assert!(text.contains(r#""input":"violation_streak","min_churn":8,"scope":"control","#));
        assert!(text.contains(r#""min_headroom":null}"#));
        assert!(text.contains(r#""resolved_ms":null,"#));
        assert_eq!(WatchRun::decode(&text), Ok(run));
    }
}
