//! Run reports and the baseline regression gate.
//!
//! [`RunReport`] bundles every analysis over one dump and renders as
//! Markdown (for humans and CI artifacts) or JSON (for tooling). The
//! baseline half implements the CI gate: [`write_baseline`] snapshots a
//! known-good run's summary with per-metric tolerances into JSONL, and
//! [`check`] compares a later run against it — `report --check` exits
//! non-zero when any metric drifts outside its tolerance, so a control
//! regression (more violations, slower decision→response, broken trace
//! linkage) fails the build instead of rotting silently.

use crate::analysis::{
    decision_latency, freeze_durations, violation_epochs, DecisionLatency, DegradedOps,
    Distribution, RunSummary, ViolationAttribution, ViolationEpoch, ET_BINS,
};
use crate::reader::Run;
use crate::trace::{LinkReport, TraceIndex};

use ampere_telemetry::json;
use ampere_telemetry::Value;

use std::fmt::Write as _;

/// Every analysis over one run, ready to render.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The flat summary (also the baseline surface).
    pub summary: RunSummary,
    /// Tracing health.
    pub link: LinkReport,
    /// Freeze-hold distribution.
    pub freeze_holds: Distribution,
    /// Decision→response latency.
    pub latency: DecisionLatency,
    /// Violations by `Et` regime.
    pub attribution: ViolationAttribution,
    /// Violation epochs, in file order.
    pub epochs: Vec<ViolationEpoch>,
    /// Fault-injection and degraded-operation evidence.
    pub degraded: DegradedOps,
}

impl RunReport {
    /// Runs every analysis over a loaded dump.
    pub fn build(run: &Run) -> Self {
        let index = TraceIndex::build(&run.events);
        RunReport {
            summary: RunSummary::build(run),
            link: LinkReport::build(&run.events, &index),
            freeze_holds: freeze_durations(&run.events),
            latency: decision_latency(&run.events),
            attribution: ViolationAttribution::build(&run.events, &index),
            epochs: violation_epochs(&run.events),
            degraded: DegradedOps::build(run),
        }
    }

    /// Renders the Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Run report\n");

        let _ = writeln!(out, "## Summary\n");
        let _ = writeln!(out, "| metric | value |");
        let _ = writeln!(out, "|---|---:|");
        for (name, value) in &self.summary.metrics {
            let _ = writeln!(out, "| {name} | {} |", fmt_num(*value));
        }

        let _ = writeln!(out, "\n## Tracing health\n");
        let _ = writeln!(
            out,
            "{} of {} events traced; {} traces; freeze link ratio {} \
             ({}/{} freezes reach a controller tick root).",
            self.link.traced,
            self.link.events,
            self.summary.get("traces").map_or(0, |v| v as u64),
            fmt_num(self.link.freeze_link_ratio()),
            self.link.freezes_linked,
            self.link.freezes,
        );

        let _ = writeln!(out, "\n## Freeze-duration CDF\n");
        if self.freeze_holds.count() == 0 {
            let _ = writeln!(out, "No completed freezes in this run.");
        } else {
            let _ = writeln!(out, "| held (min) | P(hold ≤ x) |");
            let _ = writeln!(out, "|---:|---:|");
            for (v, frac) in sampled(&self.freeze_holds.cdf_points(), 20) {
                let _ = writeln!(out, "| {} | {} |", fmt_num(v), fmt_num(frac));
            }
        }

        let _ = writeln!(out, "\n## Decision→response latency\n");
        match self.latency.latencies.mean() {
            None => {
                let _ = writeln!(
                    out,
                    "No acting ticks with an observed power drop ({} censored).",
                    self.latency.censored
                );
            }
            Some(mean) => {
                let _ = writeln!(
                    out,
                    "{} decisions answered; mean {} min, p95 {} min; {} censored \
                     (no later power drop in segment).",
                    self.latency.latencies.count(),
                    fmt_num(mean),
                    fmt_num(self.latency.latencies.quantile(0.95).unwrap_or(f64::NAN)),
                    self.latency.censored,
                );
            }
        }

        let _ = writeln!(out, "\n## Violations by Et regime\n");
        let _ = writeln!(out, "| Et of originating tick | violations |");
        let _ = writeln!(out, "|---|---:|");
        for (i, (_, label)) in ET_BINS.iter().enumerate() {
            let _ = writeln!(out, "| {label} | {} |", self.attribution.by_et[i]);
        }
        let _ = writeln!(out, "| unlinked | {} |", self.attribution.unlinked);

        let _ = writeln!(out, "\n## Degraded operation\n");
        if self.degraded.is_clean() {
            let _ = writeln!(out, "No fault injection or degraded operation in this run.");
        } else {
            let d = &self.degraded;
            let _ = writeln!(out, "| metric | value |");
            let _ = writeln!(out, "|---|---:|");
            let _ = writeln!(out, "| degraded controller ticks | {} |", d.degraded_ticks);
            let _ = writeln!(out, "| mode transitions | {} |", d.mode_transitions);
            let _ = writeln!(out, "| controller outages | {} |", d.outages);
            let _ = writeln!(out, "| backstop arms | {} |", d.backstop_arms);
            let _ = writeln!(
                out,
                "| backstop armed (min) | {} |",
                fmt_num(d.backstop_armed_mins)
            );
            let _ = writeln!(out, "| controller failovers | {} |", d.failovers);
            let _ = writeln!(out, "| samples dropped | {} |", d.samples_dropped);
            let _ = writeln!(out, "| sweeps lost | {} |", d.sweeps_lost);
            let _ = writeln!(out, "| freeze RPCs lost | {} |", d.rpcs_lost);
        }

        let _ = writeln!(out, "\n## Violation epochs\n");
        if self.epochs.is_empty() {
            let _ = writeln!(out, "No violations.");
        } else {
            let _ = writeln!(
                out,
                "| row | start (min) | end (min) | samples | worst over (W) |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|");
            for ep in self.epochs.iter().take(20) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} |",
                    ep.row,
                    fmt_num(ep.start_min),
                    fmt_num(ep.end_min),
                    ep.count,
                    fmt_num(ep.worst_over_w),
                );
            }
            if self.epochs.len() > 20 {
                let _ = writeln!(out, "\n({} more epochs omitted)", self.epochs.len() - 20);
            }
        }
        out
    }

    /// Renders the JSON report (one object, machine-readable).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\":{");
        for (i, (name, value)) in self.summary.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            json::write_json_f64(*value, &mut out);
        }
        out.push_str("},\"freeze_hold_cdf\":[");
        for (i, (v, frac)) in self.freeze_holds.cdf_points().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_json_f64(*v, &mut out);
            out.push(',');
            json::write_json_f64(*frac, &mut out);
            out.push(']');
        }
        out.push_str("],\"violations_by_et\":[");
        for (i, count) in self.attribution.by_et.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{count}");
        }
        let _ = write!(
            out,
            "],\"violations_unlinked\":{}",
            self.attribution.unlinked
        );
        let d = &self.degraded;
        let _ = write!(
            out,
            ",\"degraded\":{{\"degraded_ticks\":{},\"mode_transitions\":{},\
             \"outages\":{},\"backstop_arms\":{},\"backstop_armed_mins\":",
            d.degraded_ticks, d.mode_transitions, d.outages, d.backstop_arms
        );
        json::write_json_f64(d.backstop_armed_mins, &mut out);
        let _ = write!(
            out,
            ",\"failovers\":{},\"samples_dropped\":{},\"sweeps_lost\":{},\
             \"rpcs_lost\":{}}}",
            d.failovers, d.samples_dropped, d.sweeps_lost, d.rpcs_lost
        );
        out.push_str(",\"epochs\":[");
        for (i, ep) in self.epochs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"row\":");
            json::write_json_string(&ep.row, &mut out);
            out.push_str(",\"start_min\":");
            json::write_json_f64(ep.start_min, &mut out);
            out.push_str(",\"end_min\":");
            json::write_json_f64(ep.end_min, &mut out);
            let _ = write!(out, ",\"count\":{},\"worst_over_w\":", ep.count);
            json::write_json_f64(ep.worst_over_w, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// One baseline entry: a metric with its allowed drift. The tolerance
/// is `tol_abs + tol_rel · |value|` in either direction.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    /// Summary metric name.
    pub name: String,
    /// Known-good value.
    pub value: f64,
    /// Relative tolerance.
    pub tol_rel: f64,
    /// Absolute tolerance.
    pub tol_abs: f64,
}

/// Outcome of checking one metric against the baseline.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`None` if the metric vanished from the summary).
    pub current: Option<f64>,
    /// Allowed absolute drift.
    pub allowed: f64,
    /// Whether the metric is within tolerance.
    pub ok: bool,
}

/// Serializes a summary as a baseline file, one JSONL entry per metric.
/// Counts that gate correctness get tight tolerances; latency-flavored
/// statistics (sensitive to scheduling noise across code changes that
/// are *not* regressions) get looser ones.
pub fn write_baseline(summary: &RunSummary) -> String {
    let mut out = String::new();
    for (name, value) in &summary.metrics {
        let (tol_rel, tol_abs) = default_tolerance(name);
        let _ = write!(out, "{{\"metric\":\"{name}\",\"value\":");
        json::write_json_f64(*value, &mut out);
        out.push_str(",\"tol_rel\":");
        json::write_json_f64(tol_rel, &mut out);
        out.push_str(",\"tol_abs\":");
        json::write_json_f64(tol_abs, &mut out);
        out.push_str("}\n");
    }
    out
}

fn default_tolerance(name: &str) -> (f64, f64) {
    match name {
        // Structural invariants: must hold exactly.
        "freeze_link_ratio" | "sink_errors" | "breaker_trips" => (0.0, 1e-9),
        // Latency statistics wobble with benign control-flow changes.
        n if n.starts_with("decision_latency") => (0.5, 2.0),
        n if n.starts_with("freeze_hold") => (0.25, 2.0),
        // Everything else: seeded runs are deterministic, so a modest
        // band only absorbs intentional-but-small behavior shifts.
        _ => (0.1, 1e-6),
    }
}

/// Parses a baseline file produced by [`write_baseline`].
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineMetric>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let pairs = json::parse_object(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        let mut name = None;
        let mut value = None;
        let mut tol_rel = 0.0;
        let mut tol_abs = 0.0;
        for (k, v) in pairs {
            match (k.as_str(), &v) {
                ("metric", Value::Str(s)) => name = Some(s.clone()),
                ("value", v) => value = v.as_f64(),
                ("tol_rel", v) => tol_rel = v.as_f64().unwrap_or(0.0),
                ("tol_abs", v) => tol_abs = v.as_f64().unwrap_or(0.0),
                (k, _) => return Err(format!("line {}: unexpected key {k:?}", no + 1)),
            }
        }
        out.push(BaselineMetric {
            name: name.ok_or_else(|| format!("line {}: missing metric name", no + 1))?,
            value: value.ok_or_else(|| format!("line {}: missing value", no + 1))?,
            tol_rel,
            tol_abs,
        });
    }
    if out.is_empty() {
        return Err("baseline file has no metrics".into());
    }
    Ok(out)
}

/// Compares a run summary against a baseline. Metrics in the summary
/// but not the baseline are ignored (new metrics never fail old
/// baselines); metrics in the baseline but missing from the summary
/// fail.
pub fn check(summary: &RunSummary, baseline: &[BaselineMetric]) -> Vec<CheckResult> {
    baseline
        .iter()
        .map(|b| {
            let current = summary.get(&b.name);
            let allowed = b.tol_abs + b.tol_rel * b.value.abs();
            let ok = current.is_some_and(|c| (c - b.value).abs() <= allowed);
            CheckResult {
                name: b.name.clone(),
                baseline: b.value,
                current,
                allowed,
                ok,
            }
        })
        .collect()
}

/// Renders check results as a human-readable table; `true` if all pass.
pub fn render_check(results: &[CheckResult]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:>14} {:>12}  status",
        "metric", "baseline", "current", "allowed ±"
    );
    for r in results {
        all_ok &= r.ok;
        let current = r.current.map_or_else(|| "missing".to_string(), fmt_num);
        let _ = writeln!(
            out,
            "{:<32} {:>14} {:>14} {:>12}  {}",
            r.name,
            fmt_num(r.baseline),
            current,
            fmt_num(r.allowed),
            if r.ok { "ok" } else { "FAIL" }
        );
    }
    (out, all_ok)
}

/// Downsamples CDF points to at most `max` evenly spaced entries,
/// always keeping the last.
fn sampled(points: &[(f64, f64)], max: usize) -> Vec<(f64, f64)> {
    if points.len() <= max {
        return points.to_vec();
    }
    let step = points.len().div_ceil(max);
    let mut out: Vec<(f64, f64)> = points.iter().step_by(step).copied().collect();
    if out.last() != points.last() {
        out.push(*points.last().expect("non-empty"));
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(pairs: &[(&'static str, f64)]) -> RunSummary {
        RunSummary {
            metrics: pairs.to_vec(),
        }
    }

    #[test]
    fn baseline_round_trips_and_passes_on_identical_summary() {
        let s = summary(&[("violations", 3.0), ("freeze_link_ratio", 1.0)]);
        let text = write_baseline(&s);
        let baseline = parse_baseline(&text).unwrap();
        assert_eq!(baseline.len(), 2);
        let results = check(&s, &baseline);
        assert!(results.iter().all(|r| r.ok), "{results:?}");
    }

    #[test]
    fn check_fails_outside_tolerance_and_on_missing_metric() {
        let base = parse_baseline(concat!(
            "{\"metric\":\"violations\",\"value\":10.0,\"tol_rel\":0.1,\"tol_abs\":0.5}\n",
            "{\"metric\":\"gone\",\"value\":1.0,\"tol_rel\":0.0,\"tol_abs\":0.0}\n",
        ))
        .unwrap();
        // 11.4 is within 10 ± (0.5 + 1.0); 12 is not; "gone" is missing.
        let ok = check(&summary(&[("violations", 11.4)]), &base);
        assert!(ok[0].ok);
        assert!(!ok[1].ok);
        let bad = check(&summary(&[("violations", 12.0)]), &base);
        assert!(!bad[0].ok);
        let (_, all_ok) = render_check(&bad);
        assert!(!all_ok);
    }

    #[test]
    fn baseline_parser_rejects_garbage() {
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("{\"value\":1.0}\n").is_err());
        assert!(parse_baseline("{\"metric\":\"x\",\"value\":1.0,\"extra\":2}\n").is_err());
    }

    #[test]
    fn structural_metrics_get_exact_tolerances() {
        let s = summary(&[("freeze_link_ratio", 1.0)]);
        let baseline = parse_baseline(&write_baseline(&s)).unwrap();
        // Any real drift must fail.
        let drifted = summary(&[("freeze_link_ratio", 0.97)]);
        assert!(!check(&drifted, &baseline)[0].ok);
    }

    #[test]
    fn markdown_and_json_render_without_data() {
        let report = RunReport::build(&crate::reader::Run::default());
        let md = report.to_markdown();
        assert!(md.contains("# Run report"));
        assert!(md.contains("No violations."));
        let json = report.to_json();
        assert!(json.starts_with("{\"summary\":{"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn json_escapes_row_labels() {
        let event = ampere_telemetry::Event::new(
            ampere_sim::SimTime::from_mins(3),
            ampere_telemetry::Severity::Warn,
            "breaker",
            "violation",
        )
        .with("row", "a\"b\\c")
        .with("over_w", 12.5);
        let dump = event.to_json() + "\n";
        let run = Run::collect(crate::reader::RunReader::new(dump.as_bytes())).unwrap();
        let json = RunReport::build(&run).to_json();
        assert!(
            json.contains(r#""epochs":[{"row":"a\"b\\c","start_min":3.0,"#),
            "{json}"
        );
    }
}
