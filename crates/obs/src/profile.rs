//! The `repro profile` record: the report section behind `report
//! --profile`.
//!
//! `repro profile` emits `BENCH_profile.json` — a JSONL header line
//! describing one overhead measurement (the same seeded workload with
//! telemetry disabled and fully instrumented, in alternating pass
//! pairs; the median pair is reported), plus one line per tick phase
//! with the profiler's wall-time breakdown.
//! [`ProfileRun`] is that dump as a record ([`BenchDump`]) with the
//! verdicts CI gates on:
//!
//! - **digest** — every pass must reproduce the first no-op pass's
//!   trajectory checksum exactly. Telemetry that perturbs the
//!   run it observes is a correctness bug and always fails the report;
//! - **overhead** — the self-overhead fraction is compared against
//!   `report --max-overhead` when given, soft by default so the
//!   wall-clock-dependent number only gates where CI opts in.

use crate::dump::{dump_line, expect_count, read, BenchDump, DumpLine, Gate, Line};

use std::fmt::Write as _;

dump_line! {
    /// One tick phase's wall-time aggregate.
    pub struct ProfilePhase {
        /// Phase label (`predict`, `decide`, …).
        phase: String,
        /// Recorded phase scopes.
        calls: u64,
        /// Total wall microseconds.
        total_us: f64 => 1,
        /// Mean microseconds per scope.
        mean_us: f64 => 2,
    }
}

dump_line! {
    /// The `repro profile` run (`BENCH_profile.json`).
    pub struct ProfileRun {
        /// Shard (row) count.
        rows: u64,
        /// Worker threads.
        workers: u64,
        /// Simulated minutes.
        sim_minutes: u64,
        /// Master seed.
        seed: u64,
        /// Simulated domain-ticks.
        ticks: u64,
        /// Wall milliseconds, telemetry disabled (median pair).
        wall_noop_ms: f64 => 3,
        /// Wall milliseconds, fully instrumented (median pair).
        wall_instr_ms: f64 => 3,
        /// Domain-ticks per wall-second, telemetry disabled.
        ticks_per_sec_noop: f64 => 3,
        /// Domain-ticks per wall-second, fully instrumented.
        ticks_per_sec_instr: f64 => 3,
        /// Self-overhead fraction of instrumented wall time, of the
        /// pass pair with the median fraction.
        overhead_fraction: f64 => 4,
        /// Trajectory checksum of the first no-op pass (hex string).
        checksum_noop: String,
        /// The first pass's trajectory checksum that differs from
        /// `checksum_noop`, or that one when every pass agrees (hex
        /// string).
        checksum_instr: String,
        /// Events that reached the sinks.
        events_total: u64,
        /// Events that reached the sinks per tick.
        events_per_tick: f64 => 3,
        /// String-keyed (registry mutex) counter cost, ns/op.
        mutex_ns_per_op: f64 => 1,
        /// Pre-registered handle counter cost, ns/op.
        handle_ns_per_op: f64 => 1,
    }
    extra {
        /// Per-phase breakdown, in tick order.
        phases: Vec<ProfilePhase>,
    }
}

impl ProfileRun {
    /// Whether instrumentation left the trajectory untouched — the
    /// hard gate.
    pub fn digest_clean(&self) -> bool {
        self.checksum_noop == self.checksum_instr
    }
}

impl BenchDump for ProfileRun {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "profile")?;
        let mut run = ProfileRun::read(&h)?;
        run.phases = body
            .iter()
            .map(ProfilePhase::read)
            .collect::<Result<_, _>>()?;
        expect_count(h.get("phases")?, run.phases.len(), "phases")?;
        Ok(run)
    }

    /// A header line, then one line per phase.
    fn encode(&self) -> String {
        let mut out = String::new();
        let mut header = Line::header("profile", self);
        header.push("phases", &(self.phases.len() as u64));
        header.write_to(&mut out);
        for p in &self.phases {
            Line::of(p).write_to(&mut out);
        }
        out
    }

    fn gates(&self) -> Vec<Gate> {
        vec![Gate::new(
            "instrumentation-digest",
            self.digest_clean(),
            format!(
                "instrumentation changed the trajectory checksum ({} vs {})",
                self.checksum_noop, self.checksum_instr
            ),
        )]
    }

    fn overhead_fraction(&self) -> Option<f64> {
        Some(self.overhead_fraction)
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## Profile run\n");
        let _ = writeln!(
            md,
            "{} rows x {} workers, {} simulated minutes ({} ticks), seed {}.\n",
            self.rows, self.workers, self.sim_minutes, self.ticks, self.seed
        );
        let _ = writeln!(md, "| pass | wall ms | ticks/sec | checksum |");
        let _ = writeln!(md, "|:-----|--------:|----------:|:---------|");
        let _ = writeln!(
            md,
            "| no-op | {:.1} | {:.1} | `{}` |",
            self.wall_noop_ms, self.ticks_per_sec_noop, self.checksum_noop
        );
        let _ = writeln!(
            md,
            "| instrumented | {:.1} | {:.1} | `{}` |",
            self.wall_instr_ms, self.ticks_per_sec_instr, self.checksum_instr
        );
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Telemetry self-overhead: **{:.1}%** of instrumented wall time. \
             Events/tick: {:.2} ({} events). \
             Counter op: {:.1} ns string-keyed (registry mutex) vs {:.1} ns \
             pre-registered handle.\n",
            self.overhead_fraction * 100.0,
            self.events_per_tick,
            self.events_total,
            self.mutex_ns_per_op,
            self.handle_ns_per_op
        );
        let _ = writeln!(md, "| phase | calls | total us | mean us |");
        let _ = writeln!(md, "|:------|------:|---------:|--------:|");
        for p in &self.phases {
            let _ = writeln!(
                md,
                "| {} | {} | {:.1} | {:.2} |",
                p.phase, p.calls, p.total_us, p.mean_us
            );
        }
        let _ = writeln!(md);
        if self.digest_clean() {
            let _ = writeln!(
                md,
                "Digest: **CLEAN** — full instrumentation reproduced the no-op \
                 pass's trajectory checksum."
            );
        } else {
            let _ = writeln!(
                md,
                "Digest: **PERTURBED** — instrumentation changed the trajectory \
                 checksum (`{}` vs `{}`). Telemetry must observe, never steer \
                 (DESIGN.md §11).",
                self.checksum_noop, self.checksum_instr
            );
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = "\
{\"bench\":\"profile\",\"rows\":6,\"workers\":2,\"sim_minutes\":30,\"seed\":42,\"ticks\":180,\"wall_noop_ms\":60.0,\"wall_instr_ms\":63.0,\"ticks_per_sec_noop\":3000.0,\"ticks_per_sec_instr\":2857.1,\"overhead_fraction\":0.0476,\"checksum_noop\":\"00000000deadbeef\",\"checksum_instr\":\"00000000deadbeef\",\"events_total\":854,\"events_per_tick\":4.744,\"mutex_ns_per_op\":52.4,\"handle_ns_per_op\":9.7,\"phases\":2}
{\"phase\":\"predict\",\"calls\":180,\"total_us\":33.8,\"mean_us\":0.19}
{\"phase\":\"decide\",\"calls\":180,\"total_us\":182.0,\"mean_us\":1.01}
";

    #[test]
    fn parses_and_reports_clean_run() {
        let run = ProfileRun::decode(DUMP).unwrap();
        assert_eq!(run.ticks, 180);
        assert_eq!(run.phases.len(), 2);
        assert_eq!(run.phases[1].phase, "decide");
        assert!(run.digest_clean());
        let md = run.to_markdown();
        assert!(md.contains("## Profile run"));
        assert!(md.contains("**CLEAN**"));
        assert!(md.contains("**4.8%**"));
    }

    #[test]
    fn detects_perturbed_digest() {
        let broken = DUMP.replace(
            "\"checksum_instr\":\"00000000deadbeef\"",
            "\"checksum_instr\":\"00000000cafef00d\"",
        );
        let run = ProfileRun::decode(&broken).unwrap();
        assert!(!run.digest_clean());
        assert!(run.to_markdown().contains("**PERTURBED**"));
    }

    #[test]
    fn rejects_malformed_dumps() {
        assert!(ProfileRun::decode("").is_err());
        assert!(ProfileRun::decode("{\"bench\":\"scale\"}").is_err());
        let short = DUMP.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(ProfileRun::decode(&short)
            .unwrap_err()
            .contains("declares 2"));
    }
}
