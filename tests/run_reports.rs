//! The run-report gate: the JSON report of a fresh `repro fig10|chaos
//! --quick --telemetry` run must equal the committed one in
//! `crates/obs/baselines/`, byte for byte. Seeded runs are
//! deterministic, so any moved metric is a behavior change: regenerate
//! the file with the command the failure prints and review the diff.

use ampere_obs::{read_run, RunReport};

use std::path::PathBuf;
use std::process::Command;

fn check_report(fig: &str) {
    let dump = std::env::temp_dir().join(format!("run_reports_{}_{fig}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([fig, "--quick", "--telemetry"])
        .arg(&dump)
        .output()
        .expect("run repro");
    let run = read_run(&dump);
    std::fs::remove_file(&dump).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "repro {fig}: stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = RunReport::build(&run.expect("read the dump")).to_json() + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../obs/baselines/{fig}-quick.json"));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if fresh != committed {
        let at = fresh
            .bytes()
            .zip(committed.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let from = at.saturating_sub(40);
        let excerpt = |s: &str| s.get(from..(at + 40).min(s.len())).unwrap_or("").to_owned();
        panic!(
            "{fig}: the run report differs from crates/obs/baselines/{fig}-quick.json \
             from byte {at}:\n  fresh:     ...{}\n  committed: ...{}\n\
             if the change is intended, regenerate it and review the diff:\n  \
             cargo run --release -p ampere-bench --bin repro -- {fig} --quick --telemetry {fig}.jsonl\n  \
             cargo run --release -p ampere-obs --bin report -- --telemetry {fig}.jsonl \
             --json crates/obs/baselines/{fig}-quick.json",
            excerpt(&fresh),
            excerpt(&committed),
        );
    }
}

#[test]
fn fig10_quick_report_matches_the_committed_file() {
    check_report("fig10");
}

#[test]
fn chaos_quick_report_matches_the_committed_file() {
    check_report("chaos");
}
