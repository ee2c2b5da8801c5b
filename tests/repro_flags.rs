//! `repro`'s valued flags: a flag given without its value, or with one
//! that does not parse, must stop the run with exit code 2 and a
//! message naming the flag, before any file is written. So must a run
//! without a required flag: a benchmark's `--<bench>-out FILE` or
//! `scenario`'s `--seed S`, and so must an unknown selection or a flag
//! the selected command does not read. A flag's value is never taken
//! for the selection.

use std::path::Path;
use std::process::Command;

/// Runs `repro` with `args` in a fresh directory, so a dump written to
/// a relative `BENCH_<bench>.json` would land there; returns the exit
/// code, stderr and every file the run left behind.
fn run_in_empty_dir(case: &str, args: &[&str]) -> (Option<i32>, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("repro_flags_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro");
    let files = files_in(&dir);
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        files,
    )
}

fn files_in(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn unparseable_flag_value_exits_2_without_a_dump() {
    for (case, flag, value) in [("workers", "--workers", "abc"), ("seed", "--seed", "x")] {
        let (code, stderr, files) = run_in_empty_dir(case, &["sla", "--quick", flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: stderr:\n{stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "message must name {flag} and {value:?}: {stderr}"
        );
        assert!(files.is_empty(), "{flag} {value} wrote {files:?}");
    }
}

#[test]
fn missing_flag_value_exits_2_without_a_dump() {
    for (case, flag, args) in [
        (
            "out_last",
            "--sla-out",
            &["sla", "--quick", "--sla-out"][..],
        ),
        (
            "out_then_flag",
            "--sla-out",
            &["sla", "--sla-out", "--quick"][..],
        ),
        (
            "workers_last",
            "--workers",
            &["sla", "--quick", "--workers"][..],
        ),
    ] {
        let (code, stderr, files) = run_in_empty_dir(case, args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(flag), "message must name {flag}: {stderr}");
        assert!(files.is_empty(), "{args:?} wrote {files:?}");
    }
}

#[test]
fn missing_required_flag_exits_2_without_a_file() {
    for (case, flag, args) in [
        ("no_out", "--sla-out", &["sla", "--quick"][..]),
        (
            "no_out_telemetry",
            "--sla-out",
            &["sla", "--quick", "--telemetry", "tel.jsonl"][..],
        ),
        ("no_seed", "--seed", &["scenario"][..]),
    ] {
        let (code, stderr, files) = run_in_empty_dir(case, args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(flag), "message must name {flag}: {stderr}");
        assert!(files.is_empty(), "{args:?} wrote {files:?}");
    }
}

#[test]
fn bench_runs_keep_the_telemetry_file() {
    // The benchmarks run their passes in their own pipelines' scopes, so
    // the `--telemetry` pipeline survives them and gets its snapshot.
    for (bench, out_flag) in [("profile", "--profile-out"), ("watch", "--watch-out")] {
        let dir = std::env::temp_dir().join(format!(
            "repro_flags_{}_{bench}_telemetry",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([bench, "--quick", out_flag, "dump.json"])
            .args(["--telemetry", "tel.jsonl"])
            .current_dir(&dir)
            .output()
            .expect("run repro");
        let tel = std::fs::read_to_string(dir.join("tel.jsonl")).expect("telemetry file");
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert_eq!(out.status.code(), Some(0), "{bench}: stderr:\n{stderr}");
        assert!(
            stderr.contains("telemetry written to"),
            "{bench}: no telemetry line on stderr:\n{stderr}"
        );
        let last = tel.lines().last();
        assert!(
            last.is_some_and(|l| l.starts_with("{\"metric\":")),
            "{bench}: telemetry file must end with the metrics snapshot: {tel:?}"
        );
    }
}

#[test]
fn flag_the_command_does_not_read_exits_2_without_a_file() {
    for (case, flag, args) in [
        (
            "sla_count",
            "--count",
            &["sla", "--quick", "--count", "3", "--sla-out", "x.json"][..],
        ),
        (
            "fig6_seed",
            "--seed",
            &["fig6", "--quick", "--seed", "5"][..],
        ),
    ] {
        let (code, stderr, files) = run_in_empty_dir(case, args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(flag), "message must name {flag}: {stderr}");
        assert!(files.is_empty(), "{args:?} wrote {files:?}");
    }
}

#[test]
fn unknown_selection_exits_2_without_a_file() {
    for what in ["fig3", "table9", "figs"] {
        let (code, stderr, files) = run_in_empty_dir(what, &[what, "--quick"]);
        assert_eq!(code, Some(2), "{what}: stderr:\n{stderr}");
        assert!(stderr.contains(what), "message must name {what}: {stderr}");
        assert!(files.is_empty(), "{what} wrote {files:?}");
    }
}

#[test]
fn a_flag_value_is_never_the_selection() {
    // `figs` is `--csv`'s directory; `fig6` is what runs.
    let dir = std::env::temp_dir().join(format!("repro_flags_{}_csv_value", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--csv", "figs", "fig6", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("run repro");
    let series = files_in(&dir.join("figs"));
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("Fig 6"), "fig6 did not run:\n{stdout}");
    assert!(!series.is_empty(), "fig6 wrote no CSV series under figs/");
}
