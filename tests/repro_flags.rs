//! `repro`'s valued flags: a flag given without its value, or with one
//! that does not parse, must stop the run with exit code 2 and a
//! message naming the flag, before any file is written. So must a run
//! without a required flag: a benchmark's `--<bench>-out FILE` or
//! `scenario`'s `--seed S`.

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
