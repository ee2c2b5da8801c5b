//! Pins what `report` prints and how it exits for every benchmark dump.
//!
//! The fixtures under `tests/fixtures/` are the committed
//! `BENCH_scale.json`, `BENCH_sla.json` and `BENCH_profile.json` as of
//! this test's writing plus the hier, watch and scenario dumps the
//! report modules were unit-tested on; each `*.md` next to them is the
//! exact Markdown `report` rendered for it. Every case runs the real
//! binary, so the section joining, the gate loop and the exit codes
//! (0 pass, 1 gate failure, 2 schema error) are all under test. The
//! corrupted variants break exactly one gate per benchmark.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `report` with `flags`, each followed by the path of a
/// temporary copy of the paired dump text; returns the exit code and
/// stdout.
fn report(dumps: &[(&str, &str)], extra: &[&str]) -> (Option<i32>, String) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut args: Vec<String> = Vec::new();
    let mut files = Vec::new();
    for (flag, text) in dumps {
        let path = std::env::temp_dir().join(format!(
            "bench_reports_{}_{}.jsonl",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, text).expect("write temp dump");
        args.push((*flag).to_string());
        args.push(path.to_str().expect("utf8 temp path").to_string());
        files.push(path);
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(&args)
        .output()
        .expect("run report");
    for f in files {
        std::fs::remove_file(f).ok();
    }
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

/// `(report flag, dump fixture, expected Markdown fixture, exit code)`.
const CASES: [(&str, &str, &str, i32); 7] = [
    ("--scale", "scale.jsonl", "scale.md", 0),
    ("--sla", "sla.jsonl", "sla.md", 0),
    ("--profile", "profile.jsonl", "profile.md", 0),
    ("--hier", "hier.jsonl", "hier.md", 0),
    ("--alerts", "watch.jsonl", "watch.md", 0),
    (
        "--scenarios",
        "scenarios_green.jsonl",
        "scenarios_green.md",
        0,
    ),
    ("--scenarios", "scenarios_red.jsonl", "scenarios_red.md", 1),
];

#[test]
fn every_dump_renders_its_pinned_markdown_and_exit_code() {
    for (flag, dump, md, code) in CASES {
        let (got_code, stdout) = report(&[(flag, &fixture(dump))], &[]);
        assert_eq!(stdout, fixture(md), "{flag} {dump}: Markdown drifted");
        assert_eq!(got_code, Some(code), "{flag} {dump}: exit code drifted");
    }
}

#[test]
fn all_sections_join_in_a_fixed_order() {
    // Flags deliberately out of section order.
    let dumps = [
        ("--sla", fixture("sla.jsonl")),
        ("--hier", fixture("hier.jsonl")),
        ("--alerts", fixture("watch.jsonl")),
        ("--profile", fixture("profile.jsonl")),
        ("--scenarios", fixture("scenarios_green.jsonl")),
        ("--scale", fixture("scale.jsonl")),
    ];
    let dumps: Vec<(&str, &str)> = dumps.iter().map(|(f, t)| (*f, t.as_str())).collect();
    let (code, stdout) = report(&dumps, &[]);
    assert_eq!(stdout, fixture("all.md"));
    assert_eq!(code, Some(0));
}

#[test]
fn max_overhead_gates_profile_and_watch() {
    let watch = fixture("watch.jsonl");
    let profile = fixture("profile.jsonl");
    // The watch fixture measured 3.2% overhead, the profile 0%.
    let (code, _) = report(&[("--alerts", &watch)], &["--max-overhead", "0.01"]);
    assert_eq!(code, Some(1));
    let (code, _) = report(
        &[("--alerts", &watch), ("--profile", &profile)],
        &["--max-overhead", "0.10"],
    );
    assert_eq!(code, Some(0));
    let (code, _) = report(&[("--profile", &profile)], &["--max-overhead", "0.0"]);
    assert_eq!(code, Some(0));
}

/// Replaces the first occurrence of `from` on line `line` (0-based).
fn edit_line(text: &str, line: usize, from: &str, to: &str) -> String {
    let mut out = String::new();
    for (i, l) in text.lines().enumerate() {
        if i == line {
            assert!(l.contains(from), "line {line} lacks {from:?}: {l}");
            out.push_str(&l.replacen(from, to, 1));
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

#[test]
fn corrupted_dumps_fail_their_gate() {
    let scale = fixture("scale.jsonl");
    let checksum = scale
        .lines()
        .nth(2)
        .and_then(|l| l.split("\"checksum\":\"").nth(1))
        .map(|s| s.trim_end_matches("\"}").to_string())
        .expect("second point's checksum");
    let flipped = edit_line(&scale, 2, &checksum, "0123456789abcdef");

    let sla = edit_line(
        &fixture("sla.jsonl"),
        0,
        "\"sla_protected\":true",
        "\"sla_protected\":false",
    );
    let hier = edit_line(
        &fixture("hier.jsonl"),
        3,
        "\"substation_tripped\":false",
        "\"substation_tripped\":true",
    );
    let profile = fixture("profile.jsonl");
    let noop = profile
        .split("\"checksum_instr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("checksum_instr")
        .to_string();
    let profile = edit_line(
        &profile,
        0,
        &format!("\"checksum_instr\":\"{noop}\""),
        "\"checksum_instr\":\"0123456789abcdef\"",
    );
    let watch = edit_line(
        &fixture("watch.jsonl"),
        2,
        "\"pass\":\"chaos\"",
        "\"pass\":\"clean\"",
    );
    let scenarios = edit_line(
        &edit_line(
            &fixture("scenarios_green.jsonl"),
            0,
            "\"passed\":2,\"failed\":0",
            "\"passed\":1,\"failed\":1",
        ),
        2,
        "\"status\":\"pass\"",
        "\"status\":\"fail\"",
    );

    for (flag, text) in [
        ("--scale", flipped),
        ("--sla", sla),
        ("--hier", hier),
        ("--profile", profile),
        ("--alerts", watch),
        ("--scenarios", scenarios),
    ] {
        let (code, stdout) = report(&[(flag, &text)], &[]);
        assert_eq!(code, Some(1), "{flag}: corrupted dump passed:\n{stdout}");
    }
}

#[test]
fn schema_errors_exit_two() {
    let truncated: String = fixture("watch.jsonl")
        .lines()
        .take(3)
        .map(|l| format!("{l}\n"))
        .collect();
    let (code, stdout) = report(&[("--alerts", &truncated)], &[]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "nothing renders on a schema error");
    let (code, _) = report(&[("--scale", "{\"bench\":\"sla\"}\n")], &[]);
    assert_eq!(code, Some(2));
}
