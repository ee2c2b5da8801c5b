//! The benchmark-dump codec: `encode(decode(text)) == text` byte for
//! byte on the committed `BENCH_*.json` baselines and every fixture
//! dump, and a malformed or inconsistent dump is a schema error
//! (`report` exits 2) rather than a silently wrong section.

use ampere_obs::{BenchDump, HierRun, ProfileRun, ScaleSweep, ScenarioBatch, SlaRun, WatchRun};

use std::path::PathBuf;
use std::process::Command;

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn repo_file(name: &str) -> String {
    read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name),
    )
}

fn fixture(name: &str) -> String {
    read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name),
    )
}

fn round_trip<R: BenchDump>(name: &str, text: &str) {
    let record = R::decode(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(record.encode(), text, "{name} does not round-trip");
    let again = R::decode(&record.encode()).expect("re-decodes");
    assert_eq!(again.gates(), record.gates(), "{name}: gates drifted");
}

#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    round_trip::<ScaleSweep>("BENCH_scale.json", &repo_file("BENCH_scale.json"));
    round_trip::<ScaleSweep>(
        "BENCH_scale_quick.json",
        &repo_file("BENCH_scale_quick.json"),
    );
    round_trip::<SlaRun>("BENCH_sla.json", &repo_file("BENCH_sla.json"));
    round_trip::<ProfileRun>("BENCH_profile.json", &repo_file("BENCH_profile.json"));
    round_trip::<HierRun>("BENCH_hier.json", &repo_file("BENCH_hier.json"));
    round_trip::<ScenarioBatch>("BENCH_scenarios.json", &repo_file("BENCH_scenarios.json"));
}

#[test]
fn fixture_dumps_round_trip_byte_for_byte() {
    round_trip::<ScaleSweep>("scale.jsonl", &fixture("scale.jsonl"));
    round_trip::<SlaRun>("sla.jsonl", &fixture("sla.jsonl"));
    round_trip::<ProfileRun>("profile.jsonl", &fixture("profile.jsonl"));
    round_trip::<HierRun>("hier.jsonl", &fixture("hier.jsonl"));
    round_trip::<WatchRun>("watch.jsonl", &fixture("watch.jsonl"));
    round_trip::<ScenarioBatch>("scenarios_green.jsonl", &fixture("scenarios_green.jsonl"));
    round_trip::<ScenarioBatch>("scenarios_red.jsonl", &fixture("scenarios_red.jsonl"));
}

/// Runs `report --scenarios` on `text`; returns the exit code and stdout.
fn report_scenarios(tag: &str, text: &str) -> (Option<i32>, String) {
    report_dump("--scenarios", tag, text)
}

/// Runs `report <flag>` on `text`; returns the exit code and stdout.
fn report_dump(flag: &str, tag: &str, text: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("dump_codec_{}_{tag}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("write temp dump");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg(flag)
        .arg(&path)
        .output()
        .expect("run report");
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

#[test]
fn malformed_optional_field_is_a_schema_error() {
    let bad =
        fixture("scenarios_red.jsonl").replace("\"shrink_level\":3", "\"shrink_level\":\"eight\"");
    let (code, stdout) = report_scenarios("shrink", &bad);
    assert_eq!(code, Some(2), "stdout:\n{stdout}");
    assert!(stdout.is_empty());
}

#[test]
fn header_pass_count_is_checked_against_the_rows() {
    let lying = fixture("scenarios_green.jsonl").replace("\"passed\":2", "\"passed\":999");
    let (code, stdout) = report_scenarios("passed", &lying);
    assert_eq!(code, Some(2), "stdout:\n{stdout}");
}

#[test]
fn negative_trip_minute_other_than_the_sentinel_is_a_schema_error() {
    let clean = fixture("hier.jsonl");
    let bad = clean.replacen(
        "\"substation_trip_min\":-1",
        "\"substation_trip_min\":-7",
        1,
    );
    assert_ne!(bad, clean);
    let (code, stdout) = report_dump("--hier", "trip_min", &bad);
    assert_eq!(code, Some(2), "stdout:\n{stdout}");
    assert!(stdout.is_empty());
}

#[test]
fn misordered_or_duplicate_cell_indices_are_a_schema_error() {
    let clean = fixture("hier.jsonl");
    for (tag, from, to) in [
        (
            "misordered",
            "{\"cell\":0,\"grant_loss\"",
            "{\"cell\":1,\"grant_loss\"",
        ),
        (
            "duplicate",
            "{\"cell\":1,\"grant_loss\"",
            "{\"cell\":0,\"grant_loss\"",
        ),
    ] {
        let bad = clean.replacen(from, to, 1);
        assert_ne!(bad, clean, "{tag}");
        let (code, stdout) = report_dump("--hier", tag, &bad);
        assert_eq!(code, Some(2), "{tag} stdout:\n{stdout}");
        assert!(stdout.is_empty(), "{tag}");
    }
}
