//! `report` — analyze a telemetry dump and the benchmark dumps.
//!
//! ```text
//! report [--telemetry FILE] [--scale FILE] [--scenarios FILE] [--profile FILE]
//!        [--alerts FILE] [--hier FILE] [--sla FILE] [--max-overhead F]
//!        [--md FILE] [--json FILE]
//! ```
//!
//! Reads the dump produced by `repro … --telemetry FILE`, prints the
//! Markdown report to stdout (or `--md FILE`), and optionally:
//!
//! - `--scale`, `--scenarios`, `--profile`, `--alerts`, `--hier` and
//!   `--sla FILE` each decode the dump the matching `repro` benchmark
//!   wrote (`BENCH_<bench>.json`), append its Markdown section (fixed
//!   order, whatever the flag order) and fail the run on any of its
//!   gates — the same gate list `repro` exits on (see
//!   `ampere_obs::dump`). They work with or without `--telemetry`;
//! - `--max-overhead F` (fraction, e.g. `0.10`) additionally gates the
//!   wall-clock-dependent observability overhead of the `--profile`
//!   and `--alerts` runs;
//! - `--json FILE` writes the machine-readable report. The committed
//!   `crates/obs/baselines/{fig10,chaos}-quick.json` are this output for
//!   `repro fig10|chaos --quick --telemetry FILE`; a tier-1 test
//!   (`tests/run_reports.rs`) requires a fresh run to match them exactly.
//!
//! Exit codes: 0 success, 1 failed gate, 2 usage or schema error.

use ampere_obs::reader::read_run;
use ampere_obs::{
    gates_pass, BenchDump, Gate, HierRun, ProfileRun, RunReport, ScaleSweep, ScenarioBatch, SlaRun,
    WatchRun,
};

use std::process::ExitCode;

type Decoder = fn(&str) -> Result<Box<dyn BenchDump>, String>;

fn decode<R: BenchDump + 'static>(text: &str) -> Result<Box<dyn BenchDump>, String> {
    Ok(Box::new(R::decode(text)?))
}

/// The benchmark-dump flags, in the order their sections render.
const DUMPS: [(&str, Decoder); 6] = [
    ("--scale", decode::<ScaleSweep>),
    ("--scenarios", decode::<ScenarioBatch>),
    ("--profile", decode::<ProfileRun>),
    ("--alerts", decode::<WatchRun>),
    ("--hier", decode::<HierRun>),
    ("--sla", decode::<SlaRun>),
];

struct Args {
    telemetry: Option<String>,
    /// One optional path per [`DUMPS`] entry.
    dumps: [Option<String>; 6],
    max_overhead: Option<f64>,
    md: Option<String>,
    json: Option<String>,
}

const USAGE: &str = "usage: report [--telemetry FILE] [--scale FILE] [--scenarios FILE] \
                     [--profile FILE] [--alerts FILE] [--hier FILE] [--sla FILE] \
                     [--max-overhead F] [--md FILE] [--json FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut telemetry = None;
    let mut dumps: [Option<String>; 6] = Default::default();
    let mut max_overhead = None;
    let mut md = None;
    let mut json = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        if let Some(i) = DUMPS.iter().position(|(flag, _)| flag == arg) {
            dumps[i] = Some(value(arg)?);
            continue;
        }
        match arg.as_str() {
            "--telemetry" => telemetry = Some(value("--telemetry")?),
            "--max-overhead" => {
                let raw = value("--max-overhead")?;
                max_overhead = Some(
                    raw.parse::<f64>()
                        .map_err(|_| format!("--max-overhead needs a number, got {raw:?}"))?,
                )
            }
            "--md" => md = Some(value("--md")?),
            "--json" => json = Some(value("--json")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let given = |flag: &str| {
        DUMPS
            .iter()
            .zip(&dumps)
            .any(|((f, _), path)| *f == flag && path.is_some())
    };
    if !given("--profile") && !given("--alerts") && max_overhead.is_some() {
        return Err(format!(
            "--max-overhead needs --profile or --alerts FILE\n{USAGE}"
        ));
    }
    if telemetry.is_none() && dumps.iter().all(Option::is_none) {
        return Err(format!(
            "--telemetry, --scale, --scenarios, --profile, --alerts, --hier or --sla FILE is \
             required\n{USAGE}"
        ));
    }
    if telemetry.is_none() && json.is_some() {
        return Err(format!("--json needs --telemetry FILE\n{USAGE}"));
    }
    Ok(Args {
        telemetry,
        dumps,
        max_overhead,
        md,
        json,
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let report = match &args.telemetry {
        Some(path) => {
            let run = read_run(path).map_err(|e| format!("{path}: {e}"))?;
            Some(RunReport::build(&run))
        }
        None => None,
    };
    let mut dumps = Vec::new();
    for ((flag, decode), path) in DUMPS.iter().zip(&args.dumps) {
        if let Some(path) = path {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let dump = decode(&text).map_err(|e| format!("{path}: {e}"))?;
            dumps.push((flag.trim_start_matches("--"), dump));
        }
    }

    let mut markdown = report
        .as_ref()
        .map(RunReport::to_markdown)
        .unwrap_or_default();
    for (_, dump) in &dumps {
        if !markdown.is_empty() && !markdown.ends_with("\n\n") {
            markdown.push('\n');
        }
        markdown.push_str(&dump.to_markdown());
    }
    match &args.md {
        Some(path) => {
            std::fs::write(path, &markdown).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{markdown}"),
    }
    if let (Some(path), Some(report)) = (&args.json, &report) {
        let mut json = report.to_json();
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    for (label, dump) in &dumps {
        let mut gates = dump.gates();
        if let (Some(max), Some(fraction)) = (args.max_overhead, dump.overhead_fraction()) {
            gates.push(Gate::max_overhead(fraction, max));
        }
        failed |= !gates_pass(label, &gates);
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("report: {msg}");
            ExitCode::from(2)
        }
    }
}
