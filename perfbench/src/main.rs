//! Warm, repeated benchmark of the Ampere simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload queue_saturated --seed 42 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the workload runs untraced and repeated: before each
//! repeat the fleet is built several times to time set-up, then the
//! repeat builds, warms up and measures a fixed simulated window, for as
//! many repeats as fit in `--seconds` (at least three). Every repeat's trajectory
//! checksum must equal the others' and the recorded reference. With
//! `--trace 1` the workload runs once untraced and once traced from the
//! outside (see `traced.rs`), and the per-layer metrics are printed.
//! The last line of standard output is one JSON object with the
//! outcome and the metrics.

mod json;
mod traced;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use traced::{Layer, LayerTotals};
use workloads::{Observation, Traced, Workload};

/// Metrics a user of the simulator sees, measured with tracing off:
/// name and unit. `server_ticks_per_s`, `setup_s`, `run_s` and
/// `peak_rss_mb` are host measurements; the rest are simulated results,
/// which repeat exactly for a seed.
pub const END_TO_END: [(&str, &str); 7] = [
    ("server_ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peak_power_frac", "ratio"),
    ("jobs_placed_per_server_hour", "1/h"),
    ("p999_ratio", "ratio"),
];

/// Metrics of single layers, from the traced run. Times are
/// nanoseconds of span per simulated server-tick; counts are totals
/// over the traced window.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("workload.tick_ns", "ns"),
    ("workload.jobs", "count"),
    ("workload.interactive_ms", "ms"),
    ("workload.interactive_requests", "count"),
    ("scheduler.submit_ns", "ns"),
    ("scheduler.dispatch_ns", "ns"),
    ("scheduler.examined", "count"),
    ("scheduler.placed", "count"),
    ("scheduler.place_ratio", "ratio"),
    ("scheduler.queue_len_start", "count"),
    ("scheduler.queue_len", "count"),
    ("scheduler.selector_ns", "ns"),
    ("scheduler.actuate_ns", "ns"),
    ("scheduler.actuations", "count"),
    ("cluster.advance_ns", "ns"),
    ("cluster.sample_ns", "ns"),
    ("cluster.completed", "count"),
    ("power.monitor_ns", "ns"),
    ("power.breaker_ns", "ns"),
    ("core.control_ns", "ns"),
    ("core.frozen_frac", "ratio"),
    ("core.exceed_frac", "ratio"),
    ("telemetry.flush_ns", "ns"),
    ("telemetry.events", "1/tick"),
    ("telemetry.overhead_frac", "ratio"),
    ("par.imbalance", "ratio"),
    ("par.efficiency", "ratio"),
    ("par.wait_ns", "ns"),
    ("experiments.self_ns", "ns"),
    ("trace.tick_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Repeats per untraced run, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 1_000;
/// Fleet constructions timed for `setup_s` before each repeat; the median
/// of all of them is reported. Spreading them over the run, rather than
/// timing them all at its start, lets them see the same host as the
/// repeats.
const SETUP_BUILDS_PER_REPEAT: usize = 10;

const USAGE: &str = "usage: perfbench --workload <queue_saturated|sla_quick> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>, record: &Record) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.unwrap_or_else(|| record.default_seed(workload)),
            seconds,
            trace,
        })
    }
}

/// The recorded reference: default seeds and their trajectory
/// checksums, and the held-out seed for confirming claims.
struct Record(json::Json);

impl Record {
    fn load() -> Record {
        Record(json::parse(include_str!("../record.json")).expect("record.json is valid JSON"))
    }

    fn workload(&self, w: Workload) -> &json::Json {
        self.0
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .expect("record.json lists every workload")
    }

    fn default_seed(&self, w: Workload) -> u64 {
        let seed = self
            .workload(w)
            .get("default_seed")
            .and_then(json::Json::as_f64);
        seed.expect("record.json gives each workload a default seed") as u64
    }

    /// The recorded checksum of the `k`-th input seed of a run of `w`
    /// at `seed` (see [`Workload::input_seed`]), if there is one.
    fn checksum(&self, w: Workload, seed: u64, k: usize) -> Option<u64> {
        let checksums = self.workload(w).get("checksums")?;
        let hex = checksums
            .get(&seed.to_string())?
            .as_array()
            .get(k)?
            .as_str()?;
        u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
    }
}

/// The outcome of one invocation: the JSON object printed last.
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        let table = END_TO_END.iter().chain(&PER_LAYER);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = table
                    .clone()
                    .find(|(n, _)| *n == name)
                    .map(|(_, u)| *u)
                    .expect("every reported metric is defined");
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `f`, turning a panic into a problem report.
fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        format!("{what} panicked: {msg}")
    })
}

/// Checks the checksum of a run of the run's `k`-th input seed against
/// the recorded reference, or when there is none, against `expected`
/// (another run of the same input seed).
fn checksum_problem(
    record: &Record,
    args: &Args,
    k: usize,
    what: &str,
    got: u64,
    expected: u64,
) -> Option<String> {
    let reference = record.checksum(args.workload, args.seed, k);
    let want = reference.unwrap_or(expected);
    (got != want).then(|| {
        format!(
            "{what} checksum {got:#018x} != {} {want:#018x} ({} seed {})",
            if reference.is_some() {
                "recorded"
            } else {
                "repeat"
            },
            args.workload.name(),
            args.workload.input_seed(args.seed, k)
        )
    })
}

fn print_queues(label: &str, start: &[usize], end: &[usize]) {
    let total = |q: &[usize]| q.iter().sum::<usize>();
    let min = |q: &[usize]| q.iter().copied().min().unwrap_or(0);
    println!(
        "{label}: scheduler.queue_len window start {} (min row {}), end {} (min row {})",
        total(start),
        min(start),
        total(end),
        min(end)
    );
}

fn run_untraced(args: &Args, record: &Record) -> Outcome {
    let w = args.workload;
    let mut problems = Vec::new();
    let mut setup = Vec::new();
    let mut builds = 0;
    let mut failed = 0;

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut observations: Vec<(usize, Observation)> = Vec::new();
    let mut attempted = 0;
    let mut longest = Duration::ZERO;
    let min_repeats = MIN_REPEATS.max(w.seeds_per_run());
    // A repeat starts only if it should end within the budget, judged by
    // the longest so far, so a run does not overshoot by a whole repeat.
    while attempted < min_repeats
        || (start.elapsed() + longest <= budget && attempted < MAX_REPEATS)
    {
        let k = attempted % w.seeds_per_run();
        let input = w.input_seed(args.seed, k);
        attempted += 1;
        let repeat_start = Instant::now();
        for _ in 0..SETUP_BUILDS_PER_REPEAT {
            builds += 1;
            match guarded("set-up", || w.setup(args.seed)) {
                Ok(s) => setup.push(s),
                Err(p) => {
                    problems.push(p);
                    failed += 1;
                    break;
                }
            }
        }
        let result = guarded("repeat", || w.repeat(input));
        longest = longest.max(repeat_start.elapsed());
        let obs = match result {
            Ok(obs) => obs,
            Err(p) => {
                problems.push(p);
                failed += 1;
                continue;
            }
        };
        println!(
            "repeat {attempted} (seed {input}): run {:.4} s, {:.0} server-ticks/s, checksum {:#018x}",
            obs.run_s(),
            obs.server_ticks as f64 / obs.window_s,
            obs.checksum
        );
        if observations.is_empty() && !obs.queue_start.is_empty() {
            print_queues(w.name(), &obs.queue_start, &obs.queue_end);
        }
        let first = observations
            .iter()
            .find(|(j, _)| *j == k)
            .map_or(obs.checksum, |(_, o)| o.checksum);
        let before = problems.len();
        problems.extend(checksum_problem(
            record,
            args,
            k,
            &format!("repeat {attempted}"),
            obs.checksum,
            first,
        ));
        problems.extend(obs.problems.iter().cloned());
        failed += usize::from(problems.len() > before);
        observations.push((k, obs));
    }

    let column = |f: fn(&Observation) -> f64| {
        median(&mut observations.iter().map(|(_, o)| f(o)).collect::<Vec<_>>())
    };
    let (server_ticks_per_s, run_s) = typical_times(&observations, w.seeds_per_run());
    let metrics = vec![
        ("server_ticks_per_s", server_ticks_per_s),
        ("setup_s", median(&mut setup)),
        ("run_s", run_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("peak_power_frac", column(|o| o.peak_power_frac)),
        (
            "jobs_placed_per_server_hour",
            column(|o| o.jobs_placed_per_server_hour),
        ),
        ("p999_ratio", column(|o| o.p999_ratio)),
    ];
    Outcome {
        attempted: attempted + builds,
        failed,
        problems,
        metrics,
    }
}

/// Throughput and time to a result from the median repeat of each input
/// seed. On a shared host, other tenants' cache and memory load shifts
/// the speed of identical work by up to 2x over seconds to minutes, and
/// an undisturbed repeat comes only now and then; the fastest repeat
/// (or the fastest of each slice of one) therefore depends on whether a
/// run happened to catch such a moment, while the median does not.
/// Throughput is the seeds' window server-ticks over their summed median
/// windows; `run_s` is the mean over seeds of the median repeat's wall.
fn typical_times(observations: &[(usize, Observation)], seeds: usize) -> (f64, f64) {
    let (mut server_ticks, mut window_s, mut run_s, mut covered) = (0u64, 0.0, 0.0, 0);
    for k in 0..seeds {
        let runs: Vec<&Observation> = observations
            .iter()
            .filter(|(j, _)| *j == k)
            .map(|(_, o)| o)
            .collect();
        let Some(first) = runs.first() else {
            continue;
        };
        let typical =
            |f: fn(&Observation) -> f64| median(&mut runs.iter().map(|&o| f(o)).collect::<Vec<_>>());
        covered += 1;
        server_ticks += first.server_ticks;
        window_s += typical(|o| o.window_s);
        run_s += typical(Observation::run_s);
    }
    (server_ticks as f64 / window_s, run_s / covered as f64)
}

/// Per-layer metrics of a traced run.
fn layer_metrics(t: &Traced) -> Vec<(&'static str, f64)> {
    let tot: &LayerTotals = &t.totals;
    let per_st = |ns: u64| ns as f64 / tot.server_ticks.max(1) as f64;
    let span = |layer| per_st(tot.span(layer));
    let busy = tot.tick_ns as f64;
    let worker_wall = t.workers as f64 * t.stepping_ns as f64;
    vec![
        ("workload.tick_ns", span(Layer::Workload)),
        ("workload.jobs", tot.jobs as f64),
        ("workload.interactive_ms", t.interactive_ns as f64 * 1e-6),
        (
            "workload.interactive_requests",
            t.interactive_requests as f64,
        ),
        ("scheduler.submit_ns", span(Layer::Submit)),
        ("scheduler.dispatch_ns", span(Layer::Dispatch)),
        ("scheduler.examined", tot.examined as f64),
        ("scheduler.placed", tot.placed as f64),
        (
            "scheduler.place_ratio",
            tot.placed as f64 / tot.examined.max(1) as f64,
        ),
        ("scheduler.queue_len_start", t.queue_start as f64),
        ("scheduler.queue_len", t.queue_end as f64),
        ("scheduler.selector_ns", span(Layer::Selector)),
        ("scheduler.actuate_ns", span(Layer::Actuate)),
        ("scheduler.actuations", tot.actuations as f64),
        ("cluster.advance_ns", span(Layer::Advance)),
        ("cluster.sample_ns", span(Layer::Sample)),
        ("cluster.completed", tot.completed as f64),
        ("power.monitor_ns", span(Layer::Monitor)),
        ("power.breaker_ns", span(Layer::Breaker)),
        ("core.control_ns", span(Layer::Control)),
        (
            "core.frozen_frac",
            tot.frozen as f64 / tot.controlled_server_ticks.max(1) as f64,
        ),
        (
            "core.exceed_frac",
            tot.over_budget as f64 / tot.controlled_ticks.max(1) as f64,
        ),
        ("telemetry.flush_ns", span(Layer::Flush)),
        ("telemetry.events", t.telemetry_events_per_tick),
        ("telemetry.overhead_frac", t.telemetry_overhead_frac),
        ("par.imbalance", t.imbalance),
        ("par.efficiency", busy / worker_wall),
        (
            "par.wait_ns",
            (worker_wall - busy).max(0.0) / tot.server_ticks.max(1) as f64,
        ),
        (
            "experiments.self_ns",
            per_st(tot.tick_ns.saturating_sub(tot.spans_total())),
        ),
        ("trace.tick_ns", per_st(tot.tick_ns)),
        (
            "trace.overhead_frac",
            t.traced_wall_s / t.untraced_wall_s - 1.0,
        ),
    ]
}

fn run_traced(args: &Args, record: &Record) -> Outcome {
    let w = args.workload;
    let t = match guarded("traced run", || w.traced(args.seed)) {
        Ok(t) => t,
        Err(p) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                problems: vec![p],
                metrics: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
            }
        }
    };
    println!(
        "{}: scheduler.queue_len window start {}, end {} (traced, fleet total)",
        w.name(),
        t.queue_start,
        t.queue_end
    );
    let mut problems = t.problems.clone();
    problems.extend(checksum_problem(
        record,
        args,
        0,
        "untraced",
        t.untraced_checksum,
        t.checksum,
    ));
    problems.extend(checksum_problem(
        record,
        args,
        0,
        "traced",
        t.checksum,
        t.untraced_checksum,
    ));
    let metrics = layer_metrics(&t);
    let tick_ns = t.totals.tick_ns.max(1) as f64;
    for layer in Layer::ALL {
        println!(
            "  {:<9} {:>6.2}% of traced tick wall",
            format!("{layer:?}"),
            100.0 * t.totals.span(layer) as f64 / tick_ns
        );
    }
    println!(
        "  {:<9} {:>6.2}% of traced tick wall",
        "self",
        100.0 * t.totals.tick_ns.saturating_sub(t.totals.spans_total()) as f64 / tick_ns
    );
    Outcome {
        attempted: 1,
        failed: usize::from(!problems.is_empty()),
        problems,
        metrics,
    }
}

fn main() -> ExitCode {
    let record = Record::load();
    let args = match Args::parse(std::env::args().skip(1), &record) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} ({} available cores)",
        args.workload.name(),
        args.seed,
        ampere_par::available_workers()
    );
    let outcome = if args.trace {
        run_traced(&args, &record)
    } else {
        run_untraced(&args, &record)
    };
    for p in &outcome.problems {
        println!("FAILED: {p}");
        eprintln!("FAILED: {p}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_experiments::sla::{self, SlaConfig};
    use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
    use ampere_sim::SimDuration;
    use ampere_telemetry::Telemetry;
    use ampere_workload::{InteractiveSim, RateProfile};

    fn untraced_checksum(config: ShardedTestbedConfig, ticks: u64) -> u64 {
        let mut sh = ShardedTestbed::new(config);
        sh.run_for(SimDuration::from_mins(ticks));
        sh.finish();
        sh.checksum()
    }

    #[test]
    fn traced_run_matches_untraced_on_saturated_rows() {
        let config = || ShardedTestbedConfig::quick(3, 1, 5);
        let traced = workloads::trace_sharded(config(), 20, 10);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.checksum, untraced_checksum(config(), 30));
        assert_eq!(traced.totals.ticks, 30);
    }

    #[test]
    fn traced_run_matches_untraced_on_heavy_paper_rows() {
        let config = || ShardedTestbedConfig {
            profile: RateProfile::heavy_row(),
            ..ShardedTestbedConfig::hyper(2, 2, 7)
        };
        let traced = workloads::trace_sharded(config(), 15, 10);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.checksum, untraced_checksum(config(), 25));
        assert!(traced.totals.placed > 0);
    }

    #[test]
    fn traced_run_matches_untraced_on_sla_rows() {
        let config = SlaConfig {
            rows: 2,
            hours: 1,
            warmup_mins: 20,
            sim: InteractiveSim {
                run_secs: 2.0,
                ..InteractiveSim::default()
            },
            ..SlaConfig::quick(2)
        };
        let untraced = sla::run(&config);
        // An enabled parent pipeline exercises the per-shard captures
        // without installing anything process-wide.
        let parent = Telemetry::builder().batched(true).build();
        let (traced, p999_ratio) = workloads::trace_sla(&config, &parent);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.checksum, workloads::sla_checksum(&untraced));
        let selective = untraced.arm("selective").expect("selective arm");
        assert_eq!(p999_ratio, selective.p999_ratio);
        assert!(traced.totals.span(Layer::Selector) > 0);
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn metric_names_and_counts_fit_the_output_contract() {
        let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for w in workloads::WORKLOADS {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn output_parses_back() {
        let outcome = Outcome {
            attempted: 7,
            failed: 1,
            problems: vec!["repeat 2 checksum differs".to_string()],
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, &(name, _))| (name, 0.1 + i as f64 * 12_345.678_9))
                .collect(),
        };
        let parsed = json::parse(&outcome.to_json()).expect("output is JSON");
        let keys: Vec<&str> = parsed.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(false)));
        assert_eq!(
            parsed.get("attempted").and_then(json::Json::as_f64),
            Some(7.0)
        );
        assert_eq!(parsed.get("failed").and_then(json::Json::as_f64), Some(1.0));
        let metrics = parsed.get("metrics").expect("metrics");
        for &(name, value) in &outcome.metrics {
            let m = metrics.get(name).expect("every metric is printed");
            assert_eq!(m.get("value").and_then(json::Json::as_f64), Some(value));
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
            assert_eq!(m.get("unit").and_then(json::Json::as_str), unit);
        }
    }

    /// The names, units and workloads `BENCHMARK.json` declares are the
    /// ones this program prints and accepts.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            let list = bench.get(key).expect("metric list").as_array();
            list.iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(json::Json::as_str).expect("field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str))
            .collect();
        let ours: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn record_covers_every_workload_and_prediction() {
        let record = Record::load();
        let held_out = record.0.get("held_out_seed").and_then(json::Json::as_f64);
        let held_out = held_out.expect("a held-out seed") as u64;
        for w in workloads::WORKLOADS {
            let seed = record.default_seed(w);
            for k in 0..w.seeds_per_run() {
                assert!(
                    record.checksum(w, seed, k).is_some(),
                    "{} default seed",
                    w.name()
                );
            }
            assert_ne!(seed, held_out);
            assert!(record.checksum(w, held_out, 0).is_none());
        }
        let known = |name: &str, table: &[(&str, &str)]| table.iter().any(|(n, _)| *n == name);
        let predictions = record.0.get("predictions").expect("predictions").as_array();
        assert!(!predictions.is_empty());
        for p in predictions {
            let list = |key| p.get(key).map_or(&[][..], json::Json::as_array);
            for layer in list("layer") {
                let layer = layer.as_str().expect("layer name");
                assert!(known(layer, &PER_LAYER), "unknown layer metric {layer}");
            }
            for metric in list("moves") {
                let metric = metric.as_str().expect("metric name");
                assert!(known(metric, &END_TO_END), "unknown metric {metric}");
            }
            for w in list("on").iter().chain(list("unmoved_on")) {
                let w = w.as_str().expect("workload name");
                assert!(Workload::parse(w).is_some(), "unknown workload {w}");
            }
        }
    }
}
