//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [all|fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table2|table3|ablations|chaos]
//!       [--quick] [--csv DIR] [--telemetry FILE] [--workers N]
//! repro scale --scale-out FILE [--quick] [--hyper] [--workers N]
//! repro profile --profile-out FILE [--quick] [--sample-period N] [--workers N]
//! repro watch --watch-out FILE [--quick] [--workers N]
//! repro hier|sla --<bench>-out FILE [--quick] [--seed S] [--workers N]
//! repro scenarios --scenarios-out FILE --count N --seed S [--workers W]
//! repro scenario --seed S [--shrink-level K] [--workers W]
//! ```
//!
//! `--quick` shrinks run lengths (used by CI); without it each
//! experiment runs at paper scale. Output is plain text: `# name`
//! series blocks and markdown tables, recorded in `EXPERIMENTS.md`.
//!
//! `--workers N` sets the default worker-pool width. Selected
//! experiments *compute* concurrently — each on its own captured
//! telemetry pipeline and its own derived RNG streams — then *print*
//! serially in the fixed figure order, so stdout, the telemetry JSONL
//! and every number are byte-identical at any worker count (see
//! DESIGN.md §9). The chaos grid, the ablation groups, Table 3's cases
//! and Fig 10's two workloads additionally fan out internally.
//!
//! `repro scale|profile|watch|hier|sla` each run one benchmark instead
//! of a figure (see the matching `ampere_bench` module, or the
//! `ampere_experiments` one for `hier` and `sla`, whose results build
//! their own records): they print the benchmark's report section, write
//! its record as JSONL to the required `--<bench>-out FILE` (render with
//! `report --<bench> FILE`, `--alerts` for watch) and exit non-zero if
//! any gate of the record failed — the same gate list `report` applies
//! (`ampere_obs::dump`). Without `--<bench>-out` they exit 2 before
//! running: there is no default path, so no run can overwrite a
//! committed `BENCH_<bench>.json` by accident. To regenerate one, name
//! it, e.g. `repro sla --quick --sla-out BENCH_sla.json`.
//!
//! - `scale` sweeps rows × workers on the parallel engine; `--hyper`
//!   switches to full 440-server rows up to 2273 shards (1,000,120
//!   servers), and with `--quick` to one 64-row point. Setting
//!   `AMPERE_SCALE_TICKS_PER_SERVER_FLOOR` adds a per-server
//!   throughput gate (server-ticks/sec).
//! - `profile` runs one seeded workload with telemetry off and fully
//!   instrumented and reports the self-overhead and per-phase wall
//!   time; `--sample-period N` sets the 1-in-N event sampler period.
//! - `watch` runs a clean and a chaos pass bare and with the
//!   `ampere-watch` tap attached: alert stream, incidents, rollups.
//! - `hier` runs the grant-loss × arbiter-outage × row-fault grid of
//!   the two-level budget arbiter (`--seed S` overrides the seed).
//! - `sla` compares uncontrolled, uniform and class-aware selective
//!   freezing on a mixed interactive/batch fleet by client-side p99.9
//!   (`--seed S` overrides the seed).
//!
//! `--telemetry FILE` installs the global telemetry pipeline before any
//! testbed is built: every structured event (controller ticks, freezes,
//! breaker trips, …) streams to `FILE` as JSONL — batched per tick and
//! flushed through the capture fan-in, so ordering and bytes are
//! unchanged from unbatched emission — and a final metrics snapshot is
//! appended when the run completes.
//!
//! `repro scenarios` runs a seeded batch of randomized simulation
//! scenarios through the invariant registry (see `ampere-scenario`),
//! shrinks every failure to a minimal reproduction, prints a
//! copy-paste-runnable `repro:` command per failure, writes the batch
//! as JSONL to the required `--scenarios-out FILE` (render with
//! `ampere-obs report --scenarios FILE`) and exits non-zero if any
//! invariant was violated. `repro scenario` replays one scenario —
//! optionally at a shrink level a failure printed — and reports a
//! per-invariant verdict. Both honor
//! the `AMPERE_SCENARIO_BUG` environment variable so a repro command
//! can re-arm the planted bug that produced the failure.

use ampere_bench::{f3, pct, Output};
use ampere_experiments as exp;
use ampere_obs::BenchDump;

use std::time::Instant;

/// Deferred printing half of one experiment: everything the compute
/// phase produced, replayed onto stdout/CSV in serial figure order.
type Printer = Box<dyn FnOnce(&Output) + Send>;

/// A fully parsed command, ready to run. Building one reads every flag
/// and creates no file, so a bad command line exits 2 having written
/// nothing.
type Run = Box<dyn FnOnce()>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<std::path::PathBuf> = flag(&args, "--csv");
    let telemetry_path: Option<std::path::PathBuf> = flag(&args, "--telemetry");
    if let Some(n) = flag(&args, "--workers") {
        ampere_par::set_default_workers(n);
    }
    let what = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .find(|a| {
            a.starts_with("fig")
                || a.starts_with("table")
                || *a == "all"
                || *a == "ablations"
                || *a == "chaos"
                || *a == "scale"
                || *a == "profile"
                || *a == "watch"
                || *a == "hier"
                || *a == "sla"
                || *a == "scenario"
                || *a == "scenarios"
        })
        .unwrap_or("all");

    let run: Run = match what {
        "scale" => scale(quick, &args),
        "profile" => profile(quick, &args),
        "watch" => watch(quick, &args),
        "hier" => hier(quick, &args),
        "sla" => sla(quick, &args),
        "scenarios" => scenarios(&args),
        "scenario" => scenario(&args),
        _ => figures(what, quick, csv_dir),
    };
    // Install before building any testbed: components capture the
    // global handle at construction time.
    if let Some(path) = &telemetry_path {
        let sink = ampere_telemetry::JsonlSink::create(path).expect("create telemetry file");
        // Batched emission: events buffer per task and flush per tick
        // through the capture fan-in; order (and bytes) match the
        // unbatched path.
        ampere_telemetry::install_global(
            ampere_telemetry::Telemetry::builder()
                .sink(sink)
                .batched(true)
                .build(),
        );
    }
    run();

    if let Some(path) = &telemetry_path {
        let tel = ampere_telemetry::global();
        tel.flush();
        if let Some(snapshot) = tel.snapshot() {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .expect("reopen telemetry file");
            f.write_all(snapshot.to_jsonl().as_bytes())
                .expect("append metrics snapshot");
            eprintln!("\n{}", snapshot.render_table());
            eprintln!("telemetry written to {}", path.display());
        }
    }
}

/// The figures and tables `what` selects (`all` for every one),
/// computed on the worker pool and printed in figure order, with CSV
/// series under `csv_dir` when given.
fn figures(what: &str, quick: bool, csv_dir: Option<std::path::PathBuf>) -> Run {
    let what = what.to_owned();
    Box::new(move || {
        let out = Output::new(csv_dir).expect("create csv directory");
        let all = what == "all";
        // Compute phase: every selected experiment becomes one task on
        // the worker pool, returning its printer. Telemetry is captured
        // per task and replayed in this (serial) order.
        let mut jobs: Vec<ampere_par::Task<'static, Printer>> = Vec::new();
        if all || what == "fig1" {
            jobs.push(Box::new(move || fig1(quick)));
        }
        if all || what == "fig2" {
            jobs.push(Box::new(move || fig2(quick)));
        }
        if all || what == "fig4" {
            jobs.push(Box::new(move || fig4(quick)));
        }
        if all || what == "fig5" {
            jobs.push(Box::new(move || fig5(quick)));
        }
        if all || what == "fig6" {
            jobs.push(Box::new(move || fig6()));
        }
        if all || what == "fig7" {
            jobs.push(Box::new(move || fig7(quick)));
        }
        if all || what == "fig8" {
            jobs.push(Box::new(move || fig8(quick)));
        }
        if all || what == "fig9" {
            jobs.push(Box::new(move || fig9(quick)));
        }
        if all || what == "fig10" || what == "table2" {
            jobs.push(Box::new(move || fig10_table2(quick)));
        }
        if all || what == "fig11" {
            jobs.push(Box::new(move || fig11(quick)));
        }
        if all || what == "fig12" {
            jobs.push(Box::new(move || fig12(quick)));
        }
        if all || what == "table3" {
            jobs.push(Box::new(move || table3(quick)));
        }
        if all || what == "ablations" {
            jobs.push(Box::new(move || ablations(quick)));
        }
        if all || what == "chaos" {
            jobs.push(Box::new(move || chaos(quick)));
        }
        let pool = ampere_par::WorkerPool::with_default_workers();
        // Print phase: serial, in figure order, regardless of which
        // worker finished first.
        for printer in ampere_par::run_captured(&pool, jobs) {
            printer(&out);
        }
    })
}

fn scale(quick: bool, args: &[String]) -> Run {
    let max_workers = flag(args, "--workers").unwrap_or_else(ampere_par::available_workers);
    let hyper = args.iter().any(|a| a == "--hyper");
    let config = match (hyper, quick) {
        (true, true) => ampere_bench::scale::ScaleConfig::hyper_quick(max_workers),
        (true, false) => ampere_bench::scale::ScaleConfig::hyper(max_workers),
        (false, true) => ampere_bench::scale::ScaleConfig::quick(max_workers),
        (false, false) => ampere_bench::scale::ScaleConfig::paper(max_workers),
    };
    let out = dump_path(args, "--scale-out");
    Box::new(move || {
        println!("=== Scale: rows x workers — parallel engine throughput ===\n");
        let r = ampere_bench::scale::run(&config);
        publish("scale", &r, &out);
    })
}

fn profile(quick: bool, args: &[String]) -> Run {
    let workers = flag(args, "--workers").unwrap_or_else(ampere_par::available_workers);
    let mut config = if quick {
        ampere_bench::profile::ProfileConfig::quick(workers)
    } else {
        ampere_bench::profile::ProfileConfig::paper(workers)
    };
    if let Some(period) = flag(args, "--sample-period") {
        config.sample_period = period;
    }
    let out = dump_path(args, "--profile-out");
    Box::new(move || {
        println!("=== Profile: telemetry self-overhead and tick-phase breakdown ===\n");
        let r = ampere_bench::profile::run(&config);
        publish("profile", &r, &out);
    })
}

fn watch(quick: bool, args: &[String]) -> Run {
    let workers = flag(args, "--workers").unwrap_or_else(ampere_par::available_workers);
    let config = if quick {
        ampere_bench::watch::WatchBenchConfig::quick(workers)
    } else {
        ampere_bench::watch::WatchBenchConfig::paper(workers)
    };
    let out = dump_path(args, "--watch-out");
    Box::new(move || {
        println!("=== Watch: streaming rollups, gauges and deterministic alerting ===\n");
        let r = ampere_bench::watch::run(config);
        publish("watch", &r, &out);
    })
}

fn hier(quick: bool, args: &[String]) -> Run {
    use exp::hier::HierConfig;
    let mut config = HierConfig {
        workers: flag(args, "--workers").unwrap_or(1),
        ..if quick {
            HierConfig::quick()
        } else {
            HierConfig::paper()
        }
    };
    if let Some(seed) = flag(args, "--seed") {
        config.seed = seed;
    }
    let out = dump_path(args, "--hier-out");
    Box::new(move || {
        println!("=== Hier: multi-row control under a fault-tolerant budget arbiter ===\n");
        let t0 = Instant::now();
        let r = exp::hier::run(&config);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        publish("hier", &r.record(&config, wall_ms), &out);
    })
}

fn sla(quick: bool, args: &[String]) -> Run {
    use exp::sla::SlaConfig;
    let workers = flag(args, "--workers").unwrap_or(1);
    let mut config = if quick {
        SlaConfig::quick(workers)
    } else {
        SlaConfig::paper(workers)
    };
    if let Some(seed) = flag(args, "--seed") {
        config.seed = seed;
    }
    let out = dump_path(args, "--sla-out");
    Box::new(move || {
        println!("=== SLA: uniform vs selective freezing on a mixed interactive/batch fleet ===\n");
        let t0 = Instant::now();
        let r = exp::sla::run(&config);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        publish("sla", &r.record(&config, wall_ms), &out);
    })
}

/// The benchmark dump path given by `out_flag`. The flag is required:
/// without it the run exits 2 before it starts and writes nothing.
/// Resolve it after the benchmark's other flags, so a bad value among
/// those is reported first.
fn dump_path(args: &[String], out_flag: &str) -> String {
    flag(args, out_flag).unwrap_or_else(|| usage_error(&format!("{out_flag} FILE is required")))
}

/// Prints a benchmark's report section, writes its dump to `path` and
/// exits 1 if any of its gates failed.
fn publish(bench: &str, record: &dyn BenchDump, path: &str) {
    print!("{}", record.to_markdown());
    if !write_dump(bench, record, path) {
        std::process::exit(1);
    }
}

/// Writes a benchmark's dump and reports whether all its gates passed
/// (failures are printed to stderr).
fn write_dump(bench: &str, record: &dyn BenchDump, path: &str) -> bool {
    std::fs::write(path, record.encode()).expect("write benchmark dump");
    eprintln!("{bench} dump written to {path}");
    ampere_obs::gates_pass(bench, &record.gates())
}

/// Parses `--name value` anywhere in the argument list: `None` when
/// the flag is absent. A flag with no value (the end of the line or
/// another `--flag` follows it) or with one that does not parse exits 2.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let Some(value) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
        usage_error(&format!("{name} needs a value"));
    };
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(&format!("{name}: cannot parse {value:?}")),
    }
}

/// Reports a bad command line on stderr and exits 2, before anything
/// runs or is written.
fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}");
    std::process::exit(2);
}

/// This binary's own invocation path, quoted into repro commands so
/// they run from any working directory.
fn argv0() -> String {
    std::env::args().next().unwrap_or_else(|| "repro".into())
}

fn scenarios(args: &[String]) -> Run {
    use ampere_scenario as sc;
    let seed: u64 = flag(args, "--seed").unwrap_or(2026);
    let count: usize = flag(args, "--count").unwrap_or(50);
    let workers: usize = flag(args, "--workers").unwrap_or(1);
    let bug = sc::InjectedBug::from_env();
    let config = sc::BatchConfig {
        seed,
        count,
        workers,
        options: sc::RunOptions {
            check_determinism: true,
            bug,
        },
        shrink_failures: true,
    };
    let out = dump_path(args, "--scenarios-out");
    Box::new(move || {
        println!("=== Scenarios: {count} randomized simulations, seed {seed} ===\n");
        if let Some(b) = bug {
            println!("planted bug: {} (from ${})\n", b.env_value(), sc::BUG_ENV);
        }
        let report = sc::run_batch(&config);
        println!(
            "passed {}/{}  digest {:016x}",
            report.passed(),
            report.count,
            report.digest
        );
        for (kind, n) in report.tally() {
            if n > 0 {
                println!("  {kind}: {n} scenarios violated");
            }
        }
        if let Some((idx, margin)) = report.worst_margin() {
            println!("worst breaker margin: {margin:+.4} (scenario {idx})");
        }
        let program = argv0();
        let bug_env = bug.map(sc::InjectedBug::env_value);
        for row in report.rows.iter().filter(|r| !r.outcome.passed()) {
            println!("\nFAIL scenario {} seed {}", row.index, row.seed);
            println!("  {}", row.outcome.scenario.describe());
            for v in &row.outcome.violations {
                println!("  {v}");
            }
            if let Some(s) = &row.shrink {
                println!(
                    "  shrunk {} levels along [{}] in {} runs to:",
                    s.level,
                    s.axes.join(", "),
                    s.runs
                );
                println!("  {}", s.minimal);
                println!(
                    "repro: {}",
                    sc::repro_command(&program, bug_env, row.seed, s.level, workers)
                );
            } else {
                println!(
                    "repro: {}",
                    sc::repro_command(&program, bug_env, row.seed, 0, workers)
                );
            }
        }
        if write_dump("scenarios", &report.record(bug_env), &out) {
            println!("\nverdict: PASS — every invariant held across {count} scenarios");
        } else {
            println!(
                "\nverdict: FAIL — {} of {count} scenarios violated invariants",
                report.failed()
            );
            std::process::exit(1);
        }
    })
}

fn scenario(args: &[String]) -> Run {
    use ampere_scenario as sc;
    let seed: u64 = flag(args, "--seed").unwrap_or_else(|| usage_error("--seed S is required"));
    let level: u32 = flag(args, "--shrink-level").unwrap_or(0);
    Box::new(move || {
        let bug = sc::InjectedBug::from_env();
        let opts = sc::RunOptions {
            check_determinism: true,
            bug,
        };
        let original = sc::Scenario::generate(seed);
        let target = if level == 0 {
            original
        } else {
            // Reconstruct the shrunk scenario a batch failure printed: the
            // shrinker is deterministic, so replaying `level` accepted
            // steps lands on the exact scenario the failure reported.
            let kinds = sc::run_scenario(&original, &opts).violated_kinds();
            if kinds.is_empty() {
                eprintln!(
                    "note: seed {seed} passes unshrunk (is ${} set as it was in CI?); \
                     replaying the original scenario",
                    sc::BUG_ENV
                );
                original
            } else {
                sc::shrink_to_level(&original, &kinds, &opts, level).scenario
            }
        };
        println!("=== Scenario replay: seed {seed}, shrink level {level} ===\n");
        if let Some(b) = bug {
            println!("planted bug: {} (from ${})", b.env_value(), sc::BUG_ENV);
        }
        println!("{}\n", target.describe());
        let outcome = sc::run_scenario(&target, &opts);
        for kind in sc::InvariantKind::ALL {
            let hits: Vec<&sc::Violation> = outcome
                .violations
                .iter()
                .filter(|v| v.invariant == kind)
                .collect();
            if hits.is_empty() {
                println!("invariant {kind}: PASS");
            } else {
                println!("invariant {kind}: FAIL ({} violations)", hits.len());
                for v in hits.iter().take(5) {
                    println!("    {v}");
                }
            }
        }
        let s = &outcome.stats;
        println!(
            "\nstats: ticks={} servers={} violation_mins={} min_margin={:+.4} \
             max_frozen={} placed={} degraded={} backstop={}",
            s.ticks,
            s.servers,
            s.violations,
            s.min_margin,
            s.max_frozen,
            s.placed,
            s.degraded_ticks,
            s.backstop_ticks
        );
        if outcome.passed() {
            println!("verdict: PASS");
        } else {
            let kinds: Vec<&str> = outcome.violated_kinds().iter().map(|k| k.name()).collect();
            println!("verdict: FAIL {}", kinds.join(","));
            std::process::exit(1);
        }
    })
}

fn chaos(quick: bool) -> Printer {
    let config = if quick {
        exp::chaos::ChaosConfig::quick()
    } else {
        exp::chaos::ChaosConfig::paper()
    };
    let r = exp::chaos::run(&config);
    Box::new(move |out| {
        println!("=== Chaos: fault injection, graceful degradation, capping backstop ===\n");
        let rows: Vec<Vec<String>> = r
            .cells
            .iter()
            .map(|c| {
                vec![
                    pct(c.dropout),
                    c.outage_mins.to_string(),
                    c.violations.to_string(),
                    if c.tripped { "YES" } else { "no" }.to_string(),
                    c.degraded_ticks.to_string(),
                    c.backstop_ticks.to_string(),
                    c.failovers.to_string(),
                    f3(c.min_coverage),
                    f3(c.throughput_ratio),
                ]
            })
            .collect();
        out.table(
            "Chaos sweep: dropout x outage",
            &[
                "dropout",
                "outage(min)",
                "violations",
                "tripped",
                "degraded",
                "backstop",
                "failovers",
                "min_cov",
                "r_thru",
            ],
            &rows,
        );
        println!(
            "(safety claim: the `tripped` column must be all `no` — capping backstops the breaker)\n"
        );
    })
}

fn ablations(quick: bool) -> Printer {
    let config = if quick {
        exp::ablation::AblationConfig {
            hours: 4,
            warmup_mins: 90,
            ..exp::ablation::AblationConfig::default()
        }
    } else {
        exp::ablation::AblationConfig::default()
    };
    let groups = exp::ablation::run_all(&config);
    Box::new(move |out| {
        println!("=== Ablations: design choices and parameters (heavy, r_O = 0.25) ===\n");
        for (name, rows) in &groups {
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.setting.clone(),
                        r.violations.to_string(),
                        f3(r.u_mean),
                        format!("{:.0}", r.churn_per_hour),
                        f3(r.r_thru),
                        f3(r.p_mean),
                        f3(r.wait_mean_mins),
                    ]
                })
                .collect();
            out.table(
                name,
                &[
                    "setting",
                    "violations",
                    "u_mean",
                    "churn/h",
                    "r_thru",
                    "P_mean",
                    "wait(min)",
                ],
                &table,
            );
        }
    })
}

fn fig1(quick: bool) -> Printer {
    let config = if quick {
        exp::fig1::Fig1Config {
            rows: 4,
            racks_per_row: 6,
            servers_per_rack: 20,
            hours: 8,
            warmup_hours: 1,
            seed: 1,
        }
    } else {
        exp::fig1::Fig1Config::default()
    };
    let r = exp::fig1::run(config);
    Box::new(move |out| {
        println!("=== Fig 1: CDF of power utilization by level ===\n");
        for level in [&r.rack, &r.row, &r.dc] {
            println!(
                "# {}: mean={} max={}",
                level.label,
                f3(level.mean),
                f3(level.max)
            );
            out.series(level.label, level.points.iter().copied());
        }
    })
}

fn fig2(quick: bool) -> Printer {
    let config = if quick {
        exp::fig2::Fig2Config {
            rows: 6,
            display_rows: 5,
            hours: 6,
            warmup_hours: 1,
            racks_per_row: 4,
            servers_per_rack: 20,
            ..exp::fig2::Fig2Config::default()
        }
    } else {
        exp::fig2::Fig2Config::default()
    };
    let r = exp::fig2::run(config);
    Box::new(move |out| {
        println!("=== Fig 2: row power variation (5 rows, 2 h) ===\n");
        for (i, row) in r.heatmap.iter().enumerate() {
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            let min = row.iter().cloned().fold(f64::MAX, f64::min);
            let max = row.iter().cloned().fold(f64::MIN, f64::max);
            println!(
                "row {i}: mean={} range=[{}, {}] over {} minutes",
                f3(mean),
                f3(min),
                f3(max),
                row.len()
            );
            out.series_sampled(
                &format!("fig2 row{i} normalized power"),
                row.iter().enumerate().map(|(m, &p)| (m as f64, p)),
                20,
            );
        }
        println!(
            "\npairwise correlations: n={} frac(<0.33)={} (paper: ~80%)",
            r.correlations.len(),
            pct(r.frac_below_033)
        );
        println!("spatial spread of row means: {}\n", f3(r.spatial_spread));
    })
}

fn fig4(quick: bool) -> Printer {
    let config = if quick {
        exp::fig4::Fig4Config {
            warmup_mins: 90,
            ..exp::fig4::Fig4Config::default()
        }
    } else {
        exp::fig4::Fig4Config::default()
    };
    let r = exp::fig4::run(config);
    Box::new(move |out| {
        println!("=== Fig 4: power decay of frozen servers ===\n");
        out.series(
            "mean normalized power of frozen group vs minutes",
            r.series.iter().map(|&(m, p)| (m as f64, p)),
        );
        println!(
            "initial={} final={} minutes-to-90%-drop={} (paper: ~35 min)\n",
            f3(r.initial),
            f3(r.final_level),
            r.mins_to_90pct_drop
        );
    })
}

fn fig5(quick: bool) -> Printer {
    let config = if quick {
        exp::fig5::Fig5Config {
            levels: vec![0.0, 0.2, 0.4, 0.6],
            settle_mins: 10,
            sample_mins: 5,
            washout_mins: 15,
            sweeps: 2,
            ..exp::fig5::Fig5Config::default()
        }
    } else {
        exp::fig5::Fig5Config::default()
    };
    let r = exp::fig5::run(config);
    Box::new(move |out| {
        println!("=== Fig 5: f(u) vs freezing ratio u ===\n");
        for (q, curve) in ["p25", "p50", "p75"].iter().zip(&r.curves) {
            out.series(&format!("f(u) {q}"), curve.iter().copied());
        }
        println!(
            "steady-state fit: kr={} (R²={}); one-minute fit: kr={} (R²={})",
            f3(r.model.kr),
            f3(r.model.r_squared),
            f3(r.model_one_minute.kr),
            f3(r.model_one_minute.r_squared)
        );
        println!("samples: {}\n", r.samples.len());
    })
}

fn fig6() -> Printer {
    let r = exp::fig6::run(exp::fig6::Fig6Config::default());
    Box::new(move |out| {
        println!("=== Fig 6: the control function F (production calibration) ===\n");
        out.series("freezing ratio u vs row power P", r.curve.iter().copied());
        println!(
            "threshold ratio = {} | saturates (u = 0.5) at P = {}\n",
            f3(r.threshold),
            f3(r.saturation_power)
        );
    })
}

fn fig7(quick: bool) -> Printer {
    let r = exp::fig7::run(exp::fig7::Fig7Config {
        samples: if quick { 20_000 } else { 200_000 },
        seed: 7,
    });
    Box::new(move |out| {
        println!("=== Fig 7: CDF of batch job durations ===\n");
        out.series("duration CDF (minutes)", r.cdf.iter().copied());
        println!(
            "mean={:.2} min (paper ~9); P(d<=2min)={} (paper ~0.4); P(d<=10min)={}; max={:.1} min\n",
            r.mean_mins,
            pct(r.frac_under_2min),
            pct(r.frac_under_10min),
            r.max_mins
        );
    })
}

fn fig8(quick: bool) -> Printer {
    let config = if quick {
        exp::fig8::Fig8Config {
            hours: 8,
            warmup_hours: 1,
            ..exp::fig8::Fig8Config::default()
        }
    } else {
        exp::fig8::Fig8Config::default()
    };
    let r = exp::fig8::run(config);
    Box::new(move |out| {
        println!("=== Fig 8: row power over 24 h (normalized to max) ===\n");
        out.series_sampled(
            "normalized row power vs minute",
            r.series.iter().map(|&(m, p)| (m as f64, p)),
            30,
        );
        println!(
            "mean={} swing={} (paper: ~0.75–1.0)\n",
            f3(r.mean),
            f3(r.swing)
        );
    })
}

fn fig9(quick: bool) -> Printer {
    let config = if quick {
        exp::fig9::Fig9Config {
            hours: 10,
            warmup_hours: 1,
            ..exp::fig9::Fig9Config::default()
        }
    } else {
        exp::fig9::Fig9Config::default()
    };
    let r = exp::fig9::run(config);
    Box::new(move |out| {
        println!("=== Fig 9: CDF of power changes at 1/5/20/60-min scales ===\n");
        let rows: Vec<Vec<String>> = r
            .scales
            .iter()
            .map(|s| {
                vec![
                    format!("{}-min", s.scale_mins),
                    pct(s.frac_within_2p5),
                    f3(s.max_abs),
                    s.points.len().to_string(),
                ]
            })
            .collect();
        out.table(
            "power-change distribution by scale",
            &["scale", "within ±2.5%", "max |Δ|", "points"],
            &rows,
        );
        println!("(paper: 1-min changes within ±2.5% for 99% of the time, up to ~10%)\n");
    })
}

fn fig10_table2(quick: bool) -> Printer {
    let kinds = [
        exp::fig10::WorkloadKind::Light,
        exp::fig10::WorkloadKind::Heavy,
    ];
    // The two workload columns are independent runs: fan them out.
    let tasks: Vec<ampere_par::Task<'static, exp::fig10::Fig10Result>> = kinds
        .iter()
        .map(|&kind| {
            let task: ampere_par::Task<'static, exp::fig10::Fig10Result> = Box::new(move || {
                let config = if quick {
                    exp::fig10::Fig10Config {
                        hours: 8,
                        warmup_mins: 90,
                        calibration_hours: 8,
                        ..exp::fig10::Fig10Config::paper(kind)
                    }
                } else {
                    exp::fig10::Fig10Config::paper(kind)
                };
                exp::fig10::run(config)
            });
            task
        })
        .collect();
    let pool = ampere_par::WorkerPool::with_default_workers();
    let results = ampere_par::run_captured(&pool, tasks);
    Box::new(move |out| {
        println!("=== Fig 10 + Table 2: control under light/heavy workload (r_O = 0.25) ===\n");
        let mut rows = Vec::new();
        for (kind, r) in kinds.iter().zip(results) {
            out.series_sampled(
                &format!("{} exp power_norm", kind.name()),
                r.exp_trace.iter().map(|&(m, p, _)| (m as f64, p)),
                30,
            );
            out.series_sampled(
                &format!("{} exp freezing ratio", kind.name()),
                r.exp_trace.iter().map(|&(m, _, u)| (m as f64, u)),
                30,
            );
            out.series_sampled(
                &format!("{} ctl power_norm", kind.name()),
                r.ctl_trace.iter().map(|&(m, p)| (m as f64, p)),
                30,
            );
            for (group, s) in [("Exp", r.exp), ("Ctr", r.ctl)] {
                rows.push(vec![
                    kind.name().to_string(),
                    group.to_string(),
                    pct(s.u_mean),
                    pct(s.u_max),
                    f3(s.p_mean),
                    f3(s.p_max),
                    s.violations.to_string(),
                ]);
            }
        }
        out.table(
            "Table 2: controller effectiveness",
            &[
                "Workload",
                "Group",
                "u_mean",
                "u_max",
                "P_mean",
                "P_max",
                "Violations",
            ],
            &rows,
        );
        println!(
            "(paper heavy: Exp umean 24.7%, Pmax 1.002, 1 violation; Ctr Pmax 1.025, 321 violations)\n"
        );
    })
}

fn fig11(quick: bool) -> Printer {
    let config = if quick {
        exp::fig11::Fig11Config {
            hours: 4,
            warmup_mins: 90,
            sim: ampere_experiments::fig11::Fig11Config::default().sim,
            ..exp::fig11::Fig11Config::default()
        }
    } else {
        exp::fig11::Fig11Config::default()
    };
    let r = exp::fig11::run(config);
    Box::new(move |out| {
        println!("=== Fig 11: Redis p99.9 latency — power capping vs Ampere ===\n");
        let max_capped = r
            .reports
            .iter()
            .map(|rep| rep.capped_p999_us)
            .fold(0.0f64, f64::max);
        let rows: Vec<Vec<String>> = r
            .reports
            .iter()
            .map(|rep| {
                vec![
                    rep.op.name().to_string(),
                    f3(rep.capped_p999_us / max_capped),
                    f3(rep.ampere_p999_us / max_capped),
                    format!("{:.2}x", rep.inflation()),
                ]
            })
            .collect();
        out.table(
            "p99.9 latency (normalized to worst capped op)",
            &["op", "capping", "Ampere", "inflation"],
            &rows,
        );
        println!(
            "capping engaged {} of minutes; {} of servers capped then; episode ≈ {:.1} min; capped freq ≈ {}",
            pct(r.capped_time_fraction),
            pct(r.servers_capped_fraction),
            r.episode_mins,
            f3(r.capped_freq)
        );
        println!("(paper: capping ~doubles p99.9; 54.3% of servers capped ~15% of the time)\n");
    })
}

fn fig12(quick: bool) -> Printer {
    let config = if quick {
        exp::fig12::Fig12Config {
            hours: 3,
            warmup_mins: 90,
            calibration_hours: 6,
            ..exp::fig12::Fig12Config::default()
        }
    } else {
        exp::fig12::Fig12Config::default()
    };
    let r = exp::fig12::run(config);
    Box::new(move |out| {
        println!("=== Fig 12: power and throughput under control (r_O = 0.25, 4 h) ===\n");
        out.series_sampled(
            "exp power_norm",
            r.power.iter().map(|&(m, e, _)| (m as f64, e)),
            15,
        );
        out.series_sampled(
            "ctl power_norm",
            r.power.iter().map(|&(m, _, c)| (m as f64, c)),
            15,
        );
        out.series_sampled(
            "throughput ratio (15-min window)",
            r.throughput_ratio.iter().map(|&(m, t)| (m as f64, t)),
            15,
        );
        println!(
            "threshold={} overall rT={} G_TPW={}; boxed-period rT={} G_TPW={}",
            f3(r.threshold),
            f3(r.overall.ratio()),
            pct(r.gtpw_overall),
            f3(r.boxed_period.ratio()),
            pct(r.gtpw_boxed)
        );
        println!(
            "(paper: rT 0.8 in the boxed high-power period → G_TPW ≈ 0; 0.95 on average → ≈ 0.19)\n"
        );
    })
}

fn table3(quick: bool) -> Printer {
    let config = if quick {
        exp::table3::Table3Config {
            hours: 6,
            warmup_mins: 90,
            calibration_hours: 6,
            ..exp::table3::Table3Config::default()
        }
    } else {
        exp::table3::Table3Config::default()
    };
    let r = exp::table3::run(config);
    Box::new(move |out| {
        println!("=== Table 3: G_TPW across r_O and workload ===\n");
        let rows: Vec<Vec<String>> = r
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                vec![
                    format!("{}{}", i + 1, if row.case.typical { "*" } else { "" }),
                    format!("{:.2}", row.case.r_o),
                    f3(row.p_mean),
                    f3(row.p_max),
                    f3(row.u_mean),
                    f3(row.r_thru),
                    pct(row.gtpw),
                    row.violations.to_string(),
                ]
            })
            .collect();
        out.table(
            "Table 3 (rows marked * are typical workload)",
            &[
                "#",
                "r_O",
                "P_mean",
                "P_max",
                "u_mean",
                "r_thru",
                "G_TPW",
                "Violations",
            ],
            &rows,
        );
        println!("typical-workload G_TPW by r_O:");
        for (ro, g) in r.typical_gtpw_by_ro() {
            println!("  r_O = {ro:.2}: G_TPW = {}", pct(g));
        }
        println!("(paper: r_O = 0.17 is the safe/effective choice, G_TPW ≈ 15–17%)\n");
    })
}
