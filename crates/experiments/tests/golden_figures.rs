//! Golden-figure regression tests.
//!
//! Every run here is fully seeded and deterministic, so the headline
//! statistics of the paper's key figures are locked into committed
//! golden files, one `key value` line each at six decimals, and the
//! rendered text must equal the file on every test run — a regression
//! net far tighter than the shape properties the per-module tests
//! assert. A value that moves is a behavior change to explain, not
//! noise to absorb.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! AMPERE_REGEN_GOLDEN=1 cargo test -p ampere-experiments --test golden_figures
//! git diff crates/experiments/tests/golden/   # review before committing!
//! ```

use ampere_experiments as exp;

use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Renders `(key, value)` stats as the golden text and asserts that it
/// equals the committed file, or rewrites the file when
/// `AMPERE_REGEN_GOLDEN` is set.
fn golden_check<K: AsRef<str>>(name: &str, stats: &[(K, f64)]) {
    let mut fresh = String::from("# key value — regenerated by golden_figures\n");
    for (key, value) in stats {
        let _ = writeln!(fresh, "{} {value:.6}", key.as_ref());
    }
    let path = golden_path(name);
    if std::env::var_os("AMPERE_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun AMPERE_REGEN_GOLDEN=1 cargo test -p ampere-experiments \
             --test golden_figures to create it",
            path.display()
        )
    });
    if fresh == golden {
        return;
    }
    let mut diff = String::new();
    for (got, want) in fresh.lines().zip(golden.lines()) {
        if got != want {
            let _ = writeln!(diff, "  got {got:?}, golden {want:?}");
        }
    }
    let (got, want) = (fresh.lines().count(), golden.lines().count());
    if got != want {
        let _ = writeln!(diff, "  {got} lines rendered, {want} in the file");
    }
    panic!(
        "{name} differs from its golden file:\n{diff}\
         if intentional, regenerate with AMPERE_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_fig7_duration_cdf() {
    let r = exp::fig7::run(exp::fig7::Fig7Config {
        samples: 20_000,
        seed: 7,
    });
    golden_check(
        "fig7",
        &[
            ("mean_mins", r.mean_mins),
            ("frac_under_2min", r.frac_under_2min),
            ("frac_under_10min", r.frac_under_10min),
            ("max_mins", r.max_mins),
            ("cdf_points", r.cdf.len() as f64),
        ],
    );
}

#[test]
fn golden_fig8_row_power() {
    let r = exp::fig8::run(exp::fig8::Fig8Config {
        hours: 8,
        warmup_hours: 1,
        ..exp::fig8::Fig8Config::default()
    });
    golden_check(
        "fig8",
        &[
            ("mean", r.mean),
            ("swing", r.swing),
            ("minutes", r.series.len() as f64),
        ],
    );
}

#[test]
fn golden_sla_quick() {
    // CI-sized shape of the `repro sla` comparison: one measured hour,
    // three rows, 1.2M simulated users. Locks the policy differential
    // (selective holds the baseline tail, uniform busts it) and the
    // freeze accounting, not just the pass/fail gate.
    let config = exp::sla::SlaConfig {
        hours: 1,
        warmup_mins: 30,
        sim: ampere_workload::interactive::InteractiveSim {
            run_secs: 10.0,
            ..ampere_workload::interactive::InteractiveSim::default()
        },
        ..exp::sla::SlaConfig::quick(1)
    };
    let r = exp::sla::run(&config);
    let sla_protected = r.record(&config, 0.0).sla_recomputed();
    let baseline = r.arm("baseline").unwrap();
    let uniform = r.arm("uniform").unwrap();
    let selective = r.arm("selective").unwrap();
    golden_check(
        "sla_quick",
        &[
            ("baseline_p999_us", baseline.p999_us),
            (
                "baseline_over_budget_ticks",
                baseline.over_budget_ticks as f64,
            ),
            ("uniform_p999_ratio", uniform.p999_ratio),
            ("uniform_froze", uniform.froze as f64),
            ("uniform_min_capacity", uniform.min_capacity),
            ("selective_p999_ratio", selective.p999_ratio),
            ("selective_froze", selective.froze as f64),
            ("selective_min_capacity", selective.min_capacity),
            (
                "selective_interactive_frozen_peak",
                selective.interactive_frozen_peak as f64,
            ),
            ("sla_protected", f64::from(sla_protected)),
        ],
    );
}

#[test]
fn golden_fig11_redis_p999() {
    // `repro fig11 --quick`'s capped testbed run, with a 10 s client
    // benchmark per op. Locks every op's p99.9 under the capping trace
    // and under Ampere.
    let r = exp::fig11::run(exp::fig11::Fig11Config {
        hours: 4,
        warmup_mins: 90,
        sim: ampere_workload::interactive::InteractiveSim {
            run_secs: 10.0,
            ..ampere_workload::interactive::InteractiveSim::default()
        },
        ..exp::fig11::Fig11Config::default()
    });
    let stats: Vec<(String, f64)> = r
        .reports
        .iter()
        .flat_map(|rep| {
            [
                (
                    format!("{}_capped_p999_us", rep.op.name()),
                    rep.capped_p999_us,
                ),
                (
                    format!("{}_ampere_p999_us", rep.op.name()),
                    rep.ampere_p999_us,
                ),
            ]
        })
        .collect();
    golden_check("fig11", &stats);
}

#[test]
fn golden_fig10_heavy_control() {
    let r = exp::fig10::run(exp::fig10::Fig10Config {
        hours: 4,
        warmup_mins: 60,
        calibration_hours: 4,
        ..exp::fig10::Fig10Config::paper(exp::fig10::WorkloadKind::Heavy)
    });
    golden_check(
        "fig10",
        &[
            ("exp_u_mean", r.exp.u_mean),
            ("exp_u_max", r.exp.u_max),
            ("exp_p_mean", r.exp.p_mean),
            ("exp_p_max", r.exp.p_max),
            ("exp_violations", r.exp.violations as f64),
            ("ctl_p_max", r.ctl.p_max),
            ("ctl_violations", r.ctl.violations as f64),
        ],
    );
}
