//! Minimal offline benchmark runner.
//!
//! The workspace builds with no registry access, so the bench targets
//! (`harness = false`) use this tiny wall-clock harness instead of an
//! external framework. Each benchmark runs for a fixed time budget
//! (`AMPERE_BENCH_MS`, default 300 ms) after a short warmup and reports
//! mean and best per-iteration time.
//!
//! Invocation mirrors `cargo bench` conventions: a positional argument
//! filters benchmarks by substring, `--list` prints their names.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-bench-target runner: parses CLI args once, then times each
/// registered benchmark that matches the filter.
pub struct Runner {
    group: &'static str,
    filter: Option<String>,
    list_only: bool,
    budget: Duration,
}

impl Runner {
    /// Builds a runner from `std::env::args` (skipping the `--bench`
    /// flag cargo appends) and the `AMPERE_BENCH_MS` budget override.
    pub fn from_args(group: &'static str) -> Self {
        let mut filter = None;
        let mut list_only = false;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--list" => list_only = true,
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        let budget = std::env::var("AMPERE_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(300));
        Self {
            group,
            filter,
            list_only,
            budget,
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|f| name.contains(f) || self.group.contains(f))
    }

    /// Times `f` repeatedly within the budget and reports the result.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        self.run(name, |_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        });
    }

    /// Like [`bench`](Self::bench), but re-creates the input with
    /// `setup` before every iteration; only `routine` is timed, not
    /// dropping the input or the result.
    pub fn bench_with_setup<S, R>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(&mut S) -> R,
    ) {
        self.run(name, |_| {
            let mut input = setup();
            let t = Instant::now();
            let out = black_box(routine(&mut input));
            let elapsed = t.elapsed();
            drop((out, input));
            elapsed
        });
    }

    fn run(&self, name: &str, mut timed_iter: impl FnMut(u64) -> Duration) {
        if !self.selected(name) {
            return;
        }
        if self.list_only {
            println!("{}/{name}", self.group);
            return;
        }
        // Warmup: a tenth of the budget, at least one iteration.
        let warm_end = Instant::now() + self.budget / 10;
        loop {
            timed_iter(0);
            if Instant::now() >= warm_end {
                break;
            }
        }
        let mut iters: u64 = 0;
        let mut total = Duration::ZERO;
        let mut best = Duration::MAX;
        while total < self.budget {
            let dt = timed_iter(iters);
            total += dt;
            best = best.min(dt);
            iters += 1;
        }
        let mean = total / iters.max(1) as u32;
        println!(
            "{}/{name:<42} mean {:>10}  best {:>10}  ({iters} iters)",
            self.group,
            fmt_duration(mean),
            fmt_duration(best),
        );
    }
}

/// Human-scale duration formatting (ns → s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_picks_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120 ns");
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }

    #[test]
    fn runner_times_a_trivial_closure() {
        let r = Runner {
            group: "t",
            filter: None,
            list_only: false,
            budget: Duration::from_millis(5),
        };
        let mut calls = 0u64;
        r.bench("noop", || calls += 1);
        assert!(calls > 0);
    }

    #[test]
    fn filter_skips_non_matching() {
        let r = Runner {
            group: "t",
            filter: Some("other".into()),
            list_only: false,
            budget: Duration::from_millis(5),
        };
        let mut calls = 0u64;
        r.bench("noop", || calls += 1);
        assert_eq!(calls, 0);
    }
}
