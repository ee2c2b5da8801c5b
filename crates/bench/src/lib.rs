//! Output formatting for the `repro` binary and the benches.
//!
//! The paper reports results as tables and plotted series; the
//! reproduction prints both as plain text so a diff against
//! `EXPERIMENTS.md` is meaningful. An [`Output`] additionally mirrors
//! every series and table into CSV files (`repro --csv <dir>`) for
//! plotting.
//!
//! Modules:
//!
//! - [`harness`] — the in-repo micro-benchmark harness the benches run on;
//! - [`scale`], [`profile`], [`watch`] — the `repro` benchmarks that
//!   measure wall time around a run, each returning its `ampere-obs`
//!   record.
//!
//! `repro sla` and `repro hier` have no module here: `repro` times
//! `ampere_experiments::{sla, hier}::run` and the results build their
//! own records (`SlaResult::record`, `HierResult::record`).

use std::io::Write as _;
use std::path::PathBuf;

pub mod harness;
pub mod profile;
pub mod scale;
pub mod watch;

/// Timed pass pairs behind each overhead figure of `repro profile` and
/// `repro watch`.
const OVERHEAD_PAIRS: usize = 5;

/// One timed pass: wall milliseconds, trajectory checksum and whatever
/// the pass leaves for the record.
struct Timed<T> {
    wall_ms: f64,
    checksum: u64,
    value: T,
}

impl<T> Timed<T> {
    /// Runs `f` and times it.
    fn run(f: impl FnOnce() -> (u64, T)) -> Self {
        let start = std::time::Instant::now();
        let (checksum, value) = f();
        Timed {
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            checksum,
            value,
        }
    }
}

/// The median of [`OVERHEAD_PAIRS`] alternating (bare, observed) pass
/// pairs, ranked by overhead fraction, so one pass slowed by a noisy
/// neighbour does not set the figure.
struct MedianPair<B, O> {
    bare: Timed<B>,
    observed: Timed<O>,
    /// The median pair's `(observed − bare) / observed`, at least 0
    /// (also when a wall reads 0).
    overhead_fraction: f64,
    /// The first bare pass's checksum.
    checksum_bare: u64,
    /// The first checksum of any pass that differs from
    /// `checksum_bare`, or `checksum_bare` when every pass agrees: the
    /// two are equal exactly when every pass ran the same trajectory.
    checksum_observed: u64,
}

/// Runs `bare` then `observed`, [`OVERHEAD_PAIRS`] times.
fn median_pair<B, O>(
    mut bare: impl FnMut() -> Timed<B>,
    mut observed: impl FnMut() -> Timed<O>,
) -> MedianPair<B, O> {
    let mut pairs: Vec<(Timed<B>, Timed<O>)> =
        (0..OVERHEAD_PAIRS).map(|_| (bare(), observed())).collect();
    let checksum_bare = pairs[0].0.checksum;
    let checksum_observed = pairs
        .iter()
        .flat_map(|(b, o)| [b.checksum, o.checksum])
        .find(|&c| c != checksum_bare)
        .unwrap_or(checksum_bare);
    let overhead = |(b, o): &(Timed<B>, Timed<O>)| (o.wall_ms - b.wall_ms) / o.wall_ms;
    pairs.sort_by(|x, y| overhead(x).total_cmp(&overhead(y)));
    let pair = pairs.swap_remove(OVERHEAD_PAIRS / 2);
    MedianPair {
        // `max` drops the NaN of two zero walls.
        overhead_fraction: overhead(&pair).max(0.0),
        bare: pair.0,
        observed: pair.1,
        checksum_bare,
        checksum_observed,
    }
}

/// Print-and-optionally-save sink for the repro binary.
pub struct Output {
    csv_dir: Option<PathBuf>,
}

impl Output {
    /// Creates a sink; with `Some(dir)` every series/table is also
    /// written to `dir/<slug>.csv` (the directory is created).
    pub fn new(csv_dir: Option<PathBuf>) -> std::io::Result<Self> {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Self { csv_dir })
    }

    fn save(&self, name: &str, content: &str) {
        let Some(dir) = &self.csv_dir else { return };
        let path = dir.join(format!("{}.csv", slug(name)));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
            Ok(()) => {}
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// Prints a named series and mirrors the *full* series to CSV.
    pub fn series(&self, name: &str, series: impl IntoIterator<Item = (f64, f64)>) {
        let data: Vec<(f64, f64)> = series.into_iter().collect();
        print_series(name, data.iter().copied());
        let mut csv = String::from("x,y\n");
        for (x, y) in &data {
            csv.push_str(&format!("{x},{y}\n"));
        }
        self.save(name, &csv);
    }

    /// Prints a sampled preview of a long series but mirrors the full
    /// series to CSV.
    pub fn series_sampled(
        &self,
        name: &str,
        series: impl IntoIterator<Item = (f64, f64)>,
        stride: usize,
    ) {
        let data: Vec<(f64, f64)> = series.into_iter().collect();
        print_series_sampled(name, data.iter().copied(), stride);
        let mut csv = String::from("x,y\n");
        for (x, y) in &data {
            csv.push_str(&format!("{x},{y}\n"));
        }
        self.save(name, &csv);
    }

    /// Prints a table and mirrors it to CSV.
    pub fn table(&self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        print_table(title, header, rows);
        let mut csv = String::new();
        csv.push_str(&header.join(","));
        csv.push('\n');
        for row in rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        self.save(title, &csv);
    }
}

/// Lowercase alphanumeric-and-dash file stem for a display name.
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    out.trim_end_matches('-').to_string()
}

/// Prints a named series as `x<TAB>y` lines with a `# name` header.
pub fn print_series(name: &str, series: impl IntoIterator<Item = (f64, f64)>) {
    println!("# {name}");
    for (x, y) in series {
        println!("{x:.4}\t{y:.4}");
    }
    println!();
}

/// Prints a sparse preview of a long series: `head` points from the
/// start, every `stride`-th afterwards.
pub fn print_series_sampled(
    name: &str,
    series: impl IntoIterator<Item = (f64, f64)>,
    stride: usize,
) {
    let stride = stride.max(1);
    println!("# {name} (every {stride} points)");
    for (i, (x, y)) in series.into_iter().enumerate() {
        if i % stride == 0 {
            println!("{x:.4}\t{y:.4}");
        }
    }
    println!();
}

/// Prints a markdown-style table: a header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("## {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        fmt_row(row);
    }
    println!();
}

/// Formats a float with 3 decimal places (table cells).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted passes: pair `k` has the walls `WALLS[k]` and the
    /// checksums `bare[k]`, `observed[k]`.
    fn scripted(bare: [u64; 5], observed: [u64; 5]) -> MedianPair<usize, usize> {
        // Overhead fractions 0.5, -1, 0.2, 0.1 and 0.
        const WALLS: [(f64, f64); 5] = [
            (5.0, 10.0),
            (20.0, 10.0),
            (8.0, 10.0),
            (9.0, 10.0),
            (10.0, 10.0),
        ];
        let (mut b, mut o) = (0, 0);
        median_pair(
            || {
                b += 1;
                Timed {
                    wall_ms: WALLS[b - 1].0,
                    checksum: bare[b - 1],
                    value: b - 1,
                }
            },
            || {
                o += 1;
                Timed {
                    wall_ms: WALLS[o - 1].1,
                    checksum: observed[o - 1],
                    value: o - 1,
                }
            },
        )
    }

    #[test]
    fn median_pair_reports_the_middle_pair_and_any_disagreeing_pass() {
        let pair = scripted([7; 5], [7; 5]);
        assert_eq!((pair.bare.value, pair.observed.value), (3, 3));
        assert!((pair.overhead_fraction - 0.1).abs() < 1e-12);
        assert_eq!((pair.checksum_bare, pair.checksum_observed), (7, 7));
        // One tapped pass or one later bare pass off the trajectory.
        let pair = scripted([7; 5], [7, 7, 8, 7, 7]);
        assert_eq!((pair.checksum_bare, pair.checksum_observed), (7, 8));
        let pair = scripted([7, 7, 7, 7, 9], [7; 5]);
        assert_eq!((pair.checksum_bare, pair.checksum_observed), (7, 9));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.177), "17.7%");
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(
            slug("Table 2: controller effectiveness"),
            "table-2-controller-effectiveness"
        );
        assert_eq!(slug("f(u) p50"), "f-u-p50");
        assert_eq!(slug("---"), "");
    }

    #[test]
    fn csv_output_writes_files() {
        let dir = std::env::temp_dir().join(format!("ampere-csv-{}", std::process::id()));
        let out = Output::new(Some(dir.clone())).unwrap();
        out.series("demo series", vec![(0.0, 1.0), (1.0, 2.0)]);
        out.table("demo table", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let s = std::fs::read_to_string(dir.join("demo-series.csv")).unwrap();
        assert_eq!(s, "x,y\n0,1\n1,2\n");
        let t = std::fs::read_to_string(dir.join("demo-table.csv")).unwrap();
        assert!(t.starts_with("a,b\n1,2"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn printers_do_not_panic() {
        print_series("s", vec![(0.0, 1.0), (1.0, 2.0)]);
        print_series_sampled("s2", vec![(0.0, 1.0); 10], 3);
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
