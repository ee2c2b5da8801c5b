//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Metrics are keyed by a static name plus a small label set
//! (`("domain", "row0")`). Handles ([`Counter`], [`Gauge`], [`Histogram`])
//! are cheap `Arc` clones over atomics — grab them once at construction
//! and update lock-free on the hot path. A disabled telemetry pipeline
//! hands out no-op handles, so instrumented code never branches on
//! "is telemetry on" itself.

use crate::json::{write_json_f64, write_json_string};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(&'static str, String)>;

/// A [`Counter`] resolved once at wiring time. The handle *is* the
/// lock-free cell — the alias names the hot-path contract: look up by
/// string once, update through the handle forever after.
pub type CounterHandle = Counter;
/// A [`Gauge`] resolved once at wiring time (see [`CounterHandle`]).
pub type GaugeHandle = Gauge;
/// A [`Histogram`] resolved once at wiring time (see [`CounterHandle`]).
pub type HistogramHandle = Histogram;

fn labels_of(labels: &[(&'static str, &str)]) -> Labels {
    let mut out: Labels = labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
    out.sort_unstable();
    out
}

/// A monotonically increasing counter. No-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that ignores updates (disabled telemetry).
    pub fn noop() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn inc_by(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge holding the latest `f64`. No-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A handle that ignores updates (disabled telemetry).
    pub fn noop() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(bits) = &self.bits {
            bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.bits
            .as_ref()
            .map_or(0.0, |bits| f64::from_bits(bits.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets; a sample lands in the first
    /// bucket whose bound is `>= value`, or the overflow bucket.
    bounds: Vec<f64>,
    /// One slot per finite bucket plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    /// Sum of recorded values, as f64 bits (CAS-accumulated).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` samples. No-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A handle that ignores updates (disabled telemetry).
    pub fn noop() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: f64) {
        let Some(core) = &self.core else { return };
        let idx = core.bounds.partition_point(|b| *b < value);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // CAS-accumulate the f64 sum.
        let mut old = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => old = actual,
            }
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| {
            core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
        })
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.core.as_ref().map_or(0.0, |core| {
            f64::from_bits(core.sum_bits.load(Ordering::Relaxed))
        })
    }

    /// Per-bucket counts (finite buckets then the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core.as_ref().map_or_else(Vec::new, |core| {
            core.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        })
    }
}

/// Helpers producing common bucket layouts.
pub mod buckets {
    /// `count` buckets of equal `width` starting at `start`.
    pub fn linear(start: f64, width: f64, count: usize) -> Vec<f64> {
        assert!(width > 0.0 && count > 0, "bad linear bucket spec");
        (0..count).map(|i| start + width * (i + 1) as f64).collect()
    }

    /// `count` buckets growing by `factor` from `start`.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Vec<f64> {
        assert!(
            start > 0.0 && factor > 1.0 && count > 0,
            "bad exp bucket spec"
        );
        let mut bound = start;
        (0..count)
            .map(|_| {
                let b = bound;
                bound *= factor;
                b
            })
            .collect()
    }

    /// Wall-clock latency buckets: 1 µs … ~16 s, powers of two.
    pub fn wall_us() -> Vec<f64> {
        exponential(1.0, 2.0, 24)
    }

    /// Buckets for values expected to sit in `[0, 1]` (ratios).
    pub fn ratio() -> Vec<f64> {
        linear(0.0, 0.05, 22)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// The shared metrics registry behind a [`Telemetry`](crate::Telemetry)
/// pipeline.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<(&'static str, Labels), Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    /// If the key already names a metric of a different type.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics
            .entry((name, labels_of(labels)))
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match entry {
            Metric::Counter(cell) => Counter {
                cell: Some(Arc::clone(cell)),
            },
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics
            .entry((name, labels_of(labels)))
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match entry {
            Metric::Gauge(bits) => Gauge {
                bits: Some(Arc::clone(bits)),
            },
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates the histogram `name{labels}` with the given
    /// finite-bucket upper bounds (must be sorted strictly ascending).
    /// Bounds are fixed at first registration; later calls reuse them.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics.entry((name, labels_of(labels))).or_insert_with(|| {
            Metric::Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        });
        match entry {
            Metric::Histogram(core) => Histogram {
                core: Some(Arc::clone(core)),
            },
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Merges a snapshot (from a parallel task's capture registry) into
    /// this registry: counters add, histograms add per-bucket counts and
    /// sums, gauges take the snapshot value (last merge wins, matching
    /// the last-write-wins of a serial run). Metrics absent here are
    /// created.
    ///
    /// # Panics
    /// If a key names a metric of a different type, or a histogram with
    /// different bucket bounds.
    pub fn merge(&self, snapshot: &MetricsSnapshot) {
        let mut metrics = self.metrics.lock().unwrap();
        for entry in &snapshot.entries {
            let name = entry.name;
            let slot = metrics.entry((name, entry.labels.clone()));
            match &entry.kind {
                MetricKind::Counter(v) => {
                    let metric =
                        slot.or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
                    match metric {
                        Metric::Counter(cell) => {
                            cell.fetch_add(*v, Ordering::Relaxed);
                        }
                        _ => panic!("metric {name:?} already registered with a different type"),
                    }
                }
                MetricKind::Gauge(v) => {
                    let metric = slot
                        .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
                    match metric {
                        Metric::Gauge(bits) => bits.store(v.to_bits(), Ordering::Relaxed),
                        _ => panic!("metric {name:?} already registered with a different type"),
                    }
                }
                MetricKind::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    let metric = slot.or_insert_with(|| {
                        Metric::Histogram(Arc::new(HistogramCore {
                            bounds: bounds.clone(),
                            buckets: (0..counts.len()).map(|_| AtomicU64::new(0)).collect(),
                            sum_bits: AtomicU64::new(0f64.to_bits()),
                        }))
                    });
                    match metric {
                        Metric::Histogram(core) => {
                            assert_eq!(
                                core.bounds, *bounds,
                                "metric {name:?} merged with different histogram bounds"
                            );
                            for (bucket, c) in core.buckets.iter().zip(counts) {
                                bucket.fetch_add(*c, Ordering::Relaxed);
                            }
                            let mut old = core.sum_bits.load(Ordering::Relaxed);
                            loop {
                                let new = (f64::from_bits(old) + sum).to_bits();
                                match core.sum_bits.compare_exchange_weak(
                                    old,
                                    new,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break,
                                    Err(actual) => old = actual,
                                }
                            }
                        }
                        _ => panic!("metric {name:?} already registered with a different type"),
                    }
                }
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name and labels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().unwrap();
        let entries = metrics
            .iter()
            .map(|((name, labels), metric)| MetricSnapshot {
                name,
                labels: labels.clone(),
                kind: match metric {
                    Metric::Counter(cell) => MetricKind::Counter(cell.load(Ordering::Relaxed)),
                    Metric::Gauge(bits) => {
                        MetricKind::Gauge(f64::from_bits(bits.load(Ordering::Relaxed)))
                    }
                    Metric::Histogram(core) => MetricKind::Histogram {
                        bounds: core.bounds.clone(),
                        counts: core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                    },
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// Snapshot of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Labels,
    /// Value at snapshot time.
    pub kind: MetricKind,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricKind {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Finite-bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts; one longer than `bounds` (overflow last).
        counts: Vec<u64>,
        /// Sum of recorded samples.
        sum: f64,
    },
}

/// Point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub entries: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Finds a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.entries.iter().find(|entry| {
            entry.name == name
                && entry.labels.len() == labels.len()
                && entry
                    .labels
                    .iter()
                    .all(|(k, v)| labels.iter().any(|&(lk, lv)| lk == *k && lv == v))
        })
    }

    /// Serializes every metric as one JSON line, e.g.
    /// `{"metric":"controller_ticks","labels":{"domain":"row0"},"type":"counter","value":17}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str("{\"metric\":");
            write_json_string(entry.name, &mut out);
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in entry.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, &mut out);
                out.push(':');
                write_json_string(v, &mut out);
            }
            out.push('}');
            match &entry.kind {
                MetricKind::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                MetricKind::Gauge(v) => {
                    out.push_str(",\"type\":\"gauge\",\"value\":");
                    write_json_f64(*v, &mut out);
                }
                MetricKind::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    out.push_str(",\"type\":\"histogram\",\"bounds\":[");
                    for (i, b) in bounds.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_json_f64(*b, &mut out);
                    }
                    out.push_str("],\"counts\":[");
                    for (i, c) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    let total: u64 = counts.iter().sum();
                    out.push_str("],\"count\":");
                    let _ = write!(out, "{total}");
                    out.push_str(",\"sum\":");
                    write_json_f64(*sum, &mut out);
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders a fixed-width human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<44} {:>14}  detail", "metric", "value");
        for entry in &self.entries {
            let mut label = entry.name.to_string();
            if !entry.labels.is_empty() {
                label.push('{');
                for (i, (k, v)) in entry.labels.iter().enumerate() {
                    if i > 0 {
                        label.push(',');
                    }
                    let _ = write!(label, "{k}={v}");
                }
                label.push('}');
            }
            match &entry.kind {
                MetricKind::Counter(v) => {
                    let _ = writeln!(out, "{label:<44} {v:>14}  counter");
                }
                MetricKind::Gauge(v) => {
                    let _ = writeln!(out, "{label:<44} {v:>14.3}  gauge");
                }
                MetricKind::Histogram { counts, sum, .. } => {
                    let count: u64 = counts.iter().sum();
                    let mean = if count > 0 { sum / count as f64 } else { 0.0 };
                    let _ = writeln!(out, "{label:<44} {count:>14}  histogram mean={mean:.3}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_upper_inclusive() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[], &[1.0, 2.0, 4.0]);
        // On-boundary samples land in the bucket whose bound equals them.
        for v in [0.5, 1.0, 1.5, 2.0, 4.0, 4.000001, 100.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.000001 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn label_sets_are_distinct_and_order_free() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jobs", &[("row", "0"), ("kind", "batch")]);
        let b = reg.counter("jobs", &[("kind", "batch"), ("row", "0")]);
        let c = reg.counter("jobs", &[("row", "1"), ("kind", "batch")]);
        a.inc();
        b.inc_by(2);
        c.inc();
        // a and b alias the same series (labels are sorted); c does not.
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.entries.len(), 2);
        let series = snap
            .get("jobs", &[("row", "0"), ("kind", "batch")])
            .unwrap();
        assert_eq!(series.kind, MetricKind::Counter(3));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[]);
        let _ = reg.gauge("x", &[]);
    }

    #[test]
    fn noop_handles_ignore_updates() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(5.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::noop();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert!(h.bucket_counts().is_empty());
    }

    #[test]
    fn snapshot_jsonl_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("ticks", &[("domain", "row0")]).inc_by(17);
        reg.gauge("power_w", &[]).set(812.5);
        let h = reg.histogram("err_w", &[], &buckets::linear(0.0, 10.0, 4));
        h.record(3.0);
        h.record(25.0);
        let jsonl = reg.snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            crate::json::parse_object_full(line).expect("snapshot line parses");
        }
        assert!(
            jsonl.contains("\"type\":\"counter\",\"value\":17"),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"count\":2,\"sum\":28.0"), "{jsonl}");
    }

    #[test]
    fn bucket_helpers() {
        assert_eq!(buckets::linear(0.0, 5.0, 3), vec![5.0, 10.0, 15.0]);
        assert_eq!(buckets::exponential(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
        assert!(buckets::ratio().windows(2).all(|w| w[0] < w[1]));
    }
}
