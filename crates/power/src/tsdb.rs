//! In-memory time-series database.
//!
//! Stands in for the paper's MySQL-backed store (§3.3): the power
//! monitor appends one sample per series per minute and the controller
//! queries recent ranges. Series are append-only with monotonically
//! non-decreasing timestamps, which keeps range queries `O(log n)`.

use std::collections::HashMap;
use std::fmt;

use ampere_sim::SimTime;
use ampere_telemetry::{Event, Severity, Telemetry};

use crate::monitor::SeriesKey;

/// An out-of-order ingestion attempt rejected by
/// [`TimeSeriesDb::try_append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrderSample {
    /// Series the sample was destined for.
    pub key: SeriesKey,
    /// Timestamp of the rejected sample.
    pub at: SimTime,
    /// Timestamp of the newest sample already stored.
    pub last: SimTime,
}

impl fmt::Display for OutOfOrderSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-order sample for {:?}: {} after {}",
            self.key, self.at, self.last
        )
    }
}

impl std::error::Error for OutOfOrderSample {}

/// A simple append-only multi-series store.
#[derive(Debug, Clone)]
pub struct TimeSeriesDb {
    series: HashMap<SeriesKey, Vec<(SimTime, f64)>>,
    telemetry: Telemetry,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeriesDb {
    /// Creates an empty database reporting into the global telemetry
    /// pipeline (a no-op unless one is installed).
    pub fn new() -> Self {
        Self {
            series: HashMap::new(),
            telemetry: ampere_telemetry::global(),
        }
    }

    /// Replaces the telemetry pipeline (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Appends a sample to a series.
    ///
    /// Panics if the timestamp is older than the last sample of the same
    /// series — out-of-order ingestion indicates a simulation bug. Use
    /// [`TimeSeriesDb::try_append`] to tolerate disorder (e.g. replaying
    /// external traces) instead.
    pub fn append(&mut self, key: SeriesKey, at: SimTime, value: f64) {
        if let Err(err) = self.try_append(key, at, value) {
            panic!("{err}");
        }
    }

    /// Appends a sample, rejecting out-of-order timestamps with a typed
    /// error and a telemetry `warn` event instead of panicking. The
    /// database is unchanged on error.
    pub fn try_append(
        &mut self,
        key: SeriesKey,
        at: SimTime,
        value: f64,
    ) -> Result<(), OutOfOrderSample> {
        let series = self.series.entry(key).or_default();
        if let Some(&(last, _)) = series.last() {
            if at < last {
                let err = OutOfOrderSample { key, at, last };
                self.telemetry.emit_with(|| {
                    Event::new(at, Severity::Warn, "tsdb", "out_of_order")
                        .with("series", format!("{key:?}"))
                        .with("last_ms", last.as_millis())
                        .with("value", value)
                });
                return Err(err);
            }
        }
        series.push((at, value));
        Ok(())
    }

    /// Full history of a series (empty if unknown).
    pub fn series(&self, key: SeriesKey) -> &[(SimTime, f64)] {
        self.series.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Latest sample of a series.
    pub fn latest(&self, key: SeriesKey) -> Option<(SimTime, f64)> {
        self.series.get(&key).and_then(|s| s.last().copied())
    }

    /// Samples with `start <= t < end`.
    pub fn range(&self, key: SeriesKey, start: SimTime, end: SimTime) -> &[(SimTime, f64)] {
        let s = self.series(key);
        let lo = s.partition_point(|&(t, _)| t < start);
        let hi = s.partition_point(|&(t, _)| t < end);
        &s[lo..hi]
    }

    /// All values of a series.
    pub fn values(&self, key: SeriesKey) -> Vec<f64> {
        self.series(key).iter().map(|&(_, v)| v).collect()
    }

    /// Number of samples stored for a series.
    pub fn len(&self, key: SeriesKey) -> usize {
        self.series.get(&key).map_or(0, Vec::len)
    }

    /// Whether the whole database is empty.
    pub fn is_empty(&self) -> bool {
        self.series.values().all(Vec::is_empty)
    }

    /// Keys of all known series.
    pub fn keys(&self) -> impl Iterator<Item = SeriesKey> + '_ {
        self.series.keys().copied()
    }

    /// Drops samples older than `horizon` across all series (retention).
    pub fn trim_before(&mut self, horizon: SimTime) {
        for series in self.series.values_mut() {
            let keep_from = series.partition_point(|&(t, _)| t < horizon);
            series.drain(..keep_from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TopologyLevel;
    use ampere_sim::SimDuration;

    fn key(i: u64) -> SeriesKey {
        SeriesKey::new(TopologyLevel::Row, i)
    }

    fn t(min: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(min)
    }

    #[test]
    fn append_and_query() {
        let mut db = TimeSeriesDb::new();
        for m in 0..10 {
            db.append(key(0), t(m), m as f64);
        }
        assert_eq!(db.len(key(0)), 10);
        assert_eq!(db.latest(key(0)), Some((t(9), 9.0)));
        let r = db.range(key(0), t(2), t(5));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], (t(2), 2.0));
    }

    #[test]
    fn unknown_series_is_empty() {
        let db = TimeSeriesDb::new();
        assert!(db.series(key(9)).is_empty());
        assert_eq!(db.latest(key(9)), None);
        assert!(db.is_empty());
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut db = TimeSeriesDb::new();
        db.append(key(0), t(1), 1.0);
        db.append(key(0), t(1), 2.0);
        assert_eq!(db.len(key(0)), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn rejects_out_of_order() {
        let mut db = TimeSeriesDb::new();
        db.append(key(0), t(5), 1.0);
        db.append(key(0), t(4), 2.0);
    }

    #[test]
    fn try_append_reports_instead_of_panicking() {
        use ampere_telemetry::{RingBufferSink, Telemetry};

        let (sink, events) = RingBufferSink::new(8);
        let tel = Telemetry::builder().sink(sink).build();
        let mut db = TimeSeriesDb::new().with_telemetry(tel);
        db.append(key(0), t(5), 1.0);
        let err = db.try_append(key(0), t(4), 2.0).unwrap_err();
        assert_eq!(err.key, key(0));
        assert_eq!(err.at, t(4));
        assert_eq!(err.last, t(5));
        // The bad sample is dropped, the good one kept.
        assert_eq!(db.values(key(0)), vec![1.0]);
        // And a warn event surfaced through telemetry.
        let evs = events.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "out_of_order");
        assert_eq!(evs[0].severity, ampere_telemetry::Severity::Warn);
        // In-order appends still work afterwards.
        db.try_append(key(0), t(6), 3.0).unwrap();
        assert_eq!(db.len(key(0)), 2);
    }

    #[test]
    fn series_are_independent() {
        let mut db = TimeSeriesDb::new();
        db.append(key(0), t(5), 1.0);
        // A different row may lag behind in time.
        db.append(key(1), t(1), 9.0);
        assert_eq!(db.values(key(1)), vec![9.0]);
        let rack = SeriesKey::new(TopologyLevel::Rack, 0);
        db.append(rack, t(0), 3.0);
        assert_eq!(db.len(rack), 1);
        assert_eq!(db.len(key(0)), 1);
    }

    #[test]
    fn retention_trim() {
        let mut db = TimeSeriesDb::new();
        for m in 0..10 {
            db.append(key(0), t(m), m as f64);
        }
        db.trim_before(t(7));
        assert_eq!(db.values(key(0)), vec![7.0, 8.0, 9.0]);
    }
}
