//! The aggregating power monitor.
//!
//! The paper's monitor reads per-server power through IPMI once a minute
//! and aggregates it to rack / row / data-center series through a
//! streaming framework (§3.3). Here the host pushes each one-minute
//! sweep of per-server samples into [`PowerMonitor::ingest`], which
//! performs the same aggregation and persists the rack, row and
//! data-center series in the [`TimeSeriesDb`]; per-domain partial sums
//! arrive through [`PowerMonitor::ingest_domain`] and come back as
//! qualified [`DomainReading`]s. The monitor itself is stateless apart
//! from the database and the latest reading's metadata, matching the
//! paper's easy-failover design.

use std::collections::BTreeMap;

use ampere_sim::{SimDuration, SimTime};
use ampere_telemetry::{Counter, Event, Gauge, Severity, Telemetry};

use crate::tsdb::TimeSeriesDb;

/// Aggregation level of a power series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopologyLevel {
    /// A rack (≈ 40 servers, 8–10 kW budget).
    Rack,
    /// A row / PDU (≈ 20 racks); the control domain.
    Row,
    /// A virtual control domain (a §4.1.2 experiment group or any
    /// server set registered via [`PowerMonitor::track_domain`]).
    Domain,
    /// The whole data center.
    DataCenter,
}

/// Identifies one stored series: an aggregation level plus the entity
/// index at that level (0 for the data center).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    level: TopologyLevel,
    index: u64,
}

impl SeriesKey {
    /// Builds a key.
    pub const fn new(level: TopologyLevel, index: u64) -> Self {
        Self { level, index }
    }

    /// Key of a rack series.
    pub const fn rack(index: u64) -> Self {
        Self::new(TopologyLevel::Rack, index)
    }

    /// Key of a row series.
    pub const fn row(index: u64) -> Self {
        Self::new(TopologyLevel::Row, index)
    }

    /// Key of a virtual control-domain series.
    pub const fn domain(index: u64) -> Self {
        Self::new(TopologyLevel::Domain, index)
    }

    /// Key of the single data-center series.
    pub const fn data_center() -> Self {
        Self::new(TopologyLevel::DataCenter, 0)
    }

    /// The aggregation level.
    pub fn level(&self) -> TopologyLevel {
        self.level
    }

    /// The entity index at that level.
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// One per-server power reading with its topology coordinates.
#[derive(Debug, Clone, Copy)]
pub struct ServerSample {
    /// Global server index.
    pub server: u64,
    /// Global rack index the server belongs to.
    pub rack: u64,
    /// Global row index the server belongs to.
    pub row: u64,
    /// Measured power in watts.
    pub watts: f64,
}

/// A qualified domain power reading: the raw partial sum plus how
/// complete and how old it is. Consumers that previously got a bare
/// `f64` now see *data quality* and can degrade gracefully — full
/// fresh data runs Algorithm 1 unchanged, while stale or low-coverage
/// data warrants a conservative mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainReading {
    /// Sum of the watts actually reported (a *partial* sum when
    /// samples dropped; scale by `1 / coverage` for an unbiased
    /// estimate of the true domain power).
    pub power_w: f64,
    /// Fraction of the domain's servers that reported (`1.0` when the
    /// population is unknown).
    pub coverage: f64,
    /// How old the reading is: zero when this sweep produced it,
    /// growing while sweeps are lost.
    pub age: SimDuration,
}

impl DomainReading {
    /// Coverage-corrected estimate of the full domain power.
    pub fn estimate_w(&self) -> f64 {
        if self.coverage > 0.0 {
            self.power_w / self.coverage
        } else {
            self.power_w
        }
    }
}

/// Per-domain metadata backing [`DomainReading`]: when the latest
/// stored point was measured and how many servers it covered.
#[derive(Debug, Clone, Copy)]
struct ReadingMeta {
    at: SimTime,
    reported: usize,
}

/// The aggregating power monitor.
#[derive(Debug)]
pub struct PowerMonitor {
    db: TimeSeriesDb,
    /// Expected server count per tracked virtual domain.
    domain_expected: BTreeMap<u64, usize>,
    /// Latest domain ingest metadata, keyed by domain index.
    domain_meta: BTreeMap<u64, ReadingMeta>,
    /// Dense per-sweep aggregation scratch (see [`PowerMonitor::ingest`]):
    /// accumulators indexed by rack/row id plus the ids touched this
    /// sweep, reused so steady-state ingestion never allocates.
    rack_acc: Vec<f64>,
    rack_cnt: Vec<usize>,
    rack_touched: Vec<u64>,
    row_acc: Vec<f64>,
    row_cnt: Vec<usize>,
    row_touched: Vec<u64>,
    telemetry: Telemetry,
    samples_ingested: Counter,
    sweeps_ingested: Counter,
    dc_power_gauge: Gauge,
}

impl PowerMonitor {
    /// The paper's monitor, reporting into the global telemetry
    /// pipeline (no-op unless installed): rack, row, data-center and
    /// tracked-domain series, sampled by the host once a minute (the
    /// paper's "good tradeoff between measurement accuracy and
    /// monitoring overhead").
    pub fn paper_default() -> Self {
        Self::with_telemetry(ampere_telemetry::global())
    }

    /// Like [`PowerMonitor::paper_default`] with an explicit telemetry
    /// pipeline (also handed to the underlying [`TimeSeriesDb`]).
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        Self {
            db: TimeSeriesDb::new().with_telemetry(telemetry.clone()),
            domain_expected: BTreeMap::new(),
            domain_meta: BTreeMap::new(),
            rack_acc: Vec::new(),
            rack_cnt: Vec::new(),
            rack_touched: Vec::new(),
            row_acc: Vec::new(),
            row_cnt: Vec::new(),
            row_touched: Vec::new(),
            samples_ingested: telemetry.counter("monitor_samples_ingested", &[]),
            sweeps_ingested: telemetry.counter("monitor_sweeps_ingested", &[]),
            dc_power_gauge: telemetry.gauge("monitor_dc_power_w", &[]),
            telemetry,
        }
    }

    /// Ingests one sampling sweep: per-server readings taken at `at`.
    /// Aggregates rack, row and data-center sums and appends everything
    /// to the database.
    ///
    /// Aggregation uses dense reusable accumulators indexed by rack/row
    /// id instead of per-sweep maps: sums add in sample order and the
    /// touched ids flush in ascending order, so the stored series are
    /// byte-identical to the map-based aggregation while steady-state
    /// ingestion stays allocation-free.
    pub fn ingest(&mut self, at: SimTime, samples: &[ServerSample]) {
        let mut total = 0.0;
        for s in samples {
            if s.rack as usize >= self.rack_acc.len() {
                self.rack_acc.resize(s.rack as usize + 1, 0.0);
                self.rack_cnt.resize(s.rack as usize + 1, 0);
            }
            if self.rack_cnt[s.rack as usize] == 0 {
                self.rack_touched.push(s.rack);
            }
            self.rack_acc[s.rack as usize] += s.watts;
            self.rack_cnt[s.rack as usize] += 1;
            if s.row as usize >= self.row_acc.len() {
                self.row_acc.resize(s.row as usize + 1, 0.0);
                self.row_cnt.resize(s.row as usize + 1, 0);
            }
            if self.row_cnt[s.row as usize] == 0 {
                self.row_touched.push(s.row);
            }
            self.row_acc[s.row as usize] += s.watts;
            self.row_cnt[s.row as usize] += 1;
            total += s.watts;
        }
        let mut rack_touched = std::mem::take(&mut self.rack_touched);
        rack_touched.sort_unstable();
        for &rack in &rack_touched {
            self.db
                .append(SeriesKey::rack(rack), at, self.rack_acc[rack as usize]);
            self.rack_acc[rack as usize] = 0.0;
            self.rack_cnt[rack as usize] = 0;
        }
        rack_touched.clear();
        self.rack_touched = rack_touched;
        let mut row_touched = std::mem::take(&mut self.row_touched);
        row_touched.sort_unstable();
        for &row in &row_touched {
            self.db
                .append(SeriesKey::row(row), at, self.row_acc[row as usize]);
            self.row_acc[row as usize] = 0.0;
            self.row_cnt[row as usize] = 0;
        }
        row_touched.clear();
        self.row_touched = row_touched;
        self.db.append(SeriesKey::data_center(), at, total);
        self.samples_ingested.inc_by(samples.len() as u64);
        self.sweeps_ingested.inc();
        self.dc_power_gauge.set(total);
        // The sweep measures power produced under the decision interval
        // currently in force, so it joins the active tick span (untraced
        // when no controller has registered one).
        let span = self.telemetry.active_tick();
        self.telemetry.emit_in_span(span, || {
            Event::new(at, Severity::Debug, "monitor", "sweep")
                .with("servers", samples.len())
                .with("dc_power_w", total)
        });
    }

    /// Read access to the underlying database (the controller's query
    /// surface — a RESTful API in the paper).
    pub fn db(&self) -> &TimeSeriesDb {
        &self.db
    }

    /// Latest aggregated row power, if any sample exists.
    pub fn latest_row_power(&self, row: u64) -> Option<f64> {
        self.db.latest(SeriesKey::row(row)).map(|(_, v)| v)
    }

    /// Full row power history as values.
    pub fn row_history(&self, row: u64) -> Vec<f64> {
        self.db.values(SeriesKey::row(row))
    }

    /// Registers a virtual control domain (a §4.1.2 experiment group,
    /// or any server set controlled against one budget) of
    /// `servers` members, so its series and coverage are tracked.
    pub fn track_domain(&mut self, domain: u64, servers: usize) {
        self.domain_expected.insert(domain, servers);
    }

    /// Ingests one domain-level observation: the partial power sum of
    /// the `reported` servers that responded this sweep. A sweep in
    /// which *no* domain server reported stores nothing — the previous
    /// reading simply ages.
    pub fn ingest_domain(&mut self, at: SimTime, domain: u64, power_w: f64, reported: usize) {
        if reported == 0 {
            return;
        }
        self.db.append(SeriesKey::domain(domain), at, power_w);
        self.domain_meta
            .insert(domain, ReadingMeta { at, reported });
    }

    /// Latest domain power as a qualified [`DomainReading`]: the
    /// partial sum, the fraction of the domain that reported it, and
    /// its age at `now`; `None` until the domain's first report. This
    /// is the controller's query surface under degraded telemetry:
    /// `coverage < 1` flags partial sweeps, a growing `age` flags lost
    /// ones.
    pub fn domain_reading(&self, domain: u64, now: SimTime) -> Option<DomainReading> {
        let (_, power_w) = self.db.latest(SeriesKey::domain(domain))?;
        let meta = self.domain_meta.get(&domain)?;
        Some(DomainReading {
            power_w,
            coverage: coverage(meta.reported, self.domain_expected.get(&domain).copied()),
            age: now.since(meta.at),
        })
    }

    /// Full domain power history with timestamps — what a replacement
    /// controller cold-starts its `Et` predictor from after a failover
    /// (the paper's §3.5: all state worth keeping lives in the
    /// time-series database, not the controller).
    pub fn domain_points(&self, domain: u64) -> &[(SimTime, f64)] {
        self.db.series(SeriesKey::domain(domain))
    }
}

/// Reported-over-expected coverage, clamped to `[0, 1]`; unknown
/// populations read as full coverage.
fn coverage(reported: usize, expected: Option<usize>) -> f64 {
    match expected {
        Some(n) if n > 0 => (reported as f64 / n as f64).min(1.0),
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(at_min: u64) -> (SimTime, Vec<ServerSample>) {
        let at = SimTime::from_mins(at_min);
        let samples = vec![
            ServerSample {
                server: 0,
                rack: 0,
                row: 0,
                watts: 100.0,
            },
            ServerSample {
                server: 1,
                rack: 0,
                row: 0,
                watts: 150.0,
            },
            ServerSample {
                server: 2,
                rack: 1,
                row: 0,
                watts: 200.0,
            },
            ServerSample {
                server: 3,
                rack: 2,
                row: 1,
                watts: 250.0,
            },
        ];
        (at, samples)
    }

    #[test]
    fn aggregates_levels() {
        let mut mon = PowerMonitor::paper_default();
        let (at, samples) = sweep(1);
        mon.ingest(at, &samples);
        assert_eq!(mon.latest_row_power(0), Some(450.0));
        assert_eq!(mon.latest_row_power(1), Some(250.0));
        assert_eq!(
            mon.db().latest(SeriesKey::rack(0)).map(|(_, v)| v),
            Some(250.0)
        );
        assert_eq!(
            mon.db().latest(SeriesKey::data_center()).map(|(_, v)| v),
            Some(700.0)
        );
    }

    #[test]
    fn history_accumulates() {
        let mut mon = PowerMonitor::paper_default();
        for m in 1..=5 {
            let (at, samples) = sweep(m);
            mon.ingest(at, &samples);
        }
        assert_eq!(mon.row_history(0), vec![450.0; 5]);
        assert_eq!(mon.db().len(SeriesKey::data_center()), 5);
    }

    #[test]
    fn domain_series_back_failover_cold_starts() {
        let mut mon = PowerMonitor::paper_default();
        mon.track_domain(0, 8);
        assert!(mon.domain_reading(0, SimTime::from_mins(1)).is_none());
        for m in 1..=5 {
            mon.ingest_domain(SimTime::from_mins(m), 0, 1_000.0 + m as f64, 8);
        }
        // An empty report stores nothing; the reading just ages.
        mon.ingest_domain(SimTime::from_mins(6), 0, 0.0, 0);
        let r = mon.domain_reading(0, SimTime::from_mins(6)).unwrap();
        assert_eq!(r.power_w, 1_005.0);
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.age, SimDuration::from_mins(1));
        // The history a replacement predictor refits from.
        assert_eq!(mon.domain_points(0).len(), 5);
        assert_eq!(mon.domain_points(0)[0], (SimTime::from_mins(1), 1_001.0));

        // Partial coverage propagates into the reading.
        mon.ingest_domain(SimTime::from_mins(7), 0, 500.0, 4);
        let r = mon.domain_reading(0, SimTime::from_mins(7)).unwrap();
        assert_eq!(r.coverage, 0.5);
        assert_eq!(r.estimate_w(), 1_000.0);
    }

    #[test]
    fn sweep_events_join_the_active_tick() {
        use ampere_telemetry::{RingBufferSink, Telemetry};

        let (sink, events) = RingBufferSink::new(8);
        let tel = Telemetry::builder().sink(sink).build();
        let mut mon = PowerMonitor::with_telemetry(tel.clone());

        // No controller tick registered yet: the sweep is untraced.
        let (at, samples) = sweep(1);
        mon.ingest(at, &samples);
        let first = events.events().pop().unwrap();
        assert_eq!(first.name, "sweep");
        assert!(first.span.is_none());
        assert_eq!(first.field("dc_power_w").unwrap().as_f64(), Some(700.0));

        // With an active tick, the sweep joins its trace.
        let tick = tel.root_span();
        tel.set_active_tick(tick);
        let (at, samples) = sweep(2);
        mon.ingest(at, &samples);
        assert_eq!(events.events().pop().unwrap().span, tick);
    }
}
