//! Property-based tests for the power substrate: model envelope,
//! capping soundness across modes, time-series query correctness and
//! monitor aggregation.

use ampere_power::monitor::{SeriesKey, ServerSample};
use ampere_power::{
    CappingConfig, CappingMode, CircuitBreaker, DvfsState, PowerMonitor, RaplCapper,
    ServerPowerModel, TimeSeriesDb,
};
use ampere_sim::check::cases;
use ampere_sim::SimTime;

/// Power is always within [idle, rated] and monotone in both
/// utilization and frequency.
#[test]
fn power_envelope_and_monotonicity() {
    cases(128, |g| {
        let rated = g.f64(100.0..500.0);
        let idle_frac = g.f64(0.2..0.9);
        let gamma = g.f64(0.5..2.0);
        let u1 = g.f64(0.0..1.0);
        let u2 = g.f64(0.0..1.0);
        let f1 = g.f64(0.4..1.0);
        let f2 = g.f64(0.4..1.0);
        let m = ServerPowerModel::new(rated, idle_frac, gamma);
        let p = m.power_w(u1, DvfsState::at(f1));
        assert!(p >= m.idle_w() - 1e-9);
        assert!(p <= m.rated_w + 1e-9);
        let (ulo, uhi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        assert!(m.power_w(ulo, DvfsState::at(f1)) <= m.power_w(uhi, DvfsState::at(f1)) + 1e-9);
        let (flo, fhi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        assert!(m.power_w(u1, DvfsState::at(flo)) <= m.power_w(u1, DvfsState::at(fhi)) + 1e-9);
    });
}

/// `freq_for_power` inverts the power curve whenever the target is
/// achievable within the DVFS range.
#[test]
fn freq_for_power_inverse() {
    cases(128, |g| {
        let util = g.f64(0.05..1.0);
        let freq = g.f64(0.45..1.0);
        let m = ServerPowerModel::default();
        let target = m.power_w(util, DvfsState::at(freq));
        let f = m.freq_for_power(util, target, DvfsState::MIN_FREQ);
        assert!((f - freq).abs() < 1e-9, "recovered {f}, expected {freq}");
    });
}

/// Capping in both modes: delivered ≤ demand, delivered ≤ limit when
/// reachable, no-op below the limit.
#[test]
fn capping_modes_sound() {
    cases(96, |g| {
        let utils = g.vec_f64(0.0..1.0, 1..80);
        let limit_scale = g.f64(0.4..1.5);
        let per_server = g.bool();
        let servers: Vec<(ServerPowerModel, f64)> = utils
            .iter()
            .map(|&u| (ServerPowerModel::default(), u))
            .collect();
        let capper = RaplCapper::new(CappingConfig {
            mode: if per_server {
                CappingMode::PerServerShare
            } else {
                CappingMode::UniformGroup
            },
            ..CappingConfig::default()
        });
        let nominal_demand: f64 = servers
            .iter()
            .map(|(m, u)| m.power_w(*u, DvfsState::nominal()))
            .sum();
        let limit = nominal_demand * limit_scale;
        let out = capper.cap_row(&servers, limit);
        assert!((out.demand_w - nominal_demand).abs() < 1e-6);
        assert!(out.delivered_w <= out.demand_w + 1e-9);
        if limit >= nominal_demand {
            assert!(!out.engaged());
            assert!((out.delivered_w - out.demand_w).abs() < 1e-9);
        }
        // DVFS cannot go below MIN_FREQ: each server's floor is
        // idle + dynamic · MIN_FREQ². In per-server mode a light server
        // may legitimately deliver up to its (unused) share, so the
        // bound is mode-specific.
        let min_s = DvfsState::MIN_FREQ * DvfsState::MIN_FREQ;
        let floors: Vec<f64> = servers
            .iter()
            .map(|(m, u)| {
                let dynamic = m.power_w(*u, DvfsState::nominal()) - m.idle_w();
                m.idle_w() + dynamic * min_s
            })
            .collect();
        let bound = if per_server {
            let share = limit * 0.98 / servers.len() as f64;
            floors.iter().map(|f| f.max(share)).sum::<f64>()
        } else {
            floors.iter().sum::<f64>()
        };
        assert!(
            out.delivered_w <= limit.max(bound) + 1e-6,
            "delivered {} > max(limit {limit}, bound {bound})",
            out.delivered_w
        );
    });
}

/// Time-series range queries agree with a naive filter.
#[test]
fn tsdb_range_matches_naive() {
    cases(128, |g| {
        let values = g.vec_f64(0.0..100.0, 1..100);
        let start = g.u64(0..120);
        let end = g.u64(0..120);
        let mut db = TimeSeriesDb::new();
        let key = SeriesKey::row(0);
        for (m, &v) in values.iter().enumerate() {
            db.append(key, SimTime::from_mins(m as u64), v);
        }
        let (start, end) = (
            SimTime::from_mins(start.min(end)),
            SimTime::from_mins(start.max(end)),
        );
        let got = db.range(key, start, end);
        let expected: Vec<(SimTime, f64)> = values
            .iter()
            .enumerate()
            .map(|(m, &v)| (SimTime::from_mins(m as u64), v))
            .filter(|&(t, _)| t >= start && t < end)
            .collect();
        assert_eq!(got, expected.as_slice());
    });
}

/// Retention trims exactly the prefix.
#[test]
fn tsdb_trim_is_exact() {
    cases(128, |g| {
        let n = g.usize(1..100);
        let cut = g.u64(0..120);
        let mut db = TimeSeriesDb::new();
        let key = SeriesKey::rack(3);
        for m in 0..n {
            db.append(key, SimTime::from_mins(m as u64), m as f64);
        }
        db.trim_before(SimTime::from_mins(cut));
        let remaining = db.series(key);
        assert!(remaining.iter().all(|&(t, _)| t >= SimTime::from_mins(cut)));
        assert_eq!(remaining.len(), n.saturating_sub(cut as usize));
    });
}

/// The monitor's aggregates equal the sums of their members for any
/// topology assignment.
#[test]
fn monitor_aggregation_exact() {
    cases(96, |g| {
        let watts = g.vec_f64(50.0..300.0, 1..60);
        let racks = g.vec_with(60..60, |g| g.u64(0..5));
        let mut mon = PowerMonitor::paper_default();
        let samples: Vec<ServerSample> = watts
            .iter()
            .enumerate()
            .map(|(i, &w)| ServerSample {
                server: i as u64,
                rack: racks[i],
                row: racks[i] / 2,
                watts: w,
            })
            .collect();
        mon.ingest(SimTime::from_mins(1), &samples);
        let total: f64 = watts.iter().sum();
        let (_, dc) = mon.db().latest(SeriesKey::data_center()).unwrap();
        assert!((dc - total).abs() < 1e-9);
        for rack in 0..5u64 {
            let expected: f64 = samples
                .iter()
                .filter(|s| s.rack == rack)
                .map(|s| s.watts)
                .sum();
            match mon.db().latest(SeriesKey::rack(rack)) {
                Some((_, v)) => assert!((v - expected).abs() < 1e-9),
                None => assert_eq!(expected, 0.0),
            }
        }
    });
}

/// The breaker counts exactly the over-limit samples and trips only on
/// sustained runs.
#[test]
fn breaker_counting_exact() {
    cases(96, |g| {
        let deltas = g.vec_f64(-50.0..50.0, 1..200);
        let trip_after = g.u32(1..8);
        let mut b = CircuitBreaker::new(100.0, trip_after);
        let mut expected_violations = 0u64;
        let mut run = 0u32;
        let mut expected_trip: Option<usize> = None;
        for (i, &d) in deltas.iter().enumerate() {
            let p = 100.0 + d;
            b.observe(SimTime::from_mins(i as u64), p);
            if p > 100.0 {
                expected_violations += 1;
                run += 1;
                if run >= trip_after && expected_trip.is_none() {
                    expected_trip = Some(i);
                }
            } else {
                run = 0;
            }
        }
        assert_eq!(b.violations(), expected_violations);
        assert_eq!(
            b.tripped_at(),
            expected_trip.map(|i| SimTime::from_mins(i as u64))
        );
    });
}
