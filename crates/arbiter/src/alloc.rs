//! The global budget arbiter: forecast-weighted proportional share.

use ampere_sim::SimTime;
use ampere_telemetry::{Event, Severity, Telemetry};

use crate::config::{ArbiterConfig, ArbiterConfigError};

/// What the arbiter knows about one row when it reallocates. Health is
/// derived by the driver from the row's own records (degraded ticks,
/// backstop arming, coverage) — never from siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowHealth {
    /// The row's controller is nominal; it receives its nominal share.
    Healthy,
    /// The row's controller is degraded (stale/gappy telemetry); its
    /// grant is conservatively pinned at the floor.
    Degraded,
    /// The row's controller is dark (outage, watchdog-armed backstop);
    /// its grant is conservatively pinned at the floor.
    Dark,
}

impl RowHealth {
    /// Whether this health pins the row's grant to its floor.
    pub fn pinned(self) -> bool {
        !matches!(self, RowHealth::Healthy)
    }
}

/// One reallocation round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRound {
    /// Round counter (0-based).
    pub round: u64,
    /// Sim time of the round.
    pub at: SimTime,
    /// Actuated per-row budgets, in watts (pinned rows at their floor).
    pub grants_w: Vec<f64>,
    /// Forecast-weighted allocation before pinning — what each row
    /// would receive if every row were healthy. Fault-independent.
    pub nominal_w: Vec<f64>,
    /// Passive reserve: substation budget minus the actuated grants
    /// (pinned surplus plus any ceiling-bound remainder). Reported as
    /// substation headroom, never actuated into sibling budgets.
    pub reserve_w: f64,
    /// Whether hysteresis held the previous nominal vector unchanged.
    pub held: bool,
}

/// Reallocates the substation budget across rows once per grant period.
///
/// The allocation is a pure function of the (fault-independent) weight
/// vector plus the arbiter's own hysteresis state; row health only ever
/// *lowers* the faulted row's grant to its floor. See the crate docs
/// for why that makes healthy-row grants bit-identical under sibling
/// faults.
pub struct BudgetArbiter {
    config: ArbiterConfig,
    telemetry: Telemetry,
    /// Nominal vector of the last issued round (hysteresis reference).
    last_nominal: Option<Vec<f64>>,
    rounds: u64,
}

impl BudgetArbiter {
    /// Builds an arbiter, validating the configuration. Panics on an
    /// invalid one; use [`BudgetArbiter::try_new`] for the typed error.
    pub fn new(config: ArbiterConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an arbiter, reporting into the global telemetry pipeline
    /// (no-op unless installed).
    pub fn try_new(config: ArbiterConfig) -> Result<Self, ArbiterConfigError> {
        Self::try_with_telemetry(config, ampere_telemetry::global())
    }

    /// Like [`BudgetArbiter::try_new`] with an explicit pipeline.
    pub fn try_with_telemetry(
        config: ArbiterConfig,
        telemetry: Telemetry,
    ) -> Result<Self, ArbiterConfigError> {
        config.validate()?;
        Ok(Self {
            config,
            telemetry,
            last_nominal: None,
            rounds: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Number of rows under arbitration.
    pub fn rows(&self) -> usize {
        self.config.floors_w.len()
    }

    /// Runs one reallocation round. `weights` are forecast-derived
    /// utilization weights (one per row); `health` is each row's own
    /// health. Panics on mismatched lengths; use
    /// [`BudgetArbiter::try_reallocate`] for the typed error.
    pub fn reallocate(&mut self, at: SimTime, weights: &[f64], health: &[RowHealth]) -> GrantRound {
        self.try_reallocate(at, weights, health)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one reallocation round, surfacing a typed error when the
    /// weight or health vector does not match the configured row count.
    pub fn try_reallocate(
        &mut self,
        at: SimTime,
        weights: &[f64],
        health: &[RowHealth],
    ) -> Result<GrantRound, ArbiterConfigError> {
        let rows = self.rows();
        if weights.len() != rows || health.len() != rows {
            return Err(ArbiterConfigError::MismatchedRows {
                floors: rows,
                ceilings: weights.len().min(health.len()),
            });
        }
        let fresh = self.water_fill(weights);
        // Round-level hysteresis: hold the whole previous vector unless
        // some row's nominal share moved by more than the threshold.
        // (Per-row holds could mix old and new shares past the budget.)
        let (nominal, held) = match &self.last_nominal {
            Some(last)
                if last.iter().zip(&fresh).all(|(&o, &n)| {
                    (n - o).abs() <= self.config.hysteresis * o.max(f64::MIN_POSITIVE)
                }) =>
            {
                (last.clone(), true)
            }
            _ => (fresh, false),
        };
        self.last_nominal = Some(nominal.clone());

        let grants_w: Vec<f64> = nominal
            .iter()
            .zip(health)
            .zip(&self.config.floors_w)
            .map(|((&n, h), &floor)| if h.pinned() { floor } else { n })
            .collect();
        let reserve_w = self.config.substation_budget_w - grants_w.iter().sum::<f64>();
        let round = GrantRound {
            round: self.rounds,
            at,
            grants_w,
            nominal_w: nominal,
            reserve_w,
            held,
        };
        self.rounds += 1;
        self.emit(&round, health);
        Ok(round)
    }

    /// Floors first, then the remainder proportionally to weight with
    /// per-row ceilings; overflow past a ceiling re-fills the rows that
    /// still have room. Zero total weight degrades to an equal split.
    fn water_fill(&self, weights: &[f64]) -> Vec<f64> {
        let floors = &self.config.floors_w;
        let ceilings = &self.config.ceilings_w;
        let mut grant = floors.clone();
        let mut remaining = self.config.substation_budget_w - floors.iter().sum::<f64>();
        let mut active: Vec<usize> = (0..grant.len()).collect();
        while remaining > 1e-9 && !active.is_empty() {
            let wsum: f64 = active.iter().map(|&i| weights[i].max(0.0)).sum();
            let share = |i: usize| {
                if wsum > 0.0 {
                    weights[i].max(0.0) / wsum
                } else {
                    1.0 / active.len() as f64
                }
            };
            let mut overflow = 0.0;
            let mut next = Vec::with_capacity(active.len());
            for &i in &active {
                let add = remaining * share(i);
                let room = ceilings[i] - grant[i];
                if add >= room {
                    grant[i] = ceilings[i];
                    overflow += add - room;
                } else {
                    grant[i] += add;
                    next.push(i);
                }
            }
            // Zero-weight rows soak nothing; drop them once the split
            // is weighted, or the loop would never converge.
            if wsum > 0.0 {
                next.retain(|&i| weights[i] > 0.0);
            }
            remaining = overflow;
            active = next;
        }
        grant
    }

    fn emit(&self, round: &GrantRound, health: &[RowHealth]) {
        let pinned = health.iter().filter(|h| h.pinned()).count();
        self.telemetry.emit_with(|| {
            Event::new(round.at, Severity::Info, "arbiter", "reallocate")
                .with("round", round.round)
                .with("budget_w", self.config.substation_budget_w)
                .with("reserve_w", round.reserve_w)
                .with("held", round.held)
                .with("pinned", pinned as u64)
        });
        for (row, &granted) in round.grants_w.iter().enumerate() {
            self.telemetry.emit_with(|| {
                Event::new(round.at, Severity::Info, "arbiter", "grant")
                    .with("round", round.round)
                    .with("row", row as u64)
                    .with("budget_w", granted)
                    .with("nominal_w", round.nominal_w[row])
                    .with("floor_w", self.config.floors_w[row])
                    .with("pinned", health[row].pinned())
            });
        }
    }
}

impl std::fmt::Debug for BudgetArbiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetArbiter")
            .field("config", &self.config)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rows: usize, budget: f64) -> ArbiterConfig {
        ArbiterConfig {
            substation_budget_w: budget,
            floors_w: vec![budget * 0.15; rows],
            ceilings_w: vec![budget * 0.70; rows],
            grant_period_mins: 5,
            hysteresis: 0.02,
        }
    }

    fn healthy(rows: usize) -> Vec<RowHealth> {
        vec![RowHealth::Healthy; rows]
    }

    #[test]
    fn proportional_split_follows_weights_and_conserves_budget() {
        let mut arb = BudgetArbiter::new(config(3, 90_000.0));
        let r = arb.reallocate(SimTime::from_mins(5), &[1.0, 2.0, 3.0], &healthy(3));
        assert!((r.grants_w.iter().sum::<f64>() - 90_000.0).abs() < 1e-6);
        assert!(r.grants_w[0] < r.grants_w[1] && r.grants_w[1] < r.grants_w[2]);
        for (g, f) in r.grants_w.iter().zip(&arb.config().floors_w) {
            assert!(g >= f);
        }
        assert!(r.reserve_w.abs() < 1e-6);
    }

    #[test]
    fn ceilings_bind_and_leave_reserve() {
        let mut cfg = config(2, 100_000.0);
        cfg.ceilings_w = vec![40_000.0, 40_000.0];
        let mut arb = BudgetArbiter::new(cfg);
        let r = arb.reallocate(SimTime::from_mins(5), &[1.0, 1.0], &healthy(2));
        assert_eq!(r.grants_w, vec![40_000.0, 40_000.0]);
        assert!((r.reserve_w - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn overflow_past_one_ceiling_refills_the_other() {
        let mut cfg = config(2, 100_000.0);
        cfg.ceilings_w = vec![30_000.0, 90_000.0];
        let mut arb = BudgetArbiter::new(cfg);
        // Row 0 wants most of the budget but caps at 30 kW; the excess
        // must flow to row 1, not evaporate.
        let r = arb.reallocate(SimTime::from_mins(5), &[10.0, 1.0], &healthy(2));
        assert_eq!(r.grants_w[0], 30_000.0);
        assert!((r.grants_w[1] - 70_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_weights_degrade_to_equal_split() {
        let mut arb = BudgetArbiter::new(config(2, 80_000.0));
        let r = arb.reallocate(SimTime::from_mins(5), &[0.0, 0.0], &healthy(2));
        assert!((r.grants_w[0] - r.grants_w[1]).abs() < 1e-6);
    }

    #[test]
    fn hysteresis_holds_small_drift_and_releases_large_shifts() {
        let mut arb = BudgetArbiter::new(config(2, 100_000.0));
        let a = arb.reallocate(SimTime::from_mins(5), &[1.0, 1.0], &healthy(2));
        assert!(!a.held);
        // 1% weight drift moves shares well under the 2% hysteresis.
        let b = arb.reallocate(SimTime::from_mins(10), &[1.01, 1.0], &healthy(2));
        assert!(b.held);
        assert_eq!(b.grants_w, a.grants_w);
        let c = arb.reallocate(SimTime::from_mins(15), &[3.0, 1.0], &healthy(2));
        assert!(!c.held);
        assert!(c.grants_w[0] > a.grants_w[0]);
    }

    #[test]
    fn pinned_rows_take_the_floor_and_never_perturb_siblings() {
        let weights = [1.0, 2.0, 1.5];
        let mut clean = BudgetArbiter::new(config(3, 90_000.0));
        let mut faulted = BudgetArbiter::new(config(3, 90_000.0));
        for m in 1..=6u64 {
            let at = SimTime::from_mins(m * 5);
            let a = clean.reallocate(at, &weights, &healthy(3));
            let b = faulted.reallocate(
                at,
                &weights,
                &[RowHealth::Healthy, RowHealth::Dark, RowHealth::Healthy],
            );
            // The isolation contract, at the arbiter level: healthy
            // rows' grants are bit-identical whether a sibling is
            // faulted or not, and the pinned surplus goes to reserve.
            assert_eq!(a.grants_w[0].to_bits(), b.grants_w[0].to_bits());
            assert_eq!(a.grants_w[2].to_bits(), b.grants_w[2].to_bits());
            assert_eq!(b.grants_w[1], faulted.config().floors_w[1]);
            assert!(b.reserve_w > 0.0);
            assert!(b.grants_w.iter().sum::<f64>() <= 90_000.0 + 1e-6);
        }
    }

    #[test]
    fn try_reallocate_surfaces_mismatched_rows() {
        let mut arb = BudgetArbiter::new(config(2, 80_000.0));
        let err = arb
            .try_reallocate(SimTime::from_mins(5), &[1.0], &healthy(2))
            .unwrap_err();
        assert!(matches!(err, ArbiterConfigError::MismatchedRows { .. }));
    }

    #[test]
    fn rounds_emit_reallocate_and_grant_events() {
        use ampere_telemetry::{RingBufferSink, Telemetry};
        let (sink, events) = RingBufferSink::new(16);
        let tel = Telemetry::builder().sink(sink).build();
        let mut arb = BudgetArbiter::try_with_telemetry(config(2, 80_000.0), tel).unwrap();
        arb.reallocate(SimTime::from_mins(5), &[1.0, 1.0], &healthy(2));
        let evs = events.events();
        let names: Vec<_> = evs.iter().map(|e| (e.component, e.name)).collect();
        assert_eq!(
            names,
            vec![
                ("arbiter", "reallocate"),
                ("arbiter", "grant"),
                ("arbiter", "grant")
            ]
        );
        let grant = &evs[1];
        assert_eq!(grant.field("row").unwrap().as_u64(), Some(0));
        assert!(grant.field("budget_w").is_some());
        assert!(grant.field("floor_w").is_some());
    }

    #[test]
    #[should_panic(expected = "over-committed floors")]
    fn new_panics_on_invalid_config() {
        let mut cfg = config(2, 10_000.0);
        cfg.floors_w = vec![8_000.0, 8_000.0];
        cfg.ceilings_w = vec![9_000.0, 9_000.0];
        let _ = BudgetArbiter::new(cfg);
    }
}
