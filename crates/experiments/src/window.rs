//! The summary of a measured window of tick records: the only
//! record-based definition of exceedance (DESIGN.md §7). It counts
//! *breaker violations*, the ticks a domain's breaker flagged (the
//! paper's violation minutes), apart from *over-budget row-ticks*
//! against a budget the caller gives, which may differ from the
//! breaker's. A quantity that combines several domains tick by tick is
//! not a window of records and stays with its experiment.

use crate::testbed::DomainTickRecord;

/// What the tick records of a measured window add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Records summarized (domain-ticks over several domains).
    pub ticks: u64,
    /// Ticks the breaker flagged over the domain's breaker budget.
    pub breaker_violations: u64,
    /// Row-ticks whose measured power exceeds the given budget.
    pub over_budget_row_ticks: u64,
    /// Jobs placed on the domain's servers.
    pub placed: u64,
    /// Freeze actions the controller actuated.
    pub froze: u64,
    /// Unfreeze actions the controller actuated.
    pub unfroze: u64,
    /// Frozen servers summed over ticks.
    pub frozen_server_ticks: u64,
    /// Ticks the controller ran in degraded mode.
    pub degraded_ticks: u64,
    /// Ticks that ended with the capping backstop armed.
    pub backstop_ticks: u64,
    /// Lowest per-tick sample coverage (1.0 for no ticks).
    pub min_coverage: f64,
    /// Peak measured power in watts (0.0 for no ticks).
    pub peak_w: f64,
    /// Freezing ratios summed over ticks.
    pub u_sum: f64,
    /// Peak freezing ratio.
    pub u_max: f64,
    /// Budget-normalized power summed over ticks.
    pub p_sum: f64,
    /// Peak budget-normalized power.
    pub p_max: f64,
}

impl WindowStats {
    /// Summarizes one domain's `records`, counting over-budget ticks
    /// against `budget_w` watts.
    pub fn of(records: &[DomainTickRecord], budget_w: f64) -> Self {
        Self::of_all([records], budget_w)
    }

    /// Summarizes the windows of several domains (rows) as one, in the
    /// order given.
    pub fn of_all<'a>(
        windows: impl IntoIterator<Item = &'a [DomainTickRecord]>,
        budget_w: f64,
    ) -> Self {
        let mut w = Self {
            min_coverage: 1.0,
            // -0.0 is the identity of float addition, as in `Iterator::sum`.
            u_sum: -0.0,
            p_sum: -0.0,
            ..Self::default()
        };
        for r in windows.into_iter().flatten() {
            w.ticks += 1;
            w.breaker_violations += u64::from(r.violation);
            w.over_budget_row_ticks += u64::from(r.power_w > budget_w);
            w.placed += r.placed_jobs;
            w.froze += r.froze as u64;
            w.unfroze += r.unfroze as u64;
            w.frozen_server_ticks += r.frozen as u64;
            w.degraded_ticks += u64::from(r.degraded);
            w.backstop_ticks += u64::from(r.backstop_armed);
            w.min_coverage = w.min_coverage.min(r.coverage);
            w.peak_w = w.peak_w.max(r.power_w);
            w.u_sum += r.freezing_ratio;
            w.u_max = w.u_max.max(r.freezing_ratio);
            w.p_sum += r.power_norm;
            w.p_max = w.p_max.max(r.power_norm);
        }
        w
    }

    /// Mean freezing ratio per tick.
    pub fn u_mean(&self) -> f64 {
        self.u_sum / self.ticks.max(1) as f64
    }

    /// Mean budget-normalized power per tick.
    pub fn p_mean(&self) -> f64 {
        self.p_sum / self.ticks.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(power_w: f64, degraded: bool) -> DomainTickRecord {
        DomainTickRecord {
            power_w,
            power_norm: power_w / 100.0,
            violation: power_w > 100.0,
            frozen: 2,
            placed_jobs: 3,
            coverage: if degraded { 0.5 } else { 1.0 },
            degraded,
            ..DomainTickRecord::default()
        }
    }

    #[test]
    fn counts_breaker_flags_apart_from_row_ticks_over_the_given_budget() {
        // The breaker's budget is 100 W; the control budget is 92 W.
        let row = [
            record(90.0, false),
            record(105.0, true),
            record(95.0, false),
        ];
        let w = WindowStats::of(&row, 92.0);
        assert_eq!((w.breaker_violations, w.over_budget_row_ticks), (1, 2));
        assert_eq!(
            (w.placed, w.frozen_server_ticks, w.degraded_ticks),
            (9, 6, 1)
        );
        assert_eq!((w.min_coverage, w.peak_w, w.p_max), (0.5, 105.0, 1.05));
        // Over two rows, a tick on which both exceed counts twice.
        let both = WindowStats::of_all([&row[..], &row[..]], 92.0);
        assert_eq!((both.ticks, both.over_budget_row_ticks), (6, 4));
    }
}
