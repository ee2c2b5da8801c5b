//! Window algebra: incremental tumbling accumulators, a fixed-bucket
//! power histogram for streaming p99, and sliding-window merges.
//!
//! Every update is O(1) per event and every merge is O(buckets), so the
//! engine stays inside the hot-path overhead bar regardless of run
//! length. Sliding views are *sums of tumbling windows* — the histogram
//! is mergeable, so a K-window sliding p99 costs one bucket-wise add at
//! each window close, never a re-scan of raw samples.

use ampere_sim::SimTime;
use ampere_telemetry::SpanCtx;

/// Histogram buckets for normalized power: 0.00..2.00 in 0.01 steps.
const BUCKETS: usize = 200;
/// Bucket width in normalized-power units.
const BUCKET_WIDTH: f64 = 0.01;

/// Fixed-bucket histogram of normalized power with one overflow bucket;
/// mergeable, so sliding windows are bucket-wise sums of tumbling ones.
#[derive(Debug, Clone)]
pub(crate) struct PowerHistogram {
    counts: [u64; BUCKETS + 1],
    total: u64,
}

impl PowerHistogram {
    pub fn new() -> Self {
        PowerHistogram {
            counts: [0; BUCKETS + 1],
            total: 0,
        }
    }

    pub fn record(&mut self, v: f64) {
        let idx = if v < 0.0 {
            0
        } else {
            ((v / BUCKET_WIDTH) as usize).min(BUCKETS)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &PowerHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Upper bound of the bucket containing the q-quantile (0.0 when
    /// empty). Bucketed, so accurate to `BUCKET_WIDTH`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (idx as f64 + 1.0) * BUCKET_WIDTH;
            }
        }
        (BUCKETS as f64 + 1.0) * BUCKET_WIDTH
    }
}

/// One tumbling window being accumulated (engine-internal).
#[derive(Debug, Clone)]
pub(crate) struct WindowAccum {
    /// Window index within the segment: `floor(t / window_len)`.
    pub index: u64,
    /// Closed ticks folded in (controller-driven or not).
    pub ticks: u64,
    /// Ticks that carried a controller decision (power known).
    pub power_ticks: u64,
    pub power_sum: f64,
    pub power_max: f64,
    pub hist: PowerHistogram,
    /// Freeze + unfreeze count.
    pub churn: u64,
    pub degraded_ticks: u64,
    pub backstop_ticks: u64,
    pub violations: u64,
    /// Controller ticks with `power_norm >` [`P_OVER_MARGIN`](crate::P_OVER_MARGIN).
    pub over_ticks: u64,
    /// Arbiter reallocation rounds folded in.
    pub arb_rounds: u64,
    /// Rounds with ≥ 1 row pinned at its floor while the arbiter held
    /// reclaimable surplus in reserve.
    pub starved_rounds: u64,
    /// Minimum Et headroom seen (INFINITY when power never known).
    pub min_headroom: f64,
    /// Span of the last controller tick folded in (window-close rule
    /// firings link to it).
    pub last_span: SpanCtx,
}

impl WindowAccum {
    pub fn new(index: u64) -> Self {
        WindowAccum {
            index,
            ticks: 0,
            power_ticks: 0,
            power_sum: 0.0,
            power_max: 0.0,
            hist: PowerHistogram::new(),
            churn: 0,
            degraded_ticks: 0,
            backstop_ticks: 0,
            violations: 0,
            over_ticks: 0,
            arb_rounds: 0,
            starved_rounds: 0,
            min_headroom: f64::INFINITY,
            last_span: SpanCtx::NONE,
        }
    }
}

/// One closed window's rollup record: per-window stats plus the sliding
/// view (this window merged with its trailing neighbours).
#[derive(Debug, Clone)]
pub struct WindowRollup {
    /// Monotone segment number (see crate docs).
    pub segment: u64,
    /// Pass label in effect ("run" unless a marker renamed it).
    pub pass: String,
    /// Window index within the segment.
    pub index: u64,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Closed ticks folded in.
    pub ticks: u64,
    /// Ticks with a controller decision.
    pub power_ticks: u64,
    /// Mean normalized power over controller ticks (0 when none).
    pub power_mean: f64,
    /// Max normalized power.
    pub power_max: f64,
    /// Bucketed p99 of normalized power.
    pub power_p99: f64,
    /// p99 over the sliding view (last K windows).
    pub sliding_p99: f64,
    /// Freeze + unfreeze churn this window.
    pub churn: u64,
    /// Churn over the sliding view.
    pub sliding_churn: u64,
    /// Ticks in degraded mode.
    pub degraded_ticks: u64,
    /// Ticks with the watchdog backstop armed.
    pub backstop_ticks: u64,
    /// Breaker violation events this window.
    pub violations: u64,
    /// Arbiter reallocation rounds this window (0 for single-row runs).
    pub arb_rounds: u64,
    /// Rounds where a row sat pinned at its floor while the arbiter
    /// held reclaimable reserve — the starvation gauge's numerator.
    pub starved_rounds: u64,
    /// Empirical P(power_norm > margin) over controller ticks.
    pub p_over: f64,
    /// Minimum Et headroom; `None` when power was never known.
    pub min_headroom: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_hits_expected_bucket() {
        let mut h = PowerHistogram::new();
        for _ in 0..99 {
            h.record(0.50);
        }
        h.record(1.20);
        // p50 sits in the 0.50 bucket, p99 still below the outlier,
        // p100 catches it.
        assert!((h.quantile(0.5) - 0.51).abs() < 1e-9);
        assert!((h.quantile(0.99) - 0.51).abs() < 1e-9);
        assert!((h.quantile(1.0) - 1.21).abs() < 1e-9);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = PowerHistogram::new();
        let mut b = PowerHistogram::new();
        for _ in 0..10 {
            a.record(0.3);
            b.record(0.9);
        }
        a.merge(&b);
        assert_eq!(a.total, 20);
        assert!((a.quantile(1.0) - 0.91).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = PowerHistogram::new();
        h.record(-1.0);
        h.record(50.0);
        assert_eq!(h.total, 2);
        // Overflow bucket upper bound.
        assert!(h.quantile(1.0) > 2.0);
    }
}
