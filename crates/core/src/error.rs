//! Typed validation errors for caller-supplied control parameters.
//!
//! Constructors used to `assert!` on bad input. Every validating
//! constructor now has a `try_*` form returning this error so embedding
//! hosts can reject configurations without unwinding; the panicking
//! forms remain and surface the error's `Display` output (which keeps
//! the historical assert messages callers match on).

/// Why a core-crate constructor rejected its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlConfigError {
    /// [`crate::ControllerConfig`] requires a positive, finite `kr`.
    BadKr(f64),
    /// [`crate::ControllerConfig`] requires `0 < u_max <= 1`.
    BadUMax(f64),
    /// [`crate::FreezePlanner`] requires `0 <= r_stable <= 1`.
    BadRStable(f64),
    /// [`crate::HistoricalPercentile`] requires a percentile in
    /// `[0, 100]`.
    BadPercentile(f64),
    /// [`crate::HistoricalPercentile`] requires `default_et >= 0`.
    BadDefaultEt(f64),
    /// [`crate::HistoricalPercentile`] tables must be non-negative and
    /// finite.
    BadTable(f64),
    /// [`crate::HistoricalPercentile`] floors must be non-negative and
    /// finite.
    BadFloor(f64),
    /// [`crate::EwmaPredictor`] requires `0 < alpha <= 1`.
    BadAlpha(f64),
    /// [`crate::EwmaPredictor`] requires non-negative cushion/floor.
    BadCushionOrFloor,
    /// [`crate::ArPredictor`] requires `0 < decay <= 1`.
    BadDecay(f64),
    /// Degraded-mode policy requires `0 < min_coverage <= 1`.
    BadMinCoverage(f64),
    /// Degraded-mode policy requires non-negative, finite drift.
    BadDrift(f64),
    /// Watchdog thresholds must be positive.
    BadWatchdogThreshold,
}

impl std::fmt::Display for ControlConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadKr(v) => write!(f, "bad kr: {v}"),
            Self::BadUMax(v) => write!(f, "bad u_max: {v}"),
            Self::BadRStable(v) => write!(f, "bad r_stable: {v}"),
            Self::BadPercentile(v) => write!(f, "bad percentile: {v}"),
            Self::BadDefaultEt(v) => write!(f, "bad default Et: {v}"),
            Self::BadTable(v) => write!(f, "bad table entry: {v}"),
            Self::BadFloor(v) => write!(f, "bad floor: {v}"),
            Self::BadAlpha(v) => write!(f, "bad alpha: {v}"),
            Self::BadCushionOrFloor => write!(f, "bad cushion/floor"),
            Self::BadDecay(v) => write!(f, "bad decay: {v}"),
            Self::BadMinCoverage(v) => write!(f, "bad min_coverage: {v}"),
            Self::BadDrift(v) => write!(f, "bad drift_per_min: {v}"),
            Self::BadWatchdogThreshold => write!(f, "watchdog thresholds must be positive"),
        }
    }
}

impl std::error::Error for ControlConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_historical_messages() {
        assert!(ControlConfigError::BadKr(0.0)
            .to_string()
            .contains("bad kr"));
        assert!(ControlConfigError::BadUMax(2.0)
            .to_string()
            .contains("bad u_max"));
    }
}
