//! Typed validation errors for caller-supplied configuration.
//!
//! Library constructors used to `assert!` on bad input; embedding hosts
//! (a long-running experiment driver, a fuzzing harness) need to handle
//! rejection without unwinding, so each constructor now has a `try_*`
//! form returning this error. The panicking forms remain as thin
//! wrappers whose messages are the error's `Display` output.

/// Why a power-crate constructor rejected its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerConfigError {
    /// [`crate::CircuitBreaker`] requires a positive, finite limit.
    BadBreakerLimit(f64),
    /// [`crate::CircuitBreaker`] requires `trip_after > 0`.
    BadTripAfter,
    /// [`crate::RaplCapper`] requires `0 < min_freq <= 1`.
    BadMinFreq(f64),
    /// [`crate::RaplCapper`] requires `0 < target_fraction <= 1`.
    BadTargetFraction(f64),
}

impl std::fmt::Display for PowerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The panicking constructors surface these strings, so they
            // keep the historical assert messages callers match on.
            Self::BadBreakerLimit(v) => write!(f, "bad breaker limit: {v}"),
            Self::BadTripAfter => write!(f, "trip_after must be positive"),
            Self::BadMinFreq(v) => write!(f, "bad min_freq: {v}"),
            Self::BadTargetFraction(v) => write!(f, "bad target_fraction: {v}"),
        }
    }
}

impl std::error::Error for PowerConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_historical_messages() {
        assert!(PowerConfigError::BadBreakerLimit(0.0)
            .to_string()
            .contains("bad breaker limit"));
        assert_eq!(
            PowerConfigError::BadTripAfter.to_string(),
            "trip_after must be positive"
        );
    }
}
