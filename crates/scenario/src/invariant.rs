//! The invariant registry: the global properties every scenario run
//! must satisfy, whatever the axes drew.
//!
//! Each invariant is a *system-level* claim from the paper or from the
//! workspace's own design contracts, not a unit property:
//!
//! 1. **breaker-safety** — the breaker never trips while the controller
//!    is healthy *and has shedding headroom left*. Trips are excused
//!    when the trip window overlaps degraded mode, an armed capping
//!    backstop, or a controller outage (plus a short grace period while
//!    the backstop reacts) — the §3.2 "last line of defense" story,
//!    where faults hand over to capping — and when the controller sits
//!    pinned at `u_max`: a pinned controller has already demanded the
//!    maximum shedding the §4.1.1 cap allows, so a trip there means the
//!    scenario drew a budget below the fleet's physical floor, and
//!    tripping is exactly what the breaker exists to do.
//! 2. **frozen-bounds** — the frozen-server count never exceeds the
//!    domain, the freezing ratio stays in `[0, 1]` and the controller's
//!    target never exceeds its configured `u_max`.
//! 3. **power-conservation** — domain power readings stay inside the
//!    physical envelope (`idle floor ≤ P ≤ rated`, with noise slack),
//!    normalized records agree with their own budget, and the final
//!    domain reading equals the sum of its member servers' measurements.
//! 4. **freeze-accounting** — every `freeze` event is matched by an
//!    `unfreeze` or remains frozen at end of run: the running balance
//!    of the telemetry stream stays within `[0, fleet]` and ends equal
//!    to the observed frozen count.
//! 5. **determinism** — running the same scenario twice produces a
//!    byte-identical record + telemetry digest (the PR-4 fan-in
//!    contract, re-checked end-to-end).
//! 6. **alert-quiet** — no default `ampere-watch` alert rule fires in a
//!    run whose other invariants hold *with margin*: zero breaker
//!    violations, no degraded ticks, no armed backstop, no injected
//!    faults, and the worst breaker margin comfortably above the
//!    controller's `Et` plus the headroom-low clear level. A run that
//!    calm gives the alerting engine nothing legitimate to page about,
//!    so any firing is rule noise (the false-positive gate for the
//!    default rule table).
//! 7. **budget-conservation** — on scenarios with a budget axis, every
//!    arbiter reallocation round conserves the substation budget: the
//!    granted row budgets sum to no more than the substation budget,
//!    and no grant falls below its row's configured floor. Checked from
//!    the `arbiter/reallocate` + `arbiter/grant` telemetry the round
//!    emits, so the shrinker hunts arbiter bugs with the same machinery
//!    as controller bugs.
//! 8. **sla-protection** — on scenarios with a service-mix axis, the
//!    selective freeze policy is batch-first: at the end of every tick,
//!    no interactive server is frozen while an unfrozen batch server
//!    remains in the same row. Reconstructed from the
//!    `scheduler/freeze` + `scheduler/unfreeze` event stream, so the
//!    shrinker hunts selector-ordering bugs too. Only engaged when the
//!    fault axis loses no freeze RPCs — a lost batch-freeze call can
//!    legitimately leave the fleet in a state the next decision
//!    interval has not yet repaired.

use std::fmt;

/// Which invariant a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantKind {
    /// Breaker tripped during a healthy window.
    BreakerSafety,
    /// Frozen counts or ratios out of bounds.
    FrozenBounds,
    /// Power readings inconsistent or outside the physical envelope.
    PowerConservation,
    /// Freeze/unfreeze event stream does not balance.
    FreezeAccounting,
    /// Same seed produced different bytes.
    Determinism,
    /// A default alert rule fired in a provably calm run.
    AlertQuiet,
    /// An arbiter round over-granted the substation budget or granted
    /// below a row floor.
    BudgetConservation,
    /// The selective freeze policy froze an interactive server while an
    /// unfrozen batch server remained in the same row.
    SlaProtection,
}

impl InvariantKind {
    /// Every invariant, in registry order.
    pub const ALL: [InvariantKind; 8] = [
        InvariantKind::BreakerSafety,
        InvariantKind::FrozenBounds,
        InvariantKind::PowerConservation,
        InvariantKind::FreezeAccounting,
        InvariantKind::Determinism,
        InvariantKind::AlertQuiet,
        InvariantKind::BudgetConservation,
        InvariantKind::SlaProtection,
    ];

    /// Stable kebab-case name (used in JSONL rows and reports).
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::BreakerSafety => "breaker-safety",
            InvariantKind::FrozenBounds => "frozen-bounds",
            InvariantKind::PowerConservation => "power-conservation",
            InvariantKind::FreezeAccounting => "freeze-accounting",
            InvariantKind::Determinism => "determinism",
            InvariantKind::AlertQuiet => "alert-quiet",
            InvariantKind::BudgetConservation => "budget-conservation",
            InvariantKind::SlaProtection => "sla-protection",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation found in a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: InvariantKind,
    /// Simulation minute of the violating observation, when localized.
    pub tick: Option<u64>,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tick {
            Some(t) => write!(f, "{} @t={}m: {}", self.invariant, t, self.detail),
            None => write!(f, "{}: {}", self.invariant, self.detail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_tick_when_localized() {
        let v = Violation {
            invariant: InvariantKind::BreakerSafety,
            tick: Some(42),
            detail: "tripped".into(),
        };
        assert_eq!(v.to_string(), "breaker-safety @t=42m: tripped");
    }
}
