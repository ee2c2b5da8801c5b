//! # ampere-watch — online streaming rollups and deterministic alerting
//!
//! Everything `ampere-obs` computes happens *after* a run, from the
//! JSONL dump. This crate is the live half: a [`WatchEngine`] consumes
//! the telemetry event stream *during* the run through an
//! [`EventSink`]-compatible tap ([`tap`]), maintains incremental
//! windowed rollups (tumbling + sliding windows over sim time) with
//! O(1)-per-event updates, derives the paper's statistical risk
//! quantities as streaming gauges — `Et` headroom fraction, empirical
//! P(power > budget · margin), breaker proximity, degraded/SLO burn —
//! and evaluates a declarative [`AlertRule`] table (threshold +
//! sustain-duration + hysteresis) over them.
//!
//! ## Determinism contract
//!
//! Alert firings are sim-time events, not wall-clock ones: every state
//! transition is a pure function of the event stream's contents and
//! order. Under the parallel engine the tap is attached to the *parent*
//! pipeline, which only sees the merged stream at capture replay — in
//! task order, byte-identical at any worker count — so the alert and
//! incident streams are worker-invariant by construction. Two same-seed
//! runs produce identical alert streams.
//!
//! ## Output
//!
//! The engine produces typed records only — [`AlertRule`],
//! [`AlertRecord`], [`Incident`] and [`WindowRollup`], gathered in a
//! [`WatchReport`] — and writes no JSON. `repro watch` turns them into
//! the `BENCH_watch.json` lines, which `ampere-obs::alerts` declares
//! once each and digests for its `stream-digests` gate.
//!
//! ## Stream model
//!
//! - A **tick** is one sim instant: all events sharing a timestamp are
//!   merged worst-case (max power, min headroom, summed churn) before
//!   per-tick rules evaluate.
//! - A **segment** is one monotone sim-time run. Time regressions (an
//!   experiment running calibration and measured phases from t=0, or
//!   shard-by-shard capture replay) start a new segment: windows and
//!   arming reset, rule/incident state persists.
//! - Rules **arm** per segment at the first `controller/tick`: segments
//!   that never decide anything (uncontrolled calibration) never page.
//! - A **pass marker** event (`watch/pass`, emitted by drivers via
//!   [`pass_marker`]) labels everything that follows, so one engine can
//!   watch a clean and a chaos run back-to-back and attribute alerts.

#![warn(missing_docs)]

pub mod engine;
pub mod rollup;
pub mod rules;

pub use engine::{AlertRecord, Incident, WatchEngine, WatchReport};
pub use rollup::WindowRollup;
pub use rules::{default_rules, AlertRule, Cmp, RuleInput, DEFAULT_HEADROOM_MIN};

use ampere_sim::{SimDuration, SimTime};
use ampere_telemetry::{Event, EventSink, Severity};

use std::sync::{Arc, Mutex, PoisonError};

/// Tumbling window length over sim time.
pub const WINDOW: SimDuration = SimDuration::from_mins(5);

/// Tumbling windows merged into the sliding view: the closing window
/// and its trailing neighbours.
pub const SLIDING_WINDOWS: usize = 3;

/// Normalized power above which a tick counts toward the empirical
/// violation-probability gauge `P(power_norm > margin)`.
pub const P_OVER_MARGIN: f64 = 0.95;

/// Configures a [`WatchEngine`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// The alert-rule table evaluated over the stream.
    pub rules: Vec<AlertRule>,
    /// Open incidents auto-acknowledge after this sim-time delay (the
    /// deterministic stand-in for a human clicking "ack").
    pub ack_after: SimDuration,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            rules: default_rules(),
            ack_after: SimDuration::from_mins(2),
        }
    }
}

/// Builds a [`WatchTap`]/[`WatchHandle`] pair sharing one engine: the
/// tap moves into a telemetry pipeline as a sink, the handle keeps live
/// access for window advancing and the final report.
pub fn tap(config: WatchConfig) -> (WatchTap, WatchHandle) {
    let engine = Arc::new(Mutex::new(WatchEngine::new(config)));
    (
        WatchTap {
            engine: Arc::clone(&engine),
        },
        WatchHandle { engine },
    )
}

/// [`EventSink`] feeding a shared [`WatchEngine`]. Attach to the
/// *parent* pipeline under the parallel engine so the tap sees the
/// merged, worker-invariant stream (see crate docs).
pub struct WatchTap {
    engine: Arc<Mutex<WatchEngine>>,
}

impl EventSink for WatchTap {
    fn record(&mut self, event: &Event) {
        self.engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(event);
    }
}

/// Live handle onto the engine behind a [`WatchTap`].
#[derive(Clone)]
pub struct WatchHandle {
    engine: Arc<Mutex<WatchEngine>>,
}

impl WatchHandle {
    /// Flushes pending state and snapshots the final report.
    pub fn finish(&self) -> WatchReport {
        self.engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .finish()
    }
}

/// The marker event drivers emit at the start of a labelled pass (e.g.
/// `"clean"` / `"chaos"`); the engine attributes everything that
/// follows to `label`. Emit it *inside* the pass's capture so replay
/// keeps marker-then-events order at any worker count.
pub fn pass_marker(label: &'static str) -> Event {
    Event::new(SimTime::ZERO, Severity::Info, "watch", "pass").with("label", label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_marker_shape() {
        let e = pass_marker("clean");
        assert_eq!(e.component, "watch");
        assert_eq!(e.name, "pass");
        assert_eq!(e.field("label").unwrap().as_str(), Some("clean"));
    }
}
