//! Tick-phase profiler: where does a simulated tick's wall time go?
//!
//! A control-stack tick decomposes into a fixed set of phases —
//! prediction, the capping decision, scheduler dispatch, the monitor
//! sweep, fan-in merge, scenario invariant checks. [`PhaseProfiler`]
//! times each phase with a scoped [`PhaseGuard`] and aggregates the
//! samples into per-phase `profile_phase_wall_us{phase=…}` histograms.
//! It is the workspace's only wall-clock instrument.
//!
//! Profiling is **opt-in** per pipeline
//! ([`TelemetryBuilder::profiling`](crate::TelemetryBuilder::profiling)):
//! against a non-profiling pipeline every histogram is a no-op and
//! [`PhaseProfiler::phase`] never reads the clock, so the default cost
//! is one branch per phase boundary. Per-shard profilers resolve cells
//! in their capture registries, which the existing fan-in histogram
//! merge folds into the parent — phase histograms are worker-count
//! invariant like every other counter/histogram.
//!
//! Self-overhead accounting lives in `repro profile`: it runs the same
//! workload with telemetry disabled and fully instrumented, in the same
//! process, and reports the delta as the overhead fraction alongside
//! this module's per-phase breakdown.

use crate::registry::{buckets, Histogram};
use crate::Telemetry;

use std::time::Instant;

/// The fixed phases of one control-stack tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPhase {
    /// Predictor observe + estimate inside the controller decision.
    Predict,
    /// Capping decision (plan + actuation bookkeeping).
    Decide,
    /// Scheduler dispatch: placement, freeze/unfreeze RPCs.
    Schedule,
    /// Measurement sweep, fault injection and monitor ingest.
    MonitorSweep,
    /// Replaying per-task captures into the parent pipeline.
    FanInMerge,
    /// Scenario-harness invariant checking.
    InvariantCheck,
}

impl TickPhase {
    /// Every phase, in tick order.
    pub const ALL: [TickPhase; 6] = [
        TickPhase::Predict,
        TickPhase::Decide,
        TickPhase::Schedule,
        TickPhase::MonitorSweep,
        TickPhase::FanInMerge,
        TickPhase::InvariantCheck,
    ];

    /// The `phase` label value (snake_case, per the naming table).
    pub fn as_str(self) -> &'static str {
        match self {
            TickPhase::Predict => "predict",
            TickPhase::Decide => "decide",
            TickPhase::Schedule => "schedule",
            TickPhase::MonitorSweep => "monitor_sweep",
            TickPhase::FanInMerge => "fan_in_merge",
            TickPhase::InvariantCheck => "invariant_check",
        }
    }
}

/// Pre-resolved per-phase histograms for one pipeline. Cheap to clone;
/// build once per component at wiring time.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: [Histogram; 6],
    enabled: bool,
}

impl PhaseProfiler {
    /// Resolves the phase histograms against `telemetry`. When the
    /// pipeline was not built with profiling enabled (the default) the
    /// profiler is inert: no histograms register, no clocks are read.
    pub fn new(telemetry: &Telemetry) -> Self {
        if !telemetry.profiling_enabled() {
            return PhaseProfiler::default();
        }
        let bounds = buckets::wall_us();
        let phases = TickPhase::ALL.map(|p| {
            telemetry.histogram("profile_phase_wall_us", &[("phase", p.as_str())], &bounds)
        });
        PhaseProfiler {
            phases,
            enabled: true,
        }
    }

    /// An inert profiler (for components built without telemetry).
    pub fn disabled() -> Self {
        PhaseProfiler::default()
    }

    /// Whether phase guards will record anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Times `phase` until the returned guard drops. Inert profilers
    /// return a guard that never reads the clock. The guard owns its
    /// histogram handle (one `Arc` clone), so it outlives any later
    /// `&mut self` calls on the instrumented component.
    #[inline]
    pub fn phase(&self, phase: TickPhase) -> PhaseGuard {
        if self.enabled {
            PhaseGuard {
                hist: Some(self.phases[phase as usize].clone()),
                start: Some(Instant::now()),
            }
        } else {
            PhaseGuard {
                hist: None,
                start: None,
            }
        }
    }
}

/// Scope guard recording one phase's wall-clock microseconds on drop.
#[derive(Debug)]
pub struct PhaseGuard {
    hist: Option<Histogram>,
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let (Some(hist), Some(start)) = (&self.hist, self.start) {
            hist.record(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricKind;

    #[test]
    fn inert_without_profiling_flag() {
        let tel = Telemetry::builder().build();
        let profiler = PhaseProfiler::new(&tel);
        assert!(!profiler.enabled());
        drop(profiler.phase(TickPhase::Decide));
        // No profile metrics registered: just the sink-error counter.
        assert_eq!(tel.snapshot().unwrap().entries.len(), 1);
    }

    #[test]
    fn records_per_phase_histograms_when_enabled() {
        let tel = Telemetry::builder().profiling(true).build();
        let profiler = PhaseProfiler::new(&tel);
        assert!(profiler.enabled());
        drop(profiler.phase(TickPhase::Predict));
        drop(profiler.phase(TickPhase::Predict));
        drop(profiler.phase(TickPhase::Schedule));
        let snap = tel.snapshot().unwrap();
        let predict = snap
            .get("profile_phase_wall_us", &[("phase", "predict")])
            .expect("predict histogram registered");
        match &predict.kind {
            MetricKind::Histogram { counts, .. } => {
                assert_eq!(counts.iter().sum::<u64>(), 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Every phase registers up front, so export order is fixed
        // regardless of which phases actually ran.
        for phase in TickPhase::ALL {
            assert!(snap
                .get("profile_phase_wall_us", &[("phase", phase.as_str())])
                .is_some());
        }
    }

    #[test]
    fn phase_names_are_snake_case_and_distinct() {
        let mut names: Vec<&str> = TickPhase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn profilers_inherit_into_captures_and_merge() {
        let parent = Telemetry::builder().profiling(true).build();
        let capture = crate::Capture::new_under(&parent).unwrap();
        let profiler = PhaseProfiler::new(capture.telemetry());
        assert!(profiler.enabled(), "capture must inherit profiling");
        drop(profiler.phase(TickPhase::FanInMerge));
        crate::fanin::replay_into(&parent, capture.finish());
        let snap = parent.snapshot().unwrap();
        let merged = snap
            .get("profile_phase_wall_us", &[("phase", "fan_in_merge")])
            .expect("merged histogram");
        match &merged.kind {
            MetricKind::Histogram { counts, .. } => {
                // One sample recorded inside the capture, plus the one
                // replay_into records for its own merge work.
                assert_eq!(counts.iter().sum::<u64>(), 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
