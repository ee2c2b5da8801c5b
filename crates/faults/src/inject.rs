//! The runtime that applies a [`FaultPlan`] to a live run.

use ampere_power::monitor::ServerSample;
use ampere_sim::{derive_stream, rng::streams, Distribution, Normal, SimRng, SimTime};
use ampere_telemetry::{Counter, Event, Severity, Telemetry};

use crate::plan::{FaultPlan, FaultPlanError};

/// What a sweep lost to injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepFaults {
    /// Samples in the sweep before injection.
    pub total: usize,
    /// Individual samples dropped.
    pub dropped: usize,
    /// Whether the whole sweep was lost (implies `dropped == total`).
    pub lost: bool,
}

/// Applies a [`FaultPlan`] deterministically. Each fault class draws
/// from its own seeded stream, so enabling one class never perturbs
/// another and two injectors built from the same plan corrupt a run
/// identically.
pub struct FaultInjector {
    plan: FaultPlan,
    dropout_rng: SimRng,
    sensor_rng: SimRng,
    rpc_rng: SimRng,
    sweep_rng: SimRng,
    grant_rng: SimRng,
    /// Unit-normal shape for the extra sensor noise (`None` when the
    /// plan has no noise term).
    noise: Option<Normal>,
    in_outage: bool,
    in_arbiter_outage: bool,
    telemetry: Telemetry,
    samples_dropped: Counter,
    sweeps_lost: Counter,
    rpcs_lost: Counter,
    outage_ticks: Counter,
    grants_lost: Counter,
    arbiter_outage_rounds: Counter,
}

impl FaultInjector {
    /// Builds an injector, validating the plan. Panics on an invalid
    /// plan; use [`FaultInjector::try_new`] for the typed error.
    pub fn new(plan: FaultPlan) -> Self {
        Self::try_new(plan).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an injector, reporting into the global telemetry
    /// pipeline (no-op unless installed).
    pub fn try_new(plan: FaultPlan) -> Result<Self, FaultPlanError> {
        Self::try_with_telemetry(plan, ampere_telemetry::global())
    }

    /// Like [`FaultInjector::try_new`] with an explicit pipeline.
    pub fn try_with_telemetry(
        plan: FaultPlan,
        telemetry: Telemetry,
    ) -> Result<Self, FaultPlanError> {
        plan.validate()?;
        let noise = (plan.sensor_noise > 0.0)
            .then(|| Normal::new(0.0, plan.sensor_noise).expect("validated noise"));
        Ok(Self {
            dropout_rng: derive_stream(plan.seed, streams::FAULT_DROPOUT),
            sensor_rng: derive_stream(plan.seed, streams::FAULT_SENSOR),
            rpc_rng: derive_stream(plan.seed, streams::FAULT_RPC),
            sweep_rng: derive_stream(plan.seed, streams::FAULT_OUTAGE),
            grant_rng: derive_stream(plan.seed, streams::FAULT_GRANT),
            noise,
            in_outage: false,
            in_arbiter_outage: false,
            samples_dropped: telemetry.counter("fault_samples_dropped", &[]),
            sweeps_lost: telemetry.counter("fault_sweeps_lost", &[]),
            rpcs_lost: telemetry.counter("fault_rpcs_lost", &[]),
            outage_ticks: telemetry.counter("fault_outage_ticks", &[]),
            grants_lost: telemetry.counter("fault_grants_lost", &[]),
            arbiter_outage_rounds: telemetry.counter("fault_arbiter_outage_rounds", &[]),
            telemetry,
            plan,
        })
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Corrupts one measurement sweep in place: possibly loses the
    /// whole sweep, drops individual samples, and perturbs survivors
    /// with the plan's noise and bias. Returns what was lost.
    pub fn corrupt_sweep(&mut self, at: SimTime, samples: &mut Vec<ServerSample>) -> SweepFaults {
        let total = samples.len();
        if self.plan.sweep_loss > 0.0 && self.sweep_rng.gen_bool(self.plan.sweep_loss) {
            samples.clear();
            self.sweeps_lost.inc();
            let span = self.telemetry.active_tick();
            self.telemetry.emit_in_span(span, || {
                Event::new(at, Severity::Warn, "faults", "sweep_lost").with("servers", total)
            });
            return SweepFaults {
                total,
                dropped: total,
                lost: true,
            };
        }
        if self.plan.sample_dropout > 0.0 {
            let rng = &mut self.dropout_rng;
            let p = self.plan.sample_dropout;
            samples.retain(|_| !rng.gen_bool(p));
        }
        let dropped = total - samples.len();
        if self.noise.is_some() || self.plan.sensor_bias != 0.0 {
            let scale = 1.0 + self.plan.sensor_bias;
            for s in samples.iter_mut() {
                let jitter = match &self.noise {
                    Some(n) => n.sample(&mut self.sensor_rng),
                    None => 0.0,
                };
                s.watts = (s.watts * (scale + jitter)).max(0.0);
            }
        }
        if dropped > 0 {
            self.samples_dropped.inc_by(dropped as u64);
            let span = self.telemetry.active_tick();
            self.telemetry.emit_in_span(span, || {
                Event::new(at, Severity::Debug, "faults", "sweep_degraded")
                    .with("dropped", dropped)
                    .with("servers", total)
            });
        }
        SweepFaults {
            total,
            dropped,
            lost: false,
        }
    }

    /// Whether the controller is up at `at` (outside every outage
    /// window). Emits `outage_begin` / `outage_end` events on
    /// transitions and counts downed ticks.
    pub fn controller_up(&mut self, at: SimTime) -> bool {
        let down = self.plan.outages.iter().any(|w| w.contains(at));
        if down {
            self.outage_ticks.inc();
        }
        if down != self.in_outage {
            self.in_outage = down;
            self.telemetry.emit_with(|| {
                if down {
                    Event::new(at, Severity::Warn, "faults", "outage_begin")
                } else {
                    Event::new(at, Severity::Info, "faults", "outage_end")
                }
            });
        }
        !down
    }

    /// Whether the global budget arbiter is up at `at` (outside every
    /// arbiter outage window). Emits `arbiter_outage_begin` /
    /// `arbiter_outage_end` on transitions and counts missed rounds.
    pub fn arbiter_up(&mut self, at: SimTime) -> bool {
        let down = self.plan.arbiter_outages.iter().any(|w| w.contains(at));
        if down {
            self.arbiter_outage_rounds.inc();
        }
        if down != self.in_arbiter_outage {
            self.in_arbiter_outage = down;
            self.telemetry.emit_with(|| {
                if down {
                    Event::new(at, Severity::Warn, "faults", "arbiter_outage_begin")
                } else {
                    Event::new(at, Severity::Info, "faults", "arbiter_outage_end")
                }
            });
        }
        !down
    }

    /// Whether a budget-grant RPC issued now reaches row `row`. Lost
    /// grants are counted and emit a `grant_lost` event.
    pub fn grant_delivered(&mut self, at: SimTime, row: u64) -> bool {
        if self.plan.grant_loss == 0.0 || !self.grant_rng.gen_bool(self.plan.grant_loss) {
            return true;
        }
        self.grants_lost.inc();
        let span = self.telemetry.active_tick();
        self.telemetry.emit_in_span(span, || {
            Event::new(at, Severity::Warn, "faults", "grant_lost").with("row", row)
        });
        false
    }

    /// Whether a freeze/unfreeze RPC issued now reaches the scheduler.
    /// Lost calls are counted and emit a `rpc_lost` event naming the
    /// operation and target server.
    pub fn rpc_delivered(&mut self, at: SimTime, op: &'static str, server: u64) -> bool {
        if self.plan.rpc_loss == 0.0 || !self.rpc_rng.gen_bool(self.plan.rpc_loss) {
            return true;
        }
        self.rpcs_lost.inc();
        let span = self.telemetry.active_tick();
        self.telemetry.emit_in_span(span, || {
            Event::new(at, Severity::Warn, "faults", "rpc_lost")
                .with("op", op)
                .with("server", server)
        });
        false
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("in_outage", &self.in_outage)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OutageWindow;

    fn sweep(n: u64) -> Vec<ServerSample> {
        (0..n)
            .map(|i| ServerSample {
                server: i,
                rack: i / 40,
                row: 0,
                watts: 200.0,
            })
            .collect()
    }

    #[test]
    fn noop_plan_passes_sweeps_through() {
        let mut inj = FaultInjector::new(FaultPlan::seeded(1));
        let mut s = sweep(50);
        let faults = inj.corrupt_sweep(SimTime::from_mins(1), &mut s);
        assert_eq!(
            faults,
            SweepFaults {
                total: 50,
                dropped: 0,
                lost: false
            }
        );
        assert_eq!(s.len(), 50);
        assert!(s.iter().all(|x| x.watts == 200.0));
    }

    #[test]
    fn same_plan_corrupts_identically() {
        let plan = FaultPlan {
            sample_dropout: 0.3,
            sensor_noise: 0.05,
            sensor_bias: 0.01,
            ..FaultPlan::seeded(99)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for m in 1..=20 {
            let at = SimTime::from_mins(m);
            let (mut sa, mut sb) = (sweep(100), sweep(100));
            let fa = a.corrupt_sweep(at, &mut sa);
            let fb = b.corrupt_sweep(at, &mut sb);
            assert_eq!(fa, fb);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.server, y.server);
                assert_eq!(x.watts, y.watts);
            }
        }
    }

    #[test]
    fn dropout_rate_is_roughly_honored() {
        let mut inj = FaultInjector::new(FaultPlan {
            sample_dropout: 0.25,
            ..FaultPlan::seeded(5)
        });
        let mut dropped = 0usize;
        let mut total = 0usize;
        for m in 1..=50 {
            let mut s = sweep(100);
            let f = inj.corrupt_sweep(SimTime::from_mins(m), &mut s);
            dropped += f.dropped;
            total += f.total;
        }
        let rate = dropped as f64 / total as f64;
        assert!((0.2..0.3).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn bias_shifts_survivors() {
        let mut inj = FaultInjector::new(FaultPlan {
            sensor_bias: 0.1,
            ..FaultPlan::seeded(5)
        });
        let mut s = sweep(10);
        inj.corrupt_sweep(SimTime::from_mins(1), &mut s);
        for x in &s {
            assert!((x.watts - 220.0).abs() < 1e-9);
        }
    }

    #[test]
    fn outage_windows_down_the_controller() {
        let mut inj = FaultInjector::new(FaultPlan {
            outages: vec![OutageWindow {
                start: SimTime::from_mins(5),
                end: SimTime::from_mins(8),
            }],
            ..FaultPlan::seeded(2)
        });
        let up: Vec<bool> = (1..=10)
            .map(|m| inj.controller_up(SimTime::from_mins(m)))
            .collect();
        assert_eq!(
            up,
            vec![true, true, true, true, false, false, false, true, true, true]
        );
    }

    #[test]
    fn outage_transitions_emit_events() {
        use ampere_telemetry::{RingBufferSink, Telemetry};
        let (sink, events) = RingBufferSink::new(16);
        let tel = Telemetry::builder().sink(sink).build();
        let mut inj = FaultInjector::try_with_telemetry(
            FaultPlan {
                outages: vec![OutageWindow {
                    start: SimTime::from_mins(2),
                    end: SimTime::from_mins(4),
                }],
                ..FaultPlan::seeded(2)
            },
            tel,
        )
        .unwrap();
        for m in 1..=5 {
            inj.controller_up(SimTime::from_mins(m));
        }
        let names: Vec<_> = events.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outage_begin", "outage_end"]);
    }

    #[test]
    fn lost_sweep_clears_samples() {
        let mut inj = FaultInjector::new(FaultPlan {
            sweep_loss: 1.0,
            ..FaultPlan::seeded(4)
        });
        let mut s = sweep(30);
        let f = inj.corrupt_sweep(SimTime::from_mins(1), &mut s);
        assert!(f.lost);
        assert_eq!(f.dropped, 30);
        assert!(s.is_empty());
    }

    #[test]
    fn rpc_loss_is_seeded() {
        let plan = FaultPlan {
            rpc_loss: 0.5,
            ..FaultPlan::seeded(6)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let at = SimTime::from_mins(1);
        let xs: Vec<bool> = (0..40).map(|i| a.rpc_delivered(at, "freeze", i)).collect();
        let ys: Vec<bool> = (0..40).map(|i| b.rpc_delivered(at, "freeze", i)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&d| d) && xs.iter().any(|&d| !d));
    }

    #[test]
    fn grant_loss_is_seeded_and_independent_of_rpc_stream() {
        let plan = FaultPlan {
            grant_loss: 0.5,
            rpc_loss: 0.5,
            ..FaultPlan::seeded(6)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan.clone());
        let at = SimTime::from_mins(1);
        // Interleave RPC draws into one injector only: the grant stream
        // must not shift.
        let xs: Vec<bool> = (0..40)
            .map(|i| {
                a.rpc_delivered(at, "freeze", i);
                a.grant_delivered(at, i)
            })
            .collect();
        let ys: Vec<bool> = (0..40).map(|i| b.grant_delivered(at, i)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&d| d) && xs.iter().any(|&d| !d));
    }

    #[test]
    fn arbiter_outage_windows_down_the_arbiter() {
        use ampere_telemetry::{RingBufferSink, Telemetry};
        let (sink, events) = RingBufferSink::new(16);
        let tel = Telemetry::builder().sink(sink).build();
        let mut inj = FaultInjector::try_with_telemetry(
            FaultPlan {
                arbiter_outages: vec![OutageWindow {
                    start: SimTime::from_mins(3),
                    end: SimTime::from_mins(5),
                }],
                ..FaultPlan::seeded(2)
            },
            tel,
        )
        .unwrap();
        let up: Vec<bool> = (1..=6)
            .map(|m| inj.arbiter_up(SimTime::from_mins(m)))
            .collect();
        assert_eq!(up, vec![true, true, false, false, true, true]);
        let names: Vec<_> = events.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["arbiter_outage_begin", "arbiter_outage_end"]);
    }

    #[test]
    #[should_panic(expected = "bad probability")]
    fn new_panics_on_invalid_plan() {
        let _ = FaultInjector::new(FaultPlan {
            rpc_loss: 2.0,
            ..FaultPlan::seeded(1)
        });
    }
}
