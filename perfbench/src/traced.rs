//! The traced run: one shard's tick rebuilt from the layers' public
//! calls, with a span around each call.
//!
//! The program carries no tracing of its own, so the benchmark measures
//! every layer from outside. [`TracedShard::step`] performs the same
//! calls in the same order as `Testbed::step` does for a single-row
//! domain without capping or fault injection, and records the same
//! per-tick trajectory. Its checksum is compared with the untraced run's,
//! so a traced run that drifted from the program shows as a failed check
//! instead of as wrong layer shares.

use std::mem;
use std::time::{Duration, Instant};

use ampere_cluster::{Cluster, ClusterSpec, JobId, RowId, ServerId, ServiceClass};
use ampere_core::{
    AmpereController, ControlMode, ServerPowerReading, TickWatchdog, WatchdogConfig,
};
use ampere_power::{monitor::ServerSample, CircuitBreaker, PowerMonitor};
use ampere_sched::{FreezePolicy, FreezeSelector, RandomFit, Scheduler, SelectorReading};
use ampere_sim::{derive_stream, rng::streams, Distribution, Normal, SimDuration, SimRng, SimTime};
use ampere_telemetry::{Capture, Telemetry};
use ampere_workload::{BatchWorkload, RateProfile};

const TICK: SimDuration = SimDuration::MINUTE;

/// Jobs `Scheduler::dispatch` examines per round at most. The scheduler
/// keeps the value private; the benchmark needs it to count examined
/// jobs and to tell a saturated queue from a draining one.
pub const DISPATCH_BUDGET: usize = 50_000;

/// The layer boundaries a span is recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Workload,
    Submit,
    Dispatch,
    Advance,
    Sample,
    Monitor,
    Breaker,
    Control,
    Selector,
    Actuate,
    Flush,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Workload,
        Layer::Submit,
        Layer::Dispatch,
        Layer::Advance,
        Layer::Sample,
        Layer::Monitor,
        Layer::Breaker,
        Layer::Control,
        Layer::Selector,
        Layer::Actuate,
        Layer::Flush,
    ];
}

/// Span totals and counts of one shard over the recorded ticks.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Span nanoseconds per [`Layer`], indexed by `Layer as usize`.
    pub span_ns: [u64; Layer::ALL.len()],
    /// Whole traced tick wall: the spans plus the glue between them.
    pub tick_ns: u64,
    pub ticks: u64,
    pub server_ticks: u64,
    pub jobs: u64,
    pub examined: u64,
    pub placed: u64,
    pub completed: u64,
    pub actuations: u64,
    /// Sum over ticks of frozen servers (controlled shards only), and
    /// the matching sum of domain sizes.
    pub frozen: u64,
    pub controlled_server_ticks: u64,
    /// Controlled row-ticks, and those measured over the control budget.
    pub controlled_ticks: u64,
    pub over_budget: u64,
}

impl LayerTotals {
    pub fn span(&self, layer: Layer) -> u64 {
        self.span_ns[layer as usize]
    }

    pub fn spans_total(&self) -> u64 {
        self.span_ns.iter().sum()
    }

    pub fn add(&mut self, other: &LayerTotals) {
        for (a, b) in self.span_ns.iter_mut().zip(other.span_ns) {
            *a += b;
        }
        self.tick_ns += other.tick_ns;
        self.ticks += other.ticks;
        self.server_ticks += other.server_ticks;
        self.jobs += other.jobs;
        self.examined += other.examined;
        self.placed += other.placed;
        self.completed += other.completed;
        self.actuations += other.actuations;
        self.frozen += other.frozen;
        self.controlled_server_ticks += other.controlled_server_ticks;
        self.controlled_ticks += other.controlled_ticks;
        self.over_budget += other.over_budget;
    }
}

/// One tick's observation of the shard's row domain: the fields the
/// program's trajectory checksums digest.
#[derive(Debug, Clone, Copy)]
pub struct TickRecord {
    pub time_ms: u64,
    pub power_w: f64,
    pub frozen: usize,
    pub u_target: f64,
    pub violation: bool,
    pub placed: u64,
    pub mean_freq: f64,
    pub froze: usize,
    pub unfroze: usize,
}

/// What one shard simulates: a single-row cluster with one row domain.
pub struct ShardPlan {
    pub spec: ClusterSpec,
    pub profile: RateProfile,
    pub seed: u64,
    pub breaker_w: f64,
    /// The controller's budget, when it differs from the breaker's.
    pub control_budget_w: Option<f64>,
    pub controlled: bool,
    pub freeze_policy: FreezePolicy,
    pub service_classes: Option<Vec<ServiceClass>>,
    pub name: String,
}

pub struct TracedShard {
    cluster: Cluster,
    sched: Scheduler,
    workload: BatchWorkload,
    monitor: PowerMonitor,
    breaker: CircuitBreaker,
    controller: Option<AmpereController>,
    watchdog: TickWatchdog,
    selector: FreezeSelector,
    freeze_policy: FreezePolicy,
    control_budget_w: f64,
    /// The row budget behind the scheduler's headroom hint.
    headroom_budget_w: f64,
    noise: Normal,
    noise_rng: SimRng,
    telemetry: Telemetry,
    capture: Option<Capture>,
    now: SimTime,
    last_telemetry: Vec<f64>,
    samples: Vec<ServerSample>,
    done: Vec<(ServerId, JobId)>,
    readings: Vec<ServerPowerReading>,
    selector_readings: Vec<SelectorReading>,
    pub records: Vec<TickRecord>,
    /// Per-tick (frozen interactive, frozen batch) servers, kept only
    /// for fleets with service classes.
    pub class_frozen: Vec<(u32, u32)>,
    pub totals: LayerTotals,
    /// Traced wall of each recorded tick, for the worker partition.
    pub tick_walls: Vec<u64>,
    /// Why the shard stopped, if it did.
    pub error: Option<String>,
    track_classes: bool,
    recording: bool,
}

macro_rules! span {
    ($shard:ident, $layer:expr, $body:expr) => {{
        let start = Instant::now();
        let out = $body;
        $shard.totals.span_ns[$layer as usize] += nanos(start.elapsed());
        out
    }};
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl TracedShard {
    /// Builds the shard's components under `capture` (when the parent
    /// pipeline is enabled), so they report into it as the program's
    /// own shards do.
    pub fn new(plan: ShardPlan, capture: Option<Capture>) -> Self {
        let build = || {
            let mut cluster = Cluster::new(plan.spec);
            if let Some(classes) = &plan.service_classes {
                cluster.set_service_classes(|i| classes[i]);
            }
            let n = cluster.server_count();
            let mut monitor = PowerMonitor::paper_default();
            monitor.track_domain(0, n);
            TracedShard {
                sched: Scheduler::new(Box::new(RandomFit::default()), plan.seed),
                workload: BatchWorkload::new(plan.profile.clone(), plan.seed, 0),
                monitor,
                breaker: CircuitBreaker::new(plan.breaker_w, 5).with_label(plan.name.clone()),
                controller: plan
                    .controlled
                    .then(ampere_experiments::calibrate::default_controller),
                watchdog: TickWatchdog::new(WatchdogConfig::default()),
                selector: FreezeSelector::new(),
                freeze_policy: plan.freeze_policy,
                control_budget_w: plan.control_budget_w.unwrap_or(plan.breaker_w),
                headroom_budget_w: plan.spec.rated_row_power_w(),
                noise: Normal::new(1.0, 0.003).expect("valid noise"),
                noise_rng: derive_stream(plan.seed, streams::POWER_NOISE),
                telemetry: ampere_telemetry::global(),
                capture: None,
                now: SimTime::ZERO,
                last_telemetry: vec![0.0; n],
                samples: Vec::new(),
                done: Vec::new(),
                readings: Vec::new(),
                selector_readings: Vec::new(),
                records: Vec::new(),
                class_frozen: Vec::new(),
                totals: LayerTotals::default(),
                tick_walls: Vec::new(),
                error: None,
                track_classes: plan.service_classes.is_some(),
                recording: false,
                cluster,
            }
        };
        let mut shard = match &capture {
            Some(c) => c.with(build),
            None => build(),
        };
        shard.capture = capture;
        shard
    }

    pub fn queue_len(&self) -> usize {
        self.sched.queue_len()
    }

    /// Starts (or restarts) span recording: totals cover ticks from
    /// here on.
    pub fn start_recording(&mut self) {
        self.recording = true;
        self.totals = LayerTotals::default();
        self.tick_walls.clear();
    }

    /// Hands the shard's telemetry capture back for replay.
    pub fn take_capture(&mut self) -> Option<Capture> {
        self.capture.take()
    }

    /// One tick. A tick that needs a path this rebuild leaves out (the
    /// watchdog's capping backstop) sets [`Self::error`] and stops the
    /// shard, so its checksum no longer matches.
    pub fn step(&mut self) {
        if self.error.is_some() {
            return;
        }
        let start = Instant::now();
        let result = match self.capture.take() {
            Some(c) => {
                let r = c.with(|| self.tick());
                self.capture = Some(c);
                r
            }
            None => self.tick(),
        };
        if self.track_classes {
            self.count_class_frozen();
        }
        if self.recording {
            let wall = nanos(start.elapsed());
            self.totals.tick_ns += wall;
            self.tick_walls.push(wall);
        }
        self.error = result.err();
    }

    fn count_class_frozen(&mut self) {
        let mut frozen = (0u32, 0u32);
        for s in self.cluster.iter_row(RowId::new(0)) {
            if s.is_frozen() {
                match s.service_class() {
                    ServiceClass::Interactive => frozen.0 += 1,
                    ServiceClass::Batch => frozen.1 += 1,
                }
            }
        }
        self.class_frozen.push(frozen);
    }

    fn tick(&mut self) -> Result<(), String> {
        if self.watchdog.armed() {
            return Err(format!(
                "capping backstop armed at {} ms: not rebuilt by the traced tick",
                self.now.as_millis()
            ));
        }
        let n = self.cluster.server_count();
        self.sched.set_clock(self.now);
        let arrivals = span!(self, Layer::Workload, self.workload.tick(self.now, TICK));
        let jobs = arrivals.len() as u64;
        span!(self, Layer::Submit, self.sched.submit(arrivals));
        let examined = self.sched.queue_len().min(DISPATCH_BUDGET) as u64;
        let headroom = [match self.monitor.latest_row_power(0) {
            Some(p) => (1.0 - p / self.headroom_budget_w).max(0.0),
            None => 1.0,
        }];
        let outcome = span!(
            self,
            Layer::Dispatch,
            self.sched.dispatch(&mut self.cluster, &headroom)
        );
        self.cluster.reset_dvfs_nominal();

        let mut done = mem::take(&mut self.done);
        done.clear();
        span!(
            self,
            Layer::Advance,
            self.cluster.advance_into(TICK, &mut done)
        );
        let completed = done.len() as u64;
        self.sched.on_completed(completed);
        self.done = done;

        self.now += TICK;
        let now = self.now;
        self.sched.set_clock(now);
        let mut samples = mem::take(&mut self.samples);
        samples.clear();
        {
            let noise = &self.noise;
            let rng = &mut self.noise_rng;
            span!(
                self,
                Layer::Sample,
                self.cluster
                    .sample_into(&mut samples, |_, w| w * noise.sample(rng).max(0.0))
            );
        }
        let mut power_w = 0.0;
        for s in &samples {
            self.last_telemetry[s.server as usize] = s.watts;
            power_w += s.watts;
        }
        span!(self, Layer::Monitor, {
            self.monitor.ingest(now, &samples);
            self.monitor.ingest_domain(now, 0, power_w, samples.len());
        });
        self.samples = samples;

        let mean_freq = if self.cluster.all_nominal_dvfs() {
            1.0
        } else {
            self.cluster.iter().map(|s| s.dvfs().freq()).sum::<f64>() / n as f64
        };
        let violation = span!(self, Layer::Breaker, self.breaker.observe(now, power_w));
        let reading = span!(self, Layer::Monitor, self.monitor.domain_reading(0, now));

        let (mut u_target, mut froze, mut unfroze) = (0.0, 0, 0);
        // Taken out for the tick so its calls can borrow the shard.
        let controlled = self.controller.is_some();
        if let Some(mut controller) = self.controller.take() {
            if let Some(reading) = reading {
                let mut readings = mem::take(&mut self.readings);
                let actions = span!(self, Layer::Control, {
                    readings.clear();
                    readings.extend(self.cluster.iter().map(|s| ServerPowerReading {
                        id: s.id(),
                        power_w: self.last_telemetry[s.id().index()],
                        frozen: s.is_frozen(),
                    }));
                    let (actions, _et) = controller.decide_on_reading(
                        now,
                        &reading,
                        self.control_budget_w,
                        &readings,
                    );
                    let tick_span = controller.last_tick_span();
                    self.sched.set_tick_span(tick_span);
                    self.breaker.set_control_span(tick_span);
                    actions
                });
                u_target = actions.target_ratio;
                let (freeze, unfreeze) = match self.freeze_policy {
                    FreezePolicy::Uniform => (actions.freeze, actions.unfreeze),
                    FreezePolicy::Selective => span!(self, Layer::Selector, {
                        let mut sel = mem::take(&mut self.selector_readings);
                        sel.clear();
                        sel.extend(readings.iter().map(|r| SelectorReading {
                            id: r.id,
                            power_w: r.power_w,
                            frozen: r.frozen,
                            class: self.cluster.service_class(r.id),
                        }));
                        let out = self.selector.retarget(actions.n_freeze, &sel);
                        self.selector_readings = sel;
                        (out.freeze, out.unfreeze)
                    }),
                };
                self.readings = readings;
                froze = freeze.len();
                unfroze = unfreeze.len();
                span!(self, Layer::Actuate, {
                    for &id in &unfreeze {
                        self.sched.unfreeze(&mut self.cluster, id);
                    }
                    for &id in &freeze {
                        self.sched.freeze(&mut self.cluster, id);
                    }
                });
            }
            let healthy = reading.is_some() && controller.mode() != ControlMode::Degraded;
            span!(self, Layer::Control, self.watchdog.observe(now, healthy));
            self.controller = Some(controller);
        }

        let frozen = self.cluster.frozen_count(RowId::new(0));
        self.records.push(TickRecord {
            time_ms: now.as_millis(),
            power_w,
            frozen,
            u_target,
            violation,
            placed: outcome.placed.len() as u64,
            mean_freq,
            froze,
            unfroze,
        });
        span!(self, Layer::Flush, self.telemetry.flush_events());

        let t = &mut self.totals;
        t.ticks += 1;
        t.server_ticks += n as u64;
        t.jobs += jobs;
        t.examined += examined;
        t.placed += outcome.placed.len() as u64;
        t.completed += completed;
        t.actuations += (froze + unfroze) as u64;
        if controlled {
            t.frozen += frozen as u64;
            t.controlled_server_ticks += n as u64;
            t.controlled_ticks += 1;
            t.over_budget += u64::from(power_w > self.control_budget_w);
        }
        Ok(())
    }
}
