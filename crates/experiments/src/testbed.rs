//! The shared simulation engine behind every experiment.
//!
//! A [`Testbed`] wires together the substrates: a [`Cluster`] of
//! servers, the two-level [`Scheduler`], a [`BatchWorkload`] source,
//! the sampling [`PowerMonitor`], the RAPL [`RaplCapper`] and any
//! number of *power domains* — server sets with their own budget,
//! breaker, optional capping and optional [`AmpereController`]. A
//! physical row and a §4.1.2 virtual group are both just domains.
//!
//! Each tick (one minute, the paper's monitoring and control interval):
//!
//! 1. the workload generates arrivals, the scheduler places them;
//! 2. capped domains get DVFS states from the capper (the < 1 ms
//!    hardware reaction, instantaneous at tick granularity);
//! 3. running jobs progress at their server's frequency; completions
//!    free resources;
//! 4. an IPMI sweep measures every server once (with measurement
//!    noise); the monitor aggregates and stores; each domain's breaker
//!    checks its budget;
//! 5. controlled domains run one Ampere control interval on the same
//!    measurement, freezing/unfreezing through the scheduler API.

use ampere_cluster::{Cluster, ClusterSpec, JobId, RowId, ServerId, ServiceClass};
use ampere_core::{
    AmpereController, ControlMode, HistoricalPercentile, ServerPowerReading, TickWatchdog,
    WatchdogConfig,
};
use ampere_faults::{FaultInjector, FaultPlan, SweepFaults};
use ampere_par::ShardSet;
use ampere_power::{
    monitor::ServerSample, CappingConfig, CircuitBreaker, PowerMonitor, RaplCapper,
};
use ampere_sched::{
    FreezePolicy, FreezeSelector, FreezeStatus, PlacementPolicy, RandomFit, Scheduler,
    SelectorReading,
};
use ampere_sim::{
    derive_stream, derive_subseed, rng::streams, Distribution, Fnv, Normal, SimDuration, SimRng,
    SimTime,
};
use ampere_telemetry::{Event, PhaseProfiler, Severity, Telemetry, TickPhase};
use ampere_workload::{BatchWorkload, RateProfile};

use std::fmt;
use std::mem;

/// Index of a registered power domain.
pub type DomainId = usize;

/// Errors from testbed domain registration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestbedError {
    /// The row already backs a row domain: registering it again would
    /// double-count its power and race two breakers over one budget.
    DuplicateRowDomain(RowId),
    /// The domain spec listed no member servers.
    EmptyDomain,
    /// The domain spec named a server the cluster does not have; it
    /// would panic later at the first measurement sweep.
    UnknownServer(ServerId),
    /// A control-budget override was non-positive or non-finite.
    BadControlBudget(f64),
    /// A row-budget override was non-positive or non-finite. Budgets
    /// are fixed at registration time; a corrupt mutation afterwards is
    /// rejected with this error instead of silently ignored.
    BadRowBudget(f64),
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::DuplicateRowDomain(row) => {
                write!(f, "row {} is already registered as a domain", row.index())
            }
            TestbedError::EmptyDomain => write!(f, "empty domain"),
            TestbedError::UnknownServer(s) => {
                write!(f, "unknown server {} in domain spec", s.index())
            }
            TestbedError::BadControlBudget(w) => write!(f, "bad control budget: {w}"),
            TestbedError::BadRowBudget(w) => write!(f, "bad row budget: {w}"),
        }
    }
}

impl std::error::Error for TestbedError {}

/// Specification of one power domain.
pub struct DomainSpec {
    /// Display name ("row0", "experiment", "control", …).
    pub name: String,
    /// Member servers.
    pub servers: Vec<ServerId>,
    /// Provisioned budget in watts (violations counted against it).
    pub budget_w: f64,
    /// Ampere controller for this domain, if controlled.
    pub controller: Option<AmpereController>,
    /// Whether RAPL capping is armed on this domain.
    pub capped: bool,
}

/// One per-tick observation of a domain.
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainTickRecord {
    /// Measurement time.
    pub time: SimTime,
    /// Measured (noisy) domain power in watts.
    pub power_w: f64,
    /// Measured power normalized to the domain budget.
    pub power_norm: f64,
    /// Frozen servers at the end of the tick.
    pub frozen: usize,
    /// Frozen fraction of the domain.
    pub freezing_ratio: f64,
    /// Controller's target ratio this tick (0 when uncontrolled).
    pub u_target: f64,
    /// Whether this tick's measurement exceeded the budget.
    pub violation: bool,
    /// Servers slowed down by capping this tick.
    pub capped_servers: usize,
    /// Mean DVFS frequency over the domain this tick.
    pub mean_freq: f64,
    /// Jobs placed on domain servers this tick.
    pub placed_jobs: u64,
    /// Servers newly frozen by the controller this tick.
    pub froze: usize,
    /// Servers newly unfrozen by the controller this tick.
    pub unfroze: usize,
    /// Fraction of the domain's servers whose samples reached the
    /// monitoring pipeline this tick (1.0 without fault injection).
    pub coverage: f64,
    /// Whether the controller ran this tick in degraded mode.
    pub degraded: bool,
    /// Whether the capping backstop was armed at the end of the tick.
    pub backstop_armed: bool,
}

struct DomainState {
    name: String,
    servers: Vec<ServerId>,
    budget_w: f64,
    /// Budget the *controller* regulates against, when different from
    /// the breaker's `budget_w` (provisioning skew, safety margins).
    /// `None` means both sides see the same number.
    control_budget_w: Option<f64>,
    controller: Option<AmpereController>,
    capped: bool,
    breaker: CircuitBreaker,
    /// Arms the RAPL backstop when the controller misses ticks or goes
    /// blind; only observed on controlled domains.
    watchdog: TickWatchdog,
    failovers: u64,
    records: Vec<DomainTickRecord>,
    /// Index of the first record of the measured window (0 until
    /// [`Testbed::run_window`] discards a warm-up).
    window_start: usize,
}

/// One domain's tick totals, folded over its member list.
#[derive(Debug, Clone, Copy, Default)]
struct DomainSums {
    /// Reported-telemetry watts of the members whose samples arrived.
    reported_w: f64,
    /// How many members' samples arrived.
    reported: usize,
    /// Measured (physical) watts.
    power_w: f64,
    /// Sum of the members' DVFS frequencies.
    freq_sum: f64,
    /// Jobs placed on members this tick.
    placed: u64,
}

/// Configuration of a testbed run.
pub struct TestbedConfig {
    /// Cluster shape.
    pub spec: ClusterSpec,
    /// Arrival-rate profile of the batch workload.
    pub profile: RateProfile,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Tick length (one minute by default, matching the paper).
    pub tick: SimDuration,
    /// Relative standard deviation of per-server power measurement
    /// noise (IPMI readings are not exact).
    pub measurement_noise: f64,
    /// Capping configuration used by capped domains.
    pub capping: CappingConfig,
    /// Upper-level placement policy.
    pub policy: Box<dyn PlacementPolicy>,
    /// Optional per-server hardware classes (heterogeneous fleets);
    /// `None` builds the homogeneous cluster of `spec`.
    #[allow(clippy::type_complexity)]
    pub server_classes:
        Option<Box<dyn Fn(usize) -> (ampere_power::ServerPowerModel, ampere_cluster::Resources)>>,
    /// Optional per-server *service* classes (mixed interactive/batch
    /// fleets), indexed by dense server id; `None` keeps the default
    /// all-interactive tagging, under which every policy behaves like
    /// the legacy uniform one.
    pub service_classes: Option<Vec<ServiceClass>>,
    /// Which freeze-target policy controlled domains drive.
    /// [`FreezePolicy::Uniform`] applies the controller's own
    /// highest-power-first pick unchanged (the paper's behaviour);
    /// [`FreezePolicy::Selective`] re-targets the same freeze count
    /// batch-first through the [`FreezeSelector`].
    pub freeze_policy: FreezePolicy,
    /// Optional seeded fault plan (sample dropout, sensor drift, sweep
    /// loss, controller outages, lost freeze RPCs). `None` runs the
    /// fault-free simulation unchanged.
    pub faults: Option<FaultPlan>,
}

impl TestbedConfig {
    /// The paper's single 440-server evaluation row with a given
    /// profile and seed.
    pub fn paper_row(profile: RateProfile, seed: u64) -> Self {
        Self {
            spec: ClusterSpec::paper_row(),
            profile,
            seed,
            tick: SimDuration::MINUTE,
            measurement_noise: 0.003,
            capping: CappingConfig::default(),
            policy: Box::new(RandomFit::default()),
            server_classes: None,
            service_classes: None,
            freeze_policy: FreezePolicy::Uniform,
            faults: None,
        }
    }
}

/// The simulation engine.
pub struct Testbed {
    cluster: Cluster,
    sched: Scheduler,
    workload: BatchWorkload,
    monitor: PowerMonitor,
    capper: RaplCapper,
    domains: Vec<DomainState>,
    tick: SimDuration,
    now: SimTime,
    noise: Normal,
    noise_rng: SimRng,
    row_budgets_w: Vec<f64>,
    /// Scratch: last measured per-server watts (index = server id).
    /// This is the *physical* truth (plus IPMI noise): the breaker and
    /// the per-tick records see it, because the breaker is a fuse, not
    /// a software consumer of the telemetry pipeline.
    last_measurement: Vec<f64>,
    /// What the telemetry pipeline last *reported* per server — under
    /// fault injection this lags or distorts `last_measurement`
    /// (dropped samples keep their stale value). The controller's
    /// per-server readings come from here: a blinded controller must
    /// not see the truth.
    last_telemetry: Vec<f64>,
    injector: Option<FaultInjector>,
    /// Whether the controller process was up last tick (failover fires
    /// on the down→up transition).
    controller_was_up: bool,
    /// Cached per-row *actual* rated power (sums the built cluster's
    /// models once at construction). Harnesses and the sharded driver
    /// read this instead of re-deriving `rated_row_power_w()` per tick.
    rated_row_w: Vec<f64>,
    // --- hot-path scratch, reused across ticks (no per-tick allocs) ---
    headroom_scratch: Vec<f64>,
    samples_scratch: Vec<ServerSample>,
    reported_scratch: Vec<bool>,
    done_scratch: Vec<(ServerId, JobId)>,
    cap_inputs_scratch: Vec<(ampere_power::ServerPowerModel, f64)>,
    capped_scratch: Vec<usize>,
    readings_scratch: Vec<ServerPowerReading>,
    selector_scratch: Vec<SelectorReading>,
    /// Each domain's member-list fold for the current tick.
    sums_scratch: Vec<DomainSums>,
    /// Jobs placed per server this tick (index = server id). Domains
    /// may overlap, so it is reset sparsely once every domain has read
    /// it.
    placed_per_server: Vec<u64>,
    /// Accumulated sweep-fault totals across the run.
    sweep_faults: SweepFaults,
    sweeps_lost: u64,
    /// Rows already registered as row domains (guards double counting).
    row_domain_registered: Vec<bool>,
    /// The pipeline in effect at construction (a capture under the
    /// parallel engine): every component the testbed builds, including
    /// failover replacement controllers, reports here.
    telemetry: Telemetry,
    profiler: PhaseProfiler,
    /// Which freeze-target policy controlled domains drive.
    freeze_policy: FreezePolicy,
    /// The stateless SLA-aware target selector (only consulted under
    /// [`FreezePolicy::Selective`]).
    selector: FreezeSelector,
}

impl Testbed {
    /// Builds a testbed. No domains are registered initially; rows are
    /// always monitored and their rated power is the default budget
    /// used for scheduler headroom hints.
    pub fn new(config: TestbedConfig) -> Self {
        let mut cluster = match &config.server_classes {
            None => Cluster::new(config.spec),
            Some(class_of) => Cluster::new_with(config.spec, class_of),
        };
        if let Some(classes) = &config.service_classes {
            assert_eq!(
                classes.len(),
                cluster.server_count(),
                "service_classes must cover the whole fleet"
            );
            cluster.set_service_classes(|i| classes[i]);
        }
        // The pipeline in effect now (a capture under the parallel
        // engine) is read once and handed to every component.
        let telemetry = ampere_telemetry::global();
        let sched = Scheduler::with_telemetry(config.policy, config.seed, telemetry.clone());
        let workload = BatchWorkload::new(config.profile, config.seed, 0);
        let row_budgets_w = (0..config.spec.rows)
            .map(|_| config.spec.rated_row_power_w())
            .collect();
        let rated_row_w = (0..config.spec.rows)
            .map(|r| cluster.actual_rated_row_power_w(RowId::new(r as u64)))
            .collect();
        let n = cluster.server_count();
        Self {
            cluster,
            sched,
            workload,
            monitor: PowerMonitor::with_telemetry(telemetry.clone()),
            capper: RaplCapper::new(config.capping),
            domains: Vec::new(),
            tick: config.tick,
            now: SimTime::ZERO,
            noise: Normal::new(1.0, config.measurement_noise.max(f64::MIN_POSITIVE))
                .expect("valid noise"),
            noise_rng: derive_stream(config.seed, streams::POWER_NOISE),
            row_budgets_w,
            last_measurement: vec![0.0; n],
            last_telemetry: vec![0.0; n],
            injector: config.faults.map(|plan| {
                FaultInjector::try_with_telemetry(plan, telemetry.clone())
                    .unwrap_or_else(|e| panic!("{e}"))
            }),
            controller_was_up: true,
            rated_row_w,
            headroom_scratch: Vec::new(),
            samples_scratch: Vec::new(),
            reported_scratch: Vec::new(),
            done_scratch: Vec::new(),
            cap_inputs_scratch: Vec::new(),
            capped_scratch: Vec::new(),
            readings_scratch: Vec::new(),
            selector_scratch: Vec::new(),
            sums_scratch: Vec::new(),
            placed_per_server: vec![0; n],
            sweep_faults: SweepFaults::default(),
            sweeps_lost: 0,
            row_domain_registered: vec![false; config.spec.rows],
            profiler: PhaseProfiler::new(&telemetry),
            telemetry,
            freeze_policy: config.freeze_policy,
            selector: FreezeSelector::new(),
        }
    }

    /// Inverts (or restores) the selector's class priority. Only the
    /// scenario harness's planted `sla-ordering` canary sets this.
    pub fn set_selector_inverted(&mut self, invert: bool) {
        self.selector.invert_priority = invert;
    }

    /// Registers a power domain; returns its id. Panics on an invalid
    /// spec; use [`Testbed::try_add_domain`] for the typed error.
    pub fn add_domain(&mut self, spec: DomainSpec) -> DomainId {
        self.try_add_domain(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers a power domain, surfacing a typed error on an empty
    /// spec or a member server the cluster does not have.
    pub fn try_add_domain(&mut self, spec: DomainSpec) -> Result<DomainId, TestbedError> {
        if spec.servers.is_empty() {
            return Err(TestbedError::EmptyDomain);
        }
        let fleet = self.cluster.spec().server_count();
        if let Some(&bad) = spec.servers.iter().find(|s| s.index() >= fleet) {
            return Err(TestbedError::UnknownServer(bad));
        }
        let id = self.domains.len();
        self.monitor.track_domain(id as u64, spec.servers.len());
        self.domains.push(DomainState {
            breaker: CircuitBreaker::new(spec.budget_w, 5)
                .with_telemetry(self.telemetry.clone())
                .with_label(spec.name.clone()),
            name: spec.name,
            servers: spec.servers,
            budget_w: spec.budget_w,
            control_budget_w: None,
            controller: spec.controller,
            capped: spec.capped,
            watchdog: TickWatchdog::try_with_telemetry(
                WatchdogConfig::default(),
                self.telemetry.clone(),
            )
            .expect("default watchdog thresholds are positive"),
            failovers: 0,
            records: Vec::new(),
            window_start: 0,
        });
        Ok(id)
    }

    /// Convenience: registers every row as an uncontrolled, uncapped
    /// domain with budget `rated · scale`.
    ///
    /// # Errors
    /// [`TestbedError::DuplicateRowDomain`] if any row is already
    /// registered (e.g. a second call); no domain is added in that case.
    pub fn add_row_domains(&mut self, budget_scale: f64) -> Result<Vec<DomainId>, TestbedError> {
        // Validate before mutating: either every row registers or none.
        for (r, registered) in self.row_domain_registered.iter().enumerate() {
            if *registered {
                return Err(TestbedError::DuplicateRowDomain(RowId::new(r as u64)));
            }
        }
        let rated = self.cluster.spec().rated_row_power_w();
        Ok((0..self.cluster.row_count())
            .map(|r| {
                let row = RowId::new(r as u64);
                let servers = self.cluster.row_server_ids(row).collect();
                self.row_domain_registered[r] = true;
                self.add_domain(DomainSpec {
                    name: format!("row{r}"),
                    servers,
                    budget_w: rated * budget_scale,
                    controller: None,
                    capped: false,
                })
            })
            .collect())
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster (read access).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The scheduler (read access).
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// The power monitor and its time-series database.
    pub fn monitor(&self) -> &PowerMonitor {
        &self.monitor
    }

    /// A domain's tick records.
    pub fn records(&self, id: DomainId) -> &[DomainTickRecord] {
        &self.domains[id].records
    }

    /// The servers belonging to a domain.
    pub fn domain_servers(&self, id: DomainId) -> &[ServerId] {
        &self.domains[id].servers
    }

    /// A domain's breaker budget in watts.
    pub fn domain_budget_w(&self, id: DomainId) -> f64 {
        self.domains[id].budget_w
    }

    /// Overrides the budget the domain's *controller* regulates against,
    /// leaving the breaker on the original `budget_w`. Models a
    /// provisioning skew between the control plane and the physical
    /// breaker (e.g. a safety margin, or — mis-signed — a planted bug
    /// for the scenario harness's canary). `None` restores the default
    /// (controller sees the breaker budget).
    pub fn set_control_budget_w(&mut self, id: DomainId, budget_w: Option<f64>) {
        self.try_set_control_budget_w(id, budget_w)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Testbed::set_control_budget_w`], surfacing the typed
    /// error on a non-positive or non-finite override. The hierarchical
    /// driver applies arbiter grants through this path every round, so
    /// a corrupt grant is a reportable fault, not a crash.
    pub fn try_set_control_budget_w(
        &mut self,
        id: DomainId,
        budget_w: Option<f64>,
    ) -> Result<(), TestbedError> {
        if let Some(w) = budget_w {
            if !(w > 0.0 && w.is_finite()) {
                return Err(TestbedError::BadControlBudget(w));
            }
        }
        self.domains[id].control_budget_w = budget_w;
        Ok(())
    }

    /// A domain's breaker (violations, trip state).
    pub fn breaker(&self, id: DomainId) -> &CircuitBreaker {
        &self.domains[id].breaker
    }

    /// Whether the domain's capping backstop is currently armed by the
    /// watchdog (independent of the configured `capped` flag).
    pub fn backstop_armed(&self, id: DomainId) -> bool {
        self.domains[id].watchdog.armed()
    }

    /// How many times a replacement controller cold-started on this
    /// domain (one per recovered outage).
    pub fn failovers(&self, id: DomainId) -> u64 {
        self.domains[id].failovers
    }

    /// Accumulated sweep-fault totals (samples seen / dropped) plus the
    /// number of whole sweeps lost, across the run.
    pub fn sweep_fault_totals(&self) -> (SweepFaults, u64) {
        (self.sweep_faults, self.sweeps_lost)
    }

    /// Manually freezes a server (experiment interventions, e.g. Fig 4).
    /// Returns the scheduler's typed status — in particular
    /// [`FreezeStatus::UnknownServer`] for an out-of-fleet id — instead
    /// of swallowing it.
    pub fn freeze(&mut self, server: ServerId) -> FreezeStatus {
        self.sched.freeze(&mut self.cluster, server)
    }

    /// Manually unfreezes a server; returns the typed status.
    pub fn unfreeze(&mut self, server: ServerId) -> FreezeStatus {
        self.sched.unfreeze(&mut self.cluster, server)
    }

    /// Unfreezes every server in a domain; returns how many transitions
    /// actually applied (frozen → active).
    pub fn unfreeze_domain(&mut self, id: DomainId) -> usize {
        let servers = self.domains[id].servers.clone();
        servers
            .into_iter()
            .filter(|&s| self.sched.unfreeze(&mut self.cluster, s) == FreezeStatus::Applied)
            .count()
    }

    /// Last measured (noisy) power of one server, in watts.
    pub fn measured_server_w(&self, server: ServerId) -> f64 {
        self.last_measurement[server.index()]
    }

    /// Replaces a domain's controller. Models the §3.2 failover story:
    /// the controller is stateless (the frozen set lives in the
    /// cluster, not the controller), "thus if the controller fails, we
    /// can easily switch to a replacement".
    pub fn set_controller(&mut self, id: DomainId, controller: Option<AmpereController>) {
        self.domains[id].controller = controller;
    }

    /// Overrides the budget used for a row's scheduler headroom hint
    /// (defaults to the row's rated power). Headroom-aware policies
    /// such as `PowerSpread` compare rows against these budgets.
    /// Panics on a bad override; use [`Testbed::try_set_row_budget_w`]
    /// for the typed error.
    pub fn set_row_budget_w(&mut self, row: RowId, budget_w: f64) {
        self.try_set_row_budget_w(row, budget_w)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Testbed::set_row_budget_w`], surfacing
    /// [`TestbedError::BadRowBudget`] on a non-positive or non-finite
    /// override instead of applying it.
    pub fn try_set_row_budget_w(&mut self, row: RowId, budget_w: f64) -> Result<(), TestbedError> {
        if !(budget_w > 0.0 && budget_w.is_finite()) {
            return Err(TestbedError::BadRowBudget(budget_w));
        }
        self.row_budgets_w[row.index()] = budget_w;
        Ok(())
    }

    /// The *actual* rated power of one row, cached at construction
    /// (equals `spec().rated_row_power_w()` for homogeneous fleets).
    pub fn rated_row_power_w(&self, row: RowId) -> f64 {
        self.rated_row_w[row.index()]
    }

    /// Runs the simulation for `duration` (must be a whole number of
    /// ticks).
    pub fn run_for(&mut self, duration: SimDuration) {
        let ticks = duration.as_millis() / self.tick.as_millis();
        assert!(
            ticks * self.tick.as_millis() == duration.as_millis(),
            "duration must be a multiple of the tick"
        );
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Runs `warmup`, discards it, then runs the measured `window`:
    /// from here on [`Testbed::window`] returns each domain's records
    /// from the end of the warm-up.
    pub fn run_window(&mut self, warmup: SimDuration, window: SimDuration) {
        self.run_for(warmup);
        for d in &mut self.domains {
            d.window_start = d.records.len();
        }
        self.run_for(window);
    }

    /// A domain's records in the measured window: every record since
    /// the last [`Testbed::run_window`] discarded its warm-up, or all of
    /// them if none did.
    pub fn window(&self, id: DomainId) -> &[DomainTickRecord] {
        let d = &self.domains[id];
        &d.records[d.window_start..]
    }

    /// Executes one tick.
    pub fn step(&mut self) {
        // 1. Arrivals and placement. Telemetry events emitted by the
        // scheduler this tick carry the interval-start timestamp. The
        // scheduler draws arriving jobs only when dispatch can reach
        // them, so a deep backlog queues counts, not jobs.
        self.sched.set_clock(self.now);
        let arrivals = self.workload.arrivals(self.now, self.tick);
        self.sched.arrive(arrivals, || self.workload.next_job());
        self.fill_row_headroom();
        let outcome = self
            .sched
            .dispatch(&mut self.cluster, &self.headroom_scratch);

        // 2. Capping decisions (before work progresses this tick). The
        // bulk reset short-circuits when no capper touched any server
        // last tick (the common uncapped case).
        self.cluster.reset_dvfs_nominal();
        self.capped_scratch.clear();
        self.capped_scratch.resize(self.domains.len(), 0);
        for d in 0..self.domains.len() {
            // Configured capping, or the watchdog-armed backstop (armed
            // state is from last tick's observation — the one-interval
            // engagement latency a real RAPL hand-off would have).
            if !(self.domains[d].capped || self.domains[d].watchdog.armed()) {
                continue;
            }
            // Take the member list so the cluster can be borrowed
            // mutably alongside it (put back below).
            let servers = mem::take(&mut self.domains[d].servers);
            self.cap_inputs_scratch.clear();
            for &id in &servers {
                let s = self.cluster.server(id);
                self.cap_inputs_scratch
                    .push((*s.power_model(), s.utilization()));
            }
            let out = self
                .capper
                .cap_row(&self.cap_inputs_scratch, self.domains[d].budget_w);
            self.capped_scratch[d] = out.capped_count;
            for (&id, &st) in servers.iter().zip(&out.states) {
                self.cluster.server_mut(id).set_dvfs(st);
            }
            self.domains[d].servers = servers;
        }

        // 3. Work progresses; completions free resources.
        let mut done = mem::take(&mut self.done_scratch);
        done.clear();
        self.cluster.advance_into(self.tick, &mut done);
        self.sched.on_completed(done.len() as u64);
        self.done_scratch = done;

        // 4. Measurement sweep at the end of the interval. Control
        // actions below happen at the measurement instant.
        let sweep_phase = self.profiler.phase(TickPhase::MonitorSweep);
        self.now += self.tick;
        self.sched.set_clock(self.now);
        let mut samples = mem::take(&mut self.samples_scratch);
        samples.clear();
        {
            let noise = &self.noise;
            let rng = &mut self.noise_rng;
            self.cluster
                .sample_into(&mut samples, |_, w| w * noise.sample(rng).max(0.0));
        }
        for s in &samples {
            self.last_measurement[s.server as usize] = s.watts;
        }
        // The monitoring pipeline sees the sweep *after* fault
        // injection: dropped samples, extra sensor noise/bias, possibly
        // a wholly lost sweep. The physical truth above is untouched —
        // the breaker keeps tripping on real watts even when the
        // software stack is blind.
        if let Some(inj) = &mut self.injector {
            let f = inj.corrupt_sweep(self.now, &mut samples);
            self.sweep_faults.total += f.total;
            self.sweep_faults.dropped += f.dropped;
            if f.lost {
                self.sweeps_lost += 1;
            }
        }
        self.reported_scratch.clear();
        self.reported_scratch
            .resize(self.cluster.server_count(), false);
        for s in &samples {
            self.reported_scratch[s.server as usize] = true;
            self.last_telemetry[s.server as usize] = s.watts;
        }
        self.monitor.ingest(self.now, &samples);
        self.samples_scratch = samples;
        // One fold over each domain's members. Partial readings: the
        // sum of the samples that arrived plus how many did, so the
        // monitor can qualify the reading with coverage and age instead
        // of handing out a bare number.
        for (_, server) in &outcome.placed {
            self.placed_per_server[server.index()] += 1;
        }
        let all_nominal = self.cluster.all_nominal_dvfs();
        let mut sums = mem::take(&mut self.sums_scratch);
        sums.clear();
        for d in 0..self.domains.len() {
            let s = self.fold_domain(d, all_nominal);
            self.monitor
                .ingest_domain(self.now, d as u64, s.reported_w, s.reported);
            sums.push(s);
        }
        // Sparse reset: only the entries touched this tick, so the cost
        // scales with placements, not fleet size.
        for (_, server) in &outcome.placed {
            self.placed_per_server[server.index()] = 0;
        }
        drop(sweep_phase);

        // Is the controller process up this tick? Outage windows down
        // every controlled domain at once (one controller host, §3.2);
        // recovery cold-starts replacements from the time-series DB.
        let controller_up = self
            .injector
            .as_mut()
            .is_none_or(|i| i.controller_up(self.now));
        if controller_up && !self.controller_was_up {
            self.failover_controllers();
        }
        self.controller_was_up = controller_up;

        // Per-domain accounting + control.
        for (d, s) in sums.iter().enumerate() {
            let violation = self.domains[d].breaker.observe(self.now, s.power_w);

            // 5. Control interval on the monitor's qualified reading of
            // the (possibly faulted) telemetry — never on the physical
            // truth the breaker sees.
            let mut u_target = 0.0;
            let mut froze = 0;
            let mut unfroze = 0;
            let mut degraded = false;
            let reading = self.monitor.domain_reading(d as u64, self.now);
            let coverage = reading.map_or(1.0, |r| r.coverage);
            if self.domains[d].controller.is_some() {
                if let (true, Some(reading)) = (controller_up, reading) {
                    let mut readings = mem::take(&mut self.readings_scratch);
                    readings.clear();
                    readings.extend(
                        self.domains[d]
                            .servers
                            .iter()
                            .map(|&id| ServerPowerReading {
                                id,
                                power_w: self.last_telemetry[id.index()],
                                frozen: self.cluster.server(id).is_frozen(),
                            }),
                    );
                    let budget_w = self.domains[d]
                        .control_budget_w
                        .unwrap_or(self.domains[d].budget_w);
                    let controller = self.domains[d].controller.as_mut().expect("checked");
                    let (actions, _et) =
                        controller.decide_on_reading(self.now, &reading, budget_w, &readings);
                    let tick_span = controller.last_tick_span();
                    // Freezes applied below trace back to this tick, and the
                    // breaker attributes next minute's violation (power
                    // produced under this decision interval) to it too.
                    self.sched.set_tick_span(tick_span);
                    self.domains[d].breaker.set_control_span(tick_span);
                    u_target = actions.target_ratio;
                    // Algorithm 1's power math (the target *count*)
                    // stands under both policies; the selective policy
                    // re-picks the target *set* batch-first through the
                    // stateless selector, on the same telemetry view.
                    let (freeze_list, unfreeze_list) = match self.freeze_policy {
                        FreezePolicy::Uniform => (actions.freeze, actions.unfreeze),
                        FreezePolicy::Selective => {
                            let mut sel = mem::take(&mut self.selector_scratch);
                            sel.clear();
                            sel.extend(readings.iter().map(|r| SelectorReading {
                                id: r.id,
                                power_w: r.power_w,
                                frozen: r.frozen,
                                class: self.cluster.service_class(r.id),
                            }));
                            let out = self.selector.retarget(actions.n_freeze, &sel);
                            self.selector_scratch = sel;
                            (out.freeze, out.unfreeze)
                        }
                    };
                    self.readings_scratch = readings;
                    froze = freeze_list.len();
                    unfroze = unfreeze_list.len();
                    // Freeze/unfreeze are RPCs to the scheduler; the
                    // fault plan may lose them. A lost call is simply
                    // never applied — the next interval's decision sees
                    // the resulting state and re-issues.
                    for &id in &unfreeze_list {
                        if self.rpc_delivered("unfreeze", id) {
                            self.sched.unfreeze(&mut self.cluster, id);
                        }
                    }
                    for &id in &freeze_list {
                        if self.rpc_delivered("freeze", id) {
                            self.sched.freeze(&mut self.cluster, id);
                        }
                    }
                }
                // The watchdog's view: a healthy interval means the
                // controller ran with data good enough for nominal
                // mode. Missed ticks (outage), blind ticks (no reading)
                // and degraded ticks all count against it.
                degraded = controller_up
                    && self.domains[d]
                        .controller
                        .as_ref()
                        .is_some_and(|c| c.mode() == ControlMode::Degraded);
                let healthy = controller_up && reading.is_some() && !degraded;
                self.domains[d].watchdog.observe(self.now, healthy);
            }

            let dom = &self.domains[d];
            let record = DomainTickRecord {
                time: self.now,
                power_w: s.power_w,
                power_norm: s.power_w / dom.budget_w,
                // Counted below, once every domain has run control.
                frozen: 0,
                freezing_ratio: 0.0,
                u_target,
                violation,
                capped_servers: self.capped_scratch[d],
                mean_freq: s.freq_sum / dom.servers.len() as f64,
                placed_jobs: s.placed,
                froze,
                unfroze,
                coverage,
                degraded,
                backstop_armed: dom.watchdog.armed(),
            };
            self.domains[d].records.push(record);
        }
        self.sums_scratch = sums;
        // Frozen counts after every domain's control step, so a domain
        // overlapping a later-registered controlled one sees this tick's
        // freezes too.
        for dom in &mut self.domains {
            let frozen = dom
                .servers
                .iter()
                .filter(|&&id| self.cluster.server(id).is_frozen())
                .count();
            let record = dom.records.last_mut().expect("pushed above");
            record.frozen = frozen;
            record.freezing_ratio = frozen as f64 / dom.servers.len() as f64;
        }
    }

    /// Folds domain `d`'s member list, in member order, over this
    /// tick's sweep and placements. With every server at nominal
    /// frequency the frequency sum is the member count (sums of 1.0 are
    /// exact), so the per-server reads are skipped.
    fn fold_domain(&self, d: DomainId, all_nominal: bool) -> DomainSums {
        let servers = &self.domains[d].servers;
        let mut sums = DomainSums::default();
        for &id in servers {
            let i = id.index();
            if self.reported_scratch[i] {
                sums.reported_w += self.last_telemetry[i];
                sums.reported += 1;
            }
            sums.power_w += self.last_measurement[i];
            if !all_nominal {
                sums.freq_sum += self.cluster.server(id).dvfs().freq();
            }
            sums.placed += self.placed_per_server[i];
        }
        if all_nominal {
            sums.freq_sum = servers.len() as f64;
        }
        sums
    }

    /// Whether a freeze/unfreeze RPC gets through the fault plan.
    fn rpc_delivered(&mut self, op: &'static str, server: ServerId) -> bool {
        self.injector
            .as_mut()
            .is_none_or(|i| i.rpc_delivered(self.now, op, server.raw()))
    }

    /// §3.5 failover: the dead controller's replacement is built from
    /// scratch — same configuration, but its `Et` predictor is refit
    /// from the domain's history in the time-series DB (the paper's
    /// MySQL store), because the controller itself carried no state
    /// worth recovering. The frozen set lives in the cluster and is
    /// picked up by the first post-recovery reading.
    fn failover_controllers(&mut self) {
        for d in 0..self.domains.len() {
            let Some(old) = self.domains[d].controller.as_ref() else {
                continue;
            };
            let config = *old.config();
            let budget_w = self.domains[d]
                .control_budget_w
                .unwrap_or(self.domains[d].budget_w);
            let history: Vec<(SimTime, f64)> = self
                .monitor
                .domain_points(d as u64)
                .iter()
                .map(|&(t, w)| (t, w / budget_w))
                .collect();
            let predictor = HistoricalPercentile::fit(
                &history,
                crate::calibrate::ET_PERCENTILE,
                crate::calibrate::DEFAULT_ET,
            )
            .with_floor(crate::calibrate::ET_FLOOR);
            self.domains[d].controller = Some(AmpereController::with_telemetry(
                config,
                Box::new(predictor),
                self.telemetry.clone(),
            ));
            self.domains[d].failovers += 1;
            let name = self.domains[d].name.clone();
            let points = history.len();
            let now = self.now;
            self.telemetry.emit_with(move || {
                Event::new(now, Severity::Info, "controller", "failover")
                    .with("domain", name)
                    .with("history_points", points)
            });
        }
    }

    /// Per-row normalized headroom from the latest monitor samples,
    /// fed to headroom-aware placement policies. Fills the reusable
    /// `headroom_scratch` buffer instead of allocating per tick.
    fn fill_row_headroom(&mut self) {
        self.headroom_scratch.clear();
        for r in 0..self.cluster.row_count() {
            self.headroom_scratch
                .push(match self.monitor.latest_row_power(r as u64) {
                    Some(p) => (1.0 - p / self.row_budgets_w[r]).max(0.0),
                    None => 1.0,
                });
        }
    }
}

/// Configuration of a [`ShardedTestbed`]: `shards` independent
/// single-row testbeds advanced on the worker pool.
pub struct ShardedTestbedConfig {
    /// Number of row shards.
    pub shards: usize,
    /// Per-shard cluster shape (normally one row; the row domain of
    /// shard `i` is that shard's row 0).
    pub spec: ClusterSpec,
    /// Per-shard arrival profile.
    pub profile: RateProfile,
    /// Master seed; shard `i` simulates under
    /// `derive_subseed(seed, streams::SHARD, i)`.
    pub seed: u64,
    /// Row budget as a fraction of rated power.
    pub budget_scale: f64,
    /// Attach the default Ampere controller to each shard's row domain.
    pub controlled: bool,
    /// Worker threads advancing the shards (1 = serial).
    pub workers: usize,
    /// Optional fault plan applied identically to every shard (each
    /// shard's injector still draws from its own sub-seeded streams).
    pub faults: Option<FaultPlan>,
}

impl ShardedTestbedConfig {
    /// A quick-mode sharded run: tiny single rows of 8 servers, a
    /// constant arrival rate that keeps the controller busy, budgets at
    /// 80 % of rated.
    pub fn quick(shards: usize, workers: usize, seed: u64) -> Self {
        ShardedTestbedConfig {
            shards,
            spec: ClusterSpec {
                rows: 1,
                ..ClusterSpec::tiny()
            },
            profile: RateProfile::Constant { per_min: 300.0 },
            seed,
            budget_scale: 0.8,
            controlled: true,
            workers,
            faults: None,
        }
    }

    /// A hyperscale sharded run: full paper rows (440 servers each),
    /// arrivals scaled to the row size, budgets at 80 % of rated. With
    /// 2273 shards this is a 1,000,120-server fleet.
    pub fn hyper(shards: usize, workers: usize, seed: u64) -> Self {
        ShardedTestbedConfig {
            shards,
            spec: ClusterSpec::paper_row(),
            profile: RateProfile::Constant { per_min: 150.0 },
            seed,
            budget_scale: 0.8,
            controlled: true,
            workers,
            faults: None,
        }
    }
}

struct TestbedShard {
    tb: Testbed,
    domain: DomainId,
}

/// Row-parallel simulation: each row domain is an independent
/// [`Testbed`] shard with its own seed sub-stream, advanced by a
/// [`ShardSet`].
///
/// Determinism contract (DESIGN §9): shard `i`'s entire draw sequence
/// depends only on `(seed, streams::SHARD, i)`, shards share no mutable
/// state while stepping, and telemetry replays in shard order on
/// [`ShardedTestbed::finish`] into the pipeline that was current at
/// construction — so records, events and metrics are byte-identical at
/// any worker count.
pub struct ShardedTestbed {
    set: ShardSet<TestbedShard>,
    tick: SimDuration,
    ticks_run: u64,
}

impl ShardedTestbed {
    /// Builds `config.shards` independent shards, each under its own
    /// telemetry capture of the current [`ampere_telemetry::global`]
    /// pipeline.
    pub fn new(config: ShardedTestbedConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let parent = ampere_telemetry::global();
        let set = ShardSet::new(&parent, config.shards, config.workers, |i| {
            let mut tb = Testbed::new(TestbedConfig {
                spec: config.spec,
                profile: config.profile.clone(),
                seed: derive_subseed(config.seed, streams::SHARD, i as u64),
                tick: SimDuration::MINUTE,
                measurement_noise: 0.003,
                capping: CappingConfig {
                    enabled: false,
                    ..CappingConfig::default()
                },
                policy: Box::new(RandomFit::default()),
                server_classes: None,
                service_classes: None,
                freeze_policy: FreezePolicy::Uniform,
                faults: config.faults.clone(),
            });
            let rated = tb.rated_row_power_w(RowId::new(0));
            let servers = tb.cluster().row_server_ids(RowId::new(0)).collect();
            let domain = tb.add_domain(DomainSpec {
                name: format!("shard{i}"),
                servers,
                budget_w: rated * config.budget_scale,
                controller: config.controlled.then(crate::calibrate::default_controller),
                capped: false,
            });
            TestbedShard { tb, domain }
        });
        ShardedTestbed {
            set,
            tick: SimDuration::MINUTE,
            ticks_run: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.set.shards().len()
    }

    /// Ticks every shard has completed.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// Advances every shard by `duration` (a whole number of ticks).
    /// Shards are independent, so there is no barrier between ticks:
    /// each shard is stepped through the whole duration by whichever
    /// worker claims it, and every shard has completed the duration
    /// when this returns.
    pub fn run_for(&mut self, duration: SimDuration) {
        let ticks = duration.as_millis() / self.tick.as_millis();
        assert!(
            ticks * self.tick.as_millis() == duration.as_millis(),
            "duration must be a multiple of the tick"
        );
        self.set.run(ticks, |s| s.tb.step());
        self.ticks_run += ticks;
    }

    /// A shard's tick records (its main row/controlled domain).
    pub fn records(&self, shard: usize) -> &[DomainTickRecord] {
        let s = &self.set.shards()[shard];
        s.tb.records(s.domain)
    }

    /// A shard's underlying testbed (read access).
    pub fn testbed(&self, shard: usize) -> &Testbed {
        &self.set.shards()[shard].tb
    }

    /// Replays every shard's captured telemetry into the pipeline bound
    /// at construction, in shard order (idempotent; a no-op when that
    /// pipeline was disabled).
    pub fn finish(&mut self) {
        self.set.finish();
    }

    /// An order-sensitive FNV-1a digest over every shard's records:
    /// equal checksums mean bit-equal trajectories. Used by `repro
    /// scale` and the determinism tests to compare runs cheaply.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for i in 0..self.shard_count() {
            h.word(i as u64);
            digest_records(&mut h, self.records(i));
        }
        h.finish()
    }
}

/// Folds a domain's trajectory into `h`, whole words per field: the
/// field set of [`ShardedTestbed::checksum`] and of the hierarchy
/// sweep's per-row checksums.
pub(crate) fn digest_records(h: &mut Fnv, records: &[DomainTickRecord]) {
    for r in records {
        for v in [
            r.time.as_millis(),
            r.power_w.to_bits(),
            r.frozen as u64,
            r.u_target.to_bits(),
            u64::from(r.violation),
            r.placed_jobs,
            r.mean_freq.to_bits(),
        ] {
            h.word(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowStats;
    use ampere_core::{ControllerConfig, HistoricalPercentile, ParitySplit};

    fn quick_config(profile: RateProfile) -> TestbedConfig {
        TestbedConfig {
            spec: ClusterSpec::tiny(),
            capping: CappingConfig {
                enabled: false,
                ..CappingConfig::default()
            },
            ..TestbedConfig::paper_row(profile.scaled(16.0 / 440.0), 1)
        }
    }

    #[test]
    fn bad_row_budget_rejected_with_typed_error() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 100.0 }));
        // The cached rated power is fixed at construction; overriding
        // the headroom budget afterwards must go through the typed
        // validator, and a bad override leaves the budget untouched.
        let rated = tb.rated_row_power_w(RowId::new(0));
        assert_eq!(rated, tb.cluster().spec().rated_row_power_w());
        for bad in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            match tb.try_set_row_budget_w(RowId::new(0), bad) {
                Err(TestbedError::BadRowBudget(w)) => {
                    assert!(w.is_nan() == bad.is_nan() && (w.is_nan() || w == bad));
                }
                other => panic!("expected BadRowBudget for {bad}, got {other:?}"),
            }
        }
        // A valid override still applies, and the cached rated power
        // is not affected by budget mutation.
        tb.try_set_row_budget_w(RowId::new(0), rated * 0.8).unwrap();
        assert_eq!(tb.rated_row_power_w(RowId::new(0)), rated);
        let err = format!("{}", TestbedError::BadRowBudget(-1.0));
        assert!(err.contains("bad row budget"), "display: {err}");
    }

    #[test]
    fn rows_get_monitored() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 200.0 }));
        tb.add_row_domains(1.0).unwrap();
        tb.run_for(SimDuration::from_mins(10));
        assert_eq!(tb.monitor().row_history(0).len(), 10);
        assert_eq!(tb.records(0).len(), 10);
        // Power is at least the idle floor.
        let idle = tb.cluster().spec().power_model.idle_w() * 8.0;
        for r in tb.records(0) {
            assert!(r.power_w > idle * 0.95);
        }
    }

    #[test]
    fn workload_raises_power() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 400.0 }));
        let rows = tb.add_row_domains(1.0).unwrap();
        tb.run_for(SimDuration::from_mins(30));
        let recs = tb.records(rows[0]);
        let early = recs[0].power_w;
        let late = recs.last().unwrap().power_w;
        assert!(late > early, "power did not rise: {early} → {late}");
        assert!(tb.sched().stats().placed > 0);
    }

    #[test]
    fn controlled_domain_freezes_under_pressure() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 800.0 }));
        let (exp, _ctl) = ParitySplit::split((0..16).map(ServerId::new));
        let rated: f64 = 8.0 * 250.0;
        let budget = rated / 1.25;
        let controller = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        let d = tb.add_domain(DomainSpec {
            name: "experiment".into(),
            servers: exp,
            budget_w: budget,
            controller: Some(controller),
            capped: false,
        });
        tb.run_for(SimDuration::from_mins(120));
        let max_u = tb
            .records(d)
            .iter()
            .map(|r| r.freezing_ratio)
            .fold(0.0f64, f64::max);
        assert!(max_u > 0.0, "controller never froze anything");
    }

    #[test]
    fn overlapping_domains_share_each_server_once() {
        for row_first in [true, false] {
            let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 800.0 }));
            // Row 0 and its parity halves, the first half controlled,
            // registered in either order.
            let add_rows = |tb: &mut Testbed| tb.add_row_domains(1.0).unwrap();
            let rows = if row_first {
                add_rows(&mut tb)
            } else {
                Vec::new()
            };
            let (exp, ctl) = ParitySplit::split(tb.cluster().row_server_ids(RowId::new(0)));
            let controller = AmpereController::new(
                ControllerConfig::default(),
                Box::new(HistoricalPercentile::flat(0.02)),
            );
            let halves = [(exp, Some(controller)), (ctl, None)].map(|(servers, controller)| {
                tb.add_domain(DomainSpec {
                    name: format!("half{}", servers[0].index()),
                    budget_w: servers.len() as f64 * 250.0 / 1.25,
                    servers,
                    controller,
                    capped: false,
                })
            });
            let rows = if row_first { rows } else { add_rows(&mut tb) };
            tb.run_for(SimDuration::from_mins(120));

            // The rows cover the fleet once: each placement counts in
            // the tick it happened, and in no later one.
            let placed: u64 = rows
                .iter()
                .flat_map(|&d| tb.records(d))
                .map(|r| r.placed_jobs)
                .sum();
            assert!(placed > 0, "nothing was placed");
            assert_eq!(placed, tb.sched().stats().placed);

            let [a, b] = halves.map(|d| tb.records(d));
            let whole = tb.records(rows[0]);
            for ((a, b), r) in a.iter().zip(b).zip(whole) {
                assert_eq!(a.placed_jobs + b.placed_jobs, r.placed_jobs);
                assert_eq!(a.frozen + b.frozen, r.frozen, "row_first={row_first}");
                let power = a.power_w + b.power_w;
                assert!((power - r.power_w).abs() <= 1e-9 * r.power_w);
            }
            assert!(whole.iter().any(|r| r.frozen > 0), "nothing was frozen");
        }
    }

    #[test]
    fn capped_domain_limits_power() {
        let mut tb = Testbed::new(TestbedConfig {
            capping: CappingConfig::default(),
            ..quick_config(RateProfile::Constant { per_min: 900.0 })
        });
        let servers: Vec<ServerId> = (0..8).map(ServerId::new).collect();
        let budget = 8.0 * 250.0 / 1.25;
        let d = tb.add_domain(DomainSpec {
            name: "capped".into(),
            servers,
            budget_w: budget,
            controller: None,
            capped: true,
        });
        tb.run_for(SimDuration::from_mins(120));
        // True (pre-noise) power stays at/below the budget; noisy
        // measurement may wobble a hair above.
        for r in tb.records(d) {
            assert!(
                r.power_w <= budget * 1.02,
                "capping failed: {} > {budget}",
                r.power_w
            );
        }
        // Under a 900 jobs/min flood the capper must have engaged.
        let engaged: usize = tb.records(d).iter().map(|r| r.capped_servers).sum();
        assert!(engaged > 0);
    }

    #[test]
    fn manual_freeze_reduces_placements() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 400.0 }));
        let d_all = tb.add_row_domains(1.0).unwrap();
        // Freeze all of row 0; jobs must land in row 1 only.
        for id in 0..8 {
            tb.freeze(ServerId::new(id));
        }
        tb.run_for(SimDuration::from_mins(15));
        let placed = |d: DomainId| WindowStats::of(tb.records(d), tb.domain_budget_w(d)).placed;
        let row0_placed = placed(d_all[0]);
        let row1_placed = placed(d_all[1]);
        assert_eq!(row0_placed, 0);
        assert!(row1_placed > 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the tick")]
    fn run_for_rejects_partial_ticks() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 1.0 }));
        tb.run_for(SimDuration::from_secs(90));
    }

    #[test]
    fn duplicate_row_domains_rejected() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 10.0 }));
        let first = tb.add_row_domains(1.0).unwrap();
        assert_eq!(first.len(), 2);
        let err = tb.add_row_domains(0.9).unwrap_err();
        assert_eq!(err, TestbedError::DuplicateRowDomain(RowId::new(0)));
        assert!(err.to_string().contains("already registered"));
        // The failed call registered nothing: domain count is unchanged
        // and the testbed still runs.
        tb.run_for(SimDuration::from_mins(2));
        assert_eq!(tb.records(first[1]).len(), 2);
    }

    #[test]
    fn typed_errors_for_bad_domains_and_budgets() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 10.0 }));
        let empty = tb.try_add_domain(DomainSpec {
            name: "empty".into(),
            servers: vec![],
            budget_w: 1_000.0,
            controller: None,
            capped: false,
        });
        assert_eq!(empty.unwrap_err(), TestbedError::EmptyDomain);
        assert_eq!(TestbedError::EmptyDomain.to_string(), "empty domain");

        let phantom = ServerId::new(999);
        let unknown = tb.try_add_domain(DomainSpec {
            name: "phantom".into(),
            servers: vec![phantom],
            budget_w: 1_000.0,
            controller: None,
            capped: false,
        });
        assert_eq!(unknown.unwrap_err(), TestbedError::UnknownServer(phantom));
        assert!(TestbedError::UnknownServer(phantom)
            .to_string()
            .contains("unknown server"));

        let d = tb.add_domain(DomainSpec {
            name: "real".into(),
            servers: vec![ServerId::new(0)],
            budget_w: 1_000.0,
            controller: None,
            capped: false,
        });
        assert_eq!(
            tb.try_set_control_budget_w(d, Some(-5.0)).unwrap_err(),
            TestbedError::BadControlBudget(-5.0)
        );
        assert_eq!(
            TestbedError::BadControlBudget(-5.0).to_string(),
            "bad control budget: -5"
        );
        // Valid overrides (and clearing one) still apply.
        tb.try_set_control_budget_w(d, Some(900.0)).unwrap();
        tb.try_set_control_budget_w(d, None).unwrap();
    }

    #[test]
    fn freeze_paths_surface_scheduler_status() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 10.0 }));
        let rows = tb.add_row_domains(1.0).unwrap();
        assert_eq!(tb.freeze(ServerId::new(0)), FreezeStatus::Applied);
        assert_eq!(tb.freeze(ServerId::new(0)), FreezeStatus::AlreadyInState);
        assert_eq!(tb.freeze(ServerId::new(999)), FreezeStatus::UnknownServer);
        // Only one server in the row is frozen, so only one transition
        // applies on the domain-wide unfreeze.
        assert_eq!(tb.unfreeze_domain(rows[0]), 1);
        assert_eq!(tb.unfreeze(ServerId::new(0)), FreezeStatus::AlreadyInState);
    }

    #[test]
    #[should_panic(expected = "bad control budget")]
    fn set_control_budget_panics_on_bad_override() {
        let mut tb = Testbed::new(quick_config(RateProfile::Constant { per_min: 10.0 }));
        let rows = tb.add_row_domains(1.0).unwrap();
        tb.set_control_budget_w(rows[0], Some(f64::NAN));
    }

    #[test]
    fn sharded_testbed_matches_itself_at_any_worker_count() {
        let run = |workers: usize| {
            let mut sh = ShardedTestbed::new(ShardedTestbedConfig::quick(5, workers, 42));
            sh.run_for(SimDuration::from_mins(30));
            sh.finish();
            sh.checksum()
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        // And the same seed replays exactly.
        assert_eq!(serial, run(1));
        // A different seed diverges.
        let mut other = ShardedTestbed::new(ShardedTestbedConfig::quick(5, 2, 43));
        other.run_for(SimDuration::from_mins(30));
        assert_ne!(serial, other.checksum());
    }

    #[test]
    fn sharded_shards_are_independent_of_shard_count() {
        // Shard 1's trajectory is the same whether 3 or 6 shards run.
        let records = |shards: usize| {
            let mut sh = ShardedTestbed::new(ShardedTestbedConfig::quick(shards, 2, 7));
            sh.run_for(SimDuration::from_mins(20));
            sh.records(1)
                .iter()
                .map(|r| (r.power_w.to_bits(), r.frozen, r.placed_jobs))
                .collect::<Vec<_>>()
        };
        assert_eq!(records(3), records(6));
    }

    #[test]
    fn sharded_controllers_act_under_pressure() {
        let mut sh = ShardedTestbed::new(ShardedTestbedConfig::quick(3, 2, 11));
        sh.run_for(SimDuration::from_mins(120));
        let froze_any =
            (0..sh.shard_count()).any(|s| sh.records(s).iter().any(|r| r.freezing_ratio > 0.0));
        assert!(froze_any, "no shard controller ever froze a server");
        assert_eq!(sh.ticks_run(), 120);
        assert_eq!(sh.records(0).len(), 120);
    }
}
