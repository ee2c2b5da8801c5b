//! Cluster topology: rows of racks of servers.
//!
//! Server ids are dense and laid out row-major (all servers of row 0,
//! then row 1, …), so row membership is computable without lookup
//! tables and per-row scans are cache-friendly — the controller scans
//! one row per tick at data-center scale.
//!
//! A [`Cluster`] stores server state in the flat struct-of-arrays
//! `FleetState`, with cached per-server power — the hyperscale hot
//! path (DESIGN §14). Per-server access goes through the [`ServerRef`]
//! / [`ServerMut`] proxies.

use ampere_power::monitor::ServerSample;
use ampere_power::{DvfsState, ServerPowerModel};
use ampere_sim::SimDuration;

use crate::fleet::FleetState;
use crate::ids::{JobId, RackId, RowId, ServerId};
use crate::resources::Resources;
use crate::server::{PlacementError, RunningJob};

/// What a server serves: user-facing interactive traffic (protected
/// by the SLA-aware freeze selector) or deferrable batch work (frozen
/// first). The default is `Interactive`, so legacy fleets built without
/// a class mix behave exactly as before: every server equally
/// protected, every policy reducing to the uniform one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceClass {
    /// User-facing, latency-sensitive traffic (e.g. the streaming
    /// service's request path). Frozen only when the batch pool of the
    /// same selection scope is exhausted.
    #[default]
    Interactive,
    /// Deferrable throughput work (analytics, transcodes, side tasks).
    /// First in line for freezing, last to unfreeze.
    Batch,
}

impl ServiceClass {
    /// Stable lowercase name (`"interactive"` / `"batch"`), used in
    /// telemetry events and dump lines.
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Interactive => "interactive",
            ServiceClass::Batch => "batch",
        }
    }
}

/// Static description of a cluster to build.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of rows (PDU power domains).
    pub rows: usize,
    /// Racks per row (≈ 20 in the paper's data centers).
    pub racks_per_row: usize,
    /// Servers per rack (≈ 40 at 250 W against a 10 kW rack budget).
    pub servers_per_rack: usize,
    /// Power model shared by all servers (the paper's row is
    /// homogeneous, §4.1.1).
    pub power_model: ServerPowerModel,
    /// Resource capacity of each server.
    pub capacity: Resources,
}

impl ClusterSpec {
    /// The paper's evaluation row: "a single row with 400+ homogeneous
    /// servers" — 11 racks × 40 servers = 440.
    pub fn paper_row() -> Self {
        Self {
            rows: 1,
            racks_per_row: 11,
            servers_per_rack: 40,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// A multi-row slice of a data center for the characterization
    /// figures (Fig 1/2): `rows` full rows of 20 racks.
    pub fn data_center(rows: usize) -> Self {
        Self {
            rows,
            racks_per_row: 20,
            servers_per_rack: 40,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// A tiny cluster for fast tests.
    pub fn tiny() -> Self {
        Self {
            rows: 2,
            racks_per_row: 2,
            servers_per_rack: 4,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// Servers in each row.
    pub fn servers_per_row(&self) -> usize {
        self.racks_per_row * self.servers_per_rack
    }

    /// Total servers in the cluster.
    pub fn server_count(&self) -> usize {
        self.rows * self.servers_per_row()
    }

    /// Sum of rated power over one row — the provisioning basis `PM`
    /// when provisioning by rated power (§1).
    pub fn rated_row_power_w(&self) -> f64 {
        self.servers_per_row() as f64 * self.power_model.rated_w
    }
}

/// The simulated fleet: the topology spec over flat struct-of-arrays
/// server state.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    fleet: FleetState,
}

/// Shared view of one server.
#[derive(Clone, Copy)]
pub struct ServerRef<'a> {
    fleet: &'a FleetState,
    index: usize,
}

/// Mutable view of one server.
pub struct ServerMut<'a> {
    fleet: &'a mut FleetState,
    index: usize,
}

impl Cluster {
    /// Builds an idle, homogeneous cluster from a spec (the paper's
    /// evaluation row is homogeneous, §4.1.1).
    pub fn new(spec: ClusterSpec) -> Self {
        Self::new_with(spec, |_| (spec.power_model, spec.capacity))
    }

    /// Builds an idle cluster with per-server hardware classes:
    /// `class_of(index)` returns the power model and capacity of the
    /// server at that dense index. Real fleets mix generations; the
    /// controller handles this without change because Algorithm 1 ranks
    /// by measured watts, not by ratio of rated power.
    pub fn new_with(
        spec: ClusterSpec,
        class_of: impl Fn(usize) -> (ServerPowerModel, Resources),
    ) -> Self {
        assert!(spec.rows > 0 && spec.racks_per_row > 0 && spec.servers_per_rack > 0);
        Self {
            spec,
            fleet: FleetState::new(&spec, class_of),
        }
    }

    /// Sum of the *actual* rated power over one row. Equals
    /// `spec.rated_row_power_w()` for homogeneous fleets, differs for
    /// clusters built with [`Cluster::new_with`].
    pub fn actual_rated_row_power_w(&self, row: RowId) -> f64 {
        self.row_server_ids(row)
            .map(|id| self.server(id).rated_w())
            .sum()
    }

    /// The building spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.fleet.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.spec.rows
    }

    /// Shared view of one server.
    pub fn server(&self, id: ServerId) -> ServerRef<'_> {
        debug_assert!(id.index() < self.server_count());
        ServerRef {
            fleet: &self.fleet,
            index: id.index(),
        }
    }

    /// Mutable view of one server.
    pub fn server_mut(&mut self, id: ServerId) -> ServerMut<'_> {
        assert!(id.index() < self.server_count(), "unknown server {id}");
        ServerMut {
            fleet: &mut self.fleet,
            index: id.index(),
        }
    }

    /// Iterates over all servers in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ServerRef<'_>> {
        (0..self.server_count()).map(move |index| ServerRef {
            fleet: &self.fleet,
            index,
        })
    }

    /// Iterates over the servers of one row in ascending id order.
    pub fn iter_row(&self, row: RowId) -> impl Iterator<Item = ServerRef<'_>> {
        let per_row = self.spec.servers_per_row();
        let start = row.index() * per_row;
        (start..start + per_row).map(move |index| ServerRef {
            fleet: &self.fleet,
            index,
        })
    }

    /// Ids of the servers in `row` (dense range).
    pub fn row_server_ids(&self, row: RowId) -> impl Iterator<Item = ServerId> {
        let per_row = self.spec.servers_per_row();
        let start = row.index() * per_row;
        (start..start + per_row).map(|i| ServerId::new(i as u64))
    }

    /// Visits every unfrozen server in ascending id order with
    /// `(id, row, free, utilization)` — the scheduler's candidate scan,
    /// a linear walk over contiguous arrays.
    pub fn each_candidate(&self, f: impl FnMut(ServerId, RowId, Resources, f64)) {
        self.fleet.each_candidate(f);
    }

    /// Instantaneous power of one row in watts: the ascending-id sum of
    /// its servers' cached power.
    pub fn row_power_w(&self, row: RowId) -> f64 {
        self.fleet.row_power_w(row.index())
    }

    /// Instantaneous total power in watts: the sum of the row powers in
    /// ascending row order.
    pub fn total_power_w(&self) -> f64 {
        (0..self.spec.rows).map(|r| self.fleet.row_power_w(r)).sum()
    }

    /// Service class of one server.
    pub fn service_class(&self, id: ServerId) -> ServiceClass {
        self.fleet.service_class(id.index())
    }

    /// Assigns every server's service class from `class_of(index)` —
    /// the bulk path mixed-fleet builders use after construction.
    pub fn set_service_classes(&mut self, class_of: impl Fn(usize) -> ServiceClass) {
        for i in 0..self.fleet.len() {
            self.fleet.set_service_class(i, class_of(i));
        }
    }

    /// Number of frozen servers in a row. O(1).
    pub fn frozen_count(&self, row: RowId) -> usize {
        self.fleet.frozen_in_row(row.index())
    }

    /// Whether every server runs at nominal frequency — lets per-tick
    /// DVFS resets and frequency rollups short-circuit.
    pub fn all_nominal_dvfs(&self) -> bool {
        self.fleet.all_nominal_dvfs()
    }

    /// Resets every server to nominal frequency (the per-tick capper
    /// baseline). Skips the scan entirely when no server is capped.
    pub fn reset_dvfs_nominal(&mut self) {
        self.fleet.reset_dvfs_nominal();
    }

    /// Takes an IPMI-style sweep of per-server power readings for the
    /// monitor. `noise` lets callers inject per-sample measurement
    /// noise; pass `|_, w| w` for exact readings.
    pub fn sample(&self, noise: impl FnMut(ServerId, f64) -> f64) -> Vec<ServerSample> {
        let mut out = Vec::new();
        self.sample_into(&mut out, noise);
        out
    }

    /// Allocation-free variant of [`Cluster::sample`]: appends one
    /// sample per server (ascending id) to `out`.
    pub fn sample_into(
        &self,
        out: &mut Vec<ServerSample>,
        noise: impl FnMut(ServerId, f64) -> f64,
    ) {
        self.fleet.sample_into(out, noise);
    }

    /// Advances every server by one tick; returns `(server, job)` pairs
    /// for completed jobs.
    pub fn advance(&mut self, tick: SimDuration) -> Vec<(ServerId, JobId)> {
        let mut done = Vec::new();
        self.advance_into(tick, &mut done);
        done
    }

    /// Allocation-free variant of [`Cluster::advance`]: appends
    /// completions to `done`.
    pub fn advance_into(&mut self, tick: SimDuration, done: &mut Vec<(ServerId, JobId)>) {
        self.fleet.advance_into(tick, done);
    }
}

impl<'a> ServerRef<'a> {
    /// The server id.
    pub fn id(&self) -> ServerId {
        ServerId::new(self.index as u64)
    }

    /// The rack this server is mounted in.
    pub fn rack(&self) -> RackId {
        self.fleet.rack_id(self.index)
    }

    /// The row (PDU power domain) this server belongs to.
    pub fn row(&self) -> RowId {
        self.fleet.row_id(self.index)
    }

    /// The server's power model.
    pub fn power_model(&self) -> &'a ServerPowerModel {
        self.fleet.model(self.index)
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> Resources {
        self.fleet.capacity(self.index)
    }

    /// Currently allocated resources.
    pub fn allocated(&self) -> Resources {
        self.fleet.allocated(self.index)
    }

    /// Free resources.
    pub fn free(&self) -> Resources {
        self.capacity() - self.allocated()
    }

    /// CPU utilization in `[0, 1]` — the input to the power model.
    pub fn utilization(&self) -> f64 {
        self.fleet.utilization(self.index)
    }

    /// Current power draw in watts. Cached — always bit-equal to
    /// `power_model().power_w(utilization(), dvfs())`.
    pub fn power_w(&self) -> f64 {
        self.fleet.power_w(self.index)
    }

    /// Rated power in watts (the provisioning unit).
    pub fn rated_w(&self) -> f64 {
        self.power_model().rated_w
    }

    /// Current DVFS state.
    pub fn dvfs(&self) -> DvfsState {
        self.fleet.dvfs(self.index)
    }

    /// The server's service class.
    pub fn service_class(&self) -> ServiceClass {
        self.fleet.service_class(self.index)
    }

    /// Whether the scheduler has been advised not to place new jobs
    /// here. Freezing never touches running jobs (§3.4).
    pub fn is_frozen(&self) -> bool {
        self.fleet.is_frozen(self.index)
    }

    /// Number of running jobs.
    pub fn job_count(&self) -> usize {
        self.fleet.job_count(self.index)
    }

    /// Iterates over running jobs by value. Callers must treat the jobs
    /// as a set: iteration order is a storage detail.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, RunningJob)> + 'a {
        self.fleet.jobs(self.index)
    }
}

impl ServerMut<'_> {
    /// Places a job. Freezing does *not* reject placements here — the
    /// frozen flag only advises the scheduler's candidate filter, so a
    /// direct placement (e.g. a test fixture) still succeeds.
    pub fn place(
        &mut self,
        job: JobId,
        resources: Resources,
        duration: SimDuration,
    ) -> Result<(), PlacementError> {
        self.fleet.place(self.index, job, resources, duration)
    }

    /// Forcibly terminates a job (e.g. preemption tests), freeing its
    /// resources. Returns whether the job was running here.
    pub fn terminate(&mut self, job: JobId) -> bool {
        self.fleet.terminate(self.index, job)
    }

    /// Sets the DVFS state (the capper's knob).
    pub fn set_dvfs(&mut self, state: DvfsState) {
        self.fleet.set_dvfs(self.index, state);
    }

    /// Marks the server frozen (advisory; enforced by the scheduler).
    pub fn freeze(&mut self) {
        self.fleet.freeze(self.index);
    }

    /// Clears the frozen flag.
    pub fn unfreeze(&mut self) {
        self.fleet.unfreeze(self.index);
    }

    /// Whether this server is frozen.
    pub fn is_frozen(&self) -> bool {
        self.fleet.is_frozen(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimDuration;

    #[test]
    fn layout_is_row_major() {
        let c = Cluster::new(ClusterSpec::tiny());
        assert_eq!(c.server_count(), 16);
        assert_eq!(c.row_count(), 2);
        let s = c.server(ServerId::new(0));
        assert_eq!(s.row(), RowId::new(0));
        assert_eq!(s.rack(), RackId::new(0));
        let s = c.server(ServerId::new(15));
        assert_eq!(s.row(), RowId::new(1));
        assert_eq!(s.rack(), RackId::new(3));
        // Row ranges are contiguous.
        let ids: Vec<u64> = c.row_server_ids(RowId::new(1)).map(|i| i.raw()).collect();
        assert_eq!(ids, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn idle_cluster_power() {
        let c = Cluster::new(ClusterSpec::tiny());
        let idle = c.spec().power_model.idle_w();
        assert!((c.total_power_w() - idle * 16.0).abs() < 1e-9);
        assert!((c.row_power_w(RowId::new(0)) - idle * 8.0).abs() < 1e-9);
    }

    #[test]
    fn paper_row_dimensions() {
        let spec = ClusterSpec::paper_row();
        assert_eq!(spec.server_count(), 440);
        assert!((spec.rated_row_power_w() - 440.0 * 250.0).abs() < 1e-9);
    }

    #[test]
    fn advance_reports_completions() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        c.server_mut(ServerId::new(3))
            .place(
                JobId::new(7),
                Resources::cores_gb(2, 4),
                SimDuration::from_mins(1),
            )
            .unwrap();
        let done = c.advance(SimDuration::from_mins(1));
        assert_eq!(done, vec![(ServerId::new(3), JobId::new(7))]);
    }

    #[test]
    fn sample_covers_all_servers() {
        let c = Cluster::new(ClusterSpec::tiny());
        let samples = c.sample(|_, w| w);
        assert_eq!(samples.len(), 16);
        let total: f64 = samples.iter().map(|s| s.watts).sum();
        assert!((total - c.total_power_w()).abs() < 1e-9);
    }

    #[test]
    fn noise_hook_applies() {
        let c = Cluster::new(ClusterSpec::tiny());
        let samples = c.sample(|_, w| w + 1.0);
        let total: f64 = samples.iter().map(|s| s.watts).sum();
        assert!((total - (c.total_power_w() + 16.0)).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_clusters_supported() {
        // Even indices: standard 250 W nodes; odd: 400 W fat nodes.
        let fat = ServerPowerModel::new(400.0, 0.6, 1.0);
        let c = Cluster::new_with(ClusterSpec::tiny(), |i| {
            if i % 2 == 0 {
                (ServerPowerModel::default(), Resources::cores_gb(32, 128))
            } else {
                (fat, Resources::cores_gb(64, 256))
            }
        });
        assert_eq!(c.server(ServerId::new(0)).rated_w(), 250.0);
        assert_eq!(c.server(ServerId::new(1)).rated_w(), 400.0);
        assert_eq!(
            c.server(ServerId::new(1)).capacity(),
            Resources::cores_gb(64, 256)
        );
        // Row rated power reflects the mix, not the spec default.
        let actual = c.actual_rated_row_power_w(RowId::new(0));
        assert!((actual - (4.0 * 250.0 + 4.0 * 400.0)).abs() < 1e-9);
        assert!(actual > c.spec().rated_row_power_w());
    }

    #[test]
    fn service_classes_default_interactive_and_retag() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        let batch_count = |c: &Cluster, row: u64| {
            c.iter_row(RowId::new(row))
                .filter(|s| s.service_class() == ServiceClass::Batch)
                .count()
        };
        // Untagged fleets are all-interactive: the legacy behaviour.
        assert!(c
            .iter()
            .all(|s| s.service_class() == ServiceClass::Interactive));
        assert_eq!(batch_count(&c, 0), 0);
        // A bulk retag (every odd server is batch) sticks and is
        // readable through every accessor path.
        c.set_service_classes(|i| {
            if i % 2 == 1 {
                ServiceClass::Batch
            } else {
                ServiceClass::Interactive
            }
        });
        assert_eq!(c.service_class(ServerId::new(1)), ServiceClass::Batch);
        assert_eq!(
            c.server(ServerId::new(2)).service_class(),
            ServiceClass::Interactive
        );
        assert_eq!(batch_count(&c, 0), 4);
        assert_eq!(batch_count(&c, 1), 4);
        assert_eq!(ServiceClass::Batch.name(), "batch");
        assert_eq!(ServiceClass::Interactive.name(), "interactive");
    }

    #[test]
    fn frozen_count_tracks_flags() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        assert_eq!(c.frozen_count(RowId::new(0)), 0);
        c.server_mut(ServerId::new(1)).freeze();
        c.server_mut(ServerId::new(2)).freeze();
        c.server_mut(ServerId::new(9)).freeze(); // Other row.
        assert_eq!(c.frozen_count(RowId::new(0)), 2);
        assert_eq!(c.frozen_count(RowId::new(1)), 1);
        // Freezing is idempotent on the counters.
        c.server_mut(ServerId::new(1)).freeze();
        assert_eq!(c.frozen_count(RowId::new(0)), 2);
        c.server_mut(ServerId::new(1)).unfreeze();
        c.server_mut(ServerId::new(1)).unfreeze();
        assert_eq!(c.frozen_count(RowId::new(0)), 1);
    }

    #[test]
    fn cached_power_matches_model() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        c.server_mut(ServerId::new(0))
            .place(
                JobId::new(1),
                Resources::cores_gb(16, 32),
                SimDuration::from_mins(9),
            )
            .unwrap();
        c.server_mut(ServerId::new(0)).set_dvfs(DvfsState::at(0.7));
        let s = c.server(ServerId::new(0));
        let expect = s.power_model().power_w(s.utilization(), s.dvfs());
        // Bit-equal, not approximately equal: the cache must be a pure
        // function of (model, utilization, dvfs).
        assert_eq!(s.power_w().to_bits(), expect.to_bits());
    }

    #[test]
    fn steady_state_churn_allocates_nothing() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        let r = Resources::cores_gb(1, 1);
        // Steady-state churn: place/complete the same load repeatedly.
        let mut after_first = 0;
        for round in 0..10u64 {
            for i in 0..8u64 {
                c.server_mut(ServerId::new(i))
                    .place(JobId::new(round * 8 + i), r, SimDuration::from_mins(1))
                    .unwrap();
            }
            c.advance(SimDuration::from_mins(1));
            if round == 0 {
                after_first = c.fleet.job_capacity();
            }
        }
        assert!(c.iter().all(|s| s.job_count() == 0));
        // Job storage never grew past what the first round allocated.
        assert!(after_first > 0);
        assert_eq!(c.fleet.job_capacity(), after_first);
    }

    #[test]
    fn dvfs_reset_short_circuits_when_nominal() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        assert!(c.all_nominal_dvfs());
        c.server_mut(ServerId::new(5)).set_dvfs(DvfsState::at(0.5));
        assert!(!c.all_nominal_dvfs());
        c.reset_dvfs_nominal();
        assert!(c.all_nominal_dvfs());
        assert_eq!(c.server(ServerId::new(5)).dvfs(), DvfsState::nominal());
    }
}
