//! Flat struct-of-arrays fleet storage — the hyperscale hot path.
//!
//! `FleetState` holds every per-server field in its own parallel
//! `Vec`, indexed by the dense server id (row-major, as laid out by
//! [`crate::topology::Cluster`]). The per-tick loops that dominate a
//! simulation — the measurement sweep, job progression, the scheduler's
//! candidate scan — are linear walks over contiguous arrays.
//!
//! Two invariants make every trajectory a pure function of the
//! operations applied, which the committed checksums and golden
//! figures pin (DESIGN §14):
//!
//! - **Cached power is a pure function.** `power[i]` always equals
//!   `model[i].power_w(util[i], dvfs[i])`, recomputed at every mutation
//!   of the inputs, so reading the cache in the sweep yields the same
//!   bits as evaluating the model at sample time.
//! - **Integral resource accounting.** [`Resources`] is integral
//!   (millicores / MB), so `allocated` never depends on the order jobs
//!   start or stop.
//!
//! Row power is not stored: `FleetState::row_power_w` sums the cached
//! per-server power of the row in ascending id order, the same sum the
//! power monitor takes over a sweep. Only the per-row frozen count is
//! kept alongside, and `freeze`/`unfreeze` keep it exact.
//!
//! Each server keeps its running jobs in one contiguous `Vec<JobSlot>`,
//! so progressing a server's jobs is a linear walk over adjacent
//! memory. Completions and terminations `swap_remove`, and a vector's
//! capacity is kept once grown, so a steady-state run allocates nothing
//! on the job path. The order of jobs within a server, and hence of a
//! server's completions in one tick, is unspecified: no trajectory
//! reads it (resources are integral, each job progresses on its own,
//! and power is re-derived once per server after its completions).
//!
//! Each server also keeps `max_job`, the largest raw id ever placed on
//! it. An id above it cannot be running there, so `place` scans for a
//! duplicate only for ids at or below it; monotone workload ids never
//! scan.

use ampere_power::monitor::ServerSample;
use ampere_power::{DvfsState, ServerPowerModel};
use ampere_sim::SimDuration;

use crate::ids::{JobId, RackId, RowId, ServerId};
use crate::resources::Resources;
use crate::server::{PlacementError, RunningJob};
use crate::topology::{ClusterSpec, ServiceClass};

/// One running job on a server.
#[derive(Debug, Clone, Copy)]
struct JobSlot {
    job: JobId,
    resources: Resources,
    remaining_ms: f64,
}

/// Struct-of-arrays state for every server in the cluster.
#[derive(Debug, Clone)]
pub(crate) struct FleetState {
    // --- static identity (parallel to server index) ---
    rack: Vec<u32>,
    row: Vec<u32>,
    model: Vec<ServerPowerModel>,
    capacity: Vec<Resources>,
    // --- dynamic state ---
    allocated: Vec<Resources>,
    /// Cached CPU utilization: `allocated.cpu_fraction_of(capacity)`.
    util: Vec<f64>,
    /// Cached power: `model.power_w(util, dvfs)`, maintained at every
    /// mutation so sweeps read instead of recompute.
    power: Vec<f64>,
    dvfs: Vec<DvfsState>,
    frozen: Vec<bool>,
    /// Service class of each server (all [`ServiceClass::Interactive`]
    /// unless the builder assigns a mix) — static after construction
    /// apart from explicit retags, so it never touches the hot path.
    class: Vec<ServiceClass>,
    /// Running jobs of each server, in unspecified order.
    jobs: Vec<Vec<JobSlot>>,
    /// Largest raw job id ever placed on each server (0 before any):
    /// every running job's id is at or below it.
    max_job: Vec<u64>,
    // --- row aggregation ---
    servers_per_row: usize,
    /// Per-row frozen-server counts (integral, hence always exact).
    row_frozen: Vec<u32>,
    /// Whether any server may be below nominal frequency — lets the
    /// per-tick bulk DVFS reset short-circuit on uncapped fleets.
    any_non_nominal: bool,
}

impl FleetState {
    pub(crate) fn new(
        spec: &ClusterSpec,
        class_of: impl Fn(usize) -> (ServerPowerModel, Resources),
    ) -> Self {
        let n = spec.server_count();
        let mut rack = Vec::with_capacity(n);
        let mut row = Vec::with_capacity(n);
        let mut model = Vec::with_capacity(n);
        let mut capacity = Vec::with_capacity(n);
        let mut power = Vec::with_capacity(n);
        for r in 0..spec.rows {
            for rack_in_row in 0..spec.racks_per_row {
                let rack_id = (r * spec.racks_per_row + rack_in_row) as u32;
                for _ in 0..spec.servers_per_rack {
                    let (m, cap) = class_of(rack.len());
                    rack.push(rack_id);
                    row.push(r as u32);
                    power.push(m.power_w(0.0, DvfsState::nominal()));
                    model.push(m);
                    capacity.push(cap);
                }
            }
        }
        Self {
            rack,
            row,
            model,
            capacity,
            allocated: vec![Resources::ZERO; n],
            util: vec![0.0; n],
            power,
            dvfs: vec![DvfsState::nominal(); n],
            frozen: vec![false; n],
            class: vec![ServiceClass::default(); n],
            jobs: vec![Vec::new(); n],
            max_job: vec![0; n],
            servers_per_row: spec.servers_per_row(),
            row_frozen: vec![0; spec.rows],
            any_non_nominal: false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.rack.len()
    }

    // --- per-server reads ---

    pub(crate) fn rack_id(&self, i: usize) -> RackId {
        RackId::new(self.rack[i] as u64)
    }

    pub(crate) fn row_id(&self, i: usize) -> RowId {
        RowId::new(self.row[i] as u64)
    }

    pub(crate) fn model(&self, i: usize) -> &ServerPowerModel {
        &self.model[i]
    }

    pub(crate) fn capacity(&self, i: usize) -> Resources {
        self.capacity[i]
    }

    pub(crate) fn allocated(&self, i: usize) -> Resources {
        self.allocated[i]
    }

    pub(crate) fn utilization(&self, i: usize) -> f64 {
        self.util[i]
    }

    pub(crate) fn power_w(&self, i: usize) -> f64 {
        self.power[i]
    }

    pub(crate) fn dvfs(&self, i: usize) -> DvfsState {
        self.dvfs[i]
    }

    pub(crate) fn is_frozen(&self, i: usize) -> bool {
        self.frozen[i]
    }

    pub(crate) fn service_class(&self, i: usize) -> ServiceClass {
        self.class[i]
    }

    pub(crate) fn set_service_class(&mut self, i: usize, class: ServiceClass) {
        self.class[i] = class;
    }

    pub(crate) fn job_count(&self, i: usize) -> usize {
        self.jobs[i].len()
    }

    pub(crate) fn jobs(&self, i: usize) -> impl Iterator<Item = (JobId, RunningJob)> + '_ {
        self.jobs[i].iter().map(|slot| {
            (
                slot.job,
                RunningJob {
                    resources: slot.resources,
                    remaining_ms: slot.remaining_ms,
                },
            )
        })
    }

    /// Re-derives the cached utilization and power of server `i` after
    /// a mutation.
    fn refresh_power(&mut self, i: usize) {
        let u = self.allocated[i].cpu_fraction_of(&self.capacity[i]);
        self.util[i] = u;
        self.power[i] = self.model[i].power_w(u, self.dvfs[i]);
    }

    // --- per-server mutations ---

    pub(crate) fn place(
        &mut self,
        i: usize,
        job: JobId,
        resources: Resources,
        duration: SimDuration,
    ) -> Result<(), PlacementError> {
        if job.raw() <= self.max_job[i] && self.jobs[i].iter().any(|slot| slot.job == job) {
            return Err(PlacementError::DuplicateJob);
        }
        if !(self.capacity[i] - self.allocated[i]).fits(&resources) {
            return Err(PlacementError::InsufficientResources);
        }
        self.allocated[i] += resources;
        self.jobs[i].push(JobSlot {
            job,
            resources,
            remaining_ms: duration.as_millis() as f64,
        });
        self.max_job[i] = self.max_job[i].max(job.raw());
        self.refresh_power(i);
        Ok(())
    }

    pub(crate) fn terminate(&mut self, i: usize, job: JobId) -> bool {
        let Some(k) = self.jobs[i].iter().position(|slot| slot.job == job) else {
            return false;
        };
        self.allocated[i] -= self.jobs[i].swap_remove(k).resources;
        self.refresh_power(i);
        true
    }

    pub(crate) fn set_dvfs(&mut self, i: usize, state: DvfsState) {
        if state == self.dvfs[i] {
            return;
        }
        self.dvfs[i] = state;
        if state.freq() < 1.0 {
            self.any_non_nominal = true;
        }
        self.refresh_power(i);
    }

    pub(crate) fn freeze(&mut self, i: usize) {
        if !self.frozen[i] {
            self.frozen[i] = true;
            self.row_frozen[self.row[i] as usize] += 1;
        }
    }

    pub(crate) fn unfreeze(&mut self, i: usize) {
        if self.frozen[i] {
            self.frozen[i] = false;
            self.row_frozen[self.row[i] as usize] -= 1;
        }
    }

    // --- bulk hot-path operations ---

    /// Resets every server to nominal frequency. A no-op scan is
    /// skipped entirely while no capper has touched any server.
    pub(crate) fn reset_dvfs_nominal(&mut self) {
        if !self.any_non_nominal {
            return;
        }
        for i in 0..self.len() {
            if self.dvfs[i].freq() < 1.0 {
                self.dvfs[i] = DvfsState::nominal();
                self.refresh_power(i);
            }
        }
        self.any_non_nominal = false;
    }

    /// Appends one sample per server (ascending id) to `out`.
    pub(crate) fn sample_into(
        &self,
        out: &mut Vec<ServerSample>,
        mut noise: impl FnMut(ServerId, f64) -> f64,
    ) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(ServerSample {
                server: i as u64,
                rack: self.rack[i] as u64,
                row: self.row[i] as u64,
                watts: noise(ServerId::new(i as u64), self.power[i]),
            });
        }
    }

    /// Visits every unfrozen server in ascending id order with
    /// `(id, row, free, utilization)` — the scheduler's candidate scan.
    pub(crate) fn each_candidate(&self, mut f: impl FnMut(ServerId, RowId, Resources, f64)) {
        for i in 0..self.len() {
            if self.frozen[i] {
                continue;
            }
            f(
                ServerId::new(i as u64),
                RowId::new(self.row[i] as u64),
                self.capacity[i] - self.allocated[i],
                self.util[i],
            );
        }
    }

    /// Advances every running job by one tick (work scaled by the DVFS
    /// frequency), appending `(server, job)` completions to `out`.
    pub(crate) fn advance_into(&mut self, tick: SimDuration, out: &mut Vec<(ServerId, JobId)>) {
        let tick_ms = tick.as_millis() as f64;
        for i in 0..self.len() {
            let jobs = &mut self.jobs[i];
            if jobs.is_empty() {
                continue;
            }
            let progress = tick_ms * self.dvfs[i].freq();
            let before = jobs.len();
            let mut k = 0;
            // A `swap_remove` moves the last job into slot `k`, which the
            // next pass then progresses: each job advances exactly once.
            while k < jobs.len() {
                let slot = &mut jobs[k];
                slot.remaining_ms -= progress;
                if slot.remaining_ms <= 0.0 {
                    out.push((ServerId::new(i as u64), slot.job));
                    self.allocated[i] -= slot.resources;
                    jobs.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            if jobs.len() < before {
                self.refresh_power(i);
            }
        }
    }

    // --- row aggregation ---

    /// Row power: ascending-index sum over the cached per-server values.
    pub(crate) fn row_power_w(&self, row: usize) -> f64 {
        let start = row * self.servers_per_row;
        self.power[start..start + self.servers_per_row].iter().sum()
    }

    pub(crate) fn frozen_in_row(&self, row: usize) -> usize {
        self.row_frozen[row] as usize
    }

    pub(crate) fn all_nominal_dvfs(&self) -> bool {
        !self.any_non_nominal
    }

    /// Job slots allocated across every server's job vector, used or
    /// not.
    #[cfg(test)]
    pub(crate) fn job_capacity(&self) -> usize {
        self.jobs.iter().map(Vec::capacity).sum()
    }
}
