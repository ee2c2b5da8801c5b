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
//! Row power is additionally tracked *incrementally*: every mutation
//! applies the signed delta `new_power − old_power` to its row's
//! accumulator, so `FleetState::row_power_acc_w` is O(1) instead of
//! an O(servers-per-row) re-sum. Floating-point deltas drift, so a
//! periodic *re-sum epoch* (every `FleetState::resum_interval` calls
//! to `FleetState::advance_into`) rebuilds each accumulator from an
//! exact ascending-index sum, bounding the drift between epochs.
//!
//! Jobs live in a slot arena: one global `Vec<JobSlot>` plus a
//! singly-linked free list, with each server holding the head of its
//! job list. Slot indices are stable `u32` handles while a job runs;
//! completed slots recycle through the free list, so a steady-state
//! run allocates nothing on the job path.

use ampere_power::monitor::ServerSample;
use ampere_power::{DvfsState, ServerPowerModel};
use ampere_sim::SimDuration;

use crate::ids::{JobId, RackId, RowId, ServerId};
use crate::resources::Resources;
use crate::server::{PlacementError, RunningJob};
use crate::topology::{ClusterSpec, ServiceClass};

/// Sentinel for "no slot" in the intrusive job lists.
const NIL: u32 = u32::MAX;

/// Ticks between accumulator re-sum epochs by default. Each delta op
/// adds at most a couple of ULPs of the row sum, so at one-minute ticks
/// this keeps the relative drift orders of magnitude under the 1e-9
/// contract the property suite enforces.
pub const DEFAULT_RESUM_INTERVAL: u32 = 64;

/// One running job in the slot arena.
#[derive(Debug, Clone, Copy)]
struct JobSlot {
    job: JobId,
    resources: Resources,
    remaining_ms: f64,
    /// Next slot of the same server's job list, or the next free slot
    /// while recycled; `NIL` terminates either list.
    next: u32,
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
    /// Head slot of each server's job list (`NIL` when idle).
    job_head: Vec<u32>,
    job_count: Vec<u32>,
    // --- job slot arena ---
    slots: Vec<JobSlot>,
    free_head: u32,
    // --- incremental row aggregation ---
    servers_per_row: usize,
    /// Per-row power accumulator maintained by signed deltas.
    row_power_acc: Vec<f64>,
    /// Per-row frozen-server counts (integral, hence always exact).
    row_frozen: Vec<u32>,
    /// Whether any server may be below nominal frequency — lets the
    /// per-tick bulk DVFS reset short-circuit on uncapped fleets.
    any_non_nominal: bool,
    resum_interval: u32,
    ticks_since_resum: u32,
    resum_epochs: u64,
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
        let mut fleet = Self {
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
            job_head: vec![NIL; n],
            job_count: vec![0; n],
            slots: Vec::new(),
            free_head: NIL,
            servers_per_row: spec.servers_per_row(),
            row_power_acc: vec![0.0; spec.rows],
            row_frozen: vec![0; spec.rows],
            any_non_nominal: false,
            resum_interval: DEFAULT_RESUM_INTERVAL,
            ticks_since_resum: 0,
            resum_epochs: 0,
        };
        fleet.resum();
        fleet.resum_epochs = 0;
        fleet
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
        self.job_count[i] as usize
    }

    pub(crate) fn jobs(&self, i: usize) -> impl Iterator<Item = (JobId, RunningJob)> + '_ {
        let mut cur = self.job_head[i];
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[cur as usize];
            cur = slot.next;
            Some((
                slot.job,
                RunningJob {
                    resources: slot.resources,
                    remaining_ms: slot.remaining_ms,
                },
            ))
        })
    }

    /// Re-derives the cached utilization and power of server `i` after
    /// a mutation, pushing the power delta into its row accumulator.
    fn refresh_power(&mut self, i: usize) {
        let u = self.allocated[i].cpu_fraction_of(&self.capacity[i]);
        let p = self.model[i].power_w(u, self.dvfs[i]);
        self.row_power_acc[self.row[i] as usize] += p - self.power[i];
        self.util[i] = u;
        self.power[i] = p;
    }

    fn alloc_slot(&mut self, slot: JobSlot) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("job arena overflow");
            self.slots.push(slot);
            idx
        }
    }

    // --- per-server mutations ---

    pub(crate) fn place(
        &mut self,
        i: usize,
        job: JobId,
        resources: Resources,
        duration: SimDuration,
    ) -> Result<(), PlacementError> {
        let mut cur = self.job_head[i];
        while cur != NIL {
            let slot = &self.slots[cur as usize];
            if slot.job == job {
                return Err(PlacementError::DuplicateJob);
            }
            cur = slot.next;
        }
        if !(self.capacity[i] - self.allocated[i]).fits(&resources) {
            return Err(PlacementError::InsufficientResources);
        }
        self.allocated[i] += resources;
        let head = self.job_head[i];
        let idx = self.alloc_slot(JobSlot {
            job,
            resources,
            remaining_ms: duration.as_millis() as f64,
            next: head,
        });
        self.job_head[i] = idx;
        self.job_count[i] += 1;
        self.refresh_power(i);
        Ok(())
    }

    pub(crate) fn terminate(&mut self, i: usize, job: JobId) -> bool {
        let mut prev = NIL;
        let mut cur = self.job_head[i];
        while cur != NIL {
            let next = self.slots[cur as usize].next;
            if self.slots[cur as usize].job == job {
                self.allocated[i] -= self.slots[cur as usize].resources;
                if prev == NIL {
                    self.job_head[i] = next;
                } else {
                    self.slots[prev as usize].next = next;
                }
                self.slots[cur as usize].next = self.free_head;
                self.free_head = cur;
                self.job_count[i] -= 1;
                self.refresh_power(i);
                return true;
            }
            prev = cur;
            cur = next;
        }
        false
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
    /// frequency), appending `(server, job)` completions to `out` and
    /// ticking the re-sum epoch counter.
    pub(crate) fn advance_into(&mut self, tick: SimDuration, out: &mut Vec<(ServerId, JobId)>) {
        let tick_ms = tick.as_millis() as f64;
        for i in 0..self.len() {
            if self.job_count[i] == 0 {
                continue;
            }
            let progress = tick_ms * self.dvfs[i].freq();
            let mut prev = NIL;
            let mut cur = self.job_head[i];
            let mut completed = false;
            while cur != NIL {
                let next = self.slots[cur as usize].next;
                self.slots[cur as usize].remaining_ms -= progress;
                if self.slots[cur as usize].remaining_ms <= 0.0 {
                    out.push((ServerId::new(i as u64), self.slots[cur as usize].job));
                    self.allocated[i] -= self.slots[cur as usize].resources;
                    if prev == NIL {
                        self.job_head[i] = next;
                    } else {
                        self.slots[prev as usize].next = next;
                    }
                    self.slots[cur as usize].next = self.free_head;
                    self.free_head = cur;
                    self.job_count[i] -= 1;
                    completed = true;
                } else {
                    prev = cur;
                }
                cur = next;
            }
            if completed {
                self.refresh_power(i);
            }
        }
        self.ticks_since_resum += 1;
        if self.ticks_since_resum >= self.resum_interval {
            self.resum();
        }
    }

    // --- row aggregation ---

    /// O(1) incremental row power (delta-maintained; exact at every
    /// re-sum epoch, drift-bounded between them).
    pub(crate) fn row_power_acc_w(&self, row: usize) -> f64 {
        self.row_power_acc[row]
    }

    /// Exact row power: ascending-index sum over the cached per-server
    /// values — the reference the accumulator is measured against.
    pub(crate) fn exact_row_power_w(&self, row: usize) -> f64 {
        let start = row * self.servers_per_row;
        self.power[start..start + self.servers_per_row].iter().sum()
    }

    pub(crate) fn frozen_in_row(&self, row: usize) -> usize {
        self.row_frozen[row] as usize
    }

    pub(crate) fn all_nominal_dvfs(&self) -> bool {
        !self.any_non_nominal
    }

    /// Rebuilds every row accumulator from an exact sum and recounts
    /// frozen servers, opening a new drift epoch.
    pub(crate) fn resum(&mut self) {
        for row in 0..self.row_power_acc.len() {
            self.row_power_acc[row] = self.exact_row_power_w(row);
        }
        self.row_frozen.iter_mut().for_each(|c| *c = 0);
        for i in 0..self.len() {
            if self.frozen[i] {
                self.row_frozen[self.row[i] as usize] += 1;
            }
        }
        self.ticks_since_resum = 0;
        self.resum_epochs += 1;
    }

    pub(crate) fn set_resum_interval(&mut self, ticks: u32) {
        assert!(ticks > 0, "re-sum interval must be positive");
        self.resum_interval = ticks;
    }

    pub(crate) fn resum_epochs(&self) -> u64 {
        self.resum_epochs
    }

    /// Live job slots (arena occupancy minus the free list) — exposed
    /// for arena-recycling tests.
    pub(crate) fn live_jobs(&self) -> usize {
        self.job_count.iter().map(|&c| c as usize).sum()
    }

    /// Total arena capacity ever allocated, recycled slots included.
    pub(crate) fn arena_slots(&self) -> usize {
        self.slots.len()
    }
}
