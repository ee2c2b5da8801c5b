//! Scenario definition and seeded generation.
//!
//! A [`Scenario`] is a complete, self-describing experiment: topology
//! shape, workload, controller perturbation and fault plan. Every field
//! is derived from one seed by [`Scenario::generate`], so a scenario is
//! reconstructible anywhere from the seed alone — the property the
//! repro command and the shrinker both rely on.

use ampere_cluster::{ClusterSpec, Resources, ServiceClass};
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile};
use ampere_faults::{FaultPlan, OutageWindow};
use ampere_power::ServerPowerModel;
use ampere_sim::{derive_stream, derive_subseed, rng::streams, SimDuration, SimTime};
use ampere_workload::RateProfile;

/// The workload presets a scenario can draw (all calibrated for the
/// paper's 440-server row; [`Scenario::profile`] rescales them to the
/// scenario's fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `RateProfile::heavy_row`: demand near or over the budget.
    Heavy,
    /// `RateProfile::light_row`: demand mostly under the budget.
    Light,
    /// A constant arrival rate (no diurnal swing at all).
    Steady,
}

impl WorkloadKind {
    /// Short name used in descriptions and JSONL rows.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Heavy => "heavy",
            WorkloadKind::Light => "light",
            WorkloadKind::Steady => "steady",
        }
    }
}

/// Workload axis: which preset, scaled how hard, swinging how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadAxis {
    /// Base preset.
    pub kind: WorkloadKind,
    /// Multiplier on the preset's per-server arrival rate.
    pub rate_scale: f64,
    /// Diurnal amplitude override (ignored by `Steady`).
    pub amplitude: f64,
}

/// Controller-perturbation axis.
///
/// `budget_scale` sets the breaker budget as a fraction of rated row
/// power; ranges are chosen so the frozen-floor power at `u_max`
/// freezing (`(1 − 0.4·u_max) · rated` with the default 0.60 idle
/// fraction) stays under the breaker budget — a correctly-signed
/// controller can always reach safety.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlAxis {
    /// Breaker budget as a fraction of rated row power.
    pub budget_scale: f64,
    /// Flat `Et` margin the controller uses.
    pub et: f64,
    /// Multiplier on the calibrated `kr` (models a mis-fit slope).
    pub kr_scale: f64,
    /// Operational freezing-ratio cap.
    pub u_max: f64,
    /// Provisioning margin between the controller's budget and the
    /// breaker's: the controller regulates against
    /// `budget · (1 − margin)` — unless the planted mis-sign bug flips
    /// it to `budget · (1 + margin)`.
    pub margin: f64,
}

/// Fault axis: a compact, shrinkable view of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAxis {
    /// Per-sample dropout probability.
    pub dropout: f64,
    /// Relative sensor bias on surviving samples.
    pub sensor_bias: f64,
    /// Probability a freeze/unfreeze RPC is lost.
    pub rpc_loss: f64,
    /// Controller outage as `(start_tick, length_ticks)`.
    pub outage: Option<(u64, u64)>,
}

impl FaultAxis {
    /// A fault axis that injects nothing.
    pub fn none() -> Self {
        Self {
            dropout: 0.0,
            sensor_bias: 0.0,
            rpc_loss: 0.0,
            outage: None,
        }
    }

    /// Whether this axis injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.dropout == 0.0
            && self.sensor_bias == 0.0
            && self.rpc_loss == 0.0
            && self.outage.is_none()
    }
}

/// Budget axis: a multi-row scenario splits one substation budget
/// across its rows through the [`ampere_arbiter`] water-fill instead of
/// giving every row the full control budget. The skew models a forecast
/// that favors some rows — the arbiter's input, not the workload's —
/// so the budget split is unequal while demand stays symmetric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetAxis {
    /// Substation budget as a fraction of `rows × control budget`
    /// (< 1 oversubscribes the shared feed).
    pub substation_scale: f64,
    /// Forecast-weight skew across rows in `[0, 1)`: row weights run
    /// linearly from `1 − skew/2` to `1 + skew/2`.
    pub skew: f64,
    /// Per-row floor as a fraction of the equal substation share.
    pub floor_scale: f64,
    /// Reallocation cadence in ticks.
    pub grant_period: u64,
    /// Arbiter hysteresis fraction.
    pub hysteresis: f64,
}

/// Service-mix axis: tag a trailing block of each row's servers as
/// batch and run the scheduler's *selective* freeze policy (batch
/// first, interactive only when batch is exhausted) instead of the
/// uniform one. The fraction is drawn at or above the generator's
/// `u_max` ceiling so a correctly-ordered selector never needs to
/// touch an interactive server — which is exactly what the
/// `sla-protection` invariant checks from the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMixAxis {
    /// Fraction of each row's servers tagged [`ServiceClass::Batch`]
    /// (the freeze-first pool), as a trailing id block per row.
    pub batch_fraction: f64,
}

/// One complete randomized scenario, reconstructible from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed every field below was derived from.
    pub seed: u64,
    /// Simulated minutes (one tick per minute).
    pub ticks: u64,
    /// Topology: rows (each row is one controlled power domain).
    pub rows: usize,
    /// Topology: racks per row.
    pub racks_per_row: usize,
    /// Topology: servers per rack.
    pub servers_per_rack: usize,
    /// Workload axis.
    pub workload: WorkloadAxis,
    /// Controller axis.
    pub control: ControlAxis,
    /// Fault axis.
    pub faults: FaultAxis,
    /// Budget axis: `Some` on multi-row scenarios that arbitrate one
    /// substation budget across rows, `None` for independent rows.
    pub budget: Option<BudgetAxis>,
    /// Service-mix axis: `Some` tags a batch block per row and runs
    /// the selective freeze policy, `None` keeps the uniform one.
    pub service_mix: Option<ServiceMixAxis>,
}

/// Arrival rate the presets were calibrated against.
const CALIBRATED_SERVERS: f64 = 440.0;

impl Scenario {
    /// Derives a full scenario from a seed. Same seed ⇒ same scenario,
    /// on every platform, regardless of what else consumed RNG draws —
    /// the generator runs on its own [`streams::SCENARIO`] sub-stream.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = derive_stream(seed, streams::SCENARIO);
        let ticks = rng.gen_range(60..=180u64);
        let rows = rng.gen_range(1..=2usize);
        let racks_per_row = rng.gen_range(1..=2usize);
        let servers_per_rack = rng.gen_range(4..=8usize);

        let kind = match rng.gen_range(0..3u32) {
            0 => WorkloadKind::Heavy,
            1 => WorkloadKind::Light,
            _ => WorkloadKind::Steady,
        };
        let workload = WorkloadAxis {
            kind,
            rate_scale: rng.gen_range(0.6..1.3),
            amplitude: rng.gen_range(0.0..0.5),
        };

        // Ranges keep a correctly-signed controller safe. The binding
        // constraint is the *mid-term* frozen floor: freshly frozen
        // servers decay toward ~0.70 of rated (idle floor plus residual
        // long jobs, Fig 4), so at the smallest u_max (0.5) sustained
        // saturating demand settles near `1 − 0.3·u_max = 0.85 · rated`.
        // The smallest breaker budget (0.90) clears that with noise and
        // freeze-quantization headroom.
        let control = ControlAxis {
            budget_scale: rng.gen_range(0.90..0.96),
            et: rng.gen_range(0.05..0.08),
            kr_scale: rng.gen_range(0.7..1.5),
            u_max: rng.gen_range(0.5..0.6),
            margin: rng.gen_range(0.08..0.15),
        };

        let faults = FaultAxis {
            dropout: if rng.gen_bool(0.5) {
                rng.gen_range(0.0..0.25)
            } else {
                0.0
            },
            sensor_bias: if rng.gen_bool(0.5) {
                rng.gen_range(-0.03..0.03)
            } else {
                0.0
            },
            rpc_loss: if rng.gen_bool(0.5) {
                rng.gen_range(0.0..0.10)
            } else {
                0.0
            },
            outage: rng.gen_bool(0.3).then(|| {
                let start = rng.gen_range(ticks / 4..ticks / 2);
                let len = rng.gen_range(3..=12u64);
                (start, len)
            }),
        };

        // Drawn after every earlier axis so each per-seed value stays
        // what it was before this axis existed (seed stability across
        // PRs).
        let budget = (rows >= 2 && rng.gen_bool(0.5)).then(|| BudgetAxis {
            substation_scale: rng.gen_range(0.85..0.98),
            skew: rng.gen_range(0.0..0.6),
            floor_scale: rng.gen_range(0.55..0.75),
            grant_period: rng.gen_range(5..=15u64),
            hysteresis: rng.gen_range(0.0..0.05),
        });

        // Newest axis, drawn after the budget axis for the same seed
        // stability. The fraction floor (0.60) sits at the generator's
        // u_max ceiling, so the selective policy never has a reason to
        // freeze an interactive server (see ServiceMixAxis).
        let service_mix = rng.gen_bool(0.4).then(|| ServiceMixAxis {
            batch_fraction: rng.gen_range(0.60..0.80),
        });

        Scenario {
            seed,
            ticks,
            rows,
            racks_per_row,
            servers_per_rack,
            workload,
            control,
            faults,
            budget,
            service_mix,
        }
    }

    /// Total servers in the scenario's fleet.
    pub fn server_count(&self) -> usize {
        self.rows * self.racks_per_row * self.servers_per_rack
    }

    /// The cluster shape.
    pub fn cluster_spec(&self) -> ClusterSpec {
        ClusterSpec {
            rows: self.rows,
            racks_per_row: self.racks_per_row,
            servers_per_rack: self.servers_per_rack,
            power_model: ServerPowerModel::default(),
            capacity: Resources::cores_gb(32, 128),
        }
    }

    /// The arrival profile, rescaled from the 440-server calibration to
    /// this fleet and the scenario's `rate_scale`.
    pub fn profile(&self) -> RateProfile {
        let fleet_scale = self.server_count() as f64 / CALIBRATED_SERVERS;
        let base = match self.workload.kind {
            WorkloadKind::Heavy => RateProfile::Diurnal {
                base_per_min: 530.0,
                amplitude: self.workload.amplitude,
                peak_hour: 4.0,
            },
            WorkloadKind::Light => RateProfile::Diurnal {
                base_per_min: 230.0,
                amplitude: self.workload.amplitude,
                peak_hour: 5.0,
            },
            WorkloadKind::Steady => RateProfile::Constant { per_min: 380.0 },
        };
        base.scaled(fleet_scale * self.workload.rate_scale)
    }

    /// The fault plan, or `None` when the axis injects nothing. The
    /// plan's seed is a sub-seed of the scenario seed, so fault draws
    /// are independent of the workload stream.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.faults.is_noop() {
            return None;
        }
        Some(FaultPlan {
            sample_dropout: self.faults.dropout,
            sensor_bias: self.faults.sensor_bias,
            rpc_loss: self.faults.rpc_loss,
            outages: self
                .faults
                .outage
                .map(|(start, len)| OutageWindow {
                    start: SimTime::from_mins(start),
                    end: SimTime::from_mins(start + len),
                })
                .into_iter()
                .collect(),
            ..FaultPlan::seeded(derive_subseed(self.seed, streams::SCENARIO, 1))
        })
    }

    /// Per-server service classes under the service-mix axis (`None`
    /// without one): the trailing `batch_fraction` block of each row's
    /// contiguous id range is batch, the rest interactive — the same
    /// trailing-block convention `repro sla` uses.
    pub fn service_classes(&self) -> Option<Vec<ServiceClass>> {
        self.service_mix.map(|mix| {
            let per_row = self.racks_per_row * self.servers_per_rack;
            let batch = ((mix.batch_fraction * per_row as f64).ceil() as usize).min(per_row);
            let mut classes = vec![ServiceClass::Interactive; self.server_count()];
            for row in 0..self.rows {
                for i in 0..batch {
                    classes[row * per_row + per_row - 1 - i] = ServiceClass::Batch;
                }
            }
            classes
        })
    }

    /// A fresh controller for one domain, built from the control axis.
    pub fn controller(&self) -> AmpereController {
        AmpereController::new(
            ControllerConfig {
                kr: ampere_experiments::calibrate::DEFAULT_KR * self.control.kr_scale,
                u_max: self.control.u_max,
                ..ControllerConfig::default()
            },
            Box::new(HistoricalPercentile::flat(self.control.et)),
        )
    }

    /// The breaker budget of one row domain, in watts.
    pub fn domain_budget_w(&self) -> f64 {
        self.cluster_spec().rated_row_power_w() * self.control.budget_scale
    }

    /// The tick length (one minute, matching the paper's control
    /// interval).
    pub fn tick(&self) -> SimDuration {
        SimDuration::MINUTE
    }

    /// Forecast weights the arbiter splits the substation budget by:
    /// linear from `1 − skew/2` to `1 + skew/2` across rows, all 1.0
    /// without a budget axis.
    pub fn row_weights(&self) -> Vec<f64> {
        let skew = self.budget.map_or(0.0, |b| b.skew);
        let rows = self.rows.max(1);
        (0..rows)
            .map(|r| {
                let t = if rows > 1 {
                    r as f64 / (rows - 1) as f64
                } else {
                    0.5
                };
                1.0 - skew / 2.0 + skew * t
            })
            .collect()
    }

    /// One-line human description, used in failure output.
    pub fn describe(&self) -> String {
        let faults = if self.faults.is_noop() {
            "none".to_string()
        } else {
            let mut parts = Vec::new();
            if self.faults.dropout > 0.0 {
                parts.push(format!("dropout={:.3}", self.faults.dropout));
            }
            if self.faults.sensor_bias != 0.0 {
                parts.push(format!("bias={:+.3}", self.faults.sensor_bias));
            }
            if self.faults.rpc_loss > 0.0 {
                parts.push(format!("rpc_loss={:.3}", self.faults.rpc_loss));
            }
            if let Some((start, len)) = self.faults.outage {
                parts.push(format!("outage={start}+{len}m"));
            }
            parts.join(",")
        };
        let budget = match self.budget {
            None => "none".to_string(),
            Some(b) => format!(
                "(sub={:.3},skew={:.2},floor={:.2},period={}m,hyst={:.3})",
                b.substation_scale, b.skew, b.floor_scale, b.grant_period, b.hysteresis
            ),
        };
        let mix = match self.service_mix {
            None => "none".to_string(),
            Some(m) => format!("(batch={:.2})", m.batch_fraction),
        };
        format!(
            "seed={} ticks={} topo={}x{}x{} ({} servers) workload={}(rate={:.2},amp={:.2}) \
             control=(budget={:.3},et={:.3},kr_scale={:.2},u_max={:.2},margin={:.3}) faults={} \
             budget_split={} mix={mix}",
            self.seed,
            self.ticks,
            self.rows,
            self.racks_per_row,
            self.servers_per_rack,
            self.server_count(),
            self.workload.kind.name(),
            self.workload.rate_scale,
            self.workload.amplitude,
            self.control.budget_scale,
            self.control.et,
            self.control.kr_scale,
            self.control.u_max,
            self.control.margin,
            faults,
            budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 2026, u64::MAX] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn generated_fields_stay_in_range() {
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            assert!((60..=180).contains(&s.ticks));
            assert!((1..=2).contains(&s.rows));
            assert!((1..=2).contains(&s.racks_per_row));
            assert!((4..=8).contains(&s.servers_per_rack));
            assert!((0.6..1.3).contains(&s.workload.rate_scale));
            assert!((0.90..0.96).contains(&s.control.budget_scale));
            assert!((0.05..0.08).contains(&s.control.et));
            assert!((0.08..0.15).contains(&s.control.margin));
            if let Some(plan) = s.fault_plan() {
                plan.validate().expect("generated plan must validate");
            }
            if let Some(b) = s.budget {
                assert!(s.rows >= 2, "budget axis on a single-row scenario");
                assert!((0.85..0.98).contains(&b.substation_scale));
                assert!((0.0..0.6).contains(&b.skew));
                assert!((0.55..0.75).contains(&b.floor_scale));
                assert!((5..=15).contains(&b.grant_period));
                assert!((0.0..0.05).contains(&b.hysteresis));
                let weights = s.row_weights();
                assert_eq!(weights.len(), s.rows);
                assert!(weights.iter().all(|&w| w > 0.0));
            }
            if let Some(m) = s.service_mix {
                assert!((0.60..0.80).contains(&m.batch_fraction));
                // The selective policy must never *need* an interactive
                // freeze: the per-row batch pool covers any target the
                // controller can legally emit (u_target <= u_max).
                let classes = s.service_classes().expect("mix axis implies classes");
                let per_row = s.racks_per_row * s.servers_per_rack;
                assert_eq!(classes.len(), s.server_count());
                let batch_per_row = classes
                    .iter()
                    .take(per_row)
                    .filter(|&&c| c == ServiceClass::Batch)
                    .count();
                assert!(batch_per_row as f64 >= s.control.u_max * per_row as f64);
                // Batch is a trailing block of each row's id range.
                for row in 0..s.rows {
                    let row_classes = &classes[row * per_row..(row + 1) * per_row];
                    assert_eq!(
                        row_classes
                            .iter()
                            .filter(|&&c| c == ServiceClass::Batch)
                            .count(),
                        batch_per_row
                    );
                    assert!(row_classes[per_row - batch_per_row..]
                        .iter()
                        .all(|&c| c == ServiceClass::Batch));
                }
            }
            // Safety precondition: the frozen floor is below the
            // breaker budget, so a correct controller can always win.
            let floor = 1.0 - 0.4 * s.control.u_max;
            assert!(floor < s.control.budget_scale - 0.02, "{}", s.describe());
        }
    }

    #[test]
    fn budget_axis_appears_on_a_healthy_fraction_of_multi_row_seeds() {
        let multi_row = (0..200u64)
            .map(Scenario::generate)
            .filter(|s| s.rows >= 2)
            .count();
        let with_budget = (0..200u64)
            .map(Scenario::generate)
            .filter(|s| s.budget.is_some())
            .count();
        assert!(multi_row > 0);
        assert!(
            with_budget * 5 >= multi_row && with_budget <= multi_row,
            "budget axis on {with_budget}/{multi_row} multi-row seeds"
        );
    }

    #[test]
    fn service_mix_appears_on_a_healthy_fraction_of_seeds() {
        let with_mix = (0..200u64)
            .map(Scenario::generate)
            .filter(|s| s.service_mix.is_some())
            .count();
        assert!(
            (40..=160).contains(&with_mix),
            "service-mix axis on {with_mix}/200 seeds"
        );
    }

    #[test]
    fn fault_seed_is_independent_of_scenario_stream() {
        let s = Scenario::generate(7);
        if let Some(plan) = s.fault_plan() {
            assert_ne!(plan.seed, s.seed);
        }
        // Different scenario seeds give pairwise-distinct fault seeds.
        let fault_seeds: Vec<u64> = (0..50)
            .filter_map(|i| Scenario::generate(i).fault_plan().map(|p| p.seed))
            .collect();
        let distinct: std::collections::HashSet<u64> = fault_seeds.iter().copied().collect();
        assert_eq!(distinct.len(), fault_seeds.len());
    }
}
