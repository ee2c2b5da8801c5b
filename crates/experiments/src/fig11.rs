//! Fig 11: p99.9 Redis latency under power capping vs under Ampere
//! (§4.3).
//!
//! The paper deploys a Redis cluster on an over-provisioned row and
//! drives it with redis-benchmark clients from an uncontrolled cluster.
//! Under DVFS capping the p99.9 latency roughly doubles across
//! operations; under Ampere it is untouched because freeze/unfreeze
//! never slows running work.
//!
//! Reproduction: a capped heavy run of the testbed yields the capping
//! duty cycle, episode length and capped frequency actually experienced
//! by the row; an episodic frequency trace with those parameters drives
//! the single-threaded FIFO queue model of
//! [`ampere_workload::interactive`]. The §4.3 side statistics (fraction
//! of over-budget minutes, fraction of servers capped) come from the
//! same testbed run.

use ampere_cluster::ServiceClass;
use ampere_sim::SimDuration;
use ampere_workload::interactive::{episodic_capping, InteractiveSim, RedisBenchReport};
use ampere_workload::RateProfile;

use crate::testbed::{DomainSpec, Testbed, TestbedConfig};

/// Configuration of the Fig 11 reproduction.
pub struct Fig11Config {
    /// Over-provisioning ratio of the Redis row (0.25 in §4.3).
    pub r_o: f64,
    /// Hours of the capped testbed run that supplies capping statistics.
    pub hours: u64,
    /// Warm-up minutes discarded.
    pub warmup_mins: u64,
    /// Arrival profile of the batch load sharing the row.
    pub profile: RateProfile,
    /// RNG seed.
    pub seed: u64,
    /// The client benchmark model.
    pub sim: InteractiveSim,
    /// CPU utilization of the Redis nodes themselves. §4.3: "Redis
    /// servers are CPU-bound", so they sit near the top of the
    /// per-server RAPL share and get clamped hard when capping engages.
    pub redis_node_util: f64,
    /// Per-server service-class tags for the Redis row. `None` (the
    /// default) is the paper's homogeneous all-interactive deployment
    /// and reproduces the legacy figure byte-identically; a mix runs
    /// the client benchmark only over interactive servers.
    pub service_classes: Option<Vec<ServiceClass>>,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Self {
            r_o: 0.25,
            hours: 8,
            warmup_mins: 120,
            // A moderately loaded row: demand exceeds the scaled budget
            // around the diurnal peak. Capping engages in 37.7 % of the
            // measured minutes, over twice the paper's ~15 %.
            profile: RateProfile::heavy_row().scaled(0.81),
            seed: 11,
            sim: InteractiveSim::default(),
            redis_node_util: 0.85,
            service_classes: None,
        }
    }
}

/// The reproduced figure plus the §4.3 side statistics.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// One report per redis-benchmark operation.
    pub reports: Vec<RedisBenchReport>,
    /// Fraction of measured minutes with capping engaged: 37.7 % at the
    /// default config, over twice the paper's ~15 %.
    pub capped_time_fraction: f64,
    /// Mean frequency over capped servers during capped minutes.
    pub capped_freq: f64,
    /// Frequency a CPU-bound Redis node runs at during capped minutes
    /// (its per-server RAPL share clamps it; this drives the latency
    /// trace).
    pub redis_node_freq: f64,
    /// Mean fraction of servers capped during capped minutes (paper:
    /// ≈ 54 %).
    pub servers_capped_fraction: f64,
    /// Mean capping episode length in minutes.
    pub episode_mins: f64,
}

/// Runs the reproduction.
pub fn run(config: Fig11Config) -> Fig11Result {
    // A capped, uncontrolled heavy run to measure real capping
    // behaviour: the experiment group of a parity-split row, with RAPL
    // armed against the scaled budget.
    let mut tb = Testbed::new(TestbedConfig {
        service_classes: config.service_classes.clone(),
        ..TestbedConfig::paper_row(config.profile, config.seed)
    });
    // The Redis deployment takes every other server — restricted to the
    // interactive class on a mixed fleet. With the default homogeneous
    // tagging this is exactly the legacy even-index split.
    let class_of = |i: u64| {
        config
            .service_classes
            .as_ref()
            .map_or(ServiceClass::Interactive, |c| c[i as usize])
    };
    let servers: Vec<ampere_cluster::ServerId> = (0..tb.cluster().server_count() as u64)
        .filter(|&i| i % 2 == 0 && class_of(i) == ServiceClass::Interactive)
        .map(ampere_cluster::ServerId::new)
        .collect();
    let n_redis = servers.len();
    let budget = ampere_core::scaled_budget_w(
        servers.len() as f64 * tb.cluster().spec().power_model.rated_w,
        config.r_o,
    );
    let capped_dom = tb.add_domain(DomainSpec {
        name: "redis-row-capped".into(),
        servers,
        budget_w: budget,
        controller: None,
        capped: true,
    });
    tb.run_window(
        SimDuration::from_mins(config.warmup_mins),
        SimDuration::from_hours(config.hours),
    );
    let recs = tb.window(capped_dom);

    // Capping statistics.
    let capped: Vec<_> = recs.iter().filter(|r| r.capped_servers > 0).collect();
    let n_servers = recs.first().map(|_| n_redis).unwrap_or(1) as f64;
    let capped_time_fraction = capped.len() as f64 / recs.len().max(1) as f64;
    let capped_freq = if capped.is_empty() {
        1.0
    } else {
        // `mean_freq` averages over all servers including idle ones at
        // nominal; recover the capped servers' frequency.
        capped
            .iter()
            .map(|r| {
                let frac = r.capped_servers as f64 / n_servers;
                ((r.mean_freq - (1.0 - frac)) / frac).clamp(0.4, 1.0)
            })
            .sum::<f64>()
            / capped.len() as f64
    };
    let servers_capped_fraction = if capped.is_empty() {
        0.0
    } else {
        capped
            .iter()
            .map(|r| r.capped_servers as f64 / n_servers)
            .sum::<f64>()
            / capped.len() as f64
    };
    // Mean length of consecutive capped runs.
    let mut episodes = Vec::new();
    let mut run_len = 0u64;
    for r in recs {
        if r.capped_servers > 0 {
            run_len += 1;
        } else if run_len > 0 {
            episodes.push(run_len);
            run_len = 0;
        }
    }
    if run_len > 0 {
        episodes.push(run_len);
    }
    let episode_mins = if episodes.is_empty() {
        1.0
    } else {
        episodes.iter().sum::<u64>() as f64 / episodes.len() as f64
    };

    // The frequency a CPU-bound Redis node gets while the row is
    // capped: its per-server RAPL share (budget / n, scaled by the
    // capper's target fraction) clamps its package power.
    let model = tb.cluster().spec().power_model;
    let capcfg = ampere_power::CappingConfig::default();
    let share = budget / n_servers * capcfg.target_fraction;
    let redis_node_freq = model.freq_for_power(config.redis_node_util, share, capcfg.min_freq);

    // Episodic frequency trace with the measured duty/episode length
    // and the Redis node's capped frequency.
    let duty = capped_time_fraction.clamp(0.02, 0.9);
    let period_us = episode_mins * 60e6 / duty;
    let trace = episodic_capping(duty, redis_node_freq.min(0.95), period_us);
    let reports = config.sim.fig11_comparison(&trace);

    Fig11Result {
        reports,
        capped_time_fraction,
        capped_freq,
        redis_node_freq,
        servers_capped_fraction,
        episode_mins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_all_interactive_mix_reproduces_legacy_figure() {
        let quick = |classes: Option<Vec<ServiceClass>>| {
            run(Fig11Config {
                hours: 1,
                warmup_mins: 30,
                sim: InteractiveSim {
                    run_secs: 5.0,
                    ..InteractiveSim::default()
                },
                service_classes: classes,
                ..Fig11Config::default()
            })
        };
        let legacy = quick(None);
        let tagged = quick(Some(vec![ServiceClass::Interactive; 440]));
        // Parameterizing over an all-interactive mix is the identity:
        // every statistic and every latency report is bit-equal.
        assert_eq!(
            legacy.capped_time_fraction.to_bits(),
            tagged.capped_time_fraction.to_bits()
        );
        assert_eq!(legacy.capped_freq.to_bits(), tagged.capped_freq.to_bits());
        assert_eq!(
            legacy.redis_node_freq.to_bits(),
            tagged.redis_node_freq.to_bits()
        );
        for (a, b) in legacy.reports.iter().zip(&tagged.reports) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.capped_p999_us.to_bits(), b.capped_p999_us.to_bits());
            assert_eq!(a.ampere_p999_us.to_bits(), b.ampere_p999_us.to_bits());
        }
    }

    #[test]
    fn capping_doubles_tail_latency_ampere_does_not() {
        let r = run(Fig11Config {
            hours: 4,
            warmup_mins: 90,
            sim: InteractiveSim {
                run_secs: 40.0,
                ..InteractiveSim::default()
            },
            ..Fig11Config::default()
        });
        // The heavy workload must actually trigger capping.
        assert!(
            r.capped_time_fraction > 0.03,
            "capping fraction = {}",
            r.capped_time_fraction
        );
        assert!(r.capped_freq < 1.0);
        assert!(r.servers_capped_fraction > 0.2);
        assert_eq!(r.reports.len(), 6);
        // Paper: p99.9 roughly doubles under capping, for every op.
        for rep in &r.reports {
            assert!(
                rep.inflation() > 1.4,
                "{}: inflation = {}",
                rep.op.name(),
                rep.inflation()
            );
        }
    }
}
