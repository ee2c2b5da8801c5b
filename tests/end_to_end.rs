//! Cross-crate integration tests: the full Ampere stack — workload →
//! scheduler → cluster → power monitor → controller — running
//! end-to-end on the testbed, checking the system-level guarantees the
//! paper claims.

use ampere_cluster::ServerId;
use ampere_experiments::calibrate::default_controller;
use ampere_experiments::fig10::parity_testbed;
use ampere_experiments::{DomainId, DomainSpec, Testbed, TestbedConfig, WindowStats};
use ampere_power::monitor::SeriesKey;
use ampere_power::CappingConfig;
use ampere_sched::RandomFit;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

/// The summary of a domain's measured window, against its own budget.
fn window(tb: &Testbed, d: DomainId) -> WindowStats {
    WindowStats::of(tb.window(d), tb.domain_budget_w(d))
}

#[test]
fn controlled_run_reduces_violations_end_to_end() {
    let (mut tb, exp, ctl) = parity_testbed(
        RateProfile::heavy_row(),
        99,
        0.25,
        Some(default_controller()),
    );
    tb.run_window(SimDuration::from_mins(90), SimDuration::from_hours(6));
    let exp_viol = window(&tb, exp).breaker_violations;
    let ctl_viol = window(&tb, ctl).breaker_violations;
    assert!(ctl_viol >= 20, "uncontrolled violations = {ctl_viol}");
    assert!(
        exp_viol * 10 <= ctl_viol,
        "controlled {exp_viol} vs uncontrolled {ctl_viol}"
    );
    // The breaker never trips (no sustained 5-minute overload) under
    // control.
    assert_eq!(tb.breaker(exp).tripped_at(), None);
}

#[test]
fn frozen_servers_never_receive_new_jobs_but_keep_running_ones() {
    let (mut tb, exp, _) = parity_testbed(
        RateProfile::heavy_row(),
        5,
        0.25,
        Some(default_controller()),
    );
    tb.run_for(SimDuration::from_hours(2));
    // Find a currently frozen server with running jobs.
    let frozen: Vec<ServerId> = (0..tb.cluster().server_count() as u64)
        .map(ServerId::new)
        .filter(|&id| tb.cluster().server(id).is_frozen())
        .collect();
    assert!(!frozen.is_empty(), "controller froze nothing in 2 h heavy");
    let busy = frozen
        .iter()
        .find(|&&id| tb.cluster().server(id).job_count() > 0)
        .copied()
        .expect("some frozen server still runs jobs");
    let jobs_before = tb.cluster().server(busy).job_count();

    // One more tick: job count on a frozen server can only shrink
    // (completions), never grow (no placements).
    tb.step();
    if tb.cluster().server(busy).is_frozen() {
        assert!(tb.cluster().server(busy).job_count() <= jobs_before);
    }
    let _ = exp;
}

#[test]
fn same_seed_same_trajectory() {
    let run = |seed: u64| {
        let (mut tb, exp, _) = parity_testbed(
            RateProfile::heavy_row(),
            seed,
            0.25,
            Some(default_controller()),
        );
        tb.run_for(SimDuration::from_hours(2));
        tb.records(exp)
            .iter()
            .map(|r| (r.power_w.to_bits(), r.frozen, r.placed_jobs))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(123), run(123), "simulation must be deterministic");
    assert_ne!(run(123), run(124), "different seeds must differ");
}

#[test]
fn monitor_aggregation_is_consistent_across_levels() {
    let mut tb = Testbed::new(TestbedConfig {
        capping: CappingConfig {
            enabled: false,
            ..CappingConfig::default()
        },
        ..TestbedConfig::paper_row(RateProfile::light_row(), 3)
    });
    tb.add_row_domains(1.0).expect("rows registered once");
    tb.run_for(SimDuration::from_mins(30));
    let db = tb.monitor().db();
    // Row series equals the sum of its rack series at every sample.
    let row = db.series(SeriesKey::row(0));
    let racks: Vec<_> = (0..11).map(|r| db.series(SeriesKey::rack(r))).collect();
    for (i, &(t, row_w)) in row.iter().enumerate() {
        let sum: f64 = racks.iter().map(|s| s[i].1).sum();
        assert!((row_w - sum).abs() < 1e-6, "at {t}: {row_w} != {sum}");
    }
    // And the data-center series equals the row series (single row).
    let dc = db.series(SeriesKey::data_center());
    for (a, b) in row.iter().zip(dc) {
        assert!((a.1 - b.1).abs() < 1e-9);
    }
}

#[test]
fn capping_respects_budget_but_slows_throughput() {
    // Same workload, one capped domain vs one uncapped: capping keeps
    // power under budget at the cost of completions (jobs stretched).
    let run = |capped: bool| {
        let mut tb = Testbed::new(TestbedConfig::paper_row(RateProfile::heavy_row(), 3));
        let servers: Vec<ServerId> = (0..440).map(ServerId::new).collect();
        let budget = ampere_core::scaled_budget_w(440.0 * 250.0, 0.25);
        let d = tb.add_domain(DomainSpec {
            name: "row".into(),
            servers,
            budget_w: budget,
            controller: None,
            capped,
        });
        tb.run_window(SimDuration::from_mins(60), SimDuration::from_hours(3));
        (window(&tb, d).p_max, tb.sched().stats().completed)
    };
    let (capped_pmax, capped_done) = run(true);
    let (free_pmax, free_done) = run(false);
    assert!(capped_pmax <= 1.02, "capped p_max = {capped_pmax}");
    assert!(free_pmax > 1.02, "uncapped demand should exceed budget");
    assert!(
        capped_done < free_done,
        "capping must cost throughput: {capped_done} vs {free_done}"
    );
}

#[test]
fn long_run_conserves_jobs_and_resources() {
    // 12 simulated hours of heavy load under control: every submitted
    // job must be accounted for (completed, running, or queued), and
    // resource books must balance at the end — no leaks across two
    // million scheduling decisions.
    let (mut tb, _exp, _ctl) = parity_testbed(
        RateProfile::heavy_row(),
        31,
        0.25,
        Some(default_controller()),
    );
    tb.run_for(SimDuration::from_hours(12));
    let stats = tb.sched().stats();
    let running: usize = tb.cluster().iter().map(|s| s.job_count()).sum();
    let queued = tb.sched().queue_len();
    assert_eq!(
        stats.submitted,
        stats.completed + running as u64 + queued as u64,
        "job conservation broken"
    );
    assert_eq!(stats.placed, stats.completed + running as u64);
    // Resource books balance on every server.
    for s in tb.cluster().iter() {
        let sum = s
            .jobs()
            .fold(ampere_cluster::Resources::ZERO, |acc, (_, j)| {
                acc + j.resources
            });
        assert_eq!(s.allocated(), sum, "leak on {}", s.id());
    }
    // Queue waits were recorded for every placement.
    assert_eq!(tb.sched().wait_rounds().count(), stats.placed);
}

#[test]
fn heterogeneous_fleet_is_controlled_too() {
    // A mixed-generation row: 3 of 4 servers are standard 250 W nodes,
    // every 4th is a 400 W fat node. Algorithm 1 ranks by measured
    // watts, so the controller needs no change; the budget is scaled
    // from the *actual* rated sum.
    use ampere_cluster::{ClusterSpec, Resources, RowId};
    use ampere_power::ServerPowerModel;
    let spec = ClusterSpec {
        rows: 2,
        ..ClusterSpec::paper_row()
    };
    let mut tb = Testbed::new(TestbedConfig {
        spec,
        capping: CappingConfig {
            enabled: false,
            ..CappingConfig::default()
        },
        server_classes: Some(Box::new(|i| {
            if i % 4 == 3 {
                (
                    ServerPowerModel::new(400.0, 0.6, 1.0),
                    Resources::cores_gb(64, 256),
                )
            } else {
                (ServerPowerModel::default(), Resources::cores_gb(32, 128))
            }
        })),
        ..TestbedConfig::paper_row(RateProfile::heavy_row().scaled(2.4), 7)
    });
    let rated = tb.cluster().actual_rated_row_power_w(RowId::new(0));
    assert!(rated > spec.rated_row_power_w());
    let servers: Vec<ServerId> = tb.cluster().row_server_ids(RowId::new(0)).collect();
    let budget = ampere_core::scaled_budget_w(rated, 0.25);
    let d = tb.add_domain(DomainSpec {
        name: "hetero-row".into(),
        servers,
        budget_w: budget,
        controller: Some(default_controller()),
        capped: false,
    });
    tb.run_window(SimDuration::from_mins(60), SimDuration::from_hours(3));
    let w = window(&tb, d);
    let viol = w.breaker_violations;
    // The row saw enough demand to exercise control, and control held.
    assert!(
        w.u_max > 0.0,
        "no control activity on the heterogeneous row"
    );
    assert!(
        viol <= w.ticks / 20,
        "{viol} violations in {} minutes",
        w.ticks
    );
}

#[test]
fn controller_failover_is_seamless() {
    // §3.2: "the controller is stateless, and thus if the controller
    // fails, we can easily switch to a replacement". Kill the
    // controller mid-run, hand the domain to a freshly constructed
    // replacement, and verify control quality is unaffected — the
    // frozen set lives in the cluster, so the replacement inherits it
    // through its next reading sweep.
    let run = |fail_over: bool| {
        let (mut tb, exp, _ctl) = parity_testbed(
            RateProfile::heavy_row(),
            2024,
            0.25,
            Some(default_controller()),
        );
        tb.run_window(SimDuration::from_mins(90), SimDuration::from_hours(2));
        if fail_over {
            tb.set_controller(exp, Some(default_controller()));
        }
        tb.run_for(SimDuration::from_hours(2));
        let w = window(&tb, exp);
        (w.breaker_violations, w.u_mean())
    };
    let (viol_stable, u_stable) = run(false);
    let (viol_failover, u_failover) = run(true);
    // The replacement controls as well as the incumbent.
    assert!(
        viol_failover <= viol_stable + 2,
        "failover degraded control: {viol_failover} vs {viol_stable}"
    );
    assert!(
        (u_failover - u_stable).abs() < 0.05,
        "failover changed control effort: {u_failover} vs {u_stable}"
    );
}

#[test]
fn scheduler_policies_all_work_under_control() {
    // Ampere's mechanism is *statistical redirection*: freezing a
    // row's servers steers new jobs to the rest of the pool. Control
    // one row of a two-row cluster and check the mechanism works under
    // every placement policy, without the controller knowing which one
    // runs.
    use ampere_cluster::{ClusterSpec, RowId};
    use ampere_sched::{BestFit, LeastLoaded, PlacementPolicy, PowerSpread};
    let policies: Vec<(&str, Box<dyn PlacementPolicy>)> = vec![
        ("random-fit", Box::new(RandomFit::default())),
        ("least-loaded", Box::new(LeastLoaded::default())),
        ("best-fit", Box::new(BestFit::default())),
        ("power-spread", Box::new(PowerSpread::default())),
    ];
    for (name, policy) in policies {
        let spec = ClusterSpec {
            rows: 2,
            ..ClusterSpec::paper_row()
        };
        let profile = RateProfile::heavy_row().scaled(1.9);
        let mut tb = Testbed::new(TestbedConfig {
            spec,
            policy,
            capping: CappingConfig {
                enabled: false,
                ..CappingConfig::default()
            },
            ..TestbedConfig::paper_row(profile, 29)
        });
        let servers: Vec<ServerId> = tb.cluster().row_server_ids(RowId::new(0)).collect();
        let budget = ampere_core::scaled_budget_w(440.0 * 250.0, 0.25);
        let d = tb.add_domain(DomainSpec {
            name: name.into(),
            servers,
            budget_w: budget,
            controller: Some(default_controller()),
            capped: false,
        });
        tb.run_window(SimDuration::from_mins(60), SimDuration::from_hours(2));
        let w = window(&tb, d);
        let viol = w.breaker_violations;
        let placed = tb.sched().stats().placed;
        assert!(placed > 10_000, "{name}: placed only {placed}");
        assert!(
            viol <= w.ticks / 20,
            "{name}: {viol} violations in {} minutes",
            w.ticks
        );
    }
}
