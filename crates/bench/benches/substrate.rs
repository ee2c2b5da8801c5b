//! Micro-benchmarks of the substrates: scheduler dispatch (including a
//! saturated backlog that fits nowhere) and submission onto a growing
//! backlog, power monitoring/aggregation, time-series queries, capping
//! decisions, the full testbed tick (on a heavy row and on a row with a
//! standing backlog) and the interactive latency model.
//! These bound the simulation's own throughput (simulated minutes per
//! wall-clock second).

use ampere_bench::harness::Runner;
use ampere_cluster::{Cluster, ClusterSpec, JobId, Resources, ServerId};
use ampere_power::monitor::ServerSample;
use ampere_power::{CappingConfig, PowerMonitor, RaplCapper, ServerPowerModel};
use ampere_sched::{RandomFit, Scheduler};
use ampere_sim::{SimDuration, SimTime};
use ampere_workload::{JobRequest, RateProfile};

fn jobs(n: usize) -> Vec<JobRequest> {
    (0..n)
        .map(|i| JobRequest {
            id: JobId::new(i as u64),
            resources: Resources::new(500 + (i % 4) as u64 * 500, 2_048),
            duration: SimDuration::from_mins(5 + (i % 10) as u64),
        })
        .collect()
}

/// An 8-server row filled by day-long whole-server jobs, with a
/// 50,000-job backlog queued behind it.
fn saturated_row() -> (Cluster, Scheduler) {
    let mut cluster = Cluster::new(ClusterSpec {
        rows: 1,
        racks_per_row: 1,
        servers_per_rack: 8,
        ..ClusterSpec::paper_row()
    });
    let mut sched = Scheduler::new(Box::new(RandomFit::default()), 1);
    sched.submit((0..8).map(|i| JobRequest {
        id: JobId::new(1_000_000 + i),
        resources: Resources::cores_gb(32, 128),
        duration: SimDuration::from_hours(24),
    }));
    assert_eq!(sched.dispatch(&mut cluster, &[]).placed.len(), 8);
    sched.submit(jobs(50_000));
    (cluster, sched)
}

/// A 440-server paper row running the first 5,000 of [`jobs`].
fn busy_row() -> Cluster {
    let mut cluster = Cluster::new(ClusterSpec::paper_row());
    let mut sched = Scheduler::new(Box::new(RandomFit::default()), 1);
    sched.submit(jobs(5_000));
    sched.dispatch(&mut cluster, &[]);
    cluster
}

fn main() {
    let r = Runner::from_args("substrate");

    r.bench_with_setup(
        "dispatch_500_jobs_440_servers",
        || {
            let cluster = Cluster::new(ClusterSpec::paper_row());
            let mut sched = Scheduler::new(Box::new(RandomFit::default()), 1);
            sched.submit(jobs(500));
            (cluster, sched)
        },
        |(cluster, sched)| sched.dispatch(cluster, &[]),
    );

    // A standing backlog on a full row: every examined job fits nowhere.
    // The first one ends the walk, because the row's free bound is below
    // the smallest queued demand, so this times the one-step skip.
    let (mut cluster, mut sched) = saturated_row();
    r.bench("dispatch_saturated_backlog_8_servers", || {
        sched.dispatch(&mut cluster, &[])
    });

    // The same backlog plus one zero-demand job at the back: the queue's
    // demand floor stays zero, so every job is still walked one by one
    // (bound check, RNG jump, requeue).
    let (mut cluster, mut sched) = saturated_row();
    sched.submit([JobRequest {
        id: JobId::new(2_000_000),
        resources: Resources::ZERO,
        duration: SimDuration::from_mins(5),
    }]);
    r.bench("dispatch_saturated_backlog_walk_8_servers", || {
        sched.dispatch(&mut cluster, &[])
    });

    // Arrivals onto a growing backlog: a fresh scheduler takes 300-job
    // batches until 100,000 jobs wait, with no dispatch in between.
    r.bench_with_setup(
        "submit_300_job_batches_to_100k_backlog",
        || (Scheduler::new(Box::new(RandomFit::default()), 1), jobs(300)),
        |(sched, batch)| {
            while sched.queue_len() < 100_000 {
                sched.submit(batch.iter().copied());
            }
            sched.queue_len()
        },
    );

    r.bench_with_setup("cluster_advance_440_servers_5k_jobs", busy_row, |cluster| {
        cluster.advance(SimDuration::MINUTE)
    });

    // 500 fresh ids onto the same busy row, spread over its servers, each
    // above every id already running there.
    r.bench_with_setup(
        "cluster_place_500_jobs_busy_440_servers",
        busy_row,
        |cluster| {
            (0..500u64)
                .filter(|&k| {
                    cluster
                        .server_mut(ServerId::new(k * 7 % 440))
                        .place(
                            JobId::new(5_000 + k),
                            Resources::new(500, 2_048),
                            SimDuration::from_mins(5),
                        )
                        .is_ok()
                })
                .count()
        },
    );

    let samples: Vec<ServerSample> = (0..3200)
        .map(|i| ServerSample {
            server: i,
            rack: i / 40,
            row: i / 800,
            watts: 150.0 + (i % 100) as f64,
        })
        .collect();
    r.bench_with_setup(
        "monitor_ingest_3200_servers",
        PowerMonitor::paper_default,
        |mon| mon.ingest(SimTime::from_mins(1), &samples),
    );

    {
        let mut mon = PowerMonitor::paper_default();
        let samples: Vec<ServerSample> = (0..10)
            .map(|i| ServerSample {
                server: i,
                rack: 0,
                row: 0,
                watts: 200.0,
            })
            .collect();
        for m in 1..=10_080u64 {
            mon.ingest(SimTime::from_mins(m), &samples);
        }
        let key = ampere_power::monitor::SeriesKey::row(0);
        r.bench("tsdb_range_query_1_week", || {
            mon.db().range(
                std::hint::black_box(key),
                SimTime::from_hours(24),
                SimTime::from_hours(48),
            )
        });
    }

    let servers: Vec<(ServerPowerModel, f64)> = (0..440)
        .map(|i| (ServerPowerModel::default(), (i % 10) as f64 / 10.0))
        .collect();
    let capper = RaplCapper::new(CappingConfig::default());
    r.bench("rapl_cap_row_440_servers", || {
        capper.cap_row(std::hint::black_box(&servers), 80_000.0)
    });

    {
        use ampere_experiments::{Testbed, TestbedConfig};
        r.bench_with_setup(
            "testbed_tick_440_servers_heavy",
            || {
                let mut tb = Testbed::new(TestbedConfig::paper_row(RateProfile::heavy_row(), 1));
                tb.add_row_domains(1.0).expect("rows registered once");
                tb.run_for(SimDuration::from_mins(30));
                tb
            },
            |tb| tb.step(),
        );
    }

    // One tick of a `queue_saturated` row: a quick sharded row whose
    // backlog is already past the 50,000-job dispatch budget and grows
    // by about 300 jobs a minute, so every tick retries a full window.
    {
        use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
        let mut row = ShardedTestbed::new(ShardedTestbedConfig::quick(1, 1, 42));
        row.run_for(SimDuration::from_mins(250));
        assert!(row.testbed(0).sched().queue_len() > 50_000);
        r.bench("testbed_tick_saturated_backlog_8_servers", || {
            row.run_for(SimDuration::MINUTE)
        });
    }

    // One p99.9 model run as `repro sla --quick` makes it for one
    // capacity trace: about 550,000 GET requests, then their percentiles.
    {
        use ampere_workload::interactive::{InteractiveSim, OpType, StepTrace};
        let sim = InteractiveSim {
            run_secs: 30.0,
            ..InteractiveSim::default()
        };
        r.bench("interactive_get_30s", || sim.run(OpType::Get, &|_| 1.0));

        // The same run under a 120-slice capacity trace shaped like the
        // quick uniform arm's (down to 37 of 60 interactive servers at
        // peak), read per request through an index closure and by slice.
        let capacity: Vec<f64> = (0..120)
            .map(|k| {
                let frozen = (23.0 * (std::f64::consts::PI * k as f64 / 120.0).sin()).round();
                (60.0 - frozen) / 60.0
            })
            .collect();
        let horizon_us = sim.run_secs * 1e6;
        let freq_at = |t: f64| capacity[(((t / horizon_us) * 120.0) as usize).min(119)];
        r.bench("interactive_get_30s_sla_trace_closure", || {
            sim.run(OpType::Get, &freq_at)
        });
        let trace = StepTrace::new(&capacity);
        r.bench("interactive_get_30s_sla_trace_steps", || {
            sim.run_steps(OpType::Get, &[trace])
        });
        // The quick baseline's all-ones trace and the uniform-shaped one
        // in one pass of request draws, as `repro sla --quick` runs them.
        let ones = [1.0; 120];
        let both = [StepTrace::new(&ones), trace];
        r.bench("interactive_get_30s_two_traces", || {
            sim.run_steps(OpType::Get, &both)
        });
    }

    // Freezing half the row must not change dispatch asymptotics.
    r.bench_with_setup(
        "dispatch_with_half_frozen",
        || {
            let mut cluster = Cluster::new(ClusterSpec::paper_row());
            let mut sched = Scheduler::new(Box::new(RandomFit::default()), 1);
            for i in 0..220u64 {
                sched.freeze(&mut cluster, ServerId::new(i * 2));
            }
            sched.submit(jobs(500));
            (cluster, sched)
        },
        |(cluster, sched)| sched.dispatch(cluster, &[]),
    );
}
