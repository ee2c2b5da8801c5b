//! Property-based tests for cluster resource accounting: under any
//! random sequence of placements, terminations and time advances, the
//! books must balance and power must stay within the physical envelope;
//! under any sequence that also changes DVFS states and frozen flags,
//! the row aggregates must match the servers they sum.

use ampere_cluster::{Cluster, ClusterSpec, JobId, PlacementError, Resources, RowId, ServerId};
use ampere_power::DvfsState;
use ampere_sim::check::{cases, Gen};
use ampere_sim::SimDuration;

/// A randomized operation against one server of a tiny cluster.
#[derive(Debug, Clone)]
enum Op {
    Place {
        server: u8,
        job: u16,
        cores: u8,
        gb: u8,
        mins: u8,
    },
    Terminate {
        server: u8,
        job: u16,
    },
    Advance {
        mins: u8,
    },
}

fn gen_op(g: &mut Gen) -> Op {
    match g.usize(0..3) {
        0 => Op::Place {
            server: g.range(0u32..16) as u8,
            job: g.range(0u32..64) as u16,
            cores: g.range(1u32..40) as u8,
            gb: g.range(1u32..160) as u8,
            mins: g.range(1u32..30) as u8,
        },
        1 => Op::Terminate {
            server: g.range(0u32..16) as u8,
            job: g.range(0u32..64) as u16,
        },
        _ => Op::Advance {
            mins: g.range(1u32..10) as u8,
        },
    }
}

#[test]
fn accounting_invariants_hold_under_random_ops() {
    cases(48, |g| {
        let ops = g.vec_with(1..300, gen_op);
        let spec = ClusterSpec::tiny();
        let mut cluster = Cluster::new(spec);
        // Model state: which (server, job) pairs are live.
        let mut live: std::collections::HashSet<(u8, u16)> = std::collections::HashSet::new();

        for op in ops {
            match op {
                Op::Place {
                    server,
                    job,
                    cores,
                    gb,
                    mins,
                } => {
                    let sid = ServerId::new(server as u64);
                    let jid = JobId::new(job as u64);
                    let res = Resources::cores_gb(cores as u64, gb as u64);
                    let fits = cluster.server(sid).free().fits(&res);
                    let dup = cluster.server(sid).jobs().any(|(j, _)| j == jid);
                    match cluster.server_mut(sid).place(
                        jid,
                        res,
                        SimDuration::from_mins(mins as u64),
                    ) {
                        Ok(()) => {
                            assert!(fits && !dup);
                            live.insert((server, job));
                        }
                        Err(PlacementError::DuplicateJob) => assert!(dup),
                        Err(PlacementError::InsufficientResources) => assert!(!fits),
                    }
                }
                Op::Terminate { server, job } => {
                    let was_live = live.remove(&(server, job));
                    let did = cluster
                        .server_mut(ServerId::new(server as u64))
                        .terminate(JobId::new(job as u64));
                    assert_eq!(did, was_live);
                }
                Op::Advance { mins } => {
                    for (sid, jid) in cluster.advance(SimDuration::from_mins(mins as u64)) {
                        assert!(live.remove(&(sid.raw() as u8, jid.raw() as u16)));
                    }
                }
            }

            // Invariants after every step.
            for s in cluster.iter() {
                // Allocation equals the sum over running jobs.
                let sum = s
                    .jobs()
                    .fold(Resources::ZERO, |acc, (_, j)| acc + j.resources);
                assert_eq!(s.allocated(), sum);
                // Never over capacity.
                assert!(s.capacity().fits(&s.allocated()));
                // Power within the physical envelope.
                let p = s.power_w();
                assert!(p >= s.power_model().idle_w() - 1e-9);
                assert!(p <= s.rated_w() + 1e-9);
            }
            // Job count bookkeeping matches the model.
            let total: usize = cluster.iter().map(|s| s.job_count()).sum();
            assert_eq!(total, live.len());
        }
    });
}

/// A randomized mutation that can move a server's power or its frozen
/// flag.
#[derive(Debug, Clone)]
enum PowerOp {
    Place {
        server: u8,
        job: u16,
        cores: u8,
        mins: u8,
    },
    Terminate {
        server: u8,
        job: u16,
    },
    SetDvfs {
        server: u8,
        freq_pct: u8,
    },
    Freeze {
        server: u8,
    },
    Unfreeze {
        server: u8,
    },
    Advance {
        mins: u8,
    },
}

fn gen_power_op(g: &mut Gen) -> PowerOp {
    let server = g.range(0u32..16) as u8;
    match g.usize(0..8) {
        0 | 1 => PowerOp::Place {
            server,
            job: g.range(0u32..48) as u16,
            cores: g.range(1u32..33) as u8,
            mins: g.range(1u32..20) as u8,
        },
        2 => PowerOp::Terminate {
            server,
            job: g.range(0u32..48) as u16,
        },
        3 => PowerOp::SetDvfs {
            // Stay comfortably above DvfsState::MIN_FREQ (0.4).
            server,
            freq_pct: g.range(50u32..101) as u8,
        },
        4 => PowerOp::Freeze { server },
        5 => PowerOp::Unfreeze { server },
        _ => PowerOp::Advance {
            mins: g.range(1u32..6) as u8,
        },
    }
}

/// Row power is the ascending-id sum of the cached per-server power,
/// the fleet total is the sum over rows, and each row's frozen count
/// matches its frozen flags — bit for bit, after every operation.
fn check_rows(cluster: &Cluster) {
    let mut by_row = 0.0;
    for r in 0..cluster.row_count() {
        let row = RowId::new(r as u64);
        let sum: f64 = cluster.iter_row(row).map(|s| s.power_w()).sum();
        let got = cluster.row_power_w(row);
        assert_eq!(
            got.to_bits(),
            sum.to_bits(),
            "row {r}: row_power_w {got:.17e} vs ascending sum {sum:.17e}"
        );
        by_row += got;
        let frozen = cluster.iter_row(row).filter(|s| s.is_frozen()).count();
        assert_eq!(cluster.frozen_count(row), frozen, "row {r} frozen count");
    }
    assert_eq!(cluster.total_power_w().to_bits(), by_row.to_bits());
}

#[test]
fn row_aggregates_match_servers_under_random_ops() {
    cases(256, |g| {
        let ops = g.vec_with(1..200, gen_power_op);
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        check_rows(&cluster);
        for op in ops {
            match op {
                PowerOp::Place {
                    server,
                    job,
                    cores,
                    mins,
                } => {
                    let _ = cluster.server_mut(ServerId::new(server as u64)).place(
                        JobId::new(job as u64),
                        Resources::cores_gb(cores as u64, 1),
                        SimDuration::from_mins(mins as u64),
                    );
                }
                PowerOp::Terminate { server, job } => {
                    cluster
                        .server_mut(ServerId::new(server as u64))
                        .terminate(JobId::new(job as u64));
                }
                PowerOp::SetDvfs { server, freq_pct } => {
                    cluster
                        .server_mut(ServerId::new(server as u64))
                        .set_dvfs(DvfsState::at(freq_pct as f64 / 100.0));
                }
                PowerOp::Freeze { server } => {
                    cluster.server_mut(ServerId::new(server as u64)).freeze();
                }
                PowerOp::Unfreeze { server } => {
                    cluster.server_mut(ServerId::new(server as u64)).unfreeze();
                }
                PowerOp::Advance { mins } => {
                    for _ in 0..mins {
                        cluster.advance(SimDuration::MINUTE);
                        check_rows(&cluster);
                    }
                    continue;
                }
            }
            check_rows(&cluster);
        }
    });
}

/// Freezing is orthogonal to accounting: any freeze pattern leaves
/// placements, power and job execution untouched.
#[test]
fn freezing_never_affects_execution() {
    cases(96, |g| {
        let mask = g.vec_with(16..16, |g| g.bool());
        let run = |freeze: bool| {
            let mut cluster = Cluster::new(ClusterSpec::tiny());
            for i in 0..16u64 {
                cluster
                    .server_mut(ServerId::new(i))
                    .place(
                        JobId::new(i),
                        Resources::cores_gb(4, 8),
                        SimDuration::from_mins(3),
                    )
                    .unwrap();
            }
            if freeze {
                for (i, &f) in mask.iter().enumerate() {
                    if f {
                        cluster.server_mut(ServerId::new(i as u64)).freeze();
                    }
                }
            }
            let mut done = Vec::new();
            for _ in 0..4 {
                done.extend(cluster.advance(SimDuration::MINUTE));
            }
            (cluster.total_power_w(), done.len())
        };
        assert_eq!(run(false), run(true));
    });
}
