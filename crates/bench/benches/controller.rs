//! Micro-benchmarks of the Ampere control path: the per-minute cost
//! that would run on the production controller host. The paper's
//! controller handles dozens of rows per minute; these benches show the
//! per-row decision is microseconds, i.e. the design scales to a full
//! data center trivially.

use ampere_bench::harness::Runner;
use ampere_cluster::ServerId;
use ampere_core::{
    solve_pcp_greedy, spcp_optimal_ratio, ControlFunction, FreezePlanner, PcpInstance,
    ServerPowerReading,
};

fn readings(n: usize, frozen_every: usize) -> Vec<ServerPowerReading> {
    (0..n)
        .map(|i| ServerPowerReading {
            id: ServerId::new(i as u64),
            power_w: 150.0 + ((i * 37) % 100) as f64,
            frozen: frozen_every != 0 && i % frozen_every == 0,
        })
        .collect()
}

fn main() {
    let r = Runner::from_args("controller");

    r.bench("spcp_closed_form", || {
        spcp_optimal_ratio(std::hint::black_box(0.98), 0.03, 1.0, 0.05)
    });

    let inst = PcpInstance::new(0.97, vec![0.01; 60], 0.05, 1.0);
    r.bench("pcp_greedy_horizon_60", || {
        solve_pcp_greedy(std::hint::black_box(&inst))
    });

    let cf = ControlFunction::new(0.05, 0.03, 0.5);
    for n in [440usize, 800, 3200] {
        let rs = readings(n, 7);
        let planner = FreezePlanner::default();
        r.bench(&format!("algorithm1_plan_{n}_servers"), || {
            planner.plan(std::hint::black_box(&rs), &cf, 1.01)
        });
    }

    let rs = readings(440, 7);
    let planner = FreezePlanner::default();
    r.bench("algorithm1_below_threshold_440", || {
        planner.plan(std::hint::black_box(&rs), &cf, 0.80)
    });

    let samples: Vec<(f64, f64)> = (0..1000)
        .map(|i| {
            let u = (i % 100) as f64 / 100.0;
            (u, 0.05 * u + ((i * 13) % 7) as f64 * 1e-3)
        })
        .collect();
    r.bench_with_setup(
        "control_model_fit_1000_samples",
        || samples.clone(),
        |s| ampere_core::ControlModel::fit(s),
    );
}
