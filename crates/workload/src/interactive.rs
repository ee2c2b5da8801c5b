//! Interactive (Redis-like) service model for the §4.3 SLA comparison.
//!
//! The paper deploys a Redis cluster on an over-provisioned row and
//! runs `redis-benchmark` from uncontrolled clients, comparing p99.9
//! latency under DVFS power capping vs. under Ampere (Fig 11). Redis is
//! single-threaded, so each server is a FIFO queue: when capping lowers
//! the clock, service times stretch by `1/freq` and queueing delay
//! explodes near saturation — exactly the "significant queuing effects"
//! §4.3 names as the cause of the latency blow-up.
//!
//! The simulation uses the exact Lindley recurrence for a FIFO queue
//! (start = max(arrival, previous finish)), which is faster and more
//! precise than event juggling for a single-server queue.

use ampere_cluster::ServiceClass;
use ampere_sim::{derive_stream, rng::streams, Distribution, Exp};
use ampere_stats::quantile::select_quantiles;

/// The redis-benchmark operations reported in Fig 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// `SET key value`.
    Set,
    /// `GET key`.
    Get,
    /// `LPUSH list value`.
    LPush,
    /// `LPOP list`.
    LPop,
    /// `LRANGE list 0 599` — the heavy range read.
    LRange600,
    /// `MSET` of 10 keys.
    MSet,
}

impl OpType {
    /// All operations in the order Fig 11 lists them.
    pub const ALL: [OpType; 6] = [
        OpType::Set,
        OpType::Get,
        OpType::LPush,
        OpType::LPop,
        OpType::LRange600,
        OpType::MSet,
    ];

    /// Mean service time at nominal frequency, in microseconds.
    /// Calibrated to redis-benchmark relative costs: list range reads
    /// dominate, multi-key writes sit in between, point ops are cheap.
    pub fn base_service_us(self) -> f64 {
        match self {
            OpType::Set => 36.0,
            OpType::Get => 30.0,
            OpType::LPush => 40.0,
            OpType::LPop => 38.0,
            OpType::LRange600 => 620.0,
            OpType::MSet => 130.0,
        }
    }

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            OpType::Set => "SET",
            OpType::Get => "GET",
            OpType::LPush => "LPUSH",
            OpType::LPop => "LPOP",
            OpType::LRange600 => "LRANGE_600",
            OpType::MSet => "MSET",
        }
    }
}

/// Client-observed latency statistics for one benchmark run.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub count: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency in microseconds — the paper's metric.
    pub p999_us: f64,
    /// Maximum latency in microseconds.
    pub max_us: f64,
}

/// One row of the Fig 11 comparison.
#[derive(Debug, Clone)]
pub struct RedisBenchReport {
    /// Operation benchmarked.
    pub op: OpType,
    /// p99.9 latency with DVFS capping episodes, µs.
    pub capped_p999_us: f64,
    /// p99.9 latency under Ampere (no capping), µs.
    pub ampere_p999_us: f64,
}

impl RedisBenchReport {
    /// Latency inflation factor of capping relative to Ampere.
    pub fn inflation(&self) -> f64 {
        self.capped_p999_us / self.ampere_p999_us
    }
}

/// Single-server FIFO (Redis-like) benchmark simulator.
#[derive(Debug, Clone)]
pub struct InteractiveSim {
    /// Offered load as a fraction of nominal capacity, `λ·E[s]`.
    pub target_utilization: f64,
    /// Wall-clock length of one benchmark run, in seconds.
    pub run_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InteractiveSim {
    fn default() -> Self {
        Self {
            // redis-benchmark drives servers hard; 0.55 of single-thread
            // capacity leaves SLA headroom at nominal frequency but
            // saturates when capping stretches service times ~1.6x.
            target_utilization: 0.55,
            run_secs: 120.0,
            seed: 42,
        }
    }
}

impl InteractiveSim {
    /// Runs one open-loop benchmark of `op` with Poisson arrivals and
    /// exponential service times, where the server's DVFS frequency at
    /// absolute time `t` (µs since run start) is `freq_at(t)`.
    ///
    /// # Panics
    /// If `freq_at` returns a non-finite frequency.
    pub fn run(&self, op: OpType, freq_at: &dyn Fn(f64) -> f64) -> LatencyStats {
        let mut rng = derive_stream(self.seed, streams::REQUESTS);
        let mean_s = op.base_service_us();
        let lambda_per_us = self.target_utilization / mean_s;
        let inter = Exp::new(lambda_per_us).expect("positive rate");
        let service = Exp::new(1.0 / mean_s).expect("positive rate");
        let horizon_us = self.run_secs * 1e6;

        let mut arrival = 0.0f64;
        let mut server_free = 0.0f64;
        // Sized for the expected request count plus a margin of several
        // standard deviations of the Poisson count, so it does not regrow.
        let expected = (horizon_us * lambda_per_us) as usize;
        let mut latencies = Vec::with_capacity(expected + expected / 32 + 64);
        while arrival < horizon_us {
            arrival += inter.sample(&mut rng);
            let start = arrival.max(server_free);
            let freq = freq_at(start);
            assert!(
                freq.is_finite(),
                "freq_at({start} us) returned {freq}, not a finite frequency"
            );
            let work = service.sample(&mut rng) / freq.clamp(0.05, 1.0);
            server_free = start + work;
            latencies.push(server_free - arrival);
        }
        let count = latencies.len();
        let mean_us = latencies.iter().sum::<f64>() / count as f64;
        let [p50_us, p99_us, p999_us, max_us] =
            select_quantiles(&mut latencies, [0.50, 0.99, 0.999, 1.0]);
        LatencyStats {
            count,
            mean_us,
            p50_us,
            p99_us,
            p999_us,
            max_us,
        }
    }

    /// Like [`InteractiveSim::run`], for a server of a given
    /// [`ServiceClass`]. Interactive servers delegate to `run`
    /// unchanged — same derived stream, bit-identical percentiles — so
    /// every legacy caller is the all-interactive special case. Batch
    /// servers carry side-task traffic on a class-separated stream
    /// (offset seed) so adding batch servers to a mixed fleet never
    /// perturbs the interactive draw sequence.
    pub fn run_classed(
        &self,
        op: OpType,
        class: ServiceClass,
        freq_at: &dyn Fn(f64) -> f64,
    ) -> LatencyStats {
        match class {
            ServiceClass::Interactive => self.run(op, freq_at),
            ServiceClass::Batch => {
                let side = InteractiveSim {
                    // Splitmix-style offset keeps the batch stream
                    // disjoint from the interactive one for any seed.
                    seed: self.seed ^ 0x9e37_79b9_7f4a_7c15,
                    ..self.clone()
                };
                side.run(op, freq_at)
            }
        }
    }

    /// Runs the full Fig 11 comparison: every op, once under a capping
    /// frequency trace and once at nominal frequency (Ampere never slows
    /// running work).
    pub fn fig11_comparison(&self, capped_freq_at: &dyn Fn(f64) -> f64) -> Vec<RedisBenchReport> {
        OpType::ALL
            .iter()
            .map(|&op| {
                let capped = self.run(op, capped_freq_at);
                let ampere = self.run(op, &|_| 1.0);
                RedisBenchReport {
                    op,
                    capped_p999_us: capped.p999_us,
                    ampere_p999_us: ampere.p999_us,
                }
            })
            .collect()
    }
}

/// A frequency trace alternating capped and uncapped episodes, modeled
/// on the §4.3 measurement that capped rows spend roughly 15 % of time
/// slowed down. `period_us` is the cycle length; the first
/// `duty * period` of each cycle runs at `capped_freq`.
pub fn episodic_capping(duty: f64, capped_freq: f64, period_us: f64) -> impl Fn(f64) -> f64 {
    assert!((0.0..=1.0).contains(&duty), "bad duty cycle");
    assert!(capped_freq > 0.0 && capped_freq <= 1.0, "bad capped freq");
    assert!(period_us > 0.0, "bad period");
    move |t: f64| {
        let phase = (t % period_us) / period_us;
        if phase < duty {
            capped_freq
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim() -> InteractiveSim {
        InteractiveSim {
            target_utilization: 0.55,
            run_secs: 30.0,
            seed: 7,
        }
    }

    #[test]
    fn nominal_run_meets_sla() {
        let sim = quick_sim();
        let stats = sim.run(OpType::Get, &|_| 1.0);
        assert!(stats.count > 100_000);
        // M/M/1 at rho=0.55: mean sojourn = s/(1-rho) ≈ 2.2 s_mean.
        let expected = OpType::Get.base_service_us() / (1.0 - 0.55);
        assert!(
            (stats.mean_us - expected).abs() / expected < 0.1,
            "mean = {} expected ≈ {expected}",
            stats.mean_us
        );
        assert!(stats.p999_us > stats.p99_us);
        assert!(stats.p99_us > stats.p50_us);
    }

    #[test]
    fn capping_inflates_tail_latency() {
        let sim = quick_sim();
        let trace = episodic_capping(0.15, 0.63, 10e6);
        for op in [OpType::Get, OpType::LRange600] {
            let capped = sim.run(op, &trace);
            let nominal = sim.run(op, &|_| 1.0);
            let inflation = capped.p999_us / nominal.p999_us;
            assert!(inflation > 1.5, "{}: inflation = {inflation}", op.name());
        }
    }

    #[test]
    fn heavier_ops_have_higher_latency() {
        let sim = quick_sim();
        let get = sim.run(OpType::Get, &|_| 1.0);
        let lrange = sim.run(OpType::LRange600, &|_| 1.0);
        assert!(lrange.p50_us > get.p50_us * 5.0);
    }

    #[test]
    fn fig11_report_covers_all_ops() {
        let sim = InteractiveSim {
            run_secs: 10.0,
            ..quick_sim()
        };
        let trace = episodic_capping(0.15, 0.63, 5e6);
        let reports = sim.fig11_comparison(&trace);
        assert_eq!(reports.len(), 6);
        for r in &reports {
            assert!(r.inflation() > 1.0, "{} not inflated", r.op.name());
        }
    }

    #[test]
    fn classed_run_is_bit_identical_for_interactive() {
        let sim = quick_sim();
        let legacy = sim.run(OpType::Get, &|_| 1.0);
        let classed = sim.run_classed(OpType::Get, ServiceClass::Interactive, &|_| 1.0);
        assert_eq!(legacy.p999_us.to_bits(), classed.p999_us.to_bits());
        assert_eq!(legacy.count, classed.count);
        // Batch side traffic draws from a disjoint stream.
        let batch = sim.run_classed(OpType::Get, ServiceClass::Batch, &|_| 1.0);
        assert_ne!(legacy.p999_us.to_bits(), batch.p999_us.to_bits());
    }

    #[test]
    fn deterministic_per_seed() {
        let sim = quick_sim();
        let a = sim.run(OpType::Set, &|_| 1.0);
        let b = sim.run(OpType::Set, &|_| 1.0);
        assert_eq!(a.p999_us, b.p999_us);
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn selected_percentiles_equal_a_sorted_cdf() {
        // The same arrival and service draws as `run`, kept here with
        // the sorted-sample `Cdf` as the reference.
        let sim = quick_sim();
        let trace = episodic_capping(0.15, 0.63, 10e6);
        let op = OpType::Get;
        let mut rng = derive_stream(sim.seed, streams::REQUESTS);
        let inter = Exp::new(sim.target_utilization / op.base_service_us()).unwrap();
        let service = Exp::new(1.0 / op.base_service_us()).unwrap();
        let (mut arrival, mut server_free) = (0.0f64, 0.0f64);
        let mut latencies = Vec::new();
        while arrival < sim.run_secs * 1e6 {
            arrival += inter.sample(&mut rng);
            let start = arrival.max(server_free);
            server_free = start + service.sample(&mut rng) / trace(start).clamp(0.05, 1.0);
            latencies.push(server_free - arrival);
        }
        let cdf = ampere_stats::Cdf::new(latencies).unwrap();
        let stats = sim.run(op, &trace);
        assert_eq!(stats.count, cdf.len());
        for (got, want) in [
            (stats.p50_us, cdf.quantile(0.50)),
            (stats.p99_us, cdf.quantile(0.99)),
            (stats.p999_us, cdf.quantile(0.999)),
            (stats.max_us, cdf.max()),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
        assert!((stats.mean_us - cdf.mean()).abs() <= 1e-9 * cdf.mean());
    }

    #[test]
    #[should_panic(expected = "freq_at")]
    fn non_finite_frequency_is_rejected() {
        let sim = InteractiveSim {
            run_secs: 1.0,
            ..quick_sim()
        };
        let _ = sim.run(OpType::Get, &|t| if t > 5e5 { f64::NAN } else { 1.0 });
    }

    #[test]
    #[should_panic(expected = "bad duty cycle")]
    fn episodic_rejects_bad_duty() {
        let _ = episodic_capping(1.5, 0.5, 1e6);
    }
}
