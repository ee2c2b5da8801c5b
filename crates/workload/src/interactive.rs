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
//!
//! Runs that differ only in their frequency trace make the same request
//! draws (same seed, same count), so one pass of draws serves them all:
//! each trace advances its own Lindley chain over the shared arrivals
//! and service demands, bit for bit as a run of that trace alone
//! would. A run keeps no per-request latencies: only a running sum for
//! the mean and an exact top tail ([`TopTail`]) sized for p99 of the
//! expected request count. If the Poisson count overshoots that size
//! and the tail comes up short, the pass is rerun once with the count
//! it found; both passes are deterministic, so the answer is the same.
//!
//! A frequency trace that is constant over equal slices of the run
//! ([`StepTrace`], such as a per-tick capacity trace) is read by slice,
//! not by request: [`InteractiveSim::run_steps`] finds each slice
//! boundary once per run, and since service starts never decrease, a
//! cursor walks past the boundaries with one compare per request. The
//! frequency lookup then stays off the recurrence's loop-carried chain,
//! and the results are bit-identical to [`InteractiveSim::run`] with a
//! per-request lookup of the same trace.

use ampere_cluster::ServiceClass;
use ampere_sim::{derive_stream, rng::streams, Distribution, Exp};
use ampere_stats::quantile::TopTail;

/// The quantiles every run reports; a tail long enough for the first
/// answers them all.
const TAIL_QS: [f64; 3] = [0.99, 0.999, 1.0];

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
    /// absolute time `t` (µs since run start) is `freq_at(t)`, called
    /// once per request at its service start. A trace that is constant
    /// over equal slices of the run is cheaper through
    /// [`InteractiveSim::run_steps`], with bit-identical results.
    ///
    /// # Panics
    /// If `freq_at` returns a non-finite frequency, or `run_secs` or
    /// `target_utilization` is not finite and positive.
    pub fn run(&self, op: OpType, freq_at: &dyn Fn(f64) -> f64) -> LatencyStats {
        let horizon_us = self.horizon_us();
        let keep = self.keep(op, horizon_us);
        let mut runs = self.simulate(op, horizon_us, || vec![checked(freq_at)], keep);
        runs.pop().expect("one trace, one run")
    }

    /// One run per trace in `traces`, each like [`InteractiveSim::run`]
    /// with `freq_at` reading that trace, from one pass of request
    /// draws. The model reads each trace by slice, not by request: each
    /// slice boundary is found once per run, and service starts (which
    /// never decrease) walk past them with one compare.
    ///
    /// # Panics
    /// If `run_secs` or `target_utilization` is not finite and positive.
    pub fn run_steps(&self, op: OpType, traces: &[StepTrace<'_>]) -> Vec<LatencyStats> {
        let horizon_us = self.horizon_us();
        let readers = || {
            traces
                .iter()
                .map(|trace| {
                    let mut cursor = trace.cursor(horizon_us);
                    move |start| cursor.at(start)
                })
                .collect::<Vec<_>>()
        };
        self.simulate(op, horizon_us, readers, self.keep(op, horizon_us))
    }

    /// The run's length in µs.
    ///
    /// # Panics
    /// If `run_secs` or `target_utilization` is not finite and positive:
    /// an empty run has no percentiles.
    fn horizon_us(&self) -> f64 {
        assert!(
            self.run_secs.is_finite() && self.run_secs > 0.0,
            "run_secs must be finite and positive, not {}",
            self.run_secs
        );
        assert!(
            self.target_utilization.is_finite() && self.target_utilization > 0.0,
            "target_utilization must be finite and positive, not {}",
            self.target_utilization
        );
        self.run_secs * 1e6
    }

    /// How many of the highest latencies a run keeps: enough for p99
    /// of the expected request count plus a margin of several standard
    /// deviations of the Poisson count, so the rerun is rare.
    fn keep(&self, op: OpType, horizon_us: f64) -> usize {
        let expected = (horizon_us * self.target_utilization / op.base_service_us()) as usize;
        TopTail::keep_for(TAIL_QS[0], expected + expected / 32 + 64)
    }

    /// The runs of every trace that `readers` makes a frequency reader
    /// for, in order, from one pass of request draws that keeps `keep`
    /// of the highest latencies per trace, or, if that is too short for
    /// p99, from a second pass that keeps as many as the first pass's
    /// request count needs. `readers` makes fresh readers for each pass.
    fn simulate<F: FnMut(f64) -> f64>(
        &self,
        op: OpType,
        horizon_us: f64,
        readers: impl Fn() -> Vec<F>,
        keep: usize,
    ) -> Vec<LatencyStats> {
        self.pass(op, horizon_us, readers(), keep)
            .unwrap_or_else(|count| {
                let keep = TopTail::keep_for(TAIL_QS[0], count);
                self.pass(op, horizon_us, readers(), keep)
                    .expect("a tail kept for the first pass's count reaches p99")
            })
    }

    /// One pass of the Lindley recurrence: the requests' arrivals and
    /// service demands are drawn once, and each reader's FIFO queue
    /// serves them at its own frequency. A reader is called once per
    /// request with its queue's service start, which never decreases.
    /// `Err` carries the request count when a tail of `keep` latencies
    /// is too short for p99.
    fn pass<F: FnMut(f64) -> f64>(
        &self,
        op: OpType,
        horizon_us: f64,
        readers: Vec<F>,
        keep: usize,
    ) -> Result<Vec<LatencyStats>, usize> {
        let mut rng = derive_stream(self.seed, streams::REQUESTS);
        let mean_s = op.base_service_us();
        let inter = Exp::new(self.target_utilization / mean_s).expect("positive rate");
        let service = Exp::new(1.0 / mean_s).expect("positive rate");

        let mut queues: Vec<Queue<F>> = readers
            .into_iter()
            .map(|freq_at| Queue {
                freq_at,
                server_free: 0.0,
                sum_us: 0.0,
                tail: TopTail::new(keep),
            })
            .collect();
        let mut arrival = 0.0f64;
        let mut count = 0usize;
        while arrival < horizon_us {
            arrival += inter.sample(&mut rng);
            let demand = service.sample(&mut rng);
            for q in &mut queues {
                let start = arrival.max(q.server_free);
                let freq = (q.freq_at)(start);
                q.server_free = start + demand / freq.clamp(0.05, 1.0);
                let latency = q.server_free - arrival;
                q.sum_us += latency;
                q.tail.push(latency);
            }
            count += 1;
        }
        queues
            .into_iter()
            .map(|mut q| {
                let [p99_us, p999_us, max_us] = q.tail.quantiles(count, TAIL_QS).ok_or(count)?;
                Ok(LatencyStats {
                    count,
                    mean_us: q.sum_us / count as f64,
                    p99_us,
                    p999_us,
                    max_us,
                })
            })
            .collect()
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
    /// running work), both from one pass of request draws.
    pub fn fig11_comparison(&self, capped_freq_at: &dyn Fn(f64) -> f64) -> Vec<RedisBenchReport> {
        let horizon_us = self.horizon_us();
        OpType::ALL
            .iter()
            .map(|&op| {
                let readers = || vec![checked(capped_freq_at), checked(&|_| 1.0)];
                let runs = self.simulate(op, horizon_us, readers, self.keep(op, horizon_us));
                RedisBenchReport {
                    op,
                    capped_p999_us: runs[0].p999_us,
                    ampere_p999_us: runs[1].p999_us,
                }
            })
            .collect()
    }
}

/// One trace's FIFO queue in a pass of [`InteractiveSim::simulate`].
struct Queue<F> {
    freq_at: F,
    /// When the server finishes its last request, µs.
    server_free: f64,
    /// The sum of latencies so far, in arrival order.
    sum_us: f64,
    tail: TopTail,
}

/// `freq_at` as a reader that rejects a non-finite frequency.
fn checked(freq_at: &dyn Fn(f64) -> f64) -> impl FnMut(f64) -> f64 + '_ {
    move |start| {
        let freq = freq_at(start);
        assert!(
            freq.is_finite(),
            "freq_at({start} us) returned {freq}, not a finite frequency"
        );
        freq
    }
}

/// A frequency trace that is constant over each of `n` equal slices of a
/// run: time `t` (µs since the start of a run `horizon_us` long) falls in
/// slice `((t / horizon_us) * n) as usize`, clamped to `n - 1`, so a
/// request that starts past the horizon reads the last level.
#[derive(Debug, Clone, Copy)]
pub struct StepTrace<'a> {
    levels: &'a [f64],
}

impl<'a> StepTrace<'a> {
    /// The trace whose slice `k` runs at frequency `levels[k]`.
    ///
    /// # Panics
    /// If `levels` is empty or holds a non-finite level.
    pub fn new(levels: &'a [f64]) -> Self {
        assert!(!levels.is_empty(), "a step trace needs at least one level");
        if let Some(k) = levels.iter().position(|l| !l.is_finite()) {
            panic!("step level {k} is {}, not a finite frequency", levels[k]);
        }
        Self { levels }
    }

    /// The slice time `t` falls in, in a run `horizon_us` long.
    fn slice_at(&self, t: f64, horizon_us: f64) -> usize {
        let n = self.levels.len();
        (((t / horizon_us) * n as f64) as usize).min(n - 1)
    }

    /// A reader of this trace at non-decreasing times in a run
    /// `horizon_us` long.
    fn cursor(&self, horizon_us: f64) -> SliceCursor<'a> {
        SliceCursor {
            levels: self.levels,
            until: self.boundaries(horizon_us),
            k: 0,
        }
    }

    /// Where each slice ends in a run `horizon_us` long: `until[k]` is
    /// the least non-negative `f64` `t` with `slice_at(t) > k`, and the
    /// last slice never ends (`+inf`).
    ///
    /// Correctly rounded `/` and `*` and the truncating cast are all
    /// monotone in `t`, and the bit patterns of non-negative `f64`s are
    /// ordered like their values, so bisection over the bits finds each
    /// boundary exactly.
    fn boundaries(&self, horizon_us: f64) -> Vec<f64> {
        let inf = f64::INFINITY.to_bits();
        let mut until: Vec<f64> = (0..self.levels.len() - 1)
            .map(|k| {
                // slice_at(lo) <= k < slice_at(hi): slice_at(0) is 0 and
                // slice_at(+inf) saturates to the last slice.
                let (mut lo, mut hi) = (0u64, inf);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if self.slice_at(f64::from_bits(mid), horizon_us) > k {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                f64::from_bits(hi)
            })
            .collect();
        until.push(f64::INFINITY);
        until
    }
}

/// Reads a [`StepTrace`] at non-decreasing times, one compare per read.
struct SliceCursor<'a> {
    levels: &'a [f64],
    /// Where each slice ends ([`StepTrace::boundaries`]).
    until: Vec<f64>,
    /// The current slice.
    k: usize,
}

impl SliceCursor<'_> {
    /// The level at `t`, which is no earlier than any `t` read before.
    fn at(&mut self, t: f64) -> f64 {
        // One long request can carry the next start across several
        // slices.
        while t >= self.until[self.k] {
            self.k += 1;
        }
        self.levels[self.k]
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
    use ampere_sim::SimRng;

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
        assert!(stats.p99_us > stats.mean_us);
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
        assert!(lrange.mean_us > get.mean_us * 5.0);
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
            // One pass over both traces, bit for bit two runs.
            let capped = sim.run(r.op, &trace).p999_us;
            let ampere = sim.run(r.op, &|_| 1.0).p999_us;
            assert_eq!(r.capped_p999_us.to_bits(), capped.to_bits());
            assert_eq!(r.ampere_p999_us.to_bits(), ampere.to_bits());
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
            (stats.p99_us, cdf.quantile(0.99)),
            (stats.p999_us, cdf.quantile(0.999)),
            (stats.max_us, cdf.max()),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
        assert!((stats.mean_us - cdf.mean()).abs() <= 1e-9 * cdf.mean());
    }

    #[test]
    fn a_short_tail_reruns_with_the_request_count() {
        let sim = InteractiveSim {
            run_secs: 2.0,
            ..quick_sim()
        };
        let trace = episodic_capping(0.15, 0.63, 1e6);
        let (op, horizon_us) = (OpType::Get, sim.horizon_us());
        let readers = || vec![checked(&trace)];
        // One latency cannot reach p99 of some 37,000 requests.
        let count = sim.pass(op, horizon_us, readers(), 1).unwrap_err();
        assert!(count > 30_000, "{count} requests");
        let rerun = sim.simulate(op, horizon_us, readers, 1);
        assert_eq!(rerun.len(), 1);
        assert_bit_equal(&rerun[0], &sim.run(op, &trace));
    }

    #[test]
    fn one_pass_over_several_traces_equals_each_alone() {
        let sim = InteractiveSim {
            run_secs: 2.5,
            ..quick_sim()
        };
        let mut rng = SimRng::seed_from_u64(23);
        let ones = vec![1.0; 120];
        let dip: Vec<f64> = (0..120)
            .map(|k| 1.0 - 0.5 * (std::f64::consts::PI * k as f64 / 120.0).sin())
            .collect();
        let noise: Vec<f64> = (0..7).map(|_| rng.gen_range(0.0..1.2)).collect();
        let traces = [&ones, &dip, &noise, &ones].map(|l| StepTrace::new(l));
        let together = sim.run_steps(OpType::Get, &traces);
        assert_eq!(together.len(), traces.len());
        for (trace, got) in traces.iter().zip(&together) {
            assert_bit_equal(got, &sim.run_steps(OpType::Get, &[*trace])[0]);
        }
        assert!(together[1].p999_us > together[0].p999_us);
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

    /// The slice `t` falls in, written out as a per-request index
    /// closure over a per-tick trace computes it.
    fn idx(t: f64, horizon_us: f64, n: usize) -> usize {
        (((t / horizon_us) * n as f64) as usize).min(n - 1)
    }

    fn index_closure(levels: &[f64], run_secs: f64) -> impl Fn(f64) -> f64 + '_ {
        move |t| levels[idx(t, run_secs * 1e6, levels.len())]
    }

    fn assert_bit_equal(got: &LatencyStats, want: &LatencyStats) {
        assert_eq!(got.count, want.count);
        for (g, w) in [
            (got.mean_us, want.mean_us),
            (got.p99_us, want.p99_us),
            (got.p999_us, want.p999_us),
            (got.max_us, want.max_us),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
        }
    }

    #[test]
    fn step_trace_equals_the_index_closure() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut cases = Vec::new();
        for n in [1, 2, 7, 120, 1440] {
            for run_secs in [0.37, 2.5] {
                // Levels from 0 to 1.2 reach past both ends of the
                // 0.05..=1.0 clamp.
                let levels: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.2)).collect();
                cases.push((levels, run_secs));
            }
        }
        // The quick uniform arm's shape: 120 measured minutes, down to
        // 37 of 60 interactive servers at the peak.
        let uniform_arm = (0..120)
            .map(|k| {
                (60.0 - (23.0 * (std::f64::consts::PI * k as f64 / 120.0).sin()).round()) / 60.0
            })
            .collect();
        cases.push((uniform_arm, 30.0));
        for (levels, run_secs) in &cases {
            let sim = InteractiveSim {
                run_secs: *run_secs,
                seed: rng.next_u64(),
                ..quick_sim()
            };
            let got = &sim.run_steps(OpType::Get, &[StepTrace::new(levels)])[0];
            let want = sim.run(OpType::Get, &index_closure(levels, *run_secs));
            assert_bit_equal(got, &want);
        }
    }

    #[test]
    fn slice_boundaries_are_exact() {
        for (n, run_secs) in [
            (1, 30.0),
            (2, 0.37),
            (7, 2.5),
            (120, 30.0),
            (1440, 86_400.0),
        ] {
            let levels = vec![1.0; n];
            let horizon_us = run_secs * 1e6;
            let until = StepTrace::new(&levels).boundaries(horizon_us);
            assert_eq!(until.len(), n);
            assert_eq!(until[n - 1], f64::INFINITY);
            // Slice k + 1 starts exactly where slice k ends.
            for (k, b) in until[..n - 1].iter().enumerate() {
                assert!(idx(*b, horizon_us, n) > k, "slice {k} ends after {b}");
                assert!(
                    idx(b.next_down(), horizon_us, n) <= k,
                    "slice {k} ends before {b}"
                );
            }
        }
    }

    #[test]
    fn cursor_reads_exact_boundaries_and_crosses_several_slices() {
        let levels: Vec<f64> = (0..120).map(|k| k as f64 / 120.0).collect();
        let trace = StepTrace::new(&levels);
        let run_secs = 30.0;
        let closure = index_closure(&levels, run_secs);
        let until = trace.boundaries(run_secs * 1e6);
        // Every slice boundary, and the time just before it.
        let mut cursor = trace.cursor(run_secs * 1e6);
        for &b in &until[..119] {
            for t in [b.next_down(), b] {
                assert_eq!(cursor.at(t), closure(t), "at {t} us");
            }
        }
        // Reads five slices apart: one long request carries the next
        // service start across several slices at once.
        let mut cursor = trace.cursor(run_secs * 1e6);
        for &b in until[..119].iter().step_by(5) {
            assert_eq!(cursor.at(b), closure(b), "at {b} us");
        }
        assert_eq!(cursor.at(1e12), levels[119], "past the horizon");
    }

    #[test]
    #[should_panic(expected = "step level 1 is NaN, not a finite frequency")]
    fn non_finite_step_level_is_rejected() {
        let _ = StepTrace::new(&[1.0, f64::NAN, 0.5]);
    }

    #[test]
    #[should_panic(expected = "run_secs must be finite and positive")]
    fn empty_run_is_rejected() {
        let sim = InteractiveSim {
            run_secs: 0.0,
            ..quick_sim()
        };
        let _ = sim.run(OpType::Get, &|_| 1.0);
    }

    #[test]
    #[should_panic(expected = "run_secs must be finite and positive")]
    fn endless_run_is_rejected() {
        let sim = InteractiveSim {
            run_secs: f64::INFINITY,
            ..quick_sim()
        };
        let _ = sim.run_steps(OpType::Get, &[StepTrace::new(&[1.0])]);
    }

    #[test]
    #[should_panic(expected = "target_utilization must be finite and positive")]
    fn non_finite_utilization_is_rejected() {
        let sim = InteractiveSim {
            target_utilization: f64::NAN,
            ..quick_sim()
        };
        let _ = sim.run(OpType::Get, &|_| 1.0);
    }

    #[test]
    #[should_panic(expected = "bad duty cycle")]
    fn episodic_rejects_bad_duty() {
        let _ = episodic_capping(1.5, 0.5, 1e6);
    }
}
