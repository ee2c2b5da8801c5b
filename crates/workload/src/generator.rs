//! The batch-job source.
//!
//! Combines a [`RateProfile`], the Fig 7 duration mixture and the
//! container-shape sampler into a per-tick generator: a non-homogeneous
//! Poisson arrival process modulated by OU noise, plus occasional *gang
//! bursts* (a MapReduce stage launching many tasks at once) that create
//! the minute-scale power spikes of Fig 9.

use ampere_cluster::{JobId, Resources};
use ampere_sim::{
    derive_stream, rng::streams, Distribution, Poisson, SimDuration, SimRng, SimTime,
};

use crate::duration::JobDurationDist;
use crate::profile::{OuNoise, RateProfile};
use crate::shape::JobShapeDist;

/// One job the workload asks the scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequest {
    /// Cluster-unique job id.
    pub id: JobId,
    /// Resources the job needs for its whole runtime.
    pub resources: Resources,
    /// Nominal runtime at full frequency.
    pub duration: SimDuration,
}

/// Configuration for gang bursts.
#[derive(Debug, Clone, Copy)]
pub struct BurstConfig {
    /// Expected bursts per minute (Poisson).
    pub per_min: f64,
    /// Gang size bounds (inclusive).
    pub size: (u32, u32),
}

impl Default for BurstConfig {
    fn default() -> Self {
        Self {
            // A stage launch lands every ~50 minutes on average and can
            // be large: this produces the Fig 9 minute-scale spikes
            // (99 % of 1-minute power changes within ±2.5 %, tail to
            // ~10 %).
            per_min: 0.02,
            size: (200, 2000),
        }
    }
}

/// A stateful batch workload generator.
#[derive(Debug)]
pub struct BatchWorkload {
    profile: RateProfile,
    durations: JobDurationDist,
    shapes: JobShapeDist,
    noise: OuNoise,
    bursts: BurstConfig,
    arrival_rng: SimRng,
    shape_rng: SimRng,
    next_job_raw: u64,
}

impl BatchWorkload {
    /// Creates a generator with paper-calibrated duration/shape
    /// distributions and noise. `seed` controls all randomness;
    /// `first_job_id` lets several generators share one id space.
    pub fn new(profile: RateProfile, seed: u64, first_job_id: u64) -> Self {
        Self {
            profile,
            durations: JobDurationDist::paper_calibrated(),
            shapes: JobShapeDist::paper_calibrated(),
            noise: OuNoise::paper_calibrated(),
            bursts: BurstConfig::default(),
            arrival_rng: derive_stream(seed, streams::ARRIVALS),
            shape_rng: derive_stream(seed, streams::JOB_SHAPE),
            next_job_raw: first_job_id,
        }
    }

    /// Replaces the burst configuration.
    pub fn with_bursts(mut self, bursts: BurstConfig) -> Self {
        self.bursts = bursts;
        self
    }

    /// The configured rate profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Generates the jobs arriving during `[now, now + tick)`.
    pub fn tick(&mut self, now: SimTime, tick: SimDuration) -> Vec<JobRequest> {
        let tick_mins = tick.as_mins_f64();
        let multiplier = self.noise.step(&mut self.arrival_rng);
        let rate = self.profile.rate_per_min(now) * multiplier * tick_mins;
        let mut count = poisson_draw(&mut self.arrival_rng, rate);

        // Gang bursts: a stage launch adds a block of similar tasks.
        let burst_events = poisson_draw(&mut self.arrival_rng, self.bursts.per_min * tick_mins);
        for _ in 0..burst_events {
            let (lo, hi) = self.bursts.size;
            count += self.arrival_rng.gen_range(lo..=hi) as u64;
        }

        (0..count)
            .map(|_| {
                let id = JobId::new(self.next_job_raw);
                self.next_job_raw += 1;
                JobRequest {
                    id,
                    resources: self.shapes.sample(&mut self.shape_rng),
                    duration: self.durations.sample(&mut self.shape_rng),
                }
            })
            .collect()
    }
}

/// Draws from Poisson(`rate`), tolerating a zero rate.
fn poisson_draw(rng: &mut SimRng, rate: f64) -> u64 {
    if rate <= 0.0 {
        return 0;
    }
    Poisson::new(rate).expect("positive rate").sample(rng) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_rate_tracks_profile() {
        let mut w = BatchWorkload::new(RateProfile::Constant { per_min: 100.0 }, 1, 0);
        let mut total = 0usize;
        let mins = 300;
        for m in 0..mins {
            total += w.tick(SimTime::from_mins(m), SimDuration::MINUTE).len();
        }
        let per_min = total as f64 / mins as f64;
        // Bursts add ~0.02 * 1100 ≈ 22/min on top of 100.
        assert!((105.0..=150.0).contains(&per_min), "rate = {per_min}");
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let mut w = BatchWorkload::new(RateProfile::Constant { per_min: 50.0 }, 2, 1_000);
        let mut ids = Vec::new();
        for m in 0..10 {
            for j in w.tick(SimTime::from_mins(m), SimDuration::MINUTE) {
                ids.push(j.id.raw());
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert_eq!(ids.first().copied(), Some(1_000));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut w = BatchWorkload::new(RateProfile::light_row(), seed, 0);
            (0..30)
                .flat_map(|m| w.tick(SimTime::from_mins(m), SimDuration::MINUTE))
                .map(|j| (j.id.raw(), j.resources.cpu_millis, j.duration.as_millis()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut w = BatchWorkload::new(RateProfile::Constant { per_min: 0.0 }, 3, 0).with_bursts(
            BurstConfig {
                per_min: 0.0,
                size: (1, 1),
            },
        );
        for m in 0..20 {
            assert!(w
                .tick(SimTime::from_mins(m), SimDuration::MINUTE)
                .is_empty());
        }
    }

    #[test]
    fn bursts_create_spikes() {
        let mut w = BatchWorkload::new(RateProfile::Constant { per_min: 20.0 }, 4, 0).with_bursts(
            BurstConfig {
                per_min: 0.2,
                size: (150, 200),
            },
        );
        let counts: Vec<usize> = (0..600)
            .map(|m| w.tick(SimTime::from_mins(m), SimDuration::MINUTE).len())
            .collect();
        let max = *counts.iter().max().unwrap();
        assert!(max >= 150, "max burst minute = {max}");
    }
}
