//! Time-varying arrival-rate profiles.
//!
//! §2.2 and §4.1.1 characterize the workload the generator must mimic:
//! strong diurnal variation at hour scale (Fig 8), unpredictable spikes
//! at minute scale (Fig 9), and *different products per row*, producing
//! spatially unbalanced and weakly correlated row powers (Fig 2). A
//! [`RateProfile`] is the deterministic diurnal shape; the stochastic
//! minute-scale texture comes from an Ornstein–Uhlenbeck multiplier
//! ([`OuNoise`]) plus Poisson job bursts, both applied by the generator.

use ampere_sim::{Distribution, Normal, SimRng, SimTime};

/// Deterministic component of the arrival rate (jobs per minute).
#[derive(Debug, Clone)]
pub enum RateProfile {
    /// A constant rate.
    Constant {
        /// Jobs per minute.
        per_min: f64,
    },
    /// A sinusoidal diurnal pattern:
    /// `base · (1 + amplitude · sin(2π · (hour − peak_hour + 6) / 24))`,
    /// which peaks at `peak_hour` and bottoms out 12 h later.
    Diurnal {
        /// Mean rate in jobs per minute.
        base_per_min: f64,
        /// Relative swing in `[0, 1)`.
        amplitude: f64,
        /// Hour of day (0–24) at which the rate peaks.
        peak_hour: f64,
    },
    /// Piecewise-constant segments: `(start_minute, jobs_per_minute)`,
    /// sorted by start minute; the first segment should start at 0.
    Steps {
        /// Segment boundaries.
        segments: Vec<(u64, f64)>,
    },
    /// A sum of component profiles — services whose arrival processes
    /// superpose (e.g. a user-facing request stream plus the off-hour
    /// side tasks that backfill its trough). The rate at any time is
    /// the sum of the component rates.
    Mix {
        /// The superposed component profiles.
        components: Vec<RateProfile>,
    },
}

impl RateProfile {
    /// The deterministic rate at time `t`, in jobs per minute.
    pub fn rate_per_min(&self, t: SimTime) -> f64 {
        match self {
            RateProfile::Constant { per_min } => *per_min,
            RateProfile::Diurnal {
                base_per_min,
                amplitude,
                peak_hour,
            } => {
                let hour = t.as_hours_f64() % 24.0;
                let phase = (hour - peak_hour + 6.0) / 24.0 * std::f64::consts::TAU;
                (base_per_min * (1.0 + amplitude * phase.sin())).max(0.0)
            }
            RateProfile::Steps { segments } => {
                let minute = t.as_mins();
                let mut rate = segments.first().map_or(0.0, |&(_, r)| r);
                for &(start, r) in segments {
                    if minute >= start {
                        rate = r;
                    } else {
                        break;
                    }
                }
                rate
            }
            RateProfile::Mix { components } => components.iter().map(|c| c.rate_per_min(t)).sum(),
        }
    }

    /// The light-workload preset for the 440-server evaluation row
    /// (Fig 10a / Table 2 "Light"): power mostly well under the scaled
    /// budget with occasional approaches to the threshold. Calibrated
    /// for group mean power ≈ 0.86 of the r_O = 0.25 scaled budget.
    pub fn light_row() -> Self {
        RateProfile::Diurnal {
            base_per_min: 230.0,
            amplitude: 0.60,
            peak_hour: 5.0,
        }
    }

    /// The heavy-workload preset (Fig 10b / Table 2 "Heavy"): demand
    /// that would exceed the r_O = 0.25 scaled budget much of the day.
    /// Calibrated for group mean power ≈ 0.95 of the scaled budget at
    /// the paper's 400–600 jobs/minute arrival rate.
    pub fn heavy_row() -> Self {
        RateProfile::Diurnal {
            base_per_min: 530.0,
            amplitude: 0.15,
            peak_hour: 4.0,
        }
    }

    /// A per-row "product mix" for multi-row characterization runs
    /// (Fig 1/2): rows get distinct base rates, amplitudes and peak
    /// hours, derived deterministically from the row index, so their
    /// powers are unbalanced and weakly correlated.
    pub fn product_mix(row_index: u64) -> Self {
        // Small deterministic LCG so profiles differ per row without a
        // shared RNG stream.
        let h = |k: u64| {
            let mut x = row_index
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(k);
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            (x % 10_000) as f64 / 10_000.0
        };
        RateProfile::Diurnal {
            base_per_min: 150.0 + 320.0 * h(1),
            amplitude: 0.25 + 0.6 * h(2),
            peak_hour: 24.0 * h(3),
        }
    }

    /// Scales the profile's rate by `factor` (e.g. to adapt a 440-server
    /// preset to a different row size).
    pub fn scaled(self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite(), "bad scale factor");
        match self {
            RateProfile::Constant { per_min } => RateProfile::Constant {
                per_min: per_min * factor,
            },
            RateProfile::Diurnal {
                base_per_min,
                amplitude,
                peak_hour,
            } => RateProfile::Diurnal {
                base_per_min: base_per_min * factor,
                amplitude,
                peak_hour,
            },
            RateProfile::Steps { segments } => RateProfile::Steps {
                segments: segments.into_iter().map(|(s, r)| (s, r * factor)).collect(),
            },
            RateProfile::Mix { components } => RateProfile::Mix {
                components: components.into_iter().map(|c| c.scaled(factor)).collect(),
            },
        }
    }
}

/// A user-population scale factor for interactive arrival streams.
///
/// Presets above are calibrated in jobs per minute for one evaluation
/// row; production framing is "how many users does this fleet serve".
/// A `UserPopulation` converts a simulated user count (millions are
/// fine — it is just arithmetic) into a diurnal [`RateProfile`]:
/// `users · requests_per_user_hour / 60` client requests per minute,
/// folded by `requests_per_job` into scheduler-visible jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserPopulation {
    /// Simulated users served by the fleet.
    pub users: f64,
    /// Mean requests each user issues per hour.
    pub requests_per_user_hour: f64,
    /// Client requests folded into one scheduler-visible job (request
    /// batching / connection multiplexing).
    pub requests_per_job: f64,
    /// Diurnal swing of the user population's activity, in `[0, 1)`.
    pub amplitude: f64,
    /// Hour of day (0–24) at which user activity peaks.
    pub peak_hour: f64,
}

impl UserPopulation {
    /// The streaming service's audience shape: evening peak (20:00),
    /// strong swing, ~1.8 requests per user-hour, 600 requests per
    /// scheduler-visible job. `users` picks the population size;
    /// `UserPopulation::streaming(2.0e6)` drives two million users.
    pub fn streaming(users: f64) -> Self {
        Self {
            users,
            requests_per_user_hour: 1.8,
            requests_per_job: 600.0,
            amplitude: 0.85,
            peak_hour: 20.0,
        }
    }

    /// Mean scheduler-visible jobs per minute this population produces.
    pub fn base_jobs_per_min(&self) -> f64 {
        assert!(
            self.users >= 0.0 && self.requests_per_user_hour >= 0.0 && self.requests_per_job > 0.0,
            "bad user population"
        );
        self.users * self.requests_per_user_hour / 60.0 / self.requests_per_job
    }

    /// The population's arrival profile: a diurnal curve at the
    /// population's mean rate, swing and peak hour.
    pub fn profile(&self) -> RateProfile {
        RateProfile::Diurnal {
            base_per_min: self.base_jobs_per_min(),
            amplitude: self.amplitude,
            peak_hour: self.peak_hour,
        }
    }
}

/// Mean-reverting multiplicative noise on the arrival rate.
///
/// Log-space Ornstein–Uhlenbeck: `x ← x(1 − θ) + N(0, σ)` per minute;
/// the multiplier is `exp(x)`. This produces the minute-scale spikes
/// and valleys of Fig 8/9 that the deterministic diurnal shape lacks.
#[derive(Debug, Clone)]
pub struct OuNoise {
    state: f64,
    theta: f64,
    normal: Normal,
}

impl OuNoise {
    /// Creates noise with mean-reversion `theta` per step and per-step
    /// innovation standard deviation `sigma`.
    pub fn new(theta: f64, sigma: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "bad theta");
        assert!(sigma >= 0.0 && sigma.is_finite(), "bad sigma");
        Self {
            state: 0.0,
            theta,
            normal: Normal::new(0.0, sigma.max(f64::MIN_POSITIVE)).expect("valid normal"),
        }
    }

    /// The calibration used for the evaluation row.
    pub fn paper_calibrated() -> Self {
        Self::new(0.12, 0.06)
    }

    /// Advances one step and returns the new multiplier.
    pub fn step(&mut self, rng: &mut SimRng) -> f64 {
        self.state = self.state * (1.0 - self.theta) + self.normal.sample(rng);
        self.multiplier()
    }

    /// The current multiplier `exp(x)`.
    pub fn multiplier(&self) -> f64 {
        self.state.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::derive_stream;

    #[test]
    fn constant_profile() {
        let p = RateProfile::Constant { per_min: 42.0 };
        assert_eq!(p.rate_per_min(SimTime::ZERO), 42.0);
        assert_eq!(p.rate_per_min(SimTime::from_hours(13)), 42.0);
    }

    #[test]
    fn diurnal_peaks_at_peak_hour() {
        let p = RateProfile::Diurnal {
            base_per_min: 100.0,
            amplitude: 0.5,
            peak_hour: 14.0,
        };
        let peak = p.rate_per_min(SimTime::from_hours(14));
        let trough = p.rate_per_min(SimTime::from_hours(2));
        assert!((peak - 150.0).abs() < 1e-6, "peak = {peak}");
        assert!((trough - 50.0).abs() < 1e-6, "trough = {trough}");
        // Period is 24 h.
        let next_day = p.rate_per_min(SimTime::from_hours(38));
        assert!((next_day - peak).abs() < 1e-6);
    }

    #[test]
    fn steps_profile() {
        let p = RateProfile::Steps {
            segments: vec![(0, 10.0), (60, 20.0), (120, 5.0)],
        };
        assert_eq!(p.rate_per_min(SimTime::from_mins(0)), 10.0);
        assert_eq!(p.rate_per_min(SimTime::from_mins(59)), 10.0);
        assert_eq!(p.rate_per_min(SimTime::from_mins(60)), 20.0);
        assert_eq!(p.rate_per_min(SimTime::from_mins(500)), 5.0);
    }

    #[test]
    fn product_mixes_differ_and_are_deterministic() {
        let rates: Vec<f64> = (0..5)
            .map(|r| RateProfile::product_mix(r).rate_per_min(SimTime::from_hours(12)))
            .collect();
        let again: Vec<f64> = (0..5)
            .map(|r| RateProfile::product_mix(r).rate_per_min(SimTime::from_hours(12)))
            .collect();
        assert_eq!(rates, again);
        // All distinct (deterministic hash spread).
        for i in 0..rates.len() {
            for j in (i + 1)..rates.len() {
                assert!((rates[i] - rates[j]).abs() > 1e-9);
            }
        }
    }

    #[test]
    fn user_population_converts_to_rate() {
        let pop = UserPopulation::streaming(2.0e6);
        // 2M users · 1.8 req/user-h / 60 / 600 req/job = 100 jobs/min.
        assert!((pop.base_jobs_per_min() - 100.0).abs() < 1e-9);
        let p = pop.profile();
        let peak = p.rate_per_min(SimTime::from_hours(20));
        assert!((peak - 185.0).abs() < 1e-6, "peak = {peak}");
        // Populations scale linearly: 10× the users, 10× the rate.
        let big = UserPopulation {
            users: 2.0e7,
            ..pop
        };
        assert!((big.base_jobs_per_min() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_applies() {
        let p = RateProfile::light_row().scaled(0.5);
        let full = RateProfile::light_row();
        let t = SimTime::from_hours(10);
        assert!((p.rate_per_min(t) - full.rate_per_min(t) * 0.5).abs() < 1e-9);
        // Mix scaling distributes over components.
        let mix = || RateProfile::Mix {
            components: vec![
                RateProfile::light_row(),
                RateProfile::Constant { per_min: 40.0 },
            ],
        };
        assert!((mix().scaled(0.5).rate_per_min(t) - mix().rate_per_min(t) * 0.5).abs() < 1e-9);
    }

    #[test]
    fn ou_noise_mean_reverts() {
        let mut noise = OuNoise::paper_calibrated();
        let mut rng = derive_stream(5, 6);
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let m = noise.step(&mut rng);
            sum += m;
            max = max.max(m);
        }
        let mean = sum / n as f64;
        // Stationary around 1 with moderate excursions.
        assert!((0.9..=1.15).contains(&mean), "mean = {mean}");
        assert!(max < 2.5, "max = {max}");
        assert!(max > 1.2, "max = {max}");
    }

    #[test]
    fn zero_sigma_noise_is_flat() {
        let mut noise = OuNoise::new(0.1, 0.0);
        let mut rng = derive_stream(5, 6);
        for _ in 0..10 {
            let m = noise.step(&mut rng);
            assert!((m - 1.0).abs() < 1e-6);
        }
    }
}
