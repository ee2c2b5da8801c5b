//! Probability distributions over [`SimRng`] draws.
//!
//! In-repo replacements for the handful of `rand_distr` distributions the
//! workload and measurement models need: [`Normal`], [`LogNormal`],
//! [`Exp`] and [`Poisson`]. Each is a small immutable parameter struct;
//! sampling takes `&self` plus the caller's RNG stream, so distributions
//! can be shared freely without perturbing stream reproducibility.

use crate::rng::SimRng;

use std::f64::consts::TAU;
use std::fmt;

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistError {
    what: &'static str,
}

impl DistError {
    fn new(what: &'static str) -> Self {
        DistError { what }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// A distribution that can produce values of type `T`.
pub trait Distribution<T> {
    /// Draws one value using `rng`.
    fn sample(&self, rng: &mut SimRng) -> T;
}

/// Normal (Gaussian) distribution `N(mean, std_dev²)`.
///
/// Sampled by the Box–Muller transform. No spare value is cached (the
/// cosine branch is recomputed per draw) so sampling needs only `&self`
/// and stays deterministic per stream position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates `N(mean, std_dev²)`. `std_dev` must be finite and ≥ 0.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistError> {
        if !mean.is_finite() {
            return Err(DistError::new("normal mean must be finite"));
        }
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(DistError::new("normal std_dev must be finite and >= 0"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Draws a standard-normal variate.
    #[inline]
    fn standard(rng: &mut SimRng) -> f64 {
        // Box–Muller: u1 must be strictly positive for the log.
        let u1 = 1.0 - rng.gen::<f64>(); // in (0, 1]
        let u2 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }
}

impl Distribution<f64> for Normal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.std_dev * Normal::standard(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))` of the underlying normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal whose *logarithm* is `N(mu, sigma²)`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1 / lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Creates an exponential with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::new("exponential rate must be finite and > 0"));
        }
        Ok(Exp { lambda })
    }
}

impl Distribution<f64> for Exp {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse transform; 1 - u is in (0, 1] so ln() is finite.
        -(1.0 - rng.gen::<f64>()).ln() / self.lambda
    }
}

/// Poisson distribution with the given mean rate.
///
/// Uses Knuth's product-of-uniforms method for small rates and a
/// rounded normal approximation above `rate = 30`, where the
/// approximation error is far below the simulation's noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// Threshold above which the normal approximation is used.
    const NORMAL_APPROX_RATE: f64 = 30.0;

    /// Creates a Poisson with mean `rate > 0`.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DistError::new("poisson rate must be finite and > 0"));
        }
        Ok(Poisson { rate })
    }
}

impl Distribution<f64> for Poisson {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.rate < Self::NORMAL_APPROX_RATE {
            // Knuth: count uniforms until their product drops below e^-rate.
            let limit = (-self.rate).exp();
            let mut product = rng.gen::<f64>();
            let mut count = 0u64;
            while product > limit {
                product *= rng.gen::<f64>();
                count += 1;
            }
            count as f64
        } else {
            let z = Normal::standard(rng);
            (self.rate + self.rate.sqrt() * z).round().max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xA3F0)
    }

    fn mean_of(samples: impl Iterator<Item = f64>) -> (f64, f64, usize) {
        let xs: Vec<f64> = samples.collect();
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var, n)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut r = rng();
        let (mean, var, _) = mean_of((0..50_000).map(|_| d.sample(&mut r)));
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn zero_sigma_normal_is_constant() {
        let d = Normal::new(1.5, 0.0).unwrap();
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 1.5);
    }

    #[test]
    fn exp_mean_matches_rate() {
        let d = Exp::new(0.25).unwrap();
        let mut r = rng();
        let (mean, _, _) = mean_of((0..50_000).map(|_| d.sample(&mut r)));
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
        assert!(d.sample(&mut r) >= 0.0);
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
        let (mu, sigma) = (1.0, 0.5);
        let d = LogNormal::new(mu, sigma).unwrap();
        let mut r = rng();
        let (mean, _, _) = mean_of((0..100_000).map(|_| d.sample(&mut r)));
        let expect = (mu + sigma * sigma / 2.0f64).exp();
        assert!(
            (mean - expect).abs() / expect < 0.03,
            "mean = {mean}, want ≈ {expect}"
        );
    }

    #[test]
    fn poisson_small_rate_moments() {
        let d = Poisson::new(3.0).unwrap();
        let mut r = rng();
        let (mean, var, _) = mean_of((0..50_000).map(|_| d.sample(&mut r)));
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 3.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn poisson_large_rate_moments() {
        // Exercises the normal-approximation branch (rate >= 30).
        let d = Poisson::new(500.0).unwrap();
        let mut r = rng();
        let (mean, var, _) = mean_of((0..20_000).map(|_| d.sample(&mut r)));
        assert!((mean - 500.0).abs() < 2.0, "mean = {mean}");
        assert!((var - 500.0).abs() < 25.0, "var = {var}");
        // Integral and non-negative.
        let x = d.sample(&mut r);
        assert_eq!(x, x.trunc());
        assert!(x >= 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Exp::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(LogNormal::new(0.0, f64::INFINITY).is_err());
    }
}
