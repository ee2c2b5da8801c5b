//! Per-job resource demand sampling.
//!
//! The paper treats jobs as roughly interchangeable ("with large number
//! of jobs, each job has similar average resource requirements", §4.1.3)
//! but individual containers still vary; we sample CPU demand from a
//! small discrete palette of container sizes and memory proportionally
//! with jitter. At 400–600 arrivals/minute and a ~9-minute mean
//! duration a 440-server row carries thousands of concurrent jobs, so
//! each is a small slice of a 32-core server.

use ampere_cluster::Resources;
use ampere_sim::SimRng;

/// Samples per-job resource demands.
#[derive(Debug, Clone)]
pub struct JobShapeDist {
    /// Candidate CPU sizes in millicores with selection weights.
    sizes: Vec<(u64, f64)>,
    /// Memory per CPU core, in MB, before jitter.
    mb_per_core: f64,
}

impl JobShapeDist {
    /// The default container palette: 0.5, 1, 2 and 4 core slots with a
    /// bias toward small containers, 2 GB per core.
    pub fn paper_calibrated() -> Self {
        Self::new(
            vec![(500, 0.35), (1_000, 0.40), (2_000, 0.18), (4_000, 0.07)],
            2_048.0,
        )
    }

    /// Builds a sampler from `(cpu_millis, weight)` pairs.
    pub fn new(sizes: Vec<(u64, f64)>, mb_per_core: f64) -> Self {
        assert!(!sizes.is_empty(), "need at least one container size");
        assert!(
            sizes
                .iter()
                .all(|&(c, w)| c > 0 && w > 0.0 && w.is_finite()),
            "sizes and weights must be positive"
        );
        assert!(mb_per_core > 0.0, "bad memory ratio");
        Self { sizes, mb_per_core }
    }

    /// Draws one job's resource demand.
    pub fn sample(&self, rng: &mut SimRng) -> Resources {
        let total: f64 = self.sizes.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut cpu = self.sizes[self.sizes.len() - 1].0;
        for &(c, w) in &self.sizes {
            if pick < w {
                cpu = c;
                break;
            }
            pick -= w;
        }
        // Memory proportional to CPU with ±25 % jitter.
        let jitter = 0.75 + rng.gen::<f64>() * 0.5;
        let mem = (cpu as f64 / 1_000.0 * self.mb_per_core * jitter).round() as u64;
        Resources::new(cpu, mem.max(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::derive_stream;

    #[test]
    fn samples_come_from_palette() {
        let dist = JobShapeDist::paper_calibrated();
        let mut rng = derive_stream(3, 2);
        for _ in 0..1_000 {
            let r = dist.sample(&mut rng);
            assert!([500, 1_000, 2_000, 4_000].contains(&r.cpu_millis));
            assert!(r.memory_mb >= 64);
            // Memory within the jitter envelope.
            let per_core = r.memory_mb as f64 / (r.cpu_millis as f64 / 1_000.0);
            assert!((2_048.0 * 0.74..=2_048.0 * 1.26).contains(&per_core));
        }
    }

    #[test]
    fn weights_respected_roughly() {
        let dist = JobShapeDist::paper_calibrated();
        let mut rng = derive_stream(4, 2);
        let n = 20_000;
        let small = (0..n)
            .filter(|_| dist.sample(&mut rng).cpu_millis == 500)
            .count();
        let frac = small as f64 / n as f64;
        assert!((0.32..=0.38).contains(&frac), "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one container size")]
    fn rejects_empty_palette() {
        let _ = JobShapeDist::new(vec![], 1_024.0);
    }
}
