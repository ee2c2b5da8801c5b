//! Pluggable upper-level placement policies.
//!
//! Each policy sees the current candidate snapshot (unfrozen servers
//! with their free resources) and picks a server for one job. Policies
//! use bounded random probing ("power of d choices") instead of full
//! scans so dispatch stays fast at data-center scale — and, as in real
//! schedulers, placement quality is statistical rather than optimal,
//! which is exactly the regime Ampere's control model assumes.

use ampere_cluster::{Resources, RowId, ServerId};
use ampere_sim::SimRng;
use ampere_workload::JobRequest;

/// One schedulable server in the low level's candidate snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The server.
    pub id: ServerId,
    /// Row the server belongs to.
    pub row: RowId,
    /// Free resources at snapshot time (updated as jobs place).
    pub free: Resources,
    /// CPU utilization at snapshot time.
    pub utilization: f64,
}

impl Candidate {
    /// Whether the job fits this candidate right now.
    pub fn fits(&self, job: &JobRequest) -> bool {
        self.free.fits(&job.resources)
    }
}

/// Read-only context handed to a policy for one placement decision.
pub struct PlacementContext<'a> {
    /// All unfrozen servers (with live free-resource accounting).
    pub candidates: &'a [Candidate],
    /// Per-row indices into `candidates` (dense by row id).
    pub by_row: &'a [Vec<usize>],
    /// Per-row normalized unused power (1 − P/PM), if the caller tracks
    /// it; empty when unknown. Only `PowerSpread` consumes this.
    pub row_headroom: &'a [f64],
    /// Per-dimension upper bound on any candidate's free CPU and free
    /// memory. It may be stale-high, never low: a job it does not fit
    /// fits no candidate.
    pub max_free: Resources,
}

/// The per-dimension maximum of free CPU and free memory over
/// `candidates` ([`Resources::ZERO`] when there are none).
pub(crate) fn max_free(candidates: &[Candidate]) -> Resources {
    candidates.iter().fold(Resources::ZERO, |m, c| {
        Resources::new(
            m.cpu_millis.max(c.free.cpu_millis),
            m.memory_mb.max(c.free.memory_mb),
        )
    })
}

/// An upper-level scheduling policy.
pub trait PlacementPolicy: Send {
    /// The policy's display name (for experiment labels).
    fn name(&self) -> &'static str;

    /// Picks the index (into `ctx.candidates`) of a server that fits
    /// `job`, or `None` to leave the job queued.
    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize>;

    /// How many RNG draws [`place`](Self::place) makes when the job fits
    /// no candidate in `ctx`, or `None` when that count is not fixed.
    ///
    /// Dispatch skips a job that provably fits nowhere by jumping its RNG
    /// ahead by this count instead of calling `place`, so the count is
    /// part of the determinism contract (DESIGN §9): a wrong value
    /// changes every later placement. The count must be a pure function
    /// of `ctx`: dispatch may ask once and charge that count to a whole
    /// run of skipped jobs that see the same `ctx`. The default, `None`,
    /// means "always call `place`".
    fn unplaceable_draws(&self, _ctx: &PlacementContext<'_>) -> Option<u64> {
        None
    }
}

/// The miss cost shared by the probing policies: `probes` probes plus
/// the fallback sweep's start offset, one draw each; none without
/// candidates.
fn probe_miss_draws(probes: usize, ctx: &PlacementContext<'_>) -> Option<u64> {
    Some(if ctx.candidates.is_empty() {
        0
    } else {
        probes as u64 + 1
    })
}

/// Probes up to `probes` random candidates and takes the first fit,
/// then falls back to a bounded linear sweep. Approximates a scheduler
/// that spreads load uniformly — the assumption behind §3.4's "jobs
/// scheduled to a row is roughly proportional to its available servers".
#[derive(Debug, Clone)]
pub struct RandomFit {
    /// Number of random probes before the linear fallback.
    pub probes: usize,
}

impl Default for RandomFit {
    fn default() -> Self {
        Self { probes: 32 }
    }
}

impl PlacementPolicy for RandomFit {
    fn name(&self) -> &'static str {
        "random-fit"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.candidates.len();
        if n == 0 {
            return None;
        }
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            if ctx.candidates[i].fits(job) {
                return Some(i);
            }
        }
        // Bounded fallback: sweep from a random offset so repeated
        // failures don't always hammer the same prefix.
        let start = rng.gen_range(0..n);
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| ctx.candidates[i].fits(job))
    }

    fn unplaceable_draws(&self, ctx: &PlacementContext<'_>) -> Option<u64> {
        probe_miss_draws(self.probes, ctx)
    }
}

/// Power-of-d-choices least-loaded: probes `probes` random candidates
/// and picks the fitting one with the lowest utilization.
#[derive(Debug, Clone)]
pub struct LeastLoaded {
    /// Number of random probes per decision.
    pub probes: usize,
}

impl Default for LeastLoaded {
    fn default() -> Self {
        Self { probes: 64 }
    }
}

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.candidates.len();
        if n == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            if !ctx.candidates[i].fits(job) {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) if ctx.candidates[i].utilization < ctx.candidates[b].utilization => Some(i),
                keep => keep,
            };
        }
        best.or_else(|| RandomFit { probes: 0 }.place(job, ctx, rng))
    }

    fn unplaceable_draws(&self, ctx: &PlacementContext<'_>) -> Option<u64> {
        probe_miss_draws(self.probes, ctx)
    }
}

/// Power-of-d-choices best-fit: picks the fitting probe with the least
/// leftover CPU, packing jobs densely (a consolidation-style policy).
#[derive(Debug, Clone)]
pub struct BestFit {
    /// Number of random probes per decision.
    pub probes: usize,
}

impl Default for BestFit {
    fn default() -> Self {
        Self { probes: 64 }
    }
}

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let n = ctx.candidates.len();
        if n == 0 {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for _ in 0..self.probes {
            let i = rng.gen_range(0..n);
            let c = &ctx.candidates[i];
            if !c.fits(job) {
                continue;
            }
            let leftover = c.free.cpu_millis - job.resources.cpu_millis;
            best = match best {
                None => Some((i, leftover)),
                Some((_, b)) if leftover < b => Some((i, leftover)),
                keep => keep,
            };
        }
        best.map(|(i, _)| i)
            .or_else(|| RandomFit { probes: 0 }.place(job, ctx, rng))
    }

    fn unplaceable_draws(&self, ctx: &PlacementContext<'_>) -> Option<u64> {
        probe_miss_draws(self.probes, ctx)
    }
}

/// The paper's future-work idea (§6): steer jobs toward rows with more
/// unused power, *increasing* cross-row variance in utilization so more
/// power can be cultivated. Picks a row with probability proportional
/// to `headroom^bias`, then random-fits within it.
#[derive(Debug, Clone)]
pub struct PowerSpread {
    /// Exponent sharpening the headroom preference (1 = proportional).
    pub bias: f64,
    /// Probes within the chosen row.
    pub probes: usize,
}

impl Default for PowerSpread {
    fn default() -> Self {
        Self {
            bias: 2.0,
            probes: 32,
        }
    }
}

// `unplaceable_draws` stays `None`: where the row lottery lands decides
// whether the in-row probes run, so a miss has no fixed draw count.
impl PlacementPolicy for PowerSpread {
    fn name(&self) -> &'static str {
        "power-spread"
    }

    fn place(
        &mut self,
        job: &JobRequest,
        ctx: &PlacementContext<'_>,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if ctx.row_headroom.is_empty() || ctx.by_row.is_empty() {
            return RandomFit {
                probes: self.probes,
            }
            .place(job, ctx, rng);
        }
        // Row lottery weighted by headroom^bias.
        let weights: Vec<f64> = ctx
            .row_headroom
            .iter()
            .enumerate()
            .map(|(r, &h)| {
                if ctx.by_row.get(r).is_none_or(Vec::is_empty) {
                    0.0
                } else {
                    h.max(0.0).powf(self.bias)
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            let mut pick = rng.gen::<f64>() * total;
            for (r, &w) in weights.iter().enumerate() {
                if pick < w {
                    let members = &ctx.by_row[r];
                    for _ in 0..self.probes {
                        let i = members[rng.gen_range(0..members.len())];
                        if ctx.candidates[i].fits(job) {
                            return Some(i);
                        }
                    }
                    break;
                }
                pick -= w;
            }
        }
        // Fallback: anywhere.
        RandomFit {
            probes: self.probes,
        }
        .place(job, ctx, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_cluster::JobId;
    use ampere_sim::{derive_stream, SimDuration};

    fn job(cpu: u64) -> JobRequest {
        JobRequest {
            id: JobId::new(0),
            resources: Resources::new(cpu, 512),
            duration: SimDuration::from_mins(5),
        }
    }

    fn candidates(frees: &[u64]) -> (Vec<Candidate>, Vec<Vec<usize>>) {
        let cands: Vec<Candidate> = frees
            .iter()
            .enumerate()
            .map(|(i, &cpu)| Candidate {
                id: ServerId::new(i as u64),
                row: RowId::new(0),
                free: Resources::new(cpu, 100_000),
                utilization: 1.0 - cpu as f64 / 32_000.0,
            })
            .collect();
        let by_row = vec![(0..frees.len()).collect()];
        (cands, by_row)
    }

    #[test]
    fn random_fit_finds_the_only_fit() {
        let (cands, by_row) = candidates(&[100, 100, 8_000, 100]);
        let ctx = PlacementContext {
            candidates: &cands,
            by_row: &by_row,
            row_headroom: &[],
            max_free: max_free(&cands),
        };
        let mut rng = derive_stream(1, 3);
        let mut p = RandomFit::default();
        for _ in 0..20 {
            assert_eq!(p.place(&job(4_000), &ctx, &mut rng), Some(2));
        }
    }

    #[test]
    fn returns_none_when_nothing_fits() {
        let (cands, by_row) = candidates(&[100, 200, 300]);
        let ctx = PlacementContext {
            candidates: &cands,
            by_row: &by_row,
            row_headroom: &[],
            max_free: max_free(&cands),
        };
        let mut rng = derive_stream(1, 3);
        assert_eq!(
            RandomFit::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
        assert_eq!(
            LeastLoaded::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
        assert_eq!(BestFit::default().place(&job(4_000), &ctx, &mut rng), None);
        assert_eq!(
            PowerSpread::default().place(&job(4_000), &ctx, &mut rng),
            None
        );
    }

    #[test]
    fn unplaceable_draws_match_what_a_miss_consumes() {
        let mut gen = derive_stream(5, 3);
        for case in 0..200 {
            // Random candidate sets, including the empty one, and a job
            // just over the largest free amount on one dimension.
            let n = if case % 10 == 0 {
                0
            } else {
                gen.gen_range(1..40usize)
            };
            let rows = gen.gen_range(1..4usize);
            let cands: Vec<Candidate> = (0..n)
                .map(|i| Candidate {
                    id: ServerId::new(i as u64),
                    row: RowId::new((i % rows) as u64),
                    free: Resources::new(gen.gen_range(0..32_000u64), gen.gen_range(0..65_536u64)),
                    utilization: gen.gen::<f64>(),
                })
                .collect();
            let mut by_row = vec![Vec::new(); rows];
            for (i, c) in cands.iter().enumerate() {
                by_row[c.row.index()].push(i);
            }
            let headroom: Vec<f64> = (0..rows).map(|_| gen.gen::<f64>()).collect();
            let bound = max_free(&cands);
            let resources = if gen.gen_bool(0.5) {
                Resources::new(bound.cpu_millis + 1, gen.gen_range(0..65_536u64))
            } else {
                Resources::new(gen.gen_range(0..32_000u64), bound.memory_mb + 1)
            };
            let job = JobRequest {
                resources,
                ..job(0)
            };
            let ctx = PlacementContext {
                candidates: &cands,
                by_row: &by_row,
                row_headroom: &headroom,
                max_free: bound,
            };
            let probes = gen.gen_range(0..70usize);
            let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
                Box::new(RandomFit { probes }),
                Box::new(LeastLoaded { probes }),
                Box::new(BestFit { probes }),
            ];
            for p in &mut policies {
                let draws = p
                    .unplaceable_draws(&ctx)
                    .unwrap_or_else(|| panic!("{} declares its miss cost", p.name()));
                let mut rng = derive_stream(case, 3);
                let mut expected = rng.clone();
                expected.advance(draws);
                assert_eq!(p.place(&job, &ctx, &mut rng), None, "case {case}");
                assert_eq!(rng, expected, "case {case}: {} drew != {draws}", p.name());
            }
            assert_eq!(PowerSpread::default().unplaceable_draws(&ctx), None);
        }
    }

    #[test]
    fn empty_candidates() {
        let ctx = PlacementContext {
            candidates: &[],
            by_row: &[],
            row_headroom: &[],
            max_free: Resources::ZERO,
        };
        let mut rng = derive_stream(1, 3);
        assert_eq!(RandomFit::default().place(&job(500), &ctx, &mut rng), None);
    }

    #[test]
    fn least_loaded_prefers_lower_utilization() {
        // Two fitting servers with very different utilizations; with 64
        // probes over 2 candidates the lower one virtually always wins.
        let (cands, by_row) = candidates(&[30_000, 2_000]);
        let ctx = PlacementContext {
            candidates: &cands,
            by_row: &by_row,
            row_headroom: &[],
            max_free: max_free(&cands),
        };
        let mut rng = derive_stream(2, 3);
        let mut p = LeastLoaded::default();
        let mut wins = 0;
        for _ in 0..50 {
            if p.place(&job(1_000), &ctx, &mut rng) == Some(0) {
                wins += 1;
            }
        }
        assert!(wins >= 48, "wins = {wins}");
    }

    #[test]
    fn best_fit_prefers_tight_fit() {
        let (cands, by_row) = candidates(&[30_000, 1_100]);
        let ctx = PlacementContext {
            candidates: &cands,
            by_row: &by_row,
            row_headroom: &[],
            max_free: max_free(&cands),
        };
        let mut rng = derive_stream(3, 3);
        let mut p = BestFit::default();
        let mut tight = 0;
        for _ in 0..50 {
            if p.place(&job(1_000), &ctx, &mut rng) == Some(1) {
                tight += 1;
            }
        }
        assert!(tight >= 48, "tight = {tight}");
    }

    #[test]
    fn power_spread_follows_headroom() {
        // Row 1 has all the headroom; candidates split across two rows.
        let mut cands = Vec::new();
        for i in 0..10u64 {
            cands.push(Candidate {
                id: ServerId::new(i),
                row: RowId::new(if i < 5 { 0 } else { 1 }),
                free: Resources::new(32_000, 100_000),
                utilization: 0.0,
            });
        }
        let by_row = vec![(0..5).collect::<Vec<_>>(), (5..10).collect::<Vec<_>>()];
        let ctx = PlacementContext {
            candidates: &cands,
            by_row: &by_row,
            row_headroom: &[0.01, 0.5],
            max_free: max_free(&cands),
        };
        let mut rng = derive_stream(4, 3);
        let mut p = PowerSpread::default();
        let mut row1 = 0;
        for _ in 0..200 {
            let idx = p.place(&job(1_000), &ctx, &mut rng).unwrap();
            if cands[idx].row == RowId::new(1) {
                row1 += 1;
            }
        }
        // headroom^2 ratio is 2500:1, so row 1 dominates.
        assert!(row1 >= 190, "row1 = {row1}");
    }
}
