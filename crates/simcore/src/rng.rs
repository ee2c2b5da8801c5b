//! Deterministic random-number streams.
//!
//! Every stochastic component (arrival process, job durations, placement
//! tie-breaking, request service times) draws from its own *stream*
//! derived from one experiment seed. Independent streams keep components
//! decoupled: adding a draw in one component does not perturb another,
//! so ablation runs stay comparable.
//!
//! The generator is an in-repo xoshiro256++ (Blackman & Vigna), seeded
//! through SplitMix64 — no external crates, fully reproducible across
//! platforms, and fast enough that placement tie-breaking never shows up
//! in profiles.

use std::ops::{Range, RangeInclusive};
use std::sync::OnceLock;

/// The RNG used across the simulation: xoshiro256++ with SplitMix64
/// seeding. 256-bit state, period 2^256 − 1, passes BigCrush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut state);
        }
        // All-zero state is the one fixed point of xoshiro; SplitMix64
        // cannot produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Advances the generator and returns the next 64 raw bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, .., s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        self.s = step(self.s);
        result
    }

    /// Skips `n` outputs: leaves the generator exactly where `n` calls
    /// to [`SimRng::next_u64`] would, in O(log n) time.
    ///
    /// The state transition is linear over GF(2), so `n` steps are the
    /// bit matrix Tⁿ. The low 7 bits of `n` are stepped directly; each
    /// higher set bit `k` applies the precomputed T^(2^k), built on first
    /// use.
    pub fn advance(&mut self, n: u64) {
        for _ in 0..n & ((1 << DIRECT_BITS) - 1) {
            self.s = step(self.s);
        }
        let mut high = n >> DIRECT_BITS;
        if high == 0 {
            return;
        }
        let table = jump_table();
        while high != 0 {
            let k = high.trailing_zeros() as usize;
            self.s = apply(&table[k], self.s);
            high &= high - 1;
        }
    }

    /// Returns the next value of type `T` (`u64`/`u32`/`f64`/`bool`; `f64`
    /// is uniform in `[0, 1)` with 53 bits of precision).
    #[inline]
    pub fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Returns a uniform value in `range` (half-open `lo..hi` or
    /// inclusive `lo..=hi`, over the common integer types or `f64`).
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// One xoshiro256 state transition (the output function is separate).
#[inline]
fn step([s0, s1, s2, s3]: [u64; 4]) -> [u64; 4] {
    let t = s1 << 17;
    let mut s = [s0, s1, s2, s3];
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    s
}

/// Jump lengths below 2^`DIRECT_BITS` are stepped one by one: 127
/// steps cost about as much as one matrix application.
const DIRECT_BITS: u32 = 7;

/// A 256×256 bit matrix over GF(2), stored as its 256 columns: column
/// `i` is the image of state bit `i` (bit `i % 64` of word `i / 64`).
type BitMatrix = [[u64; 4]; 256];

/// Multiplies `m` by the state vector `v`: the XOR of the columns
/// selected by `v`'s set bits.
fn apply(m: &BitMatrix, v: [u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (w, &word) in v.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let col = &m[w * 64 + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

/// T^(2^(k + DIRECT_BITS)) for every `k` a `u64` jump can need
/// (57 matrices, 456 KiB), built once by repeated squaring.
fn jump_table() -> &'static [BitMatrix] {
    static TABLE: OnceLock<Vec<BitMatrix>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut m: BitMatrix = [[0; 4]; 256];
        for (i, col) in m.iter_mut().enumerate() {
            let mut s = [0u64; 4];
            s[i / 64] = 1 << (i % 64);
            for _ in 0..1u32 << DIRECT_BITS {
                s = step(s);
            }
            *col = s;
        }
        let levels = (u64::BITS - DIRECT_BITS) as usize;
        let mut table = Vec::with_capacity(levels);
        table.push(m);
        while table.len() < levels {
            let prev = table.last().expect("seeded with T^(2^DIRECT_BITS)");
            let mut sq: BitMatrix = [[0; 4]; 256];
            for (col, &p) in sq.iter_mut().zip(prev.iter()) {
                *col = apply(prev, p);
            }
            table.push(sq);
        }
        table
    })
}

/// Types [`SimRng::gen`] can produce.
pub trait Random {
    fn random(rng: &mut SimRng) -> Self;
}

impl Random for u64 {
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for usize {
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Random for bool {
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`SimRng::gen_range`] can sample from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

/// Uniform integer in `[0, span)` via Lemire's widening multiply. The
/// modulo bias is below `span / 2^64` — unmeasurable at simulation scale.
#[inline]
fn uniform_below(rng: &mut SimRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

/// Derives an independent RNG stream from `(seed, stream_id)`.
///
/// The derivation mixes the pair through SplitMix64 so that nearby seeds
/// and stream ids still produce well-separated states.
pub fn derive_stream(seed: u64, stream_id: u64) -> SimRng {
    let mut state = seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Burn one output so (seed, id) pairs with equal xor differ anyway,
    // then seed the full 256-bit state.
    let mixed = splitmix64(&mut state);
    SimRng::seed_from_u64(mixed ^ stream_id)
}

/// Derives a sub-seed for an indexed unit of parallel work (a row-domain
/// shard, a chaos-grid cell, one run of a sweep).
///
/// The parallel engine partitions one experiment seed into per-shard
/// sub-seeds; each shard then derives its usual component streams
/// (`derive_stream(sub_seed, streams::…)`) from its own sub-seed. The
/// layout is two-level so the draw sequences of a shard depend only on
/// `(seed, stream_id, index)` — never on worker count or shard count —
/// which is what makes parallel runs byte-identical to serial ones.
///
/// The mix runs `(seed, stream_id, index)` through three dependent
/// SplitMix64 steps, so nearby indices and stream ids land in
/// well-separated regions of the state space.
pub fn derive_subseed(seed: u64, stream_id: u64, index: u64) -> u64 {
    let mut state = seed;
    let a = splitmix64(&mut state);
    state = a ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let b = splitmix64(&mut state);
    state = b ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    splitmix64(&mut state)
}

/// Derives an independent RNG for an indexed unit of parallel work:
/// shorthand for seeding from [`derive_subseed`].
pub fn derive_substream(seed: u64, stream_id: u64, index: u64) -> SimRng {
    SimRng::seed_from_u64(derive_subseed(seed, stream_id, index))
}

/// One step of the SplitMix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Well-known stream ids, one per stochastic component.
pub mod streams {
    /// Batch job arrival process.
    pub const ARRIVALS: u64 = 1;
    /// Batch job durations and resource demands.
    pub const JOB_SHAPE: u64 = 2;
    /// Scheduler placement tie-breaking.
    pub const PLACEMENT: u64 = 3;
    /// Interactive request generation.
    pub const REQUESTS: u64 = 4;
    /// Per-server power measurement noise.
    pub const POWER_NOISE: u64 = 5;
    /// Workload profile perturbations (diurnal noise).
    pub const PROFILE: u64 = 6;
    /// Fault injection: per-server sample dropout draws.
    pub const FAULT_DROPOUT: u64 = 7;
    /// Fault injection: extra sensor noise and bias.
    pub const FAULT_SENSOR: u64 = 8;
    /// Fault injection: lost freeze/unfreeze RPCs.
    pub const FAULT_RPC: u64 = 9;
    /// Fault injection: whole-sweep loss and outage placement.
    pub const FAULT_OUTAGE: u64 = 10;
    /// Parallel engine: per-shard sub-seed derivation
    /// ([`derive_subseed`](super::derive_subseed) with the shard index).
    pub const SHARD: u64 = 11;
    /// Parallel engine: per-run sub-seed derivation for experiment
    /// fan-out (chaos cells, ablation variants, sweep points).
    pub const RUN: u64 = 12;
    /// Scenario harness: per-scenario seed derivation in a batch, and
    /// a scenario's internal sub-streams (fault-plan seed, axis draws).
    pub const SCENARIO: u64 = 13;
    // 14 is retired. Ids are never reused or renumbered, so every
    // stream keeps its realization.
    /// Fault injection: lost budget-grant RPCs and arbiter outage
    /// accounting (the two-level controller's fault domain).
    pub const FAULT_GRANT: u64 = 15;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = derive_stream(42, streams::ARRIVALS);
        let mut b = derive_stream(42, streams::ARRIVALS);
        let xs: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = derive_stream(42, 1);
        let mut b = derive_stream(42, 2);
        let xs: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = derive_stream(1, 1);
        let mut b = derive_stream(2, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn stream_output_roughly_uniform() {
        // Weak sanity check: mean of u01 draws near 0.5.
        let mut rng = derive_stream(7, 3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn unit_floats_in_half_open_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let a = rng.gen_range(3..17u32);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(5..=5u64);
            assert_eq!(b, 5);
            let c = rng.gen_range(0..9usize);
            assert!(c < 9);
            let d = rng.gen_range(-2.0..=2.0f64);
            assert!((-2.0..=2.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_hits_every_bucket() {
        let mut rng = SimRng::seed_from_u64(13);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "some buckets never drawn: {seen:?}"
        );
    }

    #[test]
    fn subseeds_are_deterministic_and_separated() {
        // Same inputs reproduce; any coordinate change diverges.
        assert_eq!(
            derive_subseed(42, streams::SHARD, 3),
            derive_subseed(42, streams::SHARD, 3)
        );
        let base = derive_subseed(42, streams::SHARD, 3);
        assert_ne!(base, derive_subseed(43, streams::SHARD, 3));
        assert_ne!(base, derive_subseed(42, streams::RUN, 3));
        assert_ne!(base, derive_subseed(42, streams::SHARD, 4));
        // Swapping stream id and index is not symmetric.
        assert_ne!(
            derive_subseed(42, 5, 7),
            derive_subseed(42, 7, 5),
            "stream/index must not commute"
        );
    }

    #[test]
    fn substreams_do_not_collide_across_indices() {
        // 256 shards of the same experiment: first draws all distinct.
        let mut seen = std::collections::HashSet::new();
        for index in 0..256 {
            let mut rng = derive_substream(42, streams::SHARD, index);
            assert!(seen.insert(rng.next_u64()), "collision at index {index}");
        }
    }

    #[test]
    fn substream_independent_of_sibling_count() {
        // Shard 2's draws are a pure function of (seed, stream, index):
        // deriving shards 0..4 or 0..64 does not change shard 2.
        let draws = |total: u64| -> Vec<u64> {
            let mut rngs: Vec<SimRng> = (0..total)
                .map(|i| derive_substream(7, streams::SHARD, i))
                .collect();
            (0..5).map(|_| rngs[2].next_u64()).collect()
        };
        assert_eq!(draws(4), draws(64));
    }

    fn stepped(mut rng: SimRng, n: u64) -> SimRng {
        for _ in 0..n {
            rng.next_u64();
        }
        rng
    }

    fn advanced(mut rng: SimRng, n: u64) -> SimRng {
        rng.advance(n);
        rng
    }

    #[test]
    fn advance_equals_repeated_next_u64() {
        let mut pick = SimRng::seed_from_u64(99);
        let random_n = pick.gen_range(0..1u64 << 24);
        for seed in [0, 1, 42, 0xDEAD_BEEF] {
            let rng = SimRng::seed_from_u64(seed);
            for n in [0, 1, 127, 128, 129, 33 * 50_000, random_n] {
                assert_eq!(
                    advanced(rng.clone(), n),
                    stepped(rng.clone(), n),
                    "seed {seed}, n {n}"
                );
            }
        }
    }

    #[test]
    fn advance_composes_additively() {
        let half = u64::MAX / 2;
        let pairs = [
            (1 << 40, 3 << 38),
            (half, 1),
            (half, half),
            (half - 12_345, 12_345 + 127),
            (0xF0F0_F0F0_F0F0, 0x0F0F_0F0F_0F0F),
        ];
        for seed in [3, 7, 1_000_003] {
            let rng = SimRng::seed_from_u64(seed);
            for (a, b) in pairs {
                let mut split = rng.clone();
                split.advance(a);
                split.advance(b);
                assert_eq!(split, advanced(rng.clone(), a + b), "seed {seed}, {a}+{b}");
                // The result must be a real jump, not a no-op.
                assert_ne!(split, rng);
            }
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from the canonical C code with
        // state seeded to [1, 2, 3, 4].
        let mut rng = SimRng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![41943041, 58720359, 3588806011781223, 3591011842654386],
        );
    }
}
