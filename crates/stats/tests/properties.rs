//! Property-based tests for the statistics primitives.

use ampere_sim::check::{cases, Gen};

use ampere_stats::quantile::{quantile_sorted, TopTail};
use ampere_stats::timeseries::rolling_max;
use ampere_stats::{
    cdf_points, first_differences, linear_fit_through_origin, pearson, percentile, resample_max,
    Cdf, Summary,
};

use std::ops::Range;

fn finite_vec(g: &mut Gen, len: Range<usize>) -> Vec<f64> {
    g.vec_f64(-1e6..1e6, len)
}

#[test]
fn cdf_is_monotone_and_bounded() {
    cases(96, |g| {
        let sample = finite_vec(g, 1..200);
        let cdf = Cdf::new(sample).unwrap();
        let lo = cdf.min();
        let hi = cdf.max();
        assert_eq!(cdf.eval(lo - 1.0), 0.0);
        assert_eq!(cdf.eval(hi), 1.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let f = cdf.eval(x);
            assert!(f >= prev - 1e-15);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    });
}

#[test]
fn quantile_is_monotone_and_within_range() {
    cases(96, |g| {
        let cdf = Cdf::new(finite_vec(g, 1..200)).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = cdf.quantile(q);
            assert!(v >= prev);
            assert!(v >= cdf.min() && v <= cdf.max());
            prev = v;
        }
    });
}

#[test]
fn quantile_cdf_galois_inequality() {
    cases(96, |g| {
        // For the interpolating (type-7) estimator the provable inverse
        // relation is: the q-quantile sits at or above the
        // ⌊q·(n−1)⌋-th order statistic, so at least (⌊q·(n−1)⌋ + 1)/n of
        // the sample lies at or below it.
        let cdf = Cdf::new(finite_vec(g, 2..100)).unwrap();
        let q = g.f64(0.0..1.0);
        let n = cdf.len() as f64;
        let x = cdf.quantile(q);
        let lower = ((q * (n - 1.0)).floor() + 1.0) / n;
        assert!(
            cdf.eval(x) >= lower - 1e-12,
            "F({x}) = {} < {lower}",
            cdf.eval(x)
        );
    });
}

#[test]
fn percentile_agrees_with_min_max() {
    cases(96, |g| {
        let sample = finite_vec(g, 1..100);
        let sorted = {
            let mut s = sample.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        assert_eq!(percentile(&sample, 0.0).unwrap(), sorted[0]);
        assert_eq!(percentile(&sample, 100.0).unwrap(), *sorted.last().unwrap());
        assert_eq!(
            quantile_sorted(&sorted, 0.5),
            percentile(&sample, 50.0).unwrap()
        );
    });
}

/// The quantiles a bounded tail answers in the p99.9 latency model.
const TAIL_QS: [f64; 3] = [0.99, 0.999, 1.0];

/// `sample` pushed through a tail that keeps `keep`, then read at
/// [`TAIL_QS`]; `None` if the tail is too short.
fn tail_quantiles(sample: &[f64], keep: usize) -> Option<[f64; 3]> {
    let mut tail = TopTail::new(keep);
    for &v in sample {
        tail.push(v);
    }
    tail.quantiles(sample.len(), TAIL_QS)
}

fn assert_sorted_quantiles(sample: &[f64], got: [f64; 3]) {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (q, v) in TAIL_QS.into_iter().zip(got) {
        let want = quantile_sorted(&sorted, q);
        assert_eq!(v.to_bits(), want.to_bits(), "q={q}: {v} vs {want}");
    }
}

#[test]
fn selected_quantiles_equal_sorted_quantiles_bit_for_bit() {
    let check = |sample: Vec<f64>, keep: usize| {
        let n = sample.len();
        match tail_quantiles(&sample, keep) {
            Some(got) => assert_sorted_quantiles(&sample, got),
            // Below `2 * keep` points nothing is pruned, and a tail kept
            // for the quantile's rank reaches it.
            None => assert!(
                n >= 2 * keep && keep < TopTail::keep_for(TAIL_QS[0], n),
                "no answer from a tail keeping {keep} of {n}"
            ),
        }
    };
    cases(96, |g| {
        // Few distinct values over many points: long runs of ties
        // straddle every bracketing rank and the floor.
        let distinct = g.usize(1..8);
        let ties = g.vec_with(1..3000, |g| g.usize(0..distinct) as f64 * 0.25);
        for sample in [ties, finite_vec(g, 1..3000)] {
            let n = sample.len();
            let keep = g.usize(1..64);
            check(sample.clone(), keep);
            check(sample.clone(), TopTail::keep_for(TAIL_QS[0], n));
            if n >= 2 * keep {
                // The last push prunes to exactly `keep` values.
                check(sample[..2 * keep].to_vec(), keep);
            }
            check(sample, n);
        }
    });
    check(vec![3.5], 1);
    check(vec![2.0, -1.0], 1);
    check(vec![4.0, 4.0], 1);
}

#[test]
fn tail_edges_prune_exactly_and_report_a_short_tail() {
    let ascending: Vec<f64> = (0..300).map(f64::from).collect();
    // Fewer than `2 * keep` points: nothing is pruned, so any keep
    // answers.
    for keep in [6, 10, 299] {
        assert_sorted_quantiles(
            &ascending[..10],
            tail_quantiles(&ascending[..10], keep).unwrap(),
        );
    }
    // Exactly `2 * keep` points: the last push prunes to `keep`, which
    // answers p99 from 4 points on.
    for keep in 2..40 {
        let sample = &ascending[..2 * keep];
        assert_sorted_quantiles(sample, tail_quantiles(sample, keep).unwrap());
    }
    // Two points pruned to one: p99 interpolates between both.
    assert_eq!(tail_quantiles(&ascending[..2], 1), None);
    // Pruned to 3 on the 300th push; p99 reads the 4th-largest.
    assert_eq!(TopTail::keep_for(0.99, 300), 4);
    assert_eq!(tail_quantiles(&ascending, 3), None);
    assert_sorted_quantiles(&ascending, tail_quantiles(&ascending, 4).unwrap());
    // A descending sample is pruned once and then drops every push.
    let descending: Vec<f64> = ascending.iter().rev().copied().collect();
    assert_sorted_quantiles(&descending, tail_quantiles(&descending, 4).unwrap());
}

#[test]
fn cdf_points_are_a_staircase() {
    cases(96, |g| {
        let sample = finite_vec(g, 1..100);
        let pts = cdf_points(&sample);
        assert_eq!(pts.len(), sample.len());
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    });
}

#[test]
fn summary_matches_naive() {
    cases(96, |g| {
        let sample = finite_vec(g, 2..200);
        let s = Summary::from_slice(&sample);
        let n = sample.len() as f64;
        let mean = sample.iter().sum::<f64>() / n;
        let var = sample.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        assert!((s.mean().unwrap() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        assert!((s.variance().unwrap() - var).abs() < 1e-4 * var.abs().max(1.0));
    });
}

/// (a+b)+c == a+(b+c) up to floating error.
#[test]
fn summary_merge_is_associative_enough() {
    cases(96, |g| {
        let a = finite_vec(g, 1..50);
        let b = finite_vec(g, 1..50);
        let c = finite_vec(g, 1..50);
        let mut ab = Summary::from_slice(&a);
        ab.merge(&Summary::from_slice(&b));
        let mut ab_c = ab.clone();
        ab_c.merge(&Summary::from_slice(&c));

        let mut bc = Summary::from_slice(&b);
        bc.merge(&Summary::from_slice(&c));
        let mut a_bc = Summary::from_slice(&a);
        a_bc.merge(&bc);

        assert_eq!(ab_c.count(), a_bc.count());
        let m1 = ab_c.mean().unwrap();
        let m2 = a_bc.mean().unwrap();
        assert!((m1 - m2).abs() < 1e-6 * m1.abs().max(1.0));
    });
}

#[test]
fn pearson_is_symmetric_and_bounded() {
    cases(96, |g| {
        let x = finite_vec(g, 3..50);
        let y = finite_vec(g, 3..50);
        let n = x.len().min(y.len());
        if let Some(r) = pearson(&x[..n], &y[..n]) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&y[..n], &x[..n]).unwrap();
            assert!((r - r2).abs() < 1e-12);
        }
    });
}

#[test]
fn pearson_invariant_under_affine() {
    cases(96, |g| {
        let x = finite_vec(g, 3..50);
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        if let Some(r) = pearson(&x, &y) {
            assert!((r - 1.0).abs() < 1e-6, "r = {r}");
        }
    });
}

#[test]
fn through_origin_fit_recovers_slope() {
    cases(96, |g| {
        let xs = g.vec_f64(0.01..100.0, 2..50);
        let slope = g.f64(-10.0..10.0);
        let ys: Vec<f64> = xs.iter().map(|x| slope * x).collect();
        let fit = linear_fit_through_origin(&xs, &ys).unwrap();
        assert!((fit.slope - slope).abs() < 1e-6 * slope.abs().max(1.0));
    });
}

#[test]
fn resample_max_dominates_and_shrinks() {
    cases(96, |g| {
        let series = finite_vec(g, 1..200);
        let k = g.usize(1..20);
        let out = resample_max(&series, k);
        assert_eq!(out.len(), series.len().div_ceil(k));
        // Every output is the max of its block.
        for (i, chunk) in series.chunks(k).enumerate() {
            let m = chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(out[i], m);
        }
    });
}

#[test]
fn first_differences_telescope() {
    cases(96, |g| {
        let series = finite_vec(g, 2..100);
        let d = first_differences(&series);
        let total: f64 = d.iter().sum();
        let direct = series.last().unwrap() - series.first().unwrap();
        assert!((total - direct).abs() < 1e-6 * direct.abs().max(1.0));
    });
}

#[test]
fn rolling_max_bounds_input() {
    cases(96, |g| {
        let series = finite_vec(g, 1..100);
        let w = g.usize(1..20);
        let out = rolling_max(&series, w);
        for (i, (&v, &m)) in series.iter().zip(&out).enumerate() {
            assert!(m >= v);
            let start = i.saturating_sub(w - 1);
            let true_max = series[start..=i]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(m, true_max);
        }
    });
}
