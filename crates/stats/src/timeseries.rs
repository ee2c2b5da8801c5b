//! Time-series transforms used by the paper's characterization figures.
//!
//! Fig 9 plots the CDF of row-power changes at several time scales: "for
//! the k-minute scale, we compute a sequence of the maximum power for
//! every k minutes, and then plot the CDF of the first order differences
//! of the power sequence". [`resample_max`] and [`first_differences`]
//! implement exactly that pipeline.

/// Resamples a series into blocks of `k` consecutive points, keeping the
/// maximum of each block. A trailing partial block is kept (its max over
/// the remaining points), matching how an operator would summarize a
/// trace that does not divide evenly.
///
/// Returns an empty vector if `k == 0` or the input is empty.
pub fn resample_max(series: &[f64], k: usize) -> Vec<f64> {
    if k == 0 || series.is_empty() {
        return Vec::new();
    }
    series
        .chunks(k)
        .map(|chunk| chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect()
}

/// First-order differences `x[i+1] - x[i]`.
pub fn first_differences(series: &[f64]) -> Vec<f64> {
    series.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Rolling maximum over a window of `w` points (inclusive of the current
/// point). The first `w-1` outputs use the shorter available prefix.
pub fn rolling_max(series: &[f64], w: usize) -> Vec<f64> {
    if w == 0 {
        return Vec::new();
    }
    (0..series.len())
        .map(|i| {
            let start = i.saturating_sub(w - 1);
            series[start..=i]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_max_blocks() {
        let s = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert_eq!(resample_max(&s, 2), vec![3.0, 5.0, 4.0]);
        assert_eq!(resample_max(&s, 1), s.to_vec());
        assert_eq!(resample_max(&s, 10), vec![5.0]);
        assert!(resample_max(&s, 0).is_empty());
        assert!(resample_max(&[], 3).is_empty());
    }

    #[test]
    fn diffs() {
        assert_eq!(first_differences(&[1.0, 4.0, 2.0]), vec![3.0, -2.0]);
        assert!(first_differences(&[1.0]).is_empty());
        assert!(first_differences(&[]).is_empty());
    }

    #[test]
    fn rolling_max_window() {
        let s = [1.0, 3.0, 2.0, 0.0, 4.0];
        assert_eq!(rolling_max(&s, 2), vec![1.0, 3.0, 3.0, 2.0, 4.0]);
        assert_eq!(rolling_max(&s, 1), s.to_vec());
        assert!(rolling_max(&s, 0).is_empty());
    }

    #[test]
    fn fig9_pipeline_shape() {
        // A longer resampling scale must produce no more points and its
        // differences reflect coarser moves.
        let series: Vec<f64> = (0..240).map(|i| (i as f64 / 12.0).sin()).collect();
        let d1 = first_differences(&resample_max(&series, 1));
        let d20 = first_differences(&resample_max(&series, 20));
        assert!(d20.len() < d1.len());
        let max1 = d1.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        let max20 = d20.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(max20 >= max1);
    }
}
