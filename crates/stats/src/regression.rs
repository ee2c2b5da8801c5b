//! Ordinary least squares linear regression.
//!
//! §3.4 of the paper fits the effect of the freezing ratio on row power
//! with a linear function `f(u) = kr * u`. Since `f(0) = 0` by
//! construction (no frozen servers ⇒ no control effect), the fit is
//! *through the origin*.

/// Result of a linear fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope. For the Ampere control model this is `kr`.
    pub slope: f64,
    /// Fitted intercept (0 for through-origin fits).
    pub intercept: f64,
    /// Coefficient of determination in `[−∞, 1]`; 1 is a perfect fit.
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Through-origin OLS fit `y = slope * x`. Returns `None` on degenerate
/// input (empty, non-finite, or all-zero `x`).
pub fn linear_fit_through_origin(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.is_empty() {
        return None;
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return None;
    }
    let sxx: f64 = x.iter().map(|a| a * a).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let slope = sxy / sxx;
    Some(finish_fit(x, y, slope))
}

/// Computes R² of the through-origin line `slope` against the data.
fn finish_fit(x: &[f64], y: &[f64], slope: f64) -> LinearFit {
    let n = y.len() as f64;
    let my = y.iter().sum::<f64>() / n;
    let ss_tot: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(&a, &b)| {
            let e = b - slope * a;
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    LinearFit {
        slope,
        intercept: 0.0,
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn through_origin_exact() {
        let x = [1.0, 2.0, 4.0];
        let y = [0.5, 1.0, 2.0];
        let fit = linear_fit_through_origin(&x, &y).unwrap();
        assert!((fit.slope - 0.5).abs() < 1e-12);
        assert_eq!(fit.intercept, 0.0);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_reasonable() {
        // y = 3x with deterministic +-0.1 noise.
        let x: Vec<f64> = (1..=20).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &a)| 3.0 * a + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let fit = linear_fit_through_origin(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 0.05, "slope = {}", fit.slope);
        assert!(fit.r_squared > 0.98);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(
            linear_fit_through_origin(&[1.0, 2.0], &[1.0, f64::NAN]),
            None
        );
        assert_eq!(linear_fit_through_origin(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(linear_fit_through_origin(&[], &[]), None);
        assert_eq!(linear_fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]), None);
    }
}
