//! Error metrics and curve fits used by the evaluation harness.

/// Relative absolute error `|predicted − reference| / |reference|`.
///
/// Returns `0.0` when both values are zero and `infinity` when only the
/// reference is zero (an unpredictable quantity).
pub fn abs_error(predicted: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - reference).abs() / reference.abs()
    }
}

/// Mean absolute error over a set of per-metric relative errors.
///
/// # Panics
///
/// Panics if `errors` is empty.
pub fn mae(errors: &[f64]) -> f64 {
    assert!(!errors.is_empty(), "MAE needs at least one error value");
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// A fitted power law `y = a · x^b` (the form of the paper's Eq. (4),
/// `speedup(perc) = 181 · perc^-1.15`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLaw {
    /// Coefficient `a`.
    pub a: f64,
    /// Exponent `b`.
    pub b: f64,
}

impl PowerLaw {
    /// Evaluates the law at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not positive.
    pub fn eval(&self, x: f64) -> f64 {
        assert!(x > 0.0, "power law defined for positive x");
        self.a * x.powf(self.b)
    }
}

/// Least-squares power-law fit in log–log space over strictly positive
/// `(x, y)` samples.
///
/// # Panics
///
/// Panics if fewer than two samples are given or any sample is
/// non-positive.
pub fn fit_power_law(points: &[(f64, f64)]) -> PowerLaw {
    assert!(points.len() >= 2, "power-law fit needs at least two points");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "power-law fit needs positive samples"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let (ln_a, b) = fit_line(&logs);
    PowerLaw { a: ln_a.exp(), b }
}

/// Least-squares line `y = intercept + slope · x` through `points`, as
/// `(intercept, slope)`, each sum taken in point order. When every `x` is
/// equal the slope is 0 and the intercept the mean `y`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    ((sy - slope * sx) / n, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_error_basics() {
        assert_eq!(abs_error(110.0, 100.0), 0.1);
        assert_eq!(abs_error(90.0, 100.0), 0.1);
        assert_eq!(abs_error(0.0, 0.0), 0.0);
        assert!(abs_error(1.0, 0.0).is_infinite());
        assert_eq!(abs_error(-5.0, -10.0), 0.5);
    }

    #[test]
    fn mae_averages() {
        assert!((mae(&[0.1, 0.2, 0.3]) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn mae_of_empty_panics() {
        mae(&[]);
    }

    #[test]
    fn power_law_fit_recovers_eq4() {
        // Synthesize samples from the paper's Eq. (4) and recover it.
        let truth = PowerLaw { a: 181.0, b: -1.15 };
        let pts: Vec<(f64, f64)> = (1..=9)
            .map(|i| {
                let x = i as f64 * 10.0;
                (x, truth.eval(x))
            })
            .collect();
        let fit = fit_power_law(&pts);
        assert!((fit.a - 181.0).abs() < 1e-6, "a = {}", fit.a);
        assert!((fit.b + 1.15).abs() < 1e-9, "b = {}", fit.b);
    }

    #[test]
    fn power_law_fit_tolerates_noise() {
        let pts = vec![(10.0, 13.0), (20.0, 6.4), (40.0, 3.1), (80.0, 1.6)];
        let fit = fit_power_law(&pts);
        assert!(fit.b < -0.8 && fit.b > -1.2, "roughly inverse: {}", fit.b);
        assert!((fit.eval(10.0) - 13.0).abs() / 13.0 < 0.15);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn power_law_rejects_nonpositive() {
        fit_power_law(&[(1.0, 1.0), (2.0, 0.0)]);
    }
}
