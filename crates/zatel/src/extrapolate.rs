//! Extrapolation of group predictions to the full workload
//! (paper Sections III-G and IV-F): linear scaling by the traced fraction,
//! or an exponential regression over three measured percentages.

use gpusim::Metric;

/// Error from fitting an extrapolation model.
#[derive(Debug, Clone, PartialEq)]
pub struct FitError {
    reason: String,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regression fit failed: {}", self.reason)
    }
}

impl std::error::Error for FitError {}

/// Extrapolates a metric to 100 % from each group's measured
/// `(value, traced fraction)`: per-group [`Metric::extrapolate`] scaling,
/// then the Section III-H combine rule.
pub(crate) fn linear_to_full(metric: Metric, per_group: impl Iterator<Item = (f64, f64)>) -> f64 {
    let full: Vec<f64> = per_group
        .map(|(value, fraction)| metric.extrapolate(value, fraction))
        .collect();
    metric.combine(&full)
}

/// The exponential regression model of Section IV-F:
/// `y(f) = a + b·exp(c·f)`, fitted to three samples at equally spaced
/// traced fractions (the paper uses 20 %, 30 % and 40 %), then evaluated
/// at `f = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpRegression {
    /// Offset term.
    pub a: f64,
    /// Amplitude term.
    pub b: f64,
    /// Exponent rate.
    pub c: f64,
}

impl ExpRegression {
    /// Fits the model exactly through three points with equally spaced
    /// abscissae.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the abscissae are not strictly increasing
    /// and equally spaced, or if the data does not admit an exponential
    /// solution (ratio of successive differences non-positive); callers
    /// should fall back to a linear fit in that case, as the paper's
    /// implementation effectively degrades to its baseline.
    pub fn fit(points: &[(f64, f64); 3]) -> Result<ExpRegression, FitError> {
        let [(f1, y1), (f2, y2), (f3, y3)] = *points;
        let h1 = f2 - f1;
        let h2 = f3 - f2;
        if h1 <= 0.0 || h2 <= 0.0 || (h1 - h2).abs() > 1e-9 {
            return Err(FitError {
                reason: format!("abscissae must be equally spaced ascending: {f1}, {f2}, {f3}"),
            });
        }
        let d1 = y2 - y1;
        let d2 = y3 - y2;
        if d1.abs() < 1e-12 && d2.abs() < 1e-12 {
            // Perfectly flat: a constant model.
            return Ok(ExpRegression {
                a: y1,
                b: 0.0,
                c: 0.0,
            });
        }
        let r = d2 / d1;
        if !(r.is_finite() && r > 0.0) || (r - 1.0).abs() < 1e-9 {
            return Err(FitError {
                reason: format!("difference ratio {r} not exponential"),
            });
        }
        let c = r.ln() / h1;
        let b = d1 / ((c * f2).exp() - (c * f1).exp());
        let a = y1 - b * (c * f1).exp();
        Ok(ExpRegression { a, b, c })
    }

    /// Evaluates the fitted model at traced fraction `f`.
    pub fn predict(&self, f: f64) -> f64 {
        self.a + self.b * (self.c * f).exp()
    }
}

/// Least-squares straight line through `points`, evaluated at `f`.
/// The degenerate-fit fallback for [`ExpRegression`].
pub(crate) fn linear_fit(points: &[(f64, f64)], f: f64) -> f64 {
    assert!(!points.is_empty(), "need at least one point");
    let (intercept, slope) = crate::metrics::fit_line(points);
    intercept + slope * f
}

/// Extrapolates a metric to 100 % from three `(fraction, value)` samples
/// using exponential regression, falling back to a least-squares line when
/// the data is not exponential.
pub(crate) fn regression_to_full(points: &[(f64, f64); 3]) -> f64 {
    match ExpRegression::fit(points) {
        Ok(model) => model.predict(1.0),
        Err(_) => linear_fit(points, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_fit_recovers_known_model() {
        let truth = ExpRegression {
            a: 5.0,
            b: 2.0,
            c: -3.0,
        };
        let pts = [
            (0.2, truth.predict(0.2)),
            (0.3, truth.predict(0.3)),
            (0.4, truth.predict(0.4)),
        ];
        let fit = ExpRegression::fit(&pts).expect("fit must succeed");
        assert!((fit.a - truth.a).abs() < 1e-6);
        assert!((fit.b - truth.b).abs() < 1e-6);
        assert!((fit.c - truth.c).abs() < 1e-6);
        assert!((fit.predict(1.0) - truth.predict(1.0)).abs() < 1e-6);
    }

    #[test]
    fn flat_data_yields_constant() {
        let fit = ExpRegression::fit(&[(0.2, 7.0), (0.3, 7.0), (0.4, 7.0)]).unwrap();
        assert_eq!(fit.predict(1.0), 7.0);
    }

    #[test]
    fn non_exponential_data_is_rejected() {
        // Alternating signs of differences: no exponential solution.
        assert!(ExpRegression::fit(&[(0.2, 1.0), (0.3, 2.0), (0.4, 1.5)]).is_err());
        // Uneven spacing.
        assert!(ExpRegression::fit(&[(0.2, 1.0), (0.35, 2.0), (0.4, 3.0)]).is_err());
    }

    #[test]
    fn regression_to_full_falls_back_to_line() {
        // Perfectly linear data has ratio exactly 1 → exponential fit
        // rejected → straight line continues it.
        let v = regression_to_full(&[(0.2, 2.0), (0.3, 3.0), (0.4, 4.0)]);
        assert!((v - 10.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_handles_vertical_degeneracy() {
        let v = linear_fit(&[(0.5, 2.0), (0.5, 4.0)], 1.0);
        assert_eq!(v, 3.0, "same-x points average");
    }

    #[test]
    fn error_display_is_informative() {
        let err = ExpRegression::fit(&[(0.4, 1.0), (0.3, 2.0), (0.2, 3.0)]).unwrap_err();
        assert!(err.to_string().contains("regression fit failed"));
    }
}
