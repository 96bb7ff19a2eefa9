//! Root finding, grids, and scalar minimization.
//!
//! The compact device models in [`np-device`] are smooth, monotone functions
//! of their arguments, so robust bracketing methods (bisection, golden
//! section) are sufficient and deterministic.
//!
//! [`np-device`]: https://docs.rs/np-device

use std::fmt;

/// Error returned by the numerical routines in this module.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The supplied interval does not bracket a root (`f(lo)` and `f(hi)`
    /// have the same sign).
    NoBracket {
        /// Lower bound of the supplied interval.
        lo: f64,
        /// Upper bound of the supplied interval.
        hi: f64,
        /// `f(lo)`.
        f_lo: f64,
        /// `f(hi)`.
        f_hi: f64,
    },
    /// The iteration budget was exhausted before meeting the tolerance.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Best estimate at exhaustion.
        best: f64,
    },
    /// The function returned a non-finite value during the solve.
    NonFinite {
        /// The argument at which the evaluation failed.
        at: f64,
    },
    /// The arguments are malformed (e.g. `lo >= hi`, non-positive
    /// tolerance).
    BadArguments(&'static str),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoBracket { lo, hi, f_lo, f_hi } => write!(
                f,
                "interval [{lo}, {hi}] does not bracket a root (f(lo)={f_lo}, f(hi)={f_hi})"
            ),
            SolveError::NoConvergence { iterations, best } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (best {best})"
                )
            }
            SolveError::NonFinite { at } => {
                write!(f, "function evaluated to a non-finite value at {at}")
            }
            SolveError::BadArguments(msg) => write!(f, "bad arguments: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Finds `x` in `[lo, hi]` with `f(x) = 0` by bisection.
///
/// The function must be continuous and the interval must bracket a sign
/// change. Converges to `|hi - lo| <= tol`.
///
/// # Errors
///
/// Returns [`SolveError::NoBracket`] when `f(lo)` and `f(hi)` share a sign,
/// [`SolveError::BadArguments`] for a malformed interval or tolerance, and
/// [`SolveError::NonFinite`] when the function misbehaves.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_units::math::SolveError> {
/// let root = np_units::math::bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12)?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64, SolveError> {
    if !(lo < hi) {
        return Err(SolveError::BadArguments("require lo < hi"));
    }
    if !(tol > 0.0) {
        return Err(SolveError::BadArguments("require tol > 0"));
    }
    let (mut lo, mut hi) = (lo, hi);
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if !f_lo.is_finite() {
        return Err(SolveError::NonFinite { at: lo });
    }
    if !f_hi.is_finite() {
        return Err(SolveError::NonFinite { at: hi });
    }
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(SolveError::NoBracket { lo, hi, f_lo, f_hi });
    }
    const MAX_ITERS: usize = 200;
    for _ in 0..MAX_ITERS {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if !f_mid.is_finite() {
            return Err(SolveError::NonFinite { at: mid });
        }
        if f_mid == 0.0 || (hi - lo) <= tol {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Err(SolveError::NoConvergence {
        iterations: MAX_ITERS,
        best: 0.5 * (lo + hi),
    })
}

/// Returns `n` evenly spaced points covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// let xs = np_units::math::linspace(0.0, 1.0, 5);
/// assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace requires at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n)
        .map(|i| if i == n - 1 { hi } else { lo + step * i as f64 })
        .collect()
}

/// Returns `n` logarithmically spaced points covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or either bound is non-positive.
///
/// # Examples
///
/// ```
/// let xs = np_units::math::logspace(0.01, 100.0, 5);
/// assert!((xs[2] - 1.0).abs() < 1e-12);
/// ```
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "logspace requires positive bounds");
    linspace(lo.ln(), hi.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).expect("solve");
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_decreasing_function() {
        let root = bisect(|x| 1.0 - x, 0.0, 5.0, 1e-12).expect("solve");
        assert!((root - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12), Ok(0.0));
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12), Ok(1.0));
    }

    #[test]
    fn bisect_rejects_non_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, SolveError::NoBracket { .. }));
    }

    #[test]
    fn bisect_rejects_bad_args() {
        assert!(matches!(
            bisect(|x| x, 1.0, 0.0, 1e-9),
            Err(SolveError::BadArguments(_))
        ));
        assert!(matches!(
            bisect(|x| x, 0.0, 1.0, 0.0),
            Err(SolveError::BadArguments(_))
        ));
    }

    #[test]
    fn bisect_detects_non_finite() {
        let err = bisect(|x| if x > 0.5 { f64::NAN } else { -1.0 }, 0.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, SolveError::NonFinite { .. }));
    }

    #[test]
    fn linspace_endpoints_exact() {
        let xs = linspace(0.1, 0.7, 7);
        assert_eq!(xs.len(), 7);
        assert_eq!(xs[0], 0.1);
        assert_eq!(xs[6], 0.7);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn linspace_rejects_single_point() {
        let _ = linspace(0.0, 1.0, 1);
    }

    #[test]
    fn logspace_is_geometric() {
        let xs = logspace(1.0, 1000.0, 4);
        for w in xs.windows(2) {
            assert!((w[1] / w[0] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_display() {
        let s = format!(
            "{}",
            SolveError::NoBracket {
                lo: 0.0,
                hi: 1.0,
                f_lo: 1.0,
                f_hi: 2.0
            }
        );
        assert!(s.contains("does not bracket"));
        assert!(format!("{}", SolveError::BadArguments("x")).contains("bad arguments"));
    }
}
