//! Finite/domain guards for public model entry points.
//!
//! The workspace chains analytical models (device I–V → circuit power →
//! thermal fixed point → IR-drop solve); one NaN or Inf entering the
//! chain silently corrupts every downstream table. The guards here turn
//! non-finite or out-of-range inputs into a typed [`NonFinite`] error at
//! the API boundary, before the value can propagate. Every model crate
//! wraps [`NonFinite`] in its own error enum, so callers keep one match
//! arm per failure class.
//!
//! # Examples
//!
//! ```
//! use np_units::guard;
//!
//! assert!(guard::finite(1.5, "Vdd", "Mosfet::ion").is_ok());
//! let err = guard::finite(f64::NAN, "Vdd", "Mosfet::ion").unwrap_err();
//! assert_eq!(err.quantity, "Vdd");
//! assert!(format!("{err}").contains("Mosfet::ion"));
//! ```

use std::fmt;

/// A quantity reaching a public model API was NaN, infinite, or outside
/// its physical domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFinite {
    /// Name of the offending quantity (e.g. `"Vdd"`).
    pub quantity: &'static str,
    /// The value as received (NaN, ±Inf, or the out-of-range number).
    pub value: f64,
    /// The entry point that rejected it (e.g. `"Mosfet::ion"`).
    pub context: &'static str,
}

impl fmt::Display for NonFinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} is not a usable number (got {})",
            self.context, self.quantity, self.value
        )
    }
}

impl std::error::Error for NonFinite {}

/// Accepts any finite value.
///
/// # Errors
///
/// [`NonFinite`] when `value` is NaN or infinite.
pub fn finite(value: f64, quantity: &'static str, context: &'static str) -> Result<f64, NonFinite> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(NonFinite {
            quantity,
            value,
            context,
        })
    }
}

/// Accepts finite, strictly positive values.
///
/// # Errors
///
/// [`NonFinite`] when `value` is NaN, infinite, zero, or negative.
pub fn finite_positive(
    value: f64,
    quantity: &'static str,
    context: &'static str,
) -> Result<f64, NonFinite> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(NonFinite {
            quantity,
            value,
            context,
        })
    }
}

/// Accepts finite, non-negative values (zero allowed).
///
/// # Errors
///
/// [`NonFinite`] when `value` is NaN, infinite, or negative.
pub fn finite_non_negative(
    value: f64,
    quantity: &'static str,
    context: &'static str,
) -> Result<f64, NonFinite> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(NonFinite {
            quantity,
            value,
            context,
        })
    }
}

/// Accepts a slice in which every element is finite; returns the index
/// and value of the first offender otherwise.
///
/// # Errors
///
/// [`NonFinite`] (carrying the offending element's value) when any
/// element is NaN or infinite.
pub fn all_finite(
    values: &[f64],
    quantity: &'static str,
    context: &'static str,
) -> Result<(), NonFinite> {
    match values.iter().find(|v| !v.is_finite()) {
        None => Ok(()),
        Some(&value) => Err(NonFinite {
            quantity,
            value,
            context,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_accepts_and_rejects() {
        assert_eq!(finite(0.0, "x", "t"), Ok(0.0));
        assert_eq!(finite(-1e300, "x", "t"), Ok(-1e300));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = finite(bad, "x", "t").unwrap_err();
            assert_eq!(err.quantity, "x");
            assert_eq!(err.context, "t");
        }
    }

    #[test]
    fn positive_rejects_zero_and_negative() {
        assert!(finite_positive(1e-300, "x", "t").is_ok());
        assert!(finite_positive(0.0, "x", "t").is_err());
        assert!(finite_positive(-1.0, "x", "t").is_err());
        assert!(finite_positive(f64::INFINITY, "x", "t").is_err());
    }

    #[test]
    fn non_negative_admits_zero() {
        assert!(finite_non_negative(0.0, "x", "t").is_ok());
        assert!(finite_non_negative(-0.1, "x", "t").is_err());
        assert!(finite_non_negative(f64::NAN, "x", "t").is_err());
    }

    #[test]
    fn all_finite_reports_first_offender() {
        assert!(all_finite(&[1.0, 2.0], "inj", "t").is_ok());
        assert!(all_finite(&[], "inj", "t").is_ok());
        let err = all_finite(&[1.0, f64::NAN, f64::INFINITY], "inj", "t").unwrap_err();
        assert!(err.value.is_nan());
    }

    #[test]
    fn display_names_quantity_and_context() {
        let e = NonFinite {
            quantity: "Vdd",
            value: f64::NAN,
            context: "Mosfet::ion",
        };
        let s = format!("{e}");
        assert!(s.contains("Vdd") && s.contains("Mosfet::ion"));
    }
}
