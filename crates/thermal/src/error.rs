//! Error type for thermal modeling.

use np_units::convergence::Convergence;
use np_units::guard::NonFinite;
use np_units::math::SolveError;
use std::fmt;

/// Error returned by thermal models and simulations.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A parameter is unphysical (documented in the message).
    BadParameter(&'static str),
    /// A numeric input was NaN, infinite, or outside its physical domain.
    NonFinite(NonFinite),
    /// The electro-thermal fixed point diverged — thermal runaway: leakage
    /// heating raises leakage faster than the package can shed it.
    ThermalRunaway {
        /// Temperature (°C) at which the iteration was abandoned.
        last_temp: f64,
        /// What the fixed-point iteration did before it was abandoned.
        diag: Convergence,
    },
    /// A numerical solve failed.
    Solve(SolveError),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::BadParameter(m) => write!(f, "bad parameter: {m}"),
            ThermalError::NonFinite(e) => write!(f, "bad input: {e}"),
            ThermalError::ThermalRunaway { last_temp, diag } => {
                write!(
                    f,
                    "thermal runaway: no stable junction temperature (reached {last_temp:.0} °C; {diag})"
                )
            }
            ThermalError::Solve(e) => write!(f, "thermal solve failed: {e}"),
        }
    }
}

impl std::error::Error for ThermalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThermalError::Solve(e) => Some(e),
            ThermalError::NonFinite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ThermalError {
    fn from(e: SolveError) -> Self {
        ThermalError::Solve(e)
    }
}

impl From<NonFinite> for ThermalError {
    fn from(e: NonFinite) -> Self {
        ThermalError::NonFinite(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_units::convergence::{Breakdown, ResidualTrace};

    #[test]
    fn display_variants() {
        assert!(format!("{}", ThermalError::BadParameter("x")).contains("bad parameter"));
        let mut trace = ResidualTrace::new();
        trace.record(4.0);
        let runaway = ThermalError::ThermalRunaway {
            last_temp: 160.0,
            diag: trace.diagnostic(Breakdown::DomainEscape {
                value: 260.0,
                bound: 250.0,
            }),
        };
        let s = format!("{runaway}");
        assert!(s.contains("runaway"), "{s}");
        assert!(s.contains("escaped"), "{s}");
        let bad: ThermalError = np_units::guard::finite(f64::NAN, "P", "t")
            .unwrap_err()
            .into();
        assert!(format!("{bad}").contains("bad input"));
    }
}
