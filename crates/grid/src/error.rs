//! Error type for power-distribution modeling.

use np_units::convergence::Convergence;
use np_units::guard::NonFinite;
use std::fmt;

/// Error returned by power-grid models and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A parameter is out of range (documented in the message).
    BadParameter(&'static str),
    /// A numeric input was NaN, infinite, or outside its physical domain.
    NonFinite(NonFinite),
    /// The drop budget cannot be met even with the widest permissible
    /// rail.
    Infeasible {
        /// Rail width (µm) at which the search gave up.
        width_um: f64,
    },
    /// The iterative mesh solver did not converge; the diagnostic says
    /// how it stopped (budget, breakdown, non-finite residual).
    NoConvergence {
        /// What the iteration did before giving up.
        diag: Convergence,
    },
}

impl GridError {}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::BadParameter(m) => write!(f, "bad parameter: {m}"),
            GridError::NonFinite(e) => write!(f, "bad input: {e}"),
            GridError::Infeasible { width_um } => {
                write!(f, "drop budget unreachable even at {width_um:.0} µm rails")
            }
            GridError::NoConvergence { diag } => {
                write!(f, "mesh solver stalled: {diag}")
            }
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::NonFinite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NonFinite> for GridError {
    fn from(e: NonFinite) -> Self {
        GridError::NonFinite(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_units::convergence::{Breakdown, ResidualTrace};

    #[test]
    fn display_variants() {
        assert!(format!("{}", GridError::BadParameter("x")).contains("bad parameter"));
        assert!(format!("{}", GridError::Infeasible { width_um: 10.0 }).contains("10"));
        let mut trace = ResidualTrace::new();
        trace.record(1e-3);
        let err = GridError::NoConvergence {
            diag: trace.diagnostic(Breakdown::IterationBudget),
        };
        let s = format!("{err}");
        assert!(s.contains("stalled"), "{s}");
        assert!(s.contains("iteration budget"), "{s}");
        let e: GridError = np_units::guard::finite(f64::NAN, "g", "t")
            .unwrap_err()
            .into();
        assert!(format!("{e}").contains("bad input"));
    }
}
