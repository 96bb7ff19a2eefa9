//! The Eq. 1 package model and the leakage–temperature fixed point.
//!
//! `θja = (Tchip − Tambient) / Pchip` (paper Eq. 1) in all three
//! rearrangements, plus the electro-thermal closure: leakage power grows
//! with junction temperature, which grows with power — a fixed point that
//! exists only when the package is strong enough.

use crate::error::ThermalError;
use np_device::Mosfet;
use np_units::convergence::{Breakdown, ResidualTrace};
use np_units::{guard, Celsius, Microns, ThermalResistance, Volts, Watts};

/// A packaging/cooling solution characterized by its junction-to-ambient
/// thermal resistance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Package {
    /// Junction-to-ambient thermal resistance.
    pub theta_ja: ThermalResistance,
    /// Ambient temperature (the paper uses ≈45 °C).
    pub t_ambient: Celsius,
}

impl Package {
    /// A package with the given θja at the given ambient.
    pub fn new(theta_ja: ThermalResistance, t_ambient: Celsius) -> Self {
        Self {
            theta_ja,
            t_ambient,
        }
    }

    /// Eq. 1 solved for `Tchip`: the junction temperature at dissipation
    /// `power`.
    pub fn junction_temperature(&self, power: Watts) -> Celsius {
        self.t_ambient + self.theta_ja * power
    }

    /// Eq. 1 solved for θja: the thermal resistance needed to keep
    /// `power` below `t_max` at this ambient.
    pub fn required_theta_ja(
        power: Watts,
        t_max: Celsius,
        t_ambient: Celsius,
    ) -> ThermalResistance {
        ThermalResistance((t_max - t_ambient).0 / power.0)
    }

    /// Solves the electro-thermal fixed point: junction temperature where
    /// `Tj = Ta + θja · (P_dyn + P_leak(Tj))`, with leakage from the
    /// device model evaluated at `Tj`.
    ///
    /// `leak_width` is the total leaking transistor width on the die and
    /// `vdd` the rail it leaks from.
    ///
    /// The junction-temperature ceiling above which the fixed point is
    /// reported as runaway rather than a solution.
    pub const RUNAWAY_CEILING_C: f64 = 250.0;

    /// # Errors
    ///
    /// [`ThermalError::ThermalRunaway`] when no stable temperature below
    /// [`Package::RUNAWAY_CEILING_C`] exists — the attached
    /// [`Convergence`] diagnostic records the iteration count, the final
    /// temperature update, and a tail of the update history so a diverging
    /// loop is distinguishable from a slow one;
    /// [`ThermalError::NonFinite`] when `dynamic`, `vdd`, θja, or the
    /// ambient is NaN/infinite (or `dynamic` negative);
    /// [`ThermalError::BadParameter`] for a non-positive width.
    ///
    /// [`Convergence`]: np_units::convergence::Convergence
    pub fn electro_thermal_temperature(
        &self,
        dynamic: Watts,
        dev: &Mosfet,
        leak_width: Microns,
        vdd: Volts,
    ) -> Result<Celsius, ThermalError> {
        let ctx = "Package::electro_thermal_temperature";
        guard::finite_non_negative(dynamic.0, "dynamic power", ctx)?;
        guard::finite(vdd.0, "Vdd", ctx)?;
        guard::finite_positive(self.theta_ja.0, "theta_ja", ctx)?;
        guard::finite(self.t_ambient.0, "ambient temperature", ctx)?;
        if !(leak_width.0 > 0.0) {
            return Err(ThermalError::BadParameter("leak width must be positive"));
        }
        guard::finite(leak_width.0, "leak width", ctx)?;
        let map = |t: f64| -> f64 {
            let hot = dev.with_temperature(Celsius(t));
            let p_leak = hot.ioff().total(leak_width) * vdd;
            self.junction_temperature(dynamic + p_leak).0
        };
        // Fixed-point iteration with a residual trace: the |ΔT| per step
        // is the residual, so the diagnostic's tail shows whether the
        // loop was contracting, stalled, or blowing up.
        const TOL: f64 = 1e-6;
        const MAX_ITERS: usize = 500;
        let _span = np_telemetry::span("thermal.fixed_point");
        let mut trace = ResidualTrace::new();
        let mut t = self.t_ambient.0;
        // The labeled block funnels every exit through one point so the
        // iteration count is recorded exactly once, converged or not.
        let result = 'solve: {
            for _ in 0..MAX_ITERS {
                let next = map(t);
                if !next.is_finite() {
                    // Leakage blowing up to a non-finite value *is* runaway.
                    break 'solve Err(ThermalError::ThermalRunaway {
                        last_temp: t,
                        diag: trace.diagnostic(Breakdown::NonFinite {
                            at_iteration: trace.iterations(),
                        }),
                    });
                }
                trace.record((next - t).abs());
                if next >= Self::RUNAWAY_CEILING_C {
                    break 'solve Err(ThermalError::ThermalRunaway {
                        last_temp: next,
                        diag: trace.diagnostic(Breakdown::DomainEscape {
                            value: next,
                            bound: Self::RUNAWAY_CEILING_C,
                        }),
                    });
                }
                if (next - t).abs() <= TOL {
                    break 'solve Ok(Celsius(next));
                }
                t = next;
            }
            Err(ThermalError::ThermalRunaway {
                last_temp: t,
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        };
        np_telemetry::counter("thermal.fixed_point.iterations", trace.iterations() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_roadmap::TechNode;

    fn pkg() -> Package {
        Package::new(ThermalResistance(0.8), Celsius(45.0))
    }

    #[test]
    fn eq1_both_ways() {
        let p = pkg();
        let tj = p.junction_temperature(Watts(68.75));
        assert!((tj.0 - 100.0).abs() < 1e-9);
        let theta = Package::required_theta_ja(Watts(68.75), Celsius(100.0), Celsius(45.0));
        assert!((theta.0 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn itrs_package_tightens_with_node() {
        let p180 = np_roadmap::PackagingRoadmap::for_node(TechNode::N180);
        let p35 = np_roadmap::PackagingRoadmap::for_node(TechNode::N35);
        assert!(p35.required_theta_ja() < p180.required_theta_ja());
        assert_eq!(p35.t_ambient, Celsius(45.0));
    }

    #[test]
    fn electro_thermal_fixed_point_converges() {
        let dev = Mosfet::for_node(TechNode::N70).unwrap();
        // A 70 nm MPU: ~100 W dynamic, ~10 m of leaking width.
        let t = pkg()
            .electro_thermal_temperature(Watts(60.0), &dev, Microns(2.0e6), Volts(0.9))
            .unwrap();
        // Above the leakage-free temperature, below runaway.
        let t_no_leak = pkg().junction_temperature(Watts(60.0));
        assert!(t > t_no_leak);
        assert!(t.0 < 150.0, "got {t}");
    }

    #[test]
    fn excessive_leakage_is_runaway() {
        let dev = Mosfet::for_node(TechNode::N50).unwrap(); // Vth 0.02: very leaky
        let err = pkg()
            .electro_thermal_temperature(Watts(150.0), &dev, Microns(5.0e7), Volts(0.6))
            .unwrap_err();
        assert!(matches!(err, ThermalError::ThermalRunaway { .. }));
    }

    #[test]
    fn bad_width_rejected() {
        let dev = Mosfet::for_node(TechNode::N70).unwrap();
        assert!(pkg()
            .electro_thermal_temperature(Watts(10.0), &dev, Microns(0.0), Volts(0.9))
            .is_err());
    }
}
