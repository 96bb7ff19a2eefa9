//! First-order thermal-RC transient model of die + package.
//!
//! The die/spreader lumped node has heat capacity `C_th` and sheds heat to
//! ambient through `θja`; between samples the exact exponential solution
//! of `C·dT/dt = P − (T − Ta)/θ` is applied, so the integration is
//! unconditionally stable for any sample period.

use crate::error::ThermalError;
use crate::package::Package;
use np_units::convergence::{Breakdown, ResidualTrace};
use np_units::{guard, Celsius, Seconds, Watts};

/// Representative die + spreader heat capacity, J/°C. With θja ≈ 0.7 °C/W
/// this gives the tens-of-milliseconds thermal time constant that on-die
/// thermal monitors are designed around.
pub const DEFAULT_HEAT_CAPACITY_J_PER_C: f64 = 0.08;

/// A lumped thermal node over a package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalRc {
    /// The package shedding the heat.
    pub package: Package,
    /// Heat capacity of the die + spreader, J/°C.
    pub heat_capacity: f64,
    /// Current junction temperature.
    pub temperature: Celsius,
}

impl ThermalRc {
    /// A node starting at ambient.
    ///
    /// # Panics
    ///
    /// Panics if the heat capacity is not positive.
    pub fn new(package: Package, heat_capacity: f64) -> Self {
        assert!(heat_capacity > 0.0, "heat capacity must be positive");
        Self {
            package,
            heat_capacity,
            temperature: package.t_ambient,
        }
    }

    /// The thermal time constant `τ = θja · C_th`.
    pub fn time_constant(&self) -> Seconds {
        Seconds(self.package.theta_ja.0 * self.heat_capacity)
    }

    /// Steps the node at constant dissipation until the temperature
    /// update falls below `tol_c` degrees, returning the settled
    /// temperature — the iterative counterpart of
    /// [`Package::junction_temperature`], with a watchdog: if `max_steps`
    /// elapse first, the error's [`Convergence`] diagnostic carries the
    /// step count and the tail of the update history.
    ///
    /// # Errors
    ///
    /// [`ThermalError::NonFinite`] for a NaN/infinite power or
    /// non-positive `dt`/`tol_c`; [`ThermalError::NoConvergence`] when
    /// the node has not settled within `max_steps`.
    ///
    /// [`Convergence`]: np_units::convergence::Convergence
    pub fn settle(
        &mut self,
        power: Watts,
        dt: Seconds,
        tol_c: f64,
        max_steps: usize,
    ) -> Result<Celsius, ThermalError> {
        let ctx = "ThermalRc::settle";
        guard::finite_non_negative(power.0, "power", ctx)?;
        guard::finite_positive(dt.0, "dt", ctx)?;
        guard::finite_positive(tol_c, "tolerance", ctx)?;
        let _span = np_telemetry::span("thermal.rc.settle");
        let mut trace = ResidualTrace::new();
        // The labeled block funnels every exit through one point so the
        // step count is recorded exactly once, settled or not.
        let result = 'solve: {
            for _ in 0..max_steps {
                let before = self.temperature;
                let after = self.step(power, dt);
                let delta = (after - before).abs().0;
                if !delta.is_finite() {
                    break 'solve Err(ThermalError::NoConvergence {
                        diag: trace.diagnostic(Breakdown::NonFinite {
                            at_iteration: trace.iterations(),
                        }),
                    });
                }
                trace.record(delta);
                if delta <= tol_c {
                    break 'solve Ok(after);
                }
            }
            Err(ThermalError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        };
        np_telemetry::counter("thermal.rc.settle_steps", trace.iterations() as u64);
        result
    }

    /// Advances the node by `dt` at constant dissipation `power`, using
    /// the exact exponential step, and returns the new temperature.
    pub fn step(&mut self, power: Watts, dt: Seconds) -> Celsius {
        let t_inf = self.package.junction_temperature(power);
        let alpha = (-dt.0 / self.time_constant().0).exp();
        self.temperature = t_inf + (self.temperature - t_inf) * alpha;
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_units::ThermalResistance;

    fn node() -> ThermalRc {
        ThermalRc::new(
            Package::new(ThermalResistance(0.8), Celsius(45.0)),
            DEFAULT_HEAT_CAPACITY_J_PER_C,
        )
    }

    #[test]
    fn starts_at_ambient() {
        assert_eq!(node().temperature, Celsius(45.0));
    }

    #[test]
    fn converges_to_steady_state() {
        let mut n = node();
        let p = Watts(60.0);
        for _ in 0..10_000 {
            n.step(p, Seconds(1e-3));
        }
        let expect = n.package.junction_temperature(p);
        assert!((n.temperature - expect).abs().0 < 0.01);
    }

    #[test]
    fn exact_step_is_stable_for_huge_dt() {
        let mut n = node();
        let t = n.step(Watts(60.0), Seconds(1e6));
        assert!((t - n.package.junction_temperature(Watts(60.0))).abs().0 < 1e-6);
    }

    #[test]
    fn heating_is_monotone_towards_target() {
        let mut n = node();
        let mut prev = n.temperature;
        for _ in 0..100 {
            let t = n.step(Watts(80.0), Seconds(1e-3));
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn cooling_works_too() {
        let mut n = node();
        n.temperature = Celsius(110.0);
        let t = n.step(Watts(0.0), Seconds(0.5));
        assert!(t < Celsius(110.0));
        assert!(t > Celsius(45.0));
    }

    #[test]
    fn time_constant_is_theta_times_c() {
        let n = node();
        assert!((n.time_constant().0 - 0.8 * DEFAULT_HEAT_CAPACITY_J_PER_C).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "heat capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ThermalRc::new(Package::new(ThermalResistance(0.8), Celsius(45.0)), 0.0);
    }

    #[test]
    fn settle_matches_steady_state() {
        let mut n = node();
        let p = Watts(60.0);
        let settled = n.settle(p, Seconds(1e-3), 1e-9, 2_000_000).unwrap();
        assert!((settled - n.package.junction_temperature(p)).abs().0 < 1e-3);
    }

    #[test]
    fn settle_watchdog_reports_budget_with_diagnostic() {
        use crate::error::ThermalError;
        use np_units::convergence::Breakdown;
        let mut n = node();
        // Far too few steps to settle from ambient to ~93 °C.
        match n.settle(Watts(60.0), Seconds(1e-6), 1e-9, 5) {
            Err(ThermalError::NoConvergence { diag }) => {
                assert_eq!(diag.iterations, 5);
                assert_eq!(diag.reason, Breakdown::IterationBudget);
                assert!(!diag.residual_tail.is_empty());
                assert!(diag.final_residual.is_finite());
            }
            other => panic!("expected watchdog error, got {other:?}"),
        }
    }

    #[test]
    fn settle_rejects_non_finite_power() {
        use crate::error::ThermalError;
        let mut n = node();
        assert!(matches!(
            n.settle(Watts(f64::NAN), Seconds(1e-3), 1e-6, 10),
            Err(ThermalError::NonFinite(_))
        ));
        assert!(matches!(
            n.settle(Watts(60.0), Seconds(0.0), 1e-6, 10),
            Err(ThermalError::NonFinite(_))
        ));
    }
}
