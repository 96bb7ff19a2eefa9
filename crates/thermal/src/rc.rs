//! First-order thermal-RC transient model of die + package.
//!
//! The die/spreader lumped node has heat capacity `C_th` and sheds heat to
//! ambient through `θja`; between samples the exact exponential solution
//! of `C·dT/dt = P − (T − Ta)/θ` is applied, so the integration is
//! unconditionally stable for any sample period.

use crate::package::Package;
use np_units::{Celsius, Seconds, Watts};

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
}
