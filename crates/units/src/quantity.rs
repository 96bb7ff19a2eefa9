//! Newtype physical quantities.
//!
//! Each quantity wraps an `f64` in its canonical unit (documented on the
//! type). Same-type addition/subtraction, scaling by `f64`, and same-type
//! division (yielding a dimensionless `f64` ratio) are provided for every
//! quantity. A small set of cross-type operators implements the physics the
//! workspace actually uses (Ohm's law, `P = V·I`, `θja` relations, …).
//!
//! # Examples
//!
//! ```
//! use np_units::{Volts, Ohms, Amps, Watts, ThermalResistance, Celsius};
//!
//! // Ohm's law and power.
//! let i: Amps = Volts(1.0) / Ohms(4.0);
//! let p: Watts = Volts(1.0) * i;
//! assert_eq!(p, Watts(0.25));
//!
//! // Junction temperature from package thermal resistance (paper Eq. 1).
//! let tj: Celsius = Celsius(45.0) + ThermalResistance(0.8) * Watts(60.0);
//! assert_eq!(tj, Celsius(93.0));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Implements the standard algebra shared by all scalar quantities.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new value; identical to the tuple constructor but
            /// reads better in builder chains.
            #[inline]
            pub fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the element-wise maximum of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the element-wise minimum of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// True when the underlying value is finite (not NaN/±∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Same-type division yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C"
);
quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Length in micrometers — the natural unit of on-chip geometry.
    Microns,
    "µm"
);
quantity!(
    /// Length in nanometers — the natural unit of device dimensions.
    Nanometers,
    "nm"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Areal power density in watts per square centimeter.
    WattsPerCm2,
    "W/cm²"
);
quantity!(
    /// Junction-to-ambient thermal resistance `θja` in °C per watt
    /// (paper Eq. 1).
    ThermalResistance,
    "°C/W"
);
quantity!(
    /// Width-normalized transistor current in microamperes per micron of
    /// gate width — the unit the paper quotes `Ion` in.
    MicroampsPerMicron,
    "µA/µm"
);
quantity!(
    /// Sheet resistance in ohms per square.
    OhmsPerSquare,
    "Ω/sq"
);
quantity!(
    /// Inductance in picohenries — the natural unit of package parasitics.
    Picohenries,
    "pH"
);
quantity!(
    /// Areal capacitance in farads per square centimeter (gate-oxide `Cox`).
    FaradsPerCm2,
    "F/cm²"
);
quantity!(
    /// Linear capacitance in farads per micron of wire length.
    FaradsPerMicron,
    "F/µm"
);
quantity!(
    /// Electric field in volts per micron (velocity-saturation `Esat`).
    VoltsPerMicron,
    "V/µm"
);
quantity!(
    /// Areal charge in coulombs per square centimeter.
    CoulombsPerCm2,
    "C/cm²"
);
quantity!(
    /// Area in square millimeters — the natural unit of die area.
    SquareMillimeters,
    "mm²"
);

// ---------------------------------------------------------------------------
// Unit-scaled constructors and accessors.
// ---------------------------------------------------------------------------

impl Volts {
    /// Returns the value in millivolts.
    #[inline]
    pub fn as_milli(self) -> f64 {
        self.0 * 1e3
    }
}

impl Watts {
    /// Returns the value in microwatts.
    #[inline]
    pub fn as_micro(self) -> f64 {
        self.0 * 1e6
    }
}

impl Farads {
    /// Creates a value from femtofarads — the natural unit of gate loads.
    #[inline]
    pub fn from_femto(ff: f64) -> Self {
        Self(ff * 1e-15)
    }

    /// Returns the value in femtofarads.
    #[inline]
    pub fn as_femto(self) -> f64 {
        self.0 * 1e15
    }
}

impl Seconds {
    /// Creates a value from picoseconds — the natural unit of gate delay.
    #[inline]
    pub fn from_pico(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Creates a value from nanoseconds.
    #[inline]
    pub fn from_nano(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Returns the value in picoseconds.
    #[inline]
    pub fn as_pico(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the value in nanoseconds.
    #[inline]
    pub fn as_nano(self) -> f64 {
        self.0 * 1e9
    }
}

impl Hertz {
    /// The period `1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.0 != 0.0, "period of zero frequency");
        Seconds(1.0 / self.0)
    }
}

impl Celsius {
    /// Converts to absolute temperature.
    #[inline]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin(self.0 + 273.15)
    }
}

impl Microns {
    /// Returns the value in meters.
    #[inline]
    pub fn as_meters(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Nanometers {
    /// Converts to micrometers.
    #[inline]
    pub fn to_microns(self) -> Microns {
        Microns(self.0 * 1e-3)
    }

    /// Returns the value in centimeters (for gate-capacitance math).
    #[inline]
    pub fn as_cm(self) -> f64 {
        self.0 * 1e-7
    }
}

impl MicroampsPerMicron {
    /// Returns the value in nanoamperes per micron.
    #[inline]
    pub fn as_nano_per_micron(self) -> f64 {
        self.0 * 1e3
    }

    /// The absolute current carried by a device of the given gate width.
    #[inline]
    pub fn total(self, width: Microns) -> Amps {
        Amps(self.0 * 1e-6 * width.0)
    }
}

impl SquareMillimeters {
    /// Returns the area in square centimeters.
    #[inline]
    pub fn as_cm2(self) -> f64 {
        self.0 * 1e-2
    }
}

// ---------------------------------------------------------------------------
// Cross-type physics.
// ---------------------------------------------------------------------------

/// Ohm's law: `I = V / R`.
impl Div<Ohms> for Volts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

/// Ohm's law: `V = I · R`.
impl Mul<Ohms> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

/// Ohm's law: `V = R · I`.
impl Mul<Amps> for Ohms {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Amps) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

/// Ohm's law: `R = V / I`.
impl Div<Amps> for Volts {
    type Output = Ohms;
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

/// Electrical power: `P = V · I`.
impl Mul<Amps> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// Electrical power: `P = I · V`.
impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// Current draw: `I = P / V`.
impl Div<Volts> for Watts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

/// Temperature rise across a package: `ΔT = θja · P` (paper Eq. 1).
impl Mul<Watts> for ThermalResistance {
    type Output = Celsius;
    #[inline]
    fn mul(self, rhs: Watts) -> Celsius {
        Celsius(self.0 * rhs.0)
    }
}

/// Charge on a capacitor: `Q = C · V`, returned as coulombs in `f64`.
impl Mul<Volts> for Farads {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Volts) -> f64 {
        self.0 * rhs.0
    }
}

/// Total wire capacitance: `C = c · L`.
impl Mul<Microns> for FaradsPerMicron {
    type Output = Farads;
    #[inline]
    fn mul(self, rhs: Microns) -> Farads {
        Farads(self.0 * rhs.0)
    }
}

/// RC time constant: `τ = R · C`.
impl Mul<Farads> for Ohms {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volts_algebra() {
        let a = Volts(1.0) + Volts(0.5) - Volts(0.2);
        assert!((a.0 - 1.3).abs() < 1e-12);
        assert_eq!(a * 2.0, Volts(2.6));
        assert_eq!(2.0 * a, Volts(2.6));
        assert!(((a / 2.0).0 - 0.65).abs() < 1e-12);
        assert!((a / Volts(0.65) - 2.0).abs() < 1e-12);
        assert_eq!(-Volts(1.0), Volts(-1.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Volts(1.0);
        v += Volts(0.5);
        v -= Volts(0.25);
        v *= 4.0;
        v /= 2.0;
        assert!((v.0 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts(1.2);
        let r = Ohms(300.0);
        let i = v / r;
        assert!((i.0 - 0.004).abs() < 1e-15);
        assert!(((i * r).0 - v.0).abs() < 1e-12);
        assert!(((r * i).0 - v.0).abs() < 1e-12);
        assert!(((v / i).0 - r.0).abs() < 1e-9);
    }

    #[test]
    fn power_relations() {
        let p = Volts(0.9) * Amps(30.0);
        assert!((p.0 - 27.0).abs() < 1e-12);
        let i = p / Volts(0.9);
        assert!((i.0 - 30.0).abs() < 1e-12);
        assert_eq!(Amps(30.0) * Volts(0.9), p);
    }

    #[test]
    fn thermal_eq1() {
        // Paper Eq. 1 worked forward: Tj = Ta + θja * P.
        let tj = Celsius(45.0) + ThermalResistance(0.8) * Watts(68.75);
        assert!((tj.0 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unit_scaled_ctors() {
        assert!((Farads::from_femto(1.5).as_femto() - 1.5).abs() < 1e-9);
        assert!((Seconds::from_pico(12.0).as_pico() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_scales() {
        assert!((Celsius(85.0).to_kelvin().0 - 358.15).abs() < 1e-9);
    }

    #[test]
    fn length_conversions() {
        assert!((Nanometers(22.0).to_microns().0 - 0.022).abs() < 1e-12);
        assert!((Nanometers(10.0).as_cm() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn linear_current() {
        let ion = MicroampsPerMicron(750.0);
        let i = ion.total(Microns(2.0));
        assert!((i.0 - 1.5e-3).abs() < 1e-12);
        let ioff = MicroampsPerMicron(0.040);
        assert!((ioff.as_nano_per_micron() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn period_of_clock() {
        let f = Hertz(2e9);
        assert!((f.period().as_pico() - 500.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "period of zero frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Hertz(0.0).period();
    }

    #[test]
    fn display_with_units() {
        assert_eq!(format!("{:.2}", Volts(1.234)), "1.23 V");
        assert_eq!(format!("{}", Ohms(5.0)), "5 Ω");
        assert_eq!(format!("{:.1}", Celsius(85.04)), "85.0 °C");
    }

    #[test]
    fn sum_iterates() {
        let total: Watts = [Watts(1.0), Watts(2.5), Watts(0.5)].into_iter().sum();
        assert!((total.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Volts(-2.0).abs(), Volts(2.0));
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
        assert!(Volts(1.0).is_finite());
        assert!(!Volts(f64::NAN).is_finite());
    }

    #[test]
    fn area_in_square_centimeters() {
        assert!((SquareMillimeters(400.0).as_cm2() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rc_time_constant() {
        let tau = Ohms(1000.0) * Farads::from_femto(100.0);
        assert!((tau.as_pico() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn wire_capacitance() {
        let c = FaradsPerMicron(0.2e-15) * Microns(1000.0);
        assert!((c.as_femto() - 200.0).abs() < 1e-9);
    }
}
