//! # np-units
//!
//! Typed physical quantities and small numerical routines shared by every
//! crate in the `nanopower` workspace.
//!
//! The toolkit models nanometer-scale CMOS, where an errant factor of 10³
//! between, say, nA/µm and µA/µm silently invalidates a projection. Every
//! externally visible physical value is therefore carried in a dedicated
//! newtype ([C-NEWTYPE]): [`Volts`], [`Amps`], [`Watts`], [`Celsius`],
//! [`MicroampsPerMicron`], and friends. The newtypes are thin `f64` wrappers
//! with the arithmetic that is physically meaningful — and only that
//! arithmetic — implemented ([C-OVERLOAD]).
//!
//! The [`math`] module provides the root finding and sampling grids that
//! the analytical models in the rest of the workspace need. They are
//! implemented in-repo because the models require only small,
//! well-understood numerics.
//!
//! # Examples
//!
//! ```
//! use np_units::{Volts, Amps, Ohms, Watts};
//!
//! let vdd = Volts(1.2);
//! let ion = Amps(0.75); // 750 mA for a 1 mm-wide device
//! let power: Watts = vdd * ion;
//! assert!((power.0 - 0.9).abs() < 1e-12);
//!
//! let drop: Volts = Amps(2.0) * Ohms(0.05);
//! assert_eq!(drop, Volts(0.1));
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
//! [C-OVERLOAD]: https://rust-lang.github.io/api-guidelines/predictability.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod convergence;
pub mod guard;
pub mod math;
pub mod quantity;

pub use quantity::{
    Amps, Celsius, CoulombsPerCm2, Farads, FaradsPerCm2, FaradsPerMicron, Hertz, Kelvin,
    MicroampsPerMicron, Microns, Nanometers, Ohms, OhmsPerSquare, Picohenries, Seconds,
    SquareMillimeters, ThermalResistance, Volts, VoltsPerMicron, Watts, WattsPerCm2,
};
