//! # np-thermal
//!
//! Packaging-thermal models and dynamic thermal management (DTM) for
//! Section 2.1 of *Future Performance Challenges in Nanometer Design*
//! (Sylvester & Kaul, DAC 2001):
//!
//! * [`package`] — the junction-to-ambient model of Eq. 1
//!   (`θja = (Tchip − Tambient)/Pchip`) and the leakage–temperature
//!   electro-thermal fixed point;
//! * [`workload`] — synthetic MPU power traces whose *effective*
//!   worst-case is a tunable fraction (default the paper's 75 %) of the
//!   theoretical worst case;
//! * [`rc`] — a thermal-RC transient simulator for the die/heatsink;
//! * [`dtm`] — the Pentium-4-style thermal monitor: on-die sensor,
//!   comparator, and clock throttling, which lets the package be sized for
//!   the effective rather than theoretical worst case;
//! * [`cost`] — the cooling-cost model behind "a rise in power consumption
//!   from 65 to 75 W would triple cooling costs".
//!
//! # Examples
//!
//! ```
//! use np_thermal::package::Package;
//! use np_units::{Celsius, ThermalResistance, Watts};
//!
//! let pkg = Package::new(ThermalResistance(0.8), Celsius(45.0));
//! let tj = pkg.junction_temperature(Watts(68.75));
//! assert!((tj.0 - 100.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod dtm;
mod error;
pub mod package;
pub mod rc;
pub mod subambient;
pub mod workload;

pub use error::ThermalError;
pub use package::Package;
