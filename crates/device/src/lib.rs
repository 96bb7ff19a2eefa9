//! # np-device
//!
//! The compact nanometer MOSFET I–V model of *Future Performance Challenges
//! in Nanometer Design* (Sylvester & Kaul, DAC 2001), Section 3.1, Eqs. 2–4:
//!
//! * saturation drive current `Ion` with parasitic source-resistance and
//!   velocity-saturation corrections (Eq. 2, after Chen & Hu),
//! * the underlying `Idsat0` expression with gate-voltage-dependent
//!   effective mobility and *electrical* oxide capacitance (Eq. 3),
//! * subthreshold off current `Ioff = 10 µA/µm × 10^(−Vth/85 mV)` (Eq. 4),
//!   temperature-scaled for hot-junction analyses.
//!
//! On top of the raw model the crate provides:
//!
//! * [`solve`] — the paper's workflow of *solving for the `Vth` that meets
//!   the ITRS 750 µA/µm target*, plus the one-time mobility calibration
//!   that anchors the 180 nm node at `Vth = 0.30 V` (Table 2's first
//!   column);
//! * [`presets`] — calibrated devices for every ITRS node;
//! * [`delay`] — an `Ion`-based gate-delay model (`t ∝ C·Vdd/Ion`) used by
//!   the Vdd/Vth policy studies of Figs. 3–4;
//! * [`dualvth`] — the dual-threshold scaling analysis of Fig. 2;
//! * [`stack`] — subthreshold series-stack leakage (the Section 3.3
//!   "different Vth's inside a cell" idea).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_device::DeviceError> {
//! use np_device::Mosfet;
//! use np_roadmap::TechNode;
//!
//! // A calibrated 70 nm device: Vth is solved so Ion = 750 µA/µm at 0.9 V.
//! let dev = Mosfet::for_node(TechNode::N70)?;
//! let ion = dev.ion(dev.nominal_vdd())?;
//! assert!((ion.0 - 750.0).abs() < 1.0);
//! let ioff = dev.ioff();
//! assert!(ioff.as_nano_per_micron() > 1.0); // leaky, as the paper warns
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod delay;
pub mod dualvth;
mod error;
pub mod mobility;
pub mod model;
pub mod mtcmos;
pub mod oxide;
pub mod presets;
pub mod solve;
pub mod stack;
pub mod substrate;

pub use error::DeviceError;
pub use model::Mosfet;
pub use oxide::GateKind;
pub use substrate::Substrate;
