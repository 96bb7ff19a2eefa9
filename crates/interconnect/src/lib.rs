//! # np-interconnect
//!
//! Global-signaling models for Section 2.2 of *Future Performance
//! Challenges in Nanometer Design* (Sylvester & Kaul, DAC 2001):
//!
//! * [`wire`] — per-layer wire geometry with Sakurai resistance /
//!   capacitance models;
//! * [`elmore`] — distributed-RC line delay;
//! * [`repeater`] — optimal CMOS repeater insertion (size and spacing) and
//!   the chip-level repeater census behind the paper's "nearly 10⁶
//!   repeaters at 50 nm … over 50 W" claims;
//! * [`lowswing`] — differential / low-swing alternative drivers (the
//!   Alpha 21264-style buses with swing limited to 10 % of `Vdd`);
//! * [`chip`] — node-by-node comparison of the two signaling paradigms.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_interconnect::InterconnectError> {
//! use np_interconnect::chip::global_signaling_report;
//! use np_roadmap::TechNode;
//!
//! let rep = global_signaling_report(TechNode::N50)?;
//! assert!(rep.repeater_count > 100_000, "repeater proliferation");
//! assert!(rep.lowswing_power < rep.repeated_power, "low swing saves power");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chip;
pub mod elmore;
mod error;
pub mod inductance;
pub mod lowswing;
pub mod repeater;
pub mod wire;

pub use error::InterconnectError;
pub use wire::WireGeometry;
