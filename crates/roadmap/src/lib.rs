//! # np-roadmap
//!
//! The slice of the ITRS 2000 update that *Future Performance Challenges in
//! Nanometer Design* (Sylvester & Kaul, DAC 2001) consumes, encoded as a
//! queryable database, together with the paper's Table 1 survey of published
//! NMOS device results.
//!
//! Three modules:
//!
//! * [`itrs`] — per-node technology parameters (supply, oxide, gate length,
//!   on/off-current targets, clocks, power, die area) for the six nodes
//!   180 nm → 35 nm.
//! * [`survey`] — the published-device dataset of the paper's Table 1.
//! * [`packaging`] — thermal (θja) and flip-chip (bump pitch / pad count)
//!   projections used by the thermal and power-distribution analyses.
//!
//! # Examples
//!
//! ```
//! use np_roadmap::itrs::TechNode;
//!
//! let n35 = TechNode::N35.params();
//! assert_eq!(n35.vdd.0, 0.6);
//! // Standby-current headroom quoted in the paper's Section 3.1:
//! // 10% of Pchip at 0.6 V is about 30 A.
//! let standby = 0.1 * n35.max_power.0 / n35.vdd.0;
//! assert!((standby - 30.5).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod itrs;
pub mod packaging;
pub mod survey;

pub use itrs::{NodeParams, TechNode};
pub use packaging::PackagingRoadmap;
pub use survey::{DeviceReport, GateStack, SURVEY};
