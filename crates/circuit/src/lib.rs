//! # np-circuit
//!
//! Gate-level substrate for the optimization studies of *Future Performance
//! Challenges in Nanometer Design* (Sylvester & Kaul, DAC 2001): standard
//! cells and libraries (Section 2.3), netlists, static timing analysis, and
//! gate-level power.
//!
//! The paper's multi-Vdd (CVS), dual-Vth, and re-sizing analyses all act on
//! *netlists with slack distributions*; this crate supplies:
//!
//! * [`cell`] — logical-effort standard cells with drive strengths, supply
//!   class, and threshold class;
//! * [`library`] — cell libraries, including an SA-27E-like rich library
//!   (1.5 fF smallest inverter, 16 inverter sizes, 11 NAND2 drives — the
//!   granularity Section 2.3 describes) and a deliberately coarse library
//!   for the custom-vs-ASIC gap experiment;
//! * [`netlist`] — combinational netlist DAGs with per-gate drive/Vdd/Vth
//!   assignments;
//! * [`generate`] — seeded synthetic netlist generation with realistic path
//!   slack distributions ("over half of all timing paths commonly use less
//!   than half the clock cycle", Section 2.4);
//! * [`sta`] — static timing analysis (arrival/required/slack, critical
//!   path);
//! * [`power`] — dynamic and leakage power at the gate and netlist level,
//!   including the FO4-inverter power model behind the paper's Fig. 1.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_circuit::CircuitError> {
//! use np_circuit::generate::{NetlistSpec, generate_netlist};
//! use np_circuit::sta::TimingContext;
//! use np_roadmap::TechNode;
//!
//! let netlist = generate_netlist(&NetlistSpec::small(42));
//! let ctx = TimingContext::for_node(TechNode::N100)?;
//! // Time the design against a clock 10% looser than its critical path.
//! let critical = ctx.analyze(&netlist)?.critical_delay();
//! let timing = ctx.with_clock(critical * 1.1).analyze(&netlist)?;
//! assert!(timing.worst_slack() >= np_units::Seconds(0.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
mod error;
pub mod generate;
pub mod incremental;
pub mod library;
pub mod netlist;
pub mod power;
pub mod sta;

pub use cell::{Cell, CellKind, SupplyClass, VthClass};
pub use error::CircuitError;
pub use generate::{generate_netlist, NetlistSpec};
pub use incremental::{ConeStats, IncrementalSta};
pub use library::Library;
pub use netlist::{Gate, GateId, GateView, Netlist, NetlistBuilder};
pub use sta::{TimingContext, TimingReport};
