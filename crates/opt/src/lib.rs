//! # np-opt
//!
//! The power-optimization algorithms of *Future Performance Challenges in
//! Nanometer Design* (Sylvester & Kaul, DAC 2001):
//!
//! * [`cvs`] — clustered voltage scaling (Section 2.4): assign slack gates
//!   to the reduced supply `Vdd,l ≈ 0.65·Vdd,h`, clustering to minimize
//!   level conversions;
//! * [`dualvth`] — dual-threshold assignment (Section 3.2.2): high-Vth
//!   implants on slack gates for 40–80 % leakage reduction at ~zero delay
//!   cost;
//! * [`sizing`] — post-synthesis transistor re-sizing, and the Section 3.3
//!   observation that its power return is *sublinear* (interconnect
//!   capacitance does not scale) while supply reduction is *quadratic*;
//! * [`policy`] — the Vdd/Vth scaling policies of Figs. 3–4 (constant Vth,
//!   constant static power, conservative scaling);
//! * [`combined`] — the paper's layered recipe: "Non-critical gates are
//!   first assigned to a reduced Vdd, followed by sizing and Vth selection";
//! * [`parallel`] — the same CVS + dual-Vth + sizing loop restructured as
//!   a deterministic parallel optimizer for million-gate netlists:
//!   frozen-round scoring fans out across the thread budget, accepts run
//!   in a fixed order through incremental STA, and results are bitwise
//!   identical at any worker count;
//! * [`cellgen`] — the library-granularity study of Section 2.3 (coarse
//!   vs rich vs on-the-fly generated cells).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_opt::OptError> {
//! use np_circuit::generate::{generate_netlist, NetlistSpec};
//! use np_circuit::sta::TimingContext;
//! use np_opt::cvs::{cluster_voltage_scale, CvsOptions};
//! use np_roadmap::TechNode;
//!
//! let mut netlist = generate_netlist(&NetlistSpec::small(1));
//! let ctx = TimingContext::for_node(TechNode::N100)?;
//! let critical = ctx.analyze(&netlist)?.critical_delay();
//! let ctx = ctx.with_clock(critical * 1.25);
//! let result = cluster_voltage_scale(&mut netlist, &ctx, &CvsOptions::default())?;
//! assert!(result.fraction_low > 0.3, "plenty of gates tolerate Vdd,l");
//! assert!(result.timing_met);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cellgen;
pub mod combined;
pub mod cvs;
pub mod dualvth;
mod error;
pub mod parallel;
pub mod policy;
pub mod sizing;

pub use error::OptError;
pub use parallel::{
    assignment_digest, cell_area_units, optimize_parallel, optimize_parallel_with_cancel, MoveKind,
    ParallelOptions, ParallelResult, RoundStats,
};
