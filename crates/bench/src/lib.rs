//! # np-bench
//!
//! The reproduction harness: one function per table, figure, and numbered
//! experiment of *Future Performance Challenges in Nanometer Design*
//! (Sylvester & Kaul, DAC 2001). Each function computes the series the
//! paper plots/tabulates and returns a structured result with a
//! [`render`](tables::Table2Report::render)-style plain-text view; the
//! `repro` binary prints them, the Criterion benches time them, and the
//! integration tests assert the paper-shape invariants on them.
//!
//! Experiment index (DESIGN.md §5): [`tables`] covers T1–T2, [`figures`]
//! covers F1–F5, [`experiments`] covers E1–E10. The [`registry`] module
//! is the single source of truth tying them together: one [`registry::
//! Artifact`] per table/figure/experiment, with explicit CSV
//! availability, consumed by `repro`, the parallel engine
//! (`nanopower::engine`), and the integration tests alike.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accept;
#[cfg(unix)]
pub mod chaos;
pub mod experiments;
pub mod figures;
pub mod golden;
pub mod perf;
pub mod registry;
pub mod tables;

/// Wire-load model shared by the Fig. 1 and Fig. 4 scenarios: the
/// "average interconnect load" on a local net, scaled with the node
/// (12 fF at 70 nm).
pub fn average_wire_cap(node: np_roadmap::TechNode) -> np_units::Farads {
    np_units::Farads::from_femto(12.0 * node.drawn().0 / 70.0)
}
