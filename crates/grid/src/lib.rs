//! # np-grid
//!
//! Power-distribution models for Section 4 of *Future Performance
//! Challenges in Nanometer Design* (Sylvester & Kaul, DAC 2001) — a
//! BACPAC-style \[41\] top-level power-grid analysis:
//!
//! * [`hotspot`] — the ×4 hot-spot power-density factor (footnote 7);
//! * [`analytic`] — closed-form worst-case IR drop in a bump cell and the
//!   rail width required for a <10 % drop budget;
//! * [`solver`] / [`mesh`] — an independent resistive-mesh field solver
//!   (red-black successive over-relaxation) used to validate the
//!   analytic model, and the reference oracle for the faster solvers;
//!   [`mesh::MeshCache`] solves the unit bump cell once per mesh side
//!   and scales it to every node's conductance and load;
//! * [`cg`] — Jacobi-preconditioned conjugate gradients over the same
//!   mesh, built on the preconditioned-CG kernel MGCG shares;
//! * [`multigrid`] — multigrid-preconditioned CG (MGCG): the O(N)
//!   geometric V-cycle (red-black smoothing, full-weighting restriction,
//!   bilinear prolongation) as the CG preconditioner;
//! * [`plan`] — the Fig. 5 study: required rail width (normalized to the
//!   minimum top-metal width) and routing-resource share per node, under
//!   (a) minimum attainable bump pitch and (b) ITRS pad counts — and the
//!   [`plan::SolvePlan`] policy that sends every mesh on the 2^k+1
//!   ladder to MGCG and every other mesh to Jacobi-PCG, each solve
//!   running on the calling thread;
//! * [`transient`] — `L·di/dt` noise from sleep-mode wake-up;
//! * [`mcml`] — MOS current-mode logic as a current-transient-free
//!   alternative (ref. \[42\]).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_grid::GridError> {
//! use np_grid::plan::GridPlan;
//! use np_roadmap::TechNode;
//!
//! let plan = GridPlan::min_pitch(TechNode::N35)?;
//! // Fig. 5: manageable rail widths at the minimum bump pitch...
//! assert!(plan.width_over_min() < 40.0);
//! let itrs = GridPlan::itrs_pads(TechNode::N35)?;
//! // ...but a blow-up under the ITRS pad-count assumptions.
//! assert!(itrs.width_over_min() > 500.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analytic;
pub mod cg;
mod error;
pub mod hotspot;
pub mod mcml;
pub mod mesh;
pub mod multigrid;
pub mod plan;
pub mod solver;
pub mod transient;

pub use error::GridError;
pub use plan::{GridPlan, SolvePlan, SolveStrategy};
