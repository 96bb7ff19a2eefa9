//! The Fig. 5 study — per-node grid plans under minimum bump pitch
//! versus ITRS pad counts — plus the [`SolvePlan`] policy that routes a
//! mesh problem to its solver. A plan solve takes the mesh alone and
//! starts from zero; [`crate::mesh::MeshCache`] is how a caller avoids
//! solving one bump-cell mesh twice.

use crate::analytic::{rail_routing_fraction, required_rail_width, IrBudget};
use crate::cg::solve_pcg;
use crate::error::GridError;
use crate::multigrid::{self, solve_mgcg};
use crate::solver::MeshProblem;
use np_roadmap::{PackagingRoadmap, TechNode};
use np_units::Microns;
use std::fmt;

/// Which bump-provisioning assumption a plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BumpAssumption {
    /// The minimum attainable flip-chip pitch (Fig. 5 open symbols).
    MinPitch,
    /// The ITRS pad-count projection (Fig. 5 solid symbols).
    ItrsPads,
}

/// A sized top-level power grid for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPlan {
    /// The node planned.
    pub node: TechNode,
    /// Provisioning assumption.
    pub assumption: BumpAssumption,
    /// Bump (and power-grid) pitch used.
    pub bump_pitch: Microns,
    /// Required rail width per net; `None` when the budget is unreachable
    /// (rail wider than the pitch).
    pub rail_width: Option<Microns>,
    /// The rail width the drop budget demands, even if unroutable — the
    /// quantity Fig. 5 plots.
    pub demanded_width: Microns,
}

impl GridPlan {
    /// Plans the grid at the node's minimum attainable bump pitch.
    ///
    /// # Errors
    ///
    /// Propagates model errors other than routability (an unroutable
    /// demand is reported in the plan itself).
    pub fn min_pitch(node: TechNode) -> Result<Self, GridError> {
        let pitch = PackagingRoadmap::for_node(node).min_bump_pitch;
        Self::at_pitch(node, pitch, BumpAssumption::MinPitch)
    }

    /// Plans the grid at the ITRS effective pad pitch.
    ///
    /// # Errors
    ///
    /// Same as [`GridPlan::min_pitch`].
    pub fn itrs_pads(node: TechNode) -> Result<Self, GridError> {
        let pitch = PackagingRoadmap::for_node(node).effective_itrs_bump_pitch();
        Self::at_pitch(node, pitch, BumpAssumption::ItrsPads)
    }

    fn at_pitch(
        node: TechNode,
        pitch: Microns,
        assumption: BumpAssumption,
    ) -> Result<Self, GridError> {
        let budget = IrBudget::default();
        match required_rail_width(node, pitch, &budget) {
            Ok(w) => Ok(Self {
                node,
                assumption,
                bump_pitch: pitch,
                rail_width: Some(w),
                demanded_width: w,
            }),
            Err(GridError::Infeasible { width_um }) => Ok(Self {
                node,
                assumption,
                bump_pitch: pitch,
                rail_width: None,
                demanded_width: Microns(width_um),
            }),
            Err(e) => Err(e),
        }
    }

    /// The Fig. 5 y-axis: demanded rail width over the minimum top-metal
    /// width.
    pub fn width_over_min(&self) -> f64 {
        self.demanded_width.0 / self.node.params().top_metal_min_width.0
    }

    /// Fraction of top-level routing consumed by the power rails alone.
    pub fn rail_fraction(&self) -> f64 {
        rail_routing_fraction(self.demanded_width, self.bump_pitch)
    }

    /// Total routing-resource fraction including the constant 16 %
    /// landing-pad overhead (the paper's "around 17-20%").
    pub fn total_routing_fraction(&self) -> f64 {
        self.rail_fraction() + PackagingRoadmap::for_node(self.node).landing_pad_overhead
    }

    /// True when the demanded rail physically fits under the bump pitch.
    pub fn is_routable(&self) -> bool {
        self.rail_width.is_some()
    }
}

impl fmt::Display for GridPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}): pitch {:.0}, demanded width {:.2} ({:.0}x min, {}), rails {:.1}% + pads 16%",
            self.node,
            self.assumption,
            self.bump_pitch,
            self.demanded_width,
            self.width_over_min(),
            if self.is_routable() { "routable" } else { "UNROUTABLE" },
            self.rail_fraction() * 100.0,
        )
    }
}

/// Both Fig. 5 series for every node.
///
/// # Errors
///
/// Propagates model errors.
pub fn fig5_series() -> Result<Vec<(GridPlan, GridPlan)>, GridError> {
    TechNode::ALL
        .iter()
        .map(|&n| Ok((GridPlan::min_pitch(n)?, GridPlan::itrs_pads(n)?)))
        .collect()
}

/// Which algorithm a [`SolvePlan`] runs on a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStrategy {
    /// Jacobi-preconditioned CG ([`solve_pcg`]), sequential: meshes off
    /// the 2^k+1 ladder.
    JacobiPcg,
    /// Multigrid-preconditioned CG ([`solve_mgcg`]), sequential: every
    /// mesh on the 2^k+1 ladder.
    MultigridCg,
}

/// The solver policy for an `nx × ny` mesh: MGCG exactly when both sides
/// fit the 2^k+1 coarsening ladder, Jacobi-PCG otherwise.
///
/// There is no size threshold: on the ladder MGCG does O(N) work against
/// Jacobi-PCG's O(N^1.5), and `BENCH_grid.json` has it ahead from 65²
/// up (5.6× at 129²). At 33² it is 6 % slower, but that solve takes
/// under a millisecond either way. The spec cost gate prices a grid leg
/// with the same function, so it charges for the solver that runs.
pub fn strategy_for(nx: usize, ny: usize) -> SolveStrategy {
    if multigrid::compatible(nx, ny) {
        SolveStrategy::MultigridCg
    } else {
        SolveStrategy::JacobiPcg
    }
}

/// The one solve policy: [`strategy_for`] picks the algorithm, which
/// runs on the calling thread.
///
/// ```
/// use np_grid::solver::MeshProblem;
/// use np_grid::{SolvePlan, SolveStrategy};
///
/// let mesh = |n: usize| {
///     let mut m = MeshProblem::new(n, n, 1.0);
///     m.injection = vec![1e-4; n * n];
///     let centre = m.index(n / 2, n / 2);
///     m.pinned[centre] = true;
///     m
/// };
/// let (on_ladder, off_ladder) = (mesh(17), mesh(18));
/// assert_eq!(SolvePlan::auto().resolve_for(&on_ladder).0, SolveStrategy::MultigridCg);
/// assert_eq!(SolvePlan::auto().resolve_for(&off_ladder).0, SolveStrategy::JacobiPcg);
/// let (mg, pcg) = (SolvePlan::auto().solve(&on_ladder)?, SolvePlan::auto().solve(&off_ladder)?);
/// assert_eq!((mg.len(), pcg.len()), (17 * 17, 18 * 18));
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SolvePlan;

impl SolvePlan {
    /// The solve policy — the only one there is.
    pub fn auto() -> Self {
        Self
    }

    /// The (strategy, threads) pair this plan runs `m` with. Both
    /// algorithms are sequential, so the thread count is always 1.
    pub fn resolve_for(&self, m: &MeshProblem) -> (SolveStrategy, usize) {
        (strategy_for(m.nx, m.ny), 1)
    }

    /// Solves `m` with the resolved strategy.
    ///
    /// # Errors
    ///
    /// Those of [`solve_pcg`] / [`solve_mgcg`].
    pub fn solve(&self, m: &MeshProblem) -> Result<Vec<f64>, GridError> {
        match strategy_for(m.nx, m.ny) {
            SolveStrategy::JacobiPcg => solve_pcg(m),
            SolveStrategy::MultigridCg => solve_mgcg(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_pitch_plans_are_routable_everywhere() -> Result<(), GridError> {
        for node in TechNode::ALL {
            let p = GridPlan::min_pitch(node)?;
            assert!(p.is_routable(), "{node} should be routable at min pitch");
            assert!(
                p.width_over_min() < 40.0,
                "{node}: {:.0}x min width is not 'manageable'",
                p.width_over_min()
            );
        }
        Ok(())
    }

    #[test]
    fn itrs_pads_blow_up_at_the_end_of_the_roadmap() -> Result<(), GridError> {
        // Fig. 5 solid symbols: "over 2000X the minimum allowable" at
        // 35 nm; we require at least a three-order-of-magnitude demand.
        let p = GridPlan::itrs_pads(TechNode::N35)?;
        assert!(!p.is_routable());
        assert!(p.width_over_min() > 500.0, "got {:.0}x", p.width_over_min());
        Ok(())
    }

    #[test]
    fn min_pitch_routing_fraction_is_small() -> Result<(), GridError> {
        let p = GridPlan::min_pitch(TechNode::N35)?;
        assert!(
            p.rail_fraction() < 0.08,
            "{:.1}%",
            p.rail_fraction() * 100.0
        );
        let total = p.total_routing_fraction();
        assert!(
            (0.16..=0.24).contains(&total),
            "total {:.1}% should be ~17-20%",
            total * 100.0
        );
        Ok(())
    }

    #[test]
    fn series_covers_all_nodes() -> Result<(), GridError> {
        let s = fig5_series()?;
        assert_eq!(s.len(), 6);
        for (a, b) in &s {
            assert_eq!(a.assumption, BumpAssumption::MinPitch);
            assert_eq!(b.assumption, BumpAssumption::ItrsPads);
            assert!(b.width_over_min() >= a.width_over_min());
        }
        Ok(())
    }

    #[test]
    fn display_mentions_routability() -> Result<(), GridError> {
        let p = GridPlan::itrs_pads(TechNode::N35)?;
        assert!(format!("{p}").contains("UNROUTABLE"));
        let p = GridPlan::min_pitch(TechNode::N35)?;
        assert!(format!("{p}").contains("routable"));
        Ok(())
    }

    fn loaded_mesh(nx: usize, ny: usize) -> MeshProblem {
        let mut m = MeshProblem::new(nx, ny, 1.0);
        m.injection = vec![1e-4; nx * ny];
        let centre = m.index(nx / 2, ny / 2);
        m.pinned[centre] = true;
        m
    }

    #[test]
    fn auto_picks_mgcg_exactly_on_the_ladder() {
        let strategy = |nx, ny| {
            let (strategy, threads) = SolvePlan::auto().resolve_for(&MeshProblem::new(nx, ny, 1.0));
            assert_eq!(threads, 1, "{nx}x{ny} solves on one thread");
            strategy
        };
        for k in 2..=10 {
            let side = (1 << k) + 1; // 5, 9, 17, ..., 1025
            assert_eq!(strategy(side, side), SolveStrategy::MultigridCg, "{side}");
        }
        assert_eq!(strategy(17, 33), SolveStrategy::MultigridCg);
        for side in [6, 20, 1001] {
            assert_eq!(strategy(side, side), SolveStrategy::JacobiPcg, "{side}");
        }
    }

    #[test]
    fn all_strategies_agree_on_a_loaded_mesh() -> Result<(), GridError> {
        // 9x9 fits the ladder and 10x10 does not, so the plan runs each
        // algorithm once; on the 9x9 both also run directly.
        for n in [9, 10] {
            let m = loaded_mesh(n, n);
            let reference = m.solve()?;
            let mut answers = vec![SolvePlan::auto().solve(&m)?, solve_pcg(&m)?];
            if multigrid::compatible(n, n) {
                answers.push(solve_mgcg(&m)?);
            }
            for v in &answers {
                for (a, b) in v.iter().zip(&reference) {
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "n={n} disagrees with SOR: {a} vs {b}"
                    );
                }
            }
        }
        Ok(())
    }
}
