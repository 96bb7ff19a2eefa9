//! Bump-cell mesh analysis: the numeric counterpart of
//! [`crate::analytic`].
//!
//! One bump cell (pitch × pitch) is discretized as a resistive sheet whose
//! effective sheet conductivity comes from rails of width `w` at the grid
//! pitch, the hot-spot current is spread uniformly over the cell, and the
//! bump pins the centre node. The worst mesh drop validates the analytic
//! `k_geo` factor.
//!
//! The cell is linear, with one edge conductance `g = (w/P)/ρ_s` and one
//! per-node injection `i = j·h²`, so its solution is exactly `(i/g)·u_n`,
//! where `u_n` solves the unit cell (`g = 1`, `i = 1`) on the same `n × n`
//! mesh. [`MeshCache`] solves that unit cell once per side `n` and scales
//! its worst drop for every node, pitch and width. The free functions
//! [`mesh_worst_drop`] and [`mesh_worst_drop_with_resolution`] solve the
//! physical cell directly with the reference SOR, as the cache's oracle.

use crate::analytic::hotspot_current_density;
use crate::error::GridError;
use crate::plan::SolvePlan;
use crate::solver::MeshProblem;
use np_roadmap::TechNode;
use np_units::{guard, Microns, Volts};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default mesh resolution per bump cell (nodes per side).
pub const DEFAULT_RESOLUTION: usize = 33;

/// Numeric worst-case IR drop in a bump cell of `pitch` with rails of
/// `rail_width` at the same pitch (one rail per cell per direction),
/// solved by the reference SOR ([`MeshProblem::solve`]).
///
/// # Errors
///
/// Propagates solver errors; rejects non-positive geometry and geometry
/// whose edge conductance or injection is not finite
/// ([`GridError::NonFinite`]).
pub fn mesh_worst_drop(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
) -> Result<Volts, GridError> {
    mesh_worst_drop_with_resolution(node, pitch, rail_width, DEFAULT_RESOLUTION)
}

/// [`mesh_worst_drop`] at an explicit resolution (for convergence
/// studies).
///
/// # Errors
///
/// Same as [`mesh_worst_drop`]; additionally rejects resolutions < 5.
pub fn mesh_worst_drop_with_resolution(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
    resolution: usize,
) -> Result<Volts, GridError> {
    let cell = BumpCell::new(node, pitch, rail_width, resolution)?;
    let v = cell_problem(cell.side, cell.conductance, cell.i_per_node).solve()?;
    Ok(worst_drop_of(&v))
}

/// The three numbers a bump cell depends on: its mesh side, its edge
/// conductance and its per-node injection current.
#[derive(Debug)]
struct BumpCell {
    side: usize,
    conductance: f64,
    i_per_node: f64,
}

impl BumpCell {
    /// The cell of `node` at `pitch` with rails of `rail_width`, on a
    /// mesh of `resolution` nodes per side (an even resolution rounds up
    /// to the next odd side, so the bump sits on a node).
    ///
    /// # Errors
    ///
    /// Rejects non-positive geometry, resolutions < 5, and geometry whose
    /// edge conductance or per-node injection is not finite and positive
    /// (an infinite pitch or width, or a pitch whose `h²` overflows).
    fn new(
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
    ) -> Result<Self, GridError> {
        if !(pitch.0 > 0.0 && rail_width.0 > 0.0) {
            return Err(GridError::BadParameter("pitch and width must be positive"));
        }
        if resolution < 5 {
            return Err(GridError::BadParameter("resolution must be at least 5"));
        }
        let side = resolution | 1;
        let rho_s = node.params().top_metal_sheet_resistance().0; // Ω/sq
        let j = hotspot_current_density(node); // A/µm²
        let h = pitch.0 / (side as f64 - 1.0); // µm per mesh step
        Ok(Self {
            side,
            // Rails of width w at pitch P give the sheet an effective
            // sheet conductivity of (w/P)/ρ_s per routing direction; a
            // square mesh edge then has that conductance.
            conductance: guard::finite_positive(
                (rail_width.0 / pitch.0) / rho_s,
                "edge conductance",
                "bump cell",
            )?,
            i_per_node: guard::finite_positive(j * h * h, "injection", "bump cell")?,
        })
    }

    /// This cell's worst drop from the worst drop `unit` of the unit cell
    /// of the same side: `(i/g)·unit`. Every [`MeshCache`] answer, fresh
    /// or tabled, goes through here.
    ///
    /// # Errors
    ///
    /// [`GridError::NonFinite`] when the product overflows.
    fn scale(&self, unit: f64) -> Result<Volts, GridError> {
        let drop = (self.i_per_node / self.conductance) * unit;
        Ok(Volts(guard::finite(drop, "worst drop", "bump cell")?))
    }
}

/// The `side × side` bump-cell mesh with edge conductance `g`, injection
/// `i` at every node, and the centre node pinned.
fn cell_problem(side: usize, g: f64, i: f64) -> MeshProblem {
    let mut m = MeshProblem::new(side, side, g);
    m.injection.fill(i);
    let centre = m.index(side / 2, side / 2);
    m.pinned[centre] = true;
    m
}

/// The worst (most negative) node voltage, reported as a positive drop.
fn worst_drop_of(v: &[f64]) -> Volts {
    Volts(-v.iter().copied().fold(f64::INFINITY, f64::min))
}

/// A table of unit bump-cell worst drops, one per mesh side, from which
/// every node's drop is a scaling.
///
/// A lookup at a side not yet tabled assembles the unit cell and solves
/// it once through [`SolvePlan::auto`]; every later lookup at that side,
/// for any node, pitch or width, is a table read. Fresh or tabled, the
/// answer is the same scaling of the same unit solve, so it carries the
/// same bits. The table sits behind one lock that is never held across a
/// solve, so one cache can serve concurrent callers; two callers that
/// miss the same side at once both solve it, with identical results.
///
/// ```
/// use np_grid::mesh::{mesh_worst_drop, MeshCache, DEFAULT_RESOLUTION};
/// use np_roadmap::TechNode;
/// use np_units::Microns;
///
/// let cache = MeshCache::new();
/// let n = DEFAULT_RESOLUTION;
/// let n50 = cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), n)?;
/// // Another node and geometry at the same resolution is a table read.
/// let n35 = cache.worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), n)?;
/// assert!(n50.0 > 0.0);
/// // The reference SOR solves the physical cell directly.
/// let direct = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))?;
/// assert!((n35.0 - direct.0).abs() <= 1e-6 * direct.0);
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Default)]
pub struct MeshCache {
    /// Worst drop of the unit cell, keyed by mesh side.
    unit_drops: Mutex<HashMap<usize, f64>>,
}

impl MeshCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached counterpart of [`mesh_worst_drop_with_resolution`]: the
    /// unit drop at the cell's side, scaled by `i/g`.
    ///
    /// # Errors
    ///
    /// The same input errors as [`mesh_worst_drop_with_resolution`],
    /// checked on the physical cell before any table lookup; the unit
    /// solve's errors on a miss; [`GridError::NonFinite`] when the
    /// scaled drop overflows.
    pub fn worst_drop_with_resolution(
        &self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
    ) -> Result<Volts, GridError> {
        let cell = BumpCell::new(node, pitch, rail_width, resolution)?;
        cell.scale(self.unit_drop(cell.side)?)
    }

    /// The unit cell's worst drop at `side`: a table read on a hit, one
    /// solve on a miss.
    fn unit_drop(&self, side: usize) -> Result<f64, GridError> {
        let tabled = self.lock().get(&side).copied();
        if let Some(unit) = tabled {
            np_telemetry::counter("grid.mesh_cache.hit", 1);
            return Ok(unit);
        }
        np_telemetry::counter("grid.mesh_cache.miss", 1);
        let unit = worst_drop_of(&SolvePlan::auto().solve(&cell_problem(side, 1.0, 1.0))?).0;
        self.lock().insert(side, unit);
        Ok(unit)
    }

    /// The table lock. A panic elsewhere cannot leave the table
    /// half-written (each update is one insert), so a poisoned lock is
    /// recovered.
    fn lock(&self) -> MutexGuard<'_, HashMap<usize, f64>> {
        self.unit_drops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::worst_case_drop;

    /// The default mesh side, short for the cache lookups below.
    const N: usize = DEFAULT_RESOLUTION;

    /// `(misses, hits)`: the cache lookups counted on `collector`.
    fn lookups(collector: &np_telemetry::Collector) -> (u64, u64) {
        let counters = collector.summary().counters;
        let count = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        (count("grid.mesh_cache.miss"), count("grid.mesh_cache.hit"))
    }

    #[test]
    fn mesh_and_analytic_agree_within_a_factor() -> Result<(), GridError> {
        // The analytic k_geo was chosen to track the mesh; demand
        // agreement within ±50% across nodes and widths.
        for (node, pitch, w) in [
            (TechNode::N35, 80.0, 4.0),
            (TechNode::N50, 90.0, 3.0),
            (TechNode::N70, 110.0, 2.0),
        ] {
            let mesh = mesh_worst_drop(node, Microns(pitch), Microns(w))?;
            let ana = worst_case_drop(node, Microns(pitch), Microns(w))?;
            let ratio = mesh.0 / ana.0;
            assert!(
                (0.5..=1.6).contains(&ratio),
                "{node} P={pitch} w={w}: mesh {mesh} vs analytic {ana} (ratio {ratio:.2})"
            );
        }
        Ok(())
    }

    #[test]
    fn mesh_drop_scales_inversely_with_width() -> Result<(), GridError> {
        let d2 = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(2.0))?;
        let d8 = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(8.0))?;
        let ratio = d2.0 / d8.0;
        assert!((ratio - 4.0).abs() < 0.1, "got {ratio}");
        Ok(())
    }

    #[test]
    fn resolution_convergence() -> Result<(), GridError> {
        let coarse =
            mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), 17)?;
        let fine = mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), 49)?;
        // The mesh refines the same physical sheet; answers drift by the
        // log-divergent point-pin correction but stay close.
        let ratio = fine.0 / coarse.0;
        assert!((0.7..=1.4).contains(&ratio), "got {ratio}");
        Ok(())
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(mesh_worst_drop(TechNode::N35, Microns(0.0), Microns(1.0)).is_err());
        assert!(
            mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(1.0), 3).is_err()
        );
    }

    #[test]
    fn cache_and_oracle_reject_unbounded_geometry() {
        // An infinite pitch zeroes the edge conductance, an infinite width
        // makes it infinite, and a huge pitch overflows h²: the cache must
        // return the oracle's typed error, not a scaled inf, 0 or NaN.
        let collector = np_telemetry::Collector::new();
        let _guard = np_telemetry::install(&collector);
        let cache = MeshCache::new();
        for (pitch, width) in [
            (f64::INFINITY, 3.0),
            (90.0, f64::INFINITY),
            (f64::INFINITY, f64::INFINITY),
            (1e200, 3.0),
        ] {
            let (pitch, width) = (Microns(pitch), Microns(width));
            for (who, got) in [
                (
                    "cache",
                    cache.worst_drop_with_resolution(TechNode::N50, pitch, width, N),
                ),
                ("oracle", mesh_worst_drop(TechNode::N50, pitch, width)),
            ] {
                assert!(
                    matches!(got, Err(GridError::NonFinite(_))),
                    "{who} at P={pitch} w={width}: {got:?}"
                );
            }
        }
        assert_eq!(
            lookups(&collector),
            (0, 0),
            "no rejected cell reaches the table"
        );
    }

    #[test]
    fn cache_matches_the_free_function() -> Result<(), GridError> {
        let collector = np_telemetry::Collector::new();
        let _guard = np_telemetry::install(&collector);
        let cache = MeshCache::new();
        let cached =
            cache.worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), N)?;
        let direct = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))?;
        // Different solvers (a scaled MGCG unit solve vs SOR on the
        // physical cell), same physics: agree to solver tolerance, far
        // tighter than the model's own accuracy.
        assert!(
            (cached.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
            "cached {cached} vs direct {direct}"
        );
        assert_eq!(lookups(&collector), (1, 0));
        Ok(())
    }

    #[test]
    fn repeat_solves_hit_the_cache_and_agree() -> Result<(), GridError> {
        let collector = np_telemetry::Collector::new();
        let _guard = np_telemetry::install(&collector);
        let cache = MeshCache::new();
        let first =
            cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), N)?;
        let second =
            cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), N)?;
        assert_eq!(first, second, "a table read gives the fresh solve's bits");
        assert_eq!(lookups(&collector), (1, 1));
        // Another geometry at the same side scales the same unit solve.
        let other =
            cache.worst_drop_with_resolution(TechNode::N50, Microns(91.0), Microns(3.0), N)?;
        assert_eq!(lookups(&collector), (1, 2));
        assert_eq!(
            other,
            MeshCache::new().worst_drop_with_resolution(
                TechNode::N50,
                Microns(91.0),
                Microns(3.0),
                N
            )?
        );
        // Another side is a fresh unit solve; an even resolution rounds up
        // to the odd side already tabled.
        cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), 17)?;
        cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), 16)?;
        assert_eq!(
            lookups(&collector),
            (3, 3),
            "the fresh cache above missed once"
        );
        Ok(())
    }

    #[test]
    fn scaled_injection_scales_the_drop_linearly() -> Result<(), GridError> {
        // The identity the cache rests on, checked with the SOR oracle:
        // the cell's drop is linear in its injection and inverse in its
        // conductance, so it is (i/g) times the unit cell's drop.
        let cell = BumpCell::new(TechNode::N35, Microns(80.0), Microns(4.0), 17)?;
        let (g, i) = (cell.conductance, cell.i_per_node);
        let sor = |g, i| {
            cell_problem(cell.side, g, i)
                .solve()
                .map(|v| worst_drop_of(&v).0)
        };
        let base = sor(g, i)?;
        let doubled = sor(g, 2.0 * i)?;
        let stiffer = sor(2.0 * g, i)?;
        let unit = sor(1.0, 1.0)?;
        for (got, want, what) in [
            (doubled, 2.0 * base, "twice the injection"),
            (stiffer, 0.5 * base, "twice the conductance"),
            (cell.scale(unit)?.0, base, "the scaled unit cell"),
        ] {
            assert!((got - want).abs() <= 1e-6 * want, "{what}: {got} vs {want}");
        }
        Ok(())
    }

    #[test]
    fn serve_cold_grid_ratio_is_pinned() -> Result<(), GridError> {
        // A spec's grid leg at serve-cold's 129²: the min-pitch plan of
        // its node. The unit solve is bit-reproducible, so the
        // mesh/analytic ratio moves only when one of the two models does.
        // Both drops scale alike with current density, pitch, sheet
        // resistance and rail width, so every node reads the same ratio
        // (to 1e-15).
        const RATIO_AT_129: f64 = 1.273_072_747_272_968;
        let collector = np_telemetry::Collector::new();
        let _guard = np_telemetry::install(&collector);
        let cache = MeshCache::new();
        for node in TechNode::ALL {
            let plan = crate::plan::GridPlan::min_pitch(node)?;
            let width = plan
                .rail_width
                .ok_or(GridError::BadParameter("min-pitch plan lost routability"))?;
            let mesh = cache.worst_drop_with_resolution(node, plan.bump_pitch, width, 129)?;
            let ratio = mesh.0 / worst_case_drop(node, plan.bump_pitch, width)?.0;
            assert!(
                (ratio / RATIO_AT_129 - 1.0).abs() <= 1e-12,
                "{node}: mesh/analytic {ratio:.17e}, pinned {RATIO_AT_129:.17e}"
            );
        }
        assert_eq!(lookups(&collector), (1, 5));
        Ok(())
    }

    #[test]
    fn cache_entries_agree_with_sor_on_and_off_the_ladder() -> Result<(), GridError> {
        // 33 fits the 2^k+1 ladder (MGCG), 31 does not (Jacobi-PCG); each
        // side's fresh and tabled answers match the SOR oracle.
        let (node, pitch, width) = (TechNode::N50, Microns(90.0), Microns(3.0));
        let cache = MeshCache::new();
        for resolution in [33, 31] {
            let collector = np_telemetry::Collector::new();
            let _guard = np_telemetry::install(&collector);
            let direct = mesh_worst_drop_with_resolution(node, pitch, width, resolution)?;
            for _ in 0..2 {
                let cached = cache.worst_drop_with_resolution(node, pitch, width, resolution)?;
                assert!(
                    (cached.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
                    "resolution {resolution}: cached {cached} vs SOR {direct}"
                );
            }
            assert_eq!(lookups(&collector), (1, 1), "resolution {resolution}");
        }
        Ok(())
    }

    #[test]
    fn one_cache_serves_concurrent_callers() -> Result<(), GridError> {
        // Every node from two threads at once through one cache: the
        // answers equal a fresh cache's, and each lookup counts once.
        let collector = np_telemetry::Collector::new();
        let _guard = np_telemetry::install(&collector);
        let cache = MeshCache::new();
        let drops = |cache: &MeshCache| -> Result<Vec<Volts>, GridError> {
            TechNode::ALL
                .iter()
                .map(|&node| {
                    cache.worst_drop_with_resolution(node, Microns(90.0), Microns(3.0), 17)
                })
                .collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let _guard = np_telemetry::install(&collector);
                drops(&cache)
            });
            let b = drops(&cache);
            (a.join().unwrap_or_else(|e| std::panic::resume_unwind(e)), b)
        });
        let (a, b) = (a?, b?);
        assert_eq!(a, b);
        let (misses, hits) = lookups(&collector);
        assert_eq!(misses + hits, 2 * TechNode::ALL.len() as u64);
        // The side is tabled once, whoever solved it.
        cache.worst_drop_with_resolution(TechNode::N50, Microns(90.0), Microns(3.0), 17)?;
        assert_eq!(lookups(&collector), (misses, hits + 1));
        assert_eq!(a, drops(&MeshCache::new())?);
        Ok(())
    }
}
