//! Bump-cell mesh analysis: the numeric counterpart of
//! [`crate::analytic`].
//!
//! One bump cell (pitch × pitch) is discretized as a resistive sheet whose
//! effective sheet conductivity comes from rails of width `w` at the grid
//! pitch, the hot-spot current is spread uniformly over the cell, and the
//! bump pins the centre node. The worst mesh drop validates the analytic
//! `k_geo` factor.

use crate::analytic::hotspot_current_density;
use crate::error::GridError;
use crate::plan::SolvePlan;
use crate::solver::MeshProblem;
use np_roadmap::TechNode;
use np_units::{Microns, Volts};
use std::collections::HashMap;

/// Default mesh resolution per bump cell (nodes per side).
pub const DEFAULT_RESOLUTION: usize = 33;

/// Numeric worst-case IR drop in a bump cell of `pitch` with rails of
/// `rail_width` at the same pitch (one rail per cell per direction),
/// solved by the reference SOR ([`MeshProblem::solve`]).
///
/// # Errors
///
/// Propagates solver errors; rejects non-positive geometry.
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
    let (m, _i_per_node) = assemble_bump_cell(node, pitch, rail_width, resolution)?;
    let v = m.solve()?;
    Ok(worst_drop_of(&v))
}

/// Builds the bump-cell [`MeshProblem`] — effective sheet conductance
/// from rail geometry, uniform hot-spot injection, centre node pinned —
/// returning it together with the per-node injection current.
///
/// # Errors
///
/// Rejects non-positive geometry and resolutions < 5.
fn assemble_bump_cell(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
    resolution: usize,
) -> Result<(MeshProblem, f64), GridError> {
    if !(pitch.0 > 0.0 && rail_width.0 > 0.0) {
        return Err(GridError::BadParameter("pitch and width must be positive"));
    }
    if resolution < 5 {
        return Err(GridError::BadParameter("resolution must be at least 5"));
    }
    let n = if resolution.is_multiple_of(2) {
        resolution + 1
    } else {
        resolution
    };
    let rho_s = node.params().top_metal_sheet_resistance().0; // Ω/sq
                                                              // Rails of width w at pitch P give the sheet an effective sheet
                                                              // conductivity of (w/P)/ρ_s per routing direction; a square mesh edge
                                                              // then has that conductance.
    let sheet_conductance = (rail_width.0 / pitch.0) / rho_s;
    let mut m = MeshProblem::new(n, n, sheet_conductance);
    let j = hotspot_current_density(node); // A/µm²
    let h = pitch.0 / (n as f64 - 1.0); // µm per mesh step
    let i_per_node = j * h * h;
    for v in m.injection.iter_mut() {
        *v = i_per_node;
    }
    let centre = m.index(n / 2, n / 2);
    m.pinned[centre] = true;
    Ok((m, i_per_node))
}

/// The worst (most negative) node voltage, reported as a positive drop.
fn worst_drop_of(v: &[f64]) -> Volts {
    Volts(-v.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Cache key: everything `assemble_bump_cell` depends on, with
/// geometry keyed by exact bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    node: TechNode,
    pitch_bits: u64,
    width_bits: u64,
    resolution: usize,
}

/// One memoized mesh: the assembled problem at unit load, and the last
/// solution, which warm-starts the next solve.
#[derive(Debug, Clone)]
struct CacheEntry {
    problem: MeshProblem,
    warm: Option<Vec<f64>>,
    i_per_node: f64,
}

/// Memoizes bump-cell mesh assembly across repeated solves of one
/// geometry.
///
/// The cache keeps the assembled [`MeshProblem`] per distinct
/// `(node, pitch, width, resolution)` key and solves it through
/// [`SolvePlan::solve`], warm-started from the entry's previous
/// solution, so a repeat solve — at the same load or a scaled one
/// ([`MeshCache::worst_drop_scaled`]) — converges in a few iterations.
///
/// ```
/// use np_grid::mesh::MeshCache;
/// use np_roadmap::TechNode;
/// use np_units::Microns;
///
/// let mut cache = MeshCache::new();
/// let cold = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
/// let warm = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
/// assert!((cold.0 - warm.0).abs() <= 1e-9 * cold.0.abs());
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Default)]
pub struct MeshCache {
    entries: HashMap<CacheKey, CacheEntry>,
    hits: u64,
    misses: u64,
}

impl MeshCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached counterpart of [`mesh_worst_drop`].
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop`].
    pub fn worst_drop(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
    ) -> Result<Volts, GridError> {
        self.worst_drop_with_resolution(node, pitch, rail_width, DEFAULT_RESOLUTION)
    }

    /// Cached counterpart of [`mesh_worst_drop_with_resolution`].
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop_with_resolution`].
    pub fn worst_drop_with_resolution(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
    ) -> Result<Volts, GridError> {
        self.worst_drop_scaled(node, pitch, rail_width, resolution, 1.0)
    }

    /// [`MeshCache::worst_drop_with_resolution`] with the hot-spot
    /// injection scaled by `scale`: a load sweep over one geometry, where
    /// the current changes and the mesh does not.
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop_with_resolution`]; additionally rejects
    /// a non-finite or negative `scale`.
    pub fn worst_drop_scaled(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
        scale: f64,
    ) -> Result<Volts, GridError> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(GridError::BadParameter(
                "injection scale must be finite and non-negative",
            ));
        }
        let key = CacheKey {
            node,
            pitch_bits: pitch.0.to_bits(),
            width_bits: rail_width.0.to_bits(),
            resolution,
        };
        if let std::collections::hash_map::Entry::Vacant(slot) = self.entries.entry(key) {
            let (problem, i_per_node) = assemble_bump_cell(node, pitch, rail_width, resolution)?;
            slot.insert(CacheEntry {
                problem,
                warm: None,
                i_per_node,
            });
            self.misses += 1;
            np_telemetry::counter("grid.mesh_cache.miss", 1);
        } else {
            self.hits += 1;
            np_telemetry::counter("grid.mesh_cache.hit", 1);
        }
        // Entry exists by construction; avoid unwrap to satisfy the
        // crate-wide unwrap ban.
        let Some(entry) = self.entries.get_mut(&key) else {
            return Err(GridError::BadParameter("mesh cache entry vanished"));
        };
        let n_nodes = entry.problem.nx * entry.problem.ny;
        let m = MeshProblem {
            injection: vec![entry.i_per_node * scale; n_nodes],
            ..entry.problem.clone()
        };
        let v = SolvePlan::auto().solve(&m, entry.warm.as_deref())?;
        let drop = worst_drop_of(&v);
        entry.warm = Some(v);
        Ok(drop)
    }

    /// Solves served from a memoized mesh.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Solves that had to assemble the mesh first.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct meshes currently memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no meshes yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::worst_case_drop;

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
    fn cache_matches_the_free_function() -> Result<(), GridError> {
        let mut cache = MeshCache::new();
        let cached = cache.worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))?;
        let direct = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))?;
        // Different solvers (MGCG vs SOR), same physics: agree to
        // solver tolerance, far tighter than the model's own accuracy.
        assert!(
            (cached.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
            "cached {cached} vs direct {direct}"
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        assert_eq!(cache.len(), 1);
        Ok(())
    }

    #[test]
    fn repeat_solves_hit_the_cache_and_agree() -> Result<(), GridError> {
        let mut cache = MeshCache::new();
        let first = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
        let second = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
        assert!((first.0 - second.0).abs() <= 1e-9 * first.0.abs());
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A different geometry is a fresh entry, not a stale hit.
        cache.worst_drop(TechNode::N50, Microns(91.0), Microns(3.0))?;
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        Ok(())
    }

    #[test]
    fn scaled_injection_scales_the_drop_linearly() -> Result<(), GridError> {
        let mut cache = MeshCache::new();
        let base = cache.worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1.0)?;
        let doubled =
            cache.worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 2.0)?;
        // The operator is linear in the injection.
        assert!(
            (doubled.0 - 2.0 * base.0).abs() <= 1e-6 * base.0.abs(),
            "base {base}, doubled {doubled}"
        );
        assert!(cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, f64::NAN)
            .is_err());
        Ok(())
    }

    #[test]
    fn warm_started_scale_sweep_handles_zero_and_tiny_scales() -> Result<(), GridError> {
        // One cache, three scales, all on the same warm-started entry:
        // the second and third solves reuse the previous solution as the
        // starting guess, which is exactly the path that used to
        // break down for a zero injection (the residual decayed into
        // denormals chasing a clamped tolerance).
        let mut cache = MeshCache::new();
        let base = cache.worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1.0)?;
        assert!(base.0 > 0.0, "unit scale must produce a real drop: {base}");
        // scale = 0: no injection means no drop, exactly.
        let zero = cache.worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 0.0)?;
        assert_eq!(zero, Volts(0.0), "zero injection must yield a zero drop");
        // scale = 1e-9: linearity, warm-started from the zero solution.
        let tiny = cache.worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1e-9)?;
        assert!(
            (tiny.0 - 1e-9 * base.0).abs() <= 1e-6 * 1e-9 * base.0,
            "tiny-scale drop must stay linear: base {base}, tiny {tiny}"
        );
        // All three solves shared one assembled mesh.
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
        Ok(())
    }

    #[test]
    fn cache_entries_agree_with_sor_on_and_off_the_ladder() -> Result<(), GridError> {
        // 33 fits the 2^k+1 ladder (MGCG), 31 does not (Jacobi-PCG); each
        // entry's cold and warm-started solves match the SOR oracle.
        let (node, pitch, width) = (TechNode::N50, Microns(90.0), Microns(3.0));
        let mut cache = MeshCache::new();
        for resolution in [33, 31] {
            let direct = mesh_worst_drop_with_resolution(node, pitch, width, resolution)?;
            for _ in 0..2 {
                let cached = cache.worst_drop_with_resolution(node, pitch, width, resolution)?;
                assert!(
                    (cached.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
                    "resolution {resolution}: cached {cached} vs SOR {direct}"
                );
            }
        }
        assert_eq!((cache.misses(), cache.hits()), (2, 2));
        Ok(())
    }
}
