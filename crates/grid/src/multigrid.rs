//! Geometric multigrid for the power-grid Poisson solve.
//!
//! The mesh Laplacian of a `2^k+1 × 2^j+1` grid coarsens geometrically:
//! every other node in each direction forms the next level, whose
//! operator is the *same* `g·L` graph Laplacian on the smaller grid.
//! A V-cycle then drives every error wavelength at the level where it is
//! cheap to damp:
//!
//! 1. **smooth** — a few red-black Gauss-Seidel sweeps (the `ω = 1`
//!    special case of the SOR half-sweep) kill the high-frequency error;
//! 2. **restrict** — the remaining smooth residual moves to the next
//!    coarser grid by full weighting (the 9-point `1/16·[1 2 1; 2 4 2;
//!    1 2 1]` stencil), scaled by 4 because the coarse `g·L` operator
//!    discretizes a `(2h)²` cell;
//! 3. **recurse** — down to a ≤ 9-node-per-side grid solved (near-)
//!    exactly by Jacobi-PCG;
//! 4. **prolongate** — the coarse correction interpolates back
//!    bilinearly and a few more sweeps smooth the interpolation error.
//!
//! The total work per cycle is a small constant number of fine-grid
//! sweeps (the level sizes form a geometric series). One symmetrized
//! cycle (red-black pre-sweeps, black-red post-sweeps, near-exact coarse
//! solve) preconditions the shared CG kernel in [`solve_mgcg`] (MGCG),
//! whose iteration count is essentially mesh-independent — the solve is
//! O(N) where Jacobi-PCG is O(N^1.5). [`crate::plan::SolvePlan`] runs it
//! on every mesh that fits the ladder. The cycle runs sequentially on the
//! calling thread, so the result is a pure function of the problem.
//!
//! Dirichlet pins coarsen conservatively: a coarse node is pinned when
//! *any* fine pin falls in the 3×3 fine neighborhood it represents, so
//! pins always survive to the coarsest grid (every level stays
//! non-singular) and corrections never move a pinned node. Pin-adjacent
//! restriction/interpolation error only costs convergence *rate*, never
//! correctness — acceptance is always the fine-grid residual reaching
//! the CG-family tolerance `1e-12·‖b‖`.

use crate::cg::{apply, pcg_kernel, solve_pcg};
use crate::error::GridError;
use crate::solver::MeshProblem;

/// Coarsening stops once a level reaches this many nodes per side; the
/// resulting ≤ 9×9 system is handed to the (near-exact) PCG coarse
/// solver.
pub const MG_COARSEST_SIDE: usize = 9;

/// Gauss-Seidel sweeps before restriction at each level.
const PRE_SWEEPS: usize = 2;

/// Gauss-Seidel sweeps after prolongation at each level (run black-red,
/// mirroring the pre-sweeps, so the V-cycle is a symmetric operator and
/// therefore a valid CG preconditioner).
const POST_SWEEPS: usize = 2;

/// The full-weighting restriction stencil, `[dy+1][dx+1]`-indexed.
const FW_WEIGHTS: [[f64; 3]; 3] = [
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
    [1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0],
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
];

/// Whether a `nx × ny` mesh fits the geometric coarsening ladder (both
/// dimensions of the form `2^k+1`) — the meshes [`solve_mgcg`] accepts.
pub(crate) fn compatible(nx: usize, ny: usize) -> bool {
    let fits = |n: usize| n >= 3 && (n - 1).is_power_of_two();
    fits(nx) && fits(ny)
}

/// One level of the V-cycle: its correction problem (the `injection`
/// rewritten every cycle; level 0 starts as the caller's problem), the
/// level solution, and a residual scratch vector.
struct Level {
    m: MeshProblem,
    x: Vec<f64>,
    r: Vec<f64>,
}

impl Level {
    fn new(m: MeshProblem) -> Self {
        let n = m.nx * m.ny;
        Self {
            m,
            x: vec![0.0; n],
            r: vec![0.0; n],
        }
    }
}

/// Builds the level ladder for `m`, finest first, coarsening until a side
/// reaches [`MG_COARSEST_SIDE`].
///
/// # Errors
///
/// Those of [`MeshProblem::validate`], plus
/// [`GridError::BadParameter`] when either dimension is not `2^k+1`.
fn build_levels(m: &MeshProblem) -> Result<Vec<Level>, GridError> {
    m.validate()?;
    if !compatible(m.nx, m.ny) {
        return Err(GridError::BadParameter(
            "multigrid needs 2^k+1 nodes per side",
        ));
    }
    let mut levels = vec![Level::new(m.clone())];
    loop {
        let last = &levels[levels.len() - 1].m;
        if last.nx <= MG_COARSEST_SIDE || last.ny <= MG_COARSEST_SIDE {
            break;
        }
        let (nxc, nyc) = ((last.nx - 1) / 2 + 1, (last.ny - 1) / 2 + 1);
        let coarse = MeshProblem {
            nx: nxc,
            ny: nyc,
            edge_conductance: m.edge_conductance,
            injection: vec![0.0; nxc * nyc],
            pinned: coarsen_pins(last, nxc, nyc),
        };
        levels.push(Level::new(coarse));
    }
    Ok(levels)
}

/// A coarse node is pinned when any fine pin falls in the 3×3 fine
/// neighborhood of its image `(2x, 2y)` — conservative, so every pin
/// survives coarsening and each level keeps at least one Dirichlet node.
fn coarsen_pins(fine: &MeshProblem, nxc: usize, nyc: usize) -> Vec<bool> {
    let mut pinned = vec![false; nxc * nyc];
    for yc in 0..nyc {
        for xc in 0..nxc {
            let (fx, fy) = (2 * xc, 2 * yc);
            let mut any = false;
            for py in fy.saturating_sub(1)..=(fy + 1).min(fine.ny - 1) {
                for px in fx.saturating_sub(1)..=(fx + 1).min(fine.nx - 1) {
                    any |= fine.pinned[py * fine.nx + px];
                }
            }
            pinned[yc * nxc + xc] = any;
        }
    }
    pinned
}

/// `sweeps` Gauss-Seidel sweeps over `m`, each visiting `colors[0]` then
/// `colors[1]`.
fn smooth(m: &MeshProblem, x: &mut [f64], sweeps: usize, colors: [usize; 2]) {
    for _ in 0..sweeps {
        for color in colors {
            gauss_seidel_pass(m, x, color);
        }
    }
}

/// One red-black Gauss-Seidel half-sweep updating only nodes of `color`
/// — the `ω = 1` case of the SOR sweep in [`MeshProblem::solve`].
/// Same-color nodes never neighbor each other, so every update in the
/// pass reads only opposite-color values.
fn gauss_seidel_pass(m: &MeshProblem, v: &mut [f64], color: usize) {
    let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
    for y in 0..ny {
        for x in 0..nx {
            if (x + y) % 2 != color {
                continue;
            }
            let i = y * nx + x;
            if m.pinned[i] {
                continue;
            }
            let mut sum = 0.0;
            let mut deg = 0.0;
            if x > 0 {
                sum += v[i - 1];
                deg += 1.0;
            }
            if x + 1 < nx {
                sum += v[i + 1];
                deg += 1.0;
            }
            if y > 0 {
                sum += v[i - nx];
                deg += 1.0;
            }
            if y + 1 < ny {
                sum += v[i + nx];
                deg += 1.0;
            }
            // KCL: deg*g*v_i = g*sum - I_i  (I positive = draw). The
            // update is written as a relaxation step at ω = 1, which
            // rounds differently from storing `target` directly.
            let target = (g * sum - m.injection[i]) / (deg * g);
            let cur = v[i];
            v[i] = cur + (target - cur);
        }
    }
}

/// `r = b − A·x` for the level problem (`b` being `−injection` at free
/// nodes, `0` at pinned ones — where `x` is held at `0`, so `r` is `0`
/// there too).
fn residual(m: &MeshProblem, x: &[f64], r: &mut [f64]) {
    apply(m, x, r);
    for (i, ri) in r.iter_mut().enumerate() {
        let b = if m.pinned[i] { 0.0 } else { -m.injection[i] };
        *ri = b - *ri;
    }
}

/// Full-weighting restriction of the fine residual into the coarse
/// level's correction problem.
///
/// The coarse operator is the same `g·L` graph Laplacian, which in
/// continuum terms discretizes a `(2h)²` cell — so the restricted
/// residual scales by 4 per coarsening. Stencil taps falling outside the
/// grid (or on a pinned fine node, whose residual is zero) contribute
/// nothing; boundary underweighting costs rate, not correctness.
fn restrict_residual(fine: &MeshProblem, r: &[f64], coarse: &mut MeshProblem) {
    let (nxf, nyf) = (fine.nx as isize, fine.ny as isize);
    let nxc = coarse.nx;
    for yc in 0..coarse.ny {
        for xc in 0..nxc {
            let ic = yc * nxc + xc;
            if coarse.pinned[ic] {
                coarse.injection[ic] = 0.0;
                continue;
            }
            let (fx, fy) = (2 * xc as isize, 2 * yc as isize);
            let mut acc = 0.0;
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let (px, py) = (fx + dx as isize, fy + dy as isize);
                    if px < 0 || py < 0 || px >= nxf || py >= nyf {
                        continue;
                    }
                    #[allow(clippy::cast_sign_loss)]
                    let fi = (py * nxf + px) as usize;
                    acc += FW_WEIGHTS[(dy + 1) as usize][(dx + 1) as usize] * r[fi];
                }
            }
            // Solver convention: the level solves A·v = −injection.
            coarse.injection[ic] = -(4.0 * acc);
        }
    }
}

/// Adds the bilinear interpolation of the coarse correction into the
/// fine solution; pinned fine nodes stay exactly at the rail.
fn prolong_add(coarse: &MeshProblem, xc: &[f64], fine: &MeshProblem, x: &mut [f64]) {
    let nxc = coarse.nx;
    let at = |cx: usize, cy: usize| xc[cy * nxc + cx];
    for fy in 0..fine.ny {
        for fx in 0..fine.nx {
            let i = fy * fine.nx + fx;
            if fine.pinned[i] {
                continue;
            }
            let (cx, cy) = (fx / 2, fy / 2);
            let corr = match (fx % 2, fy % 2) {
                (0, 0) => at(cx, cy),
                (1, 0) => 0.5 * (at(cx, cy) + at(cx + 1, cy)),
                (0, 1) => 0.5 * (at(cx, cy) + at(cx, cy + 1)),
                _ => 0.25 * (at(cx, cy) + at(cx + 1, cy) + at(cx, cy + 1) + at(cx + 1, cy + 1)),
            };
            x[i] += corr;
        }
    }
}

/// One V-cycle over `levels` (the slice starting at the current level).
///
/// `work` accumulates fine-grid-sweep equivalents: each sweep at a level
/// counts as its node-count fraction of the finest grid, plus two
/// sweeps' worth per level visit for the residual/restrict/prolongate
/// passes — the currency the bench harness compares against PCG
/// iteration counts.
fn v_cycle(
    levels: &mut [Level],
    depth: usize,
    fine_nodes: f64,
    work: &mut f64,
) -> Result<(), GridError> {
    let Some((cur, rest)) = levels.split_first_mut() else {
        return Err(GridError::BadParameter("multigrid hierarchy is empty"));
    };
    let _level_span = np_telemetry::shard_span("grid.mg.level", depth);
    let nodes = (cur.m.nx * cur.m.ny) as f64;
    let Some(next) = rest.first_mut() else {
        // Coarsest grid: a ≤ 9×9 system, solved near-exactly.
        cur.x = solve_pcg(&cur.m)?;
        *work += nodes / fine_nodes;
        return Ok(());
    };
    smooth(&cur.m, &mut cur.x, PRE_SWEEPS, [0, 1]);
    residual(&cur.m, &cur.x, &mut cur.r);
    restrict_residual(&cur.m, &cur.r, &mut next.m);
    next.x.fill(0.0);
    v_cycle(rest, depth + 1, fine_nodes, work)?;
    let next = &rest[0];
    prolong_add(&next.m, &next.x, &cur.m, &mut cur.x);
    smooth(&cur.m, &mut cur.x, POST_SWEEPS, [1, 0]);
    *work += ((PRE_SWEEPS + POST_SWEEPS) as f64 + 2.0) * nodes / fine_nodes;
    Ok(())
}

/// Solves the mesh by multigrid-preconditioned conjugate gradients
/// (MGCG): the preconditioned-CG kernel of [`crate::cg::solve_pcg`] with
/// one symmetrized V-cycle as the preconditioner instead of the Jacobi
/// diagonal.
///
/// Converges to the same `1e-12·‖b‖` tolerance in a near-mesh-independent
/// number of iterations, each O(N). Both sides of `m` must be `2^k+1`;
/// the level ladder is built per call, and the iteration starts from
/// zero, exactly as in [`solve_pcg`].
///
/// ```
/// use np_grid::multigrid::solve_mgcg;
/// use np_grid::solver::MeshProblem;
///
/// let mut m = MeshProblem::new(17, 17, 1.0);
/// m.injection = vec![1e-4; 17 * 17];
/// let centre = m.index(8, 8);
/// m.pinned[centre] = true;
/// let v = solve_mgcg(&m)?;
/// assert_eq!(v.len(), 17 * 17);
/// assert_eq!(v[centre], 0.0); // the bump stays at the rail
/// assert_eq!(v, solve_mgcg(&m)?); // a fixed sequence of operations
/// # Ok::<(), np_grid::GridError>(())
/// ```
///
/// # Errors
///
/// Those of [`MeshProblem::validate`]; [`GridError::BadParameter`] when
/// a side of `m` is not `2^k+1`; [`GridError::NoConvergence`] when the
/// iteration stalls.
pub fn solve_mgcg(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    let mut levels = build_levels(m)?;
    let _span = np_telemetry::span("grid.mgcg.solve");
    let fine_nodes = (m.nx * m.ny) as f64;
    let mut work = 0.0f64;
    let run = pcg_kernel(m, |r, z| {
        apply_preconditioner(&mut levels, r, z, fine_nodes, &mut work)
    });
    // Each mat-vec plus its iteration's vector updates costs about two
    // fine-grid sweeps.
    let work = work + 2.0 * run.matvecs as f64;
    np_telemetry::counter("grid.mgcg.iterations", run.iterations as u64);
    np_telemetry::counter("grid.mgcg.sweeps_equivalent", work.round() as u64);
    np_telemetry::value("grid.mgcg.sweeps_equivalent", work);
    np_telemetry::value("grid.mgcg.final_residual", run.final_residual);
    run.result
}

/// `z = M⁻¹·r` where `M⁻¹` is one V-cycle from a zero guess on the
/// correction system `A·z = r`. The cycle's symmetric smoothing order
/// and near-exact coarse solve make `M` symmetric positive-definite, as
/// CG requires of its preconditioner.
fn apply_preconditioner(
    levels: &mut [Level],
    r: &[f64],
    z: &mut [f64],
    fine_nodes: f64,
    work: &mut f64,
) -> Result<(), GridError> {
    let Some(fine) = levels.first_mut() else {
        return Err(GridError::BadParameter("multigrid hierarchy is empty"));
    };
    for (inj, ri) in fine.m.injection.iter_mut().zip(r) {
        *inj = -ri; // level convention: A·v = −injection
    }
    fine.x.fill(0.0);
    v_cycle(levels, 0, fine_nodes, work)?;
    z.copy_from_slice(&levels[0].x);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::solve_pcg;

    fn loaded(n: usize) -> MeshProblem {
        let mut m = MeshProblem::new(n, n, 1.3);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        m
    }

    /// Reads one summed counter out of a collector summary.
    fn counter(summary: &np_telemetry::Summary, name: &str) -> Option<u64> {
        summary
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    #[test]
    fn hierarchy_ladder_has_the_expected_depth() -> Result<(), GridError> {
        let depth = |n| build_levels(&loaded(n)).map(|levels| levels.len());
        assert_eq!(depth(33)?, 3, "33 -> 17 -> 9");
        assert_eq!(depth(9)?, 1, "9 is already the coarsest");
        assert_eq!(depth(129)?, 5, "129 -> 65 -> 33 -> 17 -> 9");
        Ok(())
    }

    #[test]
    fn non_pow2_plus_one_meshes_are_a_typed_bad_parameter() {
        for n in [12usize, 16, 30, 100] {
            let mut m = MeshProblem::new(n, n, 1.0);
            let pin = m.index(n / 2, n / 2);
            m.pinned[pin] = true;
            m.injection = vec![1e-3; n * n];
            assert!(!compatible(n, n), "n={n} is off the ladder");
            assert!(
                matches!(solve_mgcg(&m), Err(GridError::BadParameter(_))),
                "n={n} must be rejected for MGCG"
            );
        }
        // 2x2 passes MeshProblem::new but not the coarsening ladder.
        let mut m = MeshProblem::new(2, 2, 1.0);
        m.pinned[0] = true;
        assert!(matches!(solve_mgcg(&m), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn multigrid_matches_sor_and_pcg() -> Result<(), GridError> {
        for n in [9usize, 17, 33] {
            let m = loaded(n);
            let sor = m.solve()?;
            let mg = solve_mgcg(&m)?;
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - mg[i]).abs() < 1e-6 * (1.0 + sor[i].abs()),
                    "n={n} node {i}: SOR {} vs MGCG {}",
                    sor[i],
                    mg[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn mgcg_matches_pcg() -> Result<(), GridError> {
        for n in [17usize, 33] {
            let m = loaded(n);
            let pcg = solve_pcg(&m)?;
            let mgcg = solve_mgcg(&m)?;
            for i in 0..pcg.len() {
                assert!(
                    (pcg[i] - mgcg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()),
                    "n={n} node {i}: PCG {} vs MGCG {}",
                    pcg[i],
                    mgcg[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn off_centre_and_multiple_pins_survive_coarsening() -> Result<(), GridError> {
        for pins in [vec![(0usize, 0usize)], vec![(1, 2), (31, 30), (16, 0)]] {
            let mut m = MeshProblem::new(33, 33, 1.0);
            for &(x, y) in &pins {
                let i = m.index(x, y);
                m.pinned[i] = true;
            }
            m.injection = vec![1e-3; 33 * 33];
            let mg = solve_mgcg(&m)?;
            let pcg = solve_pcg(&m)?;
            for i in 0..mg.len() {
                assert!(
                    (pcg[i] - mg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()),
                    "pins {pins:?} node {i}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn rectangular_meshes_coarsen_per_dimension() -> Result<(), GridError> {
        let mut m = MeshProblem::new(17, 33, 1.0);
        let pin = m.index(8, 16);
        m.pinned[pin] = true;
        m.injection = vec![1e-3; 17 * 33];
        let mg = solve_mgcg(&m)?;
        let pcg = solve_pcg(&m)?;
        for i in 0..mg.len() {
            assert!((pcg[i] - mg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()));
        }
        Ok(())
    }

    #[test]
    fn zero_injection_short_circuits_to_zeros() -> Result<(), GridError> {
        let mut m = MeshProblem::new(17, 17, 1.0);
        let pin = m.index(8, 8);
        m.pinned[pin] = true;
        assert_eq!(solve_mgcg(&m)?, vec![0.0; 17 * 17]);
        Ok(())
    }

    #[test]
    fn multigrid_beats_pcg_on_sweeps_equivalent() -> Result<(), GridError> {
        // The acceptance currency: MGCG's total fine-grid-sweep
        // equivalents must undercut PCG's iteration count by ≥5× from
        // 257×257 up (the gap only widens with N — PCG iterations grow
        // ~O(nx): 381/841/1954 at 129/257/513, while MGCG stays nearly
        // flat at ~140). Separate collectors: the V-cycle's coarse
        // solves also emit `grid.pcg.iterations`, which would pollute a
        // shared one.
        let m = loaded(257);
        let pcg_collector = np_telemetry::Collector::new();
        {
            let _guard = np_telemetry::install(&pcg_collector);
            solve_pcg(&m)?;
        }
        let mgcg_collector = np_telemetry::Collector::new();
        {
            let _guard = np_telemetry::install(&mgcg_collector);
            solve_mgcg(&m)?;
        }
        let pcg_iters = counter(&pcg_collector.summary(), "grid.pcg.iterations").unwrap_or(0);
        let mgcg_sweeps =
            counter(&mgcg_collector.summary(), "grid.mgcg.sweeps_equivalent").unwrap_or(0);
        assert!(
            pcg_iters >= 5 * mgcg_sweeps,
            "PCG {pcg_iters} iterations vs MGCG {mgcg_sweeps} sweep-equivalents"
        );
        Ok(())
    }
}
