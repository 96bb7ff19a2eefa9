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
//! Each pass streams a level once. A smoothing call runs its four
//! half-sweeps as one row wavefront; the residual, the restriction and
//! the prolongation are one pass each. Every level solves `A·x = b` for
//! its right-hand side `b` (the negated injection of the problem form),
//! so level 0 reads CG's residual as `b` and writes the preconditioned
//! `z` in place. Interior nodes take the degree-4 stencil and edge or
//! pin-adjacent nodes the per-node rule, with the same floating-point
//! operations in the same order either way: the solution's bits do not
//! depend on the path (the `oracle` tests check each kernel against the
//! per-node rule bit for bit).
//!
//! Dirichlet pins coarsen conservatively: a coarse node is pinned when
//! *any* fine pin falls in the 3×3 fine neighborhood it represents, so
//! pins always survive to the coarsest grid (every level stays
//! non-singular) and corrections never move a pinned node. Pin-adjacent
//! restriction/interpolation error only costs convergence *rate*, never
//! correctness — acceptance is always the fine-grid residual reaching
//! the CG-family tolerance `1e-12·‖b‖`.

use crate::cg::{apply_node, pcg_kernel, solve_pcg, Stencil};
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

/// Full-weighting restriction weights: corner, edge and centre taps of
/// the `1/16·[1 2 1; 2 4 2; 1 2 1]` stencil.
const FW_CORNER: f64 = 1.0 / 16.0;
const FW_EDGE: f64 = 1.0 / 8.0;
const FW_CENTRE: f64 = 1.0 / 4.0;

/// The full-weighting stencil, `[dy+1][dx+1]`-indexed.
const FW_WEIGHTS: [[f64; 3]; 3] = [
    [FW_CORNER, FW_EDGE, FW_CORNER],
    [FW_EDGE, FW_CENTRE, FW_EDGE],
    [FW_CORNER, FW_EDGE, FW_CORNER],
];

/// Whether a `nx × ny` mesh fits the geometric coarsening ladder (both
/// dimensions of the form `2^k+1`) — the meshes [`solve_mgcg`] accepts.
pub(crate) fn compatible(nx: usize, ny: usize) -> bool {
    let fits = |n: usize| n >= 3 && (n - 1).is_power_of_two();
    fits(nx) && fits(ny)
}

/// One level of the V-cycle: its operator, the right-hand side `b` and
/// solution `x` of its correction system `A·x = b`, and a residual
/// scratch vector. Level 0 holds no `b` or `x`: its cycle reads CG's
/// residual as `b` and writes the preconditioned `z` in place. The
/// coarsest level holds no residual.
struct Level {
    op: Stencil,
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
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
    let mut ops = vec![Stencil::of(m)];
    loop {
        let last = &ops[ops.len() - 1];
        if last.nx <= MG_COARSEST_SIDE || last.ny <= MG_COARSEST_SIDE {
            break;
        }
        let (nxc, nyc) = ((last.nx - 1) / 2 + 1, (last.ny - 1) / 2 + 1);
        let pinned = coarsen_pins(last, nxc, nyc);
        ops.push(Stencil::new(nxc, nyc, m.edge_conductance, pinned));
    }
    let coarsest = ops.len() - 1;
    let levels = ops.into_iter().enumerate().map(|(k, op)| {
        let n = op.nx * op.ny;
        let sized = |keep: bool| if keep { vec![0.0; n] } else { Vec::new() };
        Level {
            b: sized(k > 0),
            x: sized(k > 0),
            r: sized(k < coarsest),
            op,
        }
    });
    Ok(levels.collect())
}

/// A coarse node is pinned when any fine pin falls in the 3×3 fine
/// neighborhood of its image `(2x, 2y)` — conservative, so every pin
/// survives coarsening and each level keeps at least one Dirichlet node.
fn coarsen_pins(fine: &Stencil, nxc: usize, nyc: usize) -> Vec<bool> {
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

/// `sweeps` red-black Gauss-Seidel sweeps of `A·x = b`, each visiting
/// `colors[0]` then `colors[1]`, run as one row wavefront: as the front
/// reaches row `t`, half-sweep `s` relaxes row `t − s`, for every `s` in
/// order. Half-sweep `s` thus reads rows `y − 1 ..= y + 1` after
/// half-sweep `s − 1` has relaxed them and before `s + 1` does — the
/// sequential order — while the level streams through the cache once.
///
/// From zero (`from_zero`), the front first fills its row with `0.0`
/// and the half-sweeps trail it by one more row, so every node they
/// read was zeroed first; the prior contents of `x` are never read.
fn smooth(
    op: &Stencil,
    b: &[f64],
    x: &mut [f64],
    sweeps: usize,
    colors: [usize; 2],
    from_zero: bool,
) {
    let half_sweeps = 2 * sweeps;
    let lag = usize::from(from_zero);
    for front in 0..op.ny + half_sweeps + lag - 1 {
        if from_zero && front < op.ny {
            x[front * op.nx..(front + 1) * op.nx].fill(0.0);
        }
        for s in 0..half_sweeps {
            if let Some(y) = front.checked_sub(s + lag).filter(|&y| y < op.ny) {
                relax_row(op, b, x, y, colors[s % 2]);
            }
        }
    }
}

/// One red-black Gauss-Seidel half-sweep over row `y`, updating only its
/// nodes of `color` — the `ω = 1` case of the SOR sweep in
/// [`MeshProblem::solve`]. Same-color nodes never neighbor each other,
/// so every update reads only opposite-color values. Interior nodes of
/// interior rows take the degree-4 rule; edge nodes take
/// [`relax_node`]'s per-node rule.
fn relax_row(op: &Stencil, b: &[f64], v: &mut [f64], y: usize, color: usize) {
    let (nx, ny, g) = (op.nx, op.ny, op.g);
    let first = (y + color) % 2;
    if y == 0 || y + 1 == ny {
        for x in (first..nx).step_by(2) {
            relax_node(op, b, v, x, y);
        }
        return;
    }
    // Node x has this color when x ≡ first (mod 2); a mesh row has at
    // least two nodes, so the two edge nodes are distinct.
    if first == 0 {
        relax_node(op, b, v, 0, y);
    }
    if (nx - 1) % 2 == first {
        relax_node(op, b, v, nx - 1, y);
    }
    let row = y * nx;
    let (above, rest) = v.split_at_mut(row);
    let (mid, below) = rest.split_at_mut(nx);
    let (up, down) = (&above[row - nx..], &below[..nx]);
    let (b, pins) = (&b[row..row + nx], &op.pinned[row..row + nx]);
    let check = op.pin_in_row[y];
    let diag = 4.0 * g;
    let mut x = if first == 0 { 2 } else { 1 };
    while x + 1 < nx {
        if !(check && pins[x]) {
            let sum = 0.0 + mid[x - 1] + mid[x + 1] + up[x] + down[x];
            let target = (g * sum + b[x]) / diag;
            let cur = mid[x];
            mid[x] = cur + (target - cur);
        }
        x += 2;
    }
}

/// The Gauss-Seidel update of node `(x, y)` by the per-node rule: pins
/// are skipped, neighbours read as stored, degree from the mesh edges.
fn relax_node(op: &Stencil, b: &[f64], v: &mut [f64], x: usize, y: usize) {
    let (nx, ny, g) = (op.nx, op.ny, op.g);
    let i = y * nx + x;
    if op.pinned[i] {
        return;
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
    // KCL: deg*g*v_i = g*sum + b_i  (b = −I, I positive = draw). The
    // update is written as a relaxation step at ω = 1, which rounds
    // differently from storing `target` directly.
    let target = (g * sum + b[i]) / (deg * g);
    let cur = v[i];
    v[i] = cur + (target - cur);
}

/// `r = b − A·x` for the level problem in one pass: `0 − x` at pinned
/// nodes (identity rows with a zero right-hand side), and the same
/// degree-4 / per-node split as [`crate::cg::apply`] elsewhere.
fn residual(op: &Stencil, b: &[f64], x: &[f64], r: &mut [f64]) {
    let (nx, g) = (op.nx, op.g);
    let node = |xc: usize, y: usize| {
        let i = y * nx + xc;
        let bi = if op.pinned[i] { 0.0 } else { b[i] };
        bi - apply_node(op, x, xc, y)
    };
    for y in 0..op.ny {
        if !op.unmasked_row(y) {
            for xc in 0..nx {
                r[y * nx + xc] = node(xc, y);
            }
            continue;
        }
        let row = y * nx;
        r[row] = node(0, y);
        r[row + nx - 1] = node(nx - 1, y);
        let (up, mid, down) = (
            &x[row - nx..row],
            &x[row..row + nx],
            &x[row + nx..row + 2 * nx],
        );
        let (b, r) = (&b[row..row + nx], &mut r[row..row + nx]);
        for xc in 1..nx - 1 {
            let acc = 0.0 + mid[xc - 1] + mid[xc + 1] + up[xc] + down[xc];
            r[xc] = b[xc] - g * (4.0 * mid[xc] - acc);
        }
    }
}

/// Full-weighting restriction of the fine residual into the coarse
/// level's right-hand side `b`.
///
/// The coarse operator is the same `g·L` graph Laplacian, which in
/// continuum terms discretizes a `(2h)²` cell — so the restricted
/// residual scales by 4 per coarsening. Stencil taps falling outside the
/// grid contribute nothing; boundary underweighting costs rate, not
/// correctness. Interior coarse nodes sum all nine taps, row by row,
/// in the order the per-node rule does.
fn restrict_residual(fine: &Stencil, r: &[f64], coarse: &Stencil, b: &mut [f64]) {
    let (nxf, nxc, nyc) = (fine.nx, coarse.nx, coarse.ny);
    for yc in 0..nyc {
        let interior_row = yc > 0 && yc + 1 < nyc;
        for xc in 0..nxc {
            let ic = yc * nxc + xc;
            if coarse.pinned[ic] {
                b[ic] = 0.0;
                continue;
            }
            let acc = if interior_row && xc > 0 && xc + 1 < nxc {
                let c = 2 * yc * nxf + 2 * xc;
                let (s, n) = (c - nxf, c + nxf);
                0.0 + FW_CORNER * r[s - 1]
                    + FW_EDGE * r[s]
                    + FW_CORNER * r[s + 1]
                    + FW_EDGE * r[c - 1]
                    + FW_CENTRE * r[c]
                    + FW_EDGE * r[c + 1]
                    + FW_CORNER * r[n - 1]
                    + FW_EDGE * r[n]
                    + FW_CORNER * r[n + 1]
            } else {
                restrict_node(fine, r, xc, yc)
            };
            b[ic] = 4.0 * acc;
        }
    }
}

/// The full-weighting sum at coarse node `(xc, yc)` by the per-node
/// rule, skipping taps outside the fine grid.
fn restrict_node(fine: &Stencil, r: &[f64], xc: usize, yc: usize) -> f64 {
    let (nxf, nyf) = (fine.nx as isize, fine.ny as isize);
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
    acc
}

/// Adds the bilinear interpolation of the coarse correction into the
/// fine solution; pinned fine nodes stay exactly at the rail. Fine node
/// `2c` of an even row takes coarse node `c`, odd nodes the mean of two
/// coarse nodes; odd rows average the coarse rows above and below.
fn prolong_add(coarse: &Stencil, xc: &[f64], fine: &Stencil, x: &mut [f64]) {
    let (nxf, nxc) = (fine.nx, coarse.nx);
    for fy in 0..fine.ny {
        let cy = fy / 2;
        let row = &mut x[fy * nxf..(fy + 1) * nxf];
        let pins = &fine.pinned[fy * nxf..(fy + 1) * nxf];
        let c0 = &xc[cy * nxc..(cy + 1) * nxc];
        // The interpolated correction at fine column `fx`.
        let corr = |fx: usize| {
            let cx = fx / 2;
            let at = |cx: usize, cy: usize| xc[cy * nxc + cx];
            match (fx % 2, fy % 2) {
                (0, 0) => at(cx, cy),
                (1, 0) => 0.5 * (at(cx, cy) + at(cx + 1, cy)),
                (0, 1) => 0.5 * (at(cx, cy) + at(cx, cy + 1)),
                _ => 0.25 * (at(cx, cy) + at(cx + 1, cy) + at(cx, cy + 1) + at(cx + 1, cy + 1)),
            }
        };
        if fine.pin_in_row[fy] {
            for (fx, xi) in row.iter_mut().enumerate() {
                if !pins[fx] {
                    *xi += corr(fx);
                }
            }
            continue;
        }
        // A pin-free row, by column pairs (2c, 2c + 1), then the last
        // even column.
        let last = nxf - 1;
        if fy.is_multiple_of(2) {
            for (pair, c) in row[..last].chunks_exact_mut(2).zip(c0.windows(2)) {
                pair[0] += c[0];
                pair[1] += 0.5 * (c[0] + c[1]);
            }
            row[last] += c0[nxc - 1];
        } else {
            let c1 = &xc[(cy + 1) * nxc..(cy + 2) * nxc];
            for ((pair, a), b) in row[..last]
                .chunks_exact_mut(2)
                .zip(c0.windows(2))
                .zip(c1.windows(2))
            {
                pair[0] += 0.5 * (a[0] + b[0]);
                pair[1] += 0.25 * (a[0] + a[1] + b[0] + b[1]);
            }
            row[last] += 0.5 * (c0[nxc - 1] + c1[nxc - 1]);
        }
    }
}

/// One V-cycle from zero on `A·x = b` over `levels` (the slice starting
/// at the current level).
///
/// `work` accumulates fine-grid-sweep equivalents: each sweep at a level
/// counts as its node-count fraction of the finest grid, plus two
/// sweeps' worth per level visit for the residual/restrict/prolongate
/// passes — the currency the bench harness compares against PCG
/// iteration counts.
fn v_cycle(
    levels: &mut [Level],
    b: &[f64],
    x: &mut [f64],
    depth: usize,
    fine_nodes: f64,
    work: &mut f64,
) -> Result<(), GridError> {
    let Some((cur, rest)) = levels.split_first_mut() else {
        return Err(GridError::BadParameter("multigrid hierarchy is empty"));
    };
    let _level_span = np_telemetry::shard_span("grid.mg.level", depth);
    let op = &cur.op;
    let nodes = (op.nx * op.ny) as f64;
    let Some(next) = rest.first_mut() else {
        // Coarsest grid: a ≤ 9×9 system, solved near-exactly by
        // Jacobi-PCG, which takes the problem as A·v = −injection.
        let coarsest = MeshProblem {
            nx: op.nx,
            ny: op.ny,
            edge_conductance: op.g,
            injection: b.iter().map(|bi| -bi).collect(),
            pinned: op.pinned.clone(),
        };
        x.copy_from_slice(&solve_pcg(&coarsest)?);
        *work += nodes / fine_nodes;
        return Ok(());
    };
    smooth(op, b, x, PRE_SWEEPS, [0, 1], true);
    residual(op, b, x, &mut cur.r);
    restrict_residual(op, &cur.r, &next.op, &mut next.b);
    let (next_b, mut next_x) = (std::mem::take(&mut next.b), std::mem::take(&mut next.x));
    let coarse = v_cycle(rest, &next_b, &mut next_x, depth + 1, fine_nodes, work);
    let next = &mut rest[0];
    (next.b, next.x) = (next_b, next_x);
    coarse?;
    prolong_add(&next.op, &next.x, op, x);
    smooth(op, b, x, POST_SWEEPS, [1, 0], false);
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
    // The preconditioner `z = M⁻¹·r` is one V-cycle from a zero guess on
    // the correction system `A·z = r`. The cycle's symmetric smoothing
    // order and near-exact coarse solve make `M` symmetric
    // positive-definite, as CG requires of its preconditioner.
    let run = pcg_kernel(m, |r, z| {
        v_cycle(&mut levels, r, z, 0, fine_nodes, &mut work)
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

#[cfg(test)]
mod oracle;

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
