//! Preconditioned conjugate gradients for the resistive mesh.
//!
//! A second, independent numeric method for the same
//! [`MeshProblem`]: the mesh Laplacian is
//! symmetric positive-definite once at least one node is pinned, so
//! conjugate gradients converge in at most `n` steps and typically far
//! fewer. Having two solvers lets the test suite cross-validate the
//! linear algebra itself, not just the physics built on it — and CG is
//! far faster than SOR on large meshes.
//!
//! One preconditioned-CG kernel serves both CG-family solvers; it takes
//! the preconditioner as a parameter:
//!
//! * [`solve_pcg`] — Jacobi-preconditioned CG (the inverse Laplacian
//!   diagonal). [`crate::plan::SolvePlan`] routes meshes off the 2^k+1
//!   ladder here, and the multigrid V-cycle solves its ≤ 9×9 coarsest
//!   level with it;
//! * [`crate::multigrid::solve_mgcg`] — the same iteration with one
//!   multigrid V-cycle as the preconditioner.
//!
//! Both take the mesh alone, start from zero, and run on the calling
//! thread. Callers normally pick a method through
//! [`crate::plan::SolvePlan`] rather than calling a specific solver
//! directly.
//!
//! The mat-vec (`apply`) runs each row in one pass: interior nodes of
//! rows with no pin within one row as the degree-4 stencil, every other
//! node by the masked per-node rule, with the same operations in the
//! same order. One loop per iteration updates `x` and `r` and folds
//! `‖r‖²` in index order, as `Iterator::sum` does.

use crate::error::GridError;
use crate::solver::MeshProblem;
use np_units::convergence::{Breakdown, ResidualTrace};

/// The mesh operator as the kernels read it: shape, edge conductance,
/// pin mask, and two per-row pin flags that choose between a row's
/// degree-4 interior path and the per-node rule.
pub(crate) struct Stencil {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) g: f64,
    pub(crate) pinned: Vec<bool>,
    /// Whether row `y` holds a pin.
    pub(crate) pin_in_row: Vec<bool>,
    /// Whether rows `y − 1 ..= y + 1` hold a pin.
    pin_near_row: Vec<bool>,
}

impl Stencil {
    /// The operator of an `nx × ny` mesh with edge conductance `g`.
    pub(crate) fn new(nx: usize, ny: usize, g: f64, pinned: Vec<bool>) -> Self {
        let pin_in_row: Vec<bool> = (0..ny)
            .map(|y| {
                pinned
                    .get(y * nx..(y + 1) * nx)
                    .is_some_and(|row| row.contains(&true))
            })
            .collect();
        let pin_near_row = (0..ny)
            .map(|y| pin_in_row[y.saturating_sub(1)..(y + 2).min(ny)].contains(&true))
            .collect();
        Self {
            nx,
            ny,
            g,
            pinned,
            pin_in_row,
            pin_near_row,
        }
    }

    /// The operator of `m`.
    pub(crate) fn of(m: &MeshProblem) -> Self {
        Self::new(m.nx, m.ny, m.edge_conductance, m.pinned.clone())
    }

    /// Whether row `y` takes the degree-4 path for its interior nodes in
    /// [`apply`] and the multigrid residual: not an edge row, and no pin
    /// within one row, so no neighbour read needs masking.
    pub(crate) fn unmasked_row(&self, y: usize) -> bool {
        y > 0 && y + 1 < self.ny && !self.pin_near_row[y]
    }
}

/// `(G·v)_i` at node `(x, y)` by the per-node rule: identity rows at
/// pins, pinned neighbours read as zero, degree from the mesh edges.
pub(crate) fn apply_node(op: &Stencil, v: &[f64], x: usize, y: usize) -> f64 {
    let (nx, ny, g) = (op.nx, op.ny, op.g);
    let i = y * nx + x;
    if op.pinned[i] {
        return v[i]; // identity row for pinned nodes
    }
    let mut acc = 0.0;
    let mut deg = 0.0;
    if x > 0 {
        acc += if op.pinned[i - 1] { 0.0 } else { v[i - 1] };
        deg += 1.0;
    }
    if x + 1 < nx {
        acc += if op.pinned[i + 1] { 0.0 } else { v[i + 1] };
        deg += 1.0;
    }
    if y > 0 {
        acc += if op.pinned[i - nx] { 0.0 } else { v[i - nx] };
        deg += 1.0;
    }
    if y + 1 < ny {
        acc += if op.pinned[i + nx] { 0.0 } else { v[i + nx] };
        deg += 1.0;
    }
    g * (deg * v[i] - acc)
}

/// Applies the mesh Laplacian `G·v` (pinned nodes held at zero).
///
/// Rows with no pin within one row run their interior nodes as the
/// degree-4 stencil, whose unmasked reads equal the masked ones there;
/// every other node runs [`apply_node`]. Both perform the same operations
/// in the same order, so the result does not depend on the path.
pub(crate) fn apply(op: &Stencil, v: &[f64], out: &mut [f64]) {
    let (nx, g) = (op.nx, op.g);
    for y in 0..op.ny {
        if !op.unmasked_row(y) {
            for x in 0..nx {
                out[y * nx + x] = apply_node(op, v, x, y);
            }
            continue;
        }
        let row = y * nx;
        out[row] = apply_node(op, v, 0, y);
        out[row + nx - 1] = apply_node(op, v, nx - 1, y);
        let (up, mid, down) = (
            &v[row - nx..row],
            &v[row..row + nx],
            &v[row + nx..row + 2 * nx],
        );
        let out = &mut out[row..row + nx];
        for x in 1..nx - 1 {
            let acc = 0.0 + mid[x - 1] + mid[x + 1] + up[x] + down[x];
            out[x] = g * (4.0 * mid[x] - acc);
        }
    }
}

/// The Jacobi preconditioner: `1 / diag(G)` per node — `1/(g·deg)` at
/// free nodes, `1.0` at pinned nodes (whose rows are identity).
fn inverse_diagonal(m: &MeshProblem) -> Vec<f64> {
    let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
    (0..nx * ny)
        .map(|i| {
            if m.pinned[i] {
                return 1.0;
            }
            let (x, y) = (i % nx, i / nx);
            let deg = f64::from(u8::from(x > 0))
                + f64::from(u8::from(x + 1 < nx))
                + f64::from(u8::from(y > 0))
                + f64::from(u8::from(y + 1 < ny));
            1.0 / (g * deg)
        })
        .collect()
}

/// Solves the mesh by Jacobi-preconditioned conjugate gradients.
///
/// Returns node voltages identical (to solver tolerance) to
/// [`MeshProblem::solve`], iterating from zero.
///
/// # Errors
///
/// [`GridError::BadParameter`]/[`GridError::NonFinite`] when
/// [`MeshProblem::validate`] rejects the problem;
/// [`GridError::NoConvergence`] if the iteration stalls,
/// with a diagnostic whose reason distinguishes a plain budget exhaustion
/// from a loss of positive-definiteness
/// ([`Breakdown::IndefiniteOperator`]) — the latter means the system is
/// singular/indefinite and re-running cannot help.
pub fn solve_pcg(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    let _span = np_telemetry::span("grid.pcg.solve");
    let inv_diag = inverse_diagonal(m);
    let run = pcg_kernel(m, |r, z| {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&inv_diag) {
            *zi = ri * di;
        }
        Ok(())
    });
    np_telemetry::counter("grid.pcg.iterations", run.iterations as u64);
    np_telemetry::value("grid.pcg.final_residual", run.final_residual);
    run.result
}

/// How one [`pcg_kernel`] run ended: the verdict plus the counts each
/// solver reports under its own telemetry names.
pub(crate) struct CgRun {
    /// The solution, or why there is none.
    pub(crate) result: Result<Vec<f64>, GridError>,
    /// Completed CG iterations.
    pub(crate) iterations: usize,
    /// Mesh mat-vecs performed (one per iteration, plus one for an
    /// iteration that ended in a breakdown).
    pub(crate) matvecs: usize,
    /// Final recursive residual norm `‖r‖`.
    pub(crate) final_residual: f64,
}

/// The preconditioned CG iteration behind [`solve_pcg`] and
/// [`crate::multigrid::solve_mgcg`], after the caller has validated the
/// inputs: solves `G·x = b` (`b = −injection` at free nodes, `0` at
/// pinned ones) from `x = 0`, with `precondition(r, z)` writing `z = M⁻¹·r`
/// for an SPD `M`.
///
/// Stops once `‖r‖ ≤ 1e-12·‖b‖`, within `10·n` iterations (accepting up
/// to 10× the tolerance at the budget or at a breakdown). The guards run
/// here rather than in the callers, so the breakdown watchdogs can be
/// exercised on inputs `validate` would reject.
pub(crate) fn pcg_kernel(
    m: &MeshProblem,
    mut precondition: impl FnMut(&[f64], &mut [f64]) -> Result<(), GridError>,
) -> CgRun {
    let mut run = CgRun {
        result: Ok(Vec::new()),
        iterations: 0,
        matvecs: 0,
        final_residual: 0.0,
    };
    // Degenerate meshes must surface as the typed domain error, never as
    // a convergence/IndefiniteOperator breakdown (or a silent empty
    // success): the guard runs before any iteration state is built.
    if m.nx < 2 || m.ny < 2 {
        run.result = Err(GridError::BadParameter("mesh needs at least 2x2 nodes"));
        return run;
    }
    let n = m.nx * m.ny;
    let op = Stencil::of(m);
    // RHS: -I at free nodes (current draw pulls the node negative),
    // 0 at pinned nodes.
    let b: Vec<f64> = (0..n)
        .map(|i| if m.pinned[i] { 0.0 } else { -m.injection[i] })
        .collect();
    if b.iter().all(|&v| v == 0.0) {
        // x = 0 is the exact solution of the pinned SPD system with zero
        // injection; iterating toward it would chase a tolerance of
        // ~1e-312 (b_norm clamps at 1e-300) into denormal territory.
        run.result = Ok(vec![0.0; n]);
        return run;
    }
    let (mut x, mut r) = (vec![0.0; n], b.clone());
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    let tol = 1e-12 * b_norm;
    let max_iters = 10 * n;
    let mut z = vec![0.0f64; n];
    let mut ap = vec![0.0f64; n];
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut trace = ResidualTrace::new();
    // The labeled block funnels every exit path through one point so the
    // iteration count and final residual are recorded exactly once.
    run.result = 'solve: {
        if let Err(e) = precondition(&r, &mut z) {
            break 'solve Err(e);
        }
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let mut p = z.clone();
        for _ in 0..max_iters {
            if rr.sqrt() <= tol {
                break 'solve Ok(x);
            }
            apply(&op, &p, &mut ap);
            run.matvecs += 1;
            let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if !p_ap.is_finite() {
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::NonFinite {
                        at_iteration: trace.iterations(),
                    }),
                });
            }
            if p_ap <= 0.0 {
                // Loss of positive-definiteness is a structural breakdown,
                // not a budget problem — report it as its own reason so
                // callers don't retry a solve that cannot succeed. A
                // solution already within the relaxed tolerance is still
                // accepted.
                if rr.sqrt() <= tol * 10.0 {
                    break 'solve Ok(x);
                }
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::IndefiniteOperator { curvature: p_ap }),
                });
            }
            let alpha = rz / p_ap;
            // One pass for both updates and ‖r‖², folded in index order
            // from `Iterator::sum`'s −0.0 (a square is never −0.0, so the
            // start cannot show either way).
            rr = -0.0;
            for (((xi, ri), pi), api) in x.iter_mut().zip(&mut r).zip(&p).zip(&ap) {
                *xi += alpha * pi;
                *ri -= alpha * api;
                rr += *ri * *ri;
            }
            trace.record(rr.sqrt());
            if let Err(e) = precondition(&r, &mut z) {
                break 'solve Err(e);
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        if rr.sqrt() <= tol * 10.0 {
            Ok(x)
        } else {
            Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        }
    };
    run.iterations = trace.iterations();
    run.final_residual = rr.sqrt();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_mesh(n: usize) -> MeshProblem {
        let mut m = MeshProblem::new(n, n, 1.3);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        m
    }

    /// The unpreconditioned iteration (`M = I`), for driving the kernel
    /// on inputs `validate` would reject.
    fn identity(r: &[f64], z: &mut [f64]) -> Result<(), GridError> {
        z.copy_from_slice(r);
        Ok(())
    }

    #[test]
    fn cg_matches_sor() -> Result<(), GridError> {
        for n in [5usize, 9, 16] {
            let m = loaded_mesh(n);
            let sor = m.solve()?;
            let cg = solve_pcg(&m)?;
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - cg[i]).abs() < 1e-6,
                    "n={n} node {i}: SOR {} vs PCG {}",
                    sor[i],
                    cg[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn cg_satisfies_kcl() -> Result<(), GridError> {
        let m = loaded_mesh(9);
        let v = solve_pcg(&m)?;
        let mut gv = vec![0.0; v.len()];
        apply(&Stencil::of(&m), &v, &mut gv);
        for (i, g) in gv.iter().enumerate() {
            if !m.pinned[i] {
                assert!(
                    (g + m.injection[i]).abs() < 1e-9,
                    "KCL at {i}: {g} vs {}",
                    -m.injection[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn pinned_nodes_stay_at_zero() -> Result<(), GridError> {
        let m = loaded_mesh(11);
        let v = solve_pcg(&m)?;
        for (i, vi) in v.iter().enumerate() {
            if m.pinned[i] {
                assert_eq!(*vi, 0.0);
            }
        }
        Ok(())
    }

    #[test]
    fn unpinned_rejected() {
        let m = MeshProblem::new(4, 4, 1.0);
        assert!(matches!(solve_pcg(&m), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn non_finite_injection_rejected_with_typed_error() {
        let mut m = loaded_mesh(5);
        m.injection[3] = f64::NAN;
        assert!(matches!(solve_pcg(&m), Err(GridError::NonFinite(_))));
    }

    #[test]
    fn mismatched_injection_length_rejected_not_panicking() {
        let mut m = loaded_mesh(5);
        m.injection.truncate(3);
        assert!(matches!(solve_pcg(&m), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn indefinite_operator_reports_breakdown_reason() {
        // A negative conductance makes the operator negative-definite:
        // pᵀAp < 0 on the first step. `validate` rejects this at the
        // public API; the kernel's own watchdog must still name the
        // structural cause rather than a generic budget exhaustion.
        let mut m = loaded_mesh(5);
        m.edge_conductance = -1.0;
        match pcg_kernel(&m, identity).result {
            Err(GridError::NoConvergence { diag }) => {
                assert!(
                    matches!(diag.reason, Breakdown::IndefiniteOperator { curvature } if curvature < 0.0),
                    "got {:?}",
                    diag.reason
                );
            }
            other => panic!("expected breakdown, got {other:?}"),
        }
    }

    #[test]
    fn multiple_pins_supported() -> Result<(), GridError> {
        let mut m = loaded_mesh(13);
        let extra = m.index(0, 0);
        m.pinned[extra] = true;
        let sor = m.solve()?;
        let cg = solve_pcg(&m)?;
        for i in 0..sor.len() {
            assert!((sor[i] - cg[i]).abs() < 1e-6);
        }
        Ok(())
    }

    // Regression: a degenerate (zero- or one-row) mesh must surface the
    // typed domain error, not an IndefiniteOperator breakdown or a
    // silent empty success from a zero-trip iteration loop.
    #[test]
    fn degenerate_mesh_is_a_domain_error_not_a_breakdown() {
        let empty = MeshProblem {
            nx: 0,
            ny: 0,
            edge_conductance: 1.0,
            injection: vec![],
            pinned: vec![],
        };
        assert!(matches!(
            pcg_kernel(&empty, identity).result,
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
        assert!(matches!(
            solve_pcg(&empty),
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
        // A 1-wide strip is singular without pins; the guard must fire
        // before the iteration can report IndefiniteOperator.
        let strip = MeshProblem {
            nx: 1,
            ny: 4,
            edge_conductance: 1.0,
            injection: vec![1e-3; 4],
            pinned: vec![false; 4],
        };
        assert!(matches!(
            pcg_kernel(&strip, identity).result,
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
    }

    #[test]
    fn pcg_matches_sor_and_cg() -> Result<(), GridError> {
        // Jacobi-PCG against the SOR oracle and against the same kernel
        // run unpreconditioned (plain CG).
        for n in [5usize, 9, 16] {
            let m = loaded_mesh(n);
            let sor = m.solve()?;
            let pcg = solve_pcg(&m)?;
            let cg = pcg_kernel(&m, identity).result?;
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - pcg[i]).abs() < 1e-6,
                    "n={n} node {i}: SOR {} vs PCG {}",
                    sor[i],
                    pcg[i]
                );
                assert!(
                    (cg[i] - pcg[i]).abs() <= 1e-9 * (1.0 + cg[i].abs()),
                    "n={n} node {i}: CG {} vs PCG {}",
                    cg[i],
                    pcg[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn jacobi_preconditioner_inverts_the_diagonal() {
        let m = loaded_mesh(5);
        let inv_diag = inverse_diagonal(&m);
        let pin = m.index(2, 2);
        assert_eq!(inv_diag[pin], 1.0, "pinned rows are identity");
        // A corner node has degree 2.
        assert!((inv_diag[0] - 1.0 / (1.3 * 2.0)).abs() < 1e-15);
        // An interior free node has degree 4.
        let interior = m.index(1, 1);
        assert!((inv_diag[interior] - 1.0 / (1.3 * 4.0)).abs() < 1e-15);
    }
}
