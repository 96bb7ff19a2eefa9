//! Successive over-relaxation solver for resistive meshes — the
//! reference oracle the CG-family solvers ([`crate::cg`],
//! [`crate::multigrid`]) are tested against.
//!
//! Solves `G·V = I` on a regular 2-D grid of nodes connected by uniform
//! edge conductances, with a set of Dirichlet (voltage-pinned) nodes —
//! the discrete form of a power-grid sheet fed by bumps. Its stopping
//! test is relative above 1 V, so it converges at any scale of drop.

use crate::error::GridError;
use np_units::convergence::{Breakdown, ResidualTrace};
use np_units::guard;

/// A rectangular resistive mesh problem.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshProblem {
    /// Nodes per row.
    pub nx: usize,
    /// Nodes per column.
    pub ny: usize,
    /// Conductance of every horizontal/vertical edge (siemens).
    pub edge_conductance: f64,
    /// Current injected (drawn) at each node, amperes; positive values are
    /// load current pulled *out* of the grid.
    pub injection: Vec<f64>,
    /// Nodes pinned to 0 V (the bumps).
    pub pinned: Vec<bool>,
}

impl MeshProblem {
    /// An `nx × ny` mesh with zero injections and no pins.
    ///
    /// # Panics
    ///
    /// Panics for an empty mesh or non-positive conductance.
    pub fn new(nx: usize, ny: usize, edge_conductance: f64) -> Self {
        assert!(nx >= 2 && ny >= 2, "mesh needs at least 2x2 nodes");
        assert!(edge_conductance > 0.0, "conductance must be positive");
        Self {
            nx,
            ny,
            edge_conductance,
            injection: vec![0.0; nx * ny],
            pinned: vec![false; nx * ny],
        }
    }

    /// Linear index of node `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn index(&self, x: usize, y: usize) -> usize {
        assert!(x < self.nx && y < self.ny, "node out of range");
        y * self.nx + x
    }

    /// Validates the problem before a solve: a pinned node must exist,
    /// the conductance must be finite and positive, the injection vector
    /// must be finite and sized to the mesh, and the pin mask must match.
    ///
    /// # Errors
    ///
    /// [`GridError::BadParameter`] or [`GridError::NonFinite`] naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.nx < 2 || self.ny < 2 {
            return Err(GridError::BadParameter("mesh needs at least 2x2 nodes"));
        }
        guard::finite_positive(
            self.edge_conductance,
            "edge conductance",
            "MeshProblem::solve",
        )?;
        if self.injection.len() != self.nx * self.ny {
            return Err(GridError::BadParameter(
                "injection vector must have nx*ny entries",
            ));
        }
        if self.pinned.len() != self.nx * self.ny {
            return Err(GridError::BadParameter("pin mask must have nx*ny entries"));
        }
        guard::all_finite(&self.injection, "injection", "MeshProblem::solve")?;
        if !self.pinned.iter().any(|&p| p) {
            return Err(GridError::BadParameter("at least one node must be pinned"));
        }
        Ok(())
    }

    /// Solves for node voltages by red-black SOR.
    ///
    /// The iteration stops once a sweep's largest step falls below
    /// `1e-12·max(1, max|v|)` volts: an absolute `1e-12` V for sub-volt
    /// solutions, relative above 1 V, so that any scale of drop converges.
    ///
    /// Voltages are drops below the (0 V) bump potential: load current
    /// pulls nodes negative, so callers typically report `-V.min()` as the
    /// worst-case drop.
    ///
    /// # Errors
    ///
    /// [`GridError::BadParameter`]/[`GridError::NonFinite`] when
    /// [`MeshProblem::validate`] rejects the problem;
    /// [`GridError::NoConvergence`] (with a [`Convergence`] diagnostic)
    /// when the iteration stalls.
    ///
    /// [`Convergence`]: np_units::convergence::Convergence
    pub fn solve(&self) -> Result<Vec<f64>, GridError> {
        self.validate()?;
        let _span = np_telemetry::span("grid.sor.solve");
        let (nx, ny) = (self.nx, self.ny);
        let g = self.edge_conductance;
        let mut v = vec![0.0f64; nx * ny];
        let omega = 1.9;
        let max_iters = 50_000;
        let tol = 1e-12;
        let mut trace = ResidualTrace::new();
        // The labeled block funnels every exit through one point so the
        // sweep count is recorded exactly once, success or failure.
        let result = 'solve: {
            for _ in 0..max_iters {
                let mut max_delta = 0.0f64;
                let mut max_abs = 0.0f64;
                for color in 0..2 {
                    for y in 0..ny {
                        for x in 0..nx {
                            if (x + y) % 2 != color {
                                continue;
                            }
                            let i = y * nx + x;
                            if self.pinned[i] {
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
                            // KCL: deg*g*v_i = g*sum - I_i  (I positive = draw).
                            let target = (g * sum - self.injection[i]) / (deg * g);
                            let next = v[i] + omega * (target - v[i]);
                            max_delta = max_delta.max((next - v[i]).abs());
                            max_abs = max_abs.max(next.abs());
                            v[i] = next;
                        }
                    }
                }
                trace.record(max_delta);
                if !max_delta.is_finite() {
                    break 'solve Err(GridError::NoConvergence {
                        diag: trace.diagnostic(Breakdown::NonFinite {
                            at_iteration: trace.iterations(),
                        }),
                    });
                }
                // The step test is relative to the largest node voltage
                // above 1 V, so where a solve stops does not depend on the
                // drop's scale; sub-volt solves keep the absolute step.
                if max_delta < tol * max_abs.max(1.0) {
                    break 'solve Ok(v);
                }
            }
            Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        };
        np_telemetry::counter("grid.sor.iterations", trace.iterations() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_pinned_mesh_is_flat() {
        let mut m = MeshProblem::new(8, 8, 1.0);
        let c = m.index(0, 0);
        m.pinned[c] = true;
        let v = m.solve().unwrap();
        assert!(v.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn single_load_single_pin_matches_series_resistance() {
        // A 1-D chain (2 x n degenerate mesh is awkward; use a 2-node-wide
        // strip and compare against hand math on a 2x2).
        let mut m = MeshProblem::new(2, 2, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        let load = m.index(1, 1);
        m.injection[load] = 1.0; // 1 A drawn
        let v = m.solve().unwrap();
        // Two parallel 2-edge paths from pin to load: R = (1+1)||(1+1) = 1 Ω.
        assert!((v[load] + 1.0).abs() < 1e-6, "got {}", v[load]);
    }

    #[test]
    fn drop_grows_with_distance_from_pin() {
        let mut m = MeshProblem::new(16, 16, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        let v = m.solve().unwrap();
        let near = -v[m.index(1, 1)];
        let far = -v[m.index(15, 15)];
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn more_pins_reduce_drop() {
        let build = |pins: &[(usize, usize)]| {
            let mut m = MeshProblem::new(17, 17, 1.0);
            for &(x, y) in pins {
                let idx = m.index(x, y);
                m.pinned[idx] = true;
            }
            for i in 0..m.injection.len() {
                m.injection[i] = 1e-3;
            }
            let v = m.solve().unwrap();
            -v.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let one = build(&[(8, 8)]);
        let five = build(&[(8, 8), (0, 0), (16, 0), (0, 16), (16, 16)]);
        assert!(five < one);
    }

    #[test]
    fn unpinned_mesh_is_rejected() {
        let m = MeshProblem::new(4, 4, 1.0);
        assert!(matches!(m.solve(), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn drop_scales_inversely_with_conductance() {
        let run = |g: f64| {
            let mut m = MeshProblem::new(9, 9, g);
            let pin = m.index(4, 4);
            m.pinned[pin] = true;
            for i in 0..m.injection.len() {
                m.injection[i] = 1e-3;
            }
            let v = m.solve().unwrap();
            -v.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let d1 = run(1.0);
        let d2 = run(2.0);
        assert!((d1 / d2 - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_mesh_panics() {
        let _ = MeshProblem::new(1, 4, 1.0);
    }
}
