//! Property-based tests on the mesh solver and IR-drop models.

use np_grid::analytic::{required_rail_width, worst_case_drop, IrBudget};
use np_grid::cg::solve_pcg;
use np_grid::multigrid::solve_mgcg;
use np_grid::solver::MeshProblem;
use np_grid::{GridError, SolvePlan, SolveStrategy};
use np_roadmap::TechNode;
use np_units::Microns;
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

/// Mesh shapes on the 2^k+1 ladder the MGCG property draws: squares and
/// rectangles in both orientations, so each side coarsens on its own.
fn any_ladder_shape() -> impl Strategy<Value = (usize, usize)> {
    prop::sample::select(vec![
        (33usize, 33usize),
        (129, 129),
        (257, 257),
        (33, 129),
        (129, 33),
        (65, 257),
    ])
}

/// A pin coordinate along a side of `n` nodes: `edge` 0 and 1 put it on
/// the near and far edge, any other value `frac` of the way across.
fn pin_coord(edge: usize, frac: f64, n: usize) -> usize {
    match edge {
        0 => 0,
        1 => n - 1,
        _ => ((n - 1) as f64 * frac) as usize,
    }
}

/// A loaded `nx × ny` mesh: uniform injection, pin at `(px, py)`.
fn loaded_rect(nx: usize, ny: usize, g: f64, load: f64, px: usize, py: usize) -> MeshProblem {
    let mut m = MeshProblem::new(nx, ny, g);
    let pin = m.index(px.min(nx - 1), py.min(ny - 1));
    m.pinned[pin] = true;
    for i in 0..m.injection.len() {
        m.injection[i] = load / (nx * ny) as f64;
    }
    m
}

/// A loaded square mesh: uniform injection, pin at `(px, py)`.
fn loaded_mesh(n: usize, g: f64, load: f64, px: usize, py: usize) -> MeshProblem {
    loaded_rect(n, n, g, load, px, py)
}

/// The Fig. 5 bump cell: `n × n`, edge conductance `g`, injection `i` at
/// every node, centre pinned.
fn bump_cell(n: usize, g: f64, i: f64) -> MeshProblem {
    let mut m = MeshProblem::new(n, n, g);
    m.injection.fill(i);
    let centre = m.index(n / 2, n / 2);
    m.pinned[centre] = true;
    m
}

/// The worst (most negative) node voltage as a positive drop.
fn worst_drop(v: &[f64]) -> f64 {
    -v.iter().copied().fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_solution_satisfies_kcl(
        n in 5usize..12,
        g in 0.1..10.0f64,
        load in 1e-4..1e-1f64,
    ) {
        let mut m = MeshProblem::new(n, n, g);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = load / (n * n) as f64;
        }
        let v = m.solve().unwrap();
        // KCL at every free node: sum of edge currents equals injection.
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if m.pinned[i] {
                    continue;
                }
                let mut into = 0.0;
                if x > 0 { into += g * (v[i - 1] - v[i]); }
                if x + 1 < n { into += g * (v[i + 1] - v[i]); }
                if y > 0 { into += g * (v[i - n] - v[i]); }
                if y + 1 < n { into += g * (v[i + n] - v[i]); }
                prop_assert!(
                    (into - m.injection[i]).abs() < 1e-7 * (1.0 + m.injection[i].abs()),
                    "KCL violated at ({x},{y}): {into} vs {}",
                    m.injection[i]
                );
            }
        }
    }

    #[test]
    fn mesh_drops_are_nonpositive_under_load(n in 5usize..12, load in 1e-4..1e-1f64) {
        let mut m = MeshProblem::new(n, n, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = load / (n * n) as f64;
        }
        let v = m.solve().unwrap();
        prop_assert!(v.iter().all(|&x| x <= 1e-12), "grid voltages sag below the pin");
    }

    #[test]
    fn analytic_drop_scales_exactly(
        node in any_node(),
        pitch in 50.0..200.0f64,
        w in 0.5..10.0f64,
        k in 1.1..4.0f64,
    ) {
        let base = worst_case_drop(node, Microns(pitch), Microns(w)).unwrap();
        let wider = worst_case_drop(node, Microns(pitch), Microns(w * k)).unwrap();
        prop_assert!((base.0 / wider.0 / k - 1.0).abs() < 1e-9, "1/w scaling");
        let coarser = worst_case_drop(node, Microns(pitch * k), Microns(w)).unwrap();
        prop_assert!((coarser.0 / base.0 / k.powi(3) - 1.0).abs() < 1e-9, "P^3 scaling");
    }

    #[test]
    fn solved_width_always_meets_budget(node in any_node(), pitch in 40.0..150.0f64) {
        let budget = IrBudget::default();
        if let Ok(w) = required_rail_width(node, Microns(pitch), &budget) {
            let drop = worst_case_drop(node, Microns(pitch), w).unwrap();
            let allowed = budget.per_net(node.params().vdd).unwrap();
            prop_assert!(drop.0 <= allowed.0 * 1.0001);
            prop_assert!(w.0 >= node.params().top_metal_min_width.0);
        }
    }

    // The plan answers the same physics on and off the 2^k+1 ladder
    // (5 and 9 run MGCG, the rest Jacobi-PCG), and so does Jacobi-PCG
    // everywhere: all agree with the SOR reference within tolerance.
    #[test]
    fn every_solve_plan_strategy_agrees(
        n in 5usize..16,
        load in 1e-4..1e-1f64,
    ) {
        let m = loaded_mesh(n, 1.0, load, n / 2, n / 2);
        let reference = m.solve().unwrap();
        for v in [SolvePlan::auto().solve(&m).unwrap(), solve_pcg(&m).unwrap()] {
            // Cross-algorithm comparison (CG-family vs the SOR
            // reference): both stop at their own 1e-12-scaled criteria,
            // so agreement is to solver accuracy.
            for i in 0..reference.len() {
                prop_assert!(
                    (reference[i] - v[i]).abs() <= 1e-6 * (1.0 + reference[i].abs()),
                    "n={n} node {i}: {} vs {}",
                    reference[i],
                    v[i]
                );
            }
        }
    }

    #[test]
    fn tighter_budgets_demand_wider_rails(
        node in any_node(),
        share in 0.2..0.9f64,
    ) {
        let pitch = Microns(80.0);
        let loose = IrBudget { total_fraction: 0.10, top_level_share: share };
        let tight = IrBudget { total_fraction: 0.05, top_level_share: share };
        if let (Ok(wl), Ok(wt)) = (
            required_rail_width(node, pitch, &loose),
            required_rail_width(node, pitch, &tight),
        ) {
            prop_assert!(wt >= wl);
        }
    }
}

// A separate block with a lower case count: 257×257 solves are real
// work, and the property holds per (shape, pin) cell rather than needing
// a dense random sweep.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // MGCG agrees with Jacobi-PCG to 1e-6 on every ladder shape, square
    // or not, whether the pin sits inside, on an edge or in a corner.
    #[test]
    fn mgcg_matches_jacobi_pcg_on_rectangular_ladders_and_any_pin(
        shape in any_ladder_shape(),
        edge_x in 0usize..3,
        frac_x in 0.0..1.0f64,
        edge_y in 0usize..3,
        frac_y in 0.0..1.0f64,
        g in 0.1..10.0f64,
        load in 1e-4..1e-1f64,
    ) {
        let (nx, ny) = shape;
        let (px, py) = (pin_coord(edge_x, frac_x, nx), pin_coord(edge_y, frac_y, ny));
        let m = loaded_rect(nx, ny, g, load, px, py);
        let pcg = solve_pcg(&m).unwrap();
        let mgcg = solve_mgcg(&m).unwrap();
        for i in 0..pcg.len() {
            prop_assert!(
                (pcg[i] - mgcg[i]).abs() <= 1e-6 * (1.0 + pcg[i].abs()),
                "MGCG {nx}x{ny} pin ({px}, {py}) node {i}: {} vs {}",
                pcg[i],
                mgcg[i]
            );
        }
    }
}

// The identity `MeshCache` rests on: the bump cell is linear, so its
// worst drop at any (g, i) is (i/g) times the unit cell's, whichever
// solver the plan picks for the side (MGCG on the 2^k+1 ladder,
// Jacobi-PCG off it). At small sides the SOR oracle agrees as well, over
// all twelve decades of i/g.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bump_cell_drop_is_the_scaled_unit_drop(
        n in prop::sample::select(vec![17usize, 33, 65, 31, 63]),
        log_g in -3.0..3.0f64,
        log_scale in -6.0..6.0f64,
    ) {
        // g over six decades and i/g over twelve, so i spans eighteen.
        // MGCG and Jacobi-PCG stop on a residual relative to the
        // injection, so the direct-vs-scaled check is scale-free.
        let g = 10f64.powf(log_g);
        let i = 10f64.powf(log_scale) * g;
        let plan = SolvePlan::auto();
        let expected = if n == 31 || n == 63 {
            SolveStrategy::JacobiPcg
        } else {
            SolveStrategy::MultigridCg
        };
        prop_assert_eq!(plan.resolve_for(&bump_cell(n, 1.0, 1.0)).0, expected);
        let unit = worst_drop(&plan.solve(&bump_cell(n, 1.0, 1.0)).unwrap());
        let scaled = (i / g) * unit;
        let direct = worst_drop(&plan.solve(&bump_cell(n, g, i)).unwrap());
        prop_assert!(
            (direct - scaled).abs() <= 1e-10 * direct,
            "n={n} g={g:e} i={i:e}: direct {direct:e} vs scaled {scaled:e}"
        );
        // SOR's step test is relative above 1 V, so it resolves the drop
        // to 1e-6 at every scale of i/g.
        if n <= 33 {
            let sor = worst_drop(&bump_cell(n, g, i).solve().unwrap());
            prop_assert!(
                (sor - scaled).abs() <= 1e-6 * sor,
                "n={n} g={g:e} i={i:e}: SOR {sor:e} vs scaled {scaled:e}"
            );
        }
    }
}

#[test]
fn multigrid_rejects_non_pow2_plus_one_meshes_with_a_typed_error() {
    // 20 is even (MeshProblem::new accepts it) and 21 = 3·7 misses the
    // 2^k+1 ladder; both must come back as a typed BadParameter, not a
    // panic or a silent wrong answer.
    for n in [20usize, 21] {
        let m = loaded_mesh(n, 1.0, 1e-2, n / 2, n / 2);
        assert!(
            matches!(solve_mgcg(&m), Err(GridError::BadParameter(_))),
            "n={n} must be a BadParameter"
        );
    }
}
