//! Bit pins for the CG-family solvers: the FNV-1a of every solution's
//! `f64` bits on a fixed set of meshes.
//!
//! MGCG and Jacobi-PCG are fixed sequences of floating-point operations,
//! and `fig5-mesh` golden-checks MGCG's output exactly. A kernel rewrite
//! that reorders a single addition moves these digests; one that keeps
//! every operation does not. The shapes cover the pin placements the
//! kernels special-case (corner, edge, one node in from an edge, adjacent
//! pins, interior), square and rectangular ladder meshes, and meshes
//! whose finest level is already the coarsest (9², 5×129).

use np_grid::cg::solve_pcg;
use np_grid::multigrid::solve_mgcg;
use np_grid::solver::MeshProblem;
use np_grid::GridError;

/// 64-bit FNV-1a over the little-endian bits of `v`.
fn digest(v: &[f64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for x in v {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

/// An `nx × ny` mesh with conductance `g`, the given pins, and injections
/// drawn from a fixed linear congruential sequence in `[0.5, 1.5)·load`,
/// so no symmetry of the mesh hides a reordered operation.
fn mesh(nx: usize, ny: usize, g: f64, load: f64, pins: &[(usize, usize)]) -> MeshProblem {
    let mut m = MeshProblem::new(nx, ny, g);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for inj in &mut m.injection {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        *inj = load * (0.5 + unit);
    }
    for &(x, y) in pins {
        let i = m.index(x, y);
        m.pinned[i] = true;
    }
    m
}

#[test]
fn mgcg_solution_bits_are_pinned() -> Result<(), GridError> {
    let cases: [(&str, MeshProblem, u64); 8] = [
        (
            "129² centre pin",
            mesh(129, 129, 1.3, 1e-3, &[(64, 64)]),
            0xc42f_e827_ee8a_2bee,
        ),
        (
            "129² corner pin",
            mesh(129, 129, 0.7, 2e-3, &[(0, 0)]),
            0xe7a6_4317_3bbc_d972,
        ),
        (
            "33×129 edge pin",
            mesh(33, 129, 2.5, 1e-3, &[(16, 0)]),
            0xc746_da1b_15d0_f948,
        ),
        (
            "129×33 pins one in from an edge",
            mesh(129, 33, 1.0, 1e-3, &[(1, 16), (127, 1)]),
            0x7c0e_9fdd_5e18_6445,
        ),
        (
            "65×65 adjacent and interior pins",
            mesh(
                65,
                65,
                0.05,
                1e-4,
                &[(20, 20), (21, 20), (20, 21), (64, 64), (40, 7)],
            ),
            0x8acc_f969_b1b2_597e,
        ),
        (
            "17×33 far corner pin",
            mesh(17, 33, 3.0, 1e-2, &[(16, 32)]),
            0xb7db_aec4_88d4_9548,
        ),
        (
            "9² finest level is the coarsest",
            mesh(9, 9, 1.0, 1e-3, &[(4, 4)]),
            0x9004_a6ae_4690_5065,
        ),
        (
            "5×129 finest level is the coarsest",
            mesh(5, 129, 1.0, 1e-3, &[(2, 64)]),
            0xcffc_160a_3ff4_dd71,
        ),
    ];
    for (name, m, want) in cases {
        let got = digest(&solve_mgcg(&m)?);
        assert_eq!(got, want, "{name}: fnv1a:{got:016x}");
    }
    Ok(())
}

#[test]
fn pcg_solution_bits_are_pinned() -> Result<(), GridError> {
    let cases: [(&str, MeshProblem, u64); 4] = [
        (
            "129² centre pin",
            mesh(129, 129, 1.3, 1e-3, &[(64, 64)]),
            0x1dfc_4e72_e1ca_bb0d,
        ),
        (
            "31² corner pin",
            mesh(31, 31, 0.7, 2e-3, &[(0, 0)]),
            0xfed0_f9ec_419d_f370,
        ),
        (
            "63² edge and adjacent pins",
            mesh(63, 63, 2.5, 1e-3, &[(31, 0), (10, 30), (11, 30)]),
            0xe6a4_c4fd_4bfd_9721,
        ),
        (
            "20×12 pin one in from an edge",
            mesh(20, 12, 1.0, 1e-3, &[(1, 6)]),
            0xbedf_7aa8_b141_7691,
        ),
    ];
    for (name, m, want) in cases {
        let got = digest(&solve_pcg(&m)?);
        assert_eq!(got, want, "{name}: fnv1a:{got:016x}");
    }
    Ok(())
}
