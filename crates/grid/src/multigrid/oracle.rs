//! The per-node reference kernels the row kernels of [`super`] and
//! [`crate::cg::apply`] must match bit for bit, and the property that
//! checks them.
//!
//! Each reference visits every node and tests its boundaries and its
//! neighbours' pins, on a [`MeshProblem`] whose injection is the negated
//! right-hand side (`A·v = −injection`). They are the kernels the row
//! kernels replaced, kept verbatim so that any reordered operation in a
//! fast path shows up as a differing bit.

use super::{
    coarsen_pins, prolong_add, residual, restrict_residual, smooth, POST_SWEEPS, PRE_SWEEPS,
};
use crate::cg::{apply, Stencil};
use crate::solver::MeshProblem;
use proptest::prelude::*;

/// The full-weighting restriction stencil, `[dy+1][dx+1]`-indexed.
const FW_WEIGHTS: [[f64; 3]; 3] = [
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
    [1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0],
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
];

/// Applies the mesh Laplacian `G·v` (pinned nodes held at zero).
fn apply_reference(m: &MeshProblem, v: &[f64], out: &mut [f64]) {
    let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            if m.pinned[i] {
                out[i] = v[i]; // identity row for pinned nodes
                continue;
            }
            let mut acc = 0.0;
            let mut deg = 0.0;
            if x > 0 {
                acc += if m.pinned[i - 1] { 0.0 } else { v[i - 1] };
                deg += 1.0;
            }
            if x + 1 < nx {
                acc += if m.pinned[i + 1] { 0.0 } else { v[i + 1] };
                deg += 1.0;
            }
            if y > 0 {
                acc += if m.pinned[i - nx] { 0.0 } else { v[i - nx] };
                deg += 1.0;
            }
            if y + 1 < ny {
                acc += if m.pinned[i + nx] { 0.0 } else { v[i + nx] };
                deg += 1.0;
            }
            out[i] = g * (deg * v[i] - acc);
        }
    }
}

/// One red-black Gauss-Seidel half-sweep updating only nodes of `color`
/// — the `ω = 1` case of the SOR sweep in [`MeshProblem::solve`].
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
            let target = (g * sum - m.injection[i]) / (deg * g);
            let cur = v[i];
            v[i] = cur + (target - cur);
        }
    }
}

/// `r = b − A·x` for the level problem (`b` being `−injection` at free
/// nodes, `0` at pinned ones).
fn residual_reference(m: &MeshProblem, x: &[f64], r: &mut [f64]) {
    apply_reference(m, x, r);
    for (i, ri) in r.iter_mut().enumerate() {
        let b = if m.pinned[i] { 0.0 } else { -m.injection[i] };
        *ri = b - *ri;
    }
}

/// Full-weighting restriction of the fine residual into the coarse
/// level's correction problem.
fn restrict_reference(fine: &MeshProblem, r: &[f64], coarse: &mut MeshProblem) {
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
            coarse.injection[ic] = -(4.0 * acc);
        }
    }
}

/// Adds the bilinear interpolation of the coarse correction into the
/// fine solution; pinned fine nodes stay exactly at the rail.
fn prolong_reference(coarse: &MeshProblem, xc: &[f64], fine: &MeshProblem, x: &mut [f64]) {
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

/// A splitmix64 stream: the per-case randomness behind shapes, pins and
/// vectors.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value of mixed magnitude (so a reordered sum rounds
    /// differently), or a signed zero one time in eight.
    fn value(&mut self) -> f64 {
        if self.below(8) == 0 {
            return if self.below(2) == 0 { 0.0 } else { -0.0 };
        }
        (2.0 * self.unit() - 1.0) * 10f64.powf(4.0 * self.unit() - 2.0)
    }

    fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.value()).collect()
    }
}

/// One to four pins, each in a corner, on an edge, one node in from an
/// edge, next to the previous pin, or anywhere inside.
fn draw_pins(nx: usize, ny: usize, draw: &mut Draw) -> Vec<bool> {
    let mut pinned = vec![false; nx * ny];
    let (mut px, mut py) = (nx / 2, ny / 2);
    for _ in 0..1 + draw.below(4) {
        (px, py) = match draw.below(5) {
            0 => ([0, nx - 1][draw.below(2)], [0, ny - 1][draw.below(2)]),
            1 if draw.below(2) == 0 => ([0, nx - 1][draw.below(2)], draw.below(ny)),
            1 => (draw.below(nx), [0, ny - 1][draw.below(2)]),
            2 if draw.below(2) == 0 => ([1, nx - 2][draw.below(2)], draw.below(ny)),
            2 => (draw.below(nx), [1, ny - 2][draw.below(2)]),
            3 => match draw.below(4) {
                0 => ((px + 1).min(nx - 1), py),
                1 => (px.saturating_sub(1), py),
                2 => (px, (py + 1).min(ny - 1)),
                _ => (px, py.saturating_sub(1)),
            },
            _ => (draw.below(nx), draw.below(ny)),
        };
        pinned[py * nx + px] = true;
    }
    pinned
}

/// Whether two vectors hold the same bits at every index.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The problem the reference kernels read: `b` as the negated injection.
fn reference_problem(op: &Stencil, b: &[f64]) -> MeshProblem {
    MeshProblem {
        nx: op.nx,
        ny: op.ny,
        edge_conductance: op.g,
        injection: b.iter().map(|bi| -bi).collect(),
        pinned: op.pinned.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every fast kernel against its per-node reference, bit for bit, on
    // random 2^k+1 shapes (3 to 65 per side, square or not), random pins,
    // conductance and right-hand side, and arbitrary values at pinned
    // nodes, which the solvers themselves hold at +0.0.
    #[test]
    fn row_kernels_match_the_per_node_reference_bitwise(
        kx in 1usize..7,
        ky in 1usize..7,
        log_g in -3.0..3.0f64,
        seed in 0u64..u64::MAX,
    ) {
        let (nx, ny) = ((1 << kx) + 1, (1 << ky) + 1);
        let mut draw = Draw(seed);
        let op = Stencil::new(nx, ny, 10f64.powf(log_g), draw_pins(nx, ny, &mut draw));
        let n = nx * ny;
        let (b, x) = (draw.vector(n), draw.vector(n));
        let m = reference_problem(&op, &b);
        let shape = format!("{nx}x{ny} g={:e} seed={seed}", op.g);

        let (mut fast, mut slow) = (vec![0.0; n], vec![0.0; n]);
        apply(&op, &x, &mut fast);
        apply_reference(&m, &x, &mut slow);
        prop_assert!(same_bits(&fast, &slow), "apply {shape}");

        residual(&op, &b, &x, &mut fast);
        residual_reference(&m, &x, &mut slow);
        prop_assert!(same_bits(&fast, &slow), "residual {shape}");

        // The two-sweep wavefront against four sequential half-sweeps.
        for (sweeps, colors) in [(PRE_SWEEPS, [0, 1]), (POST_SWEEPS, [1, 0])] {
            let (mut fast, mut slow) = (x.clone(), x.clone());
            smooth(&op, &b, &mut fast, sweeps, colors, false);
            for s in 0..2 * sweeps {
                gauss_seidel_pass(&m, &mut slow, colors[s % 2]);
            }
            prop_assert!(same_bits(&fast, &slow), "smooth {colors:?} {shape}");

            // From zero: the wavefront zeroes rows ahead of itself and
            // never reads what `x` held before.
            let (mut fast, mut slow) = (draw.vector(n), vec![0.0; n]);
            smooth(&op, &b, &mut fast, sweeps, colors, true);
            for s in 0..2 * sweeps {
                gauss_seidel_pass(&m, &mut slow, colors[s % 2]);
            }
            prop_assert!(same_bits(&fast, &slow), "smooth from zero {colors:?} {shape}");
        }

        let (nxc, nyc) = ((nx - 1) / 2 + 1, (ny - 1) / 2 + 1);
        let coarse = Stencil::new(nxc, nyc, op.g, coarsen_pins(&op, nxc, nyc));
        let mut coarse_b = draw.vector(nxc * nyc);
        restrict_residual(&op, &x, &coarse, &mut coarse_b);
        let mut coarse_m = reference_problem(&coarse, &vec![0.0; nxc * nyc]);
        restrict_reference(&m, &x, &mut coarse_m);
        // The reference stores the injection −4·acc, and 0 at pins.
        let expected: Vec<f64> = coarse_m
            .injection
            .iter()
            .zip(&coarse.pinned)
            .map(|(&inj, &pin)| if pin { inj } else { -inj })
            .collect();
        prop_assert!(same_bits(&coarse_b, &expected), "restrict {shape}");

        let correction = draw.vector(nxc * nyc);
        let (mut fast, mut slow) = (x.clone(), x.clone());
        prolong_add(&coarse, &correction, &op, &mut fast);
        prolong_reference(&coarse_m, &correction, &m, &mut slow);
        prop_assert!(same_bits(&fast, &slow), "prolong {shape}");
    }
}
