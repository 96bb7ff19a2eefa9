//! Wire geometry and per-length R/C.
//!
//! Capacitance uses Sakurai's closed-form fit (ground plus two-neighbour
//! coupling); resistance is `ρ / (w · t)`.

use np_roadmap::TechNode;
use np_units::{FaradsPerMicron, Microns, Ohms};

/// Vacuum permittivity in F/µm.
const EPS0_F_PER_UM: f64 = 8.854e-18;

/// Copper resistivity in Ω·µm (2.2 µΩ·cm).
pub const RHO_CU_OHM_UM: f64 = 2.2e-2 * 1e-6 * 1e6; // 2.2e-2 Ω·µm²/µm = Ω·µm

/// A parallel-wire geometry on one metal layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGeometry {
    /// Trace width.
    pub width: Microns,
    /// Spacing to each neighbour.
    pub spacing: Microns,
    /// Metal thickness.
    pub thickness: Microns,
    /// Dielectric height to the plane below.
    pub height: Microns,
    /// Relative dielectric constant of the ILD stack.
    pub k_dielectric: f64,
    /// Conductor resistivity in Ω·µm.
    pub resistivity: f64,
}

impl WireGeometry {
    /// Minimum-pitch top-level (global) wiring of `node`: width = minimum
    /// top-metal width, spacing = width, thickness = aspect × width,
    /// dielectric height = width with the node's low-k stack.
    pub fn top_level(node: TechNode) -> Self {
        let p = node.params();
        let w = p.top_metal_min_width;
        // Low-k dielectrics phase in along the roadmap (4.0 -> 2.7).
        let k = match node {
            TechNode::N180 => 4.0,
            TechNode::N130 => 3.6,
            TechNode::N100 => 3.3,
            TechNode::N70 => 3.0,
            TechNode::N50 => 2.8,
            TechNode::N35 => 2.7,
        };
        WireGeometry {
            width: w,
            spacing: w,
            thickness: Microns(p.top_metal_aspect * w.0),
            height: w,
            k_dielectric: k,
            resistivity: RHO_CU_OHM_UM,
        }
    }

    /// Routing pitch (width + spacing).
    pub fn pitch(&self) -> Microns {
        self.width + self.spacing
    }

    /// Series resistance per micron of length.
    ///
    /// # Panics
    ///
    /// Panics if the cross-section is not positive (malformed geometry).
    pub fn resistance_per_micron(&self) -> Ohms {
        assert!(
            self.width.0 > 0.0 && self.thickness.0 > 0.0,
            "wire cross-section must be positive"
        );
        Ohms(self.resistivity / (self.width.0 * self.thickness.0))
    }

    /// Total capacitance per micron (ground + both neighbours), Sakurai's
    /// fit.
    pub fn capacitance_per_micron(&self) -> FaradsPerMicron {
        let eps = self.k_dielectric * EPS0_F_PER_UM;
        let w = self.width.0;
        let t = self.thickness.0;
        let h = self.height.0;
        let s = self.spacing.0;
        let ground = eps * (1.15 * (w / h) + 2.80 * (t / h).powf(0.222));
        let coupling = eps
            * (0.03 * (w / h) + 0.83 * (t / h) - 0.07 * (t / h).powf(0.222))
            * (h / s).powf(1.34);
        FaradsPerMicron(ground + 2.0 * coupling)
    }

    /// Ground-plus-one-neighbour capacitance — what a shielded
    /// differential pair sees per wire.
    pub fn capacitance_shielded_per_micron(&self) -> FaradsPerMicron {
        let full = self.capacitance_per_micron().0;
        let eps = self.k_dielectric * EPS0_F_PER_UM;
        let coupling_one = (full
            - eps
                * (1.15 * (self.width.0 / self.height.0)
                    + 2.80 * (self.thickness.0 / self.height.0).powf(0.222)))
            / 2.0;
        FaradsPerMicron(full - coupling_one)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitance_is_fractions_of_ff_per_micron() {
        for node in TechNode::ALL {
            let c = WireGeometry::top_level(node).capacitance_per_micron();
            let ff = c.0 * 1e15;
            assert!((0.1..=0.6).contains(&ff), "{node}: {ff} fF/µm");
        }
    }

    #[test]
    fn resistance_grows_with_scaling() {
        let mut prev = 0.0;
        for node in TechNode::ALL {
            let r = WireGeometry::top_level(node).resistance_per_micron().0;
            assert!(r > prev, "{node}: R/µm must grow as wires shrink");
            prev = r;
        }
        // 180 nm minimum global wire: 2.2e-2/(0.8*1.6) ≈ 0.017 Ω/µm.
        let r180 = WireGeometry::top_level(TechNode::N180)
            .resistance_per_micron()
            .0;
        assert!((r180 - 0.0172).abs() < 0.002, "got {r180}");
    }

    #[test]
    fn shielding_reduces_capacitance() {
        let g = WireGeometry::top_level(TechNode::N50);
        assert!(g.capacitance_shielded_per_micron().0 < g.capacitance_per_micron().0);
        assert!(g.capacitance_shielded_per_micron().0 > 0.0);
    }

    #[test]
    fn low_k_helps() {
        let mut g = WireGeometry::top_level(TechNode::N50);
        let c_lowk = g.capacitance_per_micron().0;
        g.k_dielectric = 4.0;
        let c_sio2 = g.capacitance_per_micron().0;
        assert!(c_lowk < c_sio2);
    }

    #[test]
    fn pitch_is_width_plus_space() {
        let g = WireGeometry::top_level(TechNode::N100);
        assert!((g.pitch().0 - 1.0).abs() < 1e-12); // 0.5 + 0.5 µm
    }
}
