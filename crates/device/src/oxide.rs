//! Electrical gate-oxide modeling (paper Section 3.1, observation 1).
//!
//! The oxide "appears ~0.7 nm thicker than the physical oxide layer"
//! because of (a) the finite inversion-layer thickness (quantization) and
//! (b) poly-gate depletion (GDE). Advanced (metal) gates remove the GDE
//! share but "the quantization of the inversion layer will be unaffected".

use np_units::{FaradsPerCm2, Nanometers};
use std::fmt;

/// Permittivity of SiO₂ in F/cm (3.9 · ε₀).
pub const EPS_OX_F_PER_CM: f64 = 3.9 * 8.854e-14;

/// Inversion-layer (quantum) contribution to the electrical oxide, in nm.
/// Present for every gate-stack technology.
pub const INVERSION_LAYER_NM: f64 = 0.4;

/// Poly-silicon gate-depletion contribution to the electrical oxide, in nm.
/// Removed by metal gates.
pub const GATE_DEPLETION_NM: f64 = 0.3;

/// Gate-stack technology, selecting which electrical-thickness corrections
/// apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GateKind {
    /// Conventional doped-poly gate: inversion layer + gate depletion,
    /// `Tox,e = Tox,phys + 0.7 nm`. The paper's baseline.
    #[default]
    PolySilicon,
    /// Metal gate: gate depletion eliminated, `Tox,e = Tox,phys + 0.4 nm`.
    /// The Table 2 "metal gate" ablation.
    Metal,
    /// Idealized sheet-charge gate: `Tox,e = Tox,phys`. Used only as an
    /// ablation bound — physically unattainable.
    Ideal,
}

impl GateKind {
    /// The electrical thickening this stack adds to the physical oxide.
    pub fn electrical_offset(self) -> Nanometers {
        Nanometers(match self {
            GateKind::PolySilicon => INVERSION_LAYER_NM + GATE_DEPLETION_NM,
            GateKind::Metal => INVERSION_LAYER_NM,
            GateKind::Ideal => 0.0,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::PolySilicon => write!(f, "poly-Si gate"),
            GateKind::Metal => write!(f, "metal gate"),
            GateKind::Ideal => write!(f, "ideal gate"),
        }
    }
}

/// The electrical oxide thickness `Tox,e` seen by the channel.
///
/// # Examples
///
/// ```
/// use np_device::oxide::{electrical_tox, GateKind};
/// use np_units::Nanometers;
///
/// let te = electrical_tox(Nanometers(1.08), GateKind::PolySilicon);
/// assert!((te.0 - 1.78).abs() < 1e-12);
/// ```
pub fn electrical_tox(tox_phys: Nanometers, gate: GateKind) -> Nanometers {
    tox_phys + gate.electrical_offset()
}

/// Electrical gate-oxide capacitance per unit area, `Coxe = ε_ox / Tox,e`.
///
/// # Panics
///
/// Panics if the physical thickness is not positive.
pub fn coxe(tox_phys: Nanometers, gate: GateKind) -> FaradsPerCm2 {
    assert!(tox_phys.0 > 0.0, "oxide thickness must be positive");
    FaradsPerCm2(EPS_OX_F_PER_CM / electrical_tox(tox_phys, gate).as_cm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_gate_adds_0_7nm() {
        assert!((GateKind::PolySilicon.electrical_offset().0 - 0.7).abs() < 1e-12);
        assert!((GateKind::Metal.electrical_offset().0 - 0.4).abs() < 1e-12);
        assert_eq!(GateKind::Ideal.electrical_offset().0, 0.0);
    }

    #[test]
    fn coxe_is_smaller_than_cox() {
        let t = Nanometers(1.0);
        let cox_physical = EPS_OX_F_PER_CM / t.as_cm();
        assert!(coxe(t, GateKind::PolySilicon).0 < cox_physical);
        assert!(coxe(t, GateKind::Metal).0 > coxe(t, GateKind::PolySilicon).0);
        assert!((coxe(t, GateKind::Ideal).0 - cox_physical).abs() < 1e-12);
    }

    #[test]
    fn coxe_magnitude_is_right() {
        // 2.25 nm physical poly-gate oxide => Toxe 2.95 nm =>
        // Coxe = 3.453e-13 / 2.95e-7 ≈ 1.17 µF/cm².
        let c = coxe(Nanometers(2.25), GateKind::PolySilicon);
        assert!((c.0 - 1.17e-6).abs() < 0.02e-6, "got {c:?}");
    }

    #[test]
    fn relative_gain_of_metal_gate_grows_with_scaling() {
        // The thinner the oxide, the larger the relative Coxe benefit of
        // removing gate depletion — the paper's scaling argument.
        let gain = |t: f64| {
            coxe(Nanometers(t), GateKind::Metal).0 / coxe(Nanometers(t), GateKind::PolySilicon).0
        };
        assert!(gain(0.54) > gain(2.25));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_thickness_panics() {
        let _ = coxe(Nanometers(0.0), GateKind::PolySilicon);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", GateKind::PolySilicon), "poly-Si gate");
        assert_eq!(format!("{}", GateKind::Metal), "metal gate");
        assert_eq!(format!("{}", GateKind::Ideal), "ideal gate");
    }
}
