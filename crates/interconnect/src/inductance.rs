//! On-chip inductance and inductive coupling (Section 2.2).
//!
//! "Furthermore, shielding may be insufficient to limit inductively
//! coupled noise, whereas low-swing differential signaling creates less
//! noise and is more noise immune than single-ended full-swing CMOS."
//!
//! Capacitive crosstalk stops at the shield wire; magnetic flux does not.
//! The model uses microstrip-style partial inductances: a victim a few
//! tracks away from an aggressor still links substantial flux, so a
//! shielded single-ended bus keeps an inductive noise floor, while a
//! differential pair sees only the *difference* of the couplings to its
//! two legs — a small residue that shrinks with pair tightness.

use crate::error::InterconnectError;
use crate::wire::WireGeometry;
use np_units::{Microns, Seconds, Volts};

/// Vacuum permeability in H/µm (4π×10⁻⁷ H/m × 10⁻⁶ m/µm).
pub const MU0_H_PER_UM: f64 = 1.2566e-12;

/// Mutual inductance per micron between two parallel traces separated by
/// `separation` (centre to centre) over the same return plane:
/// `M = µ₀/(4π) · ln(1 + (2h/d)²)`.
///
/// # Panics
///
/// Panics for non-positive separation.
pub fn mutual_inductance_per_um(geometry: &WireGeometry, separation: Microns) -> f64 {
    assert!(separation.0 > 0.0, "separation must be positive");
    let h = 4.0 * geometry.height.0;
    MU0_H_PER_UM / (4.0 * std::f64::consts::PI) * (1.0 + (2.0 * h / separation.0).powi(2)).ln()
}

/// Inductive noise coupled onto a victim by an aggressor switching
/// `i_peak` amps in `t_rise`, over `coupled_length`, at trace separation
/// `separation`.
///
/// # Errors
///
/// Returns [`InterconnectError::BadParameter`] for non-positive rise time
/// or length.
pub fn coupled_noise(
    geometry: &WireGeometry,
    separation: Microns,
    coupled_length: Microns,
    i_peak: f64,
    t_rise: Seconds,
) -> Result<Volts, InterconnectError> {
    if !(t_rise.0 > 0.0) {
        return Err(InterconnectError::BadParameter(
            "rise time must be positive",
        ));
    }
    if !(coupled_length.0 > 0.0) {
        return Err(InterconnectError::BadParameter("length must be positive"));
    }
    let m = mutual_inductance_per_um(geometry, separation) * coupled_length.0;
    Ok(Volts(m * i_peak / t_rise.0))
}

/// The same aggressor's *differential* residue on a pair whose legs sit at
/// `separation` and `separation + pair pitch`: the difference of the two
/// couplings, which is what a differential receiver sees.
///
/// # Errors
///
/// Same conditions as [`coupled_noise`].
pub fn differential_residue(
    geometry: &WireGeometry,
    separation: Microns,
    coupled_length: Microns,
    i_peak: f64,
    t_rise: Seconds,
) -> Result<Volts, InterconnectError> {
    let near = coupled_noise(geometry, separation, coupled_length, i_peak, t_rise)?;
    let far = coupled_noise(
        geometry,
        separation + geometry.pitch(),
        coupled_length,
        i_peak,
        t_rise,
    )?;
    Ok(Volts(near.0 - far.0))
}

/// Residual coupling mismatch that survives each twist of a twisted
/// differential pair (layout asymmetry, via stubs).
pub const TWIST_MISMATCH: f64 = 0.05;

/// Differential residue of a *twisted* pair: each twist swaps which leg is
/// nearer the aggressor, cancelling the coupled flux segment-by-segment;
/// what survives is the per-segment residue divided by the twist count,
/// floored at the layout-mismatch level.
///
/// # Errors
///
/// Same conditions as [`differential_residue`]; rejects zero twists.
pub fn twisted_differential_residue(
    geometry: &WireGeometry,
    separation: Microns,
    coupled_length: Microns,
    i_peak: f64,
    t_rise: Seconds,
    twists: usize,
) -> Result<Volts, InterconnectError> {
    if twists == 0 {
        return Err(InterconnectError::BadParameter("need at least one twist"));
    }
    let untwisted = differential_residue(geometry, separation, coupled_length, i_peak, t_rise)?;
    let cancelled = untwisted.0 / (2.0 * twists as f64);
    let floor = untwisted.0 * TWIST_MISMATCH;
    Ok(Volts(cancelled.max(floor)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_roadmap::TechNode;

    fn top(node: TechNode) -> WireGeometry {
        WireGeometry::top_level(node)
    }

    #[test]
    fn mutual_falls_with_separation_but_slowly() {
        // The slow logarithmic falloff is exactly why one shield track is
        // not enough: flux skips over it.
        let g = top(TechNode::N50);
        let m1 = mutual_inductance_per_um(&g, Microns(g.pitch().0));
        let m2 = mutual_inductance_per_um(&g, Microns(2.0 * g.pitch().0));
        let m8 = mutual_inductance_per_um(&g, Microns(8.0 * g.pitch().0));
        assert!(m2 < m1);
        assert!(m8 < m2);
        // One extra track of spacing (a shield) removes well under half
        // the magnetic coupling.
        assert!(
            m2 > 0.5 * m1,
            "shield removes only {:.0}%",
            (1.0 - m2 / m1) * 100.0
        );
    }

    #[test]
    fn differential_rejects_most_inductive_noise() {
        // Section 2.2: shielding is insufficient; differential is immune.
        let g = top(TechNode::N50);
        let shielded_sep = Microns(2.0 * g.pitch().0); // one shield between
        let single = coupled_noise(
            &g,
            shielded_sep,
            Microns(5_000.0),
            0.02,
            Seconds::from_pico(50.0),
        )
        .unwrap();
        let diff = differential_residue(
            &g,
            shielded_sep,
            Microns(5_000.0),
            0.02,
            Seconds::from_pico(50.0),
        )
        .unwrap();
        assert!(
            diff.0 < single.0 * 0.5,
            "differential residue {diff} vs single-ended {single}"
        );
        // And the single-ended noise is non-negligible against a low-swing
        // signal (tens of mV scale).
        assert!(single.as_milli() > 1.0);
    }

    #[test]
    fn faster_edges_are_noisier() {
        let g = top(TechNode::N50);
        let slow = coupled_noise(
            &g,
            Microns(1.0),
            Microns(1_000.0),
            0.01,
            Seconds::from_pico(100.0),
        )
        .unwrap();
        let fast = coupled_noise(
            &g,
            Microns(1.0),
            Microns(1_000.0),
            0.01,
            Seconds::from_pico(10.0),
        )
        .unwrap();
        assert!((fast.0 / slow.0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn twisting_buys_further_rejection() {
        let g = top(TechNode::N50);
        let sep = Microns(2.0 * g.pitch().0);
        let args = (sep, Microns(5_000.0), 0.01, Seconds::from_pico(50.0));
        let untwisted = differential_residue(&g, args.0, args.1, args.2, args.3).unwrap();
        let one = twisted_differential_residue(&g, args.0, args.1, args.2, args.3, 1).unwrap();
        let four = twisted_differential_residue(&g, args.0, args.1, args.2, args.3, 4).unwrap();
        assert!(one.0 < untwisted.0);
        assert!(four.0 < one.0);
        // The mismatch floor binds eventually.
        let many = twisted_differential_residue(&g, args.0, args.1, args.2, args.3, 1000).unwrap();
        assert!((many.0 / (untwisted.0 * TWIST_MISMATCH) - 1.0).abs() < 1e-9);
        assert!(twisted_differential_residue(&g, args.0, args.1, args.2, args.3, 0).is_err());
    }

    #[test]
    fn bad_inputs_rejected() {
        let g = top(TechNode::N50);
        assert!(coupled_noise(&g, Microns(1.0), Microns(1.0), 0.01, Seconds(0.0)).is_err());
        assert!(coupled_noise(&g, Microns(1.0), Microns(0.0), 0.01, Seconds(1e-12)).is_err());
    }
}
