//! Low-swing and differential global signaling (Section 2.2).
//!
//! "The Alpha 21264 uses differential low-swing buses … worst-case power
//! for these buses was reduced significantly by limiting the voltage swing
//! to 10 % of Vdd." Energy per transition of a reduced-swing driver fed
//! from the full rail is `C·Vswing·Vdd` (one `Vswing` charge transferred
//! across the full supply), a ~10× saving at 10 % swing. Differential
//! routing "increases routing area, but the increase may be less than the
//! expected factor of 2" because long full-swing lines would need shield
//! wires anyway.

use crate::elmore::RcLine;
use crate::error::InterconnectError;
use np_units::{guard, Volts};

/// Default swing as a fraction of `Vdd` (the Alpha 21264 figure).
pub const DEFAULT_SWING_FRACTION: f64 = 0.1;

/// Smallest swing a practical sense-amplifier receiver resolves reliably.
pub const MIN_RESOLVABLE_SWING: Volts = Volts(0.04);

/// Routing-area factor of a differential pair relative to a single-ended
/// full-swing wire *with its shield* ("less than the expected factor
/// of 2").
pub const DIFFERENTIAL_AREA_FACTOR: f64 = 1.6;

/// A differential low-swing point-to-point link.
#[derive(Debug, Clone, PartialEq)]
pub struct LowSwingLink {
    /// The (per-wire) line.
    pub line: RcLine,
    /// Voltage swing on the wires.
    pub swing: Volts,
    /// Full supply that sources the swing current.
    pub vdd: Volts,
}

impl LowSwingLink {
    /// A link over `line` at the default 10 % swing of `vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::Infeasible`] when 10 % of `vdd` is
    /// below the receiver sensitivity ([`MIN_RESOLVABLE_SWING`]).
    pub fn new(line: RcLine, vdd: Volts) -> Result<Self, InterconnectError> {
        Self::with_swing(line, vdd, vdd * DEFAULT_SWING_FRACTION)
    }

    /// A link with an explicit swing.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadParameter`] when the swing is not in
    /// `(0, vdd]`; [`InterconnectError::Infeasible`] when it is below
    /// [`MIN_RESOLVABLE_SWING`] — the paper's open question of "tolerable
    /// voltage swings".
    pub fn with_swing(line: RcLine, vdd: Volts, swing: Volts) -> Result<Self, InterconnectError> {
        let ctx = "LowSwingLink::with_swing";
        guard::finite(vdd.0, "Vdd", ctx)?;
        guard::finite(swing.0, "swing", ctx)?;
        if !(swing.0 > 0.0) || swing > vdd {
            return Err(InterconnectError::BadParameter("swing must be in (0, vdd]"));
        }
        if swing < MIN_RESOLVABLE_SWING {
            return Err(InterconnectError::Infeasible(
                "swing below sense-amplifier sensitivity",
            ));
        }
        Ok(Self { line, swing, vdd })
    }

    /// Energy drawn from the supply per transition: `C_shielded·Vs·Vdd`
    /// per switching wire of the pair (one wire of a differential pair
    /// transitions each way).
    pub fn energy_per_transition(&self) -> f64 {
        let c = self.line.geometry.capacitance_shielded_per_micron().0 * self.line.length.0;
        c * self.swing.0 * self.vdd.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireGeometry;
    use np_roadmap::TechNode;
    use np_units::Microns;

    fn link(node: TechNode) -> LowSwingLink {
        let line = RcLine::new(WireGeometry::top_level(node), Microns(10_000.0)).unwrap();
        LowSwingLink::new(line, node.params().vdd).unwrap()
    }

    fn full_swing_energy(node: TechNode) -> f64 {
        let line = RcLine::new(WireGeometry::top_level(node), Microns(10_000.0)).unwrap();
        let v = node.params().vdd.0;
        line.capacitance().0 * v * v
    }

    #[test]
    fn tenx_energy_saving_at_10pct_swing() {
        // E = C·(0.1·Vdd)·Vdd vs C·Vdd²: 10x per wire, slightly less after
        // the shielded-capacitance credit.
        let node = TechNode::N70;
        let ratio = full_swing_energy(node) / link(node).energy_per_transition();
        assert!((8.0..=16.0).contains(&ratio), "got {ratio}x");
    }

    #[test]
    fn swing_below_sensitivity_is_infeasible() {
        let line = RcLine::new(WireGeometry::top_level(TechNode::N35), Microns(5_000.0)).unwrap();
        // 10% of 0.35 V = 35 mV < 40 mV sensitivity.
        let err = LowSwingLink::with_swing(line, Volts(0.35), Volts(0.035)).unwrap_err();
        assert!(matches!(err, InterconnectError::Infeasible(_)));
    }

    #[test]
    fn bad_swing_rejected() {
        let line = RcLine::new(WireGeometry::top_level(TechNode::N70), Microns(5_000.0)).unwrap();
        assert!(LowSwingLink::with_swing(line, Volts(0.9), Volts(0.0)).is_err());
        assert!(LowSwingLink::with_swing(line, Volts(0.9), Volts(1.0)).is_err());
    }

    #[test]
    fn area_factor_is_below_2() {
        const { assert!(DIFFERENTIAL_AREA_FACTOR < 2.0) };
        const { assert!(DIFFERENTIAL_AREA_FACTOR > 1.0) };
    }
}
