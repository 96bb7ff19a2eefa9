//! MOS current-mode logic as a current-transient-free alternative
//! (Section 4, ref. \[42\]).
//!
//! "One option is MOS current mode logic (MCML), which burns static power
//! but yields much smaller current transients while providing comparable
//! performance and lower total power in high activity circuitry such as
//! datapaths."
//!
//! An MCML gate steers a constant tail current `I_tail` between two legs;
//! its supply current is flat (transient ≈ a small mismatch residue),
//! while a static-CMOS gate draws its whole switching charge as a spike.

use crate::error::GridError;
use np_units::{Amps, Farads, Hertz, Volts, Watts};

/// Residual supply-current disturbance of an MCML gate during switching,
/// as a fraction of its tail current.
pub const MCML_TRANSIENT_RESIDUE: f64 = 0.05;

/// A comparison of one CMOS gate versus one MCML gate of equal drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicStyleComparison {
    /// Load both gates drive.
    pub c_load: Farads,
    /// Supply voltage.
    pub vdd: Volts,
    /// Clock frequency.
    pub freq: Hertz,
    /// MCML tail current sized to switch the same load at the same speed.
    pub i_tail: Amps,
}

impl LogicStyleComparison {
    /// Sizes the MCML tail current to match the CMOS gate's speed: the
    /// tail must slew the load through the MCML swing within half a clock
    /// period (`I = C·V_swing·2f`); MCML swing is ~0.4·Vdd.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadParameter`] for non-positive inputs.
    pub fn matched(c_load: Farads, vdd: Volts, freq: Hertz) -> Result<Self, GridError> {
        if !(c_load.0 > 0.0 && vdd.0 > 0.0 && freq.0 > 0.0) {
            return Err(GridError::BadParameter(
                "comparison inputs must be positive",
            ));
        }
        let swing = 0.4 * vdd.0;
        let i_tail = Amps(c_load.0 * swing * 2.0 * freq.0);
        Ok(Self {
            c_load,
            vdd,
            freq,
            i_tail,
        })
    }

    /// CMOS power at switching activity `activity`.
    pub fn cmos_power(&self, activity: f64) -> Watts {
        Watts(activity * self.freq.0 * self.c_load.0 * self.vdd.0 * self.vdd.0)
    }

    /// MCML power — activity-independent static burn.
    pub fn mcml_power(&self) -> Watts {
        self.i_tail * self.vdd
    }

    /// Peak supply-current transient of the CMOS gate (charge delivered
    /// in roughly a quarter period).
    pub fn cmos_current_transient(&self) -> Amps {
        Amps(self.c_load.0 * self.vdd.0 * 4.0 * self.freq.0)
    }

    /// Peak supply-current disturbance of the MCML gate.
    pub fn mcml_current_transient(&self) -> Amps {
        self.i_tail * MCML_TRANSIENT_RESIDUE
    }

    /// The activity above which MCML burns *less* total power than CMOS:
    /// `α* = I_tail·Vdd / (f·C·Vdd²)`.
    pub fn crossover_activity(&self) -> f64 {
        self.mcml_power().0 / (self.freq.0 * self.c_load.0 * self.vdd.0 * self.vdd.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp() -> LogicStyleComparison {
        LogicStyleComparison::matched(Farads::from_femto(20.0), Volts(0.6), Hertz(10e9)).unwrap()
    }

    #[test]
    fn mcml_transients_are_an_order_smaller() {
        let c = cmp();
        let ratio = c.cmos_current_transient().0 / c.mcml_current_transient().0;
        assert!(ratio > 10.0, "got {ratio}");
    }

    #[test]
    fn mcml_power_is_activity_independent() {
        let c = cmp();
        assert_eq!(c.mcml_power(), c.mcml_power());
        assert!(c.cmos_power(0.2).0 > c.cmos_power(0.1).0);
    }

    #[test]
    fn mcml_wins_at_datapath_activities() {
        // The crossover sits below 1: high-activity datapaths favor MCML.
        let c = cmp();
        let a_star = c.crossover_activity();
        assert!(
            (0.2..1.0).contains(&a_star),
            "crossover {a_star} should be sub-unity"
        );
        assert!(c.mcml_power() < c.cmos_power(a_star * 1.2));
        assert!(c.mcml_power() > c.cmos_power(a_star * 0.8));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(LogicStyleComparison::matched(Farads(0.0), Volts(0.6), Hertz(1e9)).is_err());
    }
}
