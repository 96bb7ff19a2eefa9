//! Dual-threshold scaling analysis (the paper's Fig. 2 and Section 3.2.2).
//!
//! Two devices in the same technology, thresholds offset by `ΔVth`:
//!
//! * the **high-Vth** device has its threshold set so `Ion = 750 µA/µm`;
//! * the **low-Vth** device trades exponentially more `Ioff` (exactly
//!   `10^(ΔVth/85 mV)` — ≈15× per 100 mV, node-independent) for extra
//!   drive.
//!
//! Fig. 2 plots two quantities against the technology node: the `Ion` gain
//! a fixed 100 mV reduction buys ([`ion_gain`]), which *grows* with
//! scaling, and the `Ioff` penalty required for a fixed +20 % `Ion`
//! ([`ioff_penalty_for_gain`]), which *shrinks* — together the paper's
//! argument that "the dual-Vth approach to leakage reduction is inherently
//! scalable".

use crate::error::DeviceError;
use crate::model::{Mosfet, SUBTHRESHOLD_SWING_V};
use np_roadmap::TechNode;
use np_units::math::bisect;
use np_units::Volts;

/// A high-Vth / low-Vth device pair in one technology.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthPair {
    /// The reference device (threshold meets the ITRS `Ion` target).
    pub high: Mosfet,
    /// The fast device (threshold lowered by `delta_vth`).
    pub low: Mosfet,
    /// Threshold offset `Vth,high − Vth,low` (positive).
    pub delta_vth: Volts,
}

impl DualVthPair {
    /// Builds the pair for a roadmap node with the given threshold offset.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors; rejects non-positive offsets.
    pub fn for_node(node: TechNode, delta_vth: Volts) -> Result<Self, DeviceError> {
        if !(delta_vth.0 > 0.0) {
            return Err(DeviceError::BadParameter(
                "threshold offset must be positive",
            ));
        }
        let high = Mosfet::for_node(node)?;
        let low = high.with_vth(high.vth - delta_vth);
        Ok(Self {
            high,
            low,
            delta_vth,
        })
    }

    /// Relative drive-current gain of the low-Vth device,
    /// `Ion,low / Ion,high − 1`.
    ///
    /// # Errors
    ///
    /// Propagates drive-model errors.
    pub fn ion_gain(&self, vdd: Volts) -> Result<f64, DeviceError> {
        let hi = self.high.ion(vdd)?;
        let lo = self.low.ion(vdd)?;
        Ok(lo / hi - 1.0)
    }
}

/// The node-independent `Ioff` multiplier of a threshold reduction
/// `delta_vth` (Eq. 4): `10^(ΔVth / 85 mV)`.
///
/// # Examples
///
/// ```
/// let r = np_device::dualvth::ioff_multiplier(np_units::Volts(0.1));
/// assert!((r - 15.0).abs() < 0.1);
/// ```
pub fn ioff_multiplier(delta_vth: Volts) -> f64 {
    10f64.powf(delta_vth.0 / SUBTHRESHOLD_SWING_V)
}

/// Fig. 2 upper curve: percentage `Ion` increase a 100 mV threshold
/// reduction buys at `node` (at the node's nominal supply).
///
/// # Errors
///
/// Propagates calibration and drive-model errors.
pub fn ion_gain(node: TechNode, delta_vth: Volts) -> Result<f64, DeviceError> {
    let pair = DualVthPair::for_node(node, delta_vth)?;
    pair.ion_gain(node.params().vdd)
}

/// Fig. 2 lower curve: the `Ioff` multiplier needed for the low-Vth device
/// to deliver `gain` (e.g. 0.20 = +20 %) more drive than the high-Vth
/// device.
///
/// Solves the threshold offset by bisection, then applies Eq. 4.
///
/// # Errors
///
/// Propagates calibration errors; returns [`DeviceError::TargetUnreachable`]
/// when no offset up to `Vth,high + 0.25 V` achieves the gain.
pub fn ioff_penalty_for_gain(node: TechNode, gain: f64) -> Result<f64, DeviceError> {
    if !(gain > 0.0) {
        return Err(DeviceError::BadParameter("gain must be positive"));
    }
    let high = Mosfet::for_node(node)?;
    let vdd = node.params().vdd;
    let ion_high = high.ion(vdd)?.0;
    let gain_at = |dv: f64| -> f64 {
        high.with_vth(high.vth - Volts(dv))
            .ion(vdd)
            .map(|i| i.0 / ion_high - 1.0)
            .unwrap_or(f64::NAN)
    };
    let dv_max = high.vth.0 + 0.25;
    if gain_at(dv_max) < gain {
        return Err(DeviceError::TargetUnreachable {
            vdd,
            target_ua_per_um: (1.0 + gain) * ion_high,
        });
    }
    let dv = bisect(|dv| gain_at(dv) - gain, 0.0, dv_max, 1e-7)?;
    Ok(ioff_multiplier(Volts(dv)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_is_15x_per_100mv() {
        assert!((ioff_multiplier(Volts(0.1)) - 15.0).abs() < 0.1);
        assert!((ioff_multiplier(Volts(0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_ioff_ratio_matches_closed_form() {
        let pair = DualVthPair::for_node(TechNode::N100, Volts(0.1)).unwrap();
        let ratio = pair.low.ioff() / pair.high.ioff();
        assert!((ratio - ioff_multiplier(Volts(0.1))).abs() < 1e-6);
    }

    #[test]
    fn ion_gain_grows_with_scaling() {
        // Fig. 2: "Ion increases more rapidly with a 100 mV change in Vth
        // for scaled technologies".
        let g180 = ion_gain(TechNode::N180, Volts(0.1)).unwrap();
        let g70 = ion_gain(TechNode::N70, Volts(0.1)).unwrap();
        let g35 = ion_gain(TechNode::N35, Volts(0.1)).unwrap();
        assert!(g180 < g70 && g70 < g35, "{g180} {g70} {g35}");
        assert!(g180 > 0.02 && g180 < 0.20, "180 nm gain {g180}");
        assert!(g35 > 0.15 && g35 < 0.50, "35 nm gain {g35}");
    }

    #[test]
    fn ioff_penalty_shrinks_with_scaling() {
        // Fig. 2: "just a 7X rise in Ioff is required [at 35 nm] ...
        // compared with a factor of 54X today".
        let p180 = ioff_penalty_for_gain(TechNode::N180, 0.20).unwrap();
        let p35 = ioff_penalty_for_gain(TechNode::N35, 0.20).unwrap();
        assert!(p35 < p180 / 3.0, "penalty must collapse: {p180} -> {p35}");
        assert!((3.0..=20.0).contains(&p35), "35 nm penalty {p35}");
        assert!(p180 > 20.0, "180 nm penalty {p180}");
    }

    #[test]
    fn gain_and_penalty_are_consistent() {
        // Applying the solved penalty's ΔVth must reproduce the gain.
        let node = TechNode::N70;
        let penalty = ioff_penalty_for_gain(node, 0.20).unwrap();
        let dv = Volts(SUBTHRESHOLD_SWING_V * penalty.log10());
        let pair = DualVthPair::for_node(node, dv).unwrap();
        let g = pair.ion_gain(node.params().vdd).unwrap();
        assert!((g - 0.20).abs() < 1e-3, "got {g}");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(DualVthPair::for_node(TechNode::N70, Volts(0.0)).is_err());
        assert!(ioff_penalty_for_gain(TechNode::N70, 0.0).is_err());
        assert!(ioff_penalty_for_gain(TechNode::N70, 50.0).is_err());
    }
}
