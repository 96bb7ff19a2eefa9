//! Subthreshold leakage of series transistor stacks.
//!
//! Section 3.3 closes with "the use of different threshold transistors in a
//! stacked arrangement can give fairly substantial leakage savings with
//! minimal delay penalties", leveraging the *stack effect*: with two or
//! more series devices off, the internal node floats to a small positive
//! voltage, which (a) reverse-biases the top device's gate, (b) reduces its
//! drain-to-source voltage (and hence DIBL), and (c) collapses the bottom
//! device's `1 − e^(−Vds/φt)` factor.
//!
//! The model extends Eq. 4 with its standard bias dependences:
//!
//! ```text
//! I(Vgs, Vds) = I0 · 10^((Vgs − Vth + η·Vds)/S) · (1 − e^(−Vds/φt))
//! ```
//!
//! and solves the internal node voltages by current continuity (bisection,
//! applied recursively for stacks deeper than two).

use crate::error::DeviceError;
use crate::model::{Mosfet, DIBL_ETA};
use np_units::math::bisect;
use np_units::{MicroampsPerMicron, Volts};

/// A series stack of off transistors, bottom first.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_device::DeviceError> {
/// use np_device::{stack::SubthresholdStack, Mosfet};
/// use np_roadmap::TechNode;
///
/// let dev = Mosfet::for_node(TechNode::N70)?;
/// let single = SubthresholdStack::uniform(&dev, 1).leakage(dev.nominal_vdd())?;
/// let double = SubthresholdStack::uniform(&dev, 2).leakage(dev.nominal_vdd())?;
/// assert!(single.0 / double.0 > 5.0, "two-stacks leak several times less");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SubthresholdStack {
    devices: Vec<Mosfet>,
}

impl SubthresholdStack {
    /// A stack of `n` copies of one device.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(device: &Mosfet, n: usize) -> Self {
        assert!(n > 0, "stack needs at least one device");
        Self {
            devices: vec![device.clone(); n],
        }
    }

    /// Leakage current of the stack with all gates at 0 V and the top
    /// drain at `vdd`, per micron of width.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadParameter`] for a non-positive supply;
    /// internal-node solves propagate as [`DeviceError::Solve`].
    pub fn leakage(&self, vdd: Volts) -> Result<MicroampsPerMicron, DeviceError> {
        if !(vdd.0 > 0.0) {
            return Err(DeviceError::BadParameter("supply must be positive"));
        }
        self.leakage_rec(&self.devices, vdd)
    }

    /// Leakage suppression factor relative to the bottom device alone:
    /// `Ioff(single) / Ioff(stack)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubthresholdStack::leakage`].
    pub fn suppression_factor(&self, vdd: Volts) -> Result<f64, DeviceError> {
        let single = subthreshold_current(&self.devices[0], Volts(0.0), vdd);
        let stacked = self.leakage(vdd)?;
        Ok(single / stacked.0)
    }

    fn leakage_rec(
        &self,
        devices: &[Mosfet],
        vtotal: Volts,
    ) -> Result<MicroampsPerMicron, DeviceError> {
        match devices {
            [only] => Ok(MicroampsPerMicron(subthreshold_current(
                only,
                Volts(0.0),
                vtotal,
            ))),
            [rest @ .., top] => {
                // Current continuity: the (n-1)-substack at drain bias Vx
                // must carry the same current as the top device with
                // Vgs = -Vx, Vds = Vtotal - Vx. The substack current falls
                // with decreasing Vx while the top current rises, so the
                // difference brackets a root on (0, Vtotal).
                let balance = |vx: f64| -> f64 {
                    // A substack at (near-)zero drain bias carries no
                    // current; treating inner solve failures at the
                    // interval ends as zero keeps the bracket intact.
                    let below = self
                        .leakage_rec(rest, Volts(vx))
                        .map(|i| i.0)
                        .unwrap_or(0.0);
                    let above = subthreshold_current(top, Volts(-vx), Volts(vtotal.0 - vx));
                    below - above
                };
                let eps = 1e-9;
                let vx = bisect(balance, eps, vtotal.0 - eps, 1e-12)?;
                self.leakage_rec(rest, Volts(vx))
            }
            [] => unreachable!("constructor guarantees non-empty stacks"),
        }
    }
}

/// The bias-dependent subthreshold current (µA/µm) underlying Eq. 4.
///
/// At `Vgs = 0, Vds = Vdd` (large) this reduces to the paper's
/// `Ioff = 10 × 10^(−Vth/S)` up to the DIBL normalization, which is chosen
/// so single-device leakage matches [`Mosfet::ioff`] at full drain bias.
pub fn subthreshold_current(dev: &Mosfet, vgs: Volts, vds: Volts) -> f64 {
    if vds.0 <= 0.0 {
        return 0.0;
    }
    let s = dev.subthreshold_swing().0;
    let phi_t = 0.0259 * dev.temp_kelvin().0 / 300.0;
    // Normalize DIBL to full drain bias so that subthreshold_current at
    // (0, Vdd_nominal) equals dev.ioff().
    let vdd_ref = dev.nominal_vdd().0;
    let base = dev.ioff().0;
    base * 10f64.powf((vgs.0 + DIBL_ETA * (vds.0 - vdd_ref)) / s) * (1.0 - (-vds.0 / phi_t).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_roadmap::TechNode;

    fn dev() -> Mosfet {
        Mosfet::for_node(TechNode::N70).expect("calibrated device")
    }

    #[test]
    fn single_device_stack_matches_ioff() {
        let d = dev();
        let stack = SubthresholdStack::uniform(&d, 1);
        let i = stack.leakage(d.nominal_vdd()).unwrap();
        assert!((i.0 / d.ioff().0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_stack_suppresses_by_about_an_order() {
        let d = dev();
        let f = SubthresholdStack::uniform(&d, 2)
            .suppression_factor(d.nominal_vdd())
            .unwrap();
        assert!((4.0..=40.0).contains(&f), "suppression {f} out of band");
    }

    #[test]
    fn deeper_stacks_suppress_more() {
        let d = dev();
        let v = d.nominal_vdd();
        let f2 = SubthresholdStack::uniform(&d, 2)
            .suppression_factor(v)
            .unwrap();
        let f3 = SubthresholdStack::uniform(&d, 3)
            .suppression_factor(v)
            .unwrap();
        assert!(f3 > f2);
    }

    #[test]
    fn zero_vds_carries_no_current() {
        assert_eq!(subthreshold_current(&dev(), Volts(0.0), Volts(0.0)), 0.0);
    }

    #[test]
    fn rejects_non_positive_supply() {
        let d = dev();
        assert!(SubthresholdStack::uniform(&d, 2)
            .leakage(Volts(0.0))
            .is_err());
    }
}
