//! Distributed-RC line delay (Elmore metric).
//!
//! For a line of total resistance `R` and capacitance `C` driven by a
//! source of resistance `Rd` into a load `Cl`:
//!
//! ```text
//! t_50% = 0.69·Rd·(C + Cl) + 0.38·R·C + 0.69·R·Cl
//! ```
//!
//! — the standard buffered-interconnect budget the paper's repeater
//! discussion builds on.

use crate::error::InterconnectError;
use crate::wire::WireGeometry;
use np_units::{guard, Farads, Microns, Ohms, Seconds};

/// A concrete wire segment: geometry × length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcLine {
    /// Cross-sectional geometry.
    pub geometry: WireGeometry,
    /// Segment length.
    pub length: Microns,
}

impl RcLine {
    /// A line of `length` in `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::BadParameter`] for non-positive
    /// length, [`InterconnectError::NonFinite`] for a NaN/infinite length
    /// or a geometry with a NaN/infinite cross-section.
    pub fn new(geometry: WireGeometry, length: Microns) -> Result<Self, InterconnectError> {
        let ctx = "RcLine::new";
        guard::finite(length.0, "line length", ctx)?;
        guard::all_finite(
            &[
                geometry.width.0,
                geometry.spacing.0,
                geometry.thickness.0,
                geometry.height.0,
                geometry.k_dielectric,
                geometry.resistivity,
            ],
            "wire geometry",
            ctx,
        )?;
        if !(length.0 > 0.0) {
            return Err(InterconnectError::BadParameter(
                "line length must be positive",
            ));
        }
        Ok(Self { geometry, length })
    }

    /// Total series resistance.
    pub fn resistance(&self) -> Ohms {
        Ohms(self.geometry.resistance_per_micron().0 * self.length.0)
    }

    /// Total capacitance to ground and neighbours.
    pub fn capacitance(&self) -> Farads {
        self.geometry.capacitance_per_micron() * self.length
    }

    /// 50 %-point delay with the given driver resistance and far-end load.
    pub fn elmore_delay(&self, driver: Ohms, load: Farads) -> Seconds {
        let r = self.resistance().0;
        let c = self.capacitance().0;
        Seconds(0.69 * driver.0 * (c + load.0) + 0.38 * r * c + 0.69 * r * load.0)
    }

    /// The unbuffered wire-only delay `0.38·R·C` — quadratic in length,
    /// the reason repeaters exist.
    pub fn intrinsic_delay(&self) -> Seconds {
        Seconds(0.38 * self.resistance().0 * self.capacitance().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_roadmap::TechNode;

    fn line(len_um: f64) -> RcLine {
        RcLine::new(WireGeometry::top_level(TechNode::N50), Microns(len_um)).expect("valid")
    }

    #[test]
    fn intrinsic_delay_is_quadratic_in_length() {
        let d1 = line(1_000.0).intrinsic_delay();
        let d2 = line(2_000.0).intrinsic_delay();
        assert!((d2.0 / d1.0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cross_chip_wire_is_multi_nanosecond_unbuffered() {
        // A 2 cm unbuffered minimum-pitch global wire at 50 nm is far too
        // slow for a 3 GHz global clock — the Section 2.2 problem.
        let d = line(20_000.0).intrinsic_delay();
        assert!(d.as_nano() > 1.0, "got {} ns", d.as_nano());
    }

    #[test]
    fn elmore_includes_driver_and_load_terms() {
        let l = line(1_000.0);
        let bare = l.elmore_delay(Ohms(0.0), Farads(0.0));
        assert!((bare.0 - l.intrinsic_delay().0).abs() < 1e-18);
        let driven = l.elmore_delay(Ohms(1_000.0), Farads::from_femto(50.0));
        assert!(driven > bare);
    }

    #[test]
    fn zero_length_rejected() {
        assert!(RcLine::new(WireGeometry::top_level(TechNode::N50), Microns(0.0)).is_err());
    }
}
