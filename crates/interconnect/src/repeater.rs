//! Optimal CMOS repeater insertion and the chip-level repeater census.
//!
//! Section 2.2: "the current signaling paradigm of inserting large CMOS
//! buffers along an RC line … requires over 50 W of power in the nanometer
//! regime", with "nearly 10⁶ \[repeaters\] required at 50-nm compared to
//! about 10⁴ in a large 180 nm microprocessor".
//!
//! Classic Bakoglu sizing: for a line with per-length `r_w`, `c_w` and a
//! driver technology with unit resistance `r_d` (Ω·µm) and gate cap `c_0`
//! (F/µm),
//!
//! ```text
//! segment length  l_opt = sqrt(2·0.69·r_d·c_0 / (0.38·r_w·c_w))
//! repeater width  W_opt = sqrt(r_d·c_w / (r_w·c_0))   [µm]
//! ```

use crate::elmore::RcLine;
use crate::error::InterconnectError;
use crate::wire::WireGeometry;
use np_device::Mosfet;
use np_roadmap::TechNode;
use np_units::{guard, Farads, Microns, Ohms, Seconds, Volts, Watts};

/// Repeater drain (self-load) capacitance relative to its gate cap.
pub const DRAIN_CAP_FRACTION: f64 = 1.0;

/// Fraction of top-level routing tracks carrying switching global signals.
pub const GLOBAL_UTILIZATION: f64 = 0.3;

/// Default switching activity of global wires.
pub const GLOBAL_ACTIVITY: f64 = 0.15;

/// The driver strength of a technology, per micron of repeater width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverTech {
    /// Effective switching resistance × width, Ω·µm.
    pub rd_ohm_um: f64,
    /// Gate capacitance per micron of width.
    pub c0_per_um: f64,
    /// Supply the repeaters switch at.
    pub vdd: Volts,
}

impl DriverTech {
    /// Extracts the driver figure of merit from a calibrated device at
    /// supply `vdd`: `r_d = 0.69⁻¹·k_d·Vdd / Ion`.
    ///
    /// # Errors
    ///
    /// Propagates drive-model errors.
    pub fn from_device(dev: &Mosfet, vdd: Volts) -> Result<Self, InterconnectError> {
        guard::finite(vdd.0, "Vdd", "DriverTech::from_device")?;
        let ion = dev.ion(vdd)?; // µA/µm
        Ok(DriverTech {
            rd_ohm_um: vdd.0 / (ion.0 * 1e-6),
            c0_per_um: dev.gate_cap_per_um().0,
            vdd,
        })
    }
}

/// An optimally repeated long wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeaterDesign {
    /// Number of repeaters along the line.
    pub count: usize,
    /// Repeater width in microns.
    pub width: Microns,
    /// Segment length between repeaters.
    pub spacing: Microns,
    /// End-to-end 50 % delay of the repeated line.
    pub total_delay: Seconds,
    /// Energy drawn from the supply per full transition of the line.
    pub energy_per_transition: f64,
}

/// Optimally inserts repeaters in `line` using drivers from `tech`.
///
/// # Errors
///
/// Returns [`InterconnectError::BadParameter`] for unphysical driver
/// parameters.
pub fn insert_repeaters(
    line: &RcLine,
    tech: &DriverTech,
) -> Result<RepeaterDesign, InterconnectError> {
    let ctx = "insert_repeaters";
    guard::finite(tech.rd_ohm_um, "driver resistance", ctx)?;
    guard::finite(tech.c0_per_um, "driver gate cap", ctx)?;
    guard::finite(tech.vdd.0, "Vdd", ctx)?;
    if !(tech.rd_ohm_um > 0.0 && tech.c0_per_um > 0.0) {
        return Err(InterconnectError::BadParameter(
            "driver parameters must be positive",
        ));
    }
    let rw = line.geometry.resistance_per_micron().0; // Ω/µm
    let cw = line.geometry.capacitance_per_micron().0; // F/µm
    let c_gate = tech.c0_per_um * (1.0 + DRAIN_CAP_FRACTION);
    let l_opt = (2.0 * 0.69 * tech.rd_ohm_um * c_gate / (0.38 * rw * cw)).sqrt();
    let w_opt = (tech.rd_ohm_um * cw / (rw * tech.c0_per_um)).sqrt();
    let count = (line.length.0 / l_opt).ceil().max(1.0) as usize;
    let seg_len = line.length.0 / count as f64;
    let seg = RcLine::new(line.geometry, Microns(seg_len))?;
    let driver_r = Ohms(tech.rd_ohm_um / w_opt);
    let load = Farads(w_opt * tech.c0_per_um);
    let seg_delay = seg.elmore_delay(driver_r, load);
    let wire_energy = cw * line.length.0 * tech.vdd.0 * tech.vdd.0;
    let repeater_energy = count as f64 * w_opt * c_gate * tech.vdd.0 * tech.vdd.0;
    Ok(RepeaterDesign {
        count,
        width: Microns(w_opt),
        spacing: Microns(seg_len),
        total_delay: seg_delay * count as f64,
        energy_per_transition: wire_energy + repeater_energy,
    })
}

/// The chip-level repeater census of one node: total global wire length,
/// repeater count, and the power burned pacing it at the global clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeaterCensus {
    /// The node surveyed.
    pub node: TechNode,
    /// Total switched top-level wire length.
    pub wire_length: Microns,
    /// Repeaters on that wiring.
    pub repeater_count: usize,
    /// Optimal repeater spacing.
    pub spacing: Microns,
    /// Total dissipation at the node's global clock and
    /// [`GLOBAL_ACTIVITY`].
    pub power: Watts,
}

/// Total switched global wire length of a node: utilization × global
/// layers × die area / routing pitch.
pub fn global_wire_length(node: TechNode, geometry: &WireGeometry) -> Microns {
    let p = node.params();
    let layers = (p.wiring_levels as f64 - 5.0).max(1.0);
    let area_um2 = p.die_area.0 * 1e6;
    Microns(GLOBAL_UTILIZATION * layers * area_um2 / geometry.pitch().0)
}

/// Runs the census for `node` with its scaled minimum-pitch top wiring.
///
/// # Errors
///
/// Propagates device-calibration errors.
pub fn repeater_census(node: TechNode) -> Result<RepeaterCensus, InterconnectError> {
    let geometry = WireGeometry::top_level(node);
    let p = node.params();
    let dev = Mosfet::for_node(node)?;
    let tech = DriverTech::from_device(&dev, p.vdd)?;
    let total = global_wire_length(node, &geometry);
    // Census on a representative 1 cm wire, scaled to the total length.
    let probe = RcLine::new(geometry, Microns(10_000.0))?;
    let design = insert_repeaters(&probe, &tech)?;
    let count = (total.0 / design.spacing.0).round() as usize;
    let energy_per_um = design.energy_per_transition / probe.length.0;
    let f = p.global_clock.0;
    let power = Watts(GLOBAL_ACTIVITY * f * energy_per_um * total.0);
    Ok(RepeaterCensus {
        node,
        wire_length: total,
        repeater_count: count,
        spacing: design.spacing,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech(node: TechNode) -> DriverTech {
        let dev = Mosfet::for_node(node).unwrap();
        DriverTech::from_device(&dev, node.params().vdd).unwrap()
    }

    fn cm_line(node: TechNode) -> RcLine {
        RcLine::new(WireGeometry::top_level(node), Microns(10_000.0)).unwrap()
    }

    #[test]
    fn repeated_line_beats_unbuffered() {
        let node = TechNode::N50;
        let line = cm_line(node);
        let design = insert_repeaters(&line, &tech(node)).unwrap();
        assert!(design.total_delay < line.intrinsic_delay());
        assert!(design.count > 1);
    }

    #[test]
    fn repeated_delay_is_linear_in_length() {
        let node = TechNode::N50;
        let t = tech(node);
        let d1 = insert_repeaters(&cm_line(node), &t).unwrap();
        let line2 = RcLine::new(WireGeometry::top_level(node), Microns(20_000.0)).unwrap();
        let d2 = insert_repeaters(&line2, &t).unwrap();
        let ratio = d2.total_delay.0 / d1.total_delay.0;
        assert!((ratio - 2.0).abs() < 0.1, "got {ratio}");
    }

    #[test]
    fn spacing_shrinks_with_scaling() {
        let s180 = insert_repeaters(&cm_line(TechNode::N180), &tech(TechNode::N180))
            .unwrap()
            .spacing;
        let s50 = insert_repeaters(&cm_line(TechNode::N50), &tech(TechNode::N50))
            .unwrap()
            .spacing;
        assert!(s50.0 < s180.0 / 2.0, "{s180} -> {s50}");
    }

    #[test]
    fn census_matches_paper_orders_of_magnitude() {
        // Section 2.2: ~10^4 repeaters at 180 nm, nearly 10^6 at 50 nm.
        let c180 = repeater_census(TechNode::N180).unwrap();
        let c50 = repeater_census(TechNode::N50).unwrap();
        assert!(
            (5_000..=100_000).contains(&c180.repeater_count),
            "180 nm count {}",
            c180.repeater_count
        );
        assert!(
            (300_000..=4_000_000).contains(&c50.repeater_count),
            "50 nm count {}",
            c50.repeater_count
        );
        assert!(
            c50.repeater_count > 20 * c180.repeater_count,
            "proliferation"
        );
    }

    #[test]
    fn nanometer_global_power_exceeds_50w() {
        // Section 2.2: "this requires over 50 W of power in the nanometer
        // regime" (full-swing repeated signaling, unscaled wiring enables
        // the clocks but the power is of this order either way).
        let c50 = repeater_census(TechNode::N50).unwrap();
        let c35 = repeater_census(TechNode::N35).unwrap();
        assert!(
            c50.power.0 > 30.0 && c50.power.0 < 200.0,
            "50 nm power {}",
            c50.power
        );
        assert!(c35.power > c50.power * 0.8, "35 nm remains costly");
        assert!(c50.power.0.max(c35.power.0) > 50.0);
    }

    #[test]
    fn bad_driver_rejected() {
        let line = cm_line(TechNode::N70);
        let bad = DriverTech {
            rd_ohm_um: 0.0,
            c0_per_um: 1e-15,
            vdd: Volts(0.9),
        };
        assert!(insert_repeaters(&line, &bad).is_err());
    }
}
