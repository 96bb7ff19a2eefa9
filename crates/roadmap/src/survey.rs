//! The paper's Table 1: recent (as of 2000) published NMOS device results,
//! compared with ITRS projections.
//!
//! Each [`DeviceReport`] row carries the reference tag the paper cites, the
//! ITRS node the authors assign the device to, and the reported `Tox`,
//! `Vdd`, `Ion`, `Ioff`. The key observation the paper draws from the table
//! — that *no published sub-1 V technology meets the ITRS on/off targets*
//! ([`no_sub_1v_device_meets_itrs`]) — is provided as a query so the claim
//! is testable rather than prose.

use np_units::{MicroampsPerMicron, Volts};
use std::fmt;

/// Whether a reported oxide thickness is the electrical or the physical
/// value (the paper's Table 1 mixes both and flags which).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateStack {
    /// Electrically measured oxide (includes inversion-layer and
    /// poly-depletion thickening).
    Electrical,
    /// Physically measured oxide.
    Physical,
}

impl fmt::Display for GateStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateStack::Electrical => write!(f, "electrical"),
            GateStack::Physical => write!(f, "physical"),
        }
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Citation tag in the paper (e.g. "\[24\]") or "ITRS".
    pub reference: &'static str,
    /// First author / organization, for readable reports.
    pub source: &'static str,
    /// ITRS node(s) the device is assigned to, in nanometers; a range is
    /// `(lo, hi)`, a single node `(n, n)`.
    pub node_nm: (u32, u32),
    /// Reported oxide thickness range in Å; a single value is `(t, t)`.
    pub tox_angstrom: (f64, f64),
    /// Which oxide thickness was reported.
    pub gate_stack: GateStack,
    /// Operating supply voltage.
    pub vdd: Volts,
    /// Reported saturation drive current.
    pub ion: MicroampsPerMicron,
    /// Reported off current.
    pub ioff: MicroampsPerMicron,
}

impl DeviceReport {
    /// True when this row is an ITRS projection rather than silicon.
    pub fn is_itrs_projection(&self) -> bool {
        self.reference == "ITRS"
    }
}

impl fmt::Display for DeviceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = if self.node_nm.0 == self.node_nm.1 {
            format!("{}", self.node_nm.0)
        } else {
            format!("{}-{}", self.node_nm.0, self.node_nm.1)
        };
        let tox = if self.tox_angstrom.0 == self.tox_angstrom.1 {
            format!("{:.0}", self.tox_angstrom.0)
        } else {
            format!("{:.0}-{:.0}", self.tox_angstrom.0, self.tox_angstrom.1)
        };
        write!(
            f,
            "{:>5}  {:<12} {:>7}  {:>6} Å ({})  {:.2} V  {:>4.0} µA/µm  {:>6.0} nA/µm",
            self.reference,
            self.source,
            node,
            tox,
            self.gate_stack,
            self.vdd.0,
            self.ion.0,
            self.ioff.as_nano_per_micron()
        )
    }
}

/// The rows of the paper's Table 1, in the paper's order: six published
/// devices followed by three ITRS projection rows.
///
/// The ITRS 100 nm `Ioff` is encoded as 16 nA/µm for consistency with the
/// paper's Table 2 "ITRS Ioff projections" row.
pub static SURVEY: [DeviceReport; 9] = [
    DeviceReport {
        reference: "[24]",
        source: "Chau (Intel)",
        node_nm: (50, 70),
        tox_angstrom: (18.0, 18.0),
        gate_stack: GateStack::Electrical,
        vdd: Volts(0.85),
        ion: MicroampsPerMicron(514.0),
        ioff: MicroampsPerMicron(0.100),
    },
    DeviceReport {
        reference: "[25]",
        source: "Song",
        node_nm: (100, 100),
        tox_angstrom: (21.0, 21.0),
        gate_stack: GateStack::Electrical,
        vdd: Volts(1.2),
        ion: MicroampsPerMicron(860.0),
        ioff: MicroampsPerMicron(0.010),
    },
    DeviceReport {
        reference: "[26]",
        source: "Wakabayashi",
        node_nm: (70, 70),
        tox_angstrom: (25.0, 25.0),
        gate_stack: GateStack::Electrical,
        vdd: Volts(1.2),
        ion: MicroampsPerMicron(697.0),
        ioff: MicroampsPerMicron(0.010),
    },
    DeviceReport {
        reference: "[27]",
        source: "Mehrotra (TI)",
        node_nm: (100, 100),
        tox_angstrom: (27.0, 27.0),
        gate_stack: GateStack::Electrical,
        vdd: Volts(1.2),
        ion: MicroampsPerMicron(800.0),
        ioff: MicroampsPerMicron(0.010),
    },
    DeviceReport {
        reference: "[28]",
        source: "Yang (MIT)",
        node_nm: (70, 70),
        tox_angstrom: (32.0, 32.0),
        gate_stack: GateStack::Electrical,
        vdd: Volts(1.2),
        ion: MicroampsPerMicron(650.0),
        ioff: MicroampsPerMicron(0.003),
    },
    DeviceReport {
        reference: "[29]",
        source: "Ono (NEC)",
        node_nm: (100, 100),
        tox_angstrom: (13.0, 13.0),
        gate_stack: GateStack::Physical,
        vdd: Volts(1.0),
        ion: MicroampsPerMicron(723.0),
        ioff: MicroampsPerMicron(0.016),
    },
    DeviceReport {
        reference: "ITRS",
        source: "ITRS 2000",
        node_nm: (100, 100),
        tox_angstrom: (12.0, 15.0),
        gate_stack: GateStack::Physical,
        vdd: Volts(1.2),
        ion: MicroampsPerMicron(750.0),
        ioff: MicroampsPerMicron(0.016),
    },
    DeviceReport {
        reference: "ITRS",
        source: "ITRS 2000",
        node_nm: (70, 70),
        tox_angstrom: (8.0, 12.0),
        gate_stack: GateStack::Physical,
        vdd: Volts(0.9),
        ion: MicroampsPerMicron(750.0),
        ioff: MicroampsPerMicron(0.040),
    },
    DeviceReport {
        reference: "ITRS",
        source: "ITRS 2000",
        node_nm: (50, 50),
        tox_angstrom: (6.0, 8.0),
        gate_stack: GateStack::Physical,
        vdd: Volts(0.6),
        ion: MicroampsPerMicron(750.0),
        ioff: MicroampsPerMicron(0.080),
    },
];

/// The paper's central reading of Table 1: there is **no published sub-1 V
/// technology** that meets the ITRS `Ion`/`Ioff` expectations for its node.
///
/// Returns the silicon rows operating below 1 V (there is exactly one, at
/// 0.85 V, and its `Ion` falls ~30 % short of the 750 µA/µm target).
pub fn sub_1v_devices() -> Vec<&'static DeviceReport> {
    SURVEY
        .iter()
        .filter(|r| !r.is_itrs_projection() && r.vdd < Volts(1.0))
        .collect()
}

/// True when the survey supports the paper's claim: every published sub-1 V
/// device misses the ITRS `Ion` target at its node.
pub fn no_sub_1v_device_meets_itrs() -> bool {
    sub_1v_devices()
        .iter()
        .all(|r| r.ion < MicroampsPerMicron(750.0))
}

/// The dynamic-power penalty of running a device at `actual` supply instead
/// of the `expected` ITRS supply: `(actual/expected)² − 1`.
///
/// The paper's example: 1.2 V instead of 0.9 V at 70 nm "gives a 78 % rise
/// in dynamic power".
///
/// # Examples
///
/// ```
/// use np_units::Volts;
/// let rise = np_roadmap::survey::dynamic_power_penalty(Volts(1.2), Volts(0.9));
/// assert!((rise - 0.78).abs() < 0.01);
/// ```
pub fn dynamic_power_penalty(actual: Volts, expected: Volts) -> f64 {
    let r = actual / expected;
    r * r - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_devices_and_three_projections() {
        let devices = SURVEY.iter().filter(|r| !r.is_itrs_projection()).count();
        let projections = SURVEY.iter().filter(|r| r.is_itrs_projection()).count();
        assert_eq!(devices, 6);
        assert_eq!(projections, 3);
    }

    #[test]
    fn the_single_sub_1v_device_misses_ion() {
        let subs = sub_1v_devices();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].reference, "[24]");
        assert!(no_sub_1v_device_meets_itrs());
    }

    #[test]
    fn seventy_nm_devices_need_1_2v() {
        // Section 3.1: the 70 nm devices of [26,28] beat the ITRS Ioff but
        // need 1.2 V rather than 0.9 V.
        for r in SURVEY
            .iter()
            .filter(|r| !r.is_itrs_projection() && r.node_nm == (70, 70))
        {
            assert_eq!(r.vdd, Volts(1.2));
            assert!(r.ioff <= MicroampsPerMicron(0.040));
        }
    }

    #[test]
    fn vdd_penalty_is_78_percent() {
        let p = dynamic_power_penalty(Volts(1.2), Volts(0.9));
        assert!((p - 0.7778).abs() < 1e-3);
    }

    #[test]
    fn on_off_ratios_are_positive_and_large() {
        for r in &SURVEY {
            assert!(
                r.ion.0 / r.ioff.0 > 1_000.0,
                "{}: ratio too small",
                r.reference
            );
        }
    }

    #[test]
    fn display_row_is_aligned() {
        let s = format!("{}", SURVEY[0]);
        assert!(s.contains("[24]"));
        assert!(s.contains("50-70"));
        assert!(s.contains("µA/µm"));
        let s = format!("{}", SURVEY[6]);
        assert!(s.contains("12-15"));
        assert!(s.contains("physical"));
    }

    #[test]
    fn gate_stack_display() {
        assert_eq!(format!("{}", GateStack::Electrical), "electrical");
        assert_eq!(format!("{}", GateStack::Physical), "physical");
    }
}
