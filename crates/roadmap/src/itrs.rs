//! ITRS-2000 technology nodes as used by the paper.
//!
//! Every number below is either quoted directly in the paper, quoted from
//! the ITRS 2000 update it cites, or derived from an identity the paper
//! states (each case is documented on the field or constant). The database
//! is deliberately *not* a full ITRS transcription: it carries exactly the
//! parameters the paper's analyses consume.

use np_units::{
    Hertz, MicroampsPerMicron, Microns, Nanometers, SquareMillimeters, Volts, Watts, WattsPerCm2,
};
use std::fmt;

/// The six ITRS technology nodes the paper spans, named by drawn feature
/// size in nanometers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TechNode {
    /// 180 nm — "today" in the paper (1999 production).
    N180,
    /// 130 nm (2002).
    N130,
    /// 100 nm (2005).
    N100,
    /// 70 nm (2008) — the first nanometer node.
    N70,
    /// 50 nm (2011).
    N50,
    /// 35 nm (2014) — the end of the roadmap.
    N35,
}

impl TechNode {
    /// All nodes, coarsest first — the order the paper's tables use.
    pub const ALL: [TechNode; 6] = [
        TechNode::N180,
        TechNode::N130,
        TechNode::N100,
        TechNode::N70,
        TechNode::N50,
        TechNode::N35,
    ];

    /// The nanometer-regime nodes (drawn feature < 100 nm).
    pub const NANOMETER: [TechNode; 3] = [TechNode::N70, TechNode::N50, TechNode::N35];

    /// Drawn feature size in nanometers.
    pub fn drawn(self) -> Nanometers {
        Nanometers(match self {
            TechNode::N180 => 180.0,
            TechNode::N130 => 130.0,
            TechNode::N100 => 100.0,
            TechNode::N70 => 70.0,
            TechNode::N50 => 50.0,
            TechNode::N35 => 35.0,
        })
    }

    /// ITRS-2000 production year.
    pub fn year(self) -> u32 {
        match self {
            TechNode::N180 => 1999,
            TechNode::N130 => 2002,
            TechNode::N100 => 2005,
            TechNode::N70 => 2008,
            TechNode::N50 => 2011,
            TechNode::N35 => 2014,
        }
    }

    /// The technology parameters of this node.
    pub fn params(self) -> &'static NodeParams {
        &NODE_TABLE[self.index()]
    }

    /// Position of the node in [`TechNode::ALL`].
    pub fn index(self) -> usize {
        match self {
            TechNode::N180 => 0,
            TechNode::N130 => 1,
            TechNode::N100 => 2,
            TechNode::N70 => 3,
            TechNode::N50 => 4,
            TechNode::N35 => 5,
        }
    }

    /// Looks a node up by its drawn feature size in nanometers.
    ///
    /// # Examples
    ///
    /// ```
    /// use np_roadmap::TechNode;
    /// assert_eq!(TechNode::from_drawn_nm(70), Some(TechNode::N70));
    /// assert_eq!(TechNode::from_drawn_nm(90), None);
    /// ```
    pub fn from_drawn_nm(nm: u32) -> Option<TechNode> {
        match nm {
            180 => Some(TechNode::N180),
            130 => Some(TechNode::N130),
            100 => Some(TechNode::N100),
            70 => Some(TechNode::N70),
            50 => Some(TechNode::N50),
            35 => Some(TechNode::N35),
            _ => None,
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.drawn().0 as u32)
    }
}

/// Per-node technology parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeParams {
    /// The node these parameters describe.
    pub node: TechNode,
    /// Nominal supply voltage. ITRS-2000 high-performance values; the paper
    /// uses 0.9 V at 70 nm, 0.6 V at 50 nm and 35 nm (Sections 3.1, 3.3).
    pub vdd: Volts,
    /// The paper's "more realistic" alternative supply where one is
    /// discussed (0.7 V at 50 nm, Section 3.1 observation 2).
    pub vdd_alt: Option<Volts>,
    /// Physical gate-oxide thickness (equivalent SiO₂). Chosen at the
    /// midpoint of the ITRS range quoted in the paper's Table 1
    /// (100 nm: 12–15 Å, 70 nm: 8–12 Å, 50 nm: 6–8 Å) and so that the
    /// normalized `Cox`/`Coxe` sequences of the paper's Table 2 are
    /// reproduced.
    pub tox_phys: Nanometers,
    /// Effective (as-etched) channel length, per the paper's note on Eq. 2
    /// ("final, as-etched dimension in \[1\]").
    pub leff: Nanometers,
    /// The ITRS saturation drive-current target the paper holds fixed when
    /// solving for `Vth` (750 µA/µm at every node, Table 2).
    pub ion_target: MicroampsPerMicron,
    /// The ITRS off-current projection ("2× per generation", Section 3.1;
    /// the Table 2 row "ITRS Ioff projections").
    pub ioff_itrs: MicroampsPerMicron,
    /// Parasitic source resistance for Eq. 2 in Ω·µm of gate width.
    /// The paper sets this "according to \[1\]"; here it is a calibration
    /// constant (60 Ω·µm) chosen jointly with `leff` so that the solved
    /// `Vth` sequence of Table 2 is reproduced (see DESIGN.md §4).
    pub rs_ohm_um: f64,
    /// Local (datapath) clock frequency, ITRS-2000.
    pub local_clock: Hertz,
    /// Across-chip (global) clock frequency, ITRS-2000. Global signaling in
    /// Section 2.2 is paced by this clock.
    pub global_clock: Hertz,
    /// Maximum power dissipation of a high-performance MPU with heatsink.
    pub max_power: Watts,
    /// High-performance MPU die area at production.
    pub die_area: SquareMillimeters,
    /// Minimum width of the top-level (global) metal, the normalization
    /// basis of the paper's Fig. 5.
    pub top_metal_min_width: Microns,
    /// Top-level metal thickness-to-width aspect ratio.
    pub top_metal_aspect: f64,
    /// Number of wiring levels.
    pub wiring_levels: u8,
}

impl NodeParams {
    /// Chip-average power density `Pchip / Achip` (uniform assumption that
    /// Section 4 then multiplies by the 4× hot-spot factor).
    pub fn average_power_density(&self) -> WattsPerCm2 {
        WattsPerCm2(self.max_power.0 / self.die_area.as_cm2())
    }

    /// Worst-case supply current `Pchip / Vdd`; about 300 A at 35 nm
    /// (Section 4).
    pub fn worst_case_current(&self) -> np_units::Amps {
        self.max_power / self.vdd
    }

    /// The ITRS standby-current allowance: static power limited to 10 % of
    /// `Pchip` (Section 3.1), expressed as a current at `Vdd`.
    ///
    /// About 30 A at 35 nm, as the paper quotes.
    pub fn standby_current_allowance(&self) -> np_units::Amps {
        (self.max_power * 0.1) / self.vdd
    }

    /// Top-level metal sheet resistance, from the copper resistivity
    /// `ρ = 2.2 µΩ·cm` and thickness `aspect × min_width`.
    pub fn top_metal_sheet_resistance(&self) -> np_units::OhmsPerSquare {
        const RHO_CU_OHM_M: f64 = 2.2e-8;
        let thickness_m = self.top_metal_aspect * self.top_metal_min_width.as_meters();
        np_units::OhmsPerSquare(RHO_CU_OHM_M / thickness_m)
    }
}

impl fmt::Display for NodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node: Vdd={:.2}, Tox={:.2}, Leff={:.0}, Ion target={:.0}, ITRS Ioff={:.0} nA/µm",
            self.node,
            self.vdd,
            self.tox_phys,
            self.leff,
            self.ion_target,
            self.ioff_itrs.as_nano_per_micron()
        )
    }
}

/// The node database. Order matches [`TechNode::ALL`].
static NODE_TABLE: [NodeParams; 6] = [
    NodeParams {
        node: TechNode::N180,
        vdd: Volts(1.8),
        vdd_alt: None,
        tox_phys: Nanometers(2.25),
        leff: Nanometers(140.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.007),
        rs_ohm_um: 60.0,
        local_clock: Hertz(1.25e9),
        global_clock: Hertz(1.2e9),
        max_power: Watts(90.0),
        die_area: SquareMillimeters(310.0),
        top_metal_min_width: Microns(0.80),
        top_metal_aspect: 2.0,
        wiring_levels: 6,
    },
    NodeParams {
        node: TechNode::N130,
        vdd: Volts(1.5),
        vdd_alt: None,
        tox_phys: Nanometers(1.70),
        leff: Nanometers(110.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.010),
        rs_ohm_um: 60.0,
        local_clock: Hertz(2.1e9),
        global_clock: Hertz(1.6e9),
        max_power: Watts(130.0),
        die_area: SquareMillimeters(340.0),
        top_metal_min_width: Microns(0.65),
        top_metal_aspect: 2.0,
        wiring_levels: 7,
    },
    NodeParams {
        node: TechNode::N100,
        vdd: Volts(1.2),
        vdd_alt: None,
        tox_phys: Nanometers(1.35),
        leff: Nanometers(80.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.016),
        rs_ohm_um: 60.0,
        local_clock: Hertz(3.5e9),
        global_clock: Hertz(2.0e9),
        max_power: Watts(160.0),
        die_area: SquareMillimeters(385.0),
        top_metal_min_width: Microns(0.50),
        top_metal_aspect: 2.0,
        wiring_levels: 7,
    },
    NodeParams {
        node: TechNode::N70,
        vdd: Volts(0.9),
        vdd_alt: None,
        tox_phys: Nanometers(1.08),
        leff: Nanometers(52.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.040),
        rs_ohm_um: 60.0,
        local_clock: Hertz(6.0e9),
        global_clock: Hertz(2.5e9),
        max_power: Watts(170.0),
        die_area: SquareMillimeters(430.0),
        top_metal_min_width: Microns(0.40),
        top_metal_aspect: 2.0,
        wiring_levels: 8,
    },
    NodeParams {
        node: TechNode::N50,
        vdd: Volts(0.6),
        vdd_alt: Some(Volts(0.7)),
        tox_phys: Nanometers(0.72),
        leff: Nanometers(34.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.080),
        rs_ohm_um: 60.0,
        local_clock: Hertz(10.0e9),
        global_clock: Hertz(3.0e9),
        max_power: Watts(175.0),
        die_area: SquareMillimeters(487.0),
        top_metal_min_width: Microns(0.32),
        top_metal_aspect: 2.0,
        wiring_levels: 9,
    },
    NodeParams {
        node: TechNode::N35,
        vdd: Volts(0.6),
        vdd_alt: None,
        tox_phys: Nanometers(0.54),
        leff: Nanometers(23.0),
        ion_target: MicroampsPerMicron(750.0),
        ioff_itrs: MicroampsPerMicron(0.160),
        rs_ohm_um: 60.0,
        local_clock: Hertz(13.5e9),
        global_clock: Hertz(3.6e9),
        max_power: Watts(183.0),
        die_area: SquareMillimeters(560.0),
        top_metal_min_width: Microns(0.25),
        top_metal_aspect: 2.0,
        wiring_levels: 9,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_in_order() {
        let drawn: Vec<f64> = TechNode::ALL.iter().map(|n| n.drawn().0).collect();
        assert_eq!(drawn, vec![180.0, 130.0, 100.0, 70.0, 50.0, 35.0]);
        for w in TechNode::ALL.windows(2) {
            assert!(w[0].year() < w[1].year());
        }
    }

    #[test]
    fn index_round_trip() {
        for (i, n) in TechNode::ALL.iter().enumerate() {
            assert_eq!(n.index(), i);
            assert_eq!(n.params().node, *n);
        }
    }

    #[test]
    fn from_drawn_round_trip() {
        for n in TechNode::ALL {
            assert_eq!(TechNode::from_drawn_nm(n.drawn().0 as u32), Some(n));
        }
        assert_eq!(TechNode::from_drawn_nm(250), None);
    }

    #[test]
    fn nanometer_nodes_are_sub_100nm() {
        for n in TechNode::NANOMETER {
            assert!(n.drawn().0 < 100.0);
        }
    }

    #[test]
    fn ioff_doubles_per_generation() {
        // Section 3.1: "The ITRS predicts an increase in MOSFET off current
        // by a factor of 2 per generation" (we allow the 100->70 step,
        // where the ITRS jumps 2.5x, as the paper's own table does).
        for w in TechNode::ALL.windows(2) {
            let ratio = w[1].params().ioff_itrs / w[0].params().ioff_itrs;
            assert!((1.4..=2.6).contains(&ratio), "ratio {ratio} out of band");
        }
        // Full-roadmap increase is the paper's "23X" (Section 3.1 obs. 3).
        let total = TechNode::N35.params().ioff_itrs / TechNode::N180.params().ioff_itrs;
        assert!((20.0..=25.0).contains(&total));
    }

    #[test]
    fn worst_case_current_at_35nm_is_about_300a() {
        // Section 4: "the worst-case current draw of 300A in such a design".
        let i = TechNode::N35.params().worst_case_current();
        assert!((i.0 - 305.0).abs() < 10.0, "got {i}");
    }

    #[test]
    fn standby_allowance_at_35nm_is_about_30a() {
        // Section 3.1: "at 35 nm, an MPU can draw 30A of current in standby".
        let i = TechNode::N35.params().standby_current_allowance();
        assert!((i.0 - 30.5).abs() < 1.0, "got {i}");
    }

    #[test]
    fn vdd_is_monotone_nonincreasing() {
        for w in TechNode::ALL.windows(2) {
            assert!(w[1].params().vdd <= w[0].params().vdd);
        }
    }

    #[test]
    fn only_50nm_has_alternative_supply() {
        for n in TechNode::ALL {
            let alt = n.params().vdd_alt;
            if n == TechNode::N50 {
                assert_eq!(alt, Some(Volts(0.7)));
            } else {
                assert_eq!(alt, None);
            }
        }
    }

    #[test]
    fn power_density_falls_from_50_to_35() {
        // Section 4 footnote 9: "a reduction in power density at 35 nm ...
        // total power at 50 nm increases only slightly while the area jumps
        // 15%".
        let d50 = TechNode::N50.params().average_power_density();
        let d35 = TechNode::N35.params().average_power_density();
        assert!(d35 < d50);
        let area_jump = TechNode::N35.params().die_area / TechNode::N50.params().die_area;
        assert!((area_jump - 1.15).abs() < 0.01);
    }

    #[test]
    fn cox_normalization_matches_table2_shape() {
        // Table 2 rows "Coxe (normalized)" ~ {1, 1.23, 1.45, 1.68, 2.13,
        // 2.46} and "Cox (physical)" ~ {1, 1.32, 1.67, 2.08, 3.13, 4.17}.
        // Electrical oxide adds ~0.7 nm (Section 3.1 obs. 1).
        let t180 = TechNode::N180.params().tox_phys.0;
        let expect_cox = [1.0, 1.32, 1.67, 2.08, 3.13, 4.17];
        let expect_coxe = [1.0, 1.23, 1.45, 1.68, 2.13, 2.46];
        for (i, n) in TechNode::ALL.iter().enumerate() {
            let tox = n.params().tox_phys.0;
            let cox = t180 / tox;
            let coxe = (t180 + 0.7) / (tox + 0.7);
            assert!(
                (cox - expect_cox[i]).abs() / expect_cox[i] < 0.07,
                "{n}: Cox {cox:.2} vs paper {}",
                expect_cox[i]
            );
            assert!(
                (coxe - expect_coxe[i]).abs() / expect_coxe[i] < 0.07,
                "{n}: Coxe {coxe:.2} vs paper {}",
                expect_coxe[i]
            );
        }
    }

    #[test]
    fn sheet_resistance_is_sane() {
        let rs = TechNode::N180.params().top_metal_sheet_resistance();
        assert!(rs.0 > 0.005 && rs.0 < 0.05, "got {rs}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TechNode::N70), "70 nm");
        let s = format!("{}", TechNode::N50.params());
        assert!(s.contains("50 nm"));
        assert!(s.contains("Ion target"));
    }
}
