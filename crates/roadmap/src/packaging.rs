//! Packaging and flip-chip projections (paper Sections 2.1 and 4).
//!
//! Covers both sides of the paper's packaging story: the *thermal* side
//! (junction-temperature limits and the θja trend that the ITRS calls "a
//! barrier to scaling") and the *electrical* side (bump pitch and pad-count
//! projections that drive the Fig. 5 IR-drop analysis).

use crate::itrs::TechNode;
use np_units::{Amps, Celsius, Microns, ThermalResistance};
use std::fmt;

/// Packaging-roadmap queries for a technology node.
///
/// # Examples
///
/// ```
/// use np_roadmap::{PackagingRoadmap, TechNode};
///
/// let pkg = PackagingRoadmap::for_node(TechNode::N35);
/// // Section 4: ITRS pad counts give an effective bump pitch near 356 µm
/// // even though 80 µm is attainable.
/// assert!((pkg.effective_itrs_bump_pitch().0 - 356.0).abs() < 5.0);
/// assert_eq!(pkg.min_bump_pitch.0, 80.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackagingRoadmap {
    /// The node described.
    pub node: TechNode,
    /// Maximum allowed junction temperature. The ITRS reduces this from
    /// 100 °C (1999) to 85 °C (2002 onward) for reliability (Section 2.1).
    pub t_junction_max: Celsius,
    /// Ambient temperature outside the package, "approximately 45 °C".
    pub t_ambient: Celsius,
    /// Minimum attainable flip-chip bump pitch at this node (80 µm quoted
    /// at 35 nm; coarser nodes scaled back along the ITRS assembly roadmap).
    pub min_bump_pitch: Microns,
    /// Total pad/bump count the ITRS actually projects for MPUs — far fewer
    /// than the minimum pitch permits (4416 at 35 nm).
    pub itrs_pad_count: u32,
    /// Share of pads assigned to power (Vdd + GND); the remainder are
    /// signals. Chosen so that 35 nm has the paper's "just 1500 Vdd bumps".
    pub power_pad_fraction: f64,
    /// Per-bump sustained current capability projected by the ITRS.
    pub bump_current_limit: Amps,
    /// Fraction of top-level routing consumed by bump "landing pads"
    /// (Section 4 uses a constant 16 %).
    pub landing_pad_overhead: f64,
}

impl PackagingRoadmap {
    /// The packaging projections for `node`.
    pub fn for_node(node: TechNode) -> Self {
        let (pitch, pads) = match node {
            TechNode::N180 => (170.0, 1700),
            TechNode::N130 => (150.0, 2000),
            TechNode::N100 => (130.0, 2400),
            TechNode::N70 => (110.0, 3000),
            TechNode::N50 => (90.0, 3600),
            TechNode::N35 => (80.0, 4416),
        };
        Self {
            node,
            t_junction_max: if node.year() >= 2002 {
                Celsius(85.0)
            } else {
                Celsius(100.0)
            },
            t_ambient: Celsius(45.0),
            min_bump_pitch: Microns(pitch),
            itrs_pad_count: pads,
            power_pad_fraction: 0.68,
            bump_current_limit: Amps(0.125),
            landing_pad_overhead: 0.16,
        }
    }

    /// The θja a package must achieve so that the node's maximum power
    /// keeps the junction at or below `t_junction_max` (paper Eq. 1,
    /// solved for θja).
    ///
    /// About 0.61 °C/W at 180 nm, falling to ≈0.25 °C/W at 100 nm — the
    /// trend the paper calls a cost barrier.
    pub fn required_theta_ja(&self) -> ThermalResistance {
        let p = self.node.params().max_power;
        ThermalResistance((self.t_junction_max - self.t_ambient).0 / p.0)
    }

    /// Number of Vdd bumps under the ITRS pad-count projection (half of the
    /// power pads; the other half are ground).
    pub fn itrs_vdd_bumps(&self) -> u32 {
        (self.itrs_pad_count as f64 * self.power_pad_fraction * 0.5).round() as u32
    }

    /// The effective bump pitch implied by spreading the ITRS pad count
    /// uniformly over the die: `sqrt(area / pads)`.
    ///
    /// Roughly constant at ~350 µm across the roadmap — the mismatch with
    /// [`min_bump_pitch`](Self::min_bump_pitch) that drives the Fig. 5
    /// blow-up.
    pub fn effective_itrs_bump_pitch(&self) -> Microns {
        let area_um2 = self.node.params().die_area.0 * 1e6;
        Microns((area_um2 / self.itrs_pad_count as f64).sqrt())
    }

    /// Number of Vdd bumps if bumps are placed at the minimum attainable
    /// pitch over the whole die (same power-pad share).
    pub fn min_pitch_vdd_bumps(&self) -> u32 {
        let area_um2 = self.node.params().die_area.0 * 1e6;
        let total = area_um2 / (self.min_bump_pitch.0 * self.min_bump_pitch.0);
        (total * self.power_pad_fraction * 0.5).round() as u32
    }

    /// Per-Vdd-bump current under the ITRS pad counts at worst-case draw.
    ///
    /// At 35 nm this exceeds [`bump_current_limit`](Self::bump_current_limit)
    /// — "ITRS bump current capability projections are incompatible with
    /// the worst-case current draw of 300 A" (Section 4).
    pub fn itrs_current_per_vdd_bump(&self) -> Amps {
        self.node.params().worst_case_current() / self.itrs_vdd_bumps() as f64
    }
}

impl fmt::Display for PackagingRoadmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packaging: Tj<= {:.0}, min bump pitch {:.0}, ITRS pads {} (eff. pitch {:.0}), θja<= {:.2}",
            self.node,
            self.t_junction_max,
            self.min_bump_pitch,
            self.itrs_pad_count,
            self.effective_itrs_bump_pitch(),
            self.required_theta_ja()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn junction_limit_drops_to_85c() {
        assert_eq!(
            PackagingRoadmap::for_node(TechNode::N180).t_junction_max,
            Celsius(100.0)
        );
        for n in [TechNode::N130, TechNode::N100, TechNode::N35] {
            assert_eq!(PackagingRoadmap::for_node(n).t_junction_max, Celsius(85.0));
        }
    }

    #[test]
    fn theta_ja_trend_matches_paper() {
        // "Presently, θja values range from 0.6 to 1 °C/W" — our 180 nm
        // requirement sits in that band.
        let now = PackagingRoadmap::for_node(TechNode::N180).required_theta_ja();
        assert!((0.55..=1.0).contains(&now.0), "got {now}");
        // "ITRS projections call for a θja of 0.25 °C/W in 3 years" — the
        // ~2002-2005 requirements approach 0.25.
        let soon = PackagingRoadmap::for_node(TechNode::N100).required_theta_ja();
        assert!((soon.0 - 0.25).abs() < 0.03, "got {soon}");
    }

    #[test]
    fn theta_ja_is_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for n in TechNode::ALL {
            let t = PackagingRoadmap::for_node(n).required_theta_ja().0;
            assert!(t < prev, "θja must tighten every node");
            prev = t;
        }
    }

    #[test]
    fn vdd_bumps_at_35nm_are_about_1500() {
        // Section 4: "with just 1500 Vdd bumps at 35 nm".
        let pkg = PackagingRoadmap::for_node(TechNode::N35);
        let v = pkg.itrs_vdd_bumps();
        assert!((1450..=1550).contains(&v), "got {v}");
    }

    #[test]
    fn effective_pitch_is_roughly_constant_350um() {
        // Section 4: "a roughly constant bump pitch of around 350 µm
        // throughout the roadmap".
        for n in TechNode::ALL {
            let p = PackagingRoadmap::for_node(n).effective_itrs_bump_pitch().0;
            assert!((330.0..=440.0).contains(&p), "{n}: {p}");
        }
        let p35 = PackagingRoadmap::for_node(TechNode::N35)
            .effective_itrs_bump_pitch()
            .0;
        assert!((p35 - 356.0).abs() < 5.0, "got {p35}");
    }

    #[test]
    fn itrs_bumps_cannot_carry_300a_at_35nm() {
        let pkg = PackagingRoadmap::for_node(TechNode::N35);
        assert!(pkg.itrs_current_per_vdd_bump() > pkg.bump_current_limit);
        // ~305 A / ~1500 bumps = ~200 mA, above the 125 mA limit.
        assert!((pkg.itrs_current_per_vdd_bump().0 - 0.2).abs() < 0.02);
    }

    #[test]
    fn min_pitch_provisioning_is_adequate_everywhere() {
        for n in TechNode::ALL {
            let pkg = PackagingRoadmap::for_node(n);
            let per_bump = n.params().worst_case_current() / pkg.min_pitch_vdd_bumps() as f64;
            assert!(
                per_bump <= pkg.bump_current_limit,
                "{n}: {per_bump} per bump exceeds limit"
            );
        }
    }

    #[test]
    fn min_pitch_shrinks_along_roadmap() {
        let mut prev = f64::INFINITY;
        for n in TechNode::ALL {
            let p = PackagingRoadmap::for_node(n).min_bump_pitch.0;
            assert!(p < prev);
            prev = p;
        }
        assert_eq!(prev, 80.0);
    }

    #[test]
    fn display_mentions_pitch_and_theta() {
        let s = format!("{}", PackagingRoadmap::for_node(TechNode::N35));
        assert!(s.contains("min bump pitch 80"));
        assert!(s.contains("θja"));
    }
}
