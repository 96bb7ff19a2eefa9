//! Hot-spot power-density factor (Section 4, footnote 7).
//!
//! "A hot-spot is defined to have a localized power density four times
//! larger than a uniform power density approximation … The factor of four
//! stems from estimating that half the chip area is consumed by memory
//! (having about 1/10th the power density of logic) and that certain logic
//! areas may have twice the power density of others."
//!
//! [`crate::analytic::hotspot_current_density`] applies the factor to a
//! node's uniform `Pchip/Achip` density.

/// The paper's round hot-spot factor: peak local density over the
/// uniform (chip-average) density. With the footnote's floorplan,
/// average = 0.5·ρ_logic·(1 + 0.1) ≈ 0.55·ρ_logic and peak = 2·ρ_logic,
/// so the factor is ≈ 3.6, rounded to 4.
pub const HOTSPOT_FACTOR: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;
    use np_roadmap::TechNode;

    #[test]
    fn paper_mix_gives_about_four() {
        // Half the die memory at a tenth of logic's density, peak logic
        // at twice the average logic density.
        let (memory_fraction, memory_density, logic_peak) = (0.5f64, 0.1, 2.0);
        let average = memory_fraction * memory_density + (1.0 - memory_fraction);
        let factor = logic_peak / average;
        assert!((3.2..=4.2).contains(&factor), "got {factor}");
        assert_eq!(factor.round(), HOTSPOT_FACTOR);
    }

    #[test]
    fn hotspot_density_is_over_100w_per_cm2_midroadmap() {
        // Section 2.2 footnote 2: "power densities can exceed 100 W/cm²".
        let d = TechNode::N100.params().average_power_density().0 * HOTSPOT_FACTOR;
        assert!(d > 100.0, "got {d} W/cm²");
    }

    #[test]
    fn density_falls_from_50_to_35() {
        let density = |node: TechNode| node.params().average_power_density().0 * HOTSPOT_FACTOR;
        assert!(density(TechNode::N35) < density(TechNode::N50));
    }
}
