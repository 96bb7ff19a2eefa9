//! Cooling-cost model (Section 2.1).
//!
//! The paper's anchors: "current vapor compression based refrigeration
//! techniques are expensive, on the order of $1 per watt cooled", and
//! "Intel engineers found that a rise in power consumption from 65 to 75 W
//! would triple cooling costs due to the need for additional heat pipe
//! technology". The model is a piecewise-linear cost curve with a step
//! region between the passive-heatsink and heat-pipe regimes, continuing
//! into refrigeration.

use np_units::Watts;

/// Upper end of the plain heatsink-and-fan regime (the paper's 65 W).
pub const HEATSINK_LIMIT: Watts = Watts(65.0);

/// Upper end of the heat-pipe step region (the paper's 75 W).
pub const HEATPIPE_KNEE: Watts = Watts(75.0);

/// Power beyond which active refrigeration is required.
pub const REFRIGERATION_LIMIT: Watts = Watts(140.0);

/// $/W of the baseline heatsink + fan solution.
pub const HEATSINK_DOLLARS_PER_WATT: f64 = 0.46;

/// $/W of vapor-compression refrigeration (the paper's "$1 per watt
/// cooled"), charged on the full dissipation.
pub const REFRIGERATION_DOLLARS_PER_WATT: f64 = 1.0;

/// The cooling regime a power level lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoolingRegime {
    /// Heatsink and fan.
    Heatsink,
    /// Heat pipes on top of the heatsink (the 65→75 W step).
    HeatPipe,
    /// Vapor-compression refrigeration.
    Refrigeration,
}

/// The regime for a given sustained dissipation.
pub fn regime(power: Watts) -> CoolingRegime {
    if power <= HEATSINK_LIMIT {
        CoolingRegime::Heatsink
    } else if power <= REFRIGERATION_LIMIT {
        CoolingRegime::HeatPipe
    } else {
        CoolingRegime::Refrigeration
    }
}

/// Cooling cost in dollars for a sustained dissipation.
///
/// Piecewise: linear to 65 W; tripling between 65 and 75 W (the heat-pipe
/// step); continued heat-pipe slope to 140 W; refrigeration at $1/W of
/// *total* power beyond, plus the hardware base.
///
/// # Panics
///
/// Panics on negative power.
pub fn cooling_cost_dollars(power: Watts) -> f64 {
    assert!(power.0 >= 0.0, "power must be non-negative");
    let base_at_limit = HEATSINK_DOLLARS_PER_WATT * HEATSINK_LIMIT.0; // ~$30
    match regime(power) {
        CoolingRegime::Heatsink => HEATSINK_DOLLARS_PER_WATT * power.0,
        CoolingRegime::HeatPipe => {
            if power <= HEATPIPE_KNEE {
                // Cost triples across the 65 -> 75 W band.
                let frac = (power - HEATSINK_LIMIT) / (HEATPIPE_KNEE - HEATSINK_LIMIT);
                base_at_limit * (1.0 + 2.0 * frac)
            } else {
                // Beyond the knee: heat-pipe escalation at ~$2/W.
                3.0 * base_at_limit + 2.0 * (power - HEATPIPE_KNEE).0
            }
        }
        CoolingRegime::Refrigeration => {
            let heatpipe_at_limit =
                3.0 * base_at_limit + 2.0 * (REFRIGERATION_LIMIT - HEATPIPE_KNEE).0;
            heatpipe_at_limit + REFRIGERATION_DOLLARS_PER_WATT * power.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_triples_from_65_to_75w() {
        let c65 = cooling_cost_dollars(Watts(65.0));
        let c75 = cooling_cost_dollars(Watts(75.0));
        assert!((c75 / c65 - 3.0).abs() < 1e-9, "{c65} -> {c75}");
    }

    #[test]
    fn cost_is_monotone() {
        let mut prev = -1.0;
        for p in 0..200 {
            let c = cooling_cost_dollars(Watts(p as f64));
            assert!(c >= prev, "cost must not decrease ({p} W)");
            prev = c;
        }
    }

    #[test]
    fn regimes_partition_the_axis() {
        assert_eq!(regime(Watts(40.0)), CoolingRegime::Heatsink);
        assert_eq!(regime(Watts(70.0)), CoolingRegime::HeatPipe);
        assert_eq!(regime(Watts(100.0)), CoolingRegime::HeatPipe);
        assert_eq!(regime(Watts(170.0)), CoolingRegime::Refrigeration);
    }

    #[test]
    fn refrigeration_is_at_least_a_dollar_per_watt() {
        let c = cooling_cost_dollars(Watts(180.0));
        assert!(c >= 180.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let _ = cooling_cost_dollars(Watts(-1.0));
    }
}
