//! The `Chip` scenario builder: one MPU design at one ITRS node, analyzed
//! end-to-end with every model in the workspace.

use crate::error::Error;
use np_device::Mosfet;
use np_roadmap::{PackagingRoadmap, TechNode};
use np_thermal::cost::cooling_cost_dollars;
use np_thermal::dtm::{simulate, DtmPolicy, DtmResult};
use np_thermal::package::Package;
use np_thermal::rc::{ThermalRc, DEFAULT_HEAT_CAPACITY_J_PER_C};
use np_thermal::workload::WorkloadTrace;
use np_thermal::ThermalError;
use np_units::{Celsius, Microns, Seconds, ThermalResistance, Watts};
use std::fmt;

/// Estimated transistor count (logic plus on-die cache) of a
/// high-performance MPU at a node, from the ITRS-1999 density trend
/// (~13 M transistors/cm² in 1999, roughly doubling per node and reaching
/// a billion per cm² at the end of the roadmap) times the node's die
/// area.
pub fn logic_transistors(node: TechNode) -> f64 {
    let density_per_cm2 = match node {
        TechNode::N180 => 13e6,
        TechNode::N130 => 30e6,
        TechNode::N100 => 70e6,
        TechNode::N70 => 160e6,
        TechNode::N50 => 400e6,
        TechNode::N35 => 1.0e9,
    };
    density_per_cm2 * node.params().die_area.as_cm2()
}

/// Total leaking transistor width on the die: transistor count × an
/// average width of ~3 drawn features, halved for state-averaged stacks.
pub fn total_leak_width(node: TechNode) -> Microns {
    let avg_width = 3.0 * node.drawn().to_microns().0;
    Microns(logic_transistors(node) * avg_width * 0.5)
}

/// One MPU design scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chip {
    /// Technology node.
    pub node: TechNode,
    /// Average switching activity of the logic.
    pub activity: f64,
    /// Effective-to-theoretical worst-case power ratio (the paper's 75 %).
    pub effective_fraction: f64,
    /// Junction temperature for leakage analyses (the ITRS limit).
    pub junction_temp: Celsius,
}

impl Chip {
    /// The default scenario at a node: activity 0.1, effective worst case
    /// 75 %, junction at the ITRS limit for that node's year.
    ///
    /// Uses the same defaults as [`Chip::builder`]; they are constants
    /// inside the builder's accepted ranges, so no validation (and no
    /// failure path) is needed.
    pub fn at_node(node: TechNode) -> Self {
        Chip {
            node,
            activity: 0.1,
            effective_fraction: 0.75,
            junction_temp: PackagingRoadmap::for_node(node).t_junction_max,
        }
    }

    /// Starts a validating builder for a scenario at `node`:
    ///
    /// ```
    /// # use nanopower::chip::Chip;
    /// # use nanopower::roadmap::TechNode;
    /// let chip = Chip::builder(TechNode::N70)
    ///     .activity(0.15)
    ///     .effective_fraction(0.8)
    ///     .build()?;
    /// assert_eq!(chip.activity, 0.15);
    /// # Ok::<(), nanopower::Error>(())
    /// ```
    pub fn builder(node: TechNode) -> ChipBuilder {
        ChipBuilder {
            node,
            activity: 0.1,
            effective_fraction: 0.75,
            junction_temp: None,
        }
    }

    /// The node's calibrated device at this chip's junction temperature.
    ///
    /// # Errors
    ///
    /// Propagates device-calibration errors.
    pub fn device(&self) -> Result<Mosfet, np_device::DeviceError> {
        Ok(Mosfet::for_node(self.node)?.with_temperature(self.junction_temp))
    }

    /// The Section 3.1 static-power budget check.
    ///
    /// # Errors
    ///
    /// Propagates device-calibration errors.
    pub fn power_budget(&self) -> Result<PowerBudget, np_device::DeviceError> {
        let p = self.node.params();
        let dev = self.device()?;
        let width = total_leak_width(self.node);
        let projected = dev.ioff_at_drain(p.vdd).total(width) * p.vdd;
        let limit = p.max_power * 0.1;
        Ok(PowerBudget {
            node: self.node,
            total: p.max_power,
            static_limit: limit,
            projected_leakage: projected,
            reduction_needed: if projected > limit {
                1.0 - limit / projected
            } else {
                0.0
            },
        })
    }

    /// The Section 2.1 packaging/DTM study: package requirements and
    /// cooling cost with and without thermal management, plus a transient
    /// DTM simulation on a synthetic application trace.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors.
    pub fn thermal_closure(&self) -> Result<ThermalClosure, ThermalError> {
        let pkg = PackagingRoadmap::for_node(self.node);
        let p_max = self.node.params().max_power;
        let p_eff = p_max * self.effective_fraction;
        let theta_theoretical =
            Package::required_theta_ja(p_max, pkg.t_junction_max, pkg.t_ambient);
        let theta_dtm = Package::required_theta_ja(p_eff, pkg.t_junction_max, pkg.t_ambient);
        // Simulate the DTM-protected, effective-worst-case-sized package
        // against a realistic application trace.
        let package = Package::new(theta_dtm, pkg.t_ambient);
        let node_rc = ThermalRc::new(package, DEFAULT_HEAT_CAPACITY_J_PER_C);
        let trace = WorkloadTrace::application(
            p_max,
            self.effective_fraction,
            40_000,
            Seconds(1e-4),
            self.node.index() as u64 + 1,
        );
        let policy = DtmPolicy::at_trigger(pkg.t_junction_max);
        let dtm = simulate(node_rc, &trace, &policy)?;
        Ok(ThermalClosure {
            node: self.node,
            theta_theoretical,
            theta_dtm,
            headroom: theta_dtm.0 / theta_theoretical.0 - 1.0,
            cost_theoretical: cooling_cost_dollars(p_max),
            cost_dtm: cooling_cost_dollars(p_eff),
            dtm,
        })
    }
}

/// Validating fluent builder for [`Chip`], started by [`Chip::builder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipBuilder {
    node: TechNode,
    activity: f64,
    effective_fraction: f64,
    junction_temp: Option<Celsius>,
}

impl ChipBuilder {
    /// Sets the average switching activity (validated in `build`: must be
    /// a finite value in `(0, 1]`).
    ///
    /// ```
    /// # use nanopower::{chip::Chip, roadmap::TechNode};
    /// let chip = Chip::builder(TechNode::N100).activity(0.2).build()?;
    /// assert_eq!(chip.activity, 0.2);
    /// # Ok::<(), nanopower::Error>(())
    /// ```
    pub fn activity(mut self, activity: f64) -> Self {
        self.activity = activity;
        self
    }

    /// Sets the effective-to-theoretical worst-case power ratio
    /// (validated in `build`: must be a finite value in `(0, 1]`).
    ///
    /// ```
    /// # use nanopower::{chip::Chip, roadmap::TechNode};
    /// let chip = Chip::builder(TechNode::N100).effective_fraction(0.9).build()?;
    /// assert_eq!(chip.effective_fraction, 0.9);
    /// # Ok::<(), nanopower::Error>(())
    /// ```
    pub fn effective_fraction(mut self, fraction: f64) -> Self {
        self.effective_fraction = fraction;
        self
    }

    /// Overrides the junction temperature used for leakage analyses;
    /// defaults to the ITRS limit for the node's year.
    ///
    /// ```
    /// # use nanopower::{chip::Chip, roadmap::TechNode};
    /// use nanopower::units::Celsius;
    /// let chip = Chip::builder(TechNode::N70)
    ///     .junction_temp(Celsius(85.0))
    ///     .build()?;
    /// assert_eq!(chip.junction_temp, Celsius(85.0));
    /// # Ok::<(), nanopower::Error>(())
    /// ```
    pub fn junction_temp(mut self, temp: Celsius) -> Self {
        self.junction_temp = Some(temp);
        self
    }

    /// Validates and constructs the [`Chip`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when activity or effective fraction is
    /// outside `(0, 1]`, or the junction temperature is outside the
    /// physically sensible `[-55, 250] °C` range:
    ///
    /// ```
    /// # use nanopower::{chip::Chip, roadmap::TechNode};
    /// assert!(Chip::builder(TechNode::N100).activity(0.0).build().is_err());
    /// assert!(Chip::builder(TechNode::N100).activity(0.1).build().is_ok());
    /// ```
    pub fn build(self) -> Result<Chip, Error> {
        if !(self.activity > 0.0 && self.activity <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "activity must be in (0, 1], got {}",
                self.activity
            )));
        }
        if !(self.effective_fraction > 0.0 && self.effective_fraction <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "effective fraction must be in (0, 1], got {}",
                self.effective_fraction
            )));
        }
        let junction_temp = self
            .junction_temp
            .unwrap_or_else(|| PackagingRoadmap::for_node(self.node).t_junction_max);
        if !(junction_temp.0 >= -55.0 && junction_temp.0 <= 250.0) {
            return Err(Error::InvalidParameter(format!(
                "junction temperature must be in [-55, 250] °C, got {junction_temp}"
            )));
        }
        Ok(Chip {
            node: self.node,
            activity: self.activity,
            effective_fraction: self.effective_fraction,
            junction_temp,
        })
    }
}

/// Result of [`Chip::power_budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// The node analyzed.
    pub node: TechNode,
    /// The chip's total power budget.
    pub total: Watts,
    /// The ITRS static allowance (10 % of total).
    pub static_limit: Watts,
    /// Unconstrained leakage projection at the junction temperature.
    pub projected_leakage: Watts,
    /// The fraction of leakage that circuit/architecture techniques must
    /// remove to meet the allowance — the paper's "reaches 98 % at the end
    /// of the roadmap".
    pub reduction_needed: f64,
}

impl fmt::Display for PowerBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: budget {:.0}, static limit {:.1}, unconstrained leakage {:.0} (reduction needed {:.0}%)",
            self.node,
            self.total,
            self.static_limit,
            self.projected_leakage,
            self.reduction_needed * 100.0
        )
    }
}

/// Result of [`Chip::thermal_closure`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalClosure {
    /// The node analyzed.
    pub node: TechNode,
    /// θja required for the theoretical worst case.
    pub theta_theoretical: ThermalResistance,
    /// θja sufficient when DTM caps dissipation at the effective worst
    /// case.
    pub theta_dtm: ThermalResistance,
    /// Relative θja relief (the paper's "33 % higher").
    pub headroom: f64,
    /// Cooling cost without DTM, dollars.
    pub cost_theoretical: f64,
    /// Cooling cost with DTM, dollars.
    pub cost_dtm: f64,
    /// Transient DTM simulation on a realistic workload.
    pub dtm: DtmResult,
}

impl fmt::Display for ThermalClosure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: θja {:.3} -> {:.3} (+{:.0}%), cooling ${:.0} -> ${:.0}; sim: {}",
            self.node,
            self.theta_theoretical,
            self.theta_dtm,
            self.headroom * 100.0,
            self.cost_theoretical,
            self.cost_dtm,
            self.dtm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_reduction_needed_reaches_90s_percent_at_roadmap_end() {
        // Section 3.1: "the reduction needed by circuit/architecture
        // innovations reaches 98% at the end of the roadmap".
        let b = Chip::at_node(TechNode::N35).power_budget().unwrap();
        assert!(
            b.reduction_needed > 0.90,
            "got {:.1}%",
            b.reduction_needed * 100.0
        );
        let early = Chip::at_node(TechNode::N180).power_budget().unwrap();
        assert!(early.reduction_needed < b.reduction_needed);
    }

    #[test]
    fn unconstrained_leakage_approaches_kilowatts() {
        // Section 3.1: "Unchecked, static power would reach kilowatt
        // levels, dwarfing dynamic power."
        let b = Chip::at_node(TechNode::N35).power_budget().unwrap();
        assert!(b.projected_leakage.0 > 200.0, "got {}", b.projected_leakage);
    }

    #[test]
    fn dtm_headroom_is_a_third() {
        let t = Chip::at_node(TechNode::N70).thermal_closure().unwrap();
        assert!((t.headroom - 1.0 / 3.0).abs() < 1e-9);
        assert!(t.cost_dtm < t.cost_theoretical);
        assert!(t.dtm.performance > 0.9);
    }

    #[test]
    fn transistor_counts_grow() {
        let mut prev = 0.0;
        for n in TechNode::ALL {
            let t = logic_transistors(n);
            assert!(t > prev);
            prev = t;
        }
        assert!(prev > 1e9, "multi-billion transistors at 35 nm");
    }

    #[test]
    fn device_runs_hot() {
        let d = Chip::at_node(TechNode::N70).device().unwrap();
        assert_eq!(d.temp, Celsius(85.0));
    }

    #[test]
    fn builder_matches_at_node_defaults() {
        for node in TechNode::ALL {
            assert_eq!(Chip::builder(node).build().unwrap(), Chip::at_node(node));
        }
    }

    #[test]
    fn builder_accepts_custom_scenario() {
        let chip = Chip::builder(TechNode::N50)
            .activity(0.25)
            .effective_fraction(0.9)
            .junction_temp(Celsius(70.0))
            .build()
            .unwrap();
        assert_eq!(chip.activity, 0.25);
        assert_eq!(chip.effective_fraction, 0.9);
        assert_eq!(chip.junction_temp, Celsius(70.0));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(Chip::builder(TechNode::N70).activity(bad).build().is_err());
            assert!(Chip::builder(TechNode::N70)
                .effective_fraction(bad)
                .build()
                .is_err());
        }
        assert!(Chip::builder(TechNode::N70)
            .junction_temp(Celsius(300.0))
            .build()
            .is_err());
        let err = Chip::builder(TechNode::N70)
            .activity(2.0)
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("activity"), "{err}");
    }
}
