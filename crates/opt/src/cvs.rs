//! Clustered voltage scaling (Section 2.4, after Usami & Horowitz \[20\]).
//!
//! Two supplies, `Vdd,h` for critical gates and `Vdd,l` for the rest.
//! Level conversion is needed wherever a low-supply gate drives a
//! high-supply gate; *clustered* voltage scaling only admits a gate to the
//! low cluster when every fan-out is already low (or a timing endpoint,
//! where a converting flip-flop absorbs the conversion), so conversions
//! are pushed to register boundaries. *Extended* CVS (ECVS) allows
//! converters anywhere and trades their delay/energy for a bigger
//! cluster.
//!
//! The paper's expectations: "~75 % of all gates can tolerate Vdd,l" on
//! designs with relaxed timing; "Vdd,l ≈ 0.6–0.7 × Vdd,h"; and a
//! "45–50 % dynamic power reduction, considering 8–10 % additional level
//! conversion power".

use crate::error::OptError;
use np_circuit::cell::SupplyClass;
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
use np_circuit::power::{level_converter_count, netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_units::Hertz;

/// Which conversion discipline the assignment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CvsStyle {
    /// Level conversion only at timing endpoints (classic CVS).
    #[default]
    Clustered,
    /// Converters allowed on any low→high edge (ECVS).
    Extended,
}

/// Dual-rail power-grid routing overhead once any gate uses `Vdd,l`
/// (the second supply must be distributed).
pub const DUAL_RAIL_AREA: f64 = 0.05;

/// Placement-constraint overhead per unit of low-cluster fraction
/// (clustered cells cannot mix freely in rows).
pub const PLACEMENT_CONSTRAINT_AREA: f64 = 0.08;

/// Area of one level converter in unit-inverter widths.
pub const CONVERTER_AREA_UNITS: f64 = 3.0;

/// CVS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvsOptions {
    /// Conversion discipline.
    pub style: CvsStyle,
    /// Switching activity used for the power accounting.
    pub activity: f64,
    /// Clock frequency used for the power accounting; `None` uses the
    /// timing context's clock.
    pub frequency: Option<Hertz>,
}

impl Default for CvsOptions {
    fn default() -> Self {
        Self {
            style: CvsStyle::Clustered,
            activity: 0.1,
            frequency: None,
        }
    }
}

/// Result of a CVS run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvsResult {
    /// Gates assigned to the low supply.
    pub low_count: usize,
    /// Fraction of all gates on the low supply.
    pub fraction_low: f64,
    /// Level converters implied by the final assignment.
    pub converters: usize,
    /// Power before the assignment (all gates at `Vdd,h`).
    pub before: PowerReport,
    /// Power after the assignment (including converter energy).
    pub after: PowerReport,
    /// True when the final assignment meets timing (always true on
    /// success; kept for report symmetry).
    pub timing_met: bool,
    /// Fractional cell-area overhead of the dual-supply implementation:
    /// constrained placement + level converters + second power grid
    /// (ref. \[18\] reports 15 % on a real design).
    pub area_overhead: f64,
}

impl CvsResult {
    /// Fractional dynamic-power saving.
    pub fn dynamic_saving(&self) -> f64 {
        1.0 - self.after.dynamic / self.before.dynamic
    }
}

/// Runs clustered voltage scaling on the netlist in place.
///
/// Gates are visited in reverse topological order (so fan-outs are decided
/// before fan-ins, which is what lets clusters grow backwards from the
/// endpoints); each candidate is tentatively moved to `Vdd,l` and kept
/// only if full STA still meets timing.
///
/// # Errors
///
/// [`OptError::TimingInfeasible`] when the design misses timing before
/// optimization; propagates substrate errors.
pub fn cluster_voltage_scale(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    options: &CvsOptions,
) -> Result<CvsResult, OptError> {
    if !(options.activity > 0.0 && options.activity <= 1.0) {
        return Err(OptError::BadParameter("activity must be in (0, 1]"));
    }
    let freq = options.frequency.unwrap_or(Hertz(1.0 / ctx.clock_period.0));
    let baseline = ctx.analyze(netlist)?;
    if !baseline.is_feasible() {
        return Err(OptError::TimingInfeasible {
            worst_slack_ps: baseline.worst_slack().as_pico(),
        });
    }
    let before = netlist_power(netlist, ctx, options.activity, freq)?;
    // Reverse topological order: decide fan-outs before fan-ins. The
    // incremental tracker makes each probe cost only its affected cone.
    let mut sta = IncrementalSta::new(ctx, netlist);
    let order: Vec<GateId> = netlist.topological_order().iter().rev().copied().collect();
    for id in order {
        let admissible = match options.style {
            CvsStyle::Clustered => {
                let fanouts = netlist.fanouts(id);
                let endpoint = fanouts.is_empty() || netlist.is_output(id);
                endpoint
                    || fanouts
                        .iter()
                        .all(|&f| netlist.supply(f) == SupplyClass::Low)
            }
            CvsStyle::Extended => true,
        };
        if !admissible {
            continue;
        }
        netlist.gate_mut(id).set_supply(SupplyClass::Low);
        sta.reevaluate(netlist, id)?;
        if !sta.is_feasible() {
            netlist.gate_mut(id).set_supply(SupplyClass::High);
            sta.reevaluate(netlist, id)?;
        }
    }
    let after = netlist_power(netlist, ctx, options.activity, freq)?;
    let low_count = netlist
        .ids()
        .filter(|&id| netlist.supply(id) == SupplyClass::Low)
        .count();
    let fraction_low = low_count as f64 / netlist.len() as f64;
    let converters = level_converter_count(netlist);
    let total_units: f64 = netlist
        .ids()
        .map(|id| {
            let g = netlist.gate(id);
            g.kind.relative_width() * g.drive
        })
        .sum();
    let area_overhead = if low_count == 0 {
        0.0
    } else {
        PLACEMENT_CONSTRAINT_AREA * fraction_low
            + DUAL_RAIL_AREA
            + CONVERTER_AREA_UNITS * converters as f64 / total_units
    };
    Ok(CvsResult {
        low_count,
        fraction_low,
        converters,
        before,
        after,
        timing_met: ctx.analyze(netlist)?.is_feasible(),
        area_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup(clock_factor: f64) -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(21));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * clock_factor))
    }

    #[test]
    fn relaxed_design_moves_most_gates_low() {
        // With generous slack, the paper's "~75% of all gates can tolerate
        // Vdd,l" regime appears.
        let (mut nl, ctx) = setup(1.6);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        assert!(r.fraction_low > 0.6, "got {:.0}%", r.fraction_low * 100.0);
        assert!(r.timing_met);
    }

    #[test]
    fn dynamic_saving_lands_in_the_paper_band() {
        // "45-50% dynamic power reduction" at ~75% low-supply fraction;
        // accept a generous band around it.
        let (mut nl, ctx) = setup(1.6);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        let s = r.dynamic_saving();
        assert!((0.30..=0.60).contains(&s), "saving {:.0}%", s * 100.0);
    }

    #[test]
    fn tight_clock_limits_the_cluster() {
        let (mut nl_tight, ctx_tight) = setup(1.02);
        let r_tight =
            cluster_voltage_scale(&mut nl_tight, &ctx_tight, &CvsOptions::default()).unwrap();
        let (mut nl_loose, ctx_loose) = setup(1.6);
        let r_loose =
            cluster_voltage_scale(&mut nl_loose, &ctx_loose, &CvsOptions::default()).unwrap();
        assert!(r_tight.fraction_low < r_loose.fraction_low);
        assert!(r_tight.timing_met);
    }

    #[test]
    fn extended_style_admits_at_least_as_many_gates() {
        let (mut nl_c, ctx) = setup(1.3);
        let r_c = cluster_voltage_scale(&mut nl_c, &ctx, &CvsOptions::default()).unwrap();
        let (mut nl_e, ctx_e) = setup(1.3);
        let r_e = cluster_voltage_scale(
            &mut nl_e,
            &ctx_e,
            &CvsOptions {
                style: CvsStyle::Extended,
                ..CvsOptions::default()
            },
        )
        .unwrap();
        assert!(r_e.low_count >= r_c.low_count);
    }

    #[test]
    fn clustered_conversions_only_at_endpoints() {
        let (mut nl, ctx) = setup(1.6);
        let _ = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        // Every low gate with gate fan-outs must only drive low gates.
        for id in nl.ids() {
            if nl.supply(id) == SupplyClass::Low && !nl.is_output(id) {
                for &f in nl.fanouts(id) {
                    assert_eq!(
                        nl.supply(f),
                        SupplyClass::Low,
                        "clustered CVS leaked a mid-cone conversion at {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_input_is_rejected() {
        let (mut nl, ctx) = setup(0.5);
        let err = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap_err();
        assert!(matches!(err, OptError::TimingInfeasible { .. }));
    }

    #[test]
    fn bad_activity_rejected() {
        let (mut nl, ctx) = setup(1.3);
        let opts = CvsOptions {
            activity: 0.0,
            ..CvsOptions::default()
        };
        assert!(matches!(
            cluster_voltage_scale(&mut nl, &ctx, &opts),
            Err(OptError::BadParameter(_))
        ));
    }

    #[test]
    fn leakage_also_falls() {
        let (mut nl, ctx) = setup(1.6);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        assert!(r.after.leakage < r.before.leakage);
        assert!(r.after.total() < r.before.total());
    }
}

#[cfg(test)]
mod area_tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_circuit::sta::TimingContext;
    use np_roadmap::TechNode;

    #[test]
    fn area_overhead_is_in_the_papers_regime() {
        // Ref [18]: "area overhead due to constrained cell placement,
        // level converters, and added power grid routing was found to be
        // 15%".
        let mut nl = generate_netlist(&NetlistSpec::small(61));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        let ctx = ctx.with_clock(crit * 1.5);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        assert!(
            (0.05..=0.25).contains(&r.area_overhead),
            "got {:.0}%",
            r.area_overhead * 100.0
        );
    }

    #[test]
    fn no_low_gates_means_no_overhead() {
        let mut nl = generate_netlist(&NetlistSpec::small(62));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        // A clock exactly at critical admits (almost) nothing.
        let ctx = ctx.with_clock(crit * 1.0);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        if r.low_count == 0 {
            assert_eq!(r.area_overhead, 0.0);
        } else {
            assert!(r.area_overhead > 0.0);
        }
    }
}
