//! Gate-level and netlist-level power, plus the FO4-inverter power model
//! behind the paper's Fig. 1.
//!
//! Dynamic power of a gate is the energy to swing its output load at the
//! driver's supply, times activity and clock:
//! `P = α · f · C_load · Vdd²`. Leakage is `Ioff(Vth, T) · W_leak · Vdd`.

use crate::cell::{SupplyClass, VthClass};
use crate::error::CircuitError;
use crate::netlist::{GateId, Netlist};
use crate::sta::TimingContext;
use np_device::Mosfet;
use np_units::{Farads, Hertz, MicroampsPerMicron, Microns, Volts, Watts};
use std::fmt;

/// Widths of the paper's Fig. 1 inverter, in multiples of the drawn
/// feature size ("Gates are inverters with Wn/L=4, Wp/L=8", footnote 6).
pub const FIG1_WN_PER_L: f64 = 4.0;
/// PMOS width multiple for the Fig. 1 inverter.
pub const FIG1_WP_PER_L: f64 = 8.0;
/// PMOS off-current relative to NMOS per unit width (hole leakage is
/// weaker).
pub const PMOS_IOFF_FRACTION: f64 = 0.5;

/// Dynamic plus leakage power of a netlist or gate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Switching (dynamic) power.
    pub dynamic: Watts,
    /// Subthreshold leakage (static) power.
    pub leakage: Watts,
}

impl PowerReport {
    /// Total power.
    pub fn total(&self) -> Watts {
        self.dynamic + self.leakage
    }

    /// The `Pstatic / Pdynamic` ratio of Fig. 1.
    pub fn static_fraction(&self) -> f64 {
        self.leakage / self.dynamic
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dynamic {:.3} µW + leakage {:.3} µW",
            self.dynamic.as_micro(),
            self.leakage.as_micro()
        )
    }
}

/// Netlist power under the context's supplies/thresholds, at switching
/// activity `activity` and clock `freq`.
///
/// Gates assigned [`SupplyClass::Low`] both switch at the reduced supply
/// (quadratic saving) and leak less (linear × `Ioff(Vdd)` saving); gates
/// assigned [`crate::cell::VthClass::High`] leak `10^(−ΔVth/S)` less. Level converters
/// on Low→High edges are charged their switching energy at the high
/// supply ("8-10% additional level conversion power", Section 2.4).
///
/// # Errors
///
/// Returns [`CircuitError::BadParameter`] for activity outside `(0, 1]` or
/// a non-positive frequency.
pub fn netlist_power(
    netlist: &Netlist,
    ctx: &TimingContext,
    activity: f64,
    freq: Hertz,
) -> Result<PowerReport, CircuitError> {
    if !(activity > 0.0 && activity <= 1.0) {
        return Err(CircuitError::BadParameter("activity must be in (0, 1]"));
    }
    if !(freq.0 > 0.0) {
        return Err(CircuitError::BadParameter("frequency must be positive"));
    }
    let mut dynamic = Watts(0.0);
    let mut leakage = Watts(0.0);
    let ioff = off_current_table(ctx);
    let converter_cap = Farads(ctx.unit_cap().0 * 3.0);
    for id in netlist.ids() {
        let supply = netlist.supply(id);
        let vdd = ctx.supply_voltage(supply);
        let c_load = ctx.load_of(netlist, id);
        dynamic += Watts(activity * freq.0 * c_load.0 * vdd.0 * vdd.0);
        let class = ioff[usize::from(supply == SupplyClass::Low)]
            [usize::from(netlist.vth(id) == VthClass::High)];
        let w = ctx.leak_width(netlist.kind(id), netlist.drive(id));
        leakage += class.total(w) * vdd;
        // Level converters on Low -> High fan-out edges.
        if supply == SupplyClass::Low {
            let converters = high_supply_fanouts(netlist, id);
            if converters > 0 {
                let e = converter_cap.0 * ctx.vdd_high.0 * ctx.vdd_high.0;
                dynamic += Watts(activity * freq.0 * e * converters as f64);
            }
        }
    }
    Ok(PowerReport { dynamic, leakage })
}

/// Off current per µm of each (supply, Vth) class, indexed
/// `[low supply][high Vth]`. A gate's off current depends only on its
/// class, so the device model runs once per class rather than once per
/// gate; [`netlist_power`] and the §3.3 optimizer's leakage model both
/// read this one table.
pub fn off_current_table(ctx: &TimingContext) -> [[MicroampsPerMicron; 2]; 2] {
    [SupplyClass::High, SupplyClass::Low].map(|supply| {
        [VthClass::Low, VthClass::High].map(|vth| {
            ctx.device()
                .with_vth(ctx.threshold_voltage(vth))
                .ioff_at_drain(ctx.supply_voltage(supply))
        })
    })
}

/// Fan-outs of `id` on the high supply: the level converters a
/// low-supply `id` drives.
fn high_supply_fanouts(netlist: &Netlist, id: GateId) -> usize {
    netlist
        .fanouts(id)
        .iter()
        .filter(|&&f| netlist.supply(f) == SupplyClass::High)
        .count()
}

/// Count of level converters currently implied by the supply assignment
/// (one per Low→High fan-out edge).
pub fn level_converter_count(netlist: &Netlist) -> usize {
    netlist
        .ids()
        .filter(|&id| netlist.supply(id) == SupplyClass::Low)
        .map(|id| high_supply_fanouts(netlist, id))
        .sum()
}

/// The Fig. 1 scenario: one inverter (Wn/L = 4, Wp/L = 8) driving a
/// fan-out of 4 plus an average wiring load, at the given supply,
/// frequency, activity and the device's junction temperature.
///
/// Returns the dynamic and static power of the stage; the paper plots
/// `static_fraction()` against activity for 70 nm @ 0.9 V and 50 nm @
/// 0.7 / 0.6 V at 85 °C.
///
/// # Errors
///
/// Returns [`CircuitError::BadParameter`] for activity outside `(0, 1]`, a
/// non-positive frequency or wire load, or a device without a roadmap node
/// (the W/L widths are defined in terms of the drawn feature size).
pub fn fo4_power(
    dev: &Mosfet,
    vdd: Volts,
    freq: Hertz,
    activity: f64,
    wire_cap: Farads,
) -> Result<PowerReport, CircuitError> {
    if !(activity > 0.0 && activity <= 1.0) {
        return Err(CircuitError::BadParameter("activity must be in (0, 1]"));
    }
    if !(freq.0 > 0.0) {
        return Err(CircuitError::BadParameter("frequency must be positive"));
    }
    if wire_cap.0 < 0.0 {
        return Err(CircuitError::BadParameter("wire load must be non-negative"));
    }
    let Some(node) = dev.node else {
        return Err(CircuitError::BadParameter(
            "fo4_power needs a node-calibrated device",
        ));
    };
    let drawn = node.drawn().to_microns();
    let wn = Microns(FIG1_WN_PER_L * drawn.0);
    let wp = Microns(FIG1_WP_PER_L * drawn.0);
    let cin = Farads(dev.gate_cap_per_um().0 * (wn.0 + wp.0));
    let c_total = Farads(4.0 * cin.0 + wire_cap.0);
    let dynamic = Watts(activity * freq.0 * c_total.0 * vdd.0 * vdd.0);
    // State-averaged leakage: half the time the NMOS leaks, half the PMOS.
    let ioff = dev.ioff();
    let leak = 0.5 * (ioff.total(wn) + ioff.total(wp) * PMOS_IOFF_FRACTION);
    Ok(PowerReport {
        dynamic,
        leakage: leak * vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;
    use np_units::Celsius;

    fn setup() -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(9));
        let ctx = TimingContext::for_node(TechNode::N70).unwrap();
        (nl, ctx)
    }

    #[test]
    fn power_is_positive_and_dynamic_dominates_at_high_activity() {
        let (nl, ctx) = setup();
        let p = netlist_power(&nl, &ctx, 0.2, Hertz(2e9)).unwrap();
        assert!(p.dynamic.0 > 0.0);
        assert!(p.leakage.0 > 0.0);
        assert!(p.dynamic > p.leakage);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_activity_and_freq() {
        let (nl, ctx) = setup();
        let base = netlist_power(&nl, &ctx, 0.1, Hertz(1e9)).unwrap();
        let double_a = netlist_power(&nl, &ctx, 0.2, Hertz(1e9)).unwrap();
        let double_f = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        assert!((double_a.dynamic.0 / base.dynamic.0 - 2.0).abs() < 1e-9);
        assert!((double_f.dynamic.0 / base.dynamic.0 - 2.0).abs() < 1e-9);
        assert!(
            (double_a.leakage.0 - base.leakage.0).abs() < 1e-15,
            "leakage is activity-free"
        );
    }

    #[test]
    fn low_supply_everywhere_cuts_dynamic_quadratically() {
        let (mut nl, ctx) = setup();
        let before = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        for id in nl.ids().collect::<Vec<_>>() {
            nl.gate_mut(id).set_supply(SupplyClass::Low);
        }
        let after = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        let expect = (ctx.vdd_low / ctx.vdd_high).powi(2);
        let got = after.dynamic / before.dynamic;
        assert!(
            (got - expect).abs() < 0.02,
            "want quadratic scaling {expect:.3}, got {got:.3}"
        );
        assert!(after.leakage < before.leakage);
        assert_eq!(level_converter_count(&nl), 0, "all-low design needs none");
    }

    #[test]
    fn high_vth_everywhere_cuts_leakage_by_eq4_factor() {
        let (mut nl, ctx) = setup();
        let before = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        for id in nl.ids().collect::<Vec<_>>() {
            nl.gate_mut(id).set_vth(VthClass::High);
        }
        let after = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        let expect = np_device::dualvth::ioff_multiplier(ctx.vth_high - ctx.vth_low);
        let got = before.leakage / after.leakage;
        assert!(
            (got / expect - 1.0).abs() < 0.01,
            "want {expect:.1}x, got {got:.1}x"
        );
        assert!((after.dynamic.0 - before.dynamic.0).abs() < 1e-15);
    }

    #[test]
    fn mixed_supply_design_counts_converters() {
        let (mut nl, ctx) = setup();
        // Put every entry gate on the low supply; fan-outs stay high.
        let entries: Vec<_> = nl.ids().filter(|&id| nl.fanins(id).is_empty()).collect();
        for id in entries {
            nl.gate_mut(id).set_supply(SupplyClass::Low);
        }
        let n = level_converter_count(&nl);
        assert!(n > 0);
        let p_mixed = netlist_power(&nl, &ctx, 0.1, Hertz(2e9)).unwrap();
        assert!(p_mixed.dynamic.0 > 0.0);
    }

    #[test]
    fn bad_inputs_rejected() {
        let (nl, ctx) = setup();
        assert!(netlist_power(&nl, &ctx, 0.0, Hertz(1e9)).is_err());
        assert!(netlist_power(&nl, &ctx, 1.5, Hertz(1e9)).is_err());
        assert!(netlist_power(&nl, &ctx, 0.1, Hertz(0.0)).is_err());
    }

    #[test]
    fn fo4_static_fraction_falls_with_activity() {
        // The Fig. 1 curves are straight lines of slope -1 in log-log:
        // Pstat/Pdyn ~ 1/activity.
        let dev = Mosfet::for_node(TechNode::N70)
            .unwrap()
            .with_temperature(Celsius(85.0));
        let f = TechNode::N70.params().local_clock;
        let wire = Farads::from_femto(5.0);
        let at = |a: f64| {
            fo4_power(&dev, Volts(0.9), f, a, wire)
                .unwrap()
                .static_fraction()
        };
        let r01 = at(0.01);
        let r10 = at(0.1);
        assert!((r01 / r10 - 10.0).abs() < 1e-6, "slope -1 in log-log");
    }

    #[test]
    fn fo4_50nm_leaks_more_than_70nm() {
        // Fig. 1 ordering: 50 nm @ 0.6 V >> 50 nm @ 0.7 V > 70 nm @ 0.9 V.
        // Wire load scales with the node (same relative "average wire").
        let ratio = |node: TechNode, vdd: f64| {
            let wire = Farads::from_femto(5.0 * node.drawn().0 / 70.0);
            let dev = Mosfet::for_node_with(node, Volts(vdd), np_device::GateKind::PolySilicon)
                .unwrap()
                .with_temperature(Celsius(85.0));
            fo4_power(&dev, Volts(vdd), node.params().local_clock, 0.1, wire)
                .unwrap()
                .static_fraction()
        };
        let r70 = ratio(TechNode::N70, 0.9);
        let r50_07 = ratio(TechNode::N50, 0.7);
        let r50_06 = ratio(TechNode::N50, 0.6);
        assert!(r70 < r50_07, "{r70} vs {r50_07}");
        assert!(r50_07 < r50_06, "{r50_07} vs {r50_06}");
    }

    #[test]
    fn fo4_needs_node_calibrated_device() {
        let mut dev = Mosfet::for_node(TechNode::N70).unwrap();
        dev.node = None;
        assert!(fo4_power(&dev, Volts(0.9), Hertz(1e9), 0.1, Farads::from_femto(5.0)).is_err());
    }
}
