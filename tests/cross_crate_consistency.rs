//! Integration: identities that must hold *across* crates — the same
//! physics seen through different modules agrees.

use nanopower::circuit::cell::{CellKind, SupplyClass, VthClass};
use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::power::netlist_power;
use nanopower::circuit::sta::TimingContext;
use nanopower::device::delay::fo4_delay;
use nanopower::roadmap::TechNode;
use nanopower::units::{Hertz, Volts};

#[test]
fn timing_context_multipliers_match_device_model() {
    // The STA's delay multiplier for (supply, Vth) must equal the device
    // model's Vdd/Ion ratio, recomputed here from first principles.
    let ctx = TimingContext::for_node(TechNode::N70).expect("ctx");
    let dev = ctx.device().clone();
    let reference = ctx.vdd_high.0 / dev.ion(ctx.vdd_high).expect("ion").0;
    for (supply, vdd) in [
        (SupplyClass::High, ctx.vdd_high),
        (SupplyClass::Low, ctx.vdd_low),
    ] {
        for (vth_class, vth) in [(VthClass::Low, ctx.vth_low), (VthClass::High, ctx.vth_high)] {
            let expect = (vdd.0 / dev.with_vth(vth).ion(vdd).expect("ion").0) / reference;
            let got = ctx.delay_multiplier(supply, vth_class);
            assert!(
                (got / expect - 1.0).abs() < 1e-9,
                "multiplier mismatch for {supply:?}/{vth_class:?}"
            );
        }
    }
}

#[test]
fn tau_is_consistent_with_device_fo4() {
    for node in TechNode::ALL {
        let ctx = TimingContext::for_node(node).expect("ctx");
        let fo4 = fo4_delay(ctx.device(), node.params().vdd).expect("fo4");
        assert!((ctx.tau().0 * 5.0 - fo4.0).abs() < 1e-18, "{node}");
    }
}

#[test]
fn netlist_leakage_recomputable_from_device_model() {
    // Sum the per-gate leakage by hand with the device model and compare
    // with the power module.
    let nl = generate_netlist(&NetlistSpec::small(13));
    let ctx = TimingContext::for_node(TechNode::N70).expect("ctx");
    let freq = Hertz(1e9);
    let report = netlist_power(&nl, &ctx, 0.1, freq).expect("power");
    let dev = ctx.device();
    let mut hand = 0.0;
    for id in nl.ids() {
        let g = nl.gate(id);
        let vdd = ctx.supply_voltage(g.supply);
        let ioff = dev
            .with_vth(ctx.threshold_voltage(g.vth))
            .ioff_at_drain(vdd);
        hand += ioff.total(ctx.leak_width(g.kind, g.drive)).0 * vdd.0;
    }
    assert!((report.leakage.0 / hand - 1.0).abs() < 1e-9);
}

#[test]
fn roadmap_identities() {
    // Quantities quoted in the paper, recomputed through the facade.
    let n35 = TechNode::N35.params();
    assert!((n35.worst_case_current().0 - 305.0).abs() < 10.0);
    assert!((n35.standby_current_allowance().0 - 30.5).abs() < 1.0);
    let p = nanopower::roadmap::survey::dynamic_power_penalty(Volts(1.2), Volts(0.9));
    assert!((p - 0.78).abs() < 0.01);
}

#[test]
fn library_cells_match_context_caps() {
    // The library's unit inverter and the timing context's unit cap come
    // from the same device; they must agree.
    let lib = nanopower::circuit::Library::rich(TechNode::N100).expect("library");
    let ctx = TimingContext::for_node(TechNode::N100).expect("ctx");
    let inv1 = lib.nearest(CellKind::Inverter, 1.0).expect("inverter");
    assert!((inv1.input_cap.0 / ctx.input_cap(CellKind::Inverter, 1.0).0 - 1.0).abs() < 1e-9);
}

#[test]
fn dual_vth_multiplier_is_universal() {
    // The 15X-per-100-mV rule must be visible at device level, in the
    // timing context's threshold pair, and in netlist leakage.
    let ctx = TimingContext::for_node(TechNode::N50).expect("ctx");
    let dev = ctx.device();
    let device_ratio = dev.with_vth(ctx.vth_low).ioff() / dev.with_vth(ctx.vth_high).ioff();
    let expect = nanopower::device::dualvth::ioff_multiplier(ctx.vth_high - ctx.vth_low);
    assert!((device_ratio / expect - 1.0).abs() < 1e-9);
}
