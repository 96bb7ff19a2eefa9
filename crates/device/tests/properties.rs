//! Property-based tests on the compact-model invariants the paper's
//! analysis leans on.

use np_device::solve::solve_vth_for_ion;
use np_device::stack::SubthresholdStack;
use np_device::{GateKind, Mosfet};
use np_roadmap::TechNode;
use np_units::{Celsius, MicroampsPerMicron, Nanometers, Volts};
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

fn device(node: TechNode) -> Mosfet {
    Mosfet::for_node(node).expect("calibration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ion_is_monotone_in_vdd(node in any_node(), dv in 0.01..0.3f64) {
        let dev = device(node);
        let vdd = node.params().vdd;
        let lo = dev.ion(vdd).unwrap();
        let hi = dev.ion(vdd + Volts(dv)).unwrap();
        prop_assert!(hi > lo);
    }

    #[test]
    fn ion_is_monotone_decreasing_in_vth(node in any_node(), dv in 0.005..0.1f64) {
        let dev = device(node);
        let vdd = node.params().vdd;
        let base = dev.ion(vdd).unwrap();
        let slower = dev.with_vth(dev.vth + Volts(dv)).ion(vdd).unwrap();
        prop_assert!(slower < base);
    }

    #[test]
    fn ioff_follows_eq4_exactly(node in any_node(), dv in -0.15..0.15f64) {
        // Ioff(vth + dv)/Ioff(vth) = 10^(-dv/S), for any node and shift.
        let dev = device(node);
        let shifted = dev.with_vth(dev.vth + Volts(dv));
        let expect = 10f64.powf(-dv / dev.subthreshold_swing().0);
        let got = shifted.ioff() / dev.ioff();
        prop_assert!((got / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ioff_increases_with_temperature(node in any_node(), dt in 1.0..80.0f64) {
        let dev = device(node);
        let hot = dev.with_temperature(Celsius(dev.temp.0 + dt));
        prop_assert!(hot.ioff() > dev.ioff());
    }

    #[test]
    fn metal_gate_never_hurts(node in any_node()) {
        // At equal Vth, removing gate depletion can only add drive.
        let poly = device(node);
        let metal = Mosfet { gate: GateKind::Metal, ..poly.clone() };
        let vdd = node.params().vdd;
        prop_assert!(metal.ion(vdd).unwrap() >= poly.ion(vdd).unwrap());
    }

    #[test]
    fn rs_degradation_is_monotone(node in any_node(), rs in 0.0..400.0f64) {
        let mut dev = device(node);
        let vdd = node.params().vdd;
        let ideal = {
            let mut d = dev.clone();
            d.rs_ohm_um = 0.0;
            d.ion(vdd).unwrap()
        };
        dev.rs_ohm_um = rs;
        let real = dev.ion(vdd).unwrap();
        prop_assert!(real <= ideal);
    }

    #[test]
    fn solve_then_evaluate_round_trips(
        node in any_node(),
        target in 300.0..900.0f64,
    ) {
        let proto = device(node);
        let vdd = node.params().vdd;
        if let Ok(vth) = solve_vth_for_ion(&proto, vdd, MicroampsPerMicron(target)) {
            let check = proto.with_vth(vth).ion(vdd).unwrap();
            prop_assert!((check.0 - target).abs() < 1.0, "{} vs {target}", check.0);
        }
    }

    #[test]
    fn stacks_never_leak_more_than_a_single_device(
        node in any_node(),
        depth in 2usize..4,
    ) {
        let dev = device(node);
        let vdd = node.params().vdd;
        let single = dev.ioff();
        let stacked = SubthresholdStack::uniform(&dev, depth).leakage(vdd).unwrap();
        prop_assert!(stacked < single);
    }

    #[test]
    fn thinner_oxide_means_more_drive_at_fixed_bias(
        tox in 1.0..3.0f64,
        shrink in 0.05..0.5f64,
    ) {
        let base = Mosfet {
            leff: Nanometers(100.0),
            tox_phys: Nanometers(tox),
            gate: GateKind::PolySilicon,
            vth: Volts(0.3),
            mu0: 450.0,
            rs_ohm_um: 60.0,
            temp: Celsius(26.85),
            substrate: np_device::substrate::Substrate::Bulk,
            node: None,
        };
        let thin = Mosfet { tox_phys: Nanometers(tox * (1.0 - shrink)), ..base.clone() };
        let v = Volts(1.5);
        prop_assert!(thin.ion(v).unwrap() > base.ion(v).unwrap());
    }

    #[test]
    fn dibl_reduces_leakage_below_nominal_drain(node in any_node(), frac in 0.2..0.99f64) {
        let dev = device(node);
        let vnom = dev.nominal_vdd();
        let reduced = dev.ioff_at_drain(vnom * frac);
        prop_assert!(reduced < dev.ioff());
    }
}
