//! Property-based tests on netlist generation, STA, and power invariants.

use np_circuit::cell::{SupplyClass, VthClass};
use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::power::{netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_circuit::Netlist;
use np_roadmap::TechNode;
use np_units::{Farads, Hertz, Seconds, Watts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn spec(seed: u64, gates: usize, depth: usize) -> NetlistSpec {
    NetlistSpec {
        gates,
        depth,
        seed,
        output_fraction: 0.1,
        mean_wire_cap_ff: 3.0,
        balanced_depth: false,
        streaming: false,
    }
}

fn ctx() -> TimingContext {
    TimingContext::for_node(TechNode::N100).expect("calibration")
}

/// A small, medium or `large` netlist (`size` 0, 1, 2) with a random
/// supply, threshold and drive on every gate, drawn from `assign`. Half
/// the gates sit on the low supply, so Low→High crossings (level
/// converters) are common.
fn assigned_netlist(seed: u64, size: usize, assign: u64) -> Netlist {
    let mut nl = generate_netlist(&match size {
        0 => NetlistSpec::small(seed),
        1 => NetlistSpec::medium(seed),
        _ => NetlistSpec::large(seed, 20_000),
    });
    let mut rng = StdRng::seed_from_u64(assign);
    for id in nl.ids().collect::<Vec<_>>() {
        let mut gate = nl.gate_mut(id);
        if rng.random::<f64>() < 0.5 {
            gate.set_supply(SupplyClass::Low);
        }
        if rng.random::<f64>() < 0.5 {
            gate.set_vth(VthClass::High);
        }
        gate.set_drive(rng.random_range(0.5..8.5));
    }
    nl
}

/// `netlist_power` as it evaluated the device model once per gate: the
/// reference the per-class leakage table must match to the bit.
fn per_gate_power(nl: &Netlist, ctx: &TimingContext, activity: f64, freq: Hertz) -> PowerReport {
    let mut dynamic = Watts(0.0);
    let mut leakage = Watts(0.0);
    let dev = ctx.device();
    let converter_cap = Farads(ctx.unit_cap().0 * 3.0);
    for id in nl.ids() {
        let g = nl.gate(id);
        let vdd = ctx.supply_voltage(g.supply);
        let c_load = ctx.load_of(nl, id);
        dynamic += Watts(activity * freq.0 * c_load.0 * vdd.0 * vdd.0);
        let ioff = dev
            .with_vth(ctx.threshold_voltage(g.vth))
            .ioff_at_drain(vdd);
        leakage += ioff.total(ctx.leak_width(g.kind, g.drive)) * vdd;
        if g.supply == SupplyClass::Low {
            let converters = nl
                .fanouts(id)
                .iter()
                .filter(|&&f| nl.gate(f).supply == SupplyClass::High)
                .count();
            if converters > 0 {
                let e = converter_cap.0 * ctx.vdd_high.0 * ctx.vdd_high.0;
                dynamic += Watts(activity * freq.0 * e * converters as f64);
            }
        }
    }
    PowerReport { dynamic, leakage }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_netlists_are_valid_dags(
        seed in 0u64..1000,
        gates in 20usize..150,
        depth in 3usize..15,
    ) {
        let nl = generate_netlist(&spec(seed, gates, depth));
        prop_assert_eq!(nl.len(), gates);
        // Construction validates acyclicity; also check fan-in ordering.
        for id in nl.ids() {
            for f in nl.gate(id).fanins {
                prop_assert!(f.index() < id.index());
            }
        }
        prop_assert!(!nl.timing_endpoints().is_empty());
    }

    #[test]
    fn arrival_times_are_monotone_along_edges(seed in 0u64..500) {
        let nl = generate_netlist(&spec(seed, 80, 8));
        let c = ctx().with_clock(Seconds::from_nano(100.0));
        let rep = c.analyze(&nl).unwrap();
        for id in nl.ids() {
            for f in nl.gate(id).fanins {
                prop_assert!(
                    rep.arrival[id.index()] > rep.arrival[f.index()],
                    "arrival must grow along edges"
                );
            }
        }
    }

    #[test]
    fn slack_is_bounded_by_endpoint_slack(seed in 0u64..500) {
        let nl = generate_netlist(&spec(seed, 80, 8));
        let c = ctx().with_clock(Seconds::from_nano(100.0));
        let rep = c.analyze(&nl).unwrap();
        let worst = rep.worst_slack();
        for id in nl.ids() {
            prop_assert!(rep.slack[id.index()] >= worst);
        }
    }

    #[test]
    fn relaxing_the_clock_never_reduces_slack(seed in 0u64..300, extra in 0.01..2.0f64) {
        let nl = generate_netlist(&spec(seed, 60, 8));
        let base = ctx().with_clock(Seconds::from_nano(1.0));
        let relaxed = ctx().with_clock(Seconds::from_nano(1.0 + extra));
        let a = base.analyze(&nl).unwrap();
        let b = relaxed.analyze(&nl).unwrap();
        for id in nl.ids() {
            prop_assert!(b.slack[id.index()].0 >= a.slack[id.index()].0 - 1e-18);
        }
    }

    #[test]
    fn slowing_any_gate_never_improves_arrival(seed in 0u64..200, pick in 0usize..60) {
        let mut nl = generate_netlist(&spec(seed, 60, 8));
        let c = ctx().with_clock(Seconds::from_nano(100.0));
        let before = c.analyze(&nl).unwrap().critical_delay();
        let ids: Vec<_> = nl.ids().collect();
        let victim = ids[pick % ids.len()];
        nl.gate_mut(victim).set_vth(VthClass::High);
        let after = c.analyze(&nl).unwrap().critical_delay();
        prop_assert!(after.0 >= before.0 - 1e-18);
    }

    #[test]
    fn low_supply_assignment_only_reduces_power(seed in 0u64..200, pick in 0usize..60) {
        let mut nl = generate_netlist(&spec(seed, 60, 8));
        let c = ctx();
        let f = Hertz(1e9);
        let before = netlist_power(&nl, &c, 0.1, f).unwrap();
        let ids: Vec<_> = nl.ids().collect();
        let victim = ids[pick % ids.len()];
        nl.gate_mut(victim).set_supply(SupplyClass::Low);
        let after = netlist_power(&nl, &c, 0.1, f).unwrap();
        // Leakage always falls; dynamic falls unless the level-converter
        // energy on new Low->High edges outweighs it, so check the total
        // conservative bound: leakage strictly improves.
        prop_assert!(after.leakage < before.leakage);
    }

    #[test]
    fn critical_delay_is_the_analyzed_one_to_the_bit(
        seed in 0u64..1000,
        size in 0usize..3,
        assign in 0u64..u64::MAX,
    ) {
        let nl = assigned_netlist(seed, size, assign);
        let c = ctx();
        prop_assert!(np_circuit::power::level_converter_count(&nl) > 0);
        let full = c.analyze(&nl).unwrap().critical_delay();
        prop_assert_eq!(c.critical_delay(&nl).0.to_bits(), full.0.to_bits());
    }

    #[test]
    fn per_class_leakage_matches_per_gate_device_model_to_the_bit(
        seed in 0u64..1000,
        size in 0usize..3,
        assign in 0u64..u64::MAX,
        activity in 0.01..1.0f64,
    ) {
        let nl = assigned_netlist(seed, size, assign);
        let c = ctx();
        let f = Hertz(1e9);
        prop_assert!(np_circuit::power::level_converter_count(&nl) > 0);
        let got = netlist_power(&nl, &c, activity, f).unwrap();
        let want = per_gate_power(&nl, &c, activity, f);
        prop_assert_eq!(got.dynamic.0.to_bits(), want.dynamic.0.to_bits());
        prop_assert_eq!(got.leakage.0.to_bits(), want.leakage.0.to_bits());
    }

    #[test]
    fn power_scales_linearly_with_frequency(seed in 0u64..200, k in 1.1..8.0f64) {
        let nl = generate_netlist(&spec(seed, 60, 8));
        let c = ctx();
        let base = netlist_power(&nl, &c, 0.1, Hertz(1e9)).unwrap();
        let scaled = netlist_power(&nl, &c, 0.1, Hertz(1e9 * k)).unwrap();
        prop_assert!((scaled.dynamic.0 / base.dynamic.0 / k - 1.0).abs() < 1e-9);
        prop_assert!((scaled.leakage.0 - base.leakage.0).abs() < 1e-15);
    }
}
