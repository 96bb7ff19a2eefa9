//! Property-based tests on the optimizer invariants: no optimization ever
//! breaks timing, and the savings have the right signs.

use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::sta::TimingContext;
use np_device::Mosfet;
use np_opt::cvs::{cluster_voltage_scale, CvsOptions};
use np_opt::dualvth::assign_dual_vth;
use np_opt::policy::{policy_curve, VthPolicy};
use np_opt::sizing::downsize;
use np_roadmap::TechNode;
use np_units::Volts;
use proptest::prelude::*;

fn setup(seed: u64, factor: f64) -> (np_circuit::Netlist, TimingContext) {
    let mut spec = NetlistSpec::small(seed);
    spec.gates = 120;
    spec.depth = 10;
    let nl = generate_netlist(&spec);
    let ctx = TimingContext::for_node(TechNode::N100).expect("ctx");
    let crit = ctx.analyze(&nl).expect("sta").critical_delay();
    (nl, ctx.with_clock(crit * factor))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cvs_preserves_timing_for_any_seed(seed in 0u64..10_000, factor in 1.05..1.8f64) {
        let (mut nl, ctx) = setup(seed, factor);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).unwrap();
        prop_assert!(r.timing_met);
        prop_assert!(ctx.analyze(&nl).unwrap().is_feasible());
        prop_assert!(r.dynamic_saving() >= -1e-12);
    }

    #[test]
    fn dual_vth_never_increases_leakage(seed in 0u64..10_000, factor in 1.05..1.8f64) {
        let (mut nl, ctx) = setup(seed, factor);
        let r = assign_dual_vth(&mut nl, &ctx, 0.1, None).unwrap();
        prop_assert!(r.after.leakage <= r.before.leakage);
        prop_assert!((r.after.dynamic.0 - r.before.dynamic.0).abs() < 1e-15);
        prop_assert!(ctx.analyze(&nl).unwrap().is_feasible());
    }

    #[test]
    fn sizing_never_increases_power(seed in 0u64..10_000, factor in 1.05..1.6f64) {
        let (mut nl, ctx) = setup(seed, factor);
        let r = downsize(&mut nl, &ctx, 0.1, None).unwrap();
        prop_assert!(r.after.total() <= r.before.total() * (1.0 + 1e-12));
        if r.gate_cap_reduction > 0.0 {
            let per_cap = r.dynamic_saving() / r.gate_cap_reduction;
            prop_assert!(per_cap <= 1.0 + 1e-9, "sublinearity");
        }
        prop_assert!(ctx.analyze(&nl).unwrap().is_feasible());
    }

    #[test]
    fn policy_ordering_holds_over_the_whole_sweep(vdd in 0.2..0.55f64) {
        // constant-Pstatic <= conservative <= constant-Vth delay, at every
        // supply below nominal.
        let dev = Mosfet::for_node(TechNode::N35).unwrap();
        let sweep = [Volts(vdd)];
        let d = |p: VthPolicy| policy_curve(&dev, p, &sweep).unwrap()[0].delay;
        let scaled = d(VthPolicy::ConstantStaticPower);
        let cons = d(VthPolicy::Conservative);
        let fixed = d(VthPolicy::ConstantVth);
        prop_assert!(scaled <= cons + 1e-12);
        prop_assert!(cons <= fixed + 1e-12);
    }
}
