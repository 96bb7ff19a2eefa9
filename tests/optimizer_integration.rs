//! Integration: the Section 3.3 combined flow across seeds — savings
//! compose, timing survives, and each stage keeps its invariants.

use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::power::netlist_power;
use nanopower::circuit::sta::TimingContext;
use nanopower::opt::combined::{optimize, CombinedOptions};
use nanopower::roadmap::TechNode;
use nanopower::units::Hertz;

fn setup(seed: u64, factor: f64) -> (nanopower::circuit::Netlist, TimingContext) {
    let nl = generate_netlist(&NetlistSpec::small(seed));
    let ctx = TimingContext::for_node(TechNode::N70).expect("ctx");
    let crit = ctx.analyze(&nl).expect("sta").critical_delay();
    (nl, ctx.with_clock(crit * factor))
}

#[test]
fn combined_flow_composes_across_seeds() {
    for seed in [1u64, 12, 123] {
        let (mut nl, ctx) = setup(seed, 1.35);
        let r = optimize(&mut nl, &ctx, &CombinedOptions::default()).expect("optimize");
        assert!(
            r.total_saving() > 0.25,
            "seed {seed}: {:.0}%",
            r.total_saving() * 100.0
        );
        assert!(r.leakage_saving() > 0.25, "seed {seed}");
        assert!(ctx.analyze(&nl).expect("sta").is_feasible(), "seed {seed}");
        // Reported final power matches an independent recomputation.
        let freq = Hertz(1.0 / ctx.clock_period.0);
        let recheck = netlist_power(&nl, &ctx, 0.1, freq).expect("power");
        assert!((recheck.total().0 / r.final_power.total().0 - 1.0).abs() < 1e-9);
    }
}

#[test]
fn stage_ordering_matters() {
    // CVS-first (the paper's order) captures at least as much low-Vdd
    // cluster as sizing-first.
    let (mut a, ctx_a) = setup(42, 1.35);
    let full = optimize(&mut a, &ctx_a, &CombinedOptions::default()).expect("optimize");

    let (mut b, ctx_b) = setup(42, 1.35);
    let _ = nanopower::opt::sizing::downsize(&mut b, &ctx_b, 0.1, None).expect("sizing");
    let cvs_after = nanopower::opt::cvs::cluster_voltage_scale(
        &mut b,
        &ctx_b,
        &nanopower::opt::cvs::CvsOptions::default(),
    )
    .expect("cvs");
    assert!(full.cvs.fraction_low >= cvs_after.fraction_low);
}

#[test]
fn infeasible_designs_are_rejected_up_front() {
    let (mut nl, ctx) = setup(5, 0.6);
    let err = optimize(&mut nl, &ctx, &CombinedOptions::default()).unwrap_err();
    assert!(matches!(
        err,
        nanopower::opt::OptError::TimingInfeasible { .. }
    ));
}
