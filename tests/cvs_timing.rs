//! Integration: clustered voltage scaling never violates timing and keeps
//! the clustering invariant, across seeds and nodes.

use nanopower::circuit::cell::SupplyClass;
use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::sta::TimingContext;
use nanopower::opt::cvs::{cluster_voltage_scale, CvsOptions};
use nanopower::roadmap::TechNode;

fn run_cvs(
    node: TechNode,
    seed: u64,
    clock_factor: f64,
) -> (
    nanopower::circuit::Netlist,
    TimingContext,
    nanopower::opt::cvs::CvsResult,
) {
    let mut nl = generate_netlist(&NetlistSpec::small(seed));
    let ctx = TimingContext::for_node(node).expect("context");
    let crit = ctx.analyze(&nl).expect("sta").critical_delay();
    let ctx = ctx.with_clock(crit * clock_factor);
    let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).expect("cvs");
    (nl, ctx, r)
}

#[test]
fn timing_is_met_across_seeds_and_nodes() {
    for node in [TechNode::N130, TechNode::N100, TechNode::N70] {
        for seed in [1u64, 2, 3] {
            let (nl, ctx, r) = run_cvs(node, seed, 1.3);
            assert!(r.timing_met, "{node} seed {seed}");
            assert!(ctx.analyze(&nl).expect("sta").is_feasible());
            assert!(r.dynamic_saving() >= 0.0);
        }
    }
}

#[test]
fn clustering_invariant_holds_for_every_seed() {
    for seed in [5u64, 6, 7, 8] {
        let (nl, _ctx, _r) = run_cvs(TechNode::N100, seed, 1.5);
        for id in nl.ids() {
            let g = nl.gate(id);
            if g.supply == SupplyClass::Low && !g.is_output {
                for &f in nl.fanouts(id) {
                    assert_eq!(
                        nl.gate(f).supply,
                        SupplyClass::Low,
                        "seed {seed}: clustered CVS produced a mid-cone conversion"
                    );
                }
            }
        }
    }
}

#[test]
fn savings_scale_with_available_slack() {
    let (_, _, tight) = run_cvs(TechNode::N100, 11, 1.05);
    let (_, _, loose) = run_cvs(TechNode::N100, 11, 1.7);
    assert!(loose.fraction_low > tight.fraction_low);
    assert!(loose.dynamic_saving() >= tight.dynamic_saving());
    // The relaxed configuration approaches the paper's regime.
    assert!(
        loose.fraction_low > 0.55,
        "got {:.0}% low",
        loose.fraction_low * 100.0
    );
}
