//! Integration: the extension modules (MTCMOS, SOI, CG mesh, incremental
//! STA) compose with the core models.

use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::incremental::IncrementalSta;
use nanopower::circuit::sta::TimingContext;
use nanopower::device::mtcmos::MtcmosBlock;
use nanopower::device::substrate::Substrate;
use nanopower::device::Mosfet;
use nanopower::grid::cg::solve_pcg;
use nanopower::grid::solver::MeshProblem;
use nanopower::opt::cvs::{cluster_voltage_scale, CvsOptions};
use nanopower::roadmap::TechNode;
use nanopower::units::Microns;

#[test]
fn incremental_sta_agrees_after_cvs() {
    let mut nl = generate_netlist(&NetlistSpec::small(315));
    let ctx = TimingContext::for_node(TechNode::N70).expect("ctx");
    let crit = ctx.analyze(&nl).expect("sta").critical_delay();
    let ctx = ctx.with_clock(crit * 1.4);
    let _ = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).expect("cvs");
    // Fresh incremental engine over the optimized design must agree with
    // full STA on every arrival.
    let mut inc = IncrementalSta::new(&ctx, &nl);
    let full = ctx.analyze(&nl).expect("sta");
    for id in nl.ids() {
        let arrival = inc.arrival_of(&nl, id).expect("same netlist");
        assert!((arrival.0 - full.arrival[id.index()].0).abs() < 1e-18);
    }
}

#[test]
fn sleep_mode_story_composes() {
    // MTCMOS cuts the standby leakage of a calibrated 35 nm logic block.
    let logic = Mosfet::for_node(TechNode::N35).expect("calibration");
    let block = MtcmosBlock::new(logic, Microns(1.0e6), 0.1).expect("block");
    assert!(block.standby_reduction() > 100.0);
}

#[test]
fn soi_device_flows_through_the_whole_stack() {
    // An FD-SOI device keeps every downstream analysis working and leaks
    // less at the same threshold.
    let bulk = Mosfet::for_node(TechNode::N70).expect("calibration");
    let soi = bulk.with_substrate(Substrate::FdSoi);
    assert!(soi.ioff() < bulk.ioff());
    let vdd = TechNode::N70.params().vdd;
    assert!((soi.ion(vdd).unwrap().0 / bulk.ion(vdd).unwrap().0 - 1.0).abs() < 1e-9);
    let block = MtcmosBlock::new(soi, Microns(1000.0), 0.1).expect("block");
    assert!(block.standby_reduction() > 100.0);
}

#[test]
fn both_mesh_solvers_agree_on_a_grid_problem() {
    let mut m = MeshProblem::new(15, 15, 2.0);
    let pin = m.index(7, 7);
    m.pinned[pin] = true;
    for i in 0..m.injection.len() {
        m.injection[i] = 2e-3;
    }
    let sor = m.solve().expect("sor");
    let cg = solve_pcg(&m).expect("pcg");
    for i in 0..sor.len() {
        assert!((sor[i] - cg[i]).abs() < 1e-6, "node {i}");
    }
}
