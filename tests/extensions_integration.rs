//! Integration: the extension modules (MTCMOS, SOI, DVFS, decap, CG mesh,
//! crosstalk, incremental STA, netlist IO) compose with the core models.

use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::incremental::IncrementalSta;
use nanopower::circuit::io::{parse_netlist, write_netlist};
use nanopower::circuit::sta::TimingContext;
use nanopower::device::mtcmos::MtcmosBlock;
use nanopower::device::substrate::Substrate;
use nanopower::device::Mosfet;
use nanopower::grid::cg::solve_pcg;
use nanopower::grid::decap::DecapPlan;
use nanopower::grid::solver::MeshProblem;
use nanopower::grid::transient::WakeUpEvent;
use nanopower::opt::cvs::{cluster_voltage_scale, CvsOptions};
use nanopower::roadmap::TechNode;
use nanopower::thermal::dtm::{simulate, DtmPolicy};
use nanopower::thermal::package::Package;
use nanopower::thermal::rc::{ThermalRc, DEFAULT_HEAT_CAPACITY_J_PER_C};
use nanopower::thermal::workload::WorkloadTrace;
use nanopower::units::{Celsius, Microns, Seconds, ThermalResistance, Watts};

#[test]
fn optimized_netlist_survives_io_round_trip_with_timing_intact() {
    // Optimize, serialize, reload, re-time: the reloaded design must meet
    // the same clock with the same power.
    let mut nl = generate_netlist(&NetlistSpec::small(314));
    let ctx = TimingContext::for_node(TechNode::N100).expect("ctx");
    let crit = ctx.analyze(&nl).expect("sta").critical_delay();
    let ctx = ctx.with_clock(crit * 1.3);
    let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default()).expect("cvs");
    assert!(r.timing_met);
    let text = write_netlist(&nl);
    let back = parse_netlist(&text).expect("parse");
    let timing = ctx.analyze(&back).expect("sta");
    assert!(
        timing.is_feasible(),
        "reloaded design must still meet timing"
    );
    let p_orig = nanopower::circuit::power::netlist_power(
        &nl,
        &ctx,
        0.1,
        nanopower::units::Hertz::from_giga(1.0),
    )
    .expect("power");
    let p_back = nanopower::circuit::power::netlist_power(
        &back,
        &ctx,
        0.1,
        nanopower::units::Hertz::from_giga(1.0),
    )
    .expect("power");
    assert!((p_back.total().0 / p_orig.total().0 - 1.0).abs() < 1e-6);
}

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
    // MTCMOS cuts standby leakage; the resulting wake-up transient is
    // absorbed by a decap plan; the mesh drop stays in budget.
    let node = TechNode::N35;
    let logic = Mosfet::for_node(node).expect("calibration");
    let block = MtcmosBlock::new(logic, Microns(1.0e6), 0.1).expect("block");
    assert!(block.standby_reduction() > 100.0);
    // Staged wake-up over 20 µs: decap practical.
    let wake = WakeUpEvent::for_node(node, Seconds(20e-6));
    let decap = DecapPlan::size_for(node, &wake, node.params().vdd * 0.05).expect("decap");
    assert!(
        decap.is_practical(0.1),
        "{:.1}% of die",
        decap.die_fraction * 100.0
    );
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
fn dvfs_beats_clock_gating_on_the_same_package() {
    let theta = ThermalResistance(0.733);
    let virus = WorkloadTrace::power_virus(Watts(100.0), 40_000, Seconds(1e-4));
    let run = |policy: DtmPolicy| {
        simulate(
            ThermalRc::new(
                Package::new(theta, Celsius(45.0)),
                DEFAULT_HEAT_CAPACITY_J_PER_C,
            ),
            &virus,
            &policy,
        )
        .expect("sim")
    };
    let gating = run(DtmPolicy::at_trigger(Celsius(100.0)));
    let dvfs = run(DtmPolicy::dvfs_at_trigger(Celsius(100.0)));
    assert!(dvfs.max_temperature <= Celsius(101.5));
    assert!(dvfs.performance > gating.performance);
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

#[test]
fn crosstalk_window_respects_low_swing_margins() {
    use nanopower::interconnect::crosstalk::{delay_window, NeighbourState};
    use nanopower::interconnect::elmore::RcLine;
    use nanopower::interconnect::wire::WireGeometry;
    let line = RcLine::new(WireGeometry::top_level(TechNode::N50), Microns(5_000.0)).unwrap();
    let dense = delay_window(
        &line,
        nanopower::units::Ohms(500.0),
        nanopower::units::Farads::from_femto(20.0),
        NeighbourState::BothLive,
    )
    .unwrap();
    let shielded = delay_window(
        &line,
        nanopower::units::Ohms(500.0),
        nanopower::units::Farads::from_femto(20.0),
        NeighbourState::FullyShielded,
    )
    .unwrap();
    assert!(dense.uncertainty() > 10.0 * (shielded.uncertainty() + 1e-12));
}
