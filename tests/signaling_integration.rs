//! Integration: global signaling — repeater census, low-swing links, and
//! the node-by-node comparison report agree with each other.

use nanopower::device::Mosfet;
use nanopower::interconnect::chip::global_signaling_report;
use nanopower::interconnect::elmore::RcLine;
use nanopower::interconnect::lowswing::LowSwingLink;
use nanopower::interconnect::repeater::{
    insert_repeaters, repeater_census, DriverTech, GLOBAL_ACTIVITY,
};
use nanopower::interconnect::wire::WireGeometry;
use nanopower::roadmap::TechNode;
use nanopower::units::{Microns, Watts};

#[test]
fn repeater_counts_explode_along_the_roadmap() {
    let c180 = repeater_census(TechNode::N180).expect("census");
    let c50 = repeater_census(TechNode::N50).expect("census");
    // Paper: ~10^4 at 180 nm to nearly 10^6 at 50 nm.
    assert!(c180.repeater_count < 100_000);
    assert!(c50.repeater_count > 300_000);
    assert!(c50.repeater_count / c180.repeater_count.max(1) > 20);
    // "over 50 W of power in the nanometer regime".
    assert!(c50.power > Watts(30.0));
}

#[test]
fn report_power_matches_census() {
    for node in [TechNode::N70, TechNode::N50] {
        let census = repeater_census(node).expect("census");
        let report = global_signaling_report(node).expect("report");
        assert_eq!(census.repeater_count, report.repeater_count);
        assert!((census.power.0 - report.repeated_power.0).abs() < 1e-9);
    }
}

#[test]
fn lowswing_report_consistent_with_link_energetics() {
    // Rebuild the low-swing power from first principles and compare with
    // the report.
    let node = TechNode::N50;
    let p = node.params();
    let report = global_signaling_report(node).expect("report");
    let probe = RcLine::new(WireGeometry::top_level(node), Microns(10_000.0)).expect("line");
    let link = LowSwingLink::new(probe, p.vdd).expect("link");
    let expected = Watts(
        GLOBAL_ACTIVITY
            * p.global_clock.0
            * (link.energy_per_transition() / 10_000.0)
            * report.wire_length.0,
    );
    assert!(
        (report.lowswing_power.0 / expected.0 - 1.0).abs() < 1e-9,
        "report {} vs rebuilt {}",
        report.lowswing_power,
        expected
    );
}

#[test]
fn repeated_wires_meet_global_clocks() {
    // A cross-die wire, repeated, must fit within a few cycles of the
    // node's global clock — the premise of Section 2.2's latency
    // discussion.
    for node in [TechNode::N70, TechNode::N50, TechNode::N35] {
        let p = node.params();
        let dev = Mosfet::for_node(node).expect("calibration");
        let tech = DriverTech::from_device(&dev, p.vdd).expect("driver");
        let die_side = Microns(p.die_area.0.sqrt() * 1e3);
        let line = RcLine::new(WireGeometry::top_level(node), die_side).expect("line");
        let design = insert_repeaters(&line, &tech).expect("repeaters");
        let cycles = design.total_delay.0 / p.global_clock.period().0;
        assert!(
            cycles < 8.0,
            "{node}: cross-die repeated wire takes {cycles:.1} global cycles"
        );
    }
}
