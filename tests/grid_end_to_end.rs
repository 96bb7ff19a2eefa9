//! Integration: the Fig. 5 grid study end-to-end, with the analytic model
//! cross-validated by the mesh solver.

use nanopower::grid::analytic::{required_rail_width, worst_case_drop, IrBudget};
use nanopower::grid::mesh::mesh_worst_drop;
use nanopower::grid::plan::GridPlan;
use nanopower::grid::transient::WakeUpEvent;
use nanopower::roadmap::{PackagingRoadmap, TechNode};
use nanopower::units::{Microns, Seconds};

#[test]
fn min_pitch_is_manageable_itrs_is_not() {
    for node in TechNode::ALL {
        let a = GridPlan::min_pitch(node).expect("plan");
        assert!(a.is_routable(), "{node} min-pitch must route");
        assert!(
            a.width_over_min() < 40.0,
            "{node}: {:.0}x",
            a.width_over_min()
        );
        assert!(a.total_routing_fraction() < 0.25);
    }
    let itrs35 = GridPlan::itrs_pads(TechNode::N35).expect("plan");
    assert!(!itrs35.is_routable());
    assert!(itrs35.width_over_min() > 500.0);
}

#[test]
fn analytic_model_tracks_the_field_solver() {
    for (node, pitch, width) in [
        (TechNode::N35, 80.0, 3.0),
        (TechNode::N50, 90.0, 3.0),
        (TechNode::N70, 110.0, 2.0),
        (TechNode::N100, 130.0, 1.5),
    ] {
        let ana = worst_case_drop(node, Microns(pitch), Microns(width)).expect("analytic");
        let mesh = mesh_worst_drop(node, Microns(pitch), Microns(width)).expect("mesh");
        let ratio = mesh.0 / ana.0;
        assert!(
            (0.5..=1.6).contains(&ratio),
            "{node}: mesh/analytic = {ratio:.2}"
        );
    }
}

#[test]
fn solved_widths_verified_by_mesh() {
    // The width the analytic model prescribes holds the *mesh* drop within
    // ~1.6x of the budget (the residual model disagreement).
    let node = TechNode::N35;
    let budget = IrBudget::default();
    let pitch = Microns(80.0);
    let w = required_rail_width(node, pitch, &budget).expect("width");
    let allowed = budget.per_net(node.params().vdd).expect("budget");
    let mesh = mesh_worst_drop(node, pitch, w).expect("mesh");
    assert!(
        mesh.0 <= allowed.0 * 1.6,
        "mesh drop {mesh} vs budget {allowed}"
    );
}

#[test]
fn bump_current_and_wakeup_noise_limits() {
    let node = TechNode::N35;
    let pkg = PackagingRoadmap::for_node(node);
    assert!(pkg.itrs_current_per_vdd_bump() > pkg.bump_current_limit);
    let wake = WakeUpEvent::for_node(node, Seconds::from_nano(50.0));
    let (itrs, min_pitch) = wake.noise_comparison(node).expect("noise");
    assert!(itrs > min_pitch * 5.0);
}

#[test]
fn fig5_non_monotonic_tail() {
    // Footnote 9: power density falls at 35 nm, easing the requirement
    // relative to what pure wire scaling would suggest. We assert the
    // weaker, robust property: the absolute demanded width stays within a
    // small multiple between 50 and 35 nm rather than exploding.
    let p50 = GridPlan::min_pitch(TechNode::N50).expect("plan");
    let p35 = GridPlan::min_pitch(TechNode::N35).expect("plan");
    let growth = p35.demanded_width.0 / p50.demanded_width.0;
    assert!(growth < 2.0, "50->35 nm width grew {growth:.2}x");
}
