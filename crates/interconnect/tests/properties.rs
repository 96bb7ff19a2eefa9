//! Property-based tests on the interconnect models.

use np_device::Mosfet;
use np_interconnect::elmore::RcLine;
use np_interconnect::inductance::{coupled_noise, mutual_inductance_per_um, MU0_H_PER_UM};
use np_interconnect::lowswing::LowSwingLink;
use np_interconnect::repeater::{insert_repeaters, DriverTech};
use np_interconnect::wire::WireGeometry;
use np_roadmap::TechNode;
use np_units::{Microns, Seconds, Volts};
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wire_rc_scales_linearly_with_length(node in any_node(), len in 100.0..50_000.0f64, k in 1.1..5.0f64) {
        let g = WireGeometry::top_level(node);
        let a = RcLine::new(g, Microns(len)).unwrap();
        let b = RcLine::new(g, Microns(len * k)).unwrap();
        prop_assert!((b.resistance().0 / a.resistance().0 / k - 1.0).abs() < 1e-9);
        prop_assert!((b.capacitance().0 / a.capacitance().0 / k - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_delay_beats_unbuffered_beyond_critical_length(
        node in any_node(),
        len in 2_000.0..40_000.0f64,
    ) {
        let dev = Mosfet::for_node(node).unwrap();
        let tech = DriverTech::from_device(&dev, node.params().vdd).unwrap();
        let line = RcLine::new(WireGeometry::top_level(node), Microns(len)).unwrap();
        let d = insert_repeaters(&line, &tech).unwrap();
        // Near the first-insertion boundary the win is marginal; deep in
        // the repeated regime it must be decisive.
        if d.count > 4 {
            prop_assert!(d.total_delay < line.intrinsic_delay());
        }
        prop_assert!(d.spacing.0 * d.count as f64 >= line.length.0 * 0.999);
    }

    #[test]
    fn lowswing_energy_scales_with_swing(
        node in prop::sample::select(vec![TechNode::N180, TechNode::N130, TechNode::N100, TechNode::N70]),
        frac in 0.06..0.5f64,
    ) {
        let p = node.params();
        let line = RcLine::new(WireGeometry::top_level(node), Microns(5_000.0)).unwrap();
        if let Ok(link) = LowSwingLink::with_swing(line, p.vdd, p.vdd * frac) {
            let line2 = RcLine::new(WireGeometry::top_level(node), Microns(5_000.0)).unwrap();
            let half = LowSwingLink::with_swing(line2, p.vdd, p.vdd * frac * 0.5);
            if let Ok(half) = half {
                let ratio = link.energy_per_transition() / half.energy_per_transition();
                prop_assert!((ratio - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn inductances_are_positive_and_mutual_below_self(
        node in any_node(),
        sep_tracks in 1.0..20.0f64,
    ) {
        let g = WireGeometry::top_level(node);
        // Microstrip self inductance over the same return plane (4 heights
        // down): µ0/(2π) · ln(8h/w + w/(4h)).
        let (w, h) = (g.width.0, 4.0 * g.height.0);
        let l = MU0_H_PER_UM / (2.0 * std::f64::consts::PI) * (8.0 * h / w + w / (4.0 * h)).ln();
        let m = mutual_inductance_per_um(&g, Microns(sep_tracks * g.pitch().0));
        prop_assert!(l > 0.0 && m > 0.0);
        prop_assert!(m < l, "mutual must stay below self inductance");
    }

    #[test]
    fn coupled_noise_is_linear_in_aggressor(
        node in any_node(),
        i in 0.001..0.1f64,
        k in 1.1..5.0f64,
    ) {
        let g = WireGeometry::top_level(node);
        let t = Seconds::from_pico(50.0);
        let a = coupled_noise(&g, Microns(2.0), Microns(1_000.0), i, t).unwrap();
        let b = coupled_noise(&g, Microns(2.0), Microns(1_000.0), i * k, t).unwrap();
        prop_assert!((b.0 / a.0 / k - 1.0).abs() < 1e-9);
    }

    #[test]
    fn swing_below_receiver_floor_always_rejected(v in 0.1..0.39f64) {
        // 10% of any supply below 0.4 V is under the 40 mV sensitivity.
        let line =
            RcLine::new(WireGeometry::top_level(TechNode::N35), Microns(1_000.0)).unwrap();
        prop_assert!(LowSwingLink::new(line, Volts(v)).is_err());
    }
}
