//! Fault-injection property suite: public model APIs must be total.
//!
//! Every entry point hardened by the `units::guard` layer is fuzzed with
//! a pool of poison values (NaN, ±infinity, subnormals, extreme
//! magnitudes) mixed with ordinary operating values. The properties
//! assert two things:
//!
//! 1. **no panic** — every call returns `Ok` or `Err`, never unwinds;
//! 2. **non-finite in, `Err` out** — a NaN/infinite input is reported as
//!    a typed error (usually the crate's `NonFinite` variant), not
//!    silently propagated into results.
//!
//! The proptest shim has no shrinking; failures print the generated
//! inputs through the assertion message, and case indices are
//! deterministic per test name.

use proptest::prelude::*;

use np_device::solve::solve_vth_for_ion;
use np_device::Mosfet;
use np_grid::cg::solve_pcg;
use np_grid::solver::MeshProblem;
use np_interconnect::elmore::RcLine;
use np_interconnect::lowswing::LowSwingLink;
use np_interconnect::repeater::{insert_repeaters, DriverTech};
use np_interconnect::wire::WireGeometry;
use np_roadmap::TechNode;
use np_thermal::package::Package;
use np_units::{Celsius, MicroampsPerMicron, Microns, ThermalResistance, Volts, Watts};

/// Non-finite poison values: any API taking one of these must `Err`.
fn poison() -> Vec<f64> {
    vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
}

/// Hostile-but-sometimes-valid pool: poison plus zeros, negatives,
/// subnormals, and extreme magnitudes. APIs must not panic on any of
/// these; whether they return `Ok` or `Err` is their contract.
fn hostile() -> Vec<f64> {
    vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        0.0,
        -0.0,
        -1.0,
        1.0,
        1e-12,
        1e12,
    ]
}

fn device() -> Mosfet {
    Mosfet::for_node(TechNode::N100).expect("N100 preset must build")
}

// ---------------------------------------------------------------- device

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn device_ion_total_over_hostile_vdd(v in prop::sample::select(hostile())) {
        let dev = device();
        let r = dev.ion(Volts(v));
        if !v.is_finite() {
            prop_assert!(r.is_err(), "non-finite Vdd {v} must be rejected");
        }
        if let Ok(ion) = r {
            prop_assert!(ion.0.is_finite(), "Ok result must be finite, got {}", ion.0);
        }
    }

    #[test]
    fn device_idsat_and_rlin_total(v in prop::sample::select(hostile())) {
        let dev = device();
        let _ = dev.idsat0(Volts(v));
        let r = dev.linear_resistance_ohm_um(Volts(v));
        if !v.is_finite() {
            prop_assert!(r.is_err(), "non-finite Vgs {v} must be rejected");
        }
    }

    #[test]
    fn device_validate_rejects_poisoned_fields(
        p in prop::sample::select(poison()),
        field in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5]),
    ) {
        let mut dev = device();
        match field {
            0 => dev.leff.0 = p,
            1 => dev.tox_phys.0 = p,
            2 => dev.mu0 = p,
            3 => dev.rs_ohm_um = p,
            4 => dev.vth.0 = p,
            _ => dev.temp.0 = p,
        }
        prop_assert!(dev.validate().is_err(), "poison in field {field} must fail validate");
        // The fallible entry points re-validate, so they must report the
        // poisoned field as an error rather than panic or emit NaN.
        prop_assert!(dev.ion(Volts(1.0)).is_err());
        prop_assert!(dev.linear_resistance_ohm_um(Volts(1.0)).is_err());
    }

    #[test]
    fn device_vth_solver_total(
        vdd in prop::sample::select(hostile()),
        target in prop::sample::select(hostile()),
    ) {
        let dev = device();
        let r = solve_vth_for_ion(&dev, Volts(vdd), MicroampsPerMicron(target));
        if !vdd.is_finite() || !target.is_finite() {
            prop_assert!(r.is_err(), "non-finite solver input must be rejected");
        }
        if let Ok(vth) = r {
            prop_assert!(vth.0.is_finite());
        }
    }
}

// ------------------------------------------------------------------ grid

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_solvers_reject_poison_injection(
        p in prop::sample::select(poison()),
        slot in 0usize..16,
    ) {
        let mut m = MeshProblem::new(4, 4, 1.0);
        m.pinned[0] = true;
        m.injection[slot] = p;
        prop_assert!(m.validate().is_err());
        prop_assert!(m.solve().is_err(), "SOR must reject poison injection");
        prop_assert!(solve_pcg(&m).is_err(), "PCG must reject poison injection");
    }

    #[test]
    fn grid_solvers_reject_hostile_conductance(g in prop::sample::select(hostile())) {
        let mut m = MeshProblem::new(3, 3, 1.0);
        m.pinned[0] = true;
        m.edge_conductance = g;
        let sor = m.solve();
        let cg = solve_pcg(&m);
        if !(g.is_finite() && g > 0.0) {
            prop_assert!(sor.is_err() && cg.is_err(), "conductance {g} must be rejected");
        }
    }

    #[test]
    fn grid_solvers_agree_and_stay_finite(
        i in 0.0f64..5.0,
        slot in 0usize..9,
    ) {
        let mut m = MeshProblem::new(3, 3, 1.0);
        m.pinned[4] = true;
        m.injection[slot] = i;
        let sor = m.solve();
        let cg = solve_pcg(&m);
        prop_assert!(sor.is_ok() && cg.is_ok());
        if let (Ok(a), Ok(b)) = (sor, cg) {
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(x.is_finite() && y.is_finite());
                prop_assert!((x - y).abs() < 1e-6, "SOR {x} vs PCG {y}");
            }
        }
    }
}

// --------------------------------------------------------------- thermal

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn thermal_electro_thermal_total(
        dyn_w in prop::sample::select(hostile()),
        theta in prop::sample::select(hostile()),
    ) {
        let pkg = Package::new(ThermalResistance(theta), Celsius(45.0));
        let r = pkg.electro_thermal_temperature(
            Watts(dyn_w),
            &device(),
            Microns(1.0e6),
            Volts(1.0),
        );
        if !dyn_w.is_finite() || !theta.is_finite() {
            prop_assert!(r.is_err(), "non-finite package input must be rejected");
        }
        if let Ok(t) = r {
            prop_assert!(t.0.is_finite());
        }
    }
}

// ----------------------------------------------------------- interconnect

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rcline_constructor_total(len in prop::sample::select(hostile())) {
        let g = WireGeometry::top_level(TechNode::N100);
        let r = RcLine::new(g, Microns(len));
        if !len.is_finite() {
            prop_assert!(r.is_err(), "non-finite length {len} must be rejected");
        }
    }

    #[test]
    fn rcline_rejects_poisoned_geometry(
        p in prop::sample::select(poison()),
        field in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5]),
    ) {
        let mut g = WireGeometry::top_level(TechNode::N100);
        match field {
            0 => g.width.0 = p,
            1 => g.spacing.0 = p,
            2 => g.thickness.0 = p,
            3 => g.height.0 = p,
            4 => g.k_dielectric = p,
            _ => g.resistivity = p,
        }
        prop_assert!(RcLine::new(g, Microns(1000.0)).is_err());
    }

    #[test]
    fn lowswing_total(
        vdd in prop::sample::select(hostile()),
        swing in prop::sample::select(hostile()),
    ) {
        let g = WireGeometry::top_level(TechNode::N100);
        let Ok(line) = RcLine::new(g, Microns(10_000.0)) else {
            prop_assert!(false, "valid line must build");
            return Ok(());
        };
        let r = LowSwingLink::with_swing(line, Volts(vdd), Volts(swing));
        if !vdd.is_finite() || !swing.is_finite() {
            prop_assert!(r.is_err(), "non-finite swing input must be rejected");
        }
    }

    #[test]
    fn repeater_insertion_rejects_poisoned_driver(
        p in prop::sample::select(poison()),
        field in prop::sample::select(vec![0usize, 1, 2]),
    ) {
        let g = WireGeometry::top_level(TechNode::N100);
        let Ok(line) = RcLine::new(g, Microns(10_000.0)) else {
            prop_assert!(false, "valid line must build");
            return Ok(());
        };
        let Ok(mut tech) = DriverTech::from_device(&device(), Volts(1.0)) else {
            prop_assert!(false, "valid driver must build");
            return Ok(());
        };
        match field {
            0 => tech.rd_ohm_um = p,
            1 => tech.c0_per_um = p,
            _ => tech.vdd.0 = p,
        }
        prop_assert!(insert_repeaters(&line, &tech).is_err());
    }

    #[test]
    fn repeater_insertion_total_over_driver_vdd(v in prop::sample::select(hostile())) {
        let g = WireGeometry::top_level(TechNode::N100);
        let Ok(line) = RcLine::new(g, Microns(10_000.0)) else {
            prop_assert!(false, "valid line must build");
            return Ok(());
        };
        let r = DriverTech::from_device(&device(), Volts(v)).and_then(|t| {
            insert_repeaters(&line, &t).map(|d| d.total_delay.0)
        });
        if !v.is_finite() {
            prop_assert!(r.is_err(), "non-finite driver Vdd {v} must be rejected");
        }
    }
}
