//! Property-based tests on the thermal models.

use np_thermal::cost::cooling_cost_dollars;
use np_thermal::dtm::{simulate, DtmPolicy};
use np_thermal::package::Package;
use np_thermal::rc::{ThermalRc, DEFAULT_HEAT_CAPACITY_J_PER_C};
use np_thermal::workload::WorkloadTrace;
use np_units::{Celsius, Seconds, ThermalResistance, Watts};
use proptest::prelude::*;

fn peak(trace: &WorkloadTrace) -> Watts {
    trace.samples().iter().copied().fold(Watts(0.0), Watts::max)
}

fn mean(trace: &WorkloadTrace) -> Watts {
    trace.samples().iter().copied().sum::<Watts>() / trace.samples().len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eq1_round_trips(theta in 0.1..2.0f64, p in 1.0..300.0f64) {
        let pkg = Package::new(ThermalResistance(theta), Celsius(45.0));
        let tj = pkg.junction_temperature(Watts(p));
        let back = Package::required_theta_ja(Watts(p), tj, Celsius(45.0));
        prop_assert!((back.0 / theta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_cost_is_monotone(p1 in 0.0..250.0f64, dp in 0.0..50.0f64) {
        prop_assert!(cooling_cost_dollars(Watts(p1 + dp)) >= cooling_cost_dollars(Watts(p1)));
    }

    #[test]
    fn rc_step_never_overshoots_steady_state(
        theta in 0.2..2.0f64,
        p in 1.0..200.0f64,
        dt in 1e-5..1.0f64,
        steps in 1usize..200,
    ) {
        let pkg = Package::new(ThermalResistance(theta), Celsius(45.0));
        let mut node = ThermalRc::new(pkg, DEFAULT_HEAT_CAPACITY_J_PER_C);
        let t_inf = pkg.junction_temperature(Watts(p));
        for _ in 0..steps {
            let t = node.step(Watts(p), Seconds(dt));
            prop_assert!(t.0 <= t_inf.0 + 1e-9, "overshoot: {t} vs {t_inf}");
            prop_assert!(t.0 >= 45.0 - 1e-9);
        }
    }

    #[test]
    fn dtm_always_caps_near_trigger(
        theta in 0.4..1.2f64,
        p_max in 60.0..160.0f64,
        seed in 0u64..100,
    ) {
        let pkg = Package::new(ThermalResistance(theta), Celsius(45.0));
        let node = ThermalRc::new(pkg, DEFAULT_HEAT_CAPACITY_J_PER_C);
        let trace = WorkloadTrace::application(Watts(p_max), 0.75, 5_000, Seconds(1e-4), seed);
        let policy = DtmPolicy::at_trigger(Celsius(100.0));
        let throttled_ss = pkg.junction_temperature(Watts(p_max * policy.throttle_factor));
        let r = simulate(node, &trace, &policy).unwrap();
        if throttled_ss.0 <= 100.0 {
            // A 2x throttle is physically sufficient: DTM must cap.
            prop_assert!(
                r.max_temperature.0 <= 100.0 + 2.0,
                "DTM let the die reach {}",
                r.max_temperature
            );
        } else if r.max_temperature.0 > 100.0 {
            // Package too weak even throttled: DTM must at least be
            // throttling hard whenever the die is over trigger.
            prop_assert!(r.throttled_fraction > 0.1, "hot but barely throttled");
        }
        prop_assert!(r.performance > 0.0 && r.performance <= 1.0);
        prop_assert!((0.0..=1.0).contains(&r.throttled_fraction));
    }

    #[test]
    fn effective_worst_case_is_between_mean_and_peak(
        p_max in 50.0..150.0f64,
        seed in 0u64..100,
        window_ms in 1.0..200.0f64,
    ) {
        let trace = WorkloadTrace::application(Watts(p_max), 0.75, 5_000, Seconds(1e-4), seed);
        let eff = trace.effective_worst_case(Seconds(window_ms * 1e-3));
        prop_assert!(eff >= mean(&trace) - Watts(1e-9));
        prop_assert!(eff <= peak(&trace) + Watts(1e-9));
    }

    #[test]
    fn effective_worst_case_window_limits(seed in 0u64..100) {
        // At a one-sample window the effective worst case is the peak; at
        // the full trace duration it is the mean.
        let trace = WorkloadTrace::application(Watts(100.0), 0.75, 5_000, Seconds(1e-4), seed);
        let tiny = trace.effective_worst_case(Seconds(1e-4));
        prop_assert!((tiny.0 / peak(&trace).0 - 1.0).abs() < 1e-9);
        let duration = trace.dt() * trace.samples().len() as f64;
        let full = trace.effective_worst_case(duration);
        prop_assert!((full.0 / mean(&trace).0 - 1.0).abs() < 1e-9);
    }
}
