//! Property-based tests for the quantity algebra and numerics.

use np_units::math::{bisect, linspace, logspace};
use np_units::{Amps, Ohms, Volts, Watts};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

fn positive() -> impl Strategy<Value = f64> {
    1e-6..1e6f64
}

proptest! {
    #[test]
    fn addition_commutes(a in finite(), b in finite()) {
        prop_assert_eq!((Volts(a) + Volts(b)).0, (Volts(b) + Volts(a)).0);
    }

    #[test]
    fn same_type_division_is_ratio(a in finite(), b in positive()) {
        prop_assert!(((Volts(a) / Volts(b)) - a / b).abs() < 1e-12);
    }

    #[test]
    fn ohms_law_round_trips(v in positive(), r in positive()) {
        let i = Volts(v) / Ohms(r);
        let back = i * Ohms(r);
        prop_assert!((back.0 / v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_identities(v in positive(), i in positive()) {
        let p: Watts = Volts(v) * Amps(i);
        let i_back = p / Volts(v);
        prop_assert!((i_back.0 / i - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_distributes(a in finite(), b in finite(), k in -1e3..1e3f64) {
        let lhs = (Volts(a) + Volts(b)) * k;
        let rhs = Volts(a) * k + Volts(b) * k;
        prop_assert!((lhs.0 - rhs.0).abs() < 1e-6_f64.max(lhs.0.abs() * 1e-12));
    }

    #[test]
    fn bisect_finds_root_of_monotone_cubic(c in 0.1..100.0f64) {
        // x^3 + x - c is strictly increasing with a root in [0, c+1].
        let root = bisect(|x| x * x * x + x - c, 0.0, c + 1.0, 1e-12).unwrap();
        let residual = root * root * root + root - c;
        prop_assert!(residual.abs() < 1e-6, "residual {residual}");
    }

    #[test]
    fn linspace_is_sorted_and_bounded(lo in -1e3..1e3f64, span in 0.1..1e3f64, n in 2usize..50) {
        let xs = linspace(lo, lo + span, n);
        prop_assert_eq!(xs.len(), n);
        prop_assert_eq!(xs[0], lo);
        prop_assert_eq!(xs[n - 1], lo + span);
        prop_assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn logspace_is_geometric(lo in 1e-3..1.0f64, factor in 1.5..100.0f64, n in 3usize..20) {
        let xs = logspace(lo, lo * factor, n);
        let r0 = xs[1] / xs[0];
        for w in xs.windows(2) {
            prop_assert!((w[1] / w[0] / r0 - 1.0).abs() < 1e-9);
        }
    }
}
