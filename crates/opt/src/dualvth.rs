//! Dual-Vth assignment (Section 3.2.2, after Sirichotiyakul \[22\] and
//! Wei \[39\]).
//!
//! "Gates located on critical paths can be assigned fast low Vth, while
//! gates that are not timing critical can tolerate high Vth … Typical
//! results show leakage power reductions of 40-80 % with minimal penalty
//! in critical path delay compared to all low-Vth implementations."
//!
//! The assignment is greedy by slack: gates are visited from the most
//! slack-rich down, flipped to the high threshold, and kept only when
//! full STA still meets timing.

use crate::error::OptError;
use np_circuit::cell::VthClass;
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
use np_circuit::power::{netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_units::Hertz;

/// Result of a dual-Vth assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthResult {
    /// Gates moved to the high threshold.
    pub high_count: usize,
    /// Fraction of gates on the high threshold.
    pub fraction_high: f64,
    /// Power before (all low-Vth).
    pub before: PowerReport,
    /// Power after.
    pub after: PowerReport,
    /// Critical-path delay before, picoseconds.
    pub delay_before_ps: f64,
    /// Critical-path delay after, picoseconds.
    pub delay_after_ps: f64,
}

impl DualVthResult {
    /// Fractional leakage saving — the paper's 40–80 % band.
    pub fn leakage_saving(&self) -> f64 {
        1.0 - self.after.leakage / self.before.leakage
    }

    /// Fractional critical-path delay penalty.
    pub fn delay_penalty(&self) -> f64 {
        self.delay_after_ps / self.delay_before_ps - 1.0
    }
}

/// Greedy dual-Vth assignment in place.
///
/// # Errors
///
/// [`OptError::TimingInfeasible`] when the all-low-Vth design already
/// misses timing; propagates substrate errors; rejects bad accounting
/// parameters.
pub fn assign_dual_vth(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    activity: f64,
    frequency: Option<Hertz>,
) -> Result<DualVthResult, OptError> {
    if !(activity > 0.0 && activity <= 1.0) {
        return Err(OptError::BadParameter("activity must be in (0, 1]"));
    }
    let freq = frequency.unwrap_or(Hertz(1.0 / ctx.clock_period.0));
    let baseline = ctx.analyze(netlist)?;
    if !baseline.is_feasible() {
        return Err(OptError::TimingInfeasible {
            worst_slack_ps: baseline.worst_slack().as_pico(),
        });
    }
    let before = netlist_power(netlist, ctx, activity, freq)?;
    let delay_before = baseline.critical_delay();
    // Most slack first: those flips are free; critical gates stay fast.
    let mut order: Vec<GateId> = netlist.ids().collect();
    order.sort_by(|a, b| {
        baseline.slack[b.index()]
            .0
            .total_cmp(&baseline.slack[a.index()].0)
    });
    let mut sta = IncrementalSta::new(ctx, netlist);
    for id in order {
        netlist.gate_mut(id).set_vth(VthClass::High);
        sta.reevaluate(netlist, id)?;
        if !sta.is_feasible() {
            netlist.gate_mut(id).set_vth(VthClass::Low);
            sta.reevaluate(netlist, id)?;
        }
    }
    let after = netlist_power(netlist, ctx, activity, freq)?;
    let timing = ctx.analyze(netlist)?;
    let high_count = netlist
        .ids()
        .filter(|&id| netlist.vth(id) == VthClass::High)
        .count();
    Ok(DualVthResult {
        high_count,
        fraction_high: high_count as f64 / netlist.len() as f64,
        before,
        after,
        delay_before_ps: delay_before.as_pico(),
        delay_after_ps: timing.critical_delay().as_pico(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup(clock_factor: f64) -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(19));
        let ctx = TimingContext::for_node(TechNode::N70).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * clock_factor))
    }

    #[test]
    fn leakage_saving_is_in_the_40_to_80_percent_band() {
        let (mut nl, ctx) = setup(1.15);
        let r = assign_dual_vth(&mut nl, &ctx, 0.1, None).unwrap();
        let s = r.leakage_saving();
        assert!((0.40..=0.92).contains(&s), "saving {:.0}%", s * 100.0);
    }

    #[test]
    fn delay_penalty_is_minimal() {
        // "minimal penalty in critical path delay": the clock is met by
        // construction; the critical path may stretch into its slack but
        // never beyond the period.
        let (mut nl, ctx) = setup(1.15);
        let r = assign_dual_vth(&mut nl, &ctx, 0.1, None).unwrap();
        assert!(r.delay_after_ps <= ctx.clock_period.as_pico() * 1.0001);
        assert!(
            r.delay_penalty() < 0.16,
            "penalty {:.1}%",
            r.delay_penalty() * 100.0
        );
    }

    #[test]
    fn dynamic_power_is_untouched() {
        let (mut nl, ctx) = setup(1.15);
        let r = assign_dual_vth(&mut nl, &ctx, 0.1, None).unwrap();
        assert!((r.after.dynamic.0 / r.before.dynamic.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_slack_means_more_high_vth_gates() {
        let (mut tight_nl, tight_ctx) = setup(1.02);
        let tight = assign_dual_vth(&mut tight_nl, &tight_ctx, 0.1, None).unwrap();
        let (mut loose_nl, loose_ctx) = setup(1.5);
        let loose = assign_dual_vth(&mut loose_nl, &loose_ctx, 0.1, None).unwrap();
        assert!(loose.fraction_high > tight.fraction_high);
    }

    #[test]
    fn infeasible_design_rejected() {
        let (mut nl, ctx) = setup(0.6);
        assert!(matches!(
            assign_dual_vth(&mut nl, &ctx, 0.1, None),
            Err(OptError::TimingInfeasible { .. })
        ));
    }

    #[test]
    fn bad_activity_rejected() {
        let (mut nl, ctx) = setup(1.2);
        assert!(matches!(
            assign_dual_vth(&mut nl, &ctx, 2.0, None),
            Err(OptError::BadParameter(_))
        ));
    }
}
