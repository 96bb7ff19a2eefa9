//! Post-synthesis transistor re-sizing, and why it is the wrong first tool
//! (Section 3.3).
//!
//! "If … slack distributions demonstrate a large number of paths with
//! significant slack, the current approach is to down size the
//! corresponding cells … This approach provides a sublinear reduction in
//! power with respect to the size reduction (sublinear since interconnect
//! capacitance will not scale down and represents a constant factor in the
//! total capacitance). Instead of such re-sizing efforts, a lower supply
//! voltage could be used, providing a quadratic drop in power."

use crate::error::OptError;
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
use np_circuit::power::{netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_units::Hertz;

/// Minimum drive the down-sizer will go to.
pub const MIN_DRIVE: f64 = 0.5;

/// Sizing step applied per accepted move (geometric).
pub const SIZING_STEP: f64 = 0.7;

/// Result of a down-sizing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingResult {
    /// Gates whose drive was reduced.
    pub resized_count: usize,
    /// Mean drive reduction over resized gates (1.0 − new/old averaged).
    pub mean_size_reduction: f64,
    /// Aggregate gate-capacitance reduction (what sizing actually shrank).
    pub gate_cap_reduction: f64,
    /// Power before.
    pub before: PowerReport,
    /// Power after.
    pub after: PowerReport,
}

impl SizingResult {
    /// Fractional dynamic-power saving.
    pub fn dynamic_saving(&self) -> f64 {
        1.0 - self.after.dynamic / self.before.dynamic
    }
}

/// Greedy down-sizing: gates are visited most-slack-first and stepped down
/// by [`SIZING_STEP`] while timing holds.
///
/// # Errors
///
/// [`OptError::TimingInfeasible`] on designs that miss timing before
/// sizing; propagates substrate errors.
pub fn downsize(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    activity: f64,
    frequency: Option<Hertz>,
) -> Result<SizingResult, OptError> {
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
    let gate_cap_before = total_gate_cap(netlist, ctx);
    let original: Vec<f64> = netlist.ids().map(|id| netlist.drive(id)).collect();
    let mut order: Vec<GateId> = netlist.ids().collect();
    order.sort_by(|a, b| {
        baseline.slack[b.index()]
            .0
            .total_cmp(&baseline.slack[a.index()].0)
    });
    // Multiple passes: shrinking one gate frees slack elsewhere.
    let mut sta = IncrementalSta::new(ctx, netlist);
    for _ in 0..3 {
        let mut changed = false;
        for &id in &order {
            let current = netlist.drive(id);
            let next = (current * SIZING_STEP).max(MIN_DRIVE);
            if next >= current {
                continue;
            }
            netlist.gate_mut(id).set_drive(next);
            sta.reevaluate(netlist, id)?;
            if sta.is_feasible() {
                changed = true;
            } else {
                netlist.gate_mut(id).set_drive(current);
                sta.reevaluate(netlist, id)?;
            }
        }
        if !changed {
            break;
        }
    }
    let after = netlist_power(netlist, ctx, activity, freq)?;
    let gate_cap_after = total_gate_cap(netlist, ctx);
    let mut resized = 0usize;
    let mut reduction_sum = 0.0;
    for (i, id) in netlist.ids().enumerate() {
        let now = netlist.drive(id);
        if now < original[i] {
            resized += 1;
            reduction_sum += 1.0 - now / original[i];
        }
    }
    Ok(SizingResult {
        resized_count: resized,
        mean_size_reduction: if resized > 0 {
            reduction_sum / resized as f64
        } else {
            0.0
        },
        gate_cap_reduction: 1.0 - gate_cap_after / gate_cap_before,
        before,
        after,
    })
}

fn total_gate_cap(netlist: &Netlist, ctx: &TimingContext) -> f64 {
    netlist
        .ids()
        .map(|id| {
            let g = netlist.gate(id);
            ctx.input_cap(g.kind, g.drive).0
        })
        .sum()
}

/// The Section 3.3 comparison: dynamic saving from down-sizing versus the
/// quadratic saving a global supply reduction of the *same delay cost*
/// would deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeVsVdd {
    /// Saving achieved by sizing alone.
    pub sizing_saving: f64,
    /// Gate-capacitance reduction the sizing needed.
    pub cap_reduction: f64,
    /// Saving a supply reduction to `vdd_ratio × Vdd` delivers
    /// (quadratic).
    pub vdd_saving: f64,
    /// The supply ratio used for the comparison.
    pub vdd_ratio: f64,
}

impl ResizeVsVdd {
    /// Dynamic saving per unit of the sizing knob (gate capacitance given
    /// up). Sublinear: always below 1 because wire capacitance stays.
    pub fn sizing_efficiency(&self) -> f64 {
        if self.cap_reduction <= 0.0 {
            return 0.0;
        }
        self.sizing_saving / self.cap_reduction
    }

    /// Dynamic saving per unit of the supply knob (fractional voltage
    /// reduction). Quadratic: `(1 − r²)/(1 − r) = 1 + r`, approaching 2.
    pub fn vdd_efficiency(&self) -> f64 {
        1.0 + self.vdd_ratio
    }
}

/// Compares sizing against an equivalent supply reduction: the supply is
/// lowered until the critical delay grows as much as sizing allowed
/// (i.e., to the clock), giving `vdd_saving = 1 − ratio²`.
pub fn sizing_vs_vdd(sizing: &SizingResult, vdd_ratio: f64) -> ResizeVsVdd {
    ResizeVsVdd {
        sizing_saving: sizing.dynamic_saving(),
        cap_reduction: sizing.gate_cap_reduction,
        vdd_saving: 1.0 - vdd_ratio * vdd_ratio,
        vdd_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup(clock_factor: f64) -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(55));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * clock_factor))
    }

    #[test]
    fn downsizing_saves_power_and_keeps_timing() {
        let (mut nl, ctx) = setup(1.3);
        let r = downsize(&mut nl, &ctx, 0.1, None).unwrap();
        assert!(r.resized_count > nl.len() / 4);
        assert!(
            r.dynamic_saving() > 0.02,
            "saving {:.1}%",
            r.dynamic_saving() * 100.0
        );
        assert!(ctx.analyze(&nl).unwrap().is_feasible());
    }

    #[test]
    fn saving_is_sublinear_in_cap_reduction() {
        // The Section 3.3 point: wire capacitance does not shrink, so the
        // dynamic saving is a fraction of the gate-cap reduction.
        let (mut nl, ctx) = setup(1.3);
        let r = downsize(&mut nl, &ctx, 0.1, None).unwrap();
        assert!(r.gate_cap_reduction > 0.1);
        let ratio = r.dynamic_saving() / r.gate_cap_reduction;
        assert!(
            ratio < 0.95,
            "saving per cap reduction {ratio:.2} should be sublinear"
        );
    }

    #[test]
    fn vdd_knob_is_quadratic_while_sizing_is_sublinear() {
        // Section 3.3: per unit of reduction "knob", lowering Vdd returns
        // nearly 2x (quadratic), while sizing returns under 1x (the wire
        // capacitance floor).
        let (mut nl, ctx) = setup(1.3);
        let r = downsize(&mut nl, &ctx, 0.1, None).unwrap();
        let cmp = sizing_vs_vdd(&r, 0.8);
        assert!((cmp.vdd_saving - 0.36).abs() < 1e-12);
        assert!(cmp.sizing_efficiency() < 1.0, "{cmp:?}");
        assert!(cmp.vdd_efficiency() > 1.5, "{cmp:?}");
        assert!(
            cmp.vdd_efficiency() > 2.0 * cmp.sizing_efficiency(),
            "{cmp:?}"
        );
    }

    #[test]
    fn tight_design_resizes_little() {
        let (mut nl_t, ctx_t) = setup(1.01);
        let tight = downsize(&mut nl_t, &ctx_t, 0.1, None).unwrap();
        let (mut nl_l, ctx_l) = setup(1.5);
        let loose = downsize(&mut nl_l, &ctx_l, 0.1, None).unwrap();
        assert!(tight.gate_cap_reduction < loose.gate_cap_reduction);
    }

    #[test]
    fn infeasible_rejected() {
        let (mut nl, ctx) = setup(0.5);
        assert!(matches!(
            downsize(&mut nl, &ctx, 0.1, None),
            Err(OptError::TimingInfeasible { .. })
        ));
    }
}
