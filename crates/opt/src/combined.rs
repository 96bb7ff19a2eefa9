//! The paper's layered power recipe (Section 3.3 / Conclusion 3):
//! "Non-critical gates are first assigned to a reduced Vdd, followed by
//! sizing and Vth selection to reduce power most efficiently."

use crate::cvs::{cluster_voltage_scale, CvsOptions, CvsResult};
use crate::dualvth::{assign_dual_vth, DualVthResult};
use crate::error::OptError;
use crate::sizing::{downsize, SizingResult};
use np_circuit::netlist::Netlist;
use np_circuit::power::{netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_units::Hertz;
use std::fmt;

/// Configuration of the combined optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedOptions {
    /// CVS configuration for the first stage.
    pub cvs: CvsOptions,
    /// Switching activity for the accounting.
    pub activity: f64,
    /// Clock frequency for the accounting; `None` = timing-context clock.
    pub frequency: Option<Hertz>,
}

impl Default for CombinedOptions {
    fn default() -> Self {
        Self {
            cvs: CvsOptions::default(),
            activity: 0.1,
            frequency: None,
        }
    }
}

/// Stage-by-stage outcome of the combined flow.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedResult {
    /// Power of the untouched design.
    pub baseline: PowerReport,
    /// CVS stage outcome.
    pub cvs: CvsResult,
    /// Sizing stage outcome.
    pub sizing: SizingResult,
    /// Dual-Vth stage outcome.
    pub dual_vth: DualVthResult,
    /// Power of the final design.
    pub final_power: PowerReport,
}

impl CombinedResult {
    /// Fractional total-power saving of the full flow.
    pub fn total_saving(&self) -> f64 {
        1.0 - self.final_power.total() / self.baseline.total()
    }

    /// Fractional dynamic saving of the full flow.
    pub fn dynamic_saving(&self) -> f64 {
        1.0 - self.final_power.dynamic / self.baseline.dynamic
    }

    /// Fractional leakage saving of the full flow.
    pub fn leakage_saving(&self) -> f64 {
        1.0 - self.final_power.leakage / self.baseline.leakage
    }
}

impl fmt::Display for CombinedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "combined flow: dynamic -{:.0}%, leakage -{:.0}%, total -{:.0}% ({} gates low-Vdd, {} converters)",
            self.dynamic_saving() * 100.0,
            self.leakage_saving() * 100.0,
            self.total_saving() * 100.0,
            self.cvs.low_count,
            self.cvs.converters,
        )
    }
}

/// Runs the full multi-Vdd + sizing + multi-Vth flow on the netlist in
/// place, in the paper's order.
///
/// # Errors
///
/// [`OptError::TimingInfeasible`] when the input design misses timing;
/// propagates stage errors.
pub fn optimize(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    options: &CombinedOptions,
) -> Result<CombinedResult, OptError> {
    let freq = options.frequency.unwrap_or(Hertz(1.0 / ctx.clock_period.0));
    let baseline = netlist_power(netlist, ctx, options.activity, freq)?;
    let mut cvs_opts = options.cvs;
    cvs_opts.activity = options.activity;
    cvs_opts.frequency = Some(freq);
    let cvs = cluster_voltage_scale(netlist, ctx, &cvs_opts)?;
    let sizing = downsize(netlist, ctx, options.activity, Some(freq))?;
    let dual_vth = assign_dual_vth(netlist, ctx, options.activity, Some(freq))?;
    let final_power = netlist_power(netlist, ctx, options.activity, freq)?;
    Ok(CombinedResult {
        baseline,
        cvs,
        sizing,
        dual_vth,
        final_power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup(clock_factor: f64) -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(77));
        let ctx = TimingContext::for_node(TechNode::N70).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * clock_factor))
    }

    #[test]
    fn full_flow_beats_each_single_stage() {
        let (mut nl, ctx) = setup(1.4);
        let full = optimize(&mut nl, &ctx, &CombinedOptions::default()).unwrap();
        let (mut nl2, ctx2) = setup(1.4);
        let cvs_only = cluster_voltage_scale(&mut nl2, &ctx2, &CvsOptions::default()).unwrap();
        let cvs_saving = 1.0 - cvs_only.after.total() / cvs_only.before.total();
        assert!(full.total_saving() > cvs_saving);
        assert!(full.leakage_saving() > 0.3);
        assert!(full.dynamic_saving() > 0.3);
    }

    #[test]
    fn final_design_meets_timing() {
        let (mut nl, ctx) = setup(1.4);
        let _ = optimize(&mut nl, &ctx, &CombinedOptions::default()).unwrap();
        assert!(ctx.analyze(&nl).unwrap().is_feasible());
    }

    #[test]
    fn cvs_first_order_is_respected() {
        // Section 3.3: re-sizing before CVS shrinks the low-Vdd cluster
        // ("more paths approach criticality; this makes the application of
        // multi-Vdd approaches less advantageous"). Verify our flow keeps
        // a large cluster, and that a sizing-first flow yields a smaller
        // one.
        let (mut nl, ctx) = setup(1.4);
        let ours = optimize(&mut nl, &ctx, &CombinedOptions::default()).unwrap();

        let (mut nl2, ctx2) = setup(1.4);
        let _ = downsize(&mut nl2, &ctx2, 0.1, None).unwrap();
        let after_sizing = cluster_voltage_scale(&mut nl2, &ctx2, &CvsOptions::default()).unwrap();
        assert!(
            ours.cvs.fraction_low >= after_sizing.fraction_low,
            "CVS-first {:.0}% vs sizing-first {:.0}%",
            ours.cvs.fraction_low * 100.0,
            after_sizing.fraction_low * 100.0
        );
    }

    #[test]
    fn display_summarizes_savings() {
        let (mut nl, ctx) = setup(1.3);
        let r = optimize(&mut nl, &ctx, &CombinedOptions::default()).unwrap();
        let s = format!("{r}");
        assert!(s.contains("dynamic"));
        assert!(s.contains("leakage"));
    }
}
