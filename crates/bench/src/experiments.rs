//! The numbered experiments E1–E7 of DESIGN.md §5 — the paper's
//! quantitative claims that are not tables or figures.

use nanopower::chip::{Chip, ThermalClosure};
use nanopower::report::{fmt_sig, TextTable};
use nanopower::Error;
use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::sta::TimingContext;
use np_device::mtcmos::MtcmosBlock;
use np_device::stack::SubthresholdStack;
use np_device::substrate::{BodyBias, Substrate};
use np_device::Mosfet;
use np_grid::mcml::LogicStyleComparison;
use np_grid::transient::WakeUpEvent;
use np_interconnect::chip::{global_signaling_report, GlobalSignalingReport};
use np_interconnect::elmore::RcLine;
use np_interconnect::inductance::{coupled_noise, twisted_differential_residue};
use np_interconnect::lowswing::LowSwingLink;
use np_interconnect::wire::WireGeometry;
use np_opt::cellgen::{compare_regimes, MappingResult};
use np_opt::cvs::{cluster_voltage_scale, CvsOptions, CvsResult};
use np_opt::dualvth::{assign_dual_vth, DualVthResult};
use np_opt::sizing::{downsize, sizing_vs_vdd, ResizeVsVdd};
use np_roadmap::{PackagingRoadmap, TechNode};
use np_thermal::cost::cooling_cost_dollars;
use np_thermal::subambient::SubAmbientReport;
use np_thermal::ThermalError;
use np_units::{Celsius, Farads, Hertz, Microns, Seconds, Volts, Watts};

/// Default netlist size for the optimization experiments (kept modest so
/// Criterion can run them repeatedly).
pub fn experiment_netlist(seed: u64) -> np_circuit::Netlist {
    generate_netlist(&NetlistSpec::small(seed))
}

/// A timing context for `node` with the clock relaxed by `factor` over
/// the netlist's critical delay.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn relaxed_context(
    node: TechNode,
    netlist: &np_circuit::Netlist,
    factor: f64,
) -> Result<TimingContext, Error> {
    let ctx = TimingContext::for_node(node)?;
    let crit = ctx.critical_delay(netlist);
    Ok(ctx.with_clock(crit * factor))
}

// ---------------------------------------------------------------------
// E1 — thermal management & packaging headroom (Section 2.1)
// ---------------------------------------------------------------------

/// E1 report: per-node thermal closure plus the cooling-cost step anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmReport {
    /// Closure at each nanometer node.
    pub closures: Vec<ThermalClosure>,
    /// The 65 → 75 W cost-step ratio (the paper's "triple").
    pub cost_step_ratio: f64,
}

/// Runs E1.
///
/// # Errors
///
/// Propagates thermal errors.
pub fn e1_dtm() -> Result<DtmReport, Error> {
    let mut closures = Vec::new();
    for node in TechNode::NANOMETER {
        closures.push(Chip::at_node(node).thermal_closure()?);
    }
    let cost_step_ratio = cooling_cost_dollars(Watts(75.0)) / cooling_cost_dollars(Watts(65.0));
    Ok(DtmReport {
        closures,
        cost_step_ratio,
    })
}

impl DtmReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("E1. Dynamic thermal management headroom.\n");
        for c in &self.closures {
            out.push_str(&format!("{c}\n"));
        }
        out.push_str(&format!(
            "cooling cost 65 W -> 75 W rises {:.1}X (paper: triples)\n",
            self.cost_step_ratio
        ));
        out
    }
}

// ---------------------------------------------------------------------
// E2 — global signaling (Section 2.2)
// ---------------------------------------------------------------------

/// E2 report: signaling comparison per node.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalingReport {
    /// One report per node.
    pub rows: Vec<GlobalSignalingReport>,
}

/// Runs E2.
///
/// # Errors
///
/// Propagates interconnect errors.
pub fn e2_signaling() -> Result<SignalingReport, Error> {
    let rows = TechNode::ALL
        .iter()
        .map(|&n| global_signaling_report(n))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SignalingReport { rows })
}

impl SignalingReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out =
            String::from("E2. Global signaling: repeated full-swing vs low-swing differential.\n");
        for r in &self.rows {
            out.push_str(&format!("{r}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------
// E3 — CVS multi-Vdd (Section 2.4)
// ---------------------------------------------------------------------

/// E3 report: CVS savings across the `Vdd,l/Vdd,h` ratio sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CvsReport {
    /// `(ratio, result)` per swept ratio.
    pub sweep: Vec<(f64, CvsResult)>,
}

/// Runs E3 on a relaxed synthetic netlist at 100 nm, sweeping the low
/// supply ratio — "Vdd,l should be around 0.6 to 0.7 times Vdd,h to
/// maximize power savings".
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn e3_cvs() -> Result<CvsReport, Error> {
    let node = TechNode::N100;
    let mut sweep = Vec::new();
    for ratio in [0.5, 0.6, 0.65, 0.7, 0.8] {
        let mut nl = experiment_netlist(101);
        let base = TimingContext::for_node(node)?;
        let crit = base.analyze(&nl).unwrap().critical_delay();
        let p = node.params();
        let ctx = TimingContext::with_supplies(
            node,
            p.vdd,
            p.vdd * ratio,
            np_circuit::sta::DEFAULT_VTH_OFFSET,
        )?
        .with_clock(crit * 1.1);
        let r = cluster_voltage_scale(&mut nl, &ctx, &CvsOptions::default())?;
        sweep.push((ratio, r));
    }
    Ok(CvsReport { sweep })
}

impl CvsReport {
    /// The ratio with the best dynamic saving.
    pub fn best_ratio(&self) -> f64 {
        self.sweep
            .iter()
            .max_by(|a, b| {
                a.1.dynamic_saving()
                    .partial_cmp(&b.1.dynamic_saving())
                    .expect("finite")
            })
            .map(|(r, _)| *r)
            .expect("non-empty sweep")
    }

    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "Vdd,l / Vdd,h",
            "gates low (%)",
            "converters",
            "dyn saving (%)",
        ]);
        for (ratio, r) in &self.sweep {
            t.row(&[
                &format!("{ratio:.2}"),
                &format!("{:.0}", r.fraction_low * 100.0),
                &format!("{}", r.converters),
                &format!("{:.0}", r.dynamic_saving() * 100.0),
            ]);
        }
        format!(
            "E3. Clustered voltage scaling (best ratio {:.2}; paper: 0.6-0.7, 45-50%).\n{}",
            self.best_ratio(),
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// E4 — dual-Vth assignment (Section 3.2.2)
// ---------------------------------------------------------------------

/// E4 report: dual-Vth savings at several timing-pressure levels.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthReport {
    /// `(clock relaxation factor, result)` rows.
    pub rows: Vec<(f64, DualVthResult)>,
}

/// Runs E4 at 70 nm for tight, nominal, and relaxed clocks on the default
/// (control-logic-like) netlist, plus a depth-balanced datapath-like
/// netlist at the tight clock — the profile closest to the industrial
/// designs behind the paper's 40–80 % band.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn e4_dualvth() -> Result<DualVthReport, Error> {
    let node = TechNode::N70;
    let mut rows = Vec::new();
    for factor in [1.05, 1.15, 1.4] {
        let mut nl = experiment_netlist(202);
        let ctx = relaxed_context(node, &nl, factor)?;
        rows.push((factor, assign_dual_vth(&mut nl, &ctx, 0.1, None)?));
    }
    // Datapath-like profile at a fully compressed clock (industrial
    // designs run at ~zero margin), keyed as factor 1.0 in the report.
    let mut nl = generate_netlist(&NetlistSpec::balanced(202));
    let ctx = relaxed_context(node, &nl, 1.005)?;
    rows.push((1.0, assign_dual_vth(&mut nl, &ctx, 0.1, None)?));
    Ok(DualVthReport { rows })
}

impl DualVthReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "clock / critical",
            "gates high-Vth (%)",
            "leakage saving (%)",
            "delay penalty (%)",
        ]);
        for (f, r) in &self.rows {
            let label = if *f == 1.0 {
                "1.005 (datapath)".to_string()
            } else {
                format!("{f:.2}")
            };
            t.row(&[
                &label,
                &format!("{:.0}", r.fraction_high * 100.0),
                &format!("{:.0}", r.leakage_saving() * 100.0),
                &format!("{:.1}", r.delay_penalty() * 100.0),
            ]);
        }
        format!(
            "E4. Dual-Vth assignment (paper: 40-80% leakage saving).\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// E5 — re-sizing vs supply reduction (Section 3.3)
// ---------------------------------------------------------------------

/// E5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeReport {
    /// The sizing run and its comparison against the Vdd knob.
    pub comparison: ResizeVsVdd,
    /// Gates resized.
    pub resized: usize,
}

/// Runs E5 at 100 nm with a 1.3× relaxed clock.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn e5_resize() -> Result<ResizeReport, Error> {
    let mut nl = experiment_netlist(303);
    let ctx = relaxed_context(TechNode::N100, &nl, 1.3)?;
    let sizing = downsize(&mut nl, &ctx, 0.1, None)?;
    let comparison = sizing_vs_vdd(&sizing, 0.8);
    Ok(ResizeReport {
        comparison,
        resized: sizing.resized_count,
    })
}

impl ResizeReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        format!(
            "E5. Re-sizing is sublinear, Vdd is quadratic.\n\
             sizing: {} gates resized, saving {:.0}% for {:.0}% gate-cap given up (efficiency {:.2})\n\
             supply: {:.0}% saving per {:.0}% voltage reduction (efficiency {:.2})\n",
            self.resized,
            self.comparison.sizing_saving * 100.0,
            self.comparison.cap_reduction * 100.0,
            self.comparison.sizing_efficiency(),
            self.comparison.vdd_saving * 100.0,
            (1.0 - self.comparison.vdd_ratio) * 100.0,
            self.comparison.vdd_efficiency(),
        )
    }
}

// ---------------------------------------------------------------------
// E6 — bump current limits, wake-up transients, MCML (Section 4)
// ---------------------------------------------------------------------

/// E6 report.
#[derive(Debug, Clone, PartialEq)]
pub struct GridLimitsReport {
    /// Per-Vdd-bump current under ITRS pads at 35 nm, amperes.
    pub itrs_current_per_bump: f64,
    /// The per-bump limit, amperes.
    pub bump_limit: f64,
    /// Wake-up noise `(ITRS bumps, min-pitch bumps)` in volts for a
    /// 100 ns sleep exit at 35 nm.
    pub wake_noise: (f64, f64),
    /// MCML-vs-CMOS crossover activity for a 35 nm datapath gate.
    pub mcml_crossover: f64,
    /// MCML transient suppression factor.
    pub mcml_transient_suppression: f64,
}

/// Runs E6.
///
/// # Errors
///
/// Propagates grid errors.
pub fn e6_grid_limits() -> Result<GridLimitsReport, Error> {
    let node = TechNode::N35;
    let pkg = PackagingRoadmap::for_node(node);
    let wake = WakeUpEvent::for_node(node, Seconds::from_nano(100.0));
    let (itrs, min_pitch) = wake.noise_comparison(node)?;
    let mcml = LogicStyleComparison::matched(
        Farads::from_femto(20.0),
        node.params().vdd,
        Hertz(node.params().local_clock.0),
    )?;
    Ok(GridLimitsReport {
        itrs_current_per_bump: pkg.itrs_current_per_vdd_bump().0,
        bump_limit: pkg.bump_current_limit.0,
        wake_noise: (itrs.0, min_pitch.0),
        mcml_crossover: mcml.crossover_activity(),
        mcml_transient_suppression: mcml.cmos_current_transient().0
            / mcml.mcml_current_transient().0,
    })
}

impl GridLimitsReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        format!(
            "E6. Power-delivery limits at 35 nm.\n\
             ITRS bumps: {:.0} mA per Vdd bump vs {:.0} mA limit ({})\n\
             wake-up (100 ns): {} mV noise with ITRS bumps, {} mV at min pitch\n\
             MCML: beats CMOS above activity {:.2}; current transients {:.0}X smaller\n",
            self.itrs_current_per_bump * 1e3,
            self.bump_limit * 1e3,
            if self.itrs_current_per_bump > self.bump_limit {
                "INCOMPATIBLE"
            } else {
                "ok"
            },
            fmt_sig(self.wake_noise.0 * 1e3),
            fmt_sig(self.wake_noise.1 * 1e3),
            self.mcml_crossover,
            self.mcml_transient_suppression,
        )
    }
}

// ---------------------------------------------------------------------
// E7 — library granularity (Section 2.3)
// ---------------------------------------------------------------------

/// E7 report.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryReport {
    /// Coarse / rich / generated mappings of one netlist.
    pub regimes: [MappingResult; 3],
}

/// Runs E7 at 180 nm (the SA-27E node).
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn e7_library() -> Result<LibraryReport, Error> {
    let nl = experiment_netlist(404);
    let ctx = relaxed_context(TechNode::N180, &nl, 1.2)?;
    Ok(LibraryReport {
        regimes: compare_regimes(&nl, &ctx, 0.1)?,
    })
}

impl LibraryReport {
    /// Power saving of generated cells over the rich library.
    pub fn generated_saving(&self) -> f64 {
        1.0 - self.regimes[2].power.total() / self.regimes[1].power.total()
    }

    /// Power penalty of the coarse library over the rich one.
    pub fn coarse_penalty(&self) -> f64 {
        self.regimes[0].power.total() / self.regimes[1].power.total() - 1.0
    }

    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["regime", "mean drive", "total power (uW)"]);
        for r in &self.regimes {
            t.row(&[
                &format!("{}", r.regime),
                &format!("{:.2}", r.mean_drive),
                &fmt_sig(r.power.total().as_micro()),
            ]);
        }
        format!(
            "E7. Library granularity (paper: on-the-fly cells save 15-22%).\n{}\
             coarse penalty +{:.0}%, generated saving {:.0}%\n",
            t.render(),
            self.coarse_penalty() * 100.0,
            self.generated_saving() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_headroom_and_cost_step() {
        let r = e1_dtm().unwrap();
        assert_eq!(r.closures.len(), 3);
        for c in &r.closures {
            assert!((c.headroom - 1.0 / 3.0).abs() < 1e-9);
        }
        assert!(
            (r.cost_step_ratio - 3.0).abs() < 0.1,
            "got {}",
            r.cost_step_ratio
        );
        assert!(r.render().contains("E1"));
    }

    #[test]
    fn e2_repeater_proliferation() {
        let r = e2_signaling().unwrap();
        let c180 = r.rows[0].repeater_count;
        let c50 = r.rows[TechNode::N50.index()].repeater_count;
        assert!(c50 > 20 * c180);
        assert!(r.render().contains("E2"));
    }

    #[test]
    fn e3_best_ratio_is_0_6_to_0_7() {
        let r = e3_cvs().unwrap();
        let best = r.best_ratio();
        assert!((0.5..=0.75).contains(&best), "best ratio {best}");
        let best_saving = r
            .sweep
            .iter()
            .map(|(_, c)| c.dynamic_saving())
            .fold(0.0f64, f64::max);
        assert!((0.25..=0.65).contains(&best_saving), "saving {best_saving}");
        assert!(r.render().contains("E3"));
    }

    #[test]
    fn e4_band_matches_paper() {
        let r = e4_dualvth().unwrap();
        let relaxed = &r.rows[2].1;
        let s = relaxed.leakage_saving();
        assert!((0.40..=0.95).contains(&s), "saving {s}");
        assert!(r.render().contains("E4"));
    }

    #[test]
    fn e5_efficiencies() {
        let r = e5_resize().unwrap();
        assert!(r.comparison.sizing_efficiency() < 1.0);
        assert!(r.comparison.vdd_efficiency() > 1.5);
        assert!(r.render().contains("E5"));
    }

    #[test]
    fn e6_limits() {
        let r = e6_grid_limits().unwrap();
        assert!(r.itrs_current_per_bump > r.bump_limit);
        assert!(r.wake_noise.1 < r.wake_noise.0);
        assert!(r.mcml_crossover < 1.0);
        assert!(r.mcml_transient_suppression > 10.0);
        assert!(r.render().contains("INCOMPATIBLE"));
    }

    #[test]
    fn e7_generated_cells_save() {
        let r = e7_library().unwrap();
        assert!(r.generated_saving() > 0.03);
        assert!(r.coarse_penalty() > 0.1);
        assert!(r.render().contains("E7"));
    }
}

// ---------------------------------------------------------------------
// E8 — §3.2 standby-leakage technique comparison
// ---------------------------------------------------------------------

/// One leakage-control technique's scorecard at a node.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageTechnique {
    /// Technique name.
    pub name: &'static str,
    /// Standby-leakage reduction factor.
    pub standby_reduction: f64,
    /// Active-mode leakage reduction factor (1.0 = none).
    pub active_reduction: f64,
    /// Fractional area overhead.
    pub area_overhead: f64,
    /// Does the technique keep working at the end of the roadmap?
    pub scales: bool,
}

/// E8 report: the Section 3.2 technique menu, quantified at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageTechReport {
    /// The node evaluated.
    pub node: TechNode,
    /// One row per technique.
    pub rows: Vec<LeakageTechnique>,
}

/// Runs E8 at 70 nm: MTCMOS, reverse body bias, two-transistor stacks,
/// dual-Vth (its netlist-level saving comes from E4), and FD-SOI.
///
/// # Errors
///
/// Propagates device errors.
pub fn e8_leakage_techniques() -> Result<LeakageTechReport, Error> {
    let node = TechNode::N70;
    let dev = Mosfet::for_node(node)?;
    let vdd = node.params().vdd;
    let mut rows = Vec::new();

    let mtcmos = MtcmosBlock::new(dev.clone(), Microns(10_000.0), 0.1)?;
    rows.push(LeakageTechnique {
        name: "MTCMOS sleep transistor",
        standby_reduction: mtcmos.standby_reduction(),
        active_reduction: 1.0, // "no leakage reduction in active mode"
        area_overhead: mtcmos.area_overhead(),
        scales: true,
    });

    let bias = BodyBias::for_node(node);
    rows.push(LeakageTechnique {
        name: "reverse body bias",
        standby_reduction: bias.standby_leakage_reduction(dev.subthreshold_swing()),
        active_reduction: 1.0,
        area_overhead: 0.02, // bias generation and wells
        scales: false,       // "less effective at controlling Vth in scaled devices"
    });

    let stack = SubthresholdStack::uniform(&dev, 2);
    rows.push(LeakageTechnique {
        name: "two-transistor stacks",
        standby_reduction: stack.suppression_factor(vdd)?,
        active_reduction: stack.suppression_factor(vdd)?, // state-dependent, both modes
        area_overhead: 0.10,
        scales: true,
    });

    let high = dev.with_vth(dev.vth + Volts(0.1));
    rows.push(LeakageTechnique {
        name: "dual-Vth insertion",
        standby_reduction: dev.ioff() / high.ioff(),
        active_reduction: dev.ioff() / high.ioff(),
        area_overhead: 0.0, // an extra implant mask, no layout cost
        scales: true,       // Fig. 2's argument
    });

    let soi = dev.with_substrate(Substrate::FdSoi);
    rows.push(LeakageTechnique {
        name: "FD-SOI substrate",
        standby_reduction: dev.ioff() / soi.ioff(),
        active_reduction: dev.ioff() / soi.ioff(),
        area_overhead: 0.0,
        scales: true,
    });

    Ok(LeakageTechReport { node, rows })
}

impl LeakageTechReport {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["technique", "standby /X", "active /X", "area +%", "scales?"]);
        for r in &self.rows {
            t.row(&[
                r.name,
                &fmt_sig(r.standby_reduction),
                &fmt_sig(r.active_reduction),
                &format!("{:.0}", r.area_overhead * 100.0),
                if r.scales { "yes" } else { "NO" },
            ]);
        }
        format!(
            "E8. Standby-leakage techniques at {} (Section 3.2).\n{}",
            self.node,
            t.render()
        )
    }
}

// ---------------------------------------------------------------------
// E9 — §2.2 inductive signal integrity
// ---------------------------------------------------------------------

/// E9 report: shield-vs-differential inductive noise at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct InductiveNoiseReport {
    /// Node evaluated.
    pub node: TechNode,
    /// Noise on a shielded single-ended victim, volts.
    pub shielded_noise: f64,
    /// Residual on a twisted differential pair, volts.
    pub differential_noise: f64,
    /// The low-swing signal amplitude the noise competes with, volts.
    pub swing: f64,
}

/// Runs E9 at 50 nm: a 5 mm coupled run, a repeater-scale aggressor
/// (~10 mA) slewing in an FO4-scale rise time, one shield track of
/// separation, and a twice-twisted differential victim.
///
/// # Errors
///
/// Propagates interconnect errors.
pub fn e9_inductive_noise() -> Result<InductiveNoiseReport, Error> {
    let node = TechNode::N50;
    let g = WireGeometry::top_level(node);
    let sep = Microns(2.0 * g.pitch().0);
    let len = Microns(5_000.0);
    let t_rise = Seconds::from_pico(30.0);
    let i_peak = 0.011;
    let shielded = coupled_noise(&g, sep, len, i_peak, t_rise)?;
    let differential = twisted_differential_residue(&g, sep, len, i_peak, t_rise, 2)?;
    let probe = RcLine::new(g, Microns(10_000.0))?;
    let link = LowSwingLink::new(probe, node.params().vdd)?;
    Ok(InductiveNoiseReport {
        node,
        shielded_noise: shielded.0,
        differential_noise: differential.0,
        swing: link.swing.0,
    })
}

impl InductiveNoiseReport {
    /// Rejection factor of the differential pair over the shielded wire.
    pub fn rejection(&self) -> f64 {
        self.shielded_noise / self.differential_noise
    }

    /// Plain-text rendering.
    pub fn render(&self) -> String {
        format!(
            "E9. Inductive noise at {} (5 mm coupled run, one shield track).\n\
             shielded single-ended victim: {:.1} mV\n\
             differential-pair residue:    {:.1} mV  ({:.1}x rejection)\n\
             low-swing amplitude:          {:.1} mV\n\
             Reading: the shield leaves mV-scale magnetic noise against a {:.0} mV\n\
             swing; the differential receiver cancels most of it (Section 2.2).\n",
            self.node,
            self.shielded_noise * 1e3,
            self.differential_noise * 1e3,
            self.rejection(),
            self.swing * 1e3,
            self.swing * 1e3,
        )
    }
}

// ---------------------------------------------------------------------
// E10 — §2.1 sub-ambient cooling
// ---------------------------------------------------------------------

/// E10 report: cooled operation at two set points.
#[derive(Debug, Clone, PartialEq)]
pub struct SubAmbientSweep {
    /// Reports at each cold set point.
    pub points: Vec<SubAmbientReport>,
}

/// Runs E10 at 70 nm for 0 °C and −40 °C set points.
///
/// # Errors
///
/// Propagates thermal errors.
pub fn e10_subambient() -> Result<SubAmbientSweep, Error> {
    let dev = Mosfet::for_node(TechNode::N70)
        .map_err(|_| ThermalError::BadParameter("device calibration failed"))?;
    let p = TechNode::N70.params().max_power;
    let points = [0.0, -40.0]
        .into_iter()
        .map(|t| SubAmbientReport::evaluate(&dev, Celsius(85.0), Celsius(t), p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SubAmbientSweep { points })
}

impl SubAmbientSweep {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("E10. Sub-ambient operation at 70 nm (Section 2.1, ref [5]).\n");
        for p in &self.points {
            out.push_str(&format!("{p}\n"));
        }
        out.push_str(
            "Reading: real gains, but at vapor-compression prices — the paper\n\
             expects heatsinks plus DTM to win for desktops.\n",
        );
        out
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn e8_menu_matches_the_papers_qualitative_table() {
        let r = e8_leakage_techniques().unwrap();
        assert_eq!(r.rows.len(), 5);
        let by_name = |n: &str| r.rows.iter().find(|t| t.name.contains(n)).unwrap();
        // MTCMOS: huge standby saving, nothing in active mode.
        let mt = by_name("MTCMOS");
        assert!(mt.standby_reduction > 100.0);
        assert_eq!(mt.active_reduction, 1.0);
        assert!(mt.area_overhead > 0.05);
        // Body bias does not scale.
        assert!(!by_name("body bias").scales);
        // Dual-Vth and SOI work in both modes.
        assert!(by_name("dual-Vth").active_reduction > 10.0);
        assert!(by_name("FD-SOI").standby_reduction > 1.5);
        assert!(r.render().contains("E8"));
    }

    #[test]
    fn e9_differential_rejects_inductive_noise() {
        let r = e9_inductive_noise().unwrap();
        assert!(r.rejection() > 5.0, "rejection {:.1}", r.rejection());
        // Shielding alone leaves noise comparable to the low swing...
        assert!(r.shielded_noise > 0.5 * r.swing);
        // ...while the twisted pair pushes it to a workable margin.
        assert!(r.differential_noise < 0.6 * r.swing);
        assert!(r.render().contains("E9"));
    }

    #[test]
    fn e10_quantifies_cooling_benefits() {
        let r = e10_subambient().unwrap();
        assert_eq!(r.points.len(), 2);
        assert!(r.points[1].drive_gain > r.points[0].drive_gain);
        assert!(r.points[1].leakage_reduction > 50.0);
        assert!(r.render().contains("E10"));
    }
}
