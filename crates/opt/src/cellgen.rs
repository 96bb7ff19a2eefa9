//! Library granularity and on-the-fly cell generation (Section 2.3,
//! experiment E7).
//!
//! Three library regimes for the same netlist and timing target:
//!
//! * **coarse** — smallest gates ≈10× minimum (the claim of \[15\]): every
//!   light load is overdriven, wasting power;
//! * **rich** — SA-27E-like granularity (16 inverter drives, …);
//! * **generated** — on-the-fly cells that match each load exactly
//!   (ref. \[17\], which reports 15–22 % power reductions at fixed timing).

use crate::error::OptError;
use np_circuit::library::Library;
use np_circuit::netlist::Netlist;
use np_circuit::power::{netlist_power, PowerReport};
use np_circuit::sta::TimingContext;
use np_units::Hertz;
use std::fmt;

/// Library regimes compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibraryRegime {
    /// Few drives, smallest ≈10× minimum.
    Coarse,
    /// Rich discrete drive set.
    Rich,
    /// Continuous, load-matched drives.
    Generated,
}

impl fmt::Display for LibraryRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryRegime::Coarse => write!(f, "coarse library"),
            LibraryRegime::Rich => write!(f, "rich library"),
            LibraryRegime::Generated => write!(f, "on-the-fly generated cells"),
        }
    }
}

/// Result of mapping one netlist under one library regime.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingResult {
    /// The regime mapped under.
    pub regime: LibraryRegime,
    /// Power after mapping.
    pub power: PowerReport,
    /// Mean drive strength over all gates.
    pub mean_drive: f64,
}

/// Maps the netlist's drives under a library regime: each gate gets the
/// drive needed for its load at electrical effort ≈4, rounded *up* to the
/// library's grid (coarse/rich) or taken exactly (generated).
///
/// Mapping iterates to a fixed point because a gate's load depends on its
/// fan-outs' drives.
///
/// # Errors
///
/// Propagates substrate errors; rejects bad accounting parameters.
pub fn map_with_regime(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    regime: LibraryRegime,
    activity: f64,
    frequency: Option<Hertz>,
) -> Result<MappingResult, OptError> {
    if !(activity > 0.0 && activity <= 1.0) {
        return Err(OptError::BadParameter("activity must be in (0, 1]"));
    }
    let freq = frequency.unwrap_or(Hertz(1.0 / ctx.clock_period.0));
    let library = match regime {
        LibraryRegime::Coarse => Some(Library::coarse(ctx.node)?),
        LibraryRegime::Rich => Some(Library::rich(ctx.node)?),
        LibraryRegime::Generated => None,
    };
    const H_TARGET: f64 = 4.0;
    for _ in 0..8 {
        let wanted: Vec<f64> = netlist
            .ids()
            .map(|id| {
                let g = netlist.gate(id);
                let load = ctx.load_of(netlist, id);
                (g.kind.logical_effort() * load.0
                    / (H_TARGET * ctx.unit_cap().0 * g.kind.logical_effort()))
                .max(0.05)
            })
            .collect();
        for (i, id) in netlist.ids().enumerate().collect::<Vec<_>>() {
            let kind = netlist.kind(id);
            let drive = match &library {
                Some(lib) => lib.nearest(kind, wanted[i])?.drive,
                None => wanted[i],
            };
            netlist.gate_mut(id).set_drive(drive);
        }
    }
    let power = netlist_power(netlist, ctx, activity, freq)?;
    let mean_drive = netlist.ids().map(|id| netlist.drive(id)).sum::<f64>() / netlist.len() as f64;
    Ok(MappingResult {
        regime,
        power,
        mean_drive,
    })
}

/// Runs all three regimes on copies of the netlist and returns them in
/// [`LibraryRegime`] declaration order.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn compare_regimes(
    netlist: &Netlist,
    ctx: &TimingContext,
    activity: f64,
) -> Result<[MappingResult; 3], OptError> {
    let mut coarse_nl = netlist.clone();
    let coarse = map_with_regime(&mut coarse_nl, ctx, LibraryRegime::Coarse, activity, None)?;
    let mut rich_nl = netlist.clone();
    let rich = map_with_regime(&mut rich_nl, ctx, LibraryRegime::Rich, activity, None)?;
    let mut gen_nl = netlist.clone();
    let generated = map_with_regime(&mut gen_nl, ctx, LibraryRegime::Generated, activity, None)?;
    Ok([coarse, rich, generated])
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup() -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(88));
        let ctx = TimingContext::for_node(TechNode::N180).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * 1.2))
    }

    #[test]
    fn coarse_library_overdrives_and_wastes_power() {
        let (nl, ctx) = setup();
        let [coarse, rich, _] = compare_regimes(&nl, &ctx, 0.1).unwrap();
        assert!(coarse.mean_drive > 2.0 * rich.mean_drive);
        assert!(
            coarse.power.total() > rich.power.total() * 1.1,
            "coarse {} vs rich {}",
            coarse.power.total(),
            rich.power.total()
        );
    }

    #[test]
    fn generated_cells_save_over_the_rich_library() {
        // Ref [17]: 15-22% power reduction at fixed timing; a band of
        // 3-35% over the rich library is accepted for the synthetic
        // netlist.
        let (nl, ctx) = setup();
        let [_, rich, generated] = compare_regimes(&nl, &ctx, 0.1).unwrap();
        let saving = 1.0 - generated.power.total() / rich.power.total();
        assert!(
            (0.03..=0.35).contains(&saving),
            "generated-vs-rich saving {:.1}%",
            saving * 100.0
        );
    }

    #[test]
    fn mapping_converges_to_stable_drives() {
        let (mut nl, ctx) = setup();
        let a = map_with_regime(&mut nl, &ctx, LibraryRegime::Generated, 0.1, None)
            .unwrap()
            .mean_drive;
        let b = map_with_regime(&mut nl, &ctx, LibraryRegime::Generated, 0.1, None)
            .unwrap()
            .mean_drive;
        assert!((a - b).abs() / a < 0.06, "fixed point: {a} vs {b}");
    }

    #[test]
    fn regime_display_names() {
        assert_eq!(format!("{}", LibraryRegime::Coarse), "coarse library");
        assert!(format!("{}", LibraryRegime::Generated).contains("on-the-fly"));
    }

    #[test]
    fn bad_activity_rejected() {
        let (mut nl, ctx) = setup();
        assert!(map_with_regime(&mut nl, &ctx, LibraryRegime::Rich, 0.0, None).is_err());
    }
}
