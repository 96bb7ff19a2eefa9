//! The Section 3.3 layered power flow on a synthetic netlist: clustered
//! voltage scaling, then re-sizing, then dual-Vth selection.
//!
//! Run with: `cargo run --example multi_vdd_optimization`

use nanopower::circuit::generate::{generate_netlist, NetlistSpec};
use nanopower::circuit::sta::TimingContext;
use nanopower::opt::combined::{optimize, CombinedOptions};
use nanopower::roadmap::TechNode;

fn main() -> Result<(), nanopower::Error> {
    let node = TechNode::N70;
    let mut netlist = generate_netlist(&NetlistSpec::medium(2001));
    println!(
        "Synthetic netlist: {} gates at {node}; clock relaxed 30% over critical.\n",
        netlist.len()
    );
    let ctx = TimingContext::for_node(node)?;
    let critical = ctx.analyze(&netlist)?.critical_delay();
    let ctx = ctx.with_clock(critical * 1.3);

    let result = optimize(&mut netlist, &ctx, &CombinedOptions::default())?;

    println!(
        "Stage 1 — CVS: {:.0}% of gates on Vdd,l ({} level converters), dynamic -{:.0}%",
        result.cvs.fraction_low * 100.0,
        result.cvs.converters,
        result.cvs.dynamic_saving() * 100.0
    );
    println!(
        "Stage 2 — sizing: {} gates downsized, further dynamic -{:.0}%",
        result.sizing.resized_count,
        result.sizing.dynamic_saving() * 100.0
    );
    println!(
        "Stage 3 — dual-Vth: {:.0}% of gates on high Vth, leakage -{:.0}%",
        result.dual_vth.fraction_high * 100.0,
        result.dual_vth.leakage_saving() * 100.0
    );
    println!("\n{result}");
    let timing = ctx.analyze(&netlist)?;
    println!(
        "Final timing: worst slack {:.1} ps against a {:.1} ps clock — {}",
        timing.worst_slack().as_pico(),
        timing.clock.as_pico(),
        if timing.is_feasible() {
            "met"
        } else {
            "VIOLATED"
        }
    );
    Ok(())
}
