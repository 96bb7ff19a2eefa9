//! Incremental-vs-full STA equivalence over random edit sequences, and
//! the million-gate scaling acceptance checks.
//!
//! The incremental engine re-propagates only the rising part of a
//! changed gate's fan-out cone and settles deferred falls when a verdict
//! or a read needs them; these tests drive random multi-gate edit
//! sequences through it, hold each feasibility verdict to the
//! full-analysis oracle before anything settles, and hold the settled
//! arrival times to the oracle at 1e-12, at both the 1k and 100k cell
//! tiers.

use np_circuit::cell::{SupplyClass, VthClass};
use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
use np_circuit::sta::TimingContext;
use np_roadmap::TechNode;
use proptest::prelude::*;

/// Absolute arrival-time agreement demanded of the incremental engine
/// (seconds; arrivals are ~1e-9, so this is ~1e-3 of an LSB of slack).
const TOLERANCE: f64 = 1e-12;

fn ctx_for(netlist: &Netlist, clock_factor: f64) -> TimingContext {
    let ctx = TimingContext::for_node(TechNode::N100).expect("calibration");
    let crit = ctx.analyze(netlist).expect("analyze").critical_delay();
    ctx.with_clock(crit * clock_factor)
}

/// One random single-gate edit, decoded from a single proptest draw
/// (`edit / 1000` selects the move kind, `edit % 1000` the gate).
fn apply_edit(netlist: &mut Netlist, which: usize, pick: usize) -> GateId {
    let ids: Vec<GateId> = netlist.ids().collect();
    let id = ids[pick % ids.len()];
    let mut g = netlist.gate_mut(id);
    match which % 5 {
        0 => g.set_vth(VthClass::High),
        1 => g.set_vth(VthClass::Low),
        2 => g.set_supply(SupplyClass::Low),
        3 => g.set_supply(SupplyClass::High),
        _ => {
            let drive = netlist.gate(id).drive;
            netlist.gate_mut(id).set_drive((drive * 0.7).max(0.5));
        }
    }
    id
}

/// The verdict is checked first, as the update left it; the arrival
/// reads then settle any deferred falls.
fn assert_matches_oracle(netlist: &Netlist, ctx: &TimingContext, sta: &mut IncrementalSta<'_>) {
    let full = ctx.analyze(netlist).expect("oracle analyze");
    assert_eq!(
        sta.is_feasible(),
        full.is_feasible(),
        "feasibility verdicts diverged before settling"
    );
    for id in netlist.ids() {
        let inc = sta.arrival_of(netlist, id).expect("same topology").0;
        let exact = full.arrival[id.index()].0;
        assert!(
            (inc - exact).abs() <= TOLERANCE,
            "{id}: incremental {inc:e} vs full {exact:e}"
        );
    }
    assert_eq!(
        sta.is_feasible(),
        full.is_feasible(),
        "feasibility verdicts diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1k-cell tier: every edit in a random sequence is re-propagated
    /// incrementally and checked against a fresh full analysis.
    #[test]
    fn random_edit_sequences_match_full_sta_at_1k(
        seed in 0u64..200,
        edits in proptest::collection::vec(0usize..5_000, 5..25),
    ) {
        let mut netlist = generate_netlist(&NetlistSpec::large(seed, 1000));
        let ctx = ctx_for(&netlist, 1.2);
        let mut sta = IncrementalSta::new(&ctx, &netlist);
        for edit in edits {
            let id = apply_edit(&mut netlist, edit / 1000, edit % 1000);
            sta.reevaluate(&netlist, id).expect("same topology");
            assert_matches_oracle(&netlist, &ctx, &mut sta);
        }
    }

    /// Batch form: applying a whole group of edits then one batch
    /// re-propagation must agree with the oracle too.
    #[test]
    fn batched_edits_match_full_sta_at_1k(
        seed in 0u64..200,
        edits in proptest::collection::vec(0usize..5_000, 2..12),
    ) {
        let mut netlist = generate_netlist(&NetlistSpec::large(seed, 1000));
        let ctx = ctx_for(&netlist, 1.2);
        let mut sta = IncrementalSta::new(&ctx, &netlist);
        let changed: Vec<GateId> = edits
            .into_iter()
            .map(|edit| apply_edit(&mut netlist, edit / 1000, edit % 1000))
            .collect();
        sta.reevaluate_batch(&netlist, &changed).expect("same topology");
        assert_matches_oracle(&netlist, &ctx, &mut sta);
    }

    /// Optimizer-shaped, at a 1.00× clock where the revert path runs:
    /// each slowing move (high Vth, low supply, or a downsize; `move /
    /// 1000` selects the kind, `move % 1000` the gate) is re-timed, its
    /// verdict is checked against full STA with nothing read in between,
    /// and a miss is reverted and re-timed as the §3.3 accept loop does.
    /// The first move slows the least-slack gate, so it must miss. The
    /// settled arrivals are held to the oracle at the end.
    #[test]
    fn optimizer_shaped_accept_and_revert_match_full_sta_at_1k(
        seed in 0u64..200,
        moves in proptest::collection::vec(0usize..3_000, 10..40),
    ) {
        let mut netlist = generate_netlist(&NetlistSpec::large(seed, 1000));
        let ctx = ctx_for(&netlist, 1.0);
        let ids: Vec<GateId> = netlist.ids().collect();
        let report = ctx.analyze(&netlist).expect("analyze");
        let least_slack = ids
            .iter()
            .copied()
            .min_by(|a, b| report.slack_of(*a).0.total_cmp(&report.slack_of(*b).0))
            .expect("non-empty netlist");
        let mut sta = IncrementalSta::new(&ctx, &netlist);
        let mut reverted = 0;
        let first = std::iter::once((0, least_slack));
        let rest = moves.into_iter().map(|m| (m / 1000, ids[m % 1000]));
        for (kind, id) in first.chain(rest) {
            let (vth, supply, drive) = (netlist.vth(id), netlist.supply(id), netlist.drive(id));
            match kind {
                0 => netlist.gate_mut(id).set_vth(VthClass::High),
                1 => netlist.gate_mut(id).set_supply(SupplyClass::Low),
                _ => netlist.gate_mut(id).set_drive((drive * 0.7).max(0.5)),
            }
            sta.reevaluate(&netlist, id).expect("same topology");
            let full = ctx.analyze(&netlist).expect("oracle analyze");
            prop_assert_eq!(sta.is_feasible(), full.is_feasible(), "verdict at {}", id);
            if !sta.is_feasible() {
                netlist.gate_mut(id).set_vth(vth);
                netlist.gate_mut(id).set_supply(supply);
                netlist.gate_mut(id).set_drive(drive);
                sta.reevaluate(&netlist, id).expect("same topology");
                prop_assert!(sta.is_feasible(), "revert of {} left a violation", id);
                reverted += 1;
            }
        }
        prop_assert!(reverted > 0, "the revert path never ran");
        assert_matches_oracle(&netlist, &ctx, &mut sta);
    }
}

/// 100k-cell tier: a fixed-seed edit sequence with periodic oracle
/// checks (each full analysis is the expensive part; the incremental
/// updates are microseconds).
#[test]
fn random_edit_sequence_matches_full_sta_at_100k() {
    let mut netlist = generate_netlist(&NetlistSpec::large(9, 100_000));
    let ctx = ctx_for(&netlist, 1.2);
    let mut sta = IncrementalSta::new(&ctx, &netlist);
    let mut state = 0x3cf5_u64;
    for round in 0..20 {
        // xorshift: deterministic, dependency-free edit stream.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let id = apply_edit(
            &mut netlist,
            (state >> 32) as usize,
            state as usize % 100_000,
        );
        let cone = sta.reevaluate(&netlist, id).expect("same topology");
        assert!(
            cone.visited < 100_000 / 4,
            "cone {} should be a sliver of the netlist",
            cone.visited
        );
        if round % 5 == 4 {
            assert_matches_oracle(&netlist, &ctx, &mut sta);
        }
    }
}

/// The scaling acceptance check: a million-cell netlist streams in,
/// full-STAs, and incremental probes touch only their fan-out cones.
#[test]
fn million_gate_netlist_streams_analyzes_and_probes_in_small_cones() {
    const N: usize = 1_000_000;
    let netlist = generate_netlist(&NetlistSpec::large(3, N));
    assert_eq!(netlist.len(), N);
    let ctx = ctx_for(&netlist, 1.2);
    let mut probe_netlist = netlist.clone();
    let mut sta = IncrementalSta::new(&ctx, &netlist);
    assert!(sta.is_feasible());
    let mut total_visited = 0usize;
    let probes = 25usize;
    for k in 0..probes {
        let id = GateId::from_index(k * (N / probes) + N / (2 * probes));
        let flipped = match probe_netlist.gate(id).vth {
            VthClass::Low => VthClass::High,
            VthClass::High => VthClass::Low,
        };
        probe_netlist.gate_mut(id).set_vth(flipped);
        let cone = sta.reevaluate(&probe_netlist, id).expect("same topology");
        assert!(
            cone.visited < N / 100,
            "probe {k}: cone {} is not a sliver of {N}",
            cone.visited
        );
        total_visited += cone.visited;
    }
    // The average touched cone is orders of magnitude below the netlist:
    // this is the measured incremental-vs-full saving.
    let mean = total_visited as f64 / probes as f64;
    assert!(mean < 2_000.0, "mean cone {mean} too large for {N} cells");
}
