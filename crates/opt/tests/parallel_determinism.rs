//! Worker-count determinism and clean-drain guarantees of the parallel
//! optimizer, exercised on the streaming `NetlistSpec::large` tier.
//!
//! The freeze/score/sort/accept round structure promises bitwise
//! identical results at any worker count; these tests hold it to that
//! across random seeds at 1k cells (property) and at 10k cells (fixed
//! seed), and check that cancellation mid-run leaves a feasible netlist.

use std::sync::atomic::{AtomicUsize, Ordering};

use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::sta::TimingContext;
use np_opt::{
    assignment_digest, optimize_parallel, optimize_parallel_with_cancel, ParallelOptions,
};
use np_roadmap::TechNode;
use proptest::prelude::*;

fn ctx_for(netlist: &np_circuit::Netlist, clock_factor: f64) -> TimingContext {
    let ctx = TimingContext::for_node(TechNode::N100).expect("calibration");
    let crit = ctx.analyze(netlist).expect("analyze").critical_delay();
    ctx.with_clock(crit * clock_factor)
}

/// Runs the optimizer on a fresh copy of the seed netlist at the given
/// worker count and returns the final assignment digest.
fn digest_at(seed: u64, cells: usize, workers: usize, rounds: usize) -> u64 {
    let mut netlist = generate_netlist(&NetlistSpec::large(seed, cells));
    let ctx = ctx_for(&netlist, 1.3);
    let options = ParallelOptions {
        workers: Some(workers),
        max_rounds: rounds,
        ..ParallelOptions::default()
    };
    let result = optimize_parallel(&mut netlist, &ctx, &options).expect("optimize");
    assert!(!result.cancelled);
    assert!(ctx.analyze(&netlist).expect("sta").is_feasible());
    assignment_digest(&netlist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 1k-cell tier: the digest is identical at 1, 2, and NCPU workers
    /// for any seed — the scheduling of the scoring phase never leaks
    /// into the accepted assignment.
    #[test]
    fn digests_agree_across_worker_counts_at_1k(seed in 0u64..500) {
        let ncpu = np_opt::parallel::thread_budget().max(1);
        let one = digest_at(seed, 1000, 1, 2);
        let two = digest_at(seed, 1000, 2, 2);
        prop_assert_eq!(one, two, "workers 1 vs 2 diverged");
        if ncpu > 2 {
            let many = digest_at(seed, 1000, ncpu, 2);
            prop_assert_eq!(one, many, "workers 1 vs NCPU diverged");
        }
    }
}

/// 10k-cell tier, fixed seed: worker counts 1/2/4 and a repeat run at
/// the same count all land on one digest.
#[test]
fn digests_agree_across_worker_counts_at_10k() {
    let baseline = digest_at(77, 10_000, 1, 1);
    assert_eq!(baseline, digest_at(77, 10_000, 2, 1));
    assert_eq!(baseline, digest_at(77, 10_000, 4, 1));
    assert_eq!(baseline, digest_at(77, 10_000, 1, 1), "run-to-run drift");
}

/// Runs the optimizer with default options at `workers` on a fresh
/// `NetlistSpec::large(seed, cells)` clocked at exactly its critical
/// delay, and returns (digest, rounds, accepted, reverted).
fn tight_clock_answer(seed: u64, cells: usize, workers: usize) -> (u64, usize, usize, usize) {
    let mut netlist = generate_netlist(&NetlistSpec::large(seed, cells));
    let ctx = ctx_for(&netlist, 1.0);
    let options = ParallelOptions {
        workers: Some(workers),
        ..ParallelOptions::default()
    };
    let result = optimize_parallel(&mut netlist, &ctx, &options).expect("optimize");
    assert!(ctx.analyze(&netlist).expect("sta").is_feasible());
    let reverted = result.rounds.iter().map(|r| r.reverted).sum();
    (
        assignment_digest(&netlist),
        result.rounds.len(),
        result.total_accepted(),
        reverted,
    )
}

/// The binding regime, pinned: at a 1.00x clock the critical paths have
/// zero slack, so the exact accept-or-revert check decides moves (the
/// 1.3x runs above barely revert). An STA or worklist change that moves
/// an arrival at a binding endpoint changes the digest or the counts.
#[test]
fn tight_clock_answer_is_pinned() {
    for workers in [1, 2] {
        assert_eq!(
            tight_clock_answer(11, 2_000, workers),
            (0x012f_e31e_a330_5897, 8, 12_487, 24),
            "2k cells, {workers} workers"
        );
    }
    assert_eq!(
        tight_clock_answer(77, 10_000, 2),
        (0xc6c6_c872_7f3a_df16, 8, 62_821, 3),
        "10k cells"
    );
}

/// Cancellation mid-run drains cleanly: the result is flagged, the
/// netlist is still timing-feasible, and no half-applied round leaks
/// into the assignment (the cancelled round's proposals are discarded
/// wholesale, so the digest matches a shorter uncancelled run).
#[test]
fn cancel_mid_run_drains_to_a_feasible_prefix() {
    let mut netlist = generate_netlist(&NetlistSpec::large(11, 2_000));
    let ctx = ctx_for(&netlist, 1.3);
    let options = ParallelOptions {
        workers: Some(2),
        max_rounds: 8,
        ..ParallelOptions::default()
    };
    // Fire on the first poll of round 2's scoring phase: round 1 lands
    // in full, round 2 is discarded at its first checkpoint.
    let polls = AtomicUsize::new(0);
    let polls_in_round_1 = {
        let count = AtomicUsize::new(0);
        let mut probe = generate_netlist(&NetlistSpec::large(11, 2_000));
        let opts1 = ParallelOptions {
            max_rounds: 1,
            ..options
        };
        optimize_parallel_with_cancel(&mut probe, &ctx, &opts1, &|| {
            count.fetch_add(1, Ordering::SeqCst);
            false
        })
        .expect("probe run");
        count.load(Ordering::SeqCst)
    };
    let result = optimize_parallel_with_cancel(&mut netlist, &ctx, &options, &|| {
        polls.fetch_add(1, Ordering::SeqCst) + 1 > polls_in_round_1
    })
    .expect("cancelled run still returns");
    assert!(result.cancelled, "cancel closure fired but flag not set");
    assert!(result.rounds.len() < 8, "cancel did not shorten the run");
    assert!(ctx.analyze(&netlist).expect("sta").is_feasible());

    // The drained state equals an uncancelled run truncated to the
    // rounds that completed before the cancel.
    let mut reference = generate_netlist(&NetlistSpec::large(11, 2_000));
    let ref_opts = ParallelOptions {
        max_rounds: result.rounds.len().max(1),
        ..options
    };
    let ref_result = optimize_parallel(&mut reference, &ctx, &ref_opts).expect("reference");
    if ref_result.rounds.len() == result.rounds.len() {
        assert_eq!(
            assignment_digest(&netlist),
            assignment_digest(&reference),
            "cancelled run is not a clean prefix of the uncancelled run"
        );
    }
}
