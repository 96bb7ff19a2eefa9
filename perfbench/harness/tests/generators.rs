//! Generator determinism: one seed yields byte-identical request streams
//! and netlist-seed lists, and different seeds never share a spec, so a
//! generator bug cannot quietly turn one workload into another.

use nanopower::engine::fnv1a64;
use nanopower::proto::Request;
use nanopower::spec::ScenarioSpec;
use perfbench_harness::gen::{self, HotPool};
use std::collections::BTreeSet;

const OPS: u64 = 256;

/// The held-out seed recorded in perfbench/rationale.json.
const HELD_OUT_SEED: u64 = 20_261_017;

fn cold_stream(seed: u64) -> String {
    (0..OPS).map(|k| gen::cold_line(seed, k) + "\n").collect()
}

fn hot_stream(seed: u64) -> String {
    let pool = HotPool::new(seed);
    let priming = (0..pool.len()).map(|i| pool.prime_line(i));
    let timed = (0..OPS).map(|k| pool.line(seed, k));
    priming.chain(timed).map(|line| line + "\n").collect()
}

fn netlist_seeds(seed: u64) -> Vec<u64> {
    let cold = (0..OPS).map(|k| {
        gen::cold_spec(seed, k)
            .netlist
            .expect("cold specs carry a netlist leg")
            .seed
    });
    let ppa = (0..OPS).map(|k| gen::ppa_seed(seed, k));
    cold.chain(ppa).collect()
}

fn spec_digests(seed: u64) -> Vec<u64> {
    let cold = (0..OPS).map(|k| gen::cold_spec(seed, k).digest());
    let hot = HotPool::new(seed).specs.into_iter().map(|s| s.digest());
    cold.chain(hot).collect()
}

#[test]
fn one_seed_yields_byte_identical_inputs() {
    for seed in [1, 2, HELD_OUT_SEED] {
        // Generated on another thread too: no hidden per-thread state.
        let (cold, hot, seeds) =
            std::thread::spawn(move || (cold_stream(seed), hot_stream(seed), netlist_seeds(seed)))
                .join()
                .expect("generator thread panicked");
        assert_eq!(cold, cold_stream(seed), "cold stream, seed {seed}");
        assert_eq!(hot, hot_stream(seed), "hot stream, seed {seed}");
        assert_eq!(seeds, netlist_seeds(seed), "netlist seeds, seed {seed}");
    }
}

#[test]
fn streams_are_pinned_across_builds() {
    // Any change to what a seed generates — here or in the canonical
    // spec encoding the requests use — changes the benchmark's inputs,
    // and runs before and after it are no longer comparable.
    let digest = |text: &str| format!("{:016x}", fnv1a64(text.as_bytes()));
    let seeds: String = netlist_seeds(1).iter().map(|s| format!("{s}\n")).collect();
    assert_eq!(
        [
            digest(&cold_stream(1)),
            digest(&hot_stream(1)),
            digest(&seeds)
        ],
        PINNED
    );
}

/// FNV-1a digests of seed 1's cold stream, hot stream and netlist seeds.
const PINNED: [&str; 3] = ["721e41783d87621a", "9281fd360f616b69", "cf25d419d726b253"];

#[test]
fn specs_survive_the_wire() {
    // The daemon names a record after the digest of the spec it parsed;
    // a field the wire cannot carry exactly (an integer above 2^53 in a
    // JSON number) would make every record look foreign.
    for seed in [0, 1, HELD_OUT_SEED, u64::from(u32::MAX)] {
        let pool = HotPool::new(seed);
        let last = gen::MAX_COLD_OPS - 1;
        let cold = [0, 1, 17, last].map(|k| (gen::cold_line(seed, k), gen::cold_specs(seed, k)));
        let hot = (0..pool.specs.len()).map(|i| {
            (
                pool.prime_line(pool.names.len() + i),
                vec![pool.specs[i].clone()],
            )
        });
        for (line, sent) in cold.into_iter().chain(hot) {
            let Ok(Request::Run(run)) = Request::parse(&line) else {
                panic!("seed {seed}: request does not parse: {line}");
            };
            let names = |specs: &[ScenarioSpec]| {
                specs.iter().map(ScenarioSpec::job_name).collect::<Vec<_>>()
            };
            assert_eq!(names(&run.specs), names(&sent), "seed {seed}: {line}");
        }
    }
}

#[test]
fn specs_never_repeat_within_a_seed() {
    for seed in [1, HELD_OUT_SEED] {
        let digests = spec_digests(seed);
        let distinct: BTreeSet<u64> = digests.iter().copied().collect();
        assert_eq!(distinct.len(), digests.len(), "seed {seed}");
    }
}

#[test]
fn different_seeds_yield_disjoint_spec_digests() {
    for (a, b) in [
        (1, 2),
        (1, HELD_OUT_SEED),
        (41, 42),
        (0, u64::from(u32::MAX)),
    ] {
        let left: BTreeSet<u64> = spec_digests(a).into_iter().collect();
        let right: BTreeSet<u64> = spec_digests(b).into_iter().collect();
        assert!(left.is_disjoint(&right), "seeds {a} and {b} share a spec");
        assert_ne!(netlist_seeds(a), netlist_seeds(b), "seeds {a} and {b}");
    }
}
