//! Deterministic workload generators.
//!
//! Every request a run sends and every netlist it optimizes is a pure
//! function of the workload seed and an op index, so one seed always
//! yields the same inputs and the program under test receives only the
//! generated data.

use nanopower::proto::{Request, RunRequest};
use nanopower::roadmap::TechNode;
use nanopower::spec::{GridSpec, NetlistTier, ScenarioSpec};

/// The six roadmap nodes, in drawn nm; cold specs cycle through them.
pub const NODES_NM: [u32; 6] = [180, 130, 100, 70, 50, 35];

/// Mesh side of a cold spec's grid leg: 129² = 16 641 nodes, between the
/// auto plan's parallel threshold (16 384) and its multigrid threshold
/// (66 049).
pub const COLD_GRID_RESOLUTION: usize = 129;

/// Cell count of a cold spec's netlist leg.
pub const COLD_NETLIST_CELLS: usize = 50_000;

/// Specs in one `serve-cold` request. With two, the daemon's one-request
/// `Session` runs two jobs on two workers at a solver budget of one core
/// each. A one-spec request gets both cores for a 2-shard PCG whose every
/// iteration waits on a wake-up across vCPUs; on a shared 2-vCPU host its
/// p50 swung 91–169 ms over ten runs with the host's load, too
/// widely for any bound.
pub const COLD_SPECS_PER_REQUEST: u64 = 2;

/// Cold-shaped specs in the `serve-hot` pool.
pub const HOT_POOL_SPECS: usize = 16;

/// Registry artifacts kept out of the `serve-hot` pool: their renders
/// take seconds, and the pool holds light names only.
pub const HEAVY_ARTIFACTS: [&str; 2] = ["fig5-mesh", "fig34-mgate"];

/// Netlist size of a `ppa` op.
pub const PPA_CELLS: usize = 10_000;

/// The `ppa` ops whose power saving is averaged into `power_saving`: the
/// first this many seeds of the run, which every run completes.
pub const PPA_SAVING_OPS: u64 = 8;

/// Low bits of a netlist seed that hold the spec index; the workload seed
/// (below 2³²) sits above them. The whole seed stays below 2⁵³ because
/// the wire carries it as a JSON number, which the daemon parses as f64.
const INDEX_BITS: u32 = 21;

/// Index-space offset of the `serve-hot` pool specs.
const HOT_POOL_BASE: u64 = 1 << (INDEX_BITS - 1);

/// Most requests one `serve-cold` run may send: beyond it, cold spec
/// indices would run into the `serve-hot` pool's.
pub const MAX_COLD_OPS: u64 = HOT_POOL_BASE / COLD_SPECS_PER_REQUEST;

/// Stream tags keep the workloads' random draws independent.
const STREAM_COLD: u64 = 0xC01D;
const STREAM_HOT: u64 = 0x0407;
const STREAM_PPA: u64 = 0x099A;

/// SplitMix64: a tiny, well-mixed, reproducible generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting at `state`.
    pub fn new(state: u64) -> Self {
        SplitMix64(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The generator for op `index` of `stream` under `seed`.
fn rng(seed: u64, stream: u64, index: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.rotate_left(32));
    let base = mix.next_u64();
    SplitMix64::new(base ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Rounds to four decimals, so specs print short and exact.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// The netlist seed of cold-shaped spec `index` under `seed`: the seed in
/// the high bits, the index in the low [`INDEX_BITS`], so specs never
/// repeat within a stream and never collide across seeds below 2³².
pub fn netlist_seed(seed: u64, index: u64) -> u64 {
    (seed << INDEX_BITS) | (index & ((1 << INDEX_BITS) - 1))
}

/// Spec `index` of the cold stream under `seed`: a 129² grid leg, a
/// 50 000-cell netlist leg, the node cycling over the six nodes, and
/// activity, workload ratio and netlist seed drawn from the seed.
pub fn cold_spec(seed: u64, index: u64) -> ScenarioSpec {
    let nm = NODES_NM[(index % NODES_NM.len() as u64) as usize];
    let node = TechNode::from_drawn_nm(nm).expect("NODES_NM lists roadmap nodes");
    let mut draw = rng(seed, STREAM_COLD, index);
    ScenarioSpec {
        activity: round4(0.05 + 0.45 * draw.unit()),
        workload_ratio: round4(0.25 + 0.75 * draw.unit()),
        grid: Some(GridSpec {
            resolution: COLD_GRID_RESOLUTION,
        }),
        netlist: Some(NetlistTier {
            cells: COLD_NETLIST_CELLS,
            seed: netlist_seed(seed, index),
        }),
        ..ScenarioSpec::at_node(node)
    }
}

/// The wire line of a `run` request for `names` and `specs`.
pub fn run_line(names: &[&str], specs: &[ScenarioSpec]) -> String {
    Request::Run(RunRequest {
        names: names.iter().map(|n| (*n).to_owned()).collect(),
        specs: specs.to_vec(),
        ..RunRequest::default()
    })
    .to_json()
}

/// The specs of `serve-cold` request `index`, never repeated: cold specs
/// `index * COLD_SPECS_PER_REQUEST` onwards, so three requests cover the
/// six nodes.
pub fn cold_specs(seed: u64, index: u64) -> Vec<ScenarioSpec> {
    let first = index * COLD_SPECS_PER_REQUEST;
    (first..first + COLD_SPECS_PER_REQUEST)
        .map(|i| cold_spec(seed, i))
        .collect()
}

/// Request `index` of the `serve-cold` stream.
pub fn cold_line(seed: u64, index: u64) -> String {
    run_line(&[], &cold_specs(seed, index))
}

/// The `serve-hot` pool: every light registry name plus
/// [`HOT_POOL_SPECS`] cold-shaped specs — 33 entries, well under the
/// memo's 256-entry default, so priming evicts nothing.
#[derive(Debug, Clone)]
pub struct HotPool {
    /// Light registry artifact names, registry order.
    pub names: Vec<&'static str>,
    /// Cold-shaped specs from their own index space.
    pub specs: Vec<ScenarioSpec>,
}

impl HotPool {
    /// The pool under `seed`.
    pub fn new(seed: u64) -> Self {
        HotPool {
            names: np_bench::registry::names()
                .into_iter()
                .filter(|n| !HEAVY_ARTIFACTS.contains(n))
                .collect(),
            specs: (0..HOT_POOL_SPECS as u64)
                .map(|i| cold_spec(seed, HOT_POOL_BASE + i))
                .collect(),
        }
    }

    /// Pool entries: names first, then specs.
    pub fn len(&self) -> usize {
        self.names.len() + self.specs.len()
    }

    /// Whether the pool is empty (never, for a real registry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The priming request for pool entry `index`: one name or one spec.
    pub fn prime_line(&self, index: usize) -> String {
        match index.checked_sub(self.names.len()) {
            None => run_line(&[self.names[index]], &[]),
            Some(i) => run_line(&[], &[self.specs[i].clone()]),
        }
    }

    /// The (name, spec) pool indices of timed request `index`.
    pub fn pick(&self, seed: u64, index: u64) -> (usize, usize) {
        let mut draw = rng(seed, STREAM_HOT, index);
        (draw.below(self.names.len()), draw.below(self.specs.len()))
    }

    /// Timed request `index` of the `serve-hot` stream: one pool name and
    /// one pool spec, both memo hits once the pool is primed.
    pub fn line(&self, seed: u64, index: u64) -> String {
        let (n, s) = self.pick(seed, index);
        run_line(&[self.names[n]], &[self.specs[s].clone()])
    }
}

/// The netlist seed of `ppa` op `index` under `seed`.
pub fn ppa_seed(seed: u64, index: u64) -> u64 {
    rng(seed, STREAM_PPA, index).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_specs_cycle_nodes_and_stay_in_range() {
        for i in 0..12 {
            let spec = cold_spec(7, i);
            assert_eq!(spec.node.drawn().0 as u32, NODES_NM[(i % 6) as usize]);
            assert!(spec.activity > 0.0 && spec.activity <= 0.5);
            assert!(spec.workload_ratio >= 0.25 && spec.workload_ratio <= 1.0);
            // The canonical form parses back to the same spec.
            assert_eq!(ScenarioSpec::parse(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn hot_pool_fits_the_default_memo() {
        let pool = HotPool::new(1);
        assert_eq!(pool.names.len(), 17);
        assert!(pool.len() < 256);
        for n in HEAVY_ARTIFACTS {
            assert!(!pool.names.contains(&n));
        }
    }
}
