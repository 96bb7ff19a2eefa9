//! Seeded synthetic netlist generation.
//!
//! The paper's multi-Vdd/multi-Vth analyses are driven by two statistics of
//! industrial designs: "~75% of all gates can tolerate Vdd,l" (media
//! processors, Section 2.4) and "over half of all timing paths commonly use
//! less than half the clock cycle" (high-end MPUs, refs \[21, 22\]). Layered
//! random DAGs with a wide spread of path depths reproduce exactly that
//! shape; [`NetlistSpec`] exposes the knobs and the generation is fully
//! deterministic in the seed.

use crate::cell::CellKind;
use crate::netlist::{Gate, GateId, Netlist, NetlistBuilder};
use np_units::Farads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic netlist.
///
/// # Examples
///
/// ```
/// use np_circuit::{generate_netlist, NetlistSpec};
///
/// // The unit-test tier builds through the validating constructor...
/// let small = generate_netlist(&NetlistSpec::small(42));
/// assert_eq!(small.len(), 250);
///
/// // ...while the large tier streams construction in O(n).
/// let spec = NetlistSpec::large(42, 20_000);
/// assert!(spec.streaming);
/// assert_eq!(generate_netlist(&spec).len(), 20_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistSpec {
    /// Number of gates.
    pub gates: usize,
    /// Maximum logic depth (layers).
    pub depth: usize,
    /// RNG seed — equal specs generate equal netlists.
    pub seed: u64,
    /// Fraction of gates additionally marked as timing endpoints
    /// (register inputs), beyond the naturally sink gates.
    pub output_fraction: f64,
    /// Mean wire capacitance per net in femtofarads (exponentially
    /// distributed; interconnect is "a constant factor in the total
    /// capacitance", Section 3.3).
    pub mean_wire_cap_ff: f64,
    /// When true, gate layers are biased deep so most paths run close to
    /// the critical depth — the tight slack profile of a hand-tuned
    /// datapath, versus the default wide spread of random control logic.
    pub balanced_depth: bool,
    /// When true, generation streams through [`NetlistBuilder`] in O(n)
    /// (layer histogram + prefix sums instead of a global sort, one
    /// reused gate buffer, no end-of-build validation pass) — the path
    /// the 10⁶–10⁷-cell tiers use. The RNG stream differs from the
    /// sort-based path, so this is a distinct deterministic family, not
    /// a faster route to the same netlists.
    pub streaming: bool,
}

impl NetlistSpec {
    /// A ~250-gate netlist for unit tests.
    pub fn small(seed: u64) -> Self {
        NetlistSpec {
            gates: 250,
            depth: 14,
            seed,
            output_fraction: 0.1,
            mean_wire_cap_ff: 3.0,
            balanced_depth: false,
            streaming: false,
        }
    }

    /// A ~1200-gate netlist for experiments and benches.
    pub fn medium(seed: u64) -> Self {
        NetlistSpec {
            gates: 1200,
            depth: 22,
            seed,
            output_fraction: 0.08,
            mean_wire_cap_ff: 3.0,
            balanced_depth: false,
            streaming: false,
        }
    }

    /// An industrial-shape tier for `n_cells` in the 10⁵–10⁷ range:
    /// streamed O(n) generation, logic depth growing logarithmically
    /// with size (as placed designs do), and a 5% register fraction.
    pub fn large(seed: u64, n_cells: usize) -> Self {
        // ~44 levels at 10⁶ cells, ~51 at 10⁷ — deep enough that paths
        // spread, shallow enough that layers stay thousands of cells wide.
        let depth = 24 + (n_cells.max(2) as f64).log2().round() as usize;
        NetlistSpec {
            gates: n_cells,
            depth,
            seed,
            output_fraction: 0.05,
            mean_wire_cap_ff: 3.0,
            balanced_depth: false,
            streaming: true,
        }
    }

    /// A datapath-like variant of [`NetlistSpec::small`]: same size, but
    /// depth-balanced so most endpoint paths approach the critical depth.
    pub fn balanced(seed: u64) -> Self {
        NetlistSpec {
            balanced_depth: true,
            ..Self::small(seed)
        }
    }
}

impl Default for NetlistSpec {
    fn default() -> Self {
        Self::small(0)
    }
}

/// Generates a layered random DAG netlist from a spec.
///
/// Gates are assigned uniform random layers `0..depth`; each gate draws its
/// fan-ins from strictly earlier layers with locality bias, so path depths
/// (and therefore slacks) spread widely. Gate kinds follow a typical
/// mapped-logic mix; initial drives are small powers of two.
///
/// # Panics
///
/// Panics if the spec requests zero gates or zero depth.
pub fn generate_netlist(spec: &NetlistSpec) -> Netlist {
    assert!(spec.gates > 0, "spec must request at least one gate");
    assert!(spec.depth > 0, "spec must request at least one layer");
    if spec.streaming {
        return generate_streamed(spec);
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Layer assignment: uniform by default; cubic-biased towards the deep
    // layers for datapath-like (balanced-depth) netlists. Sorted so that
    // indices are topological.
    let mut layers: Vec<usize> = (0..spec.gates)
        .map(|_| {
            if spec.balanced_depth {
                let u: f64 = rng.random();
                let frac = 1.0 - u * u * u; // mass near the deep end
                ((frac * spec.depth as f64) as usize).min(spec.depth - 1)
            } else {
                rng.random_range(0..spec.depth)
            }
        })
        .collect();
    layers.sort_unstable();
    // Index of the first gate of each layer, for fan-in sampling.
    let mut gates = Vec::with_capacity(spec.gates);
    for i in 0..spec.gates {
        let layer = layers[i];
        let kind = pick_kind(&mut rng);
        // Gates in the first occupied layer are primary-input gates.
        let pool_end = layers.partition_point(|&l| l < layer);
        let fanins = if layer == 0 || pool_end == 0 {
            Vec::new()
        } else {
            let wanted = kind.fanin();
            let mut fanins = Vec::with_capacity(wanted);
            for _ in 0..wanted {
                // Locality: quadratic bias towards the end of the pool.
                let u: f64 = rng.random::<f64>();
                let idx = ((1.0 - u * u) * pool_end as f64) as usize;
                let idx = idx.min(pool_end - 1);
                let id = GateId::from_index(idx);
                if !fanins.contains(&id) {
                    fanins.push(id);
                }
            }
            fanins
        };
        let drive = [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4)];
        let wire_ff = -spec.mean_wire_cap_ff * (1.0 - rng.random::<f64>()).ln();
        let is_output = layer == spec.depth - 1 || rng.random::<f64>() < spec.output_fraction;
        let mut gate = Gate::new(kind, fanins)
            .with_drive(drive)
            .with_wire_cap(Farads::from_femto(wire_ff));
        if is_output {
            gate = gate.as_output();
        }
        gates.push(gate);
    }
    match Netlist::new(gates) {
        Ok(nl) => nl,
        // Fanins reference strictly earlier gates, so Kahn's sort cannot
        // find a cycle in a layered construction.
        Err(e) => unreachable!("layered construction is acyclic by design: {e}"),
    }
}

/// O(n) streamed generation for the large tiers.
///
/// Instead of materializing and sorting a per-gate layer vector, the
/// first pass draws a layer *histogram* (n RNG draws, O(depth) memory for
/// the counts) whose prefix sums give each layer's index range directly —
/// gate indices are topological by construction. The second pass emits
/// gates layer by layer through [`NetlistBuilder`], reusing one `Gate`
/// buffer, with the same kind mix, locality-biased fan-in sampling, drive
/// palette, and wire/output distributions as the sort-based path.
fn generate_streamed(spec: &NetlistSpec) -> Netlist {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut counts = vec![0usize; spec.depth];
    for _ in 0..spec.gates {
        let layer = if spec.balanced_depth {
            let u: f64 = rng.random();
            let frac = 1.0 - u * u * u; // mass near the deep end
            ((frac * spec.depth as f64) as usize).min(spec.depth - 1)
        } else {
            rng.random_range(0..spec.depth)
        };
        counts[layer] += 1;
    }
    // Average fan-in under the kind mix is ~1.8; reserve 2 edges/gate.
    let mut builder = NetlistBuilder::with_capacity(spec.gates, spec.gates * 2);
    let mut gate = Gate::new(CellKind::Inverter, Vec::with_capacity(4));
    let mut emitted = 0usize; // gates in strictly earlier layers
    for (layer, &width) in counts.iter().enumerate() {
        let pool_end = emitted;
        for _ in 0..width {
            gate.kind = pick_kind(&mut rng);
            gate.fanins.clear();
            if layer > 0 && pool_end > 0 {
                for _ in 0..gate.kind.fanin() {
                    // Locality: quadratic bias towards the end of the pool.
                    let u: f64 = rng.random::<f64>();
                    let idx = ((1.0 - u * u) * pool_end as f64) as usize;
                    let id = GateId::from_index(idx.min(pool_end - 1));
                    if !gate.fanins.contains(&id) {
                        gate.fanins.push(id);
                    }
                }
            }
            gate.drive = [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4)];
            let wire_ff = -spec.mean_wire_cap_ff * (1.0 - rng.random::<f64>()).ln();
            gate.wire_cap = Farads::from_femto(wire_ff);
            gate.is_output = layer == spec.depth - 1 || rng.random::<f64>() < spec.output_fraction;
            match builder.push(&gate) {
                // Fanins reference strictly earlier indices, so the
                // builder's topological-push invariant always holds.
                Ok(_) => {}
                Err(e) => unreachable!("layered streaming is topological by design: {e}"),
            }
        }
        emitted += width;
    }
    match builder.finish() {
        Ok(nl) => nl,
        Err(e) => unreachable!("streamed generation pushes at least one gate: {e}"),
    }
}

fn pick_kind(rng: &mut StdRng) -> CellKind {
    let r: f64 = rng.random();
    if r < 0.35 {
        CellKind::Inverter
    } else if r < 0.60 {
        CellKind::Nand2
    } else if r < 0.78 {
        CellKind::Nor2
    } else if r < 0.88 {
        CellKind::Nand3
    } else if r < 0.94 {
        CellKind::Nor3
    } else {
        CellKind::Buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::{TimingContext, TimingReport};
    use np_roadmap::TechNode;

    /// Fraction of timing endpoints whose path slack exceeds half the
    /// clock period (Section 2.4's "less than half the cycle").
    pub(super) fn slack_rich_fraction(nl: &Netlist, rep: &TimingReport) -> f64 {
        let endpoints = nl.timing_endpoints();
        let rich = endpoints
            .iter()
            .filter(|id| rep.slack[id.index()].0 / rep.clock.0 > 0.5)
            .count();
        rich as f64 / endpoints.len() as f64
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_netlist(&NetlistSpec::small(7));
        let b = generate_netlist(&NetlistSpec::small(7));
        assert_eq!(a, b);
        let c = generate_netlist(&NetlistSpec::small(8));
        assert_ne!(a, c);
    }

    #[test]
    fn requested_gate_count_is_honored() {
        let nl = generate_netlist(&NetlistSpec::small(1));
        assert_eq!(nl.len(), 250);
    }

    #[test]
    fn netlist_has_entries_and_endpoints() {
        let nl = generate_netlist(&NetlistSpec::small(3));
        assert!(nl.ids().any(|id| nl.fanins(id).is_empty()));
        assert!(!nl.timing_endpoints().is_empty());
    }

    #[test]
    fn fanins_precede_gates() {
        let nl = generate_netlist(&NetlistSpec::small(5));
        for id in nl.ids() {
            for f in nl.gate(id).fanins {
                assert!(f.index() < id.index());
            }
        }
    }

    #[test]
    fn streamed_generation_is_deterministic_and_topological() {
        let spec = NetlistSpec::large(11, 5000);
        let a = generate_netlist(&spec);
        let b = generate_netlist(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5000);
        assert!(a.ids().any(|id| a.fanins(id).is_empty()));
        assert!(!a.timing_endpoints().is_empty());
        for id in a.ids() {
            for f in a.gate(id).fanins {
                assert!(f.index() < id.index());
            }
        }
        assert_ne!(a, generate_netlist(&NetlistSpec::large(12, 5000)));
    }

    #[test]
    fn streamed_netlists_are_analyzable() {
        let nl = generate_netlist(&NetlistSpec::large(2, 20_000));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let rep = ctx.analyze(&nl).unwrap();
        assert!(rep.critical_delay().0 > 0.0);
    }

    #[test]
    fn slack_distribution_matches_paper_shape() {
        // Section 2.4 / refs [21,22]: with the clock at ~1.05x the critical
        // delay, over half of all endpoint paths should use less than half
        // the cycle (slack > T/2).
        let nl = generate_netlist(&NetlistSpec::medium(4));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        let ctx = ctx.with_clock(crit * 1.05);
        let rep = ctx.analyze(&nl).unwrap();
        let over_half = slack_rich_fraction(&nl, &rep);
        assert!(
            over_half > 0.5,
            "want >50% of paths with more than half-cycle slack, got {:.0}%",
            over_half * 100.0
        );
        assert!(rep.is_feasible());
    }

    #[test]
    #[should_panic(expected = "at least one gate")]
    fn zero_gates_panics() {
        let mut spec = NetlistSpec::small(0);
        spec.gates = 0;
        let _ = generate_netlist(&spec);
    }
}

#[cfg(test)]
mod balanced_tests {
    use super::tests::slack_rich_fraction;
    use super::*;
    use crate::sta::TimingContext;
    use np_roadmap::TechNode;

    fn endpoint_slack_fractions(spec: &NetlistSpec) -> f64 {
        let nl = generate_netlist(spec);
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        let ctx = ctx.with_clock(crit * 1.05);
        let rep = ctx.analyze(&nl).unwrap();
        slack_rich_fraction(&nl, &rep)
    }

    #[test]
    fn balanced_netlists_have_far_fewer_slack_rich_paths() {
        // The default profile has the paper's "over half the paths use
        // less than half the cycle"; the balanced profile concentrates
        // paths near critical, like a tuned datapath.
        let loose = endpoint_slack_fractions(&NetlistSpec::small(7));
        let tight = endpoint_slack_fractions(&NetlistSpec::balanced(7));
        assert!(
            tight < loose * 0.7,
            "balanced {tight:.2} vs default {loose:.2}"
        );
    }

    #[test]
    fn balanced_generation_is_deterministic_and_valid() {
        let a = generate_netlist(&NetlistSpec::balanced(3));
        let b = generate_netlist(&NetlistSpec::balanced(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 250);
        assert!(!a.timing_endpoints().is_empty());
    }
}
