//! Combinational netlist DAGs with per-gate drive / supply / threshold
//! assignments — the objects the paper's CVS, dual-Vth, and re-sizing
//! optimizations act on.
//!
//! # Storage layout
//!
//! [`Netlist`] stores gates in structure-of-arrays (SoA) form: one dense
//! column per assignment field (kind, drive, supply, Vth, wire cap,
//! output flag) plus two compressed-sparse-row (CSR) adjacency tables for
//! fan-ins and fan-outs. There are no per-gate heap allocations, so a
//! 10⁷-cell netlist costs a handful of flat arrays rather than millions
//! of small `Vec`s, and walking a gate's fan-out cone is a contiguous
//! slice scan. [`GateId`] is a `u32` index into those columns — stable
//! for the life of the netlist, since the *topology* is immutable (only
//! assignments can change, through [`Netlist::gate_mut`]).
//!
//! Small netlists are built from [`Gate`] values via [`Netlist::new`]
//! (full validation, any construction order); large streamed netlists
//! use [`NetlistBuilder`], which accepts gates in topological order and
//! builds the CSR tables in O(gates + edges).

use crate::cell::{CellKind, SupplyClass, VthClass};
use crate::error::CircuitError;
use np_units::Farads;
use std::fmt;

/// Identifier of a gate inside one [`Netlist`].
///
/// Internally a `u32`, which halves adjacency-table memory at the
/// 10⁶–10⁷-cell scale; netlists are capped at `u32::MAX − 1` gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(u32);

impl GateId {
    /// Creates an id referring to the gate at `index` in construction
    /// order (which [`Netlist::new`] / [`NetlistBuilder`] validate).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the `u32` id space.
    pub fn from_index(index: usize) -> GateId {
        assert!(
            index < u32::MAX as usize,
            "gate index {index} exceeds the u32 id space"
        );
        GateId(index as u32)
    }

    /// The gate's index in the netlist's storage columns.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance — the *construction* type consumed by
/// [`Netlist::new`] and [`NetlistBuilder::push`]. Inside a built netlist
/// gates live in SoA columns and are read back as [`GateView`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The cell function.
    pub kind: CellKind,
    /// Drive strength (multiple of the unit inverter). Mutated by the
    /// re-sizing optimization.
    pub drive: f64,
    /// Supply assignment. Mutated by CVS.
    pub supply: SupplyClass,
    /// Threshold assignment. Mutated by dual-Vth insertion.
    pub vth: VthClass,
    /// Fan-in gates; inputs not listed here are primary inputs (arrival 0).
    pub fanins: Vec<GateId>,
    /// Interconnect capacitance on the gate's output net.
    pub wire_cap: Farads,
    /// True when the gate drives a register or primary output (its arrival
    /// is checked against the clock period).
    pub is_output: bool,
}

impl Gate {
    /// A drive-1, high-supply, low-Vth gate of `kind` with the given
    /// fan-ins — the state every optimization starts from.
    pub fn new(kind: CellKind, fanins: Vec<GateId>) -> Self {
        Gate {
            kind,
            drive: 1.0,
            supply: SupplyClass::High,
            vth: VthClass::Low,
            fanins,
            wire_cap: Farads(0.0),
            is_output: false,
        }
    }

    /// Builder-style wire-capacitance setter.
    pub fn with_wire_cap(mut self, cap: Farads) -> Self {
        self.wire_cap = cap;
        self
    }

    /// Builder-style drive setter.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not positive.
    pub fn with_drive(mut self, drive: f64) -> Self {
        assert!(drive > 0.0, "drive must be positive");
        self.drive = drive;
        self
    }

    /// Builder-style output marker.
    pub fn as_output(mut self) -> Self {
        self.is_output = true;
        self
    }
}

/// Read-only view of one gate inside a [`Netlist`] — scalar assignment
/// fields copied out of the SoA columns plus the gate's fan-in slice
/// from the CSR table.
#[derive(Debug, Clone, Copy)]
pub struct GateView<'a> {
    /// The cell function.
    pub kind: CellKind,
    /// Drive strength (multiple of the unit inverter).
    pub drive: f64,
    /// Supply assignment.
    pub supply: SupplyClass,
    /// Threshold assignment.
    pub vth: VthClass,
    /// Interconnect capacitance on the gate's output net.
    pub wire_cap: Farads,
    /// True when the gate is a timing endpoint by declaration.
    pub is_output: bool,
    /// Fan-in gates (CSR slice; empty for primary-input gates).
    pub fanins: &'a [GateId],
}

/// A validated combinational netlist.
///
/// Construction checks that all fan-in references exist and that the graph
/// is acyclic; the topological order and the CSR fan-in/fan-out tables are
/// cached. Gate *assignments* (drive, supply, Vth) are mutable; the
/// *topology* is not — which is also what makes the cached
/// [`topology digest`](Netlist::topology_digest) a stable fingerprint for
/// incremental-analysis view checks.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_circuit::CircuitError> {
/// use np_circuit::{CellKind, Gate, Netlist};
///
/// // inv0 -> nand1 -> inv2 (output)
/// let netlist = Netlist::new(vec![
///     Gate::new(CellKind::Inverter, vec![]),
///     Gate::new(CellKind::Nand2, vec![]),
///     Gate::new(CellKind::Inverter, vec![]).as_output(),
/// ])?;
/// assert_eq!(netlist.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    kinds: Vec<CellKind>,
    drives: Vec<f64>,
    supplies: Vec<SupplyClass>,
    vths: Vec<VthClass>,
    wire_caps: Vec<Farads>,
    outputs: Vec<bool>,
    /// CSR fan-in adjacency: gate `i`'s fan-ins are
    /// `fanin_edges[fanin_offsets[i]..fanin_offsets[i + 1]]`.
    fanin_offsets: Vec<u32>,
    fanin_edges: Vec<GateId>,
    /// CSR fan-out adjacency, same layout.
    fanout_offsets: Vec<u32>,
    fanout_edges: Vec<GateId>,
    topo: Vec<GateId>,
    digest: u64,
}

/// One FNV-1a 64 step over `word`: xor it in, multiply by the prime.
/// Each step is a bijection of the running hash, so two inputs of equal
/// length that differ in one word always hash differently.
#[inline]
fn fnv1a_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Netlist {
    /// Validates and builds a netlist.
    ///
    /// # Errors
    ///
    /// [`CircuitError::EmptyNetlist`] for no gates,
    /// [`CircuitError::UnknownGate`] for dangling fan-ins, and
    /// [`CircuitError::CombinationalLoop`] for cycles.
    pub fn new(gates: Vec<Gate>) -> Result<Self, CircuitError> {
        if gates.is_empty() {
            return Err(CircuitError::EmptyNetlist);
        }
        let n = gates.len();
        if n >= u32::MAX as usize {
            return Err(CircuitError::BadParameter(
                "netlist exceeds the u32 gate-id space",
            ));
        }
        for g in &gates {
            for f in &g.fanins {
                if f.index() >= n {
                    return Err(CircuitError::UnknownGate { index: f.index() });
                }
            }
        }
        let mut fanouts: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (i, g) in gates.iter().enumerate() {
            indeg[i] = g.fanins.len();
            for f in &g.fanins {
                fanouts[f.index()].push(GateId(i as u32));
            }
        }
        // Kahn's algorithm (stack order — kept stable so existing
        // analyses and golden artifacts see the same traversal).
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(GateId(i as u32));
            for f in &fanouts[i] {
                indeg[f.index()] -= 1;
                if indeg[f.index()] == 0 {
                    queue.push(f.index());
                }
            }
        }
        if topo.len() != n {
            // topo.len() != n guarantees a positive in-degree exists; fall
            // back to 0 rather than panic if that invariant ever breaks.
            let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(CircuitError::CombinationalLoop { index: stuck });
        }
        // Decompose the AoS gate list into SoA columns + CSR tables.
        let edge_total: usize = gates.iter().map(|g| g.fanins.len()).sum();
        if edge_total >= u32::MAX as usize {
            return Err(CircuitError::BadParameter(
                "netlist exceeds the u32 edge space",
            ));
        }
        let mut this = Netlist {
            kinds: Vec::with_capacity(n),
            drives: Vec::with_capacity(n),
            supplies: Vec::with_capacity(n),
            vths: Vec::with_capacity(n),
            wire_caps: Vec::with_capacity(n),
            outputs: Vec::with_capacity(n),
            fanin_offsets: Vec::with_capacity(n + 1),
            fanin_edges: Vec::with_capacity(edge_total),
            fanout_offsets: Vec::new(),
            fanout_edges: Vec::new(),
            topo,
            digest: 0,
        };
        this.fanin_offsets.push(0);
        for g in &gates {
            this.kinds.push(g.kind);
            this.drives.push(g.drive);
            this.supplies.push(g.supply);
            this.vths.push(g.vth);
            this.wire_caps.push(g.wire_cap);
            this.outputs.push(g.is_output);
            this.fanin_edges.extend_from_slice(&g.fanins);
            this.fanin_offsets.push(this.fanin_edges.len() as u32);
        }
        this.build_fanout_csr();
        this.digest = this.compute_digest();
        Ok(this)
    }

    /// Builds the fan-out CSR from the fan-in CSR by counting sort:
    /// O(gates + edges), no per-gate allocations.
    fn build_fanout_csr(&mut self) {
        let n = self.kinds.len();
        let mut counts = vec![0u32; n + 1];
        for f in &self.fanin_edges {
            counts[f.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        self.fanout_offsets = counts.clone();
        self.fanout_edges = vec![GateId(0); self.fanin_edges.len()];
        // `counts` now doubles as the write cursor per source gate.
        for i in 0..n {
            let (s, e) = (
                self.fanin_offsets[i] as usize,
                self.fanin_offsets[i + 1] as usize,
            );
            for k in s..e {
                let src = self.fanin_edges[k].index();
                self.fanout_edges[counts[src] as usize] = GateId(i as u32);
                counts[src] += 1;
            }
        }
    }

    /// FNV-1a over the gate count, the fan-in CSR, and the output flags —
    /// everything immutable after construction. One step per gate count,
    /// per 32-bit CSR word and per output-flag byte.
    fn compute_digest(&self) -> u64 {
        let mut h = fnv1a_step(0xcbf2_9ce4_8422_2325, self.kinds.len() as u64);
        for &o in &self.fanin_offsets {
            h = fnv1a_step(h, u64::from(o));
        }
        for &e in &self.fanin_edges {
            h = fnv1a_step(h, u64::from(e.0));
        }
        for &o in &self.outputs {
            h = fnv1a_step(h, u64::from(o));
        }
        h
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Always false: construction rejects empty netlists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A stable fingerprint of the netlist *topology* (gate count,
    /// fan-in structure, output flags). Two netlists with equal digests
    /// have identical connectivity; assignment mutations never change
    /// it. [`crate::incremental::IncrementalSta`] uses it to reject
    /// stale views.
    pub fn topology_digest(&self) -> u64 {
        self.digest
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is from another netlist (out of range).
    pub fn gate(&self, id: GateId) -> GateView<'_> {
        let i = id.index();
        GateView {
            kind: self.kinds[i],
            drive: self.drives[i],
            supply: self.supplies[i],
            vth: self.vths[i],
            wire_cap: self.wire_caps[i],
            is_output: self.outputs[i],
            fanins: self.fanins(id),
        }
    }

    /// The gate's cell function (one column read; the timing kernels use
    /// these single-field accessors instead of a whole [`GateView`]).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range, as do the other column
    /// accessors below.
    #[inline]
    pub fn kind(&self, id: GateId) -> CellKind {
        self.kinds[id.index()]
    }

    /// The gate's drive strength.
    #[inline]
    pub fn drive(&self, id: GateId) -> f64 {
        self.drives[id.index()]
    }

    /// The gate's supply assignment.
    #[inline]
    pub fn supply(&self, id: GateId) -> SupplyClass {
        self.supplies[id.index()]
    }

    /// The gate's threshold assignment.
    #[inline]
    pub fn vth(&self, id: GateId) -> VthClass {
        self.vths[id.index()]
    }

    /// The interconnect capacitance on the gate's output net.
    #[inline]
    pub fn wire_cap(&self, id: GateId) -> Farads {
        self.wire_caps[id.index()]
    }

    /// True when the gate is declared a timing endpoint.
    #[inline]
    pub fn is_output(&self, id: GateId) -> bool {
        self.outputs[id.index()]
    }

    /// Mutable access to a gate's assignment fields.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> GateAssignment<'_> {
        assert!(id.index() < self.kinds.len(), "gate id out of range");
        GateAssignment {
            netlist: self,
            index: id.index(),
        }
    }

    /// Gate ids in a valid topological order (fan-ins first).
    pub fn topological_order(&self) -> &[GateId] {
        &self.topo
    }

    /// The fan-in gates of `id` (CSR slice).
    #[inline]
    pub fn fanins(&self, id: GateId) -> &[GateId] {
        let i = id.index();
        &self.fanin_edges[self.fanin_offsets[i] as usize..self.fanin_offsets[i + 1] as usize]
    }

    /// The gates driven by `id` (CSR slice).
    #[inline]
    pub fn fanouts(&self, id: GateId) -> &[GateId] {
        let i = id.index();
        &self.fanout_edges[self.fanout_offsets[i] as usize..self.fanout_offsets[i + 1] as usize]
    }

    /// Iterator over all gate ids in index order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.kinds.len() as u32).map(GateId)
    }

    /// Gates whose arrival is checked against the clock: gates marked
    /// `is_output` plus any gate with no fan-outs.
    pub fn timing_endpoints(&self) -> Vec<GateId> {
        self.ids()
            .filter(|&id| self.outputs[id.index()] || self.fanouts(id).is_empty())
            .collect()
    }
}

/// Streaming netlist constructor for large designs.
///
/// Gates must be pushed in topological order — every fan-in must
/// reference an already-pushed gate — which is exactly what a layered
/// generator produces. Construction is O(gates + edges) with no
/// validation pass over the whole design at the end: acyclicity is
/// guaranteed by the push-order invariant, and the topological order is
/// the push order itself.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_circuit::CircuitError> {
/// use np_circuit::netlist::{Gate, NetlistBuilder};
/// use np_circuit::CellKind;
///
/// let mut b = NetlistBuilder::with_capacity(2, 1);
/// let g0 = b.push(&Gate::new(CellKind::Inverter, vec![]))?;
/// b.push(&Gate::new(CellKind::Nand2, vec![g0]).as_output())?;
/// let netlist = b.finish()?;
/// assert_eq!(netlist.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    kinds: Vec<CellKind>,
    drives: Vec<f64>,
    supplies: Vec<SupplyClass>,
    vths: Vec<VthClass>,
    wire_caps: Vec<Farads>,
    outputs: Vec<bool>,
    fanin_offsets: Vec<u32>,
    fanin_edges: Vec<GateId>,
}

impl NetlistBuilder {
    /// An empty builder with column capacity for `gates` gates and
    /// `edges` fan-in edges.
    pub fn with_capacity(gates: usize, edges: usize) -> Self {
        let mut fanin_offsets = Vec::with_capacity(gates + 1);
        fanin_offsets.push(0);
        NetlistBuilder {
            kinds: Vec::with_capacity(gates),
            drives: Vec::with_capacity(gates),
            supplies: Vec::with_capacity(gates),
            vths: Vec::with_capacity(gates),
            wire_caps: Vec::with_capacity(gates),
            outputs: Vec::with_capacity(gates),
            fanin_offsets,
            fanin_edges: Vec::with_capacity(edges),
        }
    }

    /// Appends a gate (copied out of `gate` — callers stream by reusing
    /// one `Gate` buffer) and returns its id.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownGate`] when a fan-in references a gate
    /// that has not been pushed yet (forward references would break the
    /// topological-push invariant), and
    /// [`CircuitError::BadParameter`] when the gate or edge count would
    /// overflow the `u32` id space.
    pub fn push(&mut self, gate: &Gate) -> Result<GateId, CircuitError> {
        let next = self.kinds.len();
        if next >= u32::MAX as usize {
            return Err(CircuitError::BadParameter(
                "netlist exceeds the u32 gate-id space",
            ));
        }
        for f in &gate.fanins {
            if f.index() >= next {
                return Err(CircuitError::UnknownGate { index: f.index() });
            }
        }
        if self.fanin_edges.len() + gate.fanins.len() >= u32::MAX as usize {
            return Err(CircuitError::BadParameter(
                "netlist exceeds the u32 edge space",
            ));
        }
        self.kinds.push(gate.kind);
        self.drives.push(gate.drive);
        self.supplies.push(gate.supply);
        self.vths.push(gate.vth);
        self.wire_caps.push(gate.wire_cap);
        self.outputs.push(gate.is_output);
        self.fanin_edges.extend_from_slice(&gate.fanins);
        self.fanin_offsets.push(self.fanin_edges.len() as u32);
        Ok(GateId(next as u32))
    }

    /// Finishes construction: builds the fan-out CSR (counting sort) and
    /// the topology digest. The topological order is the push order.
    ///
    /// # Errors
    ///
    /// [`CircuitError::EmptyNetlist`] when nothing was pushed.
    pub fn finish(self) -> Result<Netlist, CircuitError> {
        if self.kinds.is_empty() {
            return Err(CircuitError::EmptyNetlist);
        }
        let n = self.kinds.len();
        let mut this = Netlist {
            kinds: self.kinds,
            drives: self.drives,
            supplies: self.supplies,
            vths: self.vths,
            wire_caps: self.wire_caps,
            outputs: self.outputs,
            fanin_offsets: self.fanin_offsets,
            fanin_edges: self.fanin_edges,
            fanout_offsets: Vec::new(),
            fanout_edges: Vec::new(),
            topo: (0..n as u32).map(GateId).collect(),
            digest: 0,
        };
        this.build_fanout_csr();
        this.digest = this.compute_digest();
        Ok(this)
    }
}

/// Mutable view of a gate restricted to its assignment fields, so the
/// topology caches (and the topology digest) can never be invalidated.
#[derive(Debug)]
pub struct GateAssignment<'a> {
    netlist: &'a mut Netlist,
    index: usize,
}

impl GateAssignment<'_> {
    /// Sets the drive strength.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not positive.
    pub fn set_drive(&mut self, drive: f64) {
        assert!(drive > 0.0, "drive must be positive");
        self.netlist.drives[self.index] = drive;
    }

    /// Sets the supply class.
    pub fn set_supply(&mut self, supply: SupplyClass) {
        self.netlist.supplies[self.index] = supply;
    }

    /// Sets the threshold class.
    pub fn set_vth(&mut self, vth: VthClass) {
        self.netlist.vths[self.index] = vth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Netlist {
        let gates: Vec<Gate> = (0..n)
            .map(|i| {
                let fanins = if i == 0 {
                    vec![]
                } else {
                    vec![GateId::from_index(i - 1)]
                };
                let g = Gate::new(CellKind::Inverter, fanins);
                if i == n - 1 {
                    g.as_output()
                } else {
                    g
                }
            })
            .collect();
        Netlist::new(gates).expect("valid chain")
    }

    #[test]
    fn chain_has_linear_topology() {
        let nl = chain(5);
        assert_eq!(nl.len(), 5);
        let entries: Vec<_> = nl.ids().filter(|&id| nl.fanins(id).is_empty()).collect();
        assert_eq!(entries, vec![GateId::from_index(0)]);
        assert_eq!(nl.timing_endpoints(), vec![GateId::from_index(4)]);
        assert_eq!(nl.fanouts(GateId::from_index(2)), &[GateId::from_index(3)]);
        // Topological order respects edges.
        let pos: Vec<usize> = {
            let mut pos = vec![0; 5];
            for (rank, id) in nl.topological_order().iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for i in 1..5 {
            assert!(pos[i - 1] < pos[i]);
        }
    }

    #[test]
    fn empty_netlist_rejected() {
        assert!(matches!(
            Netlist::new(vec![]),
            Err(CircuitError::EmptyNetlist)
        ));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let err = Netlist::new(vec![Gate::new(
            CellKind::Inverter,
            vec![GateId::from_index(7)],
        )])
        .unwrap_err();
        assert!(matches!(err, CircuitError::UnknownGate { index: 7 }));
    }

    #[test]
    fn cycle_rejected() {
        let err = Netlist::new(vec![
            Gate::new(CellKind::Inverter, vec![GateId::from_index(1)]),
            Gate::new(CellKind::Inverter, vec![GateId::from_index(0)]),
        ])
        .unwrap_err();
        assert!(matches!(err, CircuitError::CombinationalLoop { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let err = Netlist::new(vec![Gate::new(
            CellKind::Inverter,
            vec![GateId::from_index(0)],
        )])
        .unwrap_err();
        assert!(matches!(err, CircuitError::CombinationalLoop { index: 0 }));
    }

    #[test]
    fn assignment_mutation_preserves_topology() {
        let mut nl = chain(3);
        let g1 = GateId::from_index(1);
        nl.gate_mut(g1).set_drive(8.0);
        nl.gate_mut(g1).set_supply(SupplyClass::Low);
        nl.gate_mut(g1).set_vth(VthClass::High);
        let g = nl.gate(g1);
        assert_eq!(g.drive, 8.0);
        assert_eq!(g.supply, SupplyClass::Low);
        assert_eq!(g.vth, VthClass::High);
        assert_eq!(nl.fanouts(GateId::from_index(0)), &[g1]);
    }

    #[test]
    fn assignment_mutation_keeps_the_digest() {
        let mut nl = chain(4);
        let before = nl.topology_digest();
        nl.gate_mut(GateId::from_index(1)).set_drive(4.0);
        nl.gate_mut(GateId::from_index(2))
            .set_supply(SupplyClass::Low);
        assert_eq!(nl.topology_digest(), before);
        // A structurally different netlist digests differently.
        assert_ne!(chain(5).topology_digest(), before);
    }

    #[test]
    fn one_edge_or_one_output_flag_changes_the_digest() -> Result<(), CircuitError> {
        // 0 -> {1, 2} -> 3 (output); each variant changes one fan-in
        // edge or one output flag and keeps every length.
        let diamond = |edge_from: usize, two_is_output: bool| {
            let gates = (0..4).map(|i| {
                let fanins = match i {
                    0 => vec![],
                    1 => vec![GateId::from_index(0)],
                    2 => vec![GateId::from_index(edge_from)],
                    _ => vec![GateId::from_index(1), GateId::from_index(2)],
                };
                let g = Gate::new(CellKind::Nand2, fanins);
                if i == 3 || (i == 2 && two_is_output) {
                    g.as_output()
                } else {
                    g
                }
            });
            Netlist::new(gates.collect()).map(|nl| nl.topology_digest())
        };
        let base = diamond(0, false)?;
        assert_eq!(diamond(0, false)?, base);
        assert_ne!(diamond(1, false)?, base, "one fan-in edge moved");
        assert_ne!(diamond(0, true)?, base, "one output flag set");
        Ok(())
    }

    #[test]
    #[should_panic(expected = "drive must be positive")]
    fn non_positive_drive_panics() {
        let mut nl = chain(2);
        nl.gate_mut(GateId::from_index(0)).set_drive(0.0);
    }

    #[test]
    fn builders_compose() {
        let g = Gate::new(CellKind::Nand2, vec![])
            .with_drive(4.0)
            .with_wire_cap(Farads::from_femto(2.0))
            .as_output();
        assert_eq!(g.drive, 4.0);
        assert!(g.is_output);
        assert!((g.wire_cap.as_femto() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gate_id_display() {
        assert_eq!(format!("{}", GateId::from_index(12)), "g12");
    }

    #[test]
    fn diamond_topology_fanouts() {
        //      0
        //    /   \
        //   1     2
        //    \   /
        //      3
        let nl = Netlist::new(vec![
            Gate::new(CellKind::Inverter, vec![]),
            Gate::new(CellKind::Inverter, vec![GateId::from_index(0)]),
            Gate::new(CellKind::Inverter, vec![GateId::from_index(0)]),
            Gate::new(
                CellKind::Nand2,
                vec![GateId::from_index(1), GateId::from_index(2)],
            )
            .as_output(),
        ])
        .unwrap();
        assert_eq!(nl.fanouts(GateId::from_index(0)).len(), 2);
        assert_eq!(nl.gate(GateId::from_index(3)).fanins.len(), 2);
    }

    #[test]
    fn streamed_builder_matches_batch_construction() {
        // The same diamond through both constructors: equal structure,
        // equal digests, equal adjacency.
        let gates = vec![
            Gate::new(CellKind::Inverter, vec![]),
            Gate::new(CellKind::Inverter, vec![GateId::from_index(0)]),
            Gate::new(CellKind::Inverter, vec![GateId::from_index(0)]),
            Gate::new(
                CellKind::Nand2,
                vec![GateId::from_index(1), GateId::from_index(2)],
            )
            .as_output(),
        ];
        let batch = Netlist::new(gates.clone()).unwrap();
        let mut b = NetlistBuilder::with_capacity(gates.len(), 4);
        for g in &gates {
            b.push(g).unwrap();
        }
        let streamed = b.finish().unwrap();
        assert_eq!(batch.topology_digest(), streamed.topology_digest());
        for id in batch.ids() {
            assert_eq!(batch.fanins(id), streamed.fanins(id));
            assert_eq!(batch.fanouts(id), streamed.fanouts(id));
            assert_eq!(batch.gate(id).kind, streamed.gate(id).kind);
        }
        assert_eq!(batch.timing_endpoints(), streamed.timing_endpoints());
    }

    #[test]
    fn builder_rejects_forward_references_and_empty() {
        let mut b = NetlistBuilder::with_capacity(0, 0);
        let err = b
            .push(&Gate::new(CellKind::Inverter, vec![GateId::from_index(1)]))
            .unwrap_err();
        assert!(matches!(err, CircuitError::UnknownGate { index: 1 }));
        assert!(matches!(
            NetlistBuilder::with_capacity(0, 0).finish(),
            Err(CircuitError::EmptyNetlist)
        ));
    }
}
