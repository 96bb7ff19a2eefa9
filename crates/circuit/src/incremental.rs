//! Incremental arrival-time maintenance.
//!
//! The optimization loops (CVS, dual-Vth, sizing) try thousands to
//! millions of single-gate changes, each followed by a feasibility check.
//! Re-running full STA costs `O(gates)` per probe; this engine
//! re-propagates arrivals only through the *affected cone* — the changed
//! gate, the gates whose load it alters (its fan-ins), and whatever
//! downstream actually moves — which is typically a tiny fraction of the
//! design. Every working buffer persists across calls, so a probe on a
//! 10⁷-cell netlist allocates nothing and touches only the cone.
//!
//! # The worklist
//!
//! Pending gates live in a two-level bitset over topological rank: bit
//! `r` of `bits` marks the gate of rank `r` as queued, and bit `w` of
//! `summary` marks `bits[w]` as non-empty. Queueing a gate is two
//! OR-stores (deduplicating for free); popping takes the lowest set bit
//! of the first non-empty summary word at or above a low-water cursor,
//! then of the word it names — strict rank order, with two
//! `trailing_zeros` per pop. Re-propagation only ever queues fan-outs,
//! which rank above the gate being popped, so the cursor moves down only
//! while a call queues its seeds.
//!
//! The engine maintains exact arrivals (identical to
//! [`TimingContext::analyze`]) plus an incrementally-updated count of
//! endpoint violations against the context clock, making
//! [`IncrementalSta::is_feasible`] O(1).
//!
//! # View validity
//!
//! The tracker captures the netlist's [topology
//! digest](crate::netlist::Netlist::topology_digest) at construction.
//! Every update call re-validates the digest of the netlist it is handed
//! and returns [`CircuitError::StaleTimingView`] on mismatch — assignment
//! mutations (drive/supply/Vth/wire) are fine, but silently swapping in a
//! structurally different netlist is a typed error instead of garbage
//! arrivals.

use crate::error::CircuitError;
use crate::netlist::{GateId, Netlist};
use crate::sta::TimingContext;
use np_units::Seconds;

/// Arrivals within this absolute tolerance (seconds) are considered
/// unchanged, stopping re-propagation.
const MOVE_EPSILON: f64 = 1e-21;

/// Slack this far below zero (seconds) still counts as meeting the clock —
/// the same tolerance full STA's feasibility check uses.
const FEASIBILITY_SLOP: f64 = 1e-18;

/// Size of the cone a [`IncrementalSta::reevaluate`] call actually
/// touched — the acceptance metric for incrementality (`visited ≪ n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConeStats {
    /// Gates popped from the worklist (arrival recomputed).
    pub visited: usize,
    /// Gates whose arrival actually moved (> 1e-21 s).
    pub moved: usize,
}

/// Exact incremental arrival tracker over one netlist + timing context.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_circuit::CircuitError> {
/// use np_circuit::{generate_netlist, IncrementalSta, NetlistSpec, TimingContext, VthClass};
/// use np_roadmap::TechNode;
///
/// let mut netlist = generate_netlist(&NetlistSpec::small(9));
/// let ctx = TimingContext::for_node(TechNode::N100)?;
/// let clock = ctx.analyze(&netlist)?.critical_delay() * 1.2;
/// let ctx = ctx.with_clock(clock);
///
/// let mut sta = IncrementalSta::new(&ctx, &netlist);
/// let id = netlist.timing_endpoints()[0];
/// netlist.gate_mut(id).set_vth(VthClass::High);
/// let cone = sta.reevaluate(&netlist, id)?;
/// // Only the endpoint's fan-out cone was touched, not the whole design.
/// assert!(cone.visited < netlist.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSta<'a> {
    ctx: &'a TimingContext,
    /// Topology digest of the netlist this state was built from.
    digest: u64,
    /// Topological rank of each gate (for ordered re-propagation).
    rank: Vec<u32>,
    /// The gate of each rank: the construction netlist's topological
    /// order. Kept here rather than read from the netlist handed to each
    /// call, because the view check pins the topology, not which of its
    /// valid orders that netlist was built with.
    order: Vec<GateId>,
    /// Current gate delays.
    delay: Vec<Seconds>,
    /// Current arrival times.
    arrival: Vec<Seconds>,
    /// True for timing endpoints (topology-fixed).
    is_endpoint: Vec<bool>,
    /// Number of endpoints currently violating the context clock —
    /// maintained on every arrival move so feasibility probes are O(1).
    violations: usize,
    /// Worklist, one bit per topological rank. Invariant: all-zero
    /// between calls (bits clear as they pop), so no O(n) reset per probe.
    bits: Vec<u64>,
    /// One bit per non-empty word of `bits`.
    summary: Vec<u64>,
    /// Low-water mark: every word of `bits` below it is empty;
    /// `bits.len()` when the worklist is empty.
    cursor: usize,
}

impl<'a> IncrementalSta<'a> {
    /// Builds the tracker with a full initial propagation.
    pub fn new(ctx: &'a TimingContext, netlist: &Netlist) -> Self {
        let n = netlist.len();
        let mut rank = vec![0u32; n];
        for (r, id) in netlist.topological_order().iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        let mut is_endpoint = vec![false; n];
        for id in netlist.timing_endpoints() {
            is_endpoint[id.index()] = true;
        }
        let words = n.div_ceil(64);
        let delay = ctx.gate_delays(netlist);
        let arrival = ctx.propagate_arrivals(netlist, |id| delay[id.index()]);
        let mut this = Self {
            ctx,
            digest: netlist.topology_digest(),
            rank,
            order: netlist.topological_order().to_vec(),
            delay,
            arrival,
            is_endpoint,
            violations: 0,
            bits: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            cursor: words,
        };
        this.violations = (0..n)
            .filter(|&i| this.is_endpoint[i] && this.violates(this.arrival[i]))
            .count();
        this
    }

    /// Current arrival at a gate's output.
    pub fn arrival_of(&self, id: GateId) -> Seconds {
        self.arrival[id.index()]
    }

    /// Current critical (maximum) arrival. O(n) — intended for reporting,
    /// not inner-loop probing.
    pub fn critical_delay(&self) -> Seconds {
        crate::sta::latest_arrival(&self.arrival)
    }

    /// True when every timing endpoint meets the context clock. O(1):
    /// the violation count is maintained incrementally.
    pub fn is_feasible(&self) -> bool {
        self.violations == 0
    }

    /// Number of endpoints currently missing the context clock.
    pub fn violation_count(&self) -> usize {
        self.violations
    }

    fn violates(&self, arrival: Seconds) -> bool {
        arrival.0 > self.ctx.clock_period.0 + FEASIBILITY_SLOP
    }

    /// Queues a gate for re-propagation (a no-op when already queued).
    #[inline]
    fn enqueue(&mut self, id: GateId) {
        let r = self.rank[id.index()] as usize;
        let w = r >> 6;
        self.bits[w] |= 1 << (r & 63);
        self.summary[w >> 6] |= 1 << (w & 63);
        self.cursor = self.cursor.min(w);
    }

    /// Dequeues the lowest-ranked queued gate.
    #[inline]
    fn pop(&mut self) -> Option<GateId> {
        let mut s = self.cursor >> 6;
        while s < self.summary.len() {
            let top = self.summary[s];
            if top == 0 {
                s += 1;
                continue;
            }
            let w = (s << 6) | top.trailing_zeros() as usize;
            let word = self.bits[w];
            let rest = word & (word - 1);
            self.bits[w] = rest;
            if rest == 0 {
                self.summary[s] = top & (top - 1);
            }
            self.cursor = w;
            return Some(self.order[(w << 6) | word.trailing_zeros() as usize]);
        }
        self.cursor = self.bits.len();
        None
    }

    /// Verifies the handed netlist is the one this state was built from.
    fn check_view(&self, netlist: &Netlist) -> Result<(), CircuitError> {
        let found = netlist.topology_digest();
        if found != self.digest {
            return Err(CircuitError::StaleTimingView {
                expected: self.digest,
                found,
            });
        }
        Ok(())
    }

    /// Re-propagates after the gate `changed` had its assignment (drive,
    /// supply, Vth, or wire cap) mutated in `netlist`.
    ///
    /// The affected set seeded: the changed gate (its own delay and the
    /// conversion penalty on its in-edges changed), its fan-ins (their
    /// load — and hence delay — changed when the drive changed), and its
    /// fan-outs (supply changes alter conversion penalties on out-edges).
    /// From there arrivals re-propagate in topological-rank order,
    /// stopping wherever an arrival comes out unchanged.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StaleTimingView`] when `netlist`'s topology digest
    /// differs from the one captured at [`IncrementalSta::new`].
    pub fn reevaluate(
        &mut self,
        netlist: &Netlist,
        changed: GateId,
    ) -> Result<ConeStats, CircuitError> {
        self.reevaluate_batch(netlist, &[changed])
    }

    /// Batch form of [`reevaluate`](IncrementalSta::reevaluate) for
    /// multi-gate moves: seeds every changed gate's neighborhood first,
    /// then runs one rank-ordered propagation pass, so overlapping cones
    /// are each visited once instead of once per change.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StaleTimingView`] when `netlist`'s topology digest
    /// differs from the one captured at [`IncrementalSta::new`].
    pub fn reevaluate_batch(
        &mut self,
        netlist: &Netlist,
        changed: &[GateId],
    ) -> Result<ConeStats, CircuitError> {
        self.check_view(netlist)?;
        for &c in changed {
            // Fan-ins: their load changed; their delay must be refreshed.
            for i in 0..netlist.fanins(c).len() {
                let f = netlist.fanins(c)[i];
                self.delay[f.index()] = self.ctx.gate_delay(netlist, f);
                self.enqueue(f);
            }
            self.delay[c.index()] = self.ctx.gate_delay(netlist, c);
            self.enqueue(c);
            for i in 0..netlist.fanouts(c).len() {
                self.enqueue(netlist.fanouts(c)[i]);
            }
        }
        let mut stats = ConeStats::default();
        while let Some(id) = self.pop() {
            let idx = id.index();
            stats.visited += 1;
            let fresh = self
                .ctx
                .output_arrival(netlist, &self.arrival, id, self.delay[idx]);
            if (fresh.0 - self.arrival[idx].0).abs() > MOVE_EPSILON {
                if self.is_endpoint[idx] {
                    let was = self.violates(self.arrival[idx]);
                    let now = self.violates(fresh);
                    match (was, now) {
                        (false, true) => self.violations += 1,
                        (true, false) => self.violations -= 1,
                        _ => {}
                    }
                }
                self.arrival[idx] = fresh;
                stats.moved += 1;
                for i in 0..netlist.fanouts(id).len() {
                    self.enqueue(netlist.fanouts(id)[i]);
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{SupplyClass, VthClass};
    use crate::generate::{generate_netlist, NetlistSpec};
    use crate::netlist::{Gate, NetlistBuilder};
    use np_roadmap::TechNode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(96));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * 1.2))
    }

    fn assert_matches_full_sta(inc: &IncrementalSta<'_>, netlist: &Netlist, ctx: &TimingContext) {
        let full = ctx.analyze(netlist).unwrap();
        for id in netlist.ids() {
            let a = inc.arrival_of(id).0;
            let b = full.arrival[id.index()].0;
            assert!((a - b).abs() < 1e-18, "{id}: incremental {a} vs full {b}");
        }
        assert_eq!(inc.is_feasible(), full.is_feasible());
    }

    #[test]
    fn initial_propagation_matches_full_sta() {
        let (nl, ctx) = setup();
        let inc = IncrementalSta::new(&ctx, &nl);
        assert_matches_full_sta(&inc, &nl, &ctx);
        assert!(inc.is_feasible());
        assert_eq!(inc.violation_count(), 0);
    }

    #[test]
    fn random_mutations_stay_exact() {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        let mut rng = StdRng::seed_from_u64(1);
        let ids: Vec<GateId> = nl.ids().collect();
        for _ in 0..120 {
            let id = ids[rng.random_range(0..ids.len())];
            match rng.random_range(0..4) {
                0 => nl.gate_mut(id).set_supply(SupplyClass::Low),
                1 => nl.gate_mut(id).set_supply(SupplyClass::High),
                2 => nl.gate_mut(id).set_vth(VthClass::High),
                _ => nl
                    .gate_mut(id)
                    .set_drive([0.5, 1.0, 2.0, 4.0][rng.random_range(0..4)]),
            }
            inc.reevaluate(&nl, id).unwrap();
            assert_matches_full_sta(&inc, &nl, &ctx);
        }
    }

    #[test]
    fn feasibility_tracks_full_sta() {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        let ids: Vec<GateId> = nl.ids().collect();
        for &id in &ids {
            nl.gate_mut(id).set_supply(SupplyClass::Low);
            inc.reevaluate(&nl, id).unwrap();
            let full = ctx.analyze(&nl).unwrap();
            assert_eq!(inc.is_feasible(), full.is_feasible(), "diverged at {id}");
            // Revert to keep the design mostly feasible.
            if !inc.is_feasible() {
                nl.gate_mut(id).set_supply(SupplyClass::High);
                inc.reevaluate(&nl, id).unwrap();
            }
        }
    }

    #[test]
    fn touched_cone_is_small() {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        // A leaf-level change should move far fewer arrivals than the
        // whole netlist.
        let id = nl.timing_endpoints()[0];
        nl.gate_mut(id).set_vth(VthClass::High);
        let cone = inc.reevaluate(&nl, id).unwrap();
        assert!(
            cone.moved <= 3,
            "endpoint change moved {} arrivals",
            cone.moved
        );
        assert!(cone.visited < nl.len() / 4);
    }

    #[test]
    fn critical_delay_matches_full() {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        let ids: Vec<GateId> = nl.ids().collect();
        for &id in ids.iter().take(30) {
            nl.gate_mut(id).set_drive(2.0);
            inc.reevaluate(&nl, id).unwrap();
        }
        let full = ctx.analyze(&nl).unwrap();
        assert!((inc.critical_delay().0 - full.critical_delay().0).abs() < 1e-18);
    }

    #[test]
    fn batch_reevaluate_matches_sequential() {
        let (nl, ctx) = setup();
        let ids: Vec<GateId> = nl.ids().collect();
        let moved: Vec<GateId> = ids.iter().copied().step_by(17).collect();

        let mut nl_a = nl.clone();
        let mut inc_a = IncrementalSta::new(&ctx, &nl_a);
        for &id in &moved {
            nl_a.gate_mut(id).set_drive(4.0);
            inc_a.reevaluate(&nl_a, id).unwrap();
        }

        let mut nl_b = nl.clone();
        let mut inc_b = IncrementalSta::new(&ctx, &nl_b);
        for &id in &moved {
            nl_b.gate_mut(id).set_drive(4.0);
        }
        inc_b.reevaluate_batch(&nl_b, &moved).unwrap();

        for id in nl_b.ids() {
            assert_eq!(inc_a.arrival_of(id).0, inc_b.arrival_of(id).0, "{id}");
        }
        assert_matches_full_sta(&inc_b, &nl_b, &ctx);
    }

    /// The same topology built by the other constructor has the same
    /// digest but another topological order; the view must still map
    /// its ranks to the right gates.
    #[test]
    fn view_accepts_the_same_topology_in_another_order() -> Result<(), CircuitError> {
        let (nl, ctx) = setup();
        let mut builder = NetlistBuilder::with_capacity(nl.len(), 0);
        for id in nl.ids() {
            let g = nl.gate(id);
            let gate = Gate::new(g.kind, g.fanins.to_vec())
                .with_drive(g.drive)
                .with_wire_cap(g.wire_cap);
            builder.push(&if g.is_output { gate.as_output() } else { gate })?;
        }
        let mut streamed = builder.finish()?;
        assert_eq!(streamed.topology_digest(), nl.topology_digest());
        assert_ne!(streamed.topological_order(), nl.topological_order());
        let mut inc = IncrementalSta::new(&ctx, &nl);
        for id in nl.ids().step_by(5) {
            streamed.gate_mut(id).set_supply(SupplyClass::Low);
            inc.reevaluate(&streamed, id)?;
        }
        assert_matches_full_sta(&inc, &streamed, &ctx);
        Ok(())
    }

    #[test]
    fn stale_view_is_a_typed_error() {
        let (nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        // A structurally different netlist (one gate fewer) must be
        // rejected, not silently mixed with cached arrivals.
        let mut spec = NetlistSpec::small(96);
        spec.gates -= 1;
        let other = generate_netlist(&spec);
        let err = inc
            .reevaluate(&other, other.ids().next().unwrap())
            .unwrap_err();
        assert!(matches!(err, CircuitError::StaleTimingView { .. }));
        // The original view still works.
        assert!(inc.reevaluate(&nl, nl.ids().next().unwrap()).is_ok());
    }

    fn assert_worklist_empty(inc: &IncrementalSta<'_>, label: &str) {
        assert!(inc.bits.iter().all(|&w| w == 0), "{label}: rank bits set");
        assert!(
            inc.summary.iter().all(|&w| w == 0),
            "{label}: summary bits set"
        );
        assert_eq!(inc.cursor, inc.bits.len(), "{label}: cursor left low");
    }

    #[test]
    fn worklist_buffers_stay_clean_across_calls() {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        for round in 0..5 {
            let id = GateId::from_index(round * 7);
            nl.gate_mut(id).set_drive(2.0);
            inc.reevaluate(&nl, id).unwrap();
            assert_worklist_empty(&inc, &format!("round {round}"));
        }
        assert_matches_full_sta(&inc, &nl, &ctx);
    }

    /// The bitset's word (64 ranks) and summary-word (4 096 ranks)
    /// boundaries, on both construction paths (streamed: rank = index;
    /// batch: Kahn order, rank ≠ index). Seeds arrive in descending rank
    /// order, so every seed pulls the low-water cursor down.
    #[test]
    fn bitset_boundaries_and_descending_seeds() -> Result<(), CircuitError> {
        let base = TimingContext::for_node(TechNode::N100)?;
        for n in [63, 64, 65, 4_095, 4_096, 4_097] {
            let batch = NetlistSpec {
                gates: n,
                ..NetlistSpec::small(n as u64)
            };
            for spec in [NetlistSpec::large(n as u64, n), batch] {
                let mut nl = generate_netlist(&spec);
                let ctx = base
                    .clone()
                    .with_clock(base.analyze(&nl)?.critical_delay() * 1.2);
                let mut inc = IncrementalSta::new(&ctx, &nl);
                let mut ranks: Vec<usize> = (0..n)
                    .step_by(37)
                    .chain([62, 63, 64, 65, 4_094, 4_095, 4_096, n - 1])
                    .filter(|&r| r < n)
                    .collect();
                ranks.sort_unstable_by(|a, b| b.cmp(a));
                ranks.dedup();

                // The bitset alone: out-of-order pushes pop in strict
                // rank order.
                let order = nl.topological_order().to_vec();
                for &r in &ranks {
                    inc.enqueue(order[r]);
                }
                let mut popped = Vec::new();
                while let Some(id) = inc.pop() {
                    popped.push(inc.rank[id.index()] as usize);
                }
                let mut ascending = ranks.clone();
                ascending.reverse();
                assert_eq!(popped, ascending, "n = {n}");
                assert_worklist_empty(&inc, &format!("n = {n}"));

                // A batch re-timing seeded in descending rank order.
                let seeds: Vec<GateId> = ranks.iter().map(|&r| order[r]).collect();
                for (k, &id) in seeds.iter().enumerate() {
                    match k % 3 {
                        0 => nl.gate_mut(id).set_supply(SupplyClass::Low),
                        1 => nl.gate_mut(id).set_vth(VthClass::High),
                        _ => nl.gate_mut(id).set_drive(0.5),
                    }
                }
                let cone = inc.reevaluate_batch(&nl, &seeds)?;
                assert!(cone.visited >= seeds.len(), "n = {n}");
                assert_worklist_empty(&inc, &format!("n = {n}"));
                assert_matches_full_sta(&inc, &nl, &ctx);
            }
        }
        Ok(())
    }
}
