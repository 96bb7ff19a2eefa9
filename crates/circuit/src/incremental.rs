//! Incremental arrival-time maintenance.
//!
//! The optimization loops (CVS, dual-Vth, sizing) try thousands to
//! millions of single-gate changes, each followed by a feasibility check.
//! Re-running full STA costs `O(gates)` per probe; this engine
//! re-propagates arrivals only through the *affected cone* — the changed
//! gate, the gates whose load it alters (its fan-ins), and whatever
//! downstream actually rises — which is typically a tiny fraction of the
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
//! # Deferred falls and the exact verdict
//!
//! A falling arrival can never push an endpoint past the clock, so a
//! re-timing pass propagates only rises. When a gate's recomputed
//! arrival falls, the pass keeps the stored value and marks the gate's
//! rank in `stale`, a second two-level rank bitset, without queueing its
//! fan-outs. Between calls this holds:
//!
//! - every stored arrival is an upper bound of the exact one (the
//!   arrival [`TimingContext::analyze`] computes);
//! - every gate outside `stale` agrees with its fan-ins and its delay;
//! - the violation count counts endpoints whose *stored* arrival misses
//!   the clock, so it can only over-count.
//!
//! A count of zero therefore proves the exact state feasible. A positive
//! count **settles**: the stale ranks join the worklist and a two-way
//! pass propagates falls and rises alike, after which every arrival and
//! the count are exact. So [`IncrementalSta::is_feasible`] is exact, and
//! O(1), after every call, while an accepted move pays only for its
//! rises. The arrival read ([`IncrementalSta::arrival_of`]) settles
//! first, so no read returns an upper bound. Settling costs one
//! pass over the stale summary words plus the stale words they name.
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
    /// Gates popped from the worklist (arrival recomputed), settling
    /// included.
    pub visited: usize,
    /// Gates whose stored arrival moved (> 1e-21 s): rises, and the falls
    /// a settle propagated.
    pub moved: usize,
}

/// Incremental arrival tracker over one netlist + timing context, with an
/// exact feasibility verdict.
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
/// assert!(sta.is_feasible());
/// // Reads settle any deferred falls first, so they match full STA.
/// let full = ctx.analyze(&netlist)?;
/// assert!((sta.arrival_of(&netlist, id)?.0 - full.arrival[id.index()].0).abs() < 1e-18);
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
    /// Stored arrival times: upper bounds of the exact ones, exact at
    /// every gate whose fan-in cone holds no `stale` rank.
    arrival: Vec<Seconds>,
    /// True for timing endpoints (topology-fixed).
    is_endpoint: Vec<bool>,
    /// Number of endpoints whose stored arrival violates the context
    /// clock — maintained on every stored move so feasibility probes are
    /// O(1); exact whenever it is zero or `stale` is empty.
    violations: usize,
    /// Worklist, one bit per topological rank. Invariant: all-zero
    /// between calls (bits clear as they pop), so no O(n) reset per probe.
    bits: Vec<u64>,
    /// One bit per non-empty word of `bits`.
    summary: Vec<u64>,
    /// Low-water mark: every word of `bits` below it is empty;
    /// `bits.len()` when the worklist is empty.
    cursor: usize,
    /// Ranks whose stored arrival may sit above what their fan-ins and
    /// delay give (a deferred fall), one bit per rank. Fixed-size, like
    /// `bits`, so deferring allocates nothing.
    stale: Vec<u64>,
    /// One bit per non-empty word of `stale`.
    stale_summary: Vec<u64>,
}

/// Sets rank `r` in a two-level rank bitset.
#[inline]
fn mark(bits: &mut [u64], summary: &mut [u64], r: usize) {
    let w = r >> 6;
    bits[w] |= 1 << (r & 63);
    summary[w >> 6] |= 1 << (w & 63);
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
            stale: vec![0; words],
            stale_summary: vec![0; words.div_ceil(64)],
        };
        this.violations = (0..n)
            .filter(|&i| this.is_endpoint[i] && this.violates(this.arrival[i]))
            .count();
        this
    }

    /// Exact arrival at a gate's output. Settles any deferred falls
    /// first, hence `&mut self` and the netlist.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StaleTimingView`] when `netlist`'s topology digest
    /// differs from the one captured at [`IncrementalSta::new`].
    pub fn arrival_of(&mut self, netlist: &Netlist, id: GateId) -> Result<Seconds, CircuitError> {
        self.check_view(netlist)?;
        self.settle(netlist, &mut ConeStats::default());
        Ok(self.arrival[id.index()])
    }

    /// True when every timing endpoint meets the context clock. O(1):
    /// the violation count is maintained incrementally, and every update
    /// call that leaves it positive settles, so the verdict is exact.
    pub fn is_feasible(&self) -> bool {
        self.violations == 0
    }

    fn violates(&self, arrival: Seconds) -> bool {
        arrival.0 > self.ctx.clock_period.0 + FEASIBILITY_SLOP
    }

    /// Queues a gate for re-propagation (a no-op when already queued).
    #[inline]
    fn enqueue(&mut self, id: GateId) {
        let r = self.rank[id.index()] as usize;
        mark(&mut self.bits, &mut self.summary, r);
        self.cursor = self.cursor.min(r >> 6);
    }

    /// Dequeues the lowest queued rank.
    #[inline]
    fn pop(&mut self) -> Option<usize> {
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
            return Some((w << 6) | word.trailing_zeros() as usize);
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
    /// From there arrivals re-propagate in topological-rank order. A
    /// rise is stored and its fan-outs queued; a fall keeps the stored
    /// upper bound and marks the gate stale; an unchanged arrival stops
    /// there. If an endpoint's stored arrival then misses the clock, the
    /// call settles every deferred fall, so the verdict
    /// ([`IncrementalSta::is_feasible`]) is exact on return either way.
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
        self.propagate(netlist, true, &mut stats);
        if self.violations > 0 {
            self.settle(netlist, &mut stats);
        }
        Ok(stats)
    }

    /// Queues every stale rank and propagates falls and rises alike, after
    /// which every stored arrival and the violation count are exact.
    /// Costs one pass over `stale_summary` plus the stale words it names.
    fn settle(&mut self, netlist: &Netlist, stats: &mut ConeStats) {
        for s in 0..self.stale_summary.len() {
            let top = std::mem::take(&mut self.stale_summary[s]);
            if top == 0 {
                continue;
            }
            self.summary[s] |= top;
            self.cursor = self.cursor.min((s << 6) | top.trailing_zeros() as usize);
            let mut rest = top;
            while rest != 0 {
                let w = (s << 6) | rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.bits[w] |= std::mem::take(&mut self.stale[w]);
            }
        }
        self.propagate(netlist, false, stats);
    }

    /// Drains the worklist in rank order. With `defer_falls`, a falling
    /// arrival is left stored and its rank marked stale; otherwise it is
    /// stored and propagated like a rise.
    fn propagate(&mut self, netlist: &Netlist, defer_falls: bool, stats: &mut ConeStats) {
        while let Some(r) = self.pop() {
            let id = self.order[r];
            let idx = id.index();
            stats.visited += 1;
            let fresh = self
                .ctx
                .output_arrival(netlist, &self.arrival, id, self.delay[idx]);
            let step = fresh.0 - self.arrival[idx].0;
            if !(step.abs() > MOVE_EPSILON) {
                continue;
            }
            if step < 0.0 && defer_falls {
                mark(&mut self.stale, &mut self.stale_summary, r);
                continue;
            }
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

    /// Holds the tracker to full STA: before settling, the verdict must
    /// already agree and every stored arrival must bound the exact one
    /// from above; after settling, every arrival must match.
    fn assert_matches_full_sta(
        inc: &mut IncrementalSta<'_>,
        netlist: &Netlist,
        ctx: &TimingContext,
    ) -> Result<(), CircuitError> {
        let full = ctx.analyze(netlist)?;
        assert_eq!(inc.is_feasible(), full.is_feasible(), "verdict");
        for id in netlist.ids() {
            let stored = inc.arrival[id.index()].0;
            let exact = full.arrival[id.index()].0;
            assert!(
                stored >= exact - 1e-18,
                "{id}: stored {stored} below exact {exact}"
            );
        }
        for id in netlist.ids() {
            let a = inc.arrival_of(netlist, id)?.0;
            let b = full.arrival[id.index()].0;
            assert!((a - b).abs() < 1e-18, "{id}: incremental {a} vs full {b}");
        }
        assert_stale_empty(inc, "after settling");
        assert_eq!(inc.is_feasible(), full.is_feasible());
        Ok(())
    }

    fn assert_stale_empty(inc: &IncrementalSta<'_>, label: &str) {
        assert!(inc.stale.iter().all(|&w| w == 0), "{label}: stale bits set");
        assert!(
            inc.stale_summary.iter().all(|&w| w == 0),
            "{label}: stale summary bits set"
        );
    }

    #[test]
    fn initial_propagation_matches_full_sta() -> Result<(), CircuitError> {
        let (nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        assert_matches_full_sta(&mut inc, &nl, &ctx)?;
        assert!(inc.is_feasible());
        assert!(inc.is_feasible());
        Ok(())
    }

    #[test]
    fn random_mutations_stay_exact() -> Result<(), CircuitError> {
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
            inc.reevaluate(&nl, id)?;
            assert_matches_full_sta(&mut inc, &nl, &ctx)?;
        }
        Ok(())
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

    /// A fall stores nothing and queues nothing: the gate's rank goes
    /// stale, the verdict stays exact, and the next read settles it.
    #[test]
    fn falls_are_deferred_until_a_read_settles() -> Result<(), CircuitError> {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        let id = nl
            .ids()
            .find(|&id| !nl.fanouts(id).is_empty())
            .ok_or(CircuitError::BadParameter("no gate with fan-outs"))?;
        nl.gate_mut(id).set_vth(VthClass::High);
        inc.reevaluate(&nl, id)?;
        let raised = inc.arrival[id.index()];
        nl.gate_mut(id).set_vth(VthClass::Low);
        let cone = inc.reevaluate(&nl, id)?;
        // Only the seeds were visited: a Vth swap keeps the input cap, so
        // the fan-ins hold, and the fan-outs still read the stored bound.
        assert!(cone.visited <= nl.fanins(id).len() + 1 + nl.fanouts(id).len());
        assert_eq!(cone.moved, 0);
        assert_eq!(inc.arrival[id.index()], raised);
        let r = inc.rank[id.index()] as usize;
        assert_ne!(inc.stale[r >> 6] & (1 << (r & 63)), 0, "{id} not stale");
        assert!(inc.is_feasible());
        assert_matches_full_sta(&mut inc, &nl, &ctx)
    }

    /// At a 1.00× clock a move on the critical path misses. Reverting it
    /// is a fall, so the stored endpoint arrival stays above the clock
    /// until the settle inside the same call propagates it: the verdict
    /// after the revert is exact and nothing stays stale.
    #[test]
    fn a_reverted_miss_settles_within_the_call() -> Result<(), CircuitError> {
        let mut nl = generate_netlist(&NetlistSpec::small(96));
        let base = TimingContext::for_node(TechNode::N100)?;
        let report = base.analyze(&nl)?;
        let ctx = base.with_clock(report.critical_delay());
        let mut inc = IncrementalSta::new(&ctx, &nl);
        // The least-slack interior gate sits on a critical path.
        let interior = nl
            .ids()
            .filter(|&id| !nl.fanins(id).is_empty() && !nl.fanouts(id).is_empty());
        let id = interior
            .min_by(|a, b| {
                report.slack[a.index()]
                    .0
                    .total_cmp(&report.slack[b.index()].0)
            })
            .ok_or(CircuitError::EmptyNetlist)?;
        nl.gate_mut(id).set_vth(VthClass::High);
        inc.reevaluate(&nl, id)?;
        assert!(!inc.is_feasible());
        assert!(!ctx.analyze(&nl)?.is_feasible());
        nl.gate_mut(id).set_vth(VthClass::Low);
        let cone = inc.reevaluate(&nl, id)?;
        assert!(inc.is_feasible());
        assert!(cone.moved > 0, "the settle propagated no fall");
        assert_stale_empty(&inc, "after the revert");
        assert_matches_full_sta(&mut inc, &nl, &ctx)
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
    fn critical_delay_matches_full() -> Result<(), CircuitError> {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        let ids: Vec<GateId> = nl.ids().collect();
        for &id in ids.iter().take(30) {
            nl.gate_mut(id).set_drive(2.0);
            inc.reevaluate(&nl, id)?;
        }
        let full = ctx.analyze(&nl)?;
        assert_eq!(inc.is_feasible(), full.is_feasible());
        let stored = crate::sta::latest_arrival(&inc.arrival);
        assert!(stored.0 >= full.critical_delay().0 - 1e-18);
        inc.arrival_of(&nl, ids[0])?;
        let settled = crate::sta::latest_arrival(&inc.arrival);
        assert!((settled.0 - full.critical_delay().0).abs() < 1e-18);
        Ok(())
    }

    #[test]
    fn batch_reevaluate_matches_sequential() -> Result<(), CircuitError> {
        let (nl, ctx) = setup();
        let ids: Vec<GateId> = nl.ids().collect();
        let moved: Vec<GateId> = ids.iter().copied().step_by(17).collect();

        let mut nl_a = nl.clone();
        let mut inc_a = IncrementalSta::new(&ctx, &nl_a);
        for &id in &moved {
            nl_a.gate_mut(id).set_drive(4.0);
            inc_a.reevaluate(&nl_a, id)?;
        }

        let mut nl_b = nl.clone();
        let mut inc_b = IncrementalSta::new(&ctx, &nl_b);
        for &id in &moved {
            nl_b.gate_mut(id).set_drive(4.0);
        }
        inc_b.reevaluate_batch(&nl_b, &moved)?;

        assert_eq!(inc_a.is_feasible(), inc_b.is_feasible());
        for id in nl_b.ids() {
            let a = inc_a.arrival_of(&nl_a, id)?.0;
            let b = inc_b.arrival_of(&nl_b, id)?.0;
            assert_eq!(a, b, "{id}");
        }
        assert_matches_full_sta(&mut inc_b, &nl_b, &ctx)
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
        assert_matches_full_sta(&mut inc, &streamed, &ctx)
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
    fn worklist_buffers_stay_clean_across_calls() -> Result<(), CircuitError> {
        let (mut nl, ctx) = setup();
        let mut inc = IncrementalSta::new(&ctx, &nl);
        for round in 0..5 {
            let id = GateId::from_index(round * 7);
            nl.gate_mut(id).set_drive(2.0);
            inc.reevaluate(&nl, id)?;
            assert_worklist_empty(&inc, &format!("round {round}"));
        }
        assert_matches_full_sta(&mut inc, &nl, &ctx)
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
                while let Some(r) = inc.pop() {
                    assert_eq!(inc.rank[order[r].index()] as usize, r);
                    popped.push(r);
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
                assert_matches_full_sta(&mut inc, &nl, &ctx)?;
            }
        }
        Ok(())
    }
}
