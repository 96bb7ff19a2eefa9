//! The §3.3 co-optimization loop as a parallel, deterministic optimizer.
//!
//! The sequential strategies ([`crate::cvs`], [`crate::dualvth`],
//! [`crate::sizing`]) each walk the whole netlist in one fixed order,
//! probing one move at a time — fine at 10³ gates, hopeless at 10⁷. This
//! driver restructures the loop so the expensive part parallelizes while
//! the result stays bitwise identical at any worker count:
//!
//! 1. **Freeze** the round: one full STA gives every gate's slack.
//! 2. **Score in parallel**: workers partition the gate range and compute,
//!    for each gate, the best candidate move (low supply, high Vth, or
//!    one sizing step down) with its estimated power/area gain and delay
//!    cost. Scoring is a *pure function of the frozen round state* — no
//!    worker reads anything another worker writes — so the proposal set
//!    cannot depend on scheduling.
//! 3. **Sort deterministically**: proposals order by gain (descending,
//!    `total_cmp`), ties by gate index.
//! 4. **Accept sequentially** in that fixed order, each move verified
//!    by incremental STA's exact verdict ([`IncrementalSta`]) and
//!    reverted if any endpoint would miss the clock. Timing is therefore
//!    a hard constraint — accepted rounds keep TNS at zero — while
//!    leakage, dynamic power, and area trade off through the scalar gain.
//!
//! The cost function per move is `Δleakage + Δdynamic + λ_A·Δarea`
//! (watts; area in unit-inverter widths valued at `λ_A`, the leakage of
//! one unit width at the nominal corner), maximized subject to TNS = 0.
//!
//! Rounds repeat — each round's accepted moves free or consume slack for
//! the next — until a round accepts nothing or `max_rounds` is reached.

use crate::cvs::CONVERTER_AREA_UNITS;
use crate::error::OptError;
use crate::sizing::{MIN_DRIVE, SIZING_STEP};
use np_circuit::cell::{SupplyClass, VthClass};
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
use np_circuit::power::{level_converter_count, netlist_power, off_current_table, PowerReport};
use np_circuit::sta::{TimingContext, TimingReport};
use np_units::{Hertz, Microns};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How often the scoring loop polls the cancel closure, in gates.
const SCORE_CANCEL_STRIDE: usize = 1024;

/// How often the accept loop polls the cancel closure, in proposals.
const ACCEPT_CANCEL_STRIDE: usize = 256;

/// Fraction of a gate's frozen slack a move's estimated delay cost may
/// consume for the move to be proposed. The exact check at accept time is
/// incremental STA; this only prunes hopeless candidates.
const SLACK_SAFETY: f64 = 0.9;

/// The process-wide scoring thread budget; `0` means "unset", which
/// resolves to the machine's available parallelism.
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The scoring workers an optimizer run uses when
/// [`ParallelOptions::workers`] is `None`.
///
/// Defaults to [`std::thread::available_parallelism`]; the engine caps
/// it while its worker threads run (via [`scoped_thread_budget`]), so
/// engine workers and scoring workers don't oversubscribe the machine.
pub fn thread_budget() -> usize {
    match THREAD_BUDGET.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Caps [`thread_budget`] at `budget` (at least 1) until the returned
/// guard is dropped, which restores the previous setting.
///
/// The budget is process-global: the engine installs one guard around a
/// whole run, dividing the machine between its own workers and each
/// worker's scoring fan-out. Nested guards restore in LIFO drop order.
pub fn scoped_thread_budget(budget: usize) -> ThreadBudgetGuard {
    let previous = THREAD_BUDGET.swap(budget.max(1), Ordering::Relaxed);
    ThreadBudgetGuard { previous }
}

/// Restores the prior [`thread_budget`] on drop; created by
/// [`scoped_thread_budget`].
#[derive(Debug)]
pub struct ThreadBudgetGuard {
    previous: usize,
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        THREAD_BUDGET.store(self.previous, Ordering::Relaxed);
    }
}

/// The kinds of single-gate moves the optimizer proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Reassign the gate to `Vdd,l` (CVS).
    ToLowSupply,
    /// Reassign the gate to the high threshold (dual-Vth).
    ToHighVth,
    /// Step the gate's drive down by one sizing step.
    Downsize,
}

/// One scored candidate move (internal to a round).
#[derive(Debug, Clone, Copy)]
struct Proposal {
    gate: GateId,
    kind: MoveKind,
    /// Estimated power+area gain in watts (positive = improvement).
    gain: f64,
    /// Target drive for [`MoveKind::Downsize`] moves.
    new_drive: f64,
}

/// Configuration of the parallel optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelOptions {
    /// Switching activity used in the power accounting and move scoring.
    pub activity: f64,
    /// Clock frequency for the power accounting; `None` uses the timing
    /// context's clock.
    pub frequency: Option<Hertz>,
    /// Worker threads for the scoring phase; `None` uses the process
    /// [`thread_budget`]. Results are bitwise identical at any worker
    /// count.
    pub workers: Option<usize>,
    /// Maximum optimization rounds (each round is one full-STA freeze +
    /// parallel scoring + sequential accept pass).
    pub max_rounds: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            activity: 0.1,
            frequency: None,
            workers: None,
            max_rounds: 8,
        }
    }
}

/// Per-round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Candidate moves that survived scoring.
    pub proposed: usize,
    /// Moves accepted (timing held).
    pub accepted: usize,
    /// Moves applied and reverted (timing broke).
    pub reverted: usize,
    /// Gates visited by incremental re-timing over the round, settles
    /// included — the accept loop's measured work, compared against
    /// `gates × probes` for the incremental-vs-full saving. A move
    /// propagates only the arrivals it raises and defers the ones it
    /// lowers until a verdict needs them, so this counts the work done,
    /// not the gates whose exact arrival changed.
    pub cone_visited: usize,
}

/// Result of a parallel optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelResult {
    /// Per-round statistics, in order.
    pub rounds: Vec<RoundStats>,
    /// Gates on the low supply after optimization.
    pub low_supply: usize,
    /// Gates on the high threshold after optimization.
    pub high_vth: usize,
    /// Gates whose drive was reduced from its starting value.
    pub downsized: usize,
    /// Power before optimization.
    pub before: PowerReport,
    /// Power after optimization.
    pub after: PowerReport,
    /// Cell area before, in unit-inverter widths (converters included).
    pub area_before: f64,
    /// Cell area after, in unit-inverter widths (converters included).
    pub area_after: f64,
    /// Scoring workers actually used.
    pub workers: usize,
    /// True when the run stopped early because the cancel closure fired;
    /// the netlist is still in a consistent, timing-feasible state.
    pub cancelled: bool,
}

impl ParallelResult {
    /// Total accepted moves over all rounds.
    pub fn total_accepted(&self) -> usize {
        self.rounds.iter().map(|r| r.accepted).sum()
    }

    /// Fractional leakage-power saving.
    pub fn leakage_saving(&self) -> f64 {
        1.0 - self.after.leakage / self.before.leakage
    }

    /// Fractional total-power saving.
    pub fn total_saving(&self) -> f64 {
        1.0 - self.after.total() / self.before.total()
    }

    /// Fractional cell-area change (positive = smaller).
    pub fn area_saving(&self) -> f64 {
        1.0 - self.area_after / self.area_before
    }
}

impl std::fmt::Display for ParallelResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} moves ({} low-Vdd, {} high-Vth, {} downsized): \
             total power -{:.1}%, leakage -{:.1}%, area {:+.1}%",
            self.rounds.len(),
            self.total_accepted(),
            self.low_supply,
            self.high_vth,
            self.downsized,
            self.total_saving() * 100.0,
            self.leakage_saving() * 100.0,
            -self.area_saving() * 100.0,
        )
    }
}

/// FNV-1a fingerprint of the netlist's full assignment state (supply,
/// Vth, drive bits per gate) — byte-for-byte equality of two optimized
/// netlists, used to assert worker-count determinism.
pub fn assignment_digest(netlist: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in netlist.ids() {
        let g = netlist.gate(id);
        eat(&[
            match g.supply {
                SupplyClass::High => 0u8,
                SupplyClass::Low => 1,
            },
            match g.vth {
                VthClass::Low => 0u8,
                VthClass::High => 1,
            },
        ]);
        eat(&g.drive.to_bits().to_le_bytes());
    }
    h
}

/// Total cell area in unit-inverter widths: transistor width of every
/// gate plus [`CONVERTER_AREA_UNITS`] per implied level converter.
pub fn cell_area_units(netlist: &Netlist) -> f64 {
    let gates: f64 = netlist
        .ids()
        .map(|id| {
            let g = netlist.gate(id);
            g.kind.relative_width() * g.drive
        })
        .sum();
    gates + CONVERTER_AREA_UNITS * level_converter_count(netlist) as f64
}

/// Leakage coefficients (watts per µm of leaking width) for the four
/// (supply, vth) corners, plus the area valuation `λ_A`.
struct LeakModel {
    /// Indexed `[supply][vth]` like the context's delay multipliers.
    coeff: [[f64; 2]; 2],
    /// Watts per unit-inverter width of area.
    lambda_area: f64,
    /// µm of leaking width per unit-inverter width.
    unit_width_um: f64,
}

impl LeakModel {
    fn build(ctx: &TimingContext) -> Self {
        let ioff = off_current_table(ctx);
        let mut coeff = [[0.0f64; 2]; 2];
        for (si, supply) in [SupplyClass::High, SupplyClass::Low].iter().enumerate() {
            let vdd = ctx.supply_voltage(*supply);
            for vi in 0..2 {
                coeff[si][vi] = (ioff[si][vi].total(Microns(1.0)) * vdd).0;
            }
        }
        let unit_width_um = ctx.unit_width().0;
        LeakModel {
            coeff,
            lambda_area: coeff[0][0] * unit_width_um,
            unit_width_um,
        }
    }

    fn coeff_of(&self, supply: SupplyClass, vth: VthClass) -> f64 {
        let si = match supply {
            SupplyClass::High => 0,
            SupplyClass::Low => 1,
        };
        let vi = match vth {
            VthClass::Low => 0,
            VthClass::High => 1,
        };
        self.coeff[si][vi]
    }
}

/// Shared, read-only state of one scoring round.
struct RoundView<'a> {
    netlist: &'a Netlist,
    ctx: &'a TimingContext,
    report: &'a TimingReport,
    leak: &'a LeakModel,
    /// Switching energy factor `activity × frequency` (1/s).
    af: f64,
}

impl RoundView<'_> {
    /// Leakage power of a gate under a hypothetical assignment.
    fn leakage_of(&self, id: GateId, supply: SupplyClass, vth: VthClass, drive: f64) -> f64 {
        let kind = self.netlist.kind(id);
        self.leak.coeff_of(supply, vth) * self.leak.unit_width_um * kind.relative_width() * drive
    }

    /// Scores the best move for one gate against the frozen round state,
    /// or `None` when no move is admissible and profitable.
    fn score(&self, id: GateId) -> Option<Proposal> {
        let g = self.netlist.gate(id);
        let i = id.index();
        let slack = self.report.slack[i].0;
        let budget = slack * SLACK_SAFETY;
        let delay = self.report.delay[i].0;
        let mult = self.ctx.delay_multiplier(g.supply, g.vth);
        let mut best: Option<Proposal> = None;
        let mut consider = |kind: MoveKind, gain: f64, est_delay_cost: f64, new_drive: f64| {
            if gain <= 0.0 || est_delay_cost > budget {
                return;
            }
            if best.is_none_or(|b| gain > b.gain) {
                best = Some(Proposal {
                    gate: id,
                    kind,
                    gain,
                    new_drive,
                });
            }
        };

        if g.supply == SupplyClass::High {
            // Clustered CVS: a gate may go low at an endpoint, or once
            // every fan-out has.
            let fanouts = self.netlist.fanouts(id);
            let endpoint = fanouts.is_empty() || g.is_output;
            let admissible = endpoint
                || fanouts
                    .iter()
                    .all(|&f| self.netlist.supply(f) == SupplyClass::Low);
            if admissible {
                let high_fanouts = fanouts
                    .iter()
                    .filter(|&&f| self.netlist.supply(f) == SupplyClass::High)
                    .count();
                let low_fanins = g
                    .fanins
                    .iter()
                    .filter(|&&f| self.netlist.supply(f) == SupplyClass::Low)
                    .count();
                let vh = self.ctx.vdd_high.0;
                let vl = self.ctx.vdd_low.0;
                let c_load = self.ctx.load_of(self.netlist, id).0;
                let mut gain = self.af * c_load * (vh * vh - vl * vl);
                // Converters appear on still-high fan-out edges and
                // disappear on formerly-converting low fan-in edges.
                let conv_delta = high_fanouts as f64 - low_fanins as f64;
                gain -= self.af * (self.ctx.unit_cap().0 * 3.0) * vh * vh * conv_delta;
                gain += self.leakage_of(id, SupplyClass::High, g.vth, g.drive)
                    - self.leakage_of(id, SupplyClass::Low, g.vth, g.drive);
                gain -= self.leak.lambda_area * CONVERTER_AREA_UNITS * conv_delta;
                let mult_new = self.ctx.delay_multiplier(SupplyClass::Low, g.vth);
                let mut est = delay * (mult_new / mult - 1.0);
                if high_fanouts > 0 {
                    est += self.ctx.level_converter_delay().0;
                }
                consider(MoveKind::ToLowSupply, gain, est, g.drive);
            }
        }

        if g.vth == VthClass::Low {
            let gain = self.leakage_of(id, g.supply, VthClass::Low, g.drive)
                - self.leakage_of(id, g.supply, VthClass::High, g.drive);
            let mult_new = self.ctx.delay_multiplier(g.supply, VthClass::High);
            let est = delay * (mult_new / mult - 1.0);
            consider(MoveKind::ToHighVth, gain, est, g.drive);
        }

        let new_drive = (g.drive * SIZING_STEP).max(MIN_DRIVE);
        if new_drive < g.drive {
            // Fan-in drivers lose one pin's worth of load each.
            let dc =
                self.ctx.input_cap(g.kind, g.drive).0 - self.ctx.input_cap(g.kind, new_drive).0;
            let mut gain = 0.0;
            for &f in g.fanins {
                let v = self.ctx.supply_voltage(self.netlist.supply(f)).0;
                gain += self.af * dc * v * v;
            }
            gain += self.leakage_of(id, g.supply, g.vth, g.drive)
                - self.leakage_of(id, g.supply, g.vth, new_drive);
            gain += self.leak.lambda_area * g.kind.relative_width() * (g.drive - new_drive);
            // The gate's own stage effort grows as its input cap falls.
            let tau = self.ctx.tau().0;
            let parasitic = g.kind.parasitic_delay();
            let h = (delay / (tau * mult) - parasitic).max(0.0);
            let est = tau * mult * h * (g.drive / new_drive - 1.0);
            consider(MoveKind::Downsize, gain, est, new_drive);
        }

        best
    }
}

/// Runs the parallel optimizer in place. Equivalent to
/// [`optimize_parallel_with_cancel`] with a never-firing cancel closure.
///
/// # Errors
///
/// [`OptError::TimingInfeasible`] when the design misses timing before
/// optimization; [`OptError::BadParameter`] for out-of-range options;
/// propagates substrate errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), np_opt::OptError> {
/// use np_circuit::{generate_netlist, NetlistSpec, TimingContext};
/// use np_opt::parallel::{optimize_parallel, ParallelOptions};
/// use np_roadmap::TechNode;
///
/// let mut netlist = generate_netlist(&NetlistSpec::small(42));
/// let ctx = TimingContext::for_node(TechNode::N100)?;
/// let clock = ctx.analyze(&netlist)?.critical_delay() * 1.4;
/// let ctx = ctx.with_clock(clock);
///
/// let result = optimize_parallel(&mut netlist, &ctx, &ParallelOptions::default())?;
/// assert!(result.total_saving() > 0.0);
/// assert!(ctx.analyze(&netlist)?.is_feasible());
/// # Ok(())
/// # }
/// ```
pub fn optimize_parallel(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    options: &ParallelOptions,
) -> Result<ParallelResult, OptError> {
    optimize_parallel_with_cancel(netlist, ctx, options, &|| false)
}

/// [`optimize_parallel`] with cooperative cancellation: `cancel` is
/// polled every 1024 gates (`SCORE_CANCEL_STRIDE`) while scoring and
/// every 256 proposals (`ACCEPT_CANCEL_STRIDE`) while accepting. When it fires,
/// the run drains cleanly — in-flight work stops at the next checkpoint,
/// the netlist stays timing-feasible, and the partial result is returned
/// with [`ParallelResult::cancelled`] set.
///
/// The closure form (rather than a concrete token type) keeps `np-opt`
/// free of an engine dependency; adapt any cancellation source with
/// `&|| token.is_cancelled()`.
///
/// # Errors
///
/// As [`optimize_parallel`].
pub fn optimize_parallel_with_cancel<C>(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    options: &ParallelOptions,
    cancel: &C,
) -> Result<ParallelResult, OptError>
where
    C: Fn() -> bool + Sync,
{
    if !(options.activity > 0.0 && options.activity <= 1.0) {
        return Err(OptError::BadParameter("activity must be in (0, 1]"));
    }
    if options.max_rounds == 0 {
        return Err(OptError::BadParameter("max_rounds must be positive"));
    }
    let freq = options.frequency.unwrap_or(Hertz(1.0 / ctx.clock_period.0));
    let baseline = ctx.analyze(netlist)?;
    if !baseline.is_feasible() {
        return Err(OptError::TimingInfeasible {
            worst_slack_ps: baseline.worst_slack().as_pico(),
        });
    }
    let before = netlist_power(netlist, ctx, options.activity, freq)?;
    let area_before = cell_area_units(netlist);
    let original_drives: Vec<f64> = netlist.ids().map(|id| netlist.drive(id)).collect();
    let workers = options.workers.unwrap_or_else(thread_budget).max(1);
    let leak = LeakModel::build(ctx);
    let af = options.activity * freq.0;

    let _span = np_telemetry::span("opt.parallel.run");
    let mut sta = IncrementalSta::new(ctx, netlist);
    let mut rounds = Vec::new();
    let mut cancelled = false;
    for _ in 0..options.max_rounds {
        if cancel() {
            cancelled = true;
            break;
        }
        let _round_span = np_telemetry::span("opt.parallel.round");
        let report = ctx.analyze(netlist)?;
        let view = RoundView {
            netlist,
            ctx,
            report: &report,
            leak: &leak,
            af,
        };
        let proposals = {
            let _span = np_telemetry::span("opt.parallel.score");
            score_round(&view, workers, cancel, &mut cancelled)
        };
        if cancelled {
            break;
        }
        let mut stats = RoundStats {
            proposed: proposals.len(),
            ..RoundStats::default()
        };
        np_telemetry::counter("opt.parallel.proposed", proposals.len() as u64);
        {
            let _span = np_telemetry::span("opt.parallel.accept");
            for (k, p) in proposals.iter().enumerate() {
                if k % ACCEPT_CANCEL_STRIDE == 0 && cancel() {
                    cancelled = true;
                    break;
                }
                if apply_proposal(netlist, &mut sta, p, &mut stats)? {
                    stats.accepted += 1;
                } else {
                    stats.reverted += 1;
                }
            }
        }
        np_telemetry::counter("opt.parallel.accepted", stats.accepted as u64);
        np_telemetry::counter("opt.parallel.reverted", stats.reverted as u64);
        let done = stats.accepted == 0;
        rounds.push(stats);
        if done || cancelled {
            break;
        }
    }

    let after = netlist_power(netlist, ctx, options.activity, freq)?;
    let low_supply = netlist
        .ids()
        .filter(|&id| netlist.supply(id) == SupplyClass::Low)
        .count();
    let high_vth = netlist
        .ids()
        .filter(|&id| netlist.vth(id) == VthClass::High)
        .count();
    let downsized = netlist
        .ids()
        .enumerate()
        .filter(|&(i, id)| netlist.drive(id) < original_drives[i])
        .count();
    Ok(ParallelResult {
        rounds,
        low_supply,
        high_vth,
        downsized,
        before,
        after,
        area_before,
        area_after: cell_area_units(netlist),
        workers,
        cancelled,
    })
}

/// Scores every gate against the frozen round view, splitting the gate
/// range across `workers` threads, and returns the surviving proposals
/// sorted by gain (descending) with gate-index tie-breaks.
fn score_round<C>(
    view: &RoundView<'_>,
    workers: usize,
    cancel: &C,
    cancelled: &mut bool,
) -> Vec<Proposal>
where
    C: Fn() -> bool + Sync,
{
    let n = view.netlist.len();
    let mut slots: Vec<Option<Proposal>> = vec![None; n];
    let stop = AtomicBool::new(false);
    let score_range = |start: usize, out: &mut [Option<Proposal>]| {
        for (k, slot) in out.iter_mut().enumerate() {
            if k % SCORE_CANCEL_STRIDE == 0 && (stop.load(Ordering::Relaxed) || cancel()) {
                stop.store(true, Ordering::Relaxed);
                return;
            }
            *slot = view.score(GateId::from_index(start + k));
        }
    };
    if workers <= 1 {
        score_range(0, &mut slots);
    } else {
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (w, out) in slots.chunks_mut(chunk).enumerate() {
                let score_range = &score_range;
                s.spawn(move || score_range(w * chunk, out));
            }
        });
    }
    if stop.load(Ordering::Relaxed) {
        *cancelled = true;
        return Vec::new();
    }
    let mut proposals: Vec<Proposal> = slots.into_iter().flatten().collect();
    proposals.sort_unstable_by(|a, b| {
        b.gain
            .total_cmp(&a.gain)
            .then_with(|| a.gate.index().cmp(&b.gate.index()))
    });
    proposals
}

/// Applies one proposal with an exact incremental-STA check, reverting
/// on any endpoint violation. Returns whether the move was kept.
fn apply_proposal(
    netlist: &mut Netlist,
    sta: &mut IncrementalSta<'_>,
    p: &Proposal,
    stats: &mut RoundStats,
) -> Result<bool, OptError> {
    let id = p.gate;
    match p.kind {
        MoveKind::ToLowSupply => {
            // Re-check clustered admissibility against the current
            // state. Within a round supplies only move High→Low, and a
            // revert restores a fan-out's frozen supply, so fan-outs that
            // were Low at freeze are still Low: this check cannot fail on
            // a proposal the frozen view admitted. It guards the
            // clustering invariant rather than reacting to reverts.
            let fanouts = netlist.fanouts(id);
            let endpoint = fanouts.is_empty() || netlist.is_output(id);
            let ok = endpoint
                || fanouts
                    .iter()
                    .all(|&f| netlist.supply(f) == SupplyClass::Low);
            if !ok {
                return Ok(false);
            }
            netlist.gate_mut(id).set_supply(SupplyClass::Low);
            stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
            if !sta.is_feasible() {
                netlist.gate_mut(id).set_supply(SupplyClass::High);
                stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
                return Ok(false);
            }
        }
        MoveKind::ToHighVth => {
            netlist.gate_mut(id).set_vth(VthClass::High);
            stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
            if !sta.is_feasible() {
                netlist.gate_mut(id).set_vth(VthClass::Low);
                stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
                return Ok(false);
            }
        }
        MoveKind::Downsize => {
            let old = netlist.drive(id);
            netlist.gate_mut(id).set_drive(p.new_drive);
            stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
            if !sta.is_feasible() {
                netlist.gate_mut(id).set_drive(old);
                stats.cone_visited += sta.reevaluate(netlist, id)?.visited;
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_circuit::generate::{generate_netlist, NetlistSpec};
    use np_roadmap::TechNode;

    fn setup(seed: u64, clock_factor: f64) -> (Netlist, TimingContext) {
        let nl = generate_netlist(&NetlistSpec::small(seed));
        let ctx = TimingContext::for_node(TechNode::N100).unwrap();
        let crit = ctx.analyze(&nl).unwrap().critical_delay();
        (nl, ctx.with_clock(crit * clock_factor))
    }

    // The only test that sets the thread budget: it is process-global,
    // and the test runner is multi-threaded.
    #[test]
    fn thread_budget_defaults_to_the_machine_and_guards_restore() {
        let outer = thread_budget();
        let ncpu = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(outer, ncpu, "unset, the budget is the machine's");
        {
            let _guard = scoped_thread_budget(8);
            assert_eq!(thread_budget(), 8);
            {
                let _inner = scoped_thread_budget(0);
                assert_eq!(thread_budget(), 1, "a zero budget clamps to one");
            }
            assert_eq!(thread_budget(), 8);
        }
        assert_eq!(thread_budget(), outer);
    }

    #[test]
    fn relaxed_design_saves_power_and_meets_timing() {
        let (mut nl, ctx) = setup(21, 1.5);
        let r = optimize_parallel(&mut nl, &ctx, &ParallelOptions::default()).unwrap();
        assert!(r.total_accepted() > nl.len() / 4, "{r}");
        assert!(r.total_saving() > 0.2, "{r}");
        assert!(r.leakage_saving() > 0.2, "{r}");
        assert!(ctx.analyze(&nl).unwrap().is_feasible());
        assert!(!r.cancelled);
    }

    #[test]
    fn results_are_identical_at_any_worker_count() {
        let mut digests = Vec::new();
        let ncpu = std::thread::available_parallelism().map_or(4, |n| n.get());
        for workers in [1, 2, ncpu] {
            let (mut nl, ctx) = setup(33, 1.4);
            let opts = ParallelOptions {
                workers: Some(workers),
                ..ParallelOptions::default()
            };
            let r = optimize_parallel(&mut nl, &ctx, &opts).unwrap();
            assert_eq!(r.workers, workers.max(1));
            digests.push((assignment_digest(&nl), r.total_accepted()));
        }
        assert_eq!(digests[0], digests[1], "1 vs 2 workers diverged");
        assert_eq!(digests[0], digests[2], "1 vs NCPU workers diverged");
    }

    #[test]
    fn tight_clock_accepts_little() {
        let (mut nl_t, ctx_t) = setup(5, 1.01);
        let tight = optimize_parallel(&mut nl_t, &ctx_t, &ParallelOptions::default()).unwrap();
        let (mut nl_l, ctx_l) = setup(5, 1.6);
        let loose = optimize_parallel(&mut nl_l, &ctx_l, &ParallelOptions::default()).unwrap();
        assert!(tight.total_accepted() < loose.total_accepted());
    }

    #[test]
    fn infeasible_input_rejected() {
        let (mut nl, ctx) = setup(7, 0.5);
        assert!(matches!(
            optimize_parallel(&mut nl, &ctx, &ParallelOptions::default()),
            Err(OptError::TimingInfeasible { .. })
        ));
    }

    #[test]
    fn bad_options_rejected() {
        let (mut nl, ctx) = setup(7, 1.3);
        for opts in [
            ParallelOptions {
                activity: 0.0,
                ..ParallelOptions::default()
            },
            ParallelOptions {
                max_rounds: 0,
                ..ParallelOptions::default()
            },
        ] {
            assert!(matches!(
                optimize_parallel(&mut nl, &ctx, &opts),
                Err(OptError::BadParameter(_))
            ));
        }
    }

    #[test]
    fn clustered_discipline_is_preserved() {
        let (mut nl, ctx) = setup(11, 1.5);
        let _ = optimize_parallel(&mut nl, &ctx, &ParallelOptions::default()).unwrap();
        for id in nl.ids() {
            if nl.supply(id) == SupplyClass::Low && !nl.is_output(id) {
                for &f in nl.fanouts(id) {
                    assert_eq!(
                        nl.supply(f),
                        SupplyClass::Low,
                        "clustered CVS leaked a mid-cone conversion at {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn immediate_cancel_drains_cleanly() {
        let (mut nl, ctx) = setup(13, 1.5);
        let before = assignment_digest(&nl);
        let r = optimize_parallel_with_cancel(&mut nl, &ctx, &ParallelOptions::default(), &|| true)
            .unwrap();
        assert!(r.cancelled);
        assert_eq!(r.total_accepted(), 0);
        assert_eq!(assignment_digest(&nl), before, "cancel must not half-apply");
        assert!(ctx.analyze(&nl).unwrap().is_feasible());
    }

    #[test]
    fn rounds_split_into_score_and_accept_spans() -> Result<(), OptError> {
        let (mut nl, ctx) = setup(23, 1.0);
        let collector = np_telemetry::Collector::new();
        let installed = np_telemetry::install(&collector);
        if np_telemetry::current().is_none() {
            return Ok(()); // built with np-telemetry's `off` feature
        }
        let r = optimize_parallel(&mut nl, &ctx, &ParallelOptions::default())?;
        drop(installed);
        let summary = collector.summary();
        let spans = |name: &str| {
            summary
                .spans
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, s)| s.count)
        };
        let counter = |name: &str| {
            summary
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        let rounds = r.rounds.len() as u64;
        for name in [
            "opt.parallel.round",
            "opt.parallel.score",
            "opt.parallel.accept",
        ] {
            assert_eq!(spans(name), rounds, "{name}");
        }
        let reverted: usize = r.rounds.iter().map(|s| s.reverted).sum();
        assert_eq!(counter("opt.parallel.accepted"), r.total_accepted() as u64);
        assert_eq!(counter("opt.parallel.reverted"), reverted as u64);
        Ok(())
    }

    #[test]
    fn cone_visits_stay_far_below_full_sta_work() {
        let (mut nl, ctx) = setup(19, 1.5);
        let r = optimize_parallel(&mut nl, &ctx, &ParallelOptions::default()).unwrap();
        let probes: usize = r.rounds.iter().map(|s| s.accepted + s.reverted).sum();
        let visited: usize = r.rounds.iter().map(|s| s.cone_visited).sum();
        assert!(probes > 0);
        // Full STA per probe would visit n gates each; the cone average
        // must be well under that.
        assert!(
            visited < probes * nl.len() / 4,
            "visited {visited} over {probes} probes on {} gates",
            nl.len()
        );
    }
}
