//! Static timing analysis.
//!
//! Arrival times propagate forward through the netlist DAG, required times
//! backward from the clock period at the timing endpoints; slack is their
//! difference. Gate delay uses the logical-effort stage model scaled by the
//! technology time constant `τ` and the device-model delay multiplier for
//! the gate's (supply, threshold) assignment — so CVS and dual-Vth moves
//! are timed with the same compact model that generates the paper's
//! Figs. 2–4.
//!
//! Level conversion (Section 2.4): an edge from a low-supply gate into a
//! high-supply gate passes through a level converter, which adds a fixed
//! delay penalty on that edge (and energy, accounted in
//! [`crate::power`]).

use crate::cell::{CellKind, SupplyClass, VthClass};
use crate::error::CircuitError;
use crate::library::UNIT_INV_WIDTH_PER_DRAWN;
use crate::netlist::{GateId, Netlist};
use np_device::delay::fo4_delay;
use np_device::Mosfet;
use np_roadmap::TechNode;
use np_units::{Farads, Microns, Seconds, Volts};

/// Default ratio `Vdd,l / Vdd,h` — "Vdd,l should be around 0.6 to 0.7
/// times Vdd,h to maximize power savings" (Section 2.4).
pub const DEFAULT_VDD_RATIO: f64 = 0.65;

/// Default threshold offset of the high-Vth implant over the low-Vth one
/// (Section 3.2.2 considers a 100 mV offset).
pub const DEFAULT_VTH_OFFSET: Volts = Volts(0.1);

/// Level-converter delay in units of the technology `τ` (a converting
/// flip-flop/latch stage costs a few FO1 delays).
pub const LEVEL_CONVERTER_TAU_UNITS: f64 = 4.0;

/// Technology- and assignment-aware delay evaluation context.
#[derive(Debug, Clone)]
pub struct TimingContext {
    /// The roadmap node.
    pub node: TechNode,
    /// The high (nominal) supply.
    pub vdd_high: Volts,
    /// The reduced supply used by CVS.
    pub vdd_low: Volts,
    /// The fast (baseline) threshold.
    pub vth_low: Volts,
    /// The slow, low-leakage threshold.
    pub vth_high: Volts,
    /// Clock period timing endpoints are checked against.
    pub clock_period: Seconds,
    /// Technology time constant (FO4/5) at (`vdd_high`, `vth_low`).
    tau: Seconds,
    /// Unit-inverter input capacitance.
    unit_cap: Farads,
    /// Unit-inverter total transistor width.
    unit_width: Microns,
    /// Calibrated device (threshold field = `vth_low`).
    device: Mosfet,
    /// Cached delay multipliers indexed by [supply][vth].
    multipliers: [[f64; 2]; 2],
    /// Cached level-converter delay (`τ × LEVEL_CONVERTER_TAU_UNITS`).
    level_converter: Seconds,
}

impl TimingContext {
    /// Builds a context for `node` with the default CVS supply ratio and
    /// dual-Vth offset. The clock period defaults to the node's local
    /// clock; tighten or relax it with [`TimingContext::with_clock`].
    ///
    /// # Errors
    ///
    /// Propagates device-calibration failures.
    pub fn for_node(node: TechNode) -> Result<Self, CircuitError> {
        let p = node.params();
        Self::with_supplies(node, p.vdd, p.vdd * DEFAULT_VDD_RATIO, DEFAULT_VTH_OFFSET)
    }

    /// Builds a context with explicit CVS supplies and Vth offset.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadParameter`] for a non-positive or
    /// inverted supply pair, and propagates device errors (e.g. the low
    /// supply dropping below the low threshold).
    pub fn with_supplies(
        node: TechNode,
        vdd_high: Volts,
        vdd_low: Volts,
        vth_offset: Volts,
    ) -> Result<Self, CircuitError> {
        if !(vdd_low.0 > 0.0) || vdd_low > vdd_high {
            return Err(CircuitError::BadParameter(
                "require 0 < vdd_low <= vdd_high",
            ));
        }
        if !(vth_offset.0 > 0.0) {
            return Err(CircuitError::BadParameter("vth offset must be positive"));
        }
        let device = Mosfet::for_node(node)?;
        let vth_low = device.vth;
        let vth_high = vth_low + vth_offset;
        let tau = Seconds(fo4_delay(&device, vdd_high)?.0 / 5.0);
        let unit_width = Microns(UNIT_INV_WIDTH_PER_DRAWN * node.drawn().to_microns().0);
        let unit_cap = Farads(device.gate_cap_per_um().0 * unit_width.0);
        let reference = vdd_high.0 / device.ion(vdd_high)?.0;
        let mut multipliers = [[1.0f64; 2]; 2];
        for (si, &vdd) in [vdd_high, vdd_low].iter().enumerate() {
            for (vi, &vth) in [vth_low, vth_high].iter().enumerate() {
                let ion = device.with_vth(vth).ion(vdd)?;
                multipliers[si][vi] = (vdd.0 / ion.0) / reference;
            }
        }
        Ok(Self {
            node,
            vdd_high,
            vdd_low,
            vth_low,
            vth_high,
            clock_period: node.params().local_clock.period(),
            tau,
            unit_cap,
            unit_width,
            device,
            multipliers,
            level_converter: tau * LEVEL_CONVERTER_TAU_UNITS,
        })
    }

    /// Returns a copy with a different clock period.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    pub fn with_clock(mut self, period: Seconds) -> Self {
        assert!(period.0 > 0.0, "clock period must be positive");
        self.clock_period = period;
        self
    }

    /// The technology time constant `τ` (one fifth of the FO4 delay).
    pub fn tau(&self) -> Seconds {
        self.tau
    }

    /// Unit-inverter input capacitance.
    pub fn unit_cap(&self) -> Farads {
        self.unit_cap
    }

    /// Unit-inverter total transistor width.
    pub fn unit_width(&self) -> Microns {
        self.unit_width
    }

    /// The calibrated device backing the delay multipliers.
    pub fn device(&self) -> &Mosfet {
        &self.device
    }

    /// The supply voltage of a supply class.
    pub fn supply_voltage(&self, supply: SupplyClass) -> Volts {
        match supply {
            SupplyClass::High => self.vdd_high,
            SupplyClass::Low => self.vdd_low,
        }
    }

    /// The threshold voltage of a threshold class.
    pub fn threshold_voltage(&self, vth: VthClass) -> Volts {
        match vth {
            VthClass::Low => self.vth_low,
            VthClass::High => self.vth_high,
        }
    }

    /// Delay multiplier of an assignment relative to (high supply,
    /// low Vth).
    pub fn delay_multiplier(&self, supply: SupplyClass, vth: VthClass) -> f64 {
        let si = match supply {
            SupplyClass::High => 0,
            SupplyClass::Low => 1,
        };
        let vi = match vth {
            VthClass::Low => 0,
            VthClass::High => 1,
        };
        self.multipliers[si][vi]
    }

    /// Input capacitance of a gate (one pin).
    pub fn input_cap(&self, kind: CellKind, drive: f64) -> Farads {
        Farads(self.unit_cap.0 * kind.logical_effort() * drive)
    }

    /// Total leaking transistor width of a gate.
    pub fn leak_width(&self, kind: CellKind, drive: f64) -> Microns {
        Microns(self.unit_width.0 * kind.relative_width() * drive)
    }

    /// Capacitive load on a gate's output: fan-out input pins plus wire.
    pub fn load_of(&self, netlist: &Netlist, id: GateId) -> Farads {
        let fanouts = netlist.fanouts(id);
        let mut c = netlist.wire_cap(id);
        for &f in fanouts {
            c += self.input_cap(netlist.kind(f), netlist.drive(f));
        }
        // Endpoints drive a register pin comparable to a 4x inverter.
        if fanouts.is_empty() || netlist.is_output(id) {
            c += Farads(self.unit_cap.0 * 4.0);
        }
        c
    }

    /// Propagation delay of one gate under its current assignment.
    pub fn gate_delay(&self, netlist: &Netlist, id: GateId) -> Seconds {
        let kind = netlist.kind(id);
        let h = self.load_of(netlist, id).0 / self.input_cap(kind, netlist.drive(id)).0
            * kind.logical_effort();
        let units = kind.parasitic_delay() + h;
        self.tau * (units * self.delay_multiplier(netlist.supply(id), netlist.vth(id)))
    }

    /// The level-converter delay added on a `Low → High` supply crossing.
    pub fn level_converter_delay(&self) -> Seconds {
        self.level_converter
    }

    /// Extra delay on an edge between gates on supplies `from` and `to`
    /// (zero unless it crosses from the low to the high supply domain).
    #[inline]
    fn crossing_penalty(&self, from: SupplyClass, to: SupplyClass) -> Seconds {
        if from == SupplyClass::Low && to == SupplyClass::High {
            self.level_converter
        } else {
            Seconds(0.0)
        }
    }

    /// Arrival at `id`'s output: the latest fan-in arrival (plus the
    /// conversion penalty on each crossing edge) plus the gate's `delay`.
    /// The one arrival expression of both [`TimingContext::analyze`] and
    /// [`crate::incremental::IncrementalSta`], so the two cannot drift.
    #[inline]
    pub(crate) fn output_arrival(
        &self,
        netlist: &Netlist,
        arrival: &[Seconds],
        id: GateId,
        delay: Seconds,
    ) -> Seconds {
        let to = netlist.supply(id);
        let mut at = Seconds(0.0);
        for &f in netlist.fanins(id) {
            let candidate = arrival[f.index()] + self.crossing_penalty(netlist.supply(f), to);
            at = at.max(candidate);
        }
        at + delay
    }

    /// The forward pass of [`TimingContext::analyze`],
    /// [`TimingContext::critical_delay`] and
    /// [`crate::incremental::IncrementalSta::new`]: each gate's output
    /// arrival under the gate delays `delay`, in topological order.
    #[inline]
    pub(crate) fn propagate_arrivals(
        &self,
        netlist: &Netlist,
        delay: impl Fn(GateId) -> Seconds,
    ) -> Vec<Seconds> {
        let mut arrival = vec![Seconds(0.0); netlist.len()];
        for &id in netlist.topological_order() {
            arrival[id.index()] = self.output_arrival(netlist, &arrival, id, delay(id));
        }
        arrival
    }

    /// Every gate's delay under its current assignment, in index order.
    /// A separate pass from the arrivals: at 10⁶ cells, computing each
    /// delay inside the arrival pass made `analyze` 10–20 % slower.
    pub(crate) fn gate_delays(&self, netlist: &Netlist) -> Vec<Seconds> {
        netlist
            .ids()
            .map(|id| self.gate_delay(netlist, id))
            .collect()
    }

    /// The critical-path delay of `netlist`: the latest output arrival,
    /// equal to the bit to `analyze(netlist)?.critical_delay()`. One
    /// forward pass; no stored delays, required times or slacks.
    pub fn critical_delay(&self, netlist: &Netlist) -> Seconds {
        let _span = np_telemetry::span("circuit.sta.critical_delay");
        np_telemetry::counter("circuit.sta.gates", netlist.len() as u64);
        np_telemetry::counter("circuit.sta.level_passes", 1);
        latest_arrival(&self.propagate_arrivals(netlist, |id| self.gate_delay(netlist, id)))
    }

    /// Runs full STA against the context's clock period.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid netlists; the `Result` is kept for
    /// future load-dependent model failures ([`CircuitError`]).
    pub fn analyze(&self, netlist: &Netlist) -> Result<TimingReport, CircuitError> {
        let _span = np_telemetry::span("circuit.sta.analyze");
        let n = netlist.len();
        np_telemetry::counter("circuit.sta.gates", n as u64);
        // One forward (arrival) and one backward (required) level pass.
        np_telemetry::counter("circuit.sta.level_passes", 2);
        let delay = self.gate_delays(netlist);
        let arrival = self.propagate_arrivals(netlist, |id| delay[id.index()]);
        let clock = self.clock_period;
        let mut required = vec![Seconds(f64::INFINITY); n];
        for id in netlist.timing_endpoints() {
            required[id.index()] = clock;
        }
        for &id in netlist.topological_order().iter().rev() {
            let (req_here, delay_here) = (required[id.index()], delay[id.index()]);
            let to = netlist.supply(id);
            for &f in netlist.fanins(id) {
                let budget = req_here - delay_here - self.crossing_penalty(netlist.supply(f), to);
                required[f.index()] = required[f.index()].min(budget);
            }
        }
        let slack: Vec<Seconds> = (0..n).map(|i| required[i] - arrival[i]).collect();
        Ok(TimingReport {
            arrival,
            required,
            slack,
            delay,
            clock,
        })
    }
}

/// The latest of `arrival`, folded in index order from zero: the one
/// critical-delay reduction of [`TimingReport`],
/// [`TimingContext::critical_delay`] and
/// [`crate::incremental::IncrementalSta`].
pub(crate) fn latest_arrival(arrival: &[Seconds]) -> Seconds {
    arrival.iter().copied().fold(Seconds(0.0), Seconds::max)
}

/// The result of one STA run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Arrival time at each gate's output.
    pub arrival: Vec<Seconds>,
    /// Required time at each gate's output.
    pub required: Vec<Seconds>,
    /// Slack (`required − arrival`) at each gate.
    pub slack: Vec<Seconds>,
    /// Propagation delay of each gate at analysis time.
    pub delay: Vec<Seconds>,
    /// The clock period analyzed against.
    pub clock: Seconds,
}

impl TimingReport {
    /// The worst (smallest) slack over all gates.
    pub fn worst_slack(&self) -> Seconds {
        self.slack
            .iter()
            .copied()
            .fold(Seconds(f64::INFINITY), Seconds::min)
    }

    /// True when no gate violates timing.
    pub fn is_feasible(&self) -> bool {
        self.worst_slack().0 >= -1e-15
    }

    /// The latest arrival over all gates (the critical-path delay).
    pub fn critical_delay(&self) -> Seconds {
        latest_arrival(&self.arrival)
    }

    /// Slack of one gate.
    pub fn slack_of(&self, id: GateId) -> Seconds {
        self.slack[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Gate;

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
        Netlist::new(gates).expect("valid")
    }

    fn ctx() -> TimingContext {
        TimingContext::for_node(TechNode::N100).expect("calibration")
    }

    #[test]
    fn chain_arrival_is_sum_of_delays() {
        let nl = chain(4);
        let ctx = ctx().with_clock(Seconds::from_nano(10.0));
        let rep = ctx.analyze(&nl).unwrap();
        let ids: Vec<GateId> = nl.ids().collect();
        let total: Seconds = ids.iter().map(|&id| rep.delay[id.index()]).sum();
        assert!((rep.critical_delay().0 - total.0).abs() < 1e-18);
        assert!(rep.is_feasible());
    }

    #[test]
    fn slack_decreases_with_tighter_clock() {
        let nl = chain(6);
        let loose = ctx()
            .with_clock(Seconds::from_nano(5.0))
            .analyze(&nl)
            .unwrap();
        let tight = ctx()
            .with_clock(Seconds::from_pico(50.0))
            .analyze(&nl)
            .unwrap();
        assert!(loose.worst_slack() > tight.worst_slack());
    }

    #[test]
    fn infeasible_clock_is_detected() {
        let nl = chain(10);
        let rep = ctx()
            .with_clock(Seconds::from_pico(1.0))
            .analyze(&nl)
            .unwrap();
        assert!(!rep.is_feasible());
    }

    #[test]
    fn low_supply_slows_gates() {
        let c = ctx();
        let m = c.delay_multiplier(SupplyClass::Low, VthClass::Low);
        assert!(m > 1.1, "Vdd,l = 0.65 Vdd,h must cost real delay, got {m}");
        assert_eq!(c.delay_multiplier(SupplyClass::High, VthClass::Low), 1.0);
    }

    #[test]
    fn high_vth_slows_gates() {
        let c = ctx();
        let m = c.delay_multiplier(SupplyClass::High, VthClass::High);
        assert!(m > 1.02, "got {m}");
        let m_both = c.delay_multiplier(SupplyClass::Low, VthClass::High);
        assert!(m_both > m);
    }

    #[test]
    fn cvs_assignment_changes_arrival_and_adds_conversion() {
        let mut nl = chain(3);
        let ids: Vec<GateId> = nl.ids().collect();
        let c = ctx().with_clock(Seconds::from_nano(10.0));
        let before = c.analyze(&nl).unwrap().critical_delay();
        // Put the *first* gate on the low supply: its fan-out is High, so
        // a level-converter penalty appears on the edge, plus the slower
        // gate itself.
        nl.gate_mut(ids[0]).set_supply(SupplyClass::Low);
        let after = c.analyze(&nl).unwrap().critical_delay();
        assert!(after.0 > before.0 + c.level_converter_delay().0 * 0.9);
    }

    #[test]
    fn bad_supply_pair_rejected() {
        let p = TechNode::N100.params();
        assert!(
            TimingContext::with_supplies(TechNode::N100, p.vdd, Volts(0.0), Volts(0.1)).is_err()
        );
        assert!(
            TimingContext::with_supplies(TechNode::N100, p.vdd, p.vdd * 1.1, Volts(0.1)).is_err()
        );
    }

    #[test]
    fn tau_is_a_fifth_of_fo4() {
        let c = ctx();
        let dev = c.device().clone();
        let fo4 = fo4_delay(&dev, c.vdd_high).unwrap();
        assert!((c.tau().0 - fo4.0 / 5.0).abs() < 1e-18);
    }
}
