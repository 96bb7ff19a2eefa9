//! Typed scenario specs: the untrusted-input front door of the
//! `nanopowerd` service.
//!
//! A [`ScenarioSpec`] is a chip scenario described over the wire — node,
//! activity, effective fraction, junction temperature, optional power-grid
//! mesh and netlist tiers, workload ratio — rendered through the same
//! validating paths the registry artifacts use ([`crate::chip::ChipBuilder`],
//! [`np_grid::mesh::MeshCache`], [`np_circuit::generate::NetlistSpec`]).
//! Because specs arrive from untrusted clients, this module is built as a
//! validation tier, not a deserializer:
//!
//! - **Strict parsing** — unknown keys, wrong types, out-of-range and
//!   non-finite values are all rejected with [`Error::InvalidSpec`]
//!   naming the offending field, never a generic protocol error.
//! - **Canonical form** — [`ScenarioSpec::to_json`] renders one fixed
//!   key order with defaults filled in, so the FNV-1a digest over it
//!   ([`ScenarioSpec::digest`]) is stable across client key order and
//!   omitted-vs-explicit defaults. The digest keys the daemon's
//!   cross-request memo and its panic quarantine.
//! - **Static cost model** — [`ScenarioSpec::cost`] estimates work units
//!   (mesh nodes × solver-iteration bound, netlist cells × per-cell STA
//!   and power work) before any evaluation happens, so the daemon can
//!   reject a resource bomb with a typed `too_expensive` response
//!   without doing the work.
//!
//! Evaluation ([`ScenarioSpec::evaluate`]) is deterministic, so spec
//! outputs are memoizable and digest-checkable exactly like registry
//! artifacts. [`ScenarioSpec::evaluate_in`] takes the
//! [`np_grid::mesh::MeshCache`] the grid leg reads its unit solve from,
//! so a caller that keeps one cache (the daemon keeps one for its
//! lifetime) solves each mesh resolution once; the bytes are the same
//! either way.

use crate::chip::{Chip, PowerBudget, ThermalClosure};
use crate::engine::fnv1a64;
use crate::error::Error;
use crate::jsonio::{self, Json};
use np_roadmap::TechNode;
use np_units::{Celsius, Hertz, Seconds, Volts, Watts};
use std::fmt;

/// Smallest accepted power-grid mesh resolution (nodes per side) — the
/// mesh assembler's own floor.
pub const MIN_GRID_RESOLUTION: usize = 5;

/// Largest accepted power-grid mesh resolution: the production-scale
/// `fig5-mesh` tier. Anything larger is not a scenario, it is a denial
/// of service.
pub const MAX_GRID_RESOLUTION: usize = 1025;

/// Smallest accepted netlist tier, in cells.
pub const MIN_NETLIST_CELLS: usize = 100;

/// Largest accepted netlist tier, in cells — the 10⁷ production ceiling.
pub const MAX_NETLIST_CELLS: usize = 10_000_000;

/// Default per-request spec cost budget in work units
/// (`nanopowerd --max-spec-cost`): admits the full 1025² mesh tier and
/// the 10⁶-cell netlist tier, rejects the 10⁷-cell tier.
pub const DEFAULT_COST_BUDGET: u64 = 100_000;

/// Fixed work units charged to every spec: the power-budget check plus
/// the 40 000-step DTM thermal-closure simulation.
pub const BASE_COST_UNITS: u64 = 50;

/// Optional power-grid leg of a spec: re-solve the node's min-pitch
/// IR-drop geometry on an explicit mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Mesh nodes per side, in
    /// [[`MIN_GRID_RESOLUTION`], [`MAX_GRID_RESOLUTION`]].
    pub resolution: usize,
}

/// Optional netlist leg of a spec: generate a streamed
/// [`np_circuit::generate::NetlistSpec::large`] tier, time its critical
/// path and run the activity-scaled power model over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistTier {
    /// Netlist size in cells, in
    /// [[`MIN_NETLIST_CELLS`], [`MAX_NETLIST_CELLS`]].
    pub cells: usize,
    /// Generator seed — equal seeds generate equal netlists.
    pub seed: u64,
}

/// One wire-submitted chip scenario (see the module docs).
///
/// ```
/// use nanopower::spec::ScenarioSpec;
/// let spec = ScenarioSpec::parse(r#"{"node": 70, "activity": 0.2}"#)?;
/// assert_eq!(spec.node, nanopower::roadmap::TechNode::N70);
/// // Canonicalization makes the digest independent of key order and
/// // omitted defaults.
/// let swapped = ScenarioSpec::parse(r#"{"activity": 0.2, "node": 70, "workload_ratio": 1}"#)?;
/// assert_eq!(spec.digest(), swapped.digest());
/// # Ok::<(), nanopower::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Technology node, parsed from its drawn feature size in nm
    /// (`"node": 70`).
    pub node: TechNode,
    /// Average switching activity, finite in `(0, 1]` (default 0.1).
    pub activity: f64,
    /// Effective-to-theoretical worst-case power ratio, finite in
    /// `(0, 1]` (default 0.75).
    pub effective_fraction: f64,
    /// Junction temperature override in °C, finite in `[-55, 250]`;
    /// defaults to the node's ITRS limit (left `None` on the wire).
    pub junction_temp_c: Option<f64>,
    /// Workload duty ratio, finite in `(0, 1]` (default 1.0): scales the
    /// switching activity every power analysis sees, so one spec family
    /// sweeps idle-to-peak workloads.
    pub workload_ratio: f64,
    /// Optional power-grid mesh leg.
    pub grid: Option<GridSpec>,
    /// Optional netlist tier leg.
    pub netlist: Option<NetlistTier>,
    /// Hidden deterministic fault-injection hook (the `--hold-ms` /
    /// `--chaos` precedent): `"panic"` makes [`ScenarioSpec::evaluate`]
    /// panic, so the quarantine path is testable end to end. Any other
    /// value is rejected at parse time.
    pub chaos: Option<String>,
}

/// The record/job name of the spec whose [`ScenarioSpec::digest`] is
/// `digest`, the same string as [`ScenarioSpec::job_name`]. A caller
/// that already holds the digest formats the name without serializing
/// the spec again.
pub fn job_name_for(digest: u64) -> String {
    format!("spec:{digest:016x}")
}

/// Builds the typed rejection for one spec field.
fn invalid(field: &str, reason: impl Into<String>) -> Error {
    Error::InvalidSpec {
        field: field.into(),
        reason: reason.into(),
    }
}

/// Extracts a finite `f64` in `(0, 1]` for `field`.
fn unit_interval(obj: &Json, field: &str, default: f64) -> Result<f64, Error> {
    match obj.get(field) {
        None => Ok(default),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| invalid(field, "must be a number"))?;
            if !(x.is_finite() && x > 0.0 && x <= 1.0) {
                return Err(invalid(field, format!("must be finite in (0, 1], got {x}")));
            }
            Ok(x)
        }
    }
}

/// A non-negative *integral* number — unlike `Json::as_u64`, a
/// fractional `33.5` is rejected, not truncated.
fn strict_u64(value: &Json) -> Option<u64> {
    let n = value.as_f64()?;
    (n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// Extracts a `usize` in `[lo, hi]` for `field`.
fn bounded_usize(value: &Json, field: &str, lo: usize, hi: usize) -> Result<usize, Error> {
    let n = strict_u64(value).ok_or_else(|| invalid(field, "must be a non-negative integer"))?;
    if n < lo as u64 || n > hi as u64 {
        return Err(invalid(
            field,
            format!("must be an integer in [{lo}, {hi}], got {n}"),
        ));
    }
    Ok(n as usize)
}

/// Rejects any key of `obj` outside `allowed`, naming the first unknown
/// (keys sorted, so the message is deterministic).
fn reject_unknown_keys(obj: &Json, scope: &str, allowed: &[&str]) -> Result<(), Error> {
    let Some(map) = obj.as_obj() else {
        let field = if scope.is_empty() { "spec" } else { scope };
        return Err(invalid(field, "must be a JSON object"));
    };
    let mut keys: Vec<&str> = map.keys().map(String::as_str).collect();
    keys.sort_unstable();
    for key in keys {
        if !allowed.contains(&key) {
            let field = if scope.is_empty() {
                key.to_string()
            } else {
                format!("{scope}.{key}")
            };
            return Err(invalid(
                &field,
                format!("unknown key (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// The default scenario at a node — the same defaults as
    /// [`Chip::at_node`], with no optional legs.
    pub fn at_node(node: TechNode) -> Self {
        ScenarioSpec {
            node,
            activity: 0.1,
            effective_fraction: 0.75,
            junction_temp_c: None,
            workload_ratio: 1.0,
            grid: None,
            netlist: None,
            chaos: None,
        }
    }

    /// Parses a spec from one JSON text. Every rejection is a typed
    /// [`Error::InvalidSpec`] naming the offending field; malformed
    /// JSON itself is reported under the pseudo-field `spec`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] as above.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let value = jsonio::parse(text).map_err(|reason| invalid("spec", reason))?;
        Self::from_json(&value)
    }

    /// Parses a spec from an already-parsed JSON value (the request
    /// parser's entry point).
    pub(crate) fn from_json(value: &Json) -> Result<Self, Error> {
        reject_unknown_keys(
            value,
            "",
            &[
                "node",
                "activity",
                "effective_fraction",
                "junction_temp_c",
                "workload_ratio",
                "grid",
                "netlist",
                "chaos",
            ],
        )?;
        let node_value = value
            .get("node")
            .ok_or_else(|| invalid("node", "required (drawn feature size in nm)"))?;
        let node_nm = strict_u64(node_value)
            .ok_or_else(|| invalid("node", "must be a non-negative integer (drawn nm)"))?;
        let node = u32::try_from(node_nm)
            .ok()
            .and_then(TechNode::from_drawn_nm)
            .ok_or_else(|| {
                invalid(
                    "node",
                    format!("no roadmap node at {node_nm} nm (have 180, 130, 100, 70, 50, 35)"),
                )
            })?;
        let activity = unit_interval(value, "activity", 0.1)?;
        let effective_fraction = unit_interval(value, "effective_fraction", 0.75)?;
        let workload_ratio = unit_interval(value, "workload_ratio", 1.0)?;
        let junction_temp_c = match value.get("junction_temp_c") {
            None => None,
            Some(v) => {
                let t = v
                    .as_f64()
                    .ok_or_else(|| invalid("junction_temp_c", "must be a number"))?;
                if !(t.is_finite() && (-55.0..=250.0).contains(&t)) {
                    return Err(invalid(
                        "junction_temp_c",
                        format!("must be finite in [-55, 250] °C, got {t}"),
                    ));
                }
                Some(t)
            }
        };
        let grid = match value.get("grid") {
            None => None,
            Some(g) => {
                reject_unknown_keys(g, "grid", &["resolution"])?;
                let resolution = g
                    .get("resolution")
                    .ok_or_else(|| invalid("grid.resolution", "required"))?;
                Some(GridSpec {
                    resolution: bounded_usize(
                        resolution,
                        "grid.resolution",
                        MIN_GRID_RESOLUTION,
                        MAX_GRID_RESOLUTION,
                    )?,
                })
            }
        };
        let netlist = match value.get("netlist") {
            None => None,
            Some(n) => {
                reject_unknown_keys(n, "netlist", &["cells", "seed"])?;
                let cells = n
                    .get("cells")
                    .ok_or_else(|| invalid("netlist.cells", "required"))?;
                let cells =
                    bounded_usize(cells, "netlist.cells", MIN_NETLIST_CELLS, MAX_NETLIST_CELLS)?;
                let seed = match n.get("seed") {
                    None => 0,
                    Some(s) => strict_u64(s)
                        .ok_or_else(|| invalid("netlist.seed", "must be a non-negative integer"))?,
                };
                Some(NetlistTier { cells, seed })
            }
        };
        let chaos = match value.get("chaos") {
            None => None,
            Some(c) => {
                let mode = c
                    .as_str()
                    .ok_or_else(|| invalid("chaos", "must be a string"))?;
                if mode != "panic" {
                    return Err(invalid(
                        "chaos",
                        format!("unknown chaos mode `{mode}` (only `panic`)"),
                    ));
                }
                Some(mode.to_owned())
            }
        };
        Ok(ScenarioSpec {
            node,
            activity,
            effective_fraction,
            junction_temp_c,
            workload_ratio,
            grid,
            netlist,
            chaos,
        })
    }

    /// The canonical JSON form: fixed key order, defaults written
    /// explicitly, optional legs only when present. `parse ∘ to_json`
    /// is the identity, and the [`digest`](Self::digest) is computed
    /// over exactly this text.
    pub fn to_json(&self) -> String {
        let mut out =
            format!(
            "{{\"node\": {}, \"activity\": {}, \"effective_fraction\": {}, \"workload_ratio\": {}",
            self.node.drawn().0, self.activity, self.effective_fraction, self.workload_ratio
        );
        if let Some(t) = self.junction_temp_c {
            out.push_str(&format!(", \"junction_temp_c\": {t}"));
        }
        if let Some(g) = &self.grid {
            out.push_str(&format!(", \"grid\": {{\"resolution\": {}}}", g.resolution));
        }
        if let Some(n) = &self.netlist {
            out.push_str(&format!(
                ", \"netlist\": {{\"cells\": {}, \"seed\": {}}}",
                n.cells, n.seed
            ));
        }
        if let Some(c) = &self.chaos {
            out.push_str(&format!(", \"chaos\": {}", jsonio::escape(c)));
        }
        out.push('}');
        out
    }

    /// FNV-1a digest of the canonical form — stable across client key
    /// order and omitted defaults. This is the spec's identity for the
    /// daemon's memo and quarantine.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }

    /// The record/job name the daemon reports for this spec:
    /// `spec:<16 hex digest>`.
    pub fn job_name(&self) -> String {
        job_name_for(self.digest())
    }

    /// Static work-unit estimate, computed before any evaluation (one
    /// unit ≈ a thousand inner-loop operations):
    ///
    /// - [`BASE_COST_UNITS`] for the chip analyses every spec runs;
    /// - the grid leg charges mesh nodes × a solver-iteration bound for
    ///   the solver [`np_grid::plan::strategy_for`] picks on the
    ///   assembled (odd) side: a flat 30 for MGCG on the 2^k+1 ladder,
    ///   O(resolution) iterations for Jacobi-PCG off it;
    /// - the netlist leg charges cells × per-cell generation, STA, and
    ///   power work.
    ///
    /// The daemon compares the request's summed estimate against
    /// `--max-spec-cost` (default [`DEFAULT_COST_BUDGET`]) and rejects
    /// over-budget requests with a typed `too_expensive` response.
    pub fn cost(&self) -> u64 {
        let mut units = BASE_COST_UNITS;
        if let Some(g) = &self.grid {
            let r = g.resolution as u64;
            // The mesh assembler rounds an even side up to the next odd one.
            let side = g.resolution | 1;
            let iterations = match np_grid::plan::strategy_for(side, side) {
                np_grid::SolveStrategy::MultigridCg => 30,
                np_grid::SolveStrategy::JacobiPcg => 3 * r,
            };
            units += r * r * iterations / 1000;
        }
        if let Some(n) = &self.netlist {
            units += n.cells as u64 * 20 / 1000;
        }
        units
    }

    /// Evaluates the scenario through the validating model paths:
    /// chip power budget and thermal closure always; min-pitch IR-drop
    /// mesh solve and netlist STA + power when the optional legs are
    /// present. Deterministic, so the output is memoizable by digest.
    ///
    /// The grid leg reads its unit solve from a fresh
    /// [`np_grid::mesh::MeshCache`]; [`evaluate_in`](Self::evaluate_in)
    /// shares one across specs.
    ///
    /// # Errors
    ///
    /// Propagates model errors ([`Error::InvalidParameter`] from the
    /// chip builder, grid/circuit errors from the legs).
    ///
    /// # Panics
    ///
    /// When the hidden `chaos: "panic"` hook is set — the deterministic
    /// trigger the quarantine tests and fuzzer rely on.
    pub fn evaluate(&self) -> Result<SpecReport, Error> {
        self.evaluate_in(&np_grid::mesh::MeshCache::new())
    }

    /// [`evaluate`](Self::evaluate) with the grid leg's unit solve read
    /// from (or added to) `mesh`, so specs at one mesh resolution share a
    /// single solve. The report is bitwise the same as `evaluate`'s:
    /// both scale the same deterministic unit solve.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    ///
    /// # Panics
    ///
    /// Same as [`evaluate`](Self::evaluate).
    pub fn evaluate_in(&self, mesh: &np_grid::mesh::MeshCache) -> Result<SpecReport, Error> {
        if self.chaos.as_deref() == Some("panic") {
            panic!(
                "spec chaos hook: panic requested by spec {}",
                self.job_name()
            );
        }
        // The workload duty ratio scales the switching activity every
        // power analysis sees; both factors are in (0, 1], so the
        // product stays inside the builder's accepted range.
        let duty_activity = self.activity * self.workload_ratio;
        let mut builder = Chip::builder(self.node)
            .activity(duty_activity)
            .effective_fraction(self.effective_fraction);
        if let Some(t) = self.junction_temp_c {
            builder = builder.junction_temp(Celsius(t));
        }
        let chip = builder.build()?;
        let budget = chip.power_budget()?;
        let thermal = chip.thermal_closure()?;
        let grid = match &self.grid {
            None => None,
            Some(g) => {
                let plan = np_grid::plan::GridPlan::min_pitch(self.node)?;
                let rail_width = plan.rail_width.ok_or(np_grid::GridError::BadParameter(
                    "min-pitch plan lost routability",
                ))?;
                let analytic =
                    np_grid::analytic::worst_case_drop(self.node, plan.bump_pitch, rail_width)?;
                Some(GridResult {
                    resolution: g.resolution,
                    analytic,
                    mesh: mesh.worst_drop_with_resolution(
                        self.node,
                        plan.bump_pitch,
                        rail_width,
                        g.resolution,
                    )?,
                })
            }
        };
        let netlist = match &self.netlist {
            None => None,
            Some(tier) => {
                let netlist_spec = np_circuit::generate::NetlistSpec::large(tier.seed, tier.cells);
                let netlist = np_circuit::generate::generate_netlist(&netlist_spec);
                let ctx = np_circuit::sta::TimingContext::for_node(self.node)?;
                let critical = ctx.critical_delay(&netlist);
                let freq = Hertz(1.0 / critical.0);
                let power = np_circuit::power::netlist_power(&netlist, &ctx, duty_activity, freq)?;
                Some(NetlistResult {
                    cells: tier.cells,
                    seed: tier.seed,
                    critical,
                    dynamic: power.dynamic,
                    leakage: power.leakage,
                })
            }
        };
        Ok(SpecReport {
            spec: self.clone(),
            chip,
            budget,
            thermal,
            grid,
            netlist,
        })
    }

    /// Evaluates and renders the scenario in the requested form — the
    /// spec counterpart of an artifact's `render_text`/`render_csv`.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    pub fn render(&self, csv: bool) -> Result<String, Error> {
        self.render_in(&np_grid::mesh::MeshCache::new(), csv)
    }

    /// [`render`](Self::render) through [`evaluate_in`](Self::evaluate_in):
    /// the same bytes, with the grid leg's unit solve shared through
    /// `mesh`.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    pub fn render_in(&self, mesh: &np_grid::mesh::MeshCache, csv: bool) -> Result<String, Error> {
        let report = self.evaluate_in(mesh)?;
        Ok(if csv { report.csv() } else { report.render() })
    }
}

/// The grid leg's result: the node's min-pitch geometry solved
/// analytically and on the requested mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridResult {
    /// Mesh nodes per side.
    pub resolution: usize,
    /// Closed-form worst-case IR drop.
    pub analytic: Volts,
    /// Numerical worst-case drop on the mesh.
    pub mesh: Volts,
}

/// The netlist leg's result: the critical-path delay plus
/// activity-scaled power over the generated tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistResult {
    /// Netlist size in cells.
    pub cells: usize,
    /// Generator seed.
    pub seed: u64,
    /// Critical-path delay.
    pub critical: Seconds,
    /// Dynamic power at the critical-path clock and the spec's
    /// duty-scaled activity.
    pub dynamic: Watts,
    /// Leakage power at the spec's junction temperature.
    pub leakage: Watts,
}

/// Everything one spec evaluation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// The spec as evaluated.
    pub spec: ScenarioSpec,
    /// The validated chip scenario.
    pub chip: Chip,
    /// The Section 3.1 static-power budget check.
    pub budget: PowerBudget,
    /// The Section 2.1 packaging/DTM closure.
    pub thermal: ThermalClosure,
    /// The grid leg, when requested.
    pub grid: Option<GridResult>,
    /// The netlist leg, when requested.
    pub netlist: Option<NetlistResult>,
}

impl SpecReport {
    /// Plain-text rendering, one line per analysis.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Scenario {} — {}, activity {:.3}, effective {:.2}, Tj {}, workload {:.2}\n",
            self.spec.job_name(),
            self.chip.node,
            self.spec.activity,
            self.spec.effective_fraction,
            self.chip.junction_temp,
            self.spec.workload_ratio,
        );
        out.push_str(&format!("  power budget: {}\n", self.budget));
        out.push_str(&format!("  thermal:      {}\n", self.thermal));
        if let Some(g) = &self.grid {
            out.push_str(&format!(
                "  grid {}x{}:   analytic {:.3} mV, mesh {:.3} mV (ratio {:.3})\n",
                g.resolution,
                g.resolution,
                g.analytic.0 * 1e3,
                g.mesh.0 * 1e3,
                g.mesh.0 / g.analytic.0,
            ));
        }
        if let Some(n) = &self.netlist {
            out.push_str(&format!(
                "  netlist {} cells (seed {}): critical {:.1} ps, dynamic {:.3} W, leakage {:.3} W\n",
                n.cells,
                n.seed,
                n.critical.0 * 1e12,
                n.dynamic.0,
                n.leakage.0,
            ));
        }
        out
    }

    /// CSV rendering: one header line, one data row; absent legs leave
    /// their columns empty.
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "node_nm,activity,effective_fraction,junction_temp_c,workload_ratio,\
             budget_w,static_limit_w,leakage_w,reduction_needed,theta_dtm,\
             grid_resolution,grid_analytic_mv,grid_mesh_mv,\
             netlist_cells,netlist_critical_ps,netlist_dynamic_w,netlist_leakage_w\n",
        );
        let (grid_res, grid_analytic, grid_mesh) = match &self.grid {
            Some(g) => (
                g.resolution.to_string(),
                format!("{:.6}", g.analytic.0 * 1e3),
                format!("{:.6}", g.mesh.0 * 1e3),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        let (nl_cells, nl_ps, nl_dyn, nl_leak) = match &self.netlist {
            Some(n) => (
                n.cells.to_string(),
                format!("{:.3}", n.critical.0 * 1e12),
                format!("{:.6}", n.dynamic.0),
                format!("{:.6}", n.leakage.0),
            ),
            None => (String::new(), String::new(), String::new(), String::new()),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.3},{:.3},{:.6},{:.6},{grid_res},{grid_analytic},{grid_mesh},{nl_cells},{nl_ps},{nl_dyn},{nl_leak}\n",
            self.chip.node.drawn().0,
            self.spec.activity,
            self.spec.effective_fraction,
            self.chip.junction_temp.0,
            self.spec.workload_ratio,
            self.budget.total.0,
            self.budget.static_limit.0,
            self.budget.projected_leakage.0,
            self.budget.reduction_needed,
            self.thermal.theta_dtm.0,
        ));
        out
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_legs_evaluate_at_every_node() {
        // The fuzz harness asserts valid specs produce clean reports, so
        // every node must carry a small mesh leg without tripping the
        // routability guard.
        for node in TechNode::ALL {
            let mut spec = ScenarioSpec::at_node(node);
            spec.grid = Some(GridSpec { resolution: 9 });
            let report = spec
                .evaluate()
                .unwrap_or_else(|e| panic!("{node:?} grid leg: {e}"));
            assert!(report.grid.is_some(), "{node:?}");
        }
    }

    #[test]
    fn defaults_fill_and_round_trip() {
        let spec = ScenarioSpec::parse(r#"{"node": 70}"#).unwrap();
        assert_eq!(spec, ScenarioSpec::at_node(TechNode::N70));
        assert_eq!(spec.activity, 0.1);
        assert_eq!(spec.workload_ratio, 1.0);
        let round = ScenarioSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
        assert_eq!(round.digest(), spec.digest());
    }

    #[test]
    fn name_from_the_digest_is_the_job_name() {
        let mut spec = ScenarioSpec::at_node(TechNode::N50);
        assert_eq!(job_name_for(spec.digest()), spec.job_name());
        spec.netlist = Some(NetlistTier {
            cells: 50_000,
            seed: 7,
        });
        assert_eq!(job_name_for(spec.digest()), spec.job_name());
        assert_eq!(job_name_for(0xab), "spec:00000000000000ab");
    }

    #[test]
    fn full_spec_round_trips_and_digest_ignores_key_order() {
        let a = ScenarioSpec::parse(
            r#"{"node": 100, "activity": 0.25, "effective_fraction": 0.8,
                "junction_temp_c": 85, "workload_ratio": 0.5,
                "grid": {"resolution": 33}, "netlist": {"cells": 1000, "seed": 7}}"#,
        )
        .unwrap();
        let b = ScenarioSpec::parse(
            r#"{"netlist": {"seed": 7, "cells": 1000}, "grid": {"resolution": 33},
                "workload_ratio": 0.5, "junction_temp_c": 85,
                "effective_fraction": 0.8, "activity": 0.25, "node": 100}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(ScenarioSpec::parse(&a.to_json()).unwrap(), a);
        // Omitted defaults digest identically to explicit ones.
        let explicit = ScenarioSpec::parse(r#"{"node": 50, "activity": 0.1}"#).unwrap();
        let omitted = ScenarioSpec::parse(r#"{"node": 50}"#).unwrap();
        assert_eq!(explicit.digest(), omitted.digest());
        // But real differences change the digest.
        let other = ScenarioSpec::parse(r#"{"node": 50, "activity": 0.2}"#).unwrap();
        assert_ne!(other.digest(), omitted.digest());
    }

    #[test]
    fn rejections_name_the_offending_field() {
        let cases = [
            (r#"{"activity": 0.1}"#, "node", "required"),
            (r#"{"node": 90}"#, "node", "no roadmap node"),
            (r#"{"node": -70}"#, "node", "non-negative"),
            (r#"{"node": 70, "activity": 0}"#, "activity", "(0, 1]"),
            (r#"{"node": 70, "activity": 1.5}"#, "activity", "(0, 1]"),
            (r#"{"node": 70, "activity": "hot"}"#, "activity", "number"),
            (
                r#"{"node": 70, "effective_fraction": -1}"#,
                "effective_fraction",
                "(0, 1]",
            ),
            (
                r#"{"node": 70, "junction_temp_c": 300}"#,
                "junction_temp_c",
                "[-55, 250]",
            ),
            (
                r#"{"node": 70, "workload_ratio": 2}"#,
                "workload_ratio",
                "(0, 1]",
            ),
            (r#"{"node": 70, "grid": {}}"#, "grid.resolution", "required"),
            (
                r#"{"node": 70, "grid": {"resolution": 3}}"#,
                "grid.resolution",
                "[5, 1025]",
            ),
            (
                r#"{"node": 70, "grid": {"resolution": 2000}}"#,
                "grid.resolution",
                "[5, 1025]",
            ),
            (
                r#"{"node": 70, "grid": {"resolution": 33, "shape": "torus"}}"#,
                "grid.shape",
                "unknown key",
            ),
            (
                r#"{"node": 70, "netlist": {"cells": 10}}"#,
                "netlist.cells",
                "[100, 10000000]",
            ),
            (
                r#"{"node": 70, "netlist": {"cells": 1000, "seed": -1}}"#,
                "netlist.seed",
                "non-negative",
            ),
            (r#"{"node": 70, "activty": 0.1}"#, "activty", "unknown key"),
            (
                r#"{"node": 70, "chaos": "segfault"}"#,
                "chaos",
                "unknown chaos mode",
            ),
            (r#"{"node": 70, "chaos": 1}"#, "chaos", "string"),
            (r#"[1]"#, "spec", "JSON object"),
            (r#"{"node": 70,"#, "spec", ""),
        ];
        for (text, field, needle) in cases {
            match ScenarioSpec::parse(text) {
                Err(Error::InvalidSpec { field: f, reason }) => {
                    assert_eq!(f, field, "{text} -> field {f}: {reason}");
                    assert!(reason.contains(needle), "{text} -> {reason}");
                }
                other => panic!("{text} -> {other:?}"),
            }
        }
    }

    #[test]
    fn huge_and_non_finite_numbers_are_typed_rejections() {
        // jsonio itself refuses to produce non-finite values; the spec
        // layer reports that as a typed invalid_spec, never a panic.
        for text in [
            r#"{"node": 70, "activity": 1e999}"#,
            r#"{"node": 70, "junction_temp_c": -1e999}"#,
        ] {
            assert!(
                matches!(ScenarioSpec::parse(text), Err(Error::InvalidSpec { .. })),
                "{text}"
            );
        }
    }

    #[test]
    fn cost_model_orders_tiers_sensibly() {
        let plain = ScenarioSpec::at_node(TechNode::N70);
        assert_eq!(plain.cost(), BASE_COST_UNITS);
        let mut small_grid = plain.clone();
        small_grid.grid = Some(GridSpec { resolution: 33 });
        let mut big_grid = plain.clone();
        big_grid.grid = Some(GridSpec {
            resolution: MAX_GRID_RESOLUTION,
        });
        assert!(small_grid.cost() > plain.cost());
        assert!(big_grid.cost() > small_grid.cost());
        assert!(
            big_grid.cost() <= DEFAULT_COST_BUDGET,
            "the production mesh tier must fit the default budget, cost {}",
            big_grid.cost()
        );
        let mut mega = plain.clone();
        mega.netlist = Some(NetlistTier {
            cells: MAX_NETLIST_CELLS,
            seed: 0,
        });
        assert!(
            mega.cost() > DEFAULT_COST_BUDGET,
            "the 10^7-cell tier must exceed the default budget, cost {}",
            mega.cost()
        );
    }

    #[test]
    fn cost_model_prices_the_solver_the_plan_runs() {
        let grid_cost = |resolution| {
            let mut spec = ScenarioSpec::at_node(TechNode::N70);
            spec.grid = Some(GridSpec { resolution });
            spec.cost() - BASE_COST_UNITS
        };
        // 128 (assembled as 129) and 1025 fit the 2^k+1 ladder: MGCG, a
        // flat 30 iterations. 300 and 1000 do not: Jacobi-PCG, 3·r.
        for (resolution, iterations) in [(128, 30), (1025, 30), (300, 900), (1000, 3000)] {
            let r = resolution as u64;
            assert_eq!(
                grid_cost(resolution),
                r * r * iterations / 1000,
                "{resolution}"
            );
        }
        // An off-ladder near-maximal mesh runs Jacobi-PCG for minutes and
        // must not pass the default gate; the 1025² MGCG tier still does.
        assert!(grid_cost(1000) > DEFAULT_COST_BUDGET);
        assert!(grid_cost(1025) + BASE_COST_UNITS <= DEFAULT_COST_BUDGET);
    }

    #[test]
    fn evaluation_runs_the_validating_paths() {
        let mut spec = ScenarioSpec::at_node(TechNode::N70);
        spec.activity = 0.2;
        spec.workload_ratio = 0.5;
        spec.grid = Some(GridSpec { resolution: 17 });
        spec.netlist = Some(NetlistTier {
            cells: 400,
            seed: 3,
        });
        let report = spec.evaluate().unwrap();
        assert_eq!(report.chip.activity, 0.1, "duty-scaled activity");
        let grid = report.grid.unwrap();
        assert!(grid.mesh.0 > 0.0 && grid.analytic.0 > 0.0);
        let nl = report.netlist.unwrap();
        assert!(nl.critical.0 > 0.0 && nl.dynamic.0 > 0.0 && nl.leakage.0 > 0.0);
        let text = report.render();
        assert!(text.contains(&spec.job_name()), "{text}");
        assert!(text.contains("grid 17x17"), "{text}");
        assert!(text.contains("netlist 400 cells"), "{text}");
        let csv = report.csv();
        assert_eq!(csv.lines().count(), 2);
        let (header, row) = (
            csv.lines().next().unwrap().split(',').count(),
            csv.lines().nth(1).unwrap().split(',').count(),
        );
        assert_eq!(header, row, "csv row matches header arity");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut spec = ScenarioSpec::at_node(TechNode::N100);
        spec.netlist = Some(NetlistTier {
            cells: 300,
            seed: 9,
        });
        assert_eq!(spec.render(false).unwrap(), spec.render(false).unwrap());
        assert_eq!(spec.render(true).unwrap(), spec.render(true).unwrap());
        assert_ne!(spec.render(false).unwrap(), spec.render(true).unwrap());
    }

    #[test]
    fn evaluate_in_solves_each_resolution_once_with_evaluate_bits() -> Result<(), Error> {
        let bits = |report: SpecReport| {
            report
                .grid
                .map(|g| (g.resolution, g.analytic.0.to_bits(), g.mesh.0.to_bits()))
        };
        let collector = np_telemetry::Collector::new();
        let mesh = np_grid::mesh::MeshCache::new();
        for node in [TechNode::N70, TechNode::N35] {
            let mut spec = ScenarioSpec::at_node(node);
            spec.grid = Some(GridSpec { resolution: 33 });
            let shared = {
                let _guard = np_telemetry::install(&collector);
                bits(spec.evaluate_in(&mesh)?)
            };
            assert!(shared.is_some(), "{node:?} has a grid leg");
            assert_eq!(shared, bits(spec.evaluate()?), "{node:?}");
        }
        // The second node at the same resolution read the first one's
        // unit solve.
        let lookups: Vec<_> = collector
            .summary()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("grid.mesh_cache."))
            .collect();
        assert_eq!(
            lookups,
            [
                ("grid.mesh_cache.hit".into(), 1),
                ("grid.mesh_cache.miss".into(), 1)
            ]
        );
        Ok(())
    }

    #[test]
    fn netlist_leg_bits_are_pinned() -> Result<(), Error> {
        // Netlist-only specs shaped like the daemon's cold-compute
        // requests (50 000 cells, duty-scaled activity, the netlist seeds
        // the serve-cold stream draws under seed 1), one per node. The
        // critical delay, dynamic power and leakage must not move by a
        // bit under any rewrite of the STA or power kernels.
        let pins: [(TechNode, f64, f64, u64, [u64; 3]); 6] = [
            (
                TechNode::N180,
                0.31,
                0.62,
                2_097_152,
                [0x3e1e72be1755bcd2, 0x3fd60ce511f76d65, 0x3f61732b1a28c1a9],
            ),
            (
                TechNode::N130,
                0.12,
                0.97,
                2_097_153,
                [0x3e199c9e6e919deb, 0x3fc0758833cf9e4a, 0x3f5d532d2095c6ed],
            ),
            (
                TechNode::N100,
                0.44,
                0.35,
                2_097_154,
                [0x3e1af49007207574, 0x3fb39ea9efc0a48c, 0x3f784a217f336a43],
            ),
            (
                TechNode::N70,
                0.08,
                0.81,
                2_097_155,
                [0x3e08371a75799241, 0x3f9c03c08ec2d8b5, 0x3fa167bc1320a367],
            ),
            (
                TechNode::N50,
                0.27,
                0.50,
                2_097_156,
                [0x3dfc7560a16332aa, 0x3fa10a64bbb89d73, 0x3fd7fe948b66e605],
            ),
            (
                TechNode::N35,
                0.19,
                0.73,
                2_097_157,
                [0x3e009e1e358650d6, 0x3f982a598ae95207, 0x3f8f41464a9bbc56],
            ),
        ];
        for (node, activity, workload_ratio, seed, bits) in pins {
            let spec = ScenarioSpec {
                activity,
                workload_ratio,
                netlist: Some(NetlistTier {
                    cells: 50_000,
                    seed,
                }),
                ..ScenarioSpec::at_node(node)
            };
            let got = spec.evaluate()?.netlist.map(|nl| {
                [
                    nl.critical.0.to_bits(),
                    nl.dynamic.0.to_bits(),
                    nl.leakage.0.to_bits(),
                ]
            });
            assert_eq!(got, Some(bits), "{node:?}");
        }
        Ok(())
    }

    #[test]
    fn chaos_hook_panics_deterministically() {
        let mut spec = ScenarioSpec::at_node(TechNode::N70);
        spec.chaos = Some("panic".into());
        let spec2 = spec.clone();
        let unwound = std::panic::catch_unwind(move || spec2.evaluate());
        assert!(unwound.is_err(), "chaos hook must panic");
        // The hook changes the digest, so quarantining it cannot shadow
        // the healthy spec.
        let mut healthy = spec.clone();
        healthy.chaos = None;
        assert_ne!(spec.digest(), healthy.digest());
    }
}
